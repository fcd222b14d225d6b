"""Exact scalar arithmetic: prime fields F_p and the rationals.

Scalars are kept in canonical form at all times so that ``==`` on values is
the same thing as equality in the field: residues are ints in ``[0, p)`` and
rationals are fully reduced ``fractions.Fraction`` instances with positive
denominator (the Fraction constructor guarantees that).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Iterable, Sequence, Union

from .errors import Record, ValidationError

Scalar = Union[int, Fraction]

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all thirteen witnesses above
_MR_EXACT_BELOW = 3317044064679887385961981

_FP_SCALAR = re.compile(r"[0-9]+")
_RATIONAL_SCALAR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_QUOTE_LIMIT = 20
# maps each ASCII digit byte to its value
_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))


def _quote(value: object) -> str:
    """Offending input for an error message: its repr if short, else a prefix and its length."""
    text = value if isinstance(value, str) else repr(value)
    if len(text) <= _QUOTE_LIMIT:
        return repr(value)
    return f"{text[:_QUOTE_LIMIT]!r}... ({len(text)} characters)"


def _each(one: Callable, items: Sequence) -> list:
    """[one(item) for item in items]; the first failure is re-raised with its index."""
    out = []
    for k, item in enumerate(items):
        try:
            out.append(one(item))
        except ValidationError as exc:
            exc.index = k
            raise
    return out


def _check_by(check: Callable, deciders: Iterable, values: Sequence) -> None:
    """check() on every value: run on the `deciders` only, or, if one fails, on each in turn."""
    try:
        for v in deciders:
            check(v)
    except ValidationError:
        _each(check, values)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3e24.

    Larger n raise ValidationError: these witnesses cannot decide them.
    """
    if n >= _MR_EXACT_BELOW:
        raise ValidationError(f"{_quote(str(n))} is too large for the exact primality test")
    if n < 2:
        return False
    for small in _MR_WITNESSES:
        if n == small:
            return True
        if n % small == 0:
            return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField(Record):
    """F_p with residues stored as canonical ints in [0, p)."""

    p: int
    zero, one = 0, 1

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValidationError(f"{self.p} is not prime")

    def check(self, v: Scalar) -> None:
        if not isinstance(v, int) or not 0 <= v < self.p:
            raise ValidationError(f"{v!r} is not a canonical residue mod {self.p}")

    def check_all(self, values: Sequence) -> None:
        """check() on every value; in an all-int row the least and greatest decide the rest."""
        ints = all(issubclass(t, int) for t in set(map(type, values)))
        _check_by(self.check, (min(values), max(values)) if ints and values else values, values)

    def coerce(self, v) -> int:
        """An int reduced mod p, or a Fraction whose denominator p does not divide."""
        if isinstance(v, int):
            return v % self.p
        if isinstance(v, Fraction) and v.denominator % self.p:
            return v.numerator * pow(v.denominator, -1, self.p) % self.p
        raise ValidationError(f"{_quote(v)} has no exact value mod {self.p}")

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul_row(self, xs: Sequence[int], ys: Sequence[int]) -> list[int]:
        """[mul(x, y)] over two aligned rows."""
        p = self.p
        return [x * y % p for x, y in zip(xs, ys)]

    def sub_mul(self, xs: Sequence[int], fs: Sequence[int], ys: Sequence[int]) -> list[int]:
        """[sub(x, mul(f, y))] over three aligned rows."""
        p = self.p
        return [(x - f * y) % p for x, f, y in zip(xs, fs, ys)]

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ValidationError("no inverse of 0")
        return pow(a, -1, self.p)

    def parse(self, text: str) -> int:
        if not _FP_SCALAR.fullmatch(text):
            raise ValidationError(f"{_quote(text)} is not a decimal integer")
        try:
            v = int(text, 10)
        except ValueError:  # more digits than int() converts: far past any p
            v = self.p
        if v >= self.p:
            raise ValidationError(f"{_quote(text)} out of range for modulus {self.p}")
        return v

    def parse_row(self, texts: Sequence[str]) -> list[int]:
        """[parse(t) for t in texts], as C-level passes that accept exactly ASCII [0-9]+ below p."""
        joined = "".join(texts)
        if all(texts) and joined.isascii() and joined.isdigit():
            try:
                one_digit = len(joined) == len(texts)  # then one pass over the bytes converts all
                values = list(joined.encode().translate(_DIGITS) if one_digit else map(int, texts))
                if max(values, default=0) < self.p:
                    return values
            except ValueError:  # more digits than int() converts: far past any p
                pass
        return _each(self.parse, texts)

    def render(self, v: int) -> str:
        return str(v)

    def describe(self) -> str:
        return f"fp:{self.p}"


class RationalField(Record):
    """The rationals; values are reduced Fractions with positive denominator."""

    zero, one = Fraction(0), Fraction(1)  # immutable, so shared

    def check(self, v: Scalar) -> None:
        if not isinstance(v, Fraction):
            raise ValidationError(f"{v!r} is not a Fraction")

    def check_all(self, values: Sequence) -> None:
        """check() on every value; the verdict depends on type only: one value per type decides."""
        _check_by(self.check, dict(zip(map(type, values), values)).values(), values)

    def coerce(self, v) -> Fraction:
        """An int or a Fraction; inexact values such as floats are refused."""
        if isinstance(v, (int, Fraction)):
            return Fraction(v)
        raise ValidationError(f"{_quote(v)} is not an int or a Fraction")

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def sub(self, a: Fraction, b: Fraction) -> Fraction:
        return a - b

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def neg(self, a: Fraction) -> Fraction:
        return -a

    def mul_row(self, xs: Sequence[Fraction], ys: Sequence[Fraction]) -> list[Fraction]:
        """[mul(x, y)] over two aligned rows."""
        return [x * y for x, y in zip(xs, ys)]

    def sub_mul(self, xs: Sequence, fs: Sequence, ys: Sequence) -> list[Fraction]:
        """[sub(x, mul(f, y))] over three aligned rows."""
        return [x - f * y for x, f, y in zip(xs, fs, ys)]

    def inv(self, a: Fraction) -> Fraction:
        if a == 0:
            raise ValidationError("no inverse of 0")
        return 1 / a

    def parse(self, text: str) -> Fraction:
        match = _RATIONAL_SCALAR.fullmatch(text)
        if not match:
            raise ValidationError(f"{_quote(text)} is not a rational")
        num, den = match.groups()
        if den is not None and not den.strip("0"):
            raise ValidationError(f"{_quote(text)}: denominator must be nonzero")
        try:
            return Fraction(int(num, 10), 1 if den is None else int(den, 10))
        except ValueError:  # more digits than int() converts
            raise ValidationError(f"{_quote(text)} has too many digits") from None

    def parse_row(self, texts: Sequence[str]) -> list[Fraction]:
        """[parse(t) for t in texts]; a failure carries the first bad index."""
        return _each(self.parse, texts)

    def render(self, v: Fraction) -> str:
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"

    def describe(self) -> str:
        return "rational"


Field = Union[PrimeField, RationalField]
