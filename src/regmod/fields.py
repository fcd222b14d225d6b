"""Exact scalar arithmetic: prime fields F_p and the rationals.

Scalars are kept in canonical form at all times so that ``==`` on values is
the same thing as equality in the field: residues are ints in ``[0, p)`` and
rationals are fully reduced ``fractions.Fraction`` instances with positive
denominator (the Fraction constructor guarantees that).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ValidationError

Scalar = Union[int, Fraction]

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all thirteen witnesses above
_MR_EXACT_BELOW = 3317044064679887385961981

_FP_SCALAR = re.compile(r"[0-9]+")
_RATIONAL_SCALAR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_QUOTE_LIMIT = 20


def _quote(text: str) -> str:
    """Offending input text for an error message: whole if short, else a prefix and its length."""
    if len(text) <= _QUOTE_LIMIT:
        return repr(text)
    return f"{text[:_QUOTE_LIMIT]!r}... ({len(text)} characters)"


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


@dataclass(frozen=True)
class PrimeField:
    """F_p with residues stored as canonical ints in [0, p)."""

    p: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValidationError(f"{self.p} is not prime")

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def check(self, v: Scalar) -> None:
        if not isinstance(v, int) or not 0 <= v < self.p:
            raise ValidationError(f"{v!r} is not a canonical residue mod {self.p}")

    def coerce(self, v) -> int:
        return int(v) % self.p

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

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

    def render(self, v: int) -> str:
        return str(v)

    def describe(self) -> str:
        return f"fp:{self.p}"


@dataclass(frozen=True)
class RationalField:
    """The rationals; values are reduced Fractions with positive denominator."""

    @property
    def zero(self) -> Fraction:
        return Fraction(0)

    @property
    def one(self) -> Fraction:
        return Fraction(1)

    def check(self, v: Scalar) -> None:
        if not isinstance(v, Fraction):
            raise ValidationError(f"{v!r} is not a Fraction")

    def coerce(self, v) -> Fraction:
        return Fraction(v)

    def add(self, a: Fraction, b: Fraction) -> Fraction:
        return a + b

    def sub(self, a: Fraction, b: Fraction) -> Fraction:
        return a - b

    def mul(self, a: Fraction, b: Fraction) -> Fraction:
        return a * b

    def neg(self, a: Fraction) -> Fraction:
        return -a

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

    def render(self, v: Fraction) -> str:
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"

    def describe(self) -> str:
        return "rational"


Field = Union[PrimeField, RationalField]
