"""Exact scalar arithmetic: prime fields F_p and the rationals.

Scalars are kept in canonical form at all times so that ``==`` on values is
the same thing as equality in the field: residues are ints in ``[0, p)`` and
rationals are fully reduced ``fractions.Fraction`` instances with positive
denominator (the Fraction constructor guarantees that).
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from functools import lru_cache
from itertools import chain, compress, repeat
from math import lcm
from operator import add, attrgetter, floordiv, mul, not_, sub
from typing import Callable, Iterable, Sequence, Union

from .errors import Record, ValidationError

Scalar = Union[int, Fraction]
Row = Union[bytes, list]  # a row of the elimination engine: see PrimeField.row_type

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all thirteen witnesses above
_MR_EXACT_BELOW = 3317044064679887385961981

_FP_SCALAR = re.compile(r"[0-9]+")
_RATIONAL_SCALAR = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_QUOTE_LIMIT = 20
# Python converts ints of up to 640 digits to text under any limit: 2,048 bits stay below that
_QUOTE_BITS = 2048
# maps each ASCII digit byte to its value
_DIGITS = bytes.maketrans(b"0123456789", bytes(range(10)))
# translate() tables that put 0xFF where a byte row has a zero, or where it has a nonzero
_FF_AT_ZERO = b"\xff" + bytes(255)
_FF_AT_NONZERO = bytes(1) + b"\xff" * 255
# Fraction's own slots, read in C: its public numerator and denominator are Python properties
_NUMERATOR, _DENOMINATOR = attrgetter("_numerator"), attrgetter("_denominator")


def _quote(value: object) -> str:
    """Offending input for an error message: its repr if short, else a prefix and its length.

    An int or Fraction of more than _QUOTE_BITS bits is described by its bit length, not converted.
    """
    if isinstance(value, (int, Fraction)):  # an int's denominator is 1
        bits = max(value.numerator.bit_length(), value.denominator.bit_length())
        if bits > _QUOTE_BITS:
            return f"<{type(value).__name__} of {bits} bits>"
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


def _join_lists(parts: Iterable[list]) -> list:
    """The concatenation of list rows."""
    return list(chain.from_iterable(parts))


def _split_list(flat: list, pivot: list) -> tuple[list, list]:
    """(flat where pivot ≠ 0, flat where pivot = 0) over list rows: see PrimeField.split_row."""
    hit = list(map(bool, pivot))  # scalars are falsy exactly when zero
    reps = len(flat) // len(pivot)
    return list(compress(flat, hit * reps)), list(compress(flat, list(map(not_, hit)) * reps))


@lru_cache(maxsize=None)  # called only for the six primes with p² ≤ 256
def _byte_tables(p: int) -> tuple[bytes, bytes, bytes]:
    """translate() tables for F_p byte rows: x·p + y → x·y, x·p + y → −x·y, k → k, all mod p."""
    products = [x * y % p for x in range(p) for y in range(p)]  # at index x·p + y
    pad = bytes(256 - p * p)
    residues = bytes(k % p for k in range(256))
    return bytes(products) + pad, bytes(-v % p for v in products) + pad, residues


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for every n below 3.3e24.

    Larger n raise ValidationError: these witnesses cannot decide them.
    """
    if n >= _MR_EXACT_BELOW:
        raise ValidationError(f"{_quote(n)} is too large for the exact primality test")
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
        if not isinstance(self.p, int):
            raise ValidationError(f"modulus {_quote(self.p)} is not an int")
        if not is_prime(self.p):
            raise ValidationError(f"{_quote(self.p)} is not prime")

    def check(self, v: Scalar) -> None:
        if not isinstance(v, int) or not 0 <= v < self.p:
            raise ValidationError(f"{_quote(v)} is not a canonical residue mod {self.p}")

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

    # Row kernels: the elimination engine's rows are sequences of residues of
    # `row_type`.  For p² ≤ 256 that is bytes, one residue per byte: then x·p + y
    # and the sum of two residues stay below 256, so big-int arithmetic on a
    # whole row never carries between bytes, and a 256-byte translate() table
    # maps every byte at once.  Larger p keep lists of ints.

    @property
    def row_type(self) -> type:
        """bytes when p² ≤ 256, else list."""
        return bytes if self.p * self.p <= 256 else list

    def join_rows(self, parts: Iterable[Row]) -> Row:
        """The concatenation of rows."""
        return b"".join(parts) if self.row_type is bytes else _join_lists(parts)

    def split_row(self, flat: Row, pivot: Row) -> tuple[Row, Row]:
        """(flat where pivot ≠ 0, flat where pivot = 0), flat being entries of len(pivot) ≥ 1."""
        if self.row_type is not bytes:
            return _split_list(flat, pivot)
        reps, size = len(flat) // len(pivot), len(flat)
        value = int.from_bytes(flat, "little")
        # residues are below 0xFF: OR-ing 0xFF into the unwanted bytes marks them for deletion
        return tuple(
            (value | int.from_bytes(pivot.translate(mask) * reps, "little"))
            .to_bytes(size, "little").translate(None, b"\xff")
            for mask in (_FF_AT_ZERO, _FF_AT_NONZERO))

    def start_row(self, values: Iterable[int], n: int) -> Row:
        """The engine's first matrix: the residues, entry-major over n atoms, as one row."""
        return self.row_type(values)

    def pivot_reduce(self, xs: Row, fs: Row, ys: Row, pivot: Row, carried: Row) -> Row:
        """[(a·x − f·y) mod p]: fraction-free elimination below a pivot.

        The pivot a holds one unit per atom and repeats along xs; ys, the
        pivot row, repeats along xs and fs.  On each atom the result is the
        Gaussian row times the unit a, so no inverse is needed.  F_p carries
        nothing after the matrix, so `carried` is empty.
        """
        p, size = self.p, len(xs)
        scales, ys = pivot * (size // len(pivot)), ys * (size // max(len(ys), 1))
        if self.row_type is not bytes:
            return [(a * x - f * y) % p for a, x, f, y in zip(scales, xs, fs, ys)]
        product, negated_product, residue = _byte_tables(p)

        def looked_up(us: bytes, vs: bytes, table: bytes) -> int:
            """[table[u·p + v]] over two aligned byte rows, packed into one int."""
            packed = int.from_bytes(us, "little") * p + int.from_bytes(vs, "little")
            return int.from_bytes(packed.to_bytes(size, "little").translate(table), "little")

        total = looked_up(scales, xs, product) + looked_up(fs, ys, negated_product)
        return total.to_bytes(size, "little").translate(residue)

    def combine_rows(self, coefficient_rows: Sequence, value_rows: Sequence) -> list[int]:
        """[Σ_k a_k[q]·x_k[q] mod p] over the atoms q: int products summed, one % p each."""
        p = self.p
        return [s % p for s in map(sum, zip(*map(map, repeat(mul), coefficient_rows, value_rows)))]

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

    render = staticmethod(str)  # a canonical residue's text; no Python frame per scalar

    def describe(self) -> str:
        return f"fp:{self.p}"


class RationalField(Record):
    """The rationals; values are reduced Fractions with positive denominator."""

    zero, one = Fraction(0), Fraction(1)  # immutable, so shared

    def check(self, v: Scalar) -> None:
        if not isinstance(v, Fraction):
            raise ValidationError(f"{_quote(v)} is not a Fraction")

    def check_all(self, values: Sequence) -> None:
        """check() on every value; the verdict depends on type only: one value per type decides."""
        _check_by(self.check, dict(zip(map(type, values), values)).values(), values)

    def coerce(self, v) -> Fraction:
        """An int or a Fraction; inexact values such as floats are refused."""
        if isinstance(v, (int, Fraction)):
            return Fraction(v)
        raise ValidationError(f"{_quote(v)} is not an int or a Fraction")

    # Fraction's own operators: no Python frame per scalar
    add, sub, mul, neg = map(staticmethod, (operator.add, operator.sub, operator.mul, operator.neg))

    # Row kernels (see PrimeField): the engine's rows are lists of ints.  Its
    # elimination is fraction-free (Bareiss, "Sylvester's identity and
    # multistep integer-preserving Gaussian elimination", Math. Comp. 22,
    # 1968): each atom's matrix is scaled to integers once, and each pivot
    # step divides exactly by that atom's previous pivot, carried after the
    # matrix.  The engine reads only zero patterns, and these match the
    # Fraction elimination's: after k steps an entry of either is the same
    # (k+1)-minor of the atom's matrix, times a power of the atom's scale or
    # over the k-minor of its pivots, so one is zero exactly when the other is.
    row_type = list
    join_rows, split_row = staticmethod(_join_lists), staticmethod(_split_list)

    def start_row(self, values: Iterable[Fraction], n: int) -> list[int]:
        """The engine's first matrix as integers, then n previous pivots of 1.

        The values run entry-major over n atoms; each atom's are multiplied
        by the lcm of their denominators.
        """
        values = list(values)
        nums = [v.numerator for v in values]
        dens = [v.denominator for v in values]
        scales = [lcm(*dens[t::n]) for t in range(n)] * (len(values) // n)
        return [a * (s // b) for a, b, s in zip(nums, dens, scales)] + [1] * n

    def pivot_reduce(self, xs: list, fs: list, ys: list, pivot: list, prev: list) -> list[int]:
        """[(a·x − f·y) // prev], then the pivot a as the new previous pivots.

        One Bareiss step over integer rows: a and prev hold one value per
        atom and repeat along xs, ys (the pivot row) repeats along xs and
        fs.  Sylvester's identity makes every division exact, whatever entry
        each step pivots on.
        """
        reps = len(xs) // len(pivot)
        products = map(mul, fs, ys * (len(xs) // max(len(ys), 1)))
        scaled = map(mul, pivot * reps, xs)
        return list(map(floordiv, map(sub, scaled, products), prev * reps)) + pivot

    def combine_rows(self, coefficient_rows: Sequence, value_rows: Sequence) -> list[Fraction]:
        """[Σ_k a_k[q]·x_k[q]] over the atoms q of one or more rows, one Fraction each.

        Each sum n/d is kept as two ints: adding a term t/u gives
        (n·u + t·d)/(d·u), so only the last step reduces (Knuth, TAOCP vol. 2,
        §4.5.1).
        """
        nums, dens = [0] * len(value_rows[0]), [1] * len(value_rows[0])
        for coefficients, values in zip(coefficient_rows, value_rows):
            term_dens = list(map(mul, map(_DENOMINATOR, coefficients), map(_DENOMINATOR, values)))
            term_nums = map(mul, map(_NUMERATOR, coefficients), map(_NUMERATOR, values))
            nums = list(map(add, map(mul, nums, term_dens), map(mul, term_nums, dens)))
            dens = list(map(mul, dens, term_dens))
        return list(map(Fraction, nums, dens))

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

    render = staticmethod(str)  # "n" for an integer, else "n/d" in lowest terms

    def describe(self) -> str:
        return "rational"


Field = Union[PrimeField, RationalField]
