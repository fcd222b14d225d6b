from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmod import (
    AlgebraElement,
    AtomSet,
    ModuleVector,
    PrimeField,
    RationalField,
    ValidationError,
    is_prime,
)
from regmod.fields import _quote, parse_field_spec
from regmod.randgen import ACCEPTANCE_FIELDS


def test_is_prime_small_table():
    def slow(n: int) -> bool:
        return n >= 2 and all(n % k for k in range(2, n))

    for n in range(500):
        assert is_prime(n) == slow(n), n


def test_is_prime_carmichael():
    # 561 = 3·11·17 fools the plain Fermat test
    assert not is_prime(561)
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2_147_483_647)  # 2^31 - 1


@pytest.mark.parametrize("field", ACCEPTANCE_FIELDS + (PrimeField(2**61 - 1),), ids=str)
def test_parse_field_spec_inverts_describe(field):
    parsed = parse_field_spec(field.describe())
    assert type(parsed) is type(field) and parsed == field


def test_prime_field_rejects_composite():
    with pytest.raises(ValidationError):
        PrimeField(4)
    with pytest.raises(ValidationError):
        PrimeField(1)


@pytest.mark.parametrize("modulus", [5.0, Fraction(5), "5", None])
def test_prime_field_requires_an_int_modulus(modulus):
    with pytest.raises(ValidationError, match="is not an int"):
        PrimeField(modulus)


@pytest.mark.parametrize("value", [10**4000, -(10**5000), Fraction(1, 5 * 10**5000)],
                         ids=["10^4000", "-10^5000", "1/(5*10^5000)"])
def test_error_text_describes_long_numbers_by_bit_length(value):
    bits = max(value.numerator.bit_length(), value.denominator.bit_length())
    assert _quote(value) == f"<{type(value).__name__} of {bits} bits>"


@pytest.mark.parametrize("build, quoted", [
    (lambda: PrimeField(10**5000), "<int of 16610 bits> is too large"),
    (lambda: PrimeField(-(10**5000)), "<int of 16610 bits> is not prime"),
    (lambda: AlgebraElement(PrimeField(5), AtomSet(("a",)), (10**4000,)), "<int of 13288 bits>"),
    (lambda: AlgebraElement(PrimeField(5), AtomSet(("a",)), (10**5000,)), "<int of 16610 bits>"),
    (lambda: AlgebraElement(RationalField(), AtomSet(("a",)), (10**5000,)), "<int of 16610 bits>"),
    (lambda: PrimeField(5).coerce(Fraction(1, 5 * 10**5000)), "<Fraction of 16612 bits>"),
], ids=["prime-huge", "prime-negative", "check-4000-digits", "check-5000-digits", "rational-check",
        "coerce-fraction"])
def test_error_text_about_long_numbers_is_bounded(build, quoted):
    with pytest.raises(ValidationError) as info:
        build()
    assert quoted in str(info.value) and len(str(info.value)) < 100


def test_error_text_about_short_numbers_is_unchanged():
    # just below the cut, an int is still quoted by a prefix of its digits
    assert _quote(2**2047) == f"{str(2**2047)[:20]!r}... (617 characters)"
    with pytest.raises(ValidationError, match=r"^4 is not prime$"):
        PrimeField(4)
    with pytest.raises(ValidationError, match=r"^'33170440646798873859'\.\.\. \(25 characters\) is too"):
        PrimeField(3317044064679887385961981)
    with pytest.raises(ValidationError, match=r"^7 is not a canonical residue mod 5$"):
        PrimeField(5).check(7)
    with pytest.raises(ValidationError, match=r"^3 is not a Fraction$"):
        RationalField().check(3)


def test_prime_field_ops():
    f = PrimeField(5)
    assert f.add(3, 4) == 2
    assert f.sub(1, 3) == 3
    assert f.mul(2, 4) == 3
    assert f.neg(2) == 3
    assert f.inv(2) == 3
    assert f.inv(4) == 4
    with pytest.raises(ValidationError):
        f.inv(0)


def test_prime_field_parse_strict():
    f = PrimeField(5)
    assert f.parse("4") == 4
    with pytest.raises(ValidationError):
        f.parse("5")
    with pytest.raises(ValidationError):
        f.parse("-1")
    with pytest.raises(ValidationError):
        f.parse("x")


def test_rational_parse_and_render():
    f = RationalField()
    assert f.parse("3/4") == Fraction(3, 4)
    assert f.parse("-2") == Fraction(-2)
    assert f.parse("4/6") == Fraction(2, 3)  # canonicalized on the way in
    assert f.render(Fraction(2, 3)) == "2/3"
    assert f.render(Fraction(-7)) == "-7"
    with pytest.raises(ValidationError):
        f.parse("1/0")
    with pytest.raises(ValidationError):
        f.parse("1/-2")
    with pytest.raises(ValidationError):
        f.parse("a/b")
    with pytest.raises(ValidationError):
        f.inv(Fraction(0))


RATIONAL_SAMPLES = [Fraction(0), Fraction(1), Fraction(-1), Fraction(12), Fraction(-12),
                    Fraction(3, 4), Fraction(-5, 6), Fraction(10**40, 7)]


def test_rational_scalar_ops_are_fractions_own():
    f = RationalField()
    for a in RATIONAL_SAMPLES:
        assert f.neg(a) == -a
        assert f.render(a) == str(a)
        assert f.render(a) == (f"{a.numerator}/{a.denominator}" if a.denominator != 1 else str(a.numerator))
        for b in RATIONAL_SAMPLES:
            assert (f.add(a, b), f.sub(a, b), f.mul(a, b)) == (a + b, a - b, a * b)
            assert {type(f.add(a, b)), type(f.sub(a, b)), type(f.mul(a, b))} == {Fraction}
    assert f.render(Fraction(10**40, 7)) == "1" + "0" * 40 + "/7"


@given(st.integers(min_value=0, max_value=96), st.integers(min_value=1, max_value=96))
def test_field_inverse_identity_f97(a, b):
    f = PrimeField(97)
    assert f.mul(b, f.inv(b)) == 1
    assert f.parse(f.render(a)) == a


@given(st.fractions())
def test_rational_render_roundtrip(q):
    f = RationalField()
    assert f.parse(f.render(q)) == q


def test_is_prime_exact_up_to_its_bound():
    # psi_12, the least strong pseudoprime to the twelve smallest prime bases
    assert 399165290221 * 798330580441 == 318665857834031151167461
    assert not is_prime(318665857834031151167461)
    with pytest.raises(ValidationError):
        PrimeField(318665857834031151167461)
    assert is_prime(2**61 - 1)
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    # psi_13 fools all thirteen bases, so it and everything above is refused
    with pytest.raises(ValidationError):
        is_prime(3317044064679887385961981)
    with pytest.raises(ValidationError):
        PrimeField(2**89 - 1)


@pytest.mark.parametrize("text", [" 3", "3 ", "+2", "0_1", "٣", "", "1/1", "0x1"])
def test_prime_field_parse_ascii_digits_only(text):
    with pytest.raises(ValidationError):
        PrimeField(97).parse(text)


def test_prime_field_parse_huge_is_out_of_range():
    with pytest.raises(ValidationError) as info:
        PrimeField(97).parse("1" * 5000)
    assert "out of range" in str(info.value)


@pytest.mark.parametrize(
    "text", [" 3", "+2", "0_1", "٣", "", "-", "1/", "/2", "1/ 2", "1/+2", "--1", "1.5", "1/00"]
)
def test_rational_parse_grammar(text):
    with pytest.raises(ValidationError):
        RationalField().parse(text)


def test_rational_parse_accepts_the_grammar():
    f = RationalField()
    assert f.parse("007") == Fraction(7)
    assert f.parse("-0") == Fraction(0)
    assert f.parse("-10/04") == Fraction(-5, 2)


ROW_FIELDS = [PrimeField(5), PrimeField(2**61 - 1), RationalField()]
ROW_IDS = ["f5", "f_2^61-1", "rational"]
TRICKY_TEXTS = ["٥", "+5", " 5", "5_0", "", "0005", "1" * 5000, "1/0", "-0"]


def _per_item(one, items):
    """The per-scalar loop a row method must agree with: (results, first bad index, message)."""
    out = []
    for k, item in enumerate(items):
        try:
            out.append(one(item))
        except ValidationError as exc:
            return None, k, str(exc)
    return out, None, None


def _assert_rejected_alike(row_method, items, index, message):
    with pytest.raises(ValidationError) as info:
        row_method(items)
    assert (info.value.index, str(info.value)) == (index, message)


def _texts(field):
    if isinstance(field, PrimeField):
        valid = st.integers(0, field.p - 1).map(str)
        tricky = st.sampled_from(TRICKY_TEXTS + [str(field.p)])
    else:
        valid = st.fractions().map(field.render)
        tricky = st.sampled_from(TRICKY_TEXTS)
    return st.lists(st.one_of(valid, valid, tricky), max_size=12)


def _values(field):
    if isinstance(field, PrimeField):
        valid = st.integers(0, field.p - 1)
        odd = st.one_of(st.integers(min_value=field.p), st.fractions())
    else:
        valid = st.fractions()
        odd = st.integers()
    odd = st.one_of(odd, st.booleans(), st.floats(), st.integers(max_value=-1))
    return st.lists(st.one_of(valid, valid, odd), max_size=12)


@pytest.mark.parametrize("field", ROW_FIELDS, ids=ROW_IDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_parse_row_equals_per_scalar_parse(field, data):
    row = data.draw(_texts(field))
    expected, index, message = _per_item(field.parse, row)
    if expected is None:
        _assert_rejected_alike(field.parse_row, row, index, message)
    else:
        got = field.parse_row(row)
        assert got == expected and list(map(type, got)) == list(map(type, expected))


# (p, row, values, or the first bad index and its message): one-digit rows
# take the byte-translation path, the rest the int() path or the fallback
@pytest.mark.parametrize("p, row, expected", [
    (5, ["0", "3", "0", "4", "0"], [0, 3, 0, 4, 0]),
    (2, ["1", "0", "2", "1"], (2, "'2' out of range for modulus 2")),
    (5, ["1", "٣"], (1, "'٣' is not a decimal integer")),
    (11, ["3", "10", "0"], [3, 10, 0]),
    (7, ["05", "6"], [5, 6]),
], ids=["one_digit_zeros", "f2_out_of_range", "non_ascii_digit", "mixed_widths", "leading_zero"])
def test_prime_parse_row_edge_cases(p, row, expected):
    field = PrimeField(p)
    per_item = _per_item(field.parse, row)
    if isinstance(expected, tuple):
        assert per_item[1:] == expected
        _assert_rejected_alike(field.parse_row, row, *expected)
    else:
        got = field.parse_row(row)
        assert got == per_item[0] == expected and {type(v) for v in got} == {int}


@pytest.mark.parametrize("field", ROW_FIELDS, ids=ROW_IDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_check_all_equals_per_value_check(field, data):
    values = tuple(data.draw(_values(field)))
    passed, index, message = _per_item(field.check, values)
    if passed is None:
        _assert_rejected_alike(field.check_all, values, index, message)
    else:
        field.check_all(values)


def test_check_all_accepts_bool_like_check():
    PrimeField(5).check_all((True, False, 4))
    with pytest.raises(ValidationError) as info:
        PrimeField(2).check_all((1, 0, 2, 3))
    assert info.value.index == 2 and str(info.value) == "2 is not a canonical residue mod 2"


# -- exact coerce at the library boundary -------------------------------------

F5 = PrimeField(5)
Q = RationalField()


@pytest.mark.parametrize(
    "field, raw, expected",
    [
        (F5, 7, 2),
        (F5, -1, 4),
        (F5, True, 1),
        (F5, Fraction(1, 2), 3),
        (F5, Fraction(-3, 4), 3),
        (F5, Fraction(10, 3), 0),
        (Q, 3, Fraction(3)),
        (Q, -2, Fraction(-2)),
        (Q, Fraction(1, 3), Fraction(1, 3)),
    ],
)
def test_coerce_is_exact(field, raw, expected):
    ctx = AtomSet(("q1", "q2"))
    for element in (
        AlgebraElement.from_values(field, ctx, [raw, raw]),
        ModuleVector.from_grid(field, ctx, [[raw, raw]]).coords[0],
    ):
        assert element.values == (expected, expected)
        assert all(type(v) is type(expected) for v in element.values)


@pytest.mark.parametrize(
    "field, raw",
    [
        (F5, 2.9),
        (F5, 0.5),
        (F5, "7"),
        (F5, Decimal("1")),
        (F5, Fraction(1, 5)),
        (F5, Fraction(3, 10)),
        (F5, "7" * 5000),
        (Q, 0.1),
        (Q, "1/2"),
        (Q, Decimal("0.1")),
    ],
)
def test_coerce_refuses_inexact_values(field, raw):
    ctx = AtomSet(("q1",))
    for build in (
        lambda: AlgebraElement.from_values(field, ctx, [raw]),
        lambda: ModuleVector.from_grid(field, ctx, [[raw]]),
    ):
        with pytest.raises(ValidationError) as info:
            build()
        assert _quote(raw) in str(info.value) and len(str(info.value)) < 200
