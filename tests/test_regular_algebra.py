from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from regmod import (
    AlgebraElement,
    AtomSet,
    ContextMismatchError,
    Idempotent,
    LengthMismatchError,
    PartitionOfUnity,
    PrimeField,
    RationalField,
    StepForm,
    StepTerm,
    ValidationError,
    mix_scalars,
)


@pytest.fixture
def f5():
    return PrimeField(5)


@pytest.fixture
def ctx():
    return AtomSet(("q1", "q2", "q3"))


def el(field, ctx, *values):
    return AlgebraElement.from_values(field, ctx, values)


def test_pointwise_arithmetic(f5, ctx):
    a = el(f5, ctx, 2, 0, 3)
    b = el(f5, ctx, 3, 1, 4)
    assert (a * b).values == (1, 0, 2)
    assert (a + b).values == (0, 1, 2)
    assert (a - b).values == (4, 4, 4)
    assert (-a).values == (3, 0, 2)
    assert (a + AlgebraElement.zeros(f5, ctx)) == a
    assert (a - a).is_zero


def test_canonical_value_enforcement(f5, ctx):
    with pytest.raises(ValidationError):
        AlgebraElement(f5, ctx, (5, 0, 0))
    with pytest.raises(ValidationError):
        AlgebraElement(RationalField(), ctx, (1, 0, 0))  # ints are not Fractions
    with pytest.raises(LengthMismatchError):
        AlgebraElement(f5, ctx, (1, 2))


def test_inversion(f5, ctx):
    a = el(f5, ctx, 2, 0, 3)
    assert a.inversion().values == (3, 0, 2)
    assert AlgebraElement.zeros(f5, ctx).inversion().is_zero
    e = AlgebraElement.from_idempotent(f5, ctx.subset(["q1", "q3"]))
    assert e.inversion() == e
    assert (a * a * a.inversion()) == a
    assert (a * a.inversion() * a.inversion()) == a.inversion()
    assert a.inversion().inversion() == a


def test_inversion_rational(ctx):
    f = RationalField()
    a = el(f, ctx, Fraction(2, 3), Fraction(0), Fraction(-5, 4))
    assert a.inversion().values == (Fraction(3, 2), Fraction(0), Fraction(-4, 5))


def test_support(f5, ctx):
    a = el(f5, ctx, 2, 0, 3)
    b = el(f5, ctx, 3, 1, 0)
    assert a.support() == ctx.subset(["q1", "q3"])
    assert AlgebraElement.zeros(f5, ctx).support().is_zero
    assert (a * b).support() == ctx.subset(["q1"])
    assert (a * b).support() == a.support().meet(b.support())
    assert a.annihilator() == ctx.subset(["q2"])
    assert (a * a.inversion()) == AlgebraElement.from_idempotent(f5, a.support())


def test_step_form(f5, ctx):
    form = el(f5, ctx, 2, 0, 2).step_form()
    assert [(t.value, t.piece.render()) for t in form.terms] == [(2, "{q1,q3}")]
    form = el(f5, ctx, 1, 2, 3).step_form()
    assert [(t.value, t.piece.render()) for t in form.terms] == [
        (1, "{q1}"), (2, "{q2}"), (3, "{q3}"),
    ]
    assert AlgebraElement.zeros(f5, ctx).step_form().terms == ()


def test_step_form_validation(f5, ctx):
    q1, q13 = ctx.subset(["q1"]), ctx.subset(["q1", "q3"])
    with pytest.raises(ValidationError):
        StepForm((StepTerm(0, q1),))  # zero value
    with pytest.raises(ValidationError):
        StepForm((StepTerm(2, q1), StepTerm(2, ctx.subset(["q2"]))))  # duplicate value
    with pytest.raises(ValidationError):
        StepForm((StepTerm(2, q13), StepTerm(3, q1)))  # overlapping pieces


def test_step_form_roundtrip_examples(f5, ctx):
    for values in [(2, 0, 2), (1, 2, 3), (0, 0, 0), (4, 4, 1)]:
        a = el(f5, ctx, *values)
        assert a.step_form().to_element(f5, ctx) == a


def test_mix_scalars(f5, ctx):
    p = PartitionOfUnity((ctx.subset(["q1"]), ctx.subset(["q2", "q3"])))
    mixed = mix_scalars(p, [el(f5, ctx, 1, 2, 3), el(f5, ctx, 4, 0, 1)])
    assert mixed.values == (1, 0, 1)
    p2 = PartitionOfUnity((ctx.subset(["q1", "q2"]), ctx.subset(["q3"])))
    assert mix_scalars(p2, [el(f5, ctx, 2, 2, 0), el(f5, ctx, 0, 0, 4)]).values == (2, 2, 4)
    a = el(f5, ctx, 3, 1, 4)
    assert mix_scalars(p, [a, a]) == a


def test_mix_scalars_errors(f5, ctx):
    p = PartitionOfUnity((ctx.full(),))
    with pytest.raises(LengthMismatchError):
        mix_scalars(p, [])
    other = AtomSet(("a", "b", "c"))
    with pytest.raises(ContextMismatchError):
        mix_scalars(p, [AlgebraElement.zeros(f5, other)])


def test_restrict(f5, ctx):
    a = el(f5, ctx, 1, 2, 3)
    assert a.restrict(ctx.subset(["q2"])).values == (0, 2, 0)
    assert a.restrict(ctx.full()) == a
    assert a.restrict(ctx.empty()).is_zero


def test_scale(f5, ctx):
    a = el(f5, ctx, 1, 2, 3)
    assert a.scale(2).values == (2, 4, 1)


# -- randomized identities ---------------------------------------------------

f97_elements = st.lists(
    st.integers(min_value=0, max_value=96), min_size=4, max_size=4
)


def _mk(values):
    ctx = AtomSet(("t1", "t2", "t3", "t4"))
    return AlgebraElement.from_values(PrimeField(97), ctx, values)


@given(f97_elements, f97_elements)
def test_support_of_product_random(va, vb):
    a, b = _mk(va), _mk(vb)
    assert (a * b).support() == a.support().meet(b.support())
    assert ((a * b).is_zero) == a.support().meet(b.support()).is_zero


@given(f97_elements)
def test_regularity_random(va):
    a = _mk(va)
    assert a * a * a.inversion() == a
    assert a.inversion().inversion() == a


@given(f97_elements, f97_elements)
def test_disjoint_additivity_random(va, vb):
    a = _mk(va)
    b = _mk(vb).restrict(a.support().complement())
    assert (a * b).is_zero
    assert (a + b).inversion() == a.inversion() + b.inversion()
    assert (a + b).support() == a.support().join(b.support())


@given(st.lists(st.fractions(max_denominator=9), min_size=3, max_size=3))
def test_step_roundtrip_rational_random(values):
    ctx = AtomSet(("t1", "t2", "t3"))
    a = AlgebraElement.from_values(RationalField(), ctx, values)
    assert a.step_form().to_element(RationalField(), ctx) == a


# -- one context check and one per-scalar op behind every pointwise operator --

@pytest.mark.parametrize("op", ["add", "sub", "mul"])
def test_binary_ops_refuse_another_field_or_atom_set(op, f5, ctx):
    a = AlgebraElement.one(f5, ctx)
    others = [AlgebraElement.one(PrimeField(7), ctx), AlgebraElement.one(RationalField(), ctx),
              AlgebraElement.one(f5, AtomSet(("a", "b", "c")))]
    for other in others:
        for left, right in ((a, other), (other, a)):
            with pytest.raises(ContextMismatchError, match="elements over different algebras"):
                getattr(left, f"__{op}__")(right)


@pytest.mark.parametrize("field", [PrimeField(5), PrimeField(97), RationalField()], ids=["F5", "F97", "Q"])
def test_neg_scale_and_from_idempotent_equal_per_scalar_field_ops(field, ctx):
    a = AlgebraElement.from_values(field, ctx, (3, 0, -2))
    assert (-a).values == tuple(field.neg(v) for v in a.values)
    for s in (field.zero, field.one, field.coerce(-1), field.coerce(4)):
        assert a.scale(s).values == tuple(field.mul(s, v) for v in a.values)
    for bad in (field.p if isinstance(field, PrimeField) else 2, 0.5):
        with pytest.raises(ValidationError):
            a.scale(bad)
    char = AlgebraElement.from_idempotent(field, ctx.subset(["q1", "q3"]))
    assert char.values == (field.one, field.zero, field.one)
    assert AlgebraElement.from_idempotent(field, ctx.empty()).is_zero


def test_step_form_refuses_a_piece_over_another_atom_set(f5, ctx):
    other = AtomSet(("a", "b", "c"))
    form = StepForm((StepTerm(2, other.subset(["a"])),))
    with pytest.raises(ContextMismatchError):
        form.to_element(f5, ctx)


def test_support_and_step_form_treat_a_fraction_zero_as_zero():
    q = RationalField()
    ctx = AtomSet(tuple(f"t{i}" for i in range(10)))
    values = (Fraction(0), Fraction(1, 2), Fraction(0), Fraction(-3), Fraction(1, 2),
              Fraction(0), Fraction(-3), Fraction(0), Fraction(1, 2), Fraction(0))
    a = AlgebraElement(q, ctx, values)
    assert a.support() == Idempotent(ctx, 0b0101011010)
    assert a.step_form() == StepForm((StepTerm(Fraction(1, 2), Idempotent(ctx, 0b0100010010)),
                                      StepTerm(Fraction(-3), Idempotent(ctx, 0b0001001000))))
    assert a.restrict(a.support()) == a
    assert a.restrict(ctx.atom("t3")).values == (Fraction(0),) * 3 + (Fraction(-3),) + (Fraction(0),) * 6
    assert AlgebraElement(q, ctx, (Fraction(0),) * 10).step_form() == StepForm(())
