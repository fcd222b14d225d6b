from __future__ import annotations

import tracemalloc
from fractions import Fraction
from hashlib import sha256

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmod import (
    AlgebraElement,
    AtomSet,
    ModuleVector,
    PrimeField,
    RationalField,
    atom_rank_profile,
    passport,
)
from regmod.module_file import render_module_file
from regmod.randgen import (
    ACCEPTANCE_FIELDS,
    apply_invertible_op,
    constant_rank_instance,
    default_labels,
    perturb_rank_profile,
    random_element,
    random_field,
    random_generator_set,
    random_unit,
    random_vector,
    recombined_copy,
)
from regmod.rng import SplitMix64


def test_default_labels():
    assert default_labels(3) == ("q1", "q2", "q3")
    assert default_labels(1) == ("q1",)


def test_acceptance_fields():
    assert ACCEPTANCE_FIELDS == (
        PrimeField(2), PrimeField(5), PrimeField(97), RationalField(),
    )


def test_random_field_stays_in_menu():
    rng = SplitMix64(3)
    assert all(random_field(rng) in ACCEPTANCE_FIELDS for _ in range(40))


def test_generator_set_deterministic():
    a = random_generator_set(SplitMix64(12))
    b = random_generator_set(SplitMix64(12))
    assert a == b
    assert a != random_generator_set(SplitMix64(13))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_generator_set_respects_bounds(seed):
    gens = random_generator_set(SplitMix64(seed), max_atoms=5, max_gens=3, max_ambient=4)
    assert 1 <= len(gens.context) <= 5
    assert 0 <= len(gens) <= 3
    assert 1 <= gens.ambient_dim <= 4
    assert gens.field in ACCEPTANCE_FIELDS


def test_random_unit_is_invertible():
    rng = SplitMix64(8)
    for field in ACCEPTANCE_FIELDS:
        gens = random_generator_set(SplitMix64(1), field)
        u = random_unit(field, gens.context, rng)
        assert u.support() == gens.context.full()
        one = AlgebraElement.from_idempotent(field, gens.context.full())
        assert u * u.inversion() == one


def test_random_element_zero_bias():
    rng = SplitMix64(21)
    gens = random_generator_set(SplitMix64(1), PrimeField(97), max_atoms=4)
    always = [random_element(PrimeField(97), gens.context, rng, zero_bias=1)
              for _ in range(30)]
    assert all(a.is_zero for a in always)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_invertible_op_preserves_passport(seed):
    rng = SplitMix64(seed)
    gens = random_generator_set(rng, max_atoms=5, max_gens=4, max_ambient=4)
    before = passport(gens)
    assert passport(apply_invertible_op(gens, rng)) == before
    assert passport(recombined_copy(gens, rng, ops=4)) == before


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_perturbation_changes_profile(seed):
    rng = SplitMix64(seed)
    gens = random_generator_set(rng, max_atoms=5, max_gens=4, max_ambient=4)
    other = perturb_rank_profile(gens, rng)
    assert atom_rank_profile(other) != atom_rank_profile(gens)


def test_perturbation_of_empty_module():
    gens = random_generator_set(SplitMix64(2), max_atoms=3, max_gens=2)
    empty = type(gens)(gens.field, gens.context, gens.ambient_dim, ())
    other = perturb_rank_profile(empty, SplitMix64(0))
    assert len(other) == 1
    assert atom_rank_profile(other) != atom_rank_profile(empty)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_constant_rank_instance_is_constant(seed):
    gens, rank = constant_rank_instance(SplitMix64(seed), max_atoms=5)
    profile = atom_rank_profile(gens)
    assert set(profile.ranks.values()) == {rank}


def test_randgen_outputs_golden():
    """Byte-for-byte pin of the generators' output, seeds 0-199."""
    h = sha256()
    branches = set()
    for seed in range(200):
        rng = SplitMix64(seed)
        gens, rank = constant_rank_instance(rng)
        h.update(f"{rank}\n{render_module_file(gens)}".encode())
        for source in (gens, random_generator_set(rng, max_atoms=6, max_gens=3, max_ambient=3)):
            other = perturb_rank_profile(source, rng)
            branches.add(len(other) > len(source))
            h.update(render_module_file(other).encode())
    assert branches == {True, False}  # both the appending and the zeroing branch ran
    assert h.hexdigest() == "e39fadac44600cc9da1e2d894f07482724921da4db2d4da570fa0eea5fc56bb2"


# ---------------------------------------------------------------------------
# Block draws: random_element and random_vector take their words a block at a
# time, and must give what the per-draw loop below gives, value for value and
# word for word.


def _reference_scalar(field, rng):
    if isinstance(field, PrimeField):
        return rng.below(field.p)
    return Fraction(rng.below(21) - 10, 1 + rng.below(9))


def _reference_values(field, d, rng, zero_bias=3):
    """The per-draw loop random_element ran before block draws, verbatim."""
    return [
        field.zero if rng.below(zero_bias) == 0 else _reference_scalar(field, rng)
        for _ in range(d)
    ]


def _typed(values):
    return [(type(v), v) for v in values]  # 0 == Fraction(0), so compare the types too


BLOCK_FIELDS = (
    PrimeField(2),
    PrimeField(5),
    PrimeField(97),
    PrimeField(2**61 - 1),
    RationalField(),
    PrimeField(2**63 + 29),  # least prime above 2^63: about half its words are redrawn
    PrimeField(2**64 + 13),  # least prime above 2^64: each draw joins two words
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(BLOCK_FIELDS),
    st.integers(min_value=1, max_value=70),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_block_draws_equal_the_per_draw_loop(field, d, n, zero_bias, seed):
    context = AtomSet(default_labels(d))
    rng, replay = SplitMix64(seed), SplitMix64(seed)
    element = random_element(field, context, rng, zero_bias)
    assert _typed(element.values) == _typed(_reference_values(field, d, replay, zero_bias))
    vector = random_vector(field, context, n, rng, zero_bias)
    assert [_typed(c.values) for c in vector.coords] == [
        _typed(_reference_values(field, d, replay, zero_bias)) for _ in range(n)
    ]
    assert rng.next64() == replay.next64()


@pytest.mark.parametrize("field", BLOCK_FIELDS, ids=str)
def test_block_draws_span_several_blocks(field):
    context = AtomSet(default_labels(5000))
    rng, replay = SplitMix64(5000), SplitMix64(5000)
    assert _typed(random_element(field, context, rng).values) == _typed(
        _reference_values(field, 5000, replay)
    )
    assert rng.next64() == replay.next64()


def _peak_bytes(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_block_draws_keep_a_wide_rows_peak_memory():
    field, d = PrimeField(5), 65536
    context = AtomSet(default_labels(d))
    SplitMix64(0).words(1)  # the lane constants are built once per process, not per row
    per_draw = _peak_bytes(
        lambda: ModuleVector(
            (AlgebraElement(field, context, _reference_values(field, d, SplitMix64(1))),)
        )
    )
    blocks = _peak_bytes(lambda: random_vector(field, context, 1, SplitMix64(1)))
    assert blocks <= 1.25 * per_draw
