from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmod import (
    AtomSet,
    GeneratorSet,
    IsoMap,
    ModuleVector,
    PrimeField,
    ValidationError,
    atom_rank_profile,
    build_isomorphism,
    oracle_passport,
    oracle_verify_iso,
    passport,
)
from regmod.oracle import RankProfile, _express, _rank
from regmod.randgen import constant_rank_instance, random_generator_set, recombined_copy
from regmod.rng import SplitMix64


@pytest.fixture
def f5():
    return PrimeField(5)


@pytest.fixture
def ctx():
    return AtomSet(("q1", "q2", "q3"))


def test_rank_small_matrices(f5):
    assert _rank([], f5) == 0
    assert _rank([[0, 0], [0, 0]], f5) == 0
    assert _rank([[1, 2], [2, 4]], f5) == 1
    assert _rank([[1, 0], [0, 1]], f5) == 2
    assert _rank([[1, 2, 3], [0, 1, 4]], f5) == 2
    # 2*row0 == row1 mod 5
    assert _rank([[1, 3], [2, 1]], f5) == 1


def test_express_solves(f5):
    coeffs = _express([[1, 0], [0, 1]], [3, 4], f5)
    assert coeffs == [3, 4]
    assert _express([[1, 2]], [2, 4], f5) == [2]
    assert _express([[1, 2]], [2, 3], f5) is None
    assert _express([], [0, 0], f5) == []
    assert _express([], [1, 0], f5) is None


def test_profile_fixture(fixture_gens):
    profile = atom_rank_profile(fixture_gens)
    assert profile.ranks == {"q1": 2, "q2": 1, "q3": 2}
    assert profile.rank_of("q2") == 1


def test_profile_edge_cases(f5, ctx):
    empty = GeneratorSet(f5, ctx, 2, ())
    assert atom_rank_profile(empty).ranks == {"q1": 0, "q2": 0, "q3": 0}
    basis = GeneratorSet(
        f5, ctx, 2,
        (ModuleVector.unit(f5, ctx, 2, 0), ModuleVector.unit(f5, ctx, 2, 1)),
    )
    assert atom_rank_profile(basis).ranks == {"q1": 2, "q2": 2, "q3": 2}


def test_profile_domain_validation(ctx):
    with pytest.raises(ValidationError):
        RankProfile(ctx, {"q1": 1})


def test_oracle_passport_fixture(fixture_gens):
    pp = oracle_passport(fixture_gens)
    assert [(e.piece.render(), e.rank) for e in pp.entries] == [
        ("{q2}", 1), ("{q1,q3}", 2),
    ]
    assert pp == passport(fixture_gens)


def test_oracle_passport_constant_rank(f5):
    gens, rank = constant_rank_instance(SplitMix64(7), f5)
    pp = oracle_passport(gens)
    assert len(pp.entries) == 1
    assert pp.entries[0].rank == rank
    assert pp.entries[0].piece == gens.context.full()


def test_oracle_passport_all_zero(f5, ctx):
    gens = GeneratorSet(f5, ctx, 3, (ModuleVector.zeros(f5, ctx, 3),))
    pp = oracle_passport(gens)
    assert [(e.piece.render(), e.rank) for e in pp.entries] == [("{q1,q2,q3}", 0)]


def test_verify_accepts_identity(fixture_gens):
    iso = build_isomorphism(fixture_gens, fixture_gens)
    assert oracle_verify_iso(iso, fixture_gens, fixture_gens)


def test_verify_accepts_recombination(fixture_gens):
    other = recombined_copy(fixture_gens, SplitMix64(31), ops=8)
    iso = build_isomorphism(fixture_gens, other)
    assert oracle_verify_iso(iso, fixture_gens, other)
    back = build_isomorphism(other, fixture_gens)
    assert oracle_verify_iso(back, other, fixture_gens)


def test_verify_rejects_corrupted_images(f5, ctx, fixture_gens):
    iso = build_isomorphism(fixture_gens, fixture_gens)
    zero = ModuleVector.zeros(f5, ctx, 2)
    broken = IsoMap(
        field=iso.field,
        context=iso.context,
        source_ambient_dim=iso.source_ambient_dim,
        target_ambient_dim=iso.target_ambient_dim,
        partition=iso.partition,
        pieces=iso.pieces,
        generator_images=(zero,) + iso.generator_images[1:],
    )
    assert not oracle_verify_iso(broken, fixture_gens, fixture_gens)


def test_verify_rejects_swapped_images(f5, ctx, fixture_gens):
    # swapping the images breaks the action sampling: g1 must go to its own coords
    iso = build_isomorphism(fixture_gens, fixture_gens)
    broken = IsoMap(
        field=iso.field,
        context=iso.context,
        source_ambient_dim=iso.source_ambient_dim,
        target_ambient_dim=iso.target_ambient_dim,
        partition=iso.partition,
        pieces=iso.pieces,
        generator_images=(iso.generator_images[1], iso.generator_images[0]),
    )
    assert not oracle_verify_iso(broken, fixture_gens, fixture_gens)


def test_verify_seed_stability(fixture_gens):
    other = recombined_copy(fixture_gens, SplitMix64(5), ops=4)
    iso = build_isomorphism(fixture_gens, other)
    assert oracle_verify_iso(iso, fixture_gens, other, seed=1)
    assert oracle_verify_iso(iso, fixture_gens, other, seed=99, samples=8)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_verify_accepts_random_recombinations(seed):
    rng = SplitMix64(seed)
    gens = random_generator_set(rng, max_atoms=5, max_gens=4, max_ambient=4)
    other = recombined_copy(gens, rng, ops=5)
    iso = build_isomorphism(gens, other)
    assert oracle_verify_iso(iso, gens, other)
