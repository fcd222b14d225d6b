from __future__ import annotations

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmod import (
    AlgebraElement,
    AtomSet,
    ContextMismatchError,
    GeneratorSet,
    Idempotent,
    ModuleVector,
    NotInModuleError,
    Passport,
    PassportEntry,
    PassportMismatchError,
    PrimeField,
    RankMismatchError,
    RationalField,
    ValidationError,
    ZeroIdempotentError,
    atom_rank,
    atom_rank_profile,
    build_isomorphism,
    combine,
    extract_basis,
    finitely_dimensional_report,
    independence_test,
    is_strictly_homogeneous,
    iso_check,
    kappa,
    membership,
    oracle_passport,
    oracle_verify_iso,
    passport,
    piecewise_basis,
    regular_eliminate,
)
from regmod.randgen import default_labels, random_generator_set, random_vector, recombined_copy
from regmod.rng import SplitMix64


@pytest.fixture
def f5():
    return PrimeField(5)


@pytest.fixture
def ctx():
    return AtomSet(("q1", "q2", "q3"))


def standard_basis(field, ctx, n):
    gens = tuple(ModuleVector.unit(field, ctx, n, i) for i in range(n))
    return GeneratorSet(field, ctx, n, gens)


def test_eliminate_fixture(f5, ctx, fixture_gens):
    leaves, trace = regular_eliminate(fixture_gens, ctx.full())
    assert {(piece.render(), rank) for piece, rank in leaves} == {
        ("{q2}", 1), ("{q1,q3}", 2),
    }
    covered = 0
    for piece, _ in trace.leaves:
        assert covered & piece.mask == 0
        covered |= piece.mask
    assert covered == ctx.full_mask
    assert trace.start == ctx.full()
    assert trace.steps  # at least one pivot was taken


def test_eliminate_all_zero(f5, ctx):
    gens = GeneratorSet(f5, ctx, 2, (ModuleVector.zeros(f5, ctx, 2),))
    leaves, _ = regular_eliminate(gens, ctx.full())
    assert leaves == [(ctx.full(), 0)]


def test_eliminate_standard_basis(f5, ctx):
    gens = standard_basis(f5, ctx, 3)
    leaves, _ = regular_eliminate(gens, ctx.full())
    assert leaves == [(ctx.full(), 3)]


def test_eliminate_zero_idempotent(f5, ctx, fixture_gens):
    with pytest.raises(ZeroIdempotentError):
        regular_eliminate(fixture_gens, ctx.empty())


def test_eliminate_builds_no_algebra_elements(f5, monkeypatch):
    context = AtomSet(default_labels(64))
    rng = SplitMix64(64)
    gens = GeneratorSet(f5, context, 8, tuple(
        random_vector(f5, context, 8, rng) for _ in range(8)))
    built = []
    original = AlgebraElement.__post_init__

    def counting(self):
        built.append(1)
        original(self)

    monkeypatch.setattr(AlgebraElement, "__post_init__", counting)
    leaves, trace = regular_eliminate(gens, context.full())
    assert trace.steps and len(leaves) > 1
    assert not built


def test_eliminate_rank_matches_classical(f5, ctx, fixture_gens):
    leaves, _ = regular_eliminate(fixture_gens, ctx.full())
    for piece, rank in leaves:
        for q in piece.atom_indices():
            assert atom_rank(fixture_gens, q) == rank


def test_passport_fixture(f5, ctx, fixture_gens):
    pp = passport(fixture_gens)
    assert [(e.piece.render(), e.rank) for e in pp.entries] == [
        ("{q2}", 1), ("{q1,q3}", 2),
    ]
    assert pp.render() == "rank=1 piece={q2}\nrank=2 piece={q1,q3}"
    assert pp.rank_at(ctx.index("q1")) == 2
    assert pp.rank_at(ctx.index("q2")) == 1
    assert pp.faithful


def test_passport_empty_generators(f5, ctx):
    pp = passport(GeneratorSet(f5, ctx, 1, ()))
    assert [(e.piece.render(), e.rank) for e in pp.entries] == [("{q1,q2,q3}", 0)]
    assert not pp.faithful


def test_no_generators_builds_no_fiber_matrix(f5, ctx, monkeypatch):
    # an ambient_dim x 0 matrix has no pivots, and building one per atom
    # takes memory in proportion to ambient_dim
    def refuse(self, atom_index):
        raise AssertionError("fiber matrix built for a presentation without generators")

    empty = GeneratorSet(f5, ctx, 4, ())
    monkeypatch.setattr(GeneratorSet, "fiber_columns", refuse)
    for strategy in ("first_fit", "last_fit"):
        assert extract_basis(empty, ctx.full(), 0, strategy) == []
    with pytest.raises(RankMismatchError):
        extract_basis(empty, ctx.full(), 1)
    assert independence_test(empty, ctx.full())
    iso = build_isomorphism(empty, empty)
    assert [(pc.piece, pc.rank) for pc in iso.pieces] == [(ctx.full(), 0)]
    assert iso.generator_images == ()
    assert oracle_verify_iso(iso, empty, empty)


def test_passport_standard_basis(f5, ctx):
    pp = passport(standard_basis(f5, ctx, 3))
    assert [(e.piece.render(), e.rank) for e in pp.entries] == [("{q1,q2,q3}", 3)]


def test_passport_validation(f5, ctx):
    q2 = ctx.subset(["q2"])
    q13 = ctx.subset(["q1", "q3"])
    with pytest.raises(ValidationError):
        Passport((PassportEntry(q2, 2), PassportEntry(q13, 1)))  # ranks not increasing
    with pytest.raises(ValidationError):
        Passport((PassportEntry(q2, 1),))  # does not cover
    with pytest.raises(ValidationError):
        PassportEntry(ctx.empty(), 1)


@pytest.mark.parametrize("rank", [1.5, True, Fraction(1)], ids=["float", "bool", "Fraction"])
def test_passport_entry_rank_must_be_an_int(ctx, rank):
    with pytest.raises(ValidationError, match=re.escape(f"passport rank {rank!r} is not an int")):
        PassportEntry(ctx.subset(["q2"]), rank)


def test_passport_validation_through_partition(f5, ctx):
    q12 = ctx.subset(["q1", "q2"])
    q23 = ctx.subset(["q2", "q3"])
    with pytest.raises(ValidationError):
        Passport((PassportEntry(q12, 1), PassportEntry(q23, 2)))  # pieces overlap
    with pytest.raises(ValidationError):
        Passport(())
    other = AtomSet(("q1", "q2", "q3", "q4"))
    with pytest.raises(ContextMismatchError):
        Passport((PassportEntry(ctx.subset(["q1"]), 0), PassportEntry(other.subset(["q2"]), 1)))
    assert Passport((PassportEntry(q12, 0), PassportEntry(ctx.subset(["q3"]), 2))).max_rank == 2


def test_kappa(f5, ctx, fixture_gens):
    assert kappa(fixture_gens, ctx.subset(["q1", "q3"])) == 2
    assert kappa(fixture_gens, ctx.full()) is None
    assert kappa(fixture_gens, ctx.empty()) == 0
    assert kappa(fixture_gens, ctx.subset(["q2"])) == 1


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([PrimeField(2), PrimeField(5), PrimeField(97), RationalField()]),
    st.integers(min_value=0, max_value=2**63 - 1),
    st.data(),
)
def test_kappa_matches_the_oracle(field, seed, data):
    """kappa is the one oracle rank over e's atoms, or None when there are several."""
    # about one draw in ten has no generators, and some atoms are dead in every generator
    gens = random_generator_set(SplitMix64(seed), field, max_atoms=8, max_gens=4, max_ambient=4)
    atoms = st.integers(min_value=0, max_value=len(gens.context) - 1)
    chosen = data.draw(st.one_of(atoms.map(lambda q: [q]), st.lists(atoms, min_size=1)))
    e = Idempotent(gens.context, gens.context.mask_of(chosen))
    profile = atom_rank_profile(gens).ranks
    ranks = {profile[label] for label in e.labels()}
    assert kappa(gens, e) == (min(ranks) if len(ranks) == 1 else None)
    assert is_strictly_homogeneous(gens, e) == (len(ranks) == 1)


def test_strict_homogeneity(f5, ctx, fixture_gens):
    assert is_strictly_homogeneous(fixture_gens, ctx.subset(["q1", "q3"]))
    assert not is_strictly_homogeneous(fixture_gens, ctx.full())
    assert is_strictly_homogeneous(standard_basis(f5, ctx, 2), ctx.full())
    with pytest.raises(ZeroIdempotentError):
        is_strictly_homogeneous(fixture_gens, ctx.empty())
    other = AtomSet(("a", "b", "c"))
    for e in (other.empty(), other.full()):  # the atom set is checked before zero-ness
        with pytest.raises(ContextMismatchError):
            is_strictly_homogeneous(fixture_gens, e)


def test_extract_basis_fixture(f5, ctx, fixture_gens):
    e = ctx.subset(["q1", "q3"])
    basis = extract_basis(fixture_gens, e, 2, "first_fit")
    assert basis[0] == fixture_gens.gens[0].restrict(e)
    assert basis[1] == fixture_gens.gens[1].restrict(e)
    local = GeneratorSet(f5, ctx, 2, tuple(basis))
    assert independence_test(local, e).independent
    for g in fixture_gens.gens:
        assert membership(g, local, e).contained


def test_extract_basis_standard(f5, ctx):
    gens = standard_basis(f5, ctx, 2)
    assert extract_basis(gens, ctx.full(), 2, "first_fit") == list(gens.gens)


def test_extract_basis_redundant_generator(f5, ctx, fixture_gens):
    g3 = fixture_gens.gens[0] + fixture_gens.gens[1]
    bigger = GeneratorSet(f5, ctx, 2, fixture_gens.gens + (g3,))
    e = ctx.subset(["q1", "q3"])
    assert extract_basis(bigger, e, 2, "first_fit") == [
        g.restrict(e) for g in fixture_gens.gens
    ]
    # last_fit prefers the high indices instead
    last = extract_basis(bigger, e, 2, "last_fit")
    assert len(last) == 2
    local = GeneratorSet(f5, ctx, 2, tuple(last))
    assert independence_test(local, e).independent
    for g in bigger.gens:
        assert membership(g, local, e).contained


def test_extract_basis_rank_mismatch(f5, ctx, fixture_gens):
    with pytest.raises(RankMismatchError):
        extract_basis(fixture_gens, ctx.full(), 2, "first_fit")
    with pytest.raises(RankMismatchError):
        extract_basis(fixture_gens, ctx.subset(["q1", "q3"]), 1, "first_fit")
    with pytest.raises(ZeroIdempotentError):
        extract_basis(fixture_gens, ctx.empty(), 1, "first_fit")
    with pytest.raises(ValidationError):
        extract_basis(fixture_gens, ctx.subset(["q2"]), 1, "middle_fit")


def test_piecewise_basis(f5, ctx, fixture_gens):
    pb = piecewise_basis(fixture_gens)
    assert [pc.render() for pc in pb.partition.pieces] == ["{q2}", "{q1,q3}"]
    assert [len(b) for b in pb.bases] == [1, 2]
    for piece, basis in zip(pb.partition.pieces, pb.bases):
        local = GeneratorSet(f5, ctx, 2, tuple(basis))
        assert independence_test(local, piece).independent
        for g in fixture_gens.gens:
            assert membership(g, local, piece).contained


def test_iso_check(f5, ctx, fixture_gens):
    assert iso_check(fixture_gens, fixture_gens)
    swapped = GeneratorSet(
        f5, ctx, 2, (fixture_gens.gens[1], fixture_gens.gens[0])
    )
    assert iso_check(fixture_gens, swapped)


def test_iso_check_rejects_different_profile(f5, ctx, fixture_gens):
    # per-atom ranks (1, 2, 2): disagrees with the fixture's (2, 1, 2)
    g1 = ModuleVector.from_grid(f5, ctx, [[1, 1, 1], [0, 0, 0]])
    g2 = ModuleVector.from_grid(f5, ctx, [[0, 0, 0], [0, 1, 1]])
    other = GeneratorSet(f5, ctx, 2, (g1, g2))
    assert [(e.piece.render(), e.rank) for e in passport(other).entries] == [
        ("{q1}", 1), ("{q2,q3}", 2),
    ]
    assert not iso_check(fixture_gens, other)


def test_iso_check_context_mismatch(f5, ctx, fixture_gens):
    rational = GeneratorSet(RationalField(), ctx, 1, ())
    with pytest.raises(ContextMismatchError):
        iso_check(fixture_gens, rational)


def test_build_isomorphism_identity(f5, ctx, fixture_gens):
    iso = build_isomorphism(fixture_gens, fixture_gens)
    assert oracle_verify_iso(iso, fixture_gens, fixture_gens)
    for g, image in zip(fixture_gens.gens, iso.generator_images):
        assert image == g
    x = fixture_gens.gens[0] + fixture_gens.gens[1]
    assert iso.apply(x) == x


def test_build_isomorphism_rescaled(f5, ctx, fixture_gens):
    from regmod import AlgebraElement

    unit = AlgebraElement.from_values(f5, ctx, (2, 3, 4))
    rescaled = GeneratorSet(
        f5, ctx, 2, tuple(g.scale(unit) for g in fixture_gens.gens)
    )
    iso = build_isomorphism(fixture_gens, rescaled)
    assert oracle_verify_iso(iso, fixture_gens, rescaled)
    assert iso_check(fixture_gens, rescaled)


def test_build_isomorphism_rejects_mismatch(f5, ctx, fixture_gens):
    with pytest.raises(PassportMismatchError):
        build_isomorphism(fixture_gens, standard_basis(f5, ctx, 2))


def test_isomorphism_linearity(f5, ctx, fixture_gens):
    from regmod import AlgebraElement

    other = recombined_copy(fixture_gens, SplitMix64(11), ops=6)
    iso = build_isomorphism(fixture_gens, other)
    a = AlgebraElement.from_values(f5, ctx, (2, 0, 1))
    x = fixture_gens.gens[0]
    y = fixture_gens.gens[1]
    assert iso.apply(x + y) == iso.apply(x) + iso.apply(y)
    assert iso.apply(x.scale(a)) == iso.apply(x).scale(a)
    # images land in the target module
    for image in iso.generator_images:
        assert membership(image, other, ctx.full()).contained


@pytest.mark.parametrize("field", [PrimeField(5), RationalField()], ids=["F5", "Q"])
def test_iso_map_defining_properties(field):
    """gen_coords rebuild each generator on its piece; images are apply() of the generators."""
    for seed in range(12):
        rng = SplitMix64(seed)
        gens = random_generator_set(rng, field, max_atoms=8, max_gens=4, max_ambient=3)
        iso = build_isomorphism(gens, recombined_copy(gens, rng, ops=4))
        for pc in iso.pieces:
            for k, coords in enumerate(pc.gen_coords):
                assert all(a.support().leq(pc.piece) for a in coords)
                if pc.rank:
                    assert combine(pc.source_basis, coords) == gens.gens[k].restrict(pc.piece)
        for k, g in enumerate(gens.gens):
            assert iso.generator_images[k] == iso.apply(g)


def test_apply_rejects_non_members(f5, ctx):
    gens = GeneratorSet(f5, ctx, 2, (ModuleVector.from_grid(f5, ctx, [[1, 1, 0], [0, 0, 0]]),))
    iso = build_isomorphism(gens, gens)
    assert [pc.rank for pc in iso.pieces] == [0, 1]
    assert iso.apply(gens.gens[0].scale(AlgebraElement.from_values(f5, ctx, (2, 3, 4)))) == (
        ModuleVector.from_grid(f5, ctx, [[2, 3, 0], [0, 0, 0]])
    )
    assert iso.apply(ModuleVector.zeros(f5, ctx, 2)).is_zero
    with pytest.raises(NotInModuleError, match="q3"):  # nonzero on the rank-0 piece
        iso.apply(ModuleVector.from_grid(f5, ctx, [[0, 0, 1], [0, 0, 0]]))
    with pytest.raises(NotInModuleError, match="q2"):  # outside the span on a rank-1 piece
        iso.apply(ModuleVector.from_grid(f5, ctx, [[0, 0, 0], [0, 1, 0]]))


def test_report_fixture(f5, ctx, fixture_gens):
    rep = finitely_dimensional_report(fixture_gens)
    assert rep.decomposition == "A_{q2}^1 × A_{q1,q3}^2"
    assert rep.independence_bound == 2
    assert rep.faithful


def test_report_empty_and_full(f5, ctx):
    rep = finitely_dimensional_report(GeneratorSet(f5, ctx, 1, ()))
    assert rep.decomposition == "0 module"
    assert rep.independence_bound == 0
    assert not rep.faithful
    rep3 = finitely_dimensional_report(standard_basis(f5, ctx, 3))
    assert rep3.decomposition == "A^3"
    assert rep3.independence_bound == 3
    assert rep3.faithful


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_passport_matches_oracle_random(seed):
    rng = SplitMix64(seed)
    gens = random_generator_set(rng, max_atoms=6, max_gens=4, max_ambient=4)
    assert passport(gens) == oracle_passport(gens)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_recombination_preserves_passport_random(seed):
    rng = SplitMix64(seed)
    gens = random_generator_set(rng, max_atoms=6, max_gens=4, max_ambient=4)
    other = recombined_copy(gens, rng, ops=5)
    assert passport(gens) == passport(other)


def _small_integer_grids(rng: SplitMix64, d: int, n: int, m: int) -> list[list[list[int]]]:
    """m generators of n coordinate rows of d integers in [-4, 4].  At each atom a
    generator after the first may negate an earlier one's fiber or vanish, so ranks drop."""
    fibers = []
    for _ in range(d):
        rows: list[list[int]] = []
        for _ in range(m):
            kind = rng.below(4) if rows else 0
            if kind < 2:
                rows.append([rng.below(9) - 4 for _ in range(n)])
            else:
                rows.append([-x for x in rows[rng.below(len(rows))]] if kind == 2 else [0] * n)
        fibers.append(rows)
    return [[[fibers[q][k][j] for q in range(d)] for j in range(n)] for k in range(m)]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_rational_passport_is_its_reduction_mod_a_large_prime(seed):
    # Hadamard: a k x k minor with entries in [-4, 4], k <= 8, is below
    # 4^8 * 8^4 < 3e8 in absolute value, so a nonzero one stays nonzero mod
    # 2^61 - 1 and every fiber rank survives the reduction; no oracle is needed.
    rng = SplitMix64(seed)
    d, n, m = 1 + rng.below(6), 1 + rng.below(8), 1 + rng.below(8)
    grids = _small_integer_grids(rng, d, n, m)
    ctx = AtomSet(default_labels(d))

    def passport_over(field):  # coerce reduces each int into the field
        return passport(GeneratorSet.from_grids(field, ctx, n, grids))

    over_q = passport_over(RationalField())
    assert passport_over(PrimeField(2**61 - 1)) == over_q
    over_f5 = passport_over(PrimeField(5))
    assert all(over_f5.rank_at(q) <= over_q.rank_at(q) for q in range(d))
