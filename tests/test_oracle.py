from __future__ import annotations

import ast
import hashlib
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmod import (
    AlgebraElement,
    AtomSet,
    ContextMismatchError,
    GeneratorSet,
    Idempotent,
    IsoMap,
    IsoPiece,
    LengthMismatchError,
    ModuleVector,
    PartitionOfUnity,
    PrimeField,
    RationalField,
    ValidationError,
    atom_rank_profile,
    build_isomorphism,
    oracle_passport,
    oracle_verify_iso,
    passport,
)
import regmod.oracle
from regmod.fields import Field, Scalar
from regmod.oracle import RankProfile, _rank
from regmod.randgen import (
    constant_rank_instance,
    perturb_rank_profile,
    random_generator_set,
    random_scalar,
    random_unit,
    random_vector,
    recombined_copy,
)
from regmod.rng import SplitMix64


@pytest.fixture
def f5():
    return PrimeField(5)


@pytest.fixture
def ctx():
    return AtomSet(("q1", "q2", "q3"))


def _with(record, **changes):
    return type(record)(**{**{name: getattr(record, name) for name in record.__slots__}, **changes})


# The oracle's Gauss–Jordan elimination before its rank became fraction-free,
# kept verbatim as the reference for `_express` and for `_rank`'s answers.
def _reduce(work: list[list[Scalar]], cols: int, field: Field) -> list[int]:
    """Gauss–Jordan in place on the first `cols` columns; returns the pivot columns."""
    zero = field.zero
    pivots: list[int] = []
    for col in range(cols):
        top = len(pivots)
        if top == len(work):
            break
        for pivot_row in range(top, len(work)):  # column-major: first nonzero below the pivots
            if work[pivot_row][col] != zero:
                break
        else:
            continue  # no pivot in this column
        work[top], work[pivot_row] = work[pivot_row], work[top]
        inv = field.inv(work[top][col])
        work[top] = [field.mul(inv, v) for v in work[top]]
        for r, row in enumerate(work):
            factor = row[col]
            if r != top and factor != zero:
                work[r] = [field.sub(v, field.mul(factor, w)) for v, w in zip(row, work[top])]
        pivots.append(col)
    return pivots


# The oracle's audit before it became five rank equalities per atom, kept
# verbatim as the reference its verdicts must match: it writes every
# generator fiber in the source basis with `_express`, one solve per
# generator and atom, and maps the coefficients onto the target basis.
def _express(
    basis_fibers: Sequence[Sequence[Scalar]], target: Sequence[Scalar], field: Field
) -> Optional[list[Scalar]]:
    """Coefficients writing target as a combination of basis fibers, or None."""
    n = len(target)
    m = len(basis_fibers)
    work = [[basis_fibers[k][l] for k in range(m)] + [target[l]] for l in range(n)]
    pivots = _reduce(work, m, field)
    for r in range(len(pivots), n):
        if work[r][m] != field.zero:
            return None
    coeffs = [field.zero] * m
    for r, col in enumerate(pivots):
        coeffs[col] = work[r][m]
    return coeffs


def express_and_map_verify_iso(iso: IsoMap, gens: GeneratorSet, other: GeneratorSet) -> bool:
    """Fiberwise audit of a claimed isomorphism, exact at every atom.

    The pieces must cover every atom, with bases of exactly `rank` vectors.
    At an atom of a piece of rank r, the generator, target, target-plus-image
    and target-basis fibers must each have rank r, and every generator fiber
    must be a combination of the source-basis fibers whose coefficients give
    exactly its image on the target-basis fibers.  That implies the ranks of
    the images, of the paired fibers and of the source basis:

    - the generator fibers lie in the span of the r source-basis fibers and
      have rank r, so that basis is independent and spans them;
    - the target basis has rank r, so the basis-to-basis map is injective;
      the images have rank r, lie in the target span, and that span has
      rank r, so they span it.
    """
    if not gens.same_algebra(other):
        raise ContextMismatchError("presentations over different algebras")
    if iso.context != gens.context or iso.field != gens.field:
        raise ContextMismatchError("map over a different algebra")
    if (
        iso.source_ambient_dim != gens.ambient_dim
        or iso.target_ambient_dim != other.ambient_dim
        or len(iso.generator_images) != len(gens.gens)
    ):
        return False
    field = gens.field
    piece_at: dict[int, object] = {}
    for pc in iso.pieces:
        if len(pc.source_basis) != pc.rank or len(pc.target_basis) != pc.rank:
            return False  # a surplus dependent vector would pass the rank checks
        for q in pc.piece.atom_indices():
            piece_at[q] = pc
    if set(piece_at) != set(range(len(gens.context))):
        return False
    for q in range(len(gens.context)):
        pc = piece_at[q]
        source = gens.fiber_matrix(q)
        images = [list(img.fiber(q)) for img in iso.generator_images]
        target = other.fiber_matrix(q)
        src_basis_fibers = [list(b.fiber(q)) for b in pc.source_basis]
        tgt_basis_fibers = [list(b.fiber(q)) for b in pc.target_basis]
        spans = (source, target, list(target) + images, tgt_basis_fibers)
        if any(_rank(rows, field) != pc.rank for rows in spans):
            return False  # the third fails when an image escapes the target span
        for fiber, image in zip(source, images):
            coeffs = _express(src_basis_fibers, fiber, field)
            if coeffs is None:
                return False
            mapped = [field.zero] * other.ambient_dim
            for c, basis_fiber in zip(coeffs, tgt_basis_fibers):
                mapped = [field.add(m, field.mul(c, v)) for m, v in zip(mapped, basis_fiber, strict=True)]
            if mapped != image:
                return False
    return True


# The oracle checks the engine, so it may share the engine's record types but
# none of its routines; the errors and fields layers are shared whole.  Its
# audit is exact and draws nothing at random, so it does not import `rng`.
ORACLE_RECORD_IMPORTS = {
    "boolean_core": {"AtomSet", "Idempotent"},
    "classification": {"IsoMap", "Passport", "PassportEntry"},
    "module_space": {"GeneratorSet"},
}
ORACLE_SHARED_LAYERS = {"errors", "fields"}
ENGINE_ROUTINES = {"echelon", "solve_linear", "fiber_rank", "membership", "regular_eliminate"}
# the field row kernels the engine eliminates with
ROW_KERNELS = {"start_row", "pivot_reduce", "split_row", "join_rows", "mul_row", "sub_mul", "inv_row"}


def test_oracle_imports_no_engine_routine():
    tree = ast.parse(Path(regmod.oracle.__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(alias.name.startswith("regmod") for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("regmod")):
            module = (node.module or "").removeprefix("regmod.")
            names = {alias.name for alias in node.names}
            if module not in ORACLE_SHARED_LAYERS:
                assert names <= ORACLE_RECORD_IMPORTS.get(module, set()), (module, names)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            assert getattr(node, "id", getattr(node, "attr", None)) not in ENGINE_ROUTINES | ROW_KERNELS


def test_rank_small_matrices(f5):
    assert _rank([], f5) == 0
    assert _rank([[0, 0], [0, 0]], f5) == 0
    assert _rank([[1, 2], [2, 4]], f5) == 1
    assert _rank([[1, 0], [0, 1]], f5) == 2
    assert _rank([[1, 2, 3], [0, 1, 4]], f5) == 2
    # 2*row0 == row1 mod 5
    assert _rank([[1, 3], [2, 1]], f5) == 1


RANK_FIELDS = (PrimeField(2), PrimeField(5), PrimeField(97), PrimeField(2**61 - 1), RationalField())


@st.composite
def _rank_matrices(draw, field: Field) -> list[list[Scalar]]:
    """0–9 rows of 0–9 entries: random, zero, or combinations of earlier rows; some zero columns."""
    if isinstance(field, PrimeField):
        nonzero = st.integers(1, field.p - 1)
    else:
        big = 10**30
        nonzero = st.builds(Fraction, st.integers(-big, big).filter(bool), st.integers(1, big))
    scalar = st.one_of(st.just(field.zero), nonzero)
    cols = draw(st.integers(0, 9))
    rows: list[list[Scalar]] = []
    for _ in range(draw(st.integers(0, 9))):
        kind = draw(st.sampled_from(["random", "zero", "combination"] if rows else ["random", "zero"]))
        if kind == "random":
            rows.append(draw(st.lists(scalar, min_size=cols, max_size=cols)))
        elif kind == "zero":
            rows.append([field.zero] * cols)
        else:
            row = [field.zero] * cols
            for earlier in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
                c = draw(nonzero)
                row = [field.add(x, field.mul(c, y)) for x, y in zip(row, earlier)]
            rows.append(row)
    zero_cols = draw(st.sets(st.integers(0, 8)))  # indices past the width change nothing
    return [[field.zero if c in zero_cols else v for c, v in enumerate(row)] for row in rows]


@pytest.mark.parametrize("field", RANK_FIELDS, ids=str)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rank_equals_gauss_jordan(field, data):
    rows = data.draw(_rank_matrices(field))
    work = [list(r) for r in rows]
    assert _rank(rows, field) == len(_reduce(work, len(work[0]) if work else 0, field))


@pytest.mark.parametrize("field", [PrimeField(97), RationalField()], ids=str)
def test_oracle_calls_no_field_arithmetic(field, monkeypatch):
    rng, gens, other, iso = _recombined_iso(3, field)
    perturbed = perturb_rank_profile(gens, rng)
    expected = (passport(gens), passport(perturbed))

    def refuse(*args):
        raise AssertionError("the oracle called field arithmetic")

    for cls in (PrimeField, RationalField):
        for name in ("add", "sub", "mul", "neg", "inv"):
            monkeypatch.setattr(cls, name, refuse)
    assert (oracle_passport(gens), oracle_passport(perturbed)) == expected
    assert oracle_verify_iso(iso, gens, other)
    assert not oracle_verify_iso(iso, gens, perturbed)


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
    # swapping the images breaks the image check: g1 must go to its own coords
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


@pytest.mark.parametrize("side", ["source_basis", "target_basis"])
def test_verify_rejects_a_basis_longer_than_its_rank(fixture_gens, side):
    # the repeated vector is dependent, so every rank check still passes
    other = recombined_copy(fixture_gens, SplitMix64(31), ops=8)
    iso = build_isomorphism(fixture_gens, other)
    pieces = [_with(pc, **{side: getattr(pc, side) + getattr(pc, side)[:1]}) for pc in iso.pieces]
    assert oracle_verify_iso(iso, fixture_gens, other)
    assert not oracle_verify_iso(_with(iso, pieces=pieces), fixture_gens, other)


def test_verify_rejects_a_piece_rank_above_the_local_rank(f5):
    # the one generator has rank 1 at both atoms, but the piece claims rank 2
    atoms = AtomSet(("q1", "q2"))
    g = ModuleVector.from_grid(f5, atoms, [[1, 1], [0, 0]])
    gens = GeneratorSet(f5, atoms, 2, (g,))
    basis = (g, ModuleVector.from_grid(f5, atoms, [[0, 0], [1, 1]]))
    one, zero = AlgebraElement.one(f5, atoms), AlgebraElement.zeros(f5, atoms)
    piece = IsoPiece(atoms.full(), 2, basis, basis, ((one, zero),))
    iso = IsoMap(f5, atoms, 2, 2, PartitionOfUnity((atoms.full(),)), (piece,), (g,))
    assert not oracle_verify_iso(iso, gens, gens)
    assert oracle_verify_iso(build_isomorphism(gens, gens), gens, gens)


E1, E2 = (1, 0), (0, 1)


def _one_atom_map(source, target, source_basis, target_basis, images):
    """Modules spanned by the source and target fibers over F_5 at one atom, and a claimed map."""
    f5, atoms = PrimeField(5), AtomSet(("q1",))

    def vectors(fibers):
        return tuple(ModuleVector.from_grid(f5, atoms, [[v] for v in fiber]) for fiber in fibers)

    gens = GeneratorSet(f5, atoms, 2, vectors(source))
    other = GeneratorSet(f5, atoms, 2, vectors(target))
    piece = IsoPiece(atoms.full(), len(source_basis), vectors(source_basis), vectors(target_basis), ())
    full = PartitionOfUnity((atoms.full(),))
    return IsoMap(f5, atoms, 2, 2, full, (piece,), vectors(images)), gens, other


# each map breaks exactly one of the checks at the atom, so each check is needed
@pytest.mark.parametrize("source, target, source_basis, target_basis, images", [
    pytest.param([E1], [E1, E2], [E1, E2], [E1, E2], [E1], id="source_rank_below_piece_rank"),
    pytest.param([E1, E2], [E1], [E1, E2], [E1, E2], [E1, E2], id="target_rank_below_piece_rank"),
    pytest.param([E1], [E1], [E1], [E2], [E2], id="image_outside_target_span"),
    pytest.param([E1, E2], [E1, E2], [E1, E2], [E1, E1], [E1, E1], id="dependent_target_basis"),
    pytest.param([E2], [E1], [E1], [E1], [E1], id="generator_outside_source_basis_span"),
])
def test_verify_rejects_a_map_that_breaks_one_check(source, target, source_basis, target_basis, images):
    assert not oracle_verify_iso(*_one_atom_map(source, target, source_basis, target_basis, images))
    assert oracle_verify_iso(*_one_atom_map(source, source, source, source, source))  # the identity


@pytest.mark.parametrize("side", ["source_basis", "target_basis", "generator_images"])
def test_iso_map_rejects_vectors_of_the_wrong_ambient_dimension(side):
    # the oracle's _express reads only as many coordinates as the generator
    # fibers have, so it accepted a source basis with an extra coordinate
    f5, atoms = PrimeField(5), AtomSet(("q1",))
    units = tuple(ModuleVector.unit(f5, atoms, 2, position) for position in (0, 1))
    gens = GeneratorSet(f5, atoms, 2, units)
    iso = build_isomorphism(gens, gens)
    one = AlgebraElement.one(f5, atoms)

    def longer(vectors):
        return tuple(ModuleVector(v.coords + (one,)) for v in vectors)

    if side == "generator_images":
        with pytest.raises(LengthMismatchError):
            _with(iso, generator_images=longer(iso.generator_images))
    else:
        pieces = [_with(pc, **{side: longer(getattr(pc, side))}) for pc in iso.pieces]
        with pytest.raises(LengthMismatchError):
            _with(iso, pieces=pieces)
    assert oracle_verify_iso(iso, gens, gens)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_verify_accepts_random_recombinations(seed):
    rng = SplitMix64(seed)
    gens = random_generator_set(rng, max_atoms=5, max_gens=4, max_ambient=4)
    other = recombined_copy(gens, rng, ops=5)
    iso = build_isomorphism(gens, other)
    assert oracle_verify_iso(iso, gens, other)


# The oracle's answers and verdicts, pinned so that a rewrite of its
# elimination or of its audit loop must reproduce them exactly.
PIN_FIELDS = (PrimeField(2), PrimeField(5), PrimeField(97), PrimeField(2**61 - 1), RationalField())
ELIMINATION_PIN = "9d562a125f1e855d892905ee599750f95aac75f3eddcfc886bc2b81462d852fd"
VERDICT_PIN = "f70e2125a2050b3e48dce4e0529c15947e84aa5b7dc795c7a1a48a8f5286179f"
# the verdicts of the sampled-probe audit that the exact one replaced: it
# accepted the map with one image bumped at seed 56, and differed nowhere else
SAMPLED_VERDICT_PIN = "c08ce9f22cea49831f60db5a4912902758ea41dbcd5770b05225e2fb04078561"


def _sha256(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()


def _sparse_row(field, rng: SplitMix64, cols: int) -> list:
    return [field.zero if rng.below(3) == 0 else random_scalar(field, rng) for _ in range(cols)]


def _combination(field, rng: SplitMix64, rows, cols: int) -> list:
    out = [field.zero] * cols
    for row in rows:
        c = random_scalar(field, rng)
        out = [field.add(o, field.mul(c, v)) for o, v in zip(out, row)]
    return out


def test_elimination_answers_are_pinned():
    rng = SplitMix64(11)
    answers = []
    for field in PIN_FIELDS:
        for _ in range(200):
            m, n = rng.below(6), 1 + rng.below(5)
            rows = [_sparse_row(field, rng, n) for _ in range(m)]
            answers.append(_rank(rows, field))
            if rows and rng.below(2):  # a dependent basis vector: its coefficient must be 0
                rows.append(_combination(field, rng, rows, n))
            target = _combination(field, rng, rows, n) if rng.below(2) else _sparse_row(field, rng, n)
            answers.append(_express(rows, target, field))
    assert _sha256(answers) == ELIMINATION_PIN


def _recombined_iso(seed: int, field=None):
    rng = SplitMix64(seed)
    gens = random_generator_set(rng, field, max_atoms=5, max_gens=4, max_ambient=4)
    other = recombined_copy(gens, rng, ops=4)
    return rng, gens, other, build_isomorphism(gens, other)


def test_verify_verdicts_are_pinned():
    verdicts = []
    for seed in range(60):
        rng, gens, other, iso = _recombined_iso(seed)
        ctx, dim = iso.context, iso.target_ambient_dim
        bumped = list(iso.generator_images)
        if bumped:
            at = Idempotent(ctx, 1 << rng.below(len(ctx)))
            bumped[0] = bumped[0] + ModuleVector.unit(iso.field, ctx, dim, rng.below(dim)).restrict(at)
        swapped_bases = tuple(
            IsoPiece(pc.piece, pc.rank, pc.target_basis, pc.source_basis, pc.gen_coords)
            for pc in iso.pieces
        )
        variants = [
            iso,
            _with(iso, generator_images=bumped),
            _with(iso, generator_images=iso.generator_images[::-1]),
            _with(iso, pieces=swapped_bases),
            _with(iso, pieces=iso.pieces[1:]),
        ]
        verdicts.append([oracle_verify_iso(v, gens, other) for v in variants])
    assert all(v[0] for v in verdicts)
    assert _sha256(verdicts) == VERDICT_PIN
    assert [sum(column) for column in zip(*verdicts)] == [60, 7, 21, 27, 0]
    verdicts[56][1] = True
    assert _sha256(verdicts) == SAMPLED_VERDICT_PIN  # nothing it rejected is accepted now


def test_verify_rejects_every_single_bumped_image():
    bumps = 0
    for seed in range(30):
        rng, gens, other, iso = _recombined_iso(seed)
        ctx, dim = iso.context, iso.target_ambient_dim
        for k in range(len(gens)):
            for q in range(len(ctx)):
                bump = ModuleVector.unit(iso.field, ctx, dim, rng.below(dim))
                bumped = list(iso.generator_images)
                bumped[k] = bumped[k] + bump.restrict(Idempotent(ctx, 1 << q))
                assert not oracle_verify_iso(_with(iso, generator_images=bumped), gens, other)
                bumps += 1
    assert bumps == 235


@pytest.mark.parametrize("field", [PrimeField(5), PrimeField(97), RationalField()], ids=str)
def test_verify_probes_reject_images_scaled_by_a_unit(field):
    # per-atom scaling keeps every fiber rank, so only the image check can see it
    seed = taken = 0
    while taken < 6:
        rng, gens, other, iso = _recombined_iso(seed, field)
        seed += 1
        u = random_unit(field, gens.context, rng)
        if not any(
            u.values[q] != field.one and any(any(img.fiber(q)) for img in iso.generator_images)
            for q in range(len(gens.context))
        ):
            continue  # the scaled map equals the genuine one
        taken += 1
        scaled = _with(iso, generator_images=[img.scale(u) for img in iso.generator_images])
        assert oracle_verify_iso(iso, gens, other)
        assert not oracle_verify_iso(scaled, gens, other)


def _broken_variants(iso: IsoMap, rng: SplitMix64) -> dict[str, IsoMap]:
    """Six ways to break a genuine map; on small fields some still hold."""
    field, ctx, dim = iso.field, iso.context, iso.target_ambient_dim
    images = iso.generator_images
    bumped = list(images)
    if bumped:
        at = Idempotent(ctx, 1 << rng.below(len(ctx)))
        bumped[0] = bumped[0] + ModuleVector.unit(field, ctx, dim, rng.below(dim)).restrict(at)
    u = random_unit(field, ctx, rng)
    random_bases = []
    for pc in iso.pieces:
        side = ("source_basis", "target_basis")[rng.below(2)]
        width = iso.source_ambient_dim if side == "source_basis" else dim
        fresh = tuple(random_vector(field, ctx, width, rng) for _ in getattr(pc, side))
        random_bases.append(_with(pc, **{side: fresh}))
    return {
        "bumped_image": _with(iso, generator_images=bumped),
        "unit_scaled_images": _with(iso, generator_images=[img.scale(u) for img in images]),
        "random_basis_vectors": _with(iso, pieces=random_bases),
        "reversed_images": _with(iso, generator_images=images[::-1]),
        "dropped_piece": _with(iso, pieces=iso.pieces[1:]),
        "random_images": _with(
            iso, generator_images=[random_vector(field, ctx, dim, rng) for _ in images]
        ),
    }


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PIN_FIELDS), st.integers(min_value=0, max_value=2**63 - 1))
def test_five_rank_audit_agrees_with_express_and_map(field, seed):
    rng, gens, other, iso = _recombined_iso(seed, field)
    assert oracle_verify_iso(iso, gens, other) and express_and_map_verify_iso(iso, gens, other)
    for name, variant in _broken_variants(iso, rng).items():
        verdict = express_and_map_verify_iso(variant, gens, other)
        assert oracle_verify_iso(variant, gens, other) == verdict, name
