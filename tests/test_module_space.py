from __future__ import annotations

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
    LengthMismatchError,
    ModuleVector,
    NotFaithfulError,
    PartitionOfUnity,
    PrimeField,
    RationalField,
    ValidationError,
    ZeroIdempotentError,
    combine,
    full_support_element,
    independence_test,
    membership,
    mix_vectors,
    split_product,
)
from regmod.module_space import echelon, fiber_rank, kernel_sample, solve_linear
from regmod.oracle import _rank
from regmod.randgen import random_element, random_vector
from regmod.regular_algebra import from_fibers
from regmod.rng import SplitMix64


@pytest.fixture
def f5():
    return PrimeField(5)


@pytest.fixture
def ctx():
    return AtomSet(("q1", "q2", "q3"))


def vec(field, ctx, *rows):
    return ModuleVector.from_grid(field, ctx, rows)


def test_vector_support(f5, ctx, fixture_gens):
    x = vec(f5, ctx, (0, 0, 0), (1, 0, 1))
    assert x.support() == ctx.subset(["q1", "q3"])
    assert ModuleVector.zeros(f5, ctx, 2).support().is_zero
    a = AlgebraElement.from_values(f5, ctx, (2, 0, 0))
    assert x.scale(a).support() == a.support().meet(x.support())
    assert x.restrict(x.support()) == x


def test_vector_space_checks(f5, ctx):
    x = vec(f5, ctx, (1, 2, 3))
    y = vec(f5, ctx, (1, 2, 3), (0, 0, 0))
    with pytest.raises(ContextMismatchError):
        x + y
    with pytest.raises(ContextMismatchError):
        x + vec(f5, AtomSet(("a", "b", "c")), (1, 2, 3))


def test_mix_vectors(f5, ctx):
    p = PartitionOfUnity((ctx.subset(["q1"]), ctx.subset(["q2", "q3"])))
    x = vec(f5, ctx, (1, 1, 1))
    y = vec(f5, ctx, (4, 4, 4))
    assert mix_vectors(p, [x, y]) == vec(f5, ctx, (1, 4, 4))
    assert mix_vectors(p, [x, x]) == x
    z = ModuleVector.zeros(f5, ctx, 1)
    assert mix_vectors(p, [z, z]).is_zero


def test_mix_vectors_errors(f5, ctx):
    p = PartitionOfUnity((ctx.subset(["q1"]), ctx.subset(["q2", "q3"])))
    x = vec(f5, ctx, (1, 1, 1))
    with pytest.raises(LengthMismatchError, match="^1 vectors for 2 partition pieces$"):
        mix_vectors(p, [x])
    with pytest.raises(ContextMismatchError, match="vectors in different module spaces"):
        mix_vectors(p, [x, vec(f5, ctx, (1, 1, 1), (2, 2, 2))])
    with pytest.raises(ContextMismatchError, match="vectors in different module spaces"):
        mix_vectors(p, [x, vec(PrimeField(7), ctx, (1, 1, 1))])
    other = AtomSet(("a", "b", "c"))
    with pytest.raises(ContextMismatchError, match="partition over a different atom set"):
        mix_vectors(PartitionOfUnity((other.full(),)), [x])
    with pytest.raises(ContextMismatchError, match="partition over a different atom set"):
        mix_vectors(PartitionOfUnity((other.full(),)), [vec(f5, ctx, (1, 1, 1), (2, 2, 2))])


def test_membership_fixture(f5, ctx, fixture_gens):
    x = vec(f5, ctx, (2, 0, 2), (3, 0, 3))
    e = ctx.subset(["q1", "q3"])
    result = membership(x, fixture_gens, e)
    assert result.contained
    assert result.witness_atom is None
    c1, c2 = result.coefficients
    assert c1.values == (2, 0, 2)
    assert c2.values == (3, 0, 3)
    assert combine(fixture_gens.gens, result.coefficients).restrict(e) == x.restrict(e)


def test_membership_rejection(f5, ctx, fixture_gens):
    x = vec(f5, ctx, (0, 1, 0), (0, 1, 0))
    result = membership(x, fixture_gens, ctx.full())
    assert not result.contained
    assert result.witness_atom == "q2"
    assert result.coefficients is None


def test_membership_zero_piece(f5, ctx, fixture_gens):
    x = vec(f5, ctx, (4, 4, 4), (4, 4, 4))
    assert membership(x, fixture_gens, ctx.empty()).contained


def test_membership_empty_presentation(f5, ctx):
    empty = GeneratorSet(f5, ctx, 1, ())
    assert membership(ModuleVector.zeros(f5, ctx, 1), empty, ctx.full()).contained
    result = membership(vec(f5, ctx, (1, 0, 0)), empty, ctx.full())
    assert not result.contained and result.witness_atom == "q1"


def test_independence_fixture(f5, ctx, fixture_gens):
    assert independence_test(fixture_gens, ctx.subset(["q1", "q3"])).independent
    result = independence_test(fixture_gens, ctx.full())
    assert not result.independent
    assert result.witness_atom == "q2"
    relation = result.relation
    fibers = fixture_gens.fiber_matrix(ctx.index("q2"))
    combo = [f5.zero, f5.zero]
    for c, row in zip(relation, fibers):
        combo = [f5.add(v, f5.mul(c, w)) for v, w in zip(combo, row)]
    assert combo == [0, 0] and any(c != 0 for c in relation)


def test_independence_zero_vector_never_independent(f5, ctx, fixture_gens):
    with_zero = GeneratorSet(
        f5, ctx, 2, fixture_gens.gens + (ModuleVector.zeros(f5, ctx, 2),)
    )
    for e in (ctx.full(), ctx.subset(["q1"]), ctx.subset(["q1", "q3"])):
        assert not independence_test(with_zero, e).independent


def test_independence_zero_idempotent_raises(f5, ctx, fixture_gens):
    with pytest.raises(ZeroIdempotentError):
        independence_test(fixture_gens, ctx.empty())


def test_full_support_element(f5, ctx, fixture_gens):
    g1 = vec(f5, ctx, (1, 0, 0))
    g2 = vec(f5, ctx, (0, 1, 1))
    gens = GeneratorSet(f5, ctx, 1, (g1, g2))
    assert full_support_element(gens) == vec(f5, ctx, (1, 1, 1))
    # the first generator already covers everything here
    assert full_support_element(fixture_gens) == fixture_gens.gens[0]


def test_full_support_element_dead_atoms(f5, ctx):
    gens = GeneratorSet(f5, ctx, 1, (vec(f5, ctx, (0, 1, 0)),))
    with pytest.raises(NotFaithfulError) as info:
        full_support_element(gens)
    assert info.value.dead_atoms == ("q1", "q3")


def test_split_and_reassemble(f5, ctx):
    x = vec(f5, ctx, (1, 2, 3))
    p = PartitionOfUnity((ctx.subset(["q1"]), ctx.subset(["q2", "q3"])))
    parts = split_product(x, p)
    assert parts[0] == vec(f5, ctx, (1, 0, 0))
    assert parts[1] == vec(f5, ctx, (0, 2, 3))
    assert mix_vectors(p, parts) == x
    single = PartitionOfUnity((ctx.full(),))
    assert split_product(x, single) == [x]


def test_fiber_and_unit(f5, ctx):
    u = ModuleVector.unit(f5, ctx, 3, 1)
    assert u.fiber(0) == (0, 1, 0)
    assert u.fiber(2) == (0, 1, 0)


@pytest.mark.parametrize("ambient_dim", [2.0, True, Fraction(2), "2", None])
def test_generator_set_requires_an_int_ambient_dim(f5, ctx, ambient_dim):
    with pytest.raises(ValidationError, match="is not an int$"):
        GeneratorSet(f5, ctx, ambient_dim, ())


def test_unit_requires_a_position_in_range(f5, ctx):
    for position in (3, 5, -1, "1", None, 10**5000):
        with pytest.raises(LengthMismatchError, match="no coordinate"):
            ModuleVector.unit(f5, ctx, 3, position)


# -- combine: one row kernel call per coordinate ------------------------------


COMBINE_FIELDS = (
    PrimeField(2), PrimeField(5), PrimeField(13), PrimeField(17), PrimeField(97),
    PrimeField(2**61 - 1), RationalField(),
)


def _scalars(field):
    """Canonical scalars, with zero, p − 1 (that is, −1) and negative rationals drawn often."""
    if isinstance(field, PrimeField):
        return st.sampled_from((0, field.p - 1)) | st.integers(min_value=0, max_value=field.p - 1)
    return st.sampled_from((Fraction(0), Fraction(-1))) | st.fractions(max_denominator=10**12)


def _per_atom_sum(gens, coefficients, field):
    """sum(coefficients[k] * gens[k]) coordinate by coordinate, one field.mul and add per term."""
    d = len(gens[0].context)
    coords = []
    for c in range(gens[0].ambient_dim):
        values = []
        for q in range(d):
            acc = field.zero
            for g, a in zip(gens, coefficients):
                acc = field.add(acc, field.mul(a.values[q], g.coords[c].values[q]))
            values.append(acc)
        coords.append(values)
    return coords


@pytest.mark.parametrize("field", COMBINE_FIELDS, ids=str)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_combine_equals_the_per_atom_sum_of_products(field, data):
    d = data.draw(st.integers(min_value=1, max_value=6))
    n = data.draw(st.integers(min_value=1, max_value=3))
    m = data.draw(st.integers(min_value=1, max_value=12))
    ctx = AtomSet(tuple(f"q{i + 1}" for i in range(d)))
    row = st.lists(_scalars(field), min_size=d, max_size=d)
    zero_row = st.just([field.zero] * d)

    def element(rows):
        return AlgebraElement(field, ctx, tuple(data.draw(rows)))

    gens = [ModuleVector(tuple(element(row) for _ in range(n))) for _ in range(m)]
    coefficients = [element(row | zero_row) for _ in range(m)]
    x = combine(gens, coefficients)
    assert [list(c.values) for c in x.coords] == _per_atom_sum(gens, coefficients, field)
    for v in (v for c in x.coords for v in c.values):
        if isinstance(field, PrimeField):
            assert type(v) is int and 0 <= v < field.p
        else:
            assert type(v) is Fraction


@pytest.mark.parametrize(
    "gens, coefficients, error, message",
    [
        ("x y", "a a", ContextMismatchError, "vectors in different module spaces"),
        ("x", "b", ContextMismatchError, "elements over different algebras"),
        ("x y", "a b", ContextMismatchError, "elements over different algebras"),
        ("", "", LengthMismatchError, "cannot combine an empty family without a target space"),
        ("x x", "a", LengthMismatchError, "one coefficient per generator required"),
    ],
    ids=["spaces", "field", "field-first", "empty", "lengths"],
)
def test_combine_errors(f5, ctx, gens, coefficients, error, message):
    named = {
        "x": vec(f5, ctx, (1, 2, 3)),
        "y": vec(f5, ctx, (1, 2, 3), (0, 0, 0)),
        "a": AlgebraElement.constant(f5, ctx, 2),
        "b": AlgebraElement.constant(PrimeField(7), ctx, 2),
    }
    with pytest.raises(error, match=f"^{message}$"):
        combine([named[k] for k in gens.split()], [named[k] for k in coefficients.split()])


@pytest.mark.parametrize("field", [PrimeField(5), PrimeField(2**61 - 1), RationalField()], ids=str)
def test_combine_makes_no_per_scalar_call(field, monkeypatch):
    ctx = AtomSet(tuple(f"q{i + 1}" for i in range(16)))
    rng = SplitMix64(4)
    gens = [random_vector(field, ctx, 3, rng) for _ in range(5)]
    coefficients = [random_element(field, ctx, rng) for _ in gens]
    expected = _per_atom_sum(gens, coefficients, field)
    calls = dict.fromkeys(("add", "sub", "mul", "neg"), 0)

    def counting(name):
        original = getattr(field, name)

        def wrapper(self, *args):
            calls[name] += 1
            return original(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(type(field), name, counting(name))
    x = combine(gens, coefficients)
    assert calls == dict.fromkeys(calls, 0)
    assert [list(c.values) for c in x.coords] == expected


# -- randomized properties ---------------------------------------------------

small = st.integers(min_value=0, max_value=4)


@given(st.lists(st.lists(small, min_size=3, max_size=3), min_size=2, max_size=2),
       st.lists(small, min_size=2, max_size=2))
def test_combinations_always_members(grid_rows, coeff_values):
    f5 = PrimeField(5)
    ctx = AtomSet(("q1", "q2", "q3"))
    g1 = ModuleVector.from_grid(f5, ctx, [grid_rows[0]])
    g2 = ModuleVector.from_grid(f5, ctx, [grid_rows[1]])
    gens = GeneratorSet(f5, ctx, 1, (g1, g2))
    coeffs = [AlgebraElement.constant(f5, ctx, v) for v in coeff_values]
    x = combine(gens.gens, coeffs)
    result = membership(x, gens, ctx.full())
    assert result.contained
    assert combine(gens.gens, result.coefficients) == x


@given(st.lists(small, min_size=3, max_size=3),
       st.lists(st.integers(min_value=0, max_value=1), min_size=3, max_size=3))
def test_mix_closure_single_gen(values, assignment):
    f5 = PrimeField(5)
    ctx = AtomSet(("q1", "q2", "q3"))
    gens = GeneratorSet(f5, ctx, 1, (ModuleVector.from_grid(f5, ctx, [values]),))
    masks: dict[int, int] = {}
    for q, b in enumerate(assignment):
        masks[b] = masks.get(b, 0) | (1 << q)
    p = PartitionOfUnity(tuple(Idempotent(ctx, m) for m in sorted(masks.values())))
    scaled = [gens.gens[0].scale(AlgebraElement.constant(f5, ctx, k + 1)) for k in range(len(p))]
    mixed = mix_vectors(p, scaled)
    assert membership(mixed, gens, ctx.full()).contained


def test_echelon_fixture(f5):
    rows = [[0, 2, 4, 2], [0, 1, 2, 3], [1, 0, 0, 0]]
    reduced, pivots = echelon(rows, f5)
    assert pivots == [0, 1, 3]
    assert reduced == [[1, 0, 0, 0], [0, 1, 2, 0], [0, 0, 0, 1]]
    assert rows == [[0, 2, 4, 2], [0, 1, 2, 3], [1, 0, 0, 0]]  # input untouched
    assert echelon([], f5) == ([], [])
    assert echelon([[], []], f5) == ([[], []], [])


matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=4), min_size=n, max_size=n),
        min_size=1, max_size=4,
    )
)


@given(matrices, st.lists(st.integers(min_value=0, max_value=4), min_size=4, max_size=4))
def test_echelon_reads_rank_solution_and_kernel(rows, rhs):
    f = PrimeField(5)
    reduced, pivots = echelon(rows, f)
    n = len(rows[0])
    assert fiber_rank(rows, f) == len(pivots) == _rank(rows, f)
    # the pivots are the greedy choice of columns independent of those before
    columns = [[r[c] for r in rows] for c in range(n)]
    greedy = []
    for c in range(n):
        if _rank([columns[k] for k in greedy] + [columns[c]], f) > len(greedy):
            greedy.append(c)
    assert pivots == greedy
    assert all(v == 0 for row in reduced[len(pivots):] for v in row)
    for r, c in enumerate(pivots):
        assert [row[c] for row in reduced] == [int(k == r) for k in range(len(rows))]
    b = rhs[: len(rows)]
    x = solve_linear(rows, b, f)
    solvable = _rank([row + [v] for row, v in zip(rows, b)], f) == len(pivots)
    assert (x is not None) == solvable
    if x is not None:
        assert [sum(a * v for a, v in zip(row, x)) % 5 for row in rows] == b
    k = kernel_sample(rows, f)
    assert (k is None) == (len(pivots) == n)
    if k is not None:
        assert any(k) and all(sum(a * v for a, v in zip(row, k)) % 5 == 0 for row in rows)


# -- from_fibers is the inverse of ModuleVector.fiber -------------------------


@pytest.mark.parametrize(
    "field", [PrimeField(5), PrimeField(97), RationalField()], ids=["F5", "F97", "Q"]
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_from_fibers_inverts_fiber(field, data):
    d = data.draw(st.integers(min_value=1, max_value=8))
    n = data.draw(st.integers(min_value=1, max_value=4))
    ctx = AtomSet(tuple(f"q{i + 1}" for i in range(d)))
    if isinstance(field, PrimeField):
        scalar = st.integers(min_value=0, max_value=field.p - 1)
    else:
        scalar = st.fractions(max_denominator=7)
    rows = data.draw(st.lists(st.lists(scalar, min_size=d, max_size=d), min_size=n, max_size=n))
    x = ModuleVector(tuple(AlgebraElement(field, ctx, tuple(row)) for row in rows))
    s = Idempotent(ctx, data.draw(st.integers(min_value=0, max_value=ctx.full_mask)))
    glued = from_fibers(field, ctx, n, {q: x.fiber(q) for q in s.atom_indices()})
    assert ModuleVector(glued) == x.restrict(s)
    assert from_fibers(field, ctx, 0, {q: () for q in s.atom_indices()}) == ()
    with pytest.raises(LengthMismatchError):
        from_fibers(field, ctx, n, {0: x.fiber(0) + (field.zero,)})
