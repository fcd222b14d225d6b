"""The flat-matrix engine against the nested-list engine it replaced.

`nested_eliminate` is the earlier `regular_eliminate`, kept here verbatim as
a reference: each matrix entry is its own list of scalars, reduced with one
`field.sub`/`field.mul` call per scalar.  The flat engine must produce the
same leaves and the same trace on every input, with one fraction-free
`pivot_reduce` call per pivot step instead, `a·x − f·y` for each entry
below the pivot: reduced mod p over F_p, with no inverse, and divided
exactly by the previous pivot over ℚ's integer rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regmod import (
    AtomSet,
    EliminationTrace,
    GeneratorSet,
    Idempotent,
    PivotStep,
    PrimeField,
    RationalField,
    parse_module_file,
    regular_eliminate,
)
from regmod.cli import main
from regmod.randgen import default_labels, random_vector
from regmod.rng import SplitMix64

# F_2 to F_13 keep byte rows (p² ≤ 256); F_17 and up, and ℚ (integers), keep list rows
FIELDS = tuple(PrimeField(p) for p in (2, 3, 5, 7, 11, 13, 17, 97, 2**61 - 1)) + (RationalField(),)
FIELD_IDS = ("f2", "f3", "f5", "f7", "f11", "f13", "f17", "f97", "m61", "q")


def nested_eliminate(gens: GeneratorSet, e: Idempotent):
    field, zero = gens.field, gens.field.zero
    start = e.atom_indices()
    work = [(start, [[[c.values[q] for q in start] for c in g.coords] for g in gens.gens], 0)]
    leaves: list[tuple[Idempotent, int]] = []
    steps: list[PivotStep] = []
    while work:
        atoms, matrix, rank = work.pop()
        region = Idempotent(e.context, sum(1 << q for q in atoms))
        best, best_count = None, 0
        for i, row in enumerate(matrix):
            for j, entry in enumerate(row):
                count = len(entry) - entry.count(zero)
                if count > best_count:
                    best, best_count = (i, j), count
        if best is None:
            leaves.append((region, rank))
            continue
        i, j = best
        pivot, pivot_row = matrix[i][j], matrix[i]
        cover = [t for t, v in enumerate(pivot) if v != zero]
        covered = [atoms[t] for t in cover]
        steps.append(PivotStep(region, i, j, Idempotent(e.context, sum(1 << q for q in covered))))
        if len(cover) < len(atoms):
            rest = [t for t, v in enumerate(pivot) if v == zero]
            projected = [[[entry[t] for t in rest] for entry in row] for row in matrix]
            work.append(([atoms[t] for t in rest], projected, rank))
        inverse = [field.inv(pivot[t]) for t in cover]
        reduced = []
        for k, row in enumerate(matrix):
            if k == i:
                continue
            factor = [field.mul(row[j][t], h) for t, h in zip(cover, inverse)]
            reduced.append([
                [field.sub(entry[t], field.mul(a, p[t])) for t, a in zip(cover, factor)]
                for c, (entry, p) in enumerate(zip(row, pivot_row)) if c != j
            ])
        work.append((covered, reduced, rank + 1))
    leaves.sort(key=lambda leaf: leaf[0].first_atom_index())
    return leaves, EliminationTrace(e, tuple(steps), tuple(leaves))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(FIELDS),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**63 - 1),
    st.data(),
)
def test_flat_engine_equals_nested_engine(field, gens_count, ambient, d, zero_bias, seed, data):
    rng = SplitMix64(seed)
    context = AtomSet(default_labels(d))
    gens = GeneratorSet(field, context, ambient, tuple(
        random_vector(field, context, ambient, rng, zero_bias) for _ in range(gens_count)))
    e = Idempotent(context, data.draw(st.integers(min_value=1, max_value=context.full_mask)))
    leaves, trace = regular_eliminate(gens, e)
    assert (leaves, trace) == nested_eliminate(gens, e)


def _scalars(field):
    if isinstance(field, PrimeField):
        return st.one_of(st.just(0), st.integers(min_value=0, max_value=field.p - 1))
    return st.one_of(st.just(Fraction(0)), st.fractions())


def _row_scalars(field):
    """Scalars of the engine's rows: residues over F_p, integers over ℚ."""
    if isinstance(field, PrimeField):
        return _scalars(field)
    return st.one_of(st.just(0), st.integers(min_value=-2**80, max_value=2**80))


def _units(field, width):
    """Nonzero row scalars."""
    if isinstance(field, PrimeField):
        nonzero = st.integers(min_value=1, max_value=field.p - 1)
    else:
        nonzero = st.one_of(st.integers(min_value=1, max_value=2**80),
                            st.integers(min_value=-2**80, max_value=-1))
    return st.lists(nonzero, min_size=width, max_size=width)


def _pivots(field):
    """Pivot rows of width 1 to 5: arbitrary, all zero, or with no zero."""
    return st.one_of(st.lists(_row_scalars(field), min_size=1, max_size=5),
                     st.integers(min_value=1, max_value=5).map(lambda w: [0] * w),
                     st.integers(min_value=1, max_value=5).flatmap(lambda w: _units(field, w)))


def _pivot_reduce_per_scalar(field, xs, fs, ys, pivot, carried):
    """pivot_reduce one scalar at a time: over F_p with field ops, over ℚ the Bareiss step."""
    ys, w = ys * (len(xs) // max(len(ys), 1)), len(pivot)
    if isinstance(field, PrimeField):
        return [field.sub(field.mul(pivot[t % w], x), field.mul(f, y))
                for t, (x, f, y) in enumerate(zip(xs, fs, ys))]
    return [(pivot[t % w] * x - f * y) // carried[t % w]
            for t, (x, f, y) in enumerate(zip(xs, fs, ys))] + pivot


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_row_kernels_equal_per_scalar_ops(field, data):
    row = field.row_type
    assert row is (bytes if isinstance(field, PrimeField) and field.p <= 13 else list)
    length = data.draw(st.integers(min_value=0, max_value=12))
    xs, fs, ys = (data.draw(st.lists(_row_scalars(field), min_size=length, max_size=length))
                  for _ in range(3))
    assert list(row(xs)) == xs
    cuts = sorted(data.draw(st.lists(st.integers(min_value=0, max_value=length), max_size=3)))
    parts = [row(xs[a:b]) for a, b in zip([0] + cuts, cuts + [length])]
    joined = field.join_rows(parts)
    assert joined == row(xs)
    pivot = data.draw(_pivots(field))
    flat = data.draw(st.lists(_row_scalars(field), max_size=4 * len(pivot)))
    flat = flat[:len(flat) - len(flat) % len(pivot)]  # whole entries only
    hit, miss = field.split_row(row(flat), row(pivot))
    assert hit == row([v for t, v in enumerate(flat) if pivot[t % len(pivot)] != 0])
    assert miss == row([v for t, v in enumerate(flat) if pivot[t % len(pivot)] == 0])
    # one pivot step over w atoms: `others` rows of `entries` entries below the pivot row
    w, entries, others = (data.draw(st.integers(min_value=low, max_value=3)) for low in (1, 0, 0))
    pivot = data.draw(_units(field, w))
    carried = data.draw(_units(field, 0 if isinstance(field, PrimeField) else w))
    size = others * entries * w
    xs, fs = (data.draw(st.lists(_row_scalars(field), min_size=size, max_size=size))
              for _ in range(2))
    ys = data.draw(st.lists(_row_scalars(field), min_size=entries * w, max_size=entries * w))
    reduced = field.pivot_reduce(row(xs), row(fs), row(ys), row(pivot), row(carried))
    assert reduced == row(_pivot_reduce_per_scalar(field, xs, fs, ys, pivot, carried))
    # the first matrix, from field scalars over w atoms
    values = data.draw(st.lists(_scalars(field), min_size=size, max_size=size))
    first = field.start_row(iter(values), w)
    if isinstance(field, PrimeField):
        assert first == row(values)
    else:  # each atom's scalars times the lcm of their denominators, then w previous pivots of 1
        scales = [lcm(*(v.denominator for v in values[t::w])) for t in range(w)]
        assert first == [int(v * scales[t % w]) for t, v in enumerate(values)] + [1] * w
    for got in (joined, hit, miss, reduced, first):
        assert type(got) is row and {type(v) for v in got} <= {int}


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_row_kernels_on_empty_rows(field):
    empty, one = field.row_type(), field.row_type([1])
    assert field.join_rows([]) == field.join_rows([empty, empty]) == empty
    assert field.split_row(empty, one) == (empty, empty)
    # a one-column matrix leaves no entries; ℚ still carries the pivot as the previous pivot
    carried, reduced, start = (empty,) * 3 if isinstance(field, PrimeField) else ([5], one, [1, 1])
    assert field.pivot_reduce(empty, empty, empty, one, carried) == reduced
    assert field.start_row([], 2) == start


def test_engine_makes_one_kernel_call_per_pivot_step(capsys, monkeypatch):
    """One pivot_reduce call per step, and no per-scalar call: no inverse on byte or list rows."""
    calls = {"pivot_reduce": 0, "mul": 0, "sub": 0, "inv": 0}

    def counting(name):
        original = getattr(PrimeField, name)

        def wrapper(self, *args):
            calls[name] += 1
            return original(self, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(PrimeField, name, counting(name))
    for p, steps in ((5, 608), (97, 140), (2**61 - 1, 128)):
        assert main(["gen", "--seed", "1", "--atoms", "1024", "--ambient", "8", "--gens", "8",
                     "--field", f"fp:{p}"]) == 0
        gens = parse_module_file(capsys.readouterr().out)
        calls.update(dict.fromkeys(calls, 0))
        _, trace = regular_eliminate(gens, gens.context.full())
        assert len(trace.steps) == steps
        assert calls == {"pivot_reduce": steps, "mul": 0, "sub": 0, "inv": 0}, p


def test_rational_engine_makes_one_step_kernel_call_per_pivot_step(capsys, monkeypatch):
    assert main(["gen", "--seed", "1", "--atoms", "64", "--ambient", "8", "--gens", "8",
                 "--field", "rational"]) == 0
    gens = parse_module_file(capsys.readouterr().out)
    expected = nested_eliminate(gens, gens.context.full())
    calls = {"pivot_reduce": 0, "mul": 0, "sub": 0, "inv": 0}

    def counting(name):
        original = getattr(RationalField, name)

        def wrapper(self, *args):
            calls[name] += 1
            return original(self, *args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(RationalField, name, counting(name))
    leaves, trace = regular_eliminate(gens, gens.context.full())
    assert (leaves, trace) == expected
    assert len(trace.steps) == 31
    assert calls == {"pivot_reduce": 31, "mul": 0, "sub": 0, "inv": 0}


# far past the generator's ±10/9, and zero often enough that regions split
_BIG = 10**30
_BIG_RATIONALS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(min_value=-_BIG, max_value=_BIG),
              st.integers(min_value=1, max_value=_BIG)),
)


@settings(max_examples=120, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=8),
    st.data(),
)
def test_rational_engine_divides_exactly(independent, combined, ambient, d, data):
    """Large ℚ scalars, some generators combinations of others: each Bareiss division is exact."""
    context = AtomSet(default_labels(d))

    def scalars():
        return data.draw(st.lists(_BIG_RATIONALS, min_size=d, max_size=d))

    grids = [[scalars() for _ in range(ambient)] for _ in range(independent)]
    for _ in range(combined):  # the rank drops wherever both coefficients are nonzero
        a, b = (data.draw(st.sampled_from(grids)) for _ in range(2))
        ka, kb = scalars(), scalars()
        grids.append([[x * ka[q] + y * kb[q] for q, (x, y) in enumerate(zip(ra, rb))]
                      for ra, rb in zip(a, b)])
    gens = GeneratorSet.from_grids(RationalField(), context, ambient, grids)
    e = Idempotent(context, data.draw(st.integers(min_value=1, max_value=context.full_mask)))
    original = RationalField.pivot_reduce

    def exact(self, xs, fs, ys, pivot, prev):
        w, pivot_rows = len(pivot), ys * (len(xs) // max(len(ys), 1))
        for t, (x, f, y) in enumerate(zip(xs, fs, pivot_rows)):
            assert (pivot[t % w] * x - f * y) % prev[t % w] == 0
        return original(self, xs, fs, ys, pivot, prev)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RationalField, "pivot_reduce", exact)
        leaves, trace = regular_eliminate(gens, e)
    assert (leaves, trace) == nested_eliminate(gens, e)
