"""Seeded random instances: algebras, vectors, presentations, perturbations.

All sampling flows through SplitMix64 so every caller (CLI generation, the
verification suite, the test corpus) is reproducible from a single integer
seed.  Constructions that must guarantee a property (constant rank, a
perturbed rank profile) verify it with exact rank computations as they go.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .boolean_core import AtomSet, Idempotent
from .fields import Field, PrimeField, RationalField, Scalar
from .module_space import GeneratorSet, ModuleVector, combine, fiber_rank
from .regular_algebra import AlgebraElement, from_fibers
from .rng import _BLOCK, SplitMix64, one_word_limit

ACCEPTANCE_FIELDS: tuple[Field, ...] = (
    PrimeField(2),
    PrimeField(5),
    PrimeField(97),
    RationalField(),
)


def default_labels(count: int) -> tuple[str, ...]:
    return tuple(f"q{i + 1}" for i in range(count))


def random_field(rng: SplitMix64) -> Field:
    return rng.choice(ACCEPTANCE_FIELDS)


# A random rational is (below(21) − 10) / (1 + below(9)), looked up here by
# 9·numerator draw + denominator draw; Fractions are immutable, so shared.
_RATIONALS = tuple(Fraction(a - 10, 1 + b) for a in range(21) for b in range(9))


def random_scalar(field: Field, rng: SplitMix64) -> Scalar:
    if isinstance(field, PrimeField):
        return rng.below(field.p)
    return _RATIONALS[rng.below(21) * 9 + rng.below(9)]


def random_nonzero_scalar(field: Field, rng: SplitMix64) -> Scalar:
    if isinstance(field, PrimeField):
        return 1 + rng.below(field.p - 1)
    sign = 1 if rng.below(2) == 0 else -1
    return Fraction(sign * (1 + rng.below(10)), 1 + rng.below(9))


def random_element(
    field: Field, context: AtomSet, rng: SplitMix64, zero_bias: int = 3
) -> AlgebraElement:
    """Random element; roughly one value in `zero_bias` is forced to zero.

    The values come from blocks of words while the words allow (see
    _block_values), then from one below() call per draw.
    """
    d = len(context)
    values = _block_values(field, d, rng, zero_bias) if d >= _MIN_BLOCK_ATOMS else []
    values += [
        field.zero if rng.below(zero_bias) == 0 else random_scalar(field, rng)
        for _ in range(d - len(values))
    ]
    return AlgebraElement._raw(field, context, tuple(values))  # every draw is canonical


def random_unit(field: Field, context: AtomSet, rng: SplitMix64) -> AlgebraElement:
    """Full-support element: invertible, usable for generator rescaling."""
    values = [random_nonzero_scalar(field, rng) for _ in range(len(context))]
    return AlgebraElement(field, context, values)


def random_vector(
    field: Field, context: AtomSet, ambient_dim: int, rng: SplitMix64, zero_bias: int = 3
) -> ModuleVector:
    return ModuleVector(
        tuple(random_element(field, context, rng, zero_bias) for _ in range(ambient_dim))
    )


_MIN_BLOCK_ATOMS = 8  # below this many atoms the per-draw loop beats a block's fixed cost


def _block_values(field: Field, count: int, rng: SplitMix64, zero_bias: int) -> list[Scalar]:
    """The first of `count` values random_element draws, as many as whole blocks of words allow.

    below(b) returns word % b for a word under one_word_limit(b) and draws
    again otherwise.  So a block whose every word is under the limit of
    every bound it serves needs no redraw: each draw is then the next word
    reduced modulo its bound.  A block with a word past the limit is handed
    back whole, and the per-draw loop draws from there.  Words a block drew
    but its atoms did not use are handed back too.
    """
    zero = field.zero
    if isinstance(field, PrimeField):
        p, per_atom, bounds = field.p, 2, (zero_bias, field.p)
    else:
        per_atom, bounds = 3, (zero_bias, 21, 9)
    limit = min(map(one_word_limit, bounds))  # 0 when a bound needs more than one word
    values: list[Scalar] = []
    while limit and len(values) < count:
        atoms = min(count - len(values), _BLOCK // per_atom)
        block = rng.words(atoms * per_atom)
        if max(block) >= limit:
            rng.rewind(len(block))
            break
        words = iter(block)
        draw = words.__next__
        if per_atom == 2:
            values += [zero if draw() % zero_bias == 0 else draw() % p for _ in range(atoms)]
        else:
            values += [
                zero if draw() % zero_bias == 0 else _RATIONALS[draw() % 21 * 9 + draw() % 9]
                for _ in range(atoms)
            ]
        rng.rewind(words.__length_hint__())
    return values


def random_generator_set(
    rng: SplitMix64,
    field: Optional[Field] = None,
    max_atoms: int = 16,
    max_gens: int = 6,
    max_ambient: int = 6,
) -> GeneratorSet:
    """Random presentation, occasionally degenerate on purpose.

    Roughly one draw in ten has no generators at all, and individual atoms
    are sometimes zeroed across every generator so rank-0 pieces show up.
    """
    if field is None:
        field = random_field(rng)
    d = 1 + rng.below(max_atoms)
    n = 1 + rng.below(max_ambient)
    context = AtomSet(default_labels(d))
    m = 0 if rng.below(10) == 0 else 1 + rng.below(max_gens)
    gens = [random_vector(field, context, n, rng) for _ in range(m)]
    alive = Idempotent(context, sum(1 << q for q in range(d) if rng.below(8)))
    return GeneratorSet(field, context, n, tuple(g.restrict(alive) for g in gens))


# ---------------------------------------------------------------------------
# Invertible generator operations: they change the presentation but not the
# presented module, hence not the passport.


def apply_invertible_op(gens: GeneratorSet, rng: SplitMix64) -> GeneratorSet:
    """One random module-preserving rewrite of the generator list."""
    m = len(gens)
    if m == 0:
        return gens
    rows = list(gens.gens)
    op = rng.below(4)
    if op in (0, 2) and m < 2:
        op = 1
    if op == 3 and m >= 12:  # keep presentations from ballooning
        op = 1
    if op == 0:
        i, j = rng.below(m), rng.below(m)
        rows[i], rows[j] = rows[j], rows[i]
    elif op == 1:
        i = rng.below(m)
        rows[i] = combine([rows[i]], [random_unit(gens.field, gens.context, rng)])
    elif op == 2:
        i = rng.below(m)
        j = rng.below(m - 1)
        if j >= i:
            j += 1
        a = random_element(gens.field, gens.context, rng)
        rows[i] = combine([rows[i], rows[j]], [AlgebraElement.one(gens.field, gens.context), a])
    else:
        rows.append(combine(rows, [random_element(gens.field, gens.context, rng) for _ in rows]))
    return GeneratorSet(gens.field, gens.context, gens.ambient_dim, tuple(rows))


def recombined_copy(gens: GeneratorSet, rng: SplitMix64, ops: int = 6) -> GeneratorSet:
    """A different presentation of the same module."""
    out = gens
    for _ in range(ops):
        out = apply_invertible_op(out, rng)
    return out


def perturb_rank_profile(gens: GeneratorSet, rng: SplitMix64) -> GeneratorSet:
    """A presentation whose per-atom rank provably differs at one atom.

    Below ambient rank, a generator supported on the chosen atom alone is
    appended with a fiber outside the current span (some standard unit
    vector always works); at full rank the atom is zeroed across all
    generators instead.
    """
    field, context, n = gens.field, gens.context, gens.ambient_dim
    q = rng.below(len(context))
    fibers = gens.fiber_matrix(q)
    current = fiber_rank(fibers, field)
    if current < n:
        for pos in range(n):
            unit = [field.one if c == pos else field.zero for c in range(n)]
            if fiber_rank(fibers + [unit], field) > current:
                extra = ModuleVector(from_fibers(field, context, n, {q: unit}))
                return GeneratorSet(field, context, n, gens.gens + (extra,))
        raise AssertionError("a unit vector outside a proper subspace must exist")
    others = [k for k in range(len(context)) if k != q]
    new_gens = tuple(
        ModuleVector(from_fibers(field, context, n, {k: g.fiber(k) for k in others}))
        for g in gens.gens
    )
    return GeneratorSet(field, context, n, new_gens)


def constant_rank_instance(
    rng: SplitMix64,
    field: Optional[Field] = None,
    max_atoms: int = 12,
    max_gens: int = 6,
    max_ambient: int = 6,
) -> tuple[GeneratorSet, int]:
    """Presentation with the same fiber rank at every atom, plus that rank.

    Per atom: `rank` rows drawn until exactly independent, the rest random
    combinations of them, then a row shuffle so the independent rows do not
    sit in predictable slots.
    """
    if field is None:
        field = random_field(rng)
    d = 1 + rng.below(max_atoms)
    n = 1 + rng.below(max_ambient)
    m = 1 + rng.below(max_gens)
    rank = rng.below(min(m, n) + 1)
    context = AtomSet(default_labels(d))
    per_atom = []
    for q in range(d):
        while True:
            head = [[random_scalar(field, rng) for _ in range(n)] for _ in range(rank)]
            if fiber_rank(head, field) == rank:
                break
        rows = list(head)
        for _ in range(m - rank):
            combo = [field.zero] * n
            for h in head:
                c = random_scalar(field, rng)
                combo = [field.add(v, field.mul(c, w)) for v, w in zip(combo, h)]
            rows.append(combo)
        for i in range(m - 1, 0, -1):  # Fisher-Yates
            j = rng.below(i + 1)
            rows[i], rows[j] = rows[j], rows[i]
        per_atom.append(rows)
    gens = tuple(
        ModuleVector(from_fibers(field, context, n, dict(enumerate(rows[k] for rows in per_atom))))
        for k in range(m)
    )
    return GeneratorSet(field, context, n, gens), rank
