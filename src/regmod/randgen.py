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
from .rng import SplitMix64

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


def random_scalar(field: Field, rng: SplitMix64) -> Scalar:
    if isinstance(field, PrimeField):
        return rng.below(field.p)
    return Fraction(rng.below(21) - 10, 1 + rng.below(9))


def random_nonzero_scalar(field: Field, rng: SplitMix64) -> Scalar:
    if isinstance(field, PrimeField):
        return 1 + rng.below(field.p - 1)
    sign = 1 if rng.below(2) == 0 else -1
    return Fraction(sign * (1 + rng.below(10)), 1 + rng.below(9))


def random_element(
    field: Field, context: AtomSet, rng: SplitMix64, zero_bias: int = 3
) -> AlgebraElement:
    """Random element; roughly one value in `zero_bias` is forced to zero."""
    values = [
        field.zero if rng.below(zero_bias) == 0 else random_scalar(field, rng)
        for _ in range(len(context))
    ]
    return AlgebraElement(field, context, values)


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
        rows[i] = rows[i].scale(random_unit(gens.field, gens.context, rng))
    elif op == 2:
        i = rng.below(m)
        j = rng.below(m - 1)
        if j >= i:
            j += 1
        a = random_element(gens.field, gens.context, rng)
        rows[i] = rows[i] + rows[j].scale(a)
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
