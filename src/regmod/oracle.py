"""Brute-force ground truth for the classification engine.

Everything here answers questions one atom at a time with its own textbook
linear algebra, sharing only the field layer and the record types with the
engine, so a bug would have to be made twice to go unnoticed.  Its one
elimination routine, `_reduce`, shares no code with `regular_eliminate` or
`module_space.echelon`, and its pivot rule (first nonzero entry, column-major)
is echelon's, not the engine's support-coverage maximization.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .boolean_core import AtomSet, Idempotent
from .classification import IsoMap, Passport, PassportEntry
from .errors import ContextMismatchError, Record, ValidationError
from .fields import Field, PrimeField, Scalar
from .module_space import GeneratorSet
from .rng import SplitMix64


class RankProfile(Record):
    context: AtomSet
    ranks: dict[str, int]

    def __post_init__(self):
        if set(self.ranks) != set(self.context.labels):
            raise ValidationError("rank profile domain must equal the atom set")

    def rank_of(self, label: str) -> int:
        return self.ranks[label]


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


def _rank(rows: Sequence[Sequence[Scalar]], field: Field) -> int:
    """Row rank by classical elimination, pivots found column-major."""
    work = [list(r) for r in rows]
    return len(_reduce(work, len(work[0]) if work else 0, field))


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


def atom_rank_profile(gens: GeneratorSet) -> RankProfile:
    """Per-atom rank of the generator fiber matrix, classically computed."""
    ranks = {
        gens.context.labels[q]: _rank(gens.fiber_matrix(q), gens.field)
        for q in range(len(gens.context))
    }
    return RankProfile(gens.context, ranks)


def oracle_passport(gens: GeneratorSet) -> Passport:
    """Passport obtained by grouping atoms directly by their fiber rank."""
    profile = atom_rank_profile(gens)
    by_rank: dict[int, int] = {}
    for q, label in enumerate(gens.context.labels):
        r = profile.ranks[label]
        by_rank[r] = by_rank.get(r, 0) | (1 << q)
    entries = tuple(
        PassportEntry(Idempotent(gens.context, mask), rank)
        for rank, mask in sorted(by_rank.items())
    )
    return Passport(entries)


def _sample_scalar(field: Field, rng: SplitMix64) -> Scalar:
    if isinstance(field, PrimeField):
        return rng.below(field.p)
    return Fraction(rng.below(19) - 9, 1 + rng.below(7))


def _combination(field: Field, a: Scalar, x: Sequence, b: Scalar, y: Sequence) -> list:
    """The fiber a·x + b·y."""
    return [field.add(field.mul(a, u), field.mul(b, v)) for u, v in zip(x, y)]


def oracle_verify_iso(
    iso: IsoMap, gens: GeneratorSet, other: GeneratorSet, seed: int = 2026, samples: int = 4
) -> bool:
    """Fiberwise audit of a claimed isomorphism.

    At every atom the correspondence generator-fiber → image-fiber must be a
    well-defined K-linear bijection between the two fiber spans, each piece's
    two bases must hold exactly `rank` vectors and have that local rank, and
    on a seeded random sample of scalar pairs the piecewise basis data must
    reproduce the claimed generator images (the map commutes with the
    algebra action).
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
    fibers = []  # per atom: generator, image, source basis and target basis fibers
    for q in range(len(gens.context)):
        source = gens.fiber_matrix(q)
        images = [list(img.fiber(q)) for img in iso.generator_images]
        target = other.fiber_matrix(q)
        r_source = _rank(source, field)
        r_images = _rank(images, field)
        r_target = _rank(target, field)
        paired = [source[k] + images[k] for k in range(len(source))]
        if _rank(paired, field) != r_source:
            return False  # some K-relation among fibers breaks in the images
        if r_images != r_source or r_images != r_target:
            return False
        if _rank(list(target) + images, field) != r_target:
            return False  # an image escapes the target fiber span
        pc = piece_at[q]
        src_basis_fibers = [list(b.fiber(q)) for b in pc.source_basis]
        tgt_basis_fibers = [list(b.fiber(q)) for b in pc.target_basis]
        if _rank(src_basis_fibers, field) != pc.rank:
            return False
        if _rank(tgt_basis_fibers, field) != pc.rank:
            return False
        fibers.append((source, images, src_basis_fibers, tgt_basis_fibers))
    if gens.gens and samples > 0:
        rng = SplitMix64(seed)
        m = len(gens.gens)
        for _ in range(samples):
            k = rng.below(m)
            l = rng.below(m)
            for source, images, src_basis_fibers, tgt_basis_fibers in fibers:
                a = _sample_scalar(field, rng)
                b = _sample_scalar(field, rng)
                fiber = _combination(field, a, source[k], b, source[l])
                coeffs = _express(src_basis_fibers, fiber, field)
                if coeffs is None:
                    return False
                mapped = [field.zero] * other.ambient_dim
                for c, basis_fiber in zip(coeffs, tgt_basis_fibers):
                    for pos, v in enumerate(basis_fiber):
                        mapped[pos] = field.add(mapped[pos], field.mul(c, v))
                if mapped != _combination(field, a, images[k], b, images[l]):
                    return False
    return True
