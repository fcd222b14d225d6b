"""Brute-force ground truth for the classification engine.

Everything here answers questions one atom at a time with its own textbook
linear algebra.  Deliberately kept independent of the main engine: only the
field layer and the plain data types are shared, the elimination code is
not, and the pivot rule differs (first nonzero entry in column-major scan
versus the engine's support-coverage maximization), so a bug would have to
be made twice to go unnoticed.
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


def _rank(rows: Sequence[Sequence[Scalar]], field: Field) -> int:
    """Row rank by classical elimination, pivots found column-major."""
    work = [list(r) for r in rows]
    if not work:
        return 0
    cols = len(work[0])
    zero = field.zero
    top = 0
    for col in range(cols):
        pivot_row = None
        for r in range(top, len(work)):
            if work[r][col] != zero:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[top], work[pivot_row] = work[pivot_row], work[top]
        inv = field.inv(work[top][col])
        work[top] = [field.mul(inv, v) for v in work[top]]
        for r in range(len(work)):
            if r != top and work[r][col] != zero:
                factor = work[r][col]
                work[r] = [
                    field.sub(v, field.mul(factor, w))
                    for v, w in zip(work[r], work[top])
                ]
        top += 1
        if top == len(work):
            break
    return top


def _express(
    basis_fibers: Sequence[Sequence[Scalar]], target: Sequence[Scalar], field: Field
) -> Optional[list[Scalar]]:
    """Coefficients writing target as a combination of basis fibers, or None."""
    n = len(target)
    m = len(basis_fibers)
    work = [[basis_fibers[k][l] for k in range(m)] + [target[l]] for l in range(n)]
    zero = field.zero
    top = 0
    pivot_cols: list[int] = []
    for col in range(m):
        pivot_row = None
        for r in range(top, n):
            if work[r][col] != zero:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[top], work[pivot_row] = work[pivot_row], work[top]
        inv = field.inv(work[top][col])
        work[top] = [field.mul(inv, v) for v in work[top]]
        for r in range(n):
            if r != top and work[r][col] != zero:
                factor = work[r][col]
                work[r] = [
                    field.sub(v, field.mul(factor, w))
                    for v, w in zip(work[r], work[top])
                ]
        pivot_cols.append(col)
        top += 1
        if top == n:
            break
    for r in range(top, n):
        if work[r][m] != zero:
            return None
    coeffs = [zero] * m
    for r, col in enumerate(pivot_cols):
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


def oracle_verify_iso(
    iso: IsoMap, gens: GeneratorSet, other: GeneratorSet, seed: int = 2026, samples: int = 4
) -> bool:
    """Fiberwise audit of a claimed isomorphism.

    At every atom the correspondence generator-fiber → image-fiber must be a
    well-defined K-linear bijection between the two fiber spans, the piece
    bases must have the advertised local rank, and on a seeded random sample
    of scalar pairs the piecewise basis data must reproduce the claimed
    generator images (the map commutes with the algebra action).
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
        for q in pc.piece.atom_indices():
            piece_at[q] = pc
    if set(piece_at) != set(range(len(gens.context))):
        return False
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
    if gens.gens and samples > 0:
        rng = SplitMix64(seed)
        m = len(gens.gens)
        for _ in range(samples):
            k = rng.below(m)
            l = rng.below(m)
            for q in range(len(gens.context)):
                a = _sample_scalar(field, rng)
                b = _sample_scalar(field, rng)
                pc = piece_at[q]
                fiber = [
                    field.add(
                        field.mul(a, u), field.mul(b, v)
                    )
                    for u, v in zip(gens.gens[k].fiber(q), gens.gens[l].fiber(q))
                ]
                expected = [
                    field.add(field.mul(a, u), field.mul(b, v))
                    for u, v in zip(
                        iso.generator_images[k].fiber(q),
                        iso.generator_images[l].fiber(q),
                    )
                ]
                src_basis_fibers = [list(bv.fiber(q)) for bv in pc.source_basis]
                coeffs = _express(src_basis_fibers, fiber, field)
                if coeffs is None:
                    return False
                mapped = [field.zero] * other.ambient_dim
                for s, c in enumerate(coeffs):
                    for pos, v in enumerate(pc.target_basis[s].fiber(q)):
                        mapped[pos] = field.add(mapped[pos], field.mul(c, v))
                if mapped != expected:
                    return False
    return True
