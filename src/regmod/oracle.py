"""Brute-force ground truth for the classification engine.

Everything here answers questions one atom at a time with its own textbook
linear algebra, sharing only the field layer and the record types with the
engine, so a bug would have to be made twice to go unnoticed.  Its one
elimination routine, `_reduce`, shares no code with `regular_eliminate` or
`module_space.echelon`, and its pivot rule (first nonzero entry, column-major)
is echelon's, not the engine's support-coverage maximization.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .boolean_core import AtomSet, Idempotent
from .classification import IsoMap, Passport, PassportEntry
from .errors import ContextMismatchError, Record, ValidationError
from .fields import Field, Scalar
from .module_space import GeneratorSet


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


def oracle_verify_iso(iso: IsoMap, gens: GeneratorSet, other: GeneratorSet) -> bool:
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
