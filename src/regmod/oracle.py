"""Brute-force ground truth for the classification engine.

Everything here answers questions one atom at a time with its own textbook
linear algebra, sharing only the field and record types with the engine, so
a bug would have to be made twice to go unnoticed.  Its one elimination
routine, `_rank`, calls no field method and shares no arithmetic with
`regular_eliminate` or `module_space.echelon`, and its pivot rule (first
nonzero entry, column-major) is echelon's, not the engine's support-coverage
maximization.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Sequence

from .boolean_core import AtomSet, Idempotent
from .classification import IsoMap, Passport, PassportEntry
from .errors import ContextMismatchError, Record, ValidationError
from .fields import Field, PrimeField, Scalar
from .module_space import GeneratorSet


class RankProfile(Record):
    context: AtomSet
    ranks: dict[str, int]

    def __post_init__(self):
        if set(self.ranks) != set(self.context.labels):
            raise ValidationError("rank profile domain must equal the atom set")

    def rank_of(self, label: str) -> int:
        return self.ranks[label]


def _rank(rows: Sequence[Sequence[Scalar]], field: Field) -> int:
    """Row rank by fraction-free forward elimination, pivots found column-major.

    Each ℚ row is scaled to integers by the lcm of its denominators.  Below a
    pivot a, a row with entry f becomes a·row − f·pivot_row, then is reduced
    mod p or divided by the gcd of its entries: invertible row operations.
    """
    p = field.p if isinstance(field, PrimeField) else 0
    scales = [lcm(*(v.denominator for v in row)) for row in rows]  # 1 over F_p
    work = [[v.numerator * (s // v.denominator) for v in row] for row, s in zip(rows, scales)]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        hits = [r for r in range(rank, len(work)) if work[r][col]]  # rows at or below the rank
        if hits:  # the first is the pivot; after the swap the rest still index nonzero rows
            work[rank], work[hits[0]] = work[hits[0]], work[rank]
            pivot = work[rank]
            a = pivot[col]
            for r in hits[1:]:
                f = work[r][col]
                if p:
                    work[r] = [(a * x - f * y) % p for x, y in zip(work[r], pivot)]
                else:
                    row = [a * x - f * y for x, y in zip(work[r], pivot)]
                    g = gcd(*row) or 1  # 0 when the row vanished
                    work[r] = [v // g for v in row]
            rank += 1
    return rank


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
    by_rank: dict[int, list[int]] = {}
    for q, label in enumerate(gens.context.labels):
        by_rank.setdefault(profile.ranks[label], []).append(q)
    entries = tuple(
        PassportEntry(Idempotent(gens.context, gens.context.mask_of(atoms)), rank)
        for rank, atoms in sorted(by_rank.items())
    )
    return Passport(entries)


def oracle_verify_iso(iso: IsoMap, gens: GeneratorSet, other: GeneratorSet) -> bool:
    """Fiberwise audit of a claimed isomorphism: five rank equalities per atom.

    The pieces must cover every atom, with bases of exactly `rank` vectors.
    At an atom of a piece of rank r, let G and H be the source and target
    generator fibers, I the claimed images, B and T the source and target
    basis fibers, [B|T] each basis vector's source fiber joined to its
    target fiber, and [G|I] each generator fiber joined to its image.  Then

        rank G = rank H = rank(H ∪ I) = rank T = rank([B|T] ∪ [G|I]) = r.

    Given the first four, the fifth holds exactly when every generator fiber
    is a combination of B whose coefficients give exactly its image on T:
    rank T = r makes the r rows of [B|T] independent, so the fifth says that
    every row of [G|I] is a combination of them.  Then G lies in the span of
    the r fibers of B and has rank r, so B is independent and the
    coefficients are unique: the check is the same as expressing each
    generator fiber in B and mapping its coefficients onto T.  That makes
    the map well defined; it is injective because T has rank r, and onto
    the target span because the images have rank r and lie in the span of
    H, which has rank r.
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
        tgt_basis_fibers = [list(b.fiber(q)) for b in pc.target_basis]
        paired = [list(b.fiber(q)) + t for b, t in zip(pc.source_basis, tgt_basis_fibers)]
        paired += [g + i for g, i in zip(source, images)]
        spans = (source, target, target + images, tgt_basis_fibers, paired)
        if any(_rank(rows, field) != pc.rank for rows in spans):
            return False  # the third fails when an image escapes the target span
    return True
