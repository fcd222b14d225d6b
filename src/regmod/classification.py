"""Classification of presented modules by rank profile.

Every finitely presented module over the atomic algebra decomposes into
pieces on which it is free of constant rank.  The decomposition is computed
by an idempotent-splitting elimination: ordinary Gaussian elimination, except
that a pivot entry is only invertible on its support, so the current region
splits into the part the pivot covers (rank grows, matrix shrinks) and the
residual part (retried with the matrix restricted to it).  The sorted,
merged result — disjoint pieces with strictly increasing ranks covering the
whole atom set — is a complete isomorphism invariant, here called the
passport.
"""

from __future__ import annotations

from itertools import chain, compress
from operator import not_
from typing import Optional, Sequence

from .boolean_core import AtomSet, Idempotent, PartitionOfUnity
from .errors import (
    ContextMismatchError,
    LengthMismatchError,
    NotInModuleError,
    PassportMismatchError,
    RankMismatchError,
    Record,
    ValidationError,
    ZeroIdempotentError,
)
from .fields import Field
from .module_space import (
    GeneratorSet,
    ModuleVector,
    combine,
    echelon,
    fiber_rank,
    membership,
)
from .regular_algebra import AlgebraElement, from_fibers


class PassportEntry(Record):
    piece: Idempotent
    rank: int

    def __post_init__(self):
        if self.piece.is_zero:
            raise ValidationError("passport piece must be nonzero")
        if self.rank < 0:
            raise ValidationError("passport rank must be nonnegative")

    def render(self) -> str:
        return f"rank={self.rank} piece={self.piece.render()}"


class Passport(Record):
    entries: tuple[PassportEntry, ...]

    def __post_init__(self):
        ranks = [entry.rank for entry in self.entries]
        if any(a >= b for a, b in zip(ranks, ranks[1:])):
            raise ValidationError("passport ranks must be strictly increasing")
        self.partition()  # one atom set, nonempty, disjoint pieces covering it

    @property
    def context(self) -> AtomSet:
        return self.entries[0].piece.context

    @property
    def max_rank(self) -> int:
        return self.entries[-1].rank

    @property
    def faithful(self) -> bool:
        """No rank-0 piece: every nonzero idempotent meets the module."""
        return all(entry.rank > 0 for entry in self.entries)

    def partition(self) -> PartitionOfUnity:
        return PartitionOfUnity(tuple(entry.piece for entry in self.entries))

    def rank_at(self, atom_index: int) -> int:
        for entry in self.entries:
            if entry.piece.contains_atom(atom_index):
                return entry.rank
        raise ValidationError("atom not covered")  # unreachable on valid passports

    def render(self) -> str:
        return "\n".join(entry.render() for entry in self.entries)

    def __str__(self) -> str:
        return self.render()


class PivotStep(Record):
    """One split event: while processing `piece`, the entry at (row, col)
    was inverted on `pivot_support` and eliminated there."""

    piece: Idempotent
    row: int
    col: int
    pivot_support: Idempotent


class EliminationTrace(Record):
    start: Idempotent
    steps: tuple[PivotStep, ...]
    leaves: tuple[tuple[Idempotent, int], ...]


def regular_eliminate(
    gens: GeneratorSet, e: Idempotent
) -> tuple[list[tuple[Idempotent, int]], EliminationTrace]:
    """Split e into pieces of constant module rank.

    Worklist of (region, atoms, flat, rows, cols, rank) states: the region,
    its atom indices in ascending order, and its matrix as one flat row of the
    field's `row_type` (a list of ints, or bytes for small prime fields),
    entry-major, entry (i, j) being flat[(i·cols + j)·n : (i·cols + j + 1)·n]:
    its scalars over the region's n atoms only.  After the rows·cols entries
    come the per-atom values the field carries: none over F_p; over ℚ, whose
    rows are integers, each atom's previous pivot.  A state whose entries
    are all zero is a leaf.  Otherwise the pivot a = M[i][j] is the first
    entry, row-major, with the most nonzeros; it is a unit on its support g.
    The residual region, where a vanishes, re-queues with the matrix and
    the carried values projected onto it (`field.split_row`).  On g every
    other row k is reduced against the pivot row, the pivot row and column
    go and rank is credited, all in one `field.pivot_reduce` call.  Every
    field takes the fraction-free update a·row_k − M[k][j]·row_i, with no
    inverse of a: over F_p mod p, which on each atom is the Gaussian row
    times the unit a; over ℚ divided exactly by prev, the atom's previous
    pivot (Bareiss, Math. Comp. 22, 1968, by Sylvester's identity), and a
    becomes the new prev; `field.start_row` scales each atom's first matrix
    to integers by the lcm of its denominators, with prev 1.  Either way an
    entry is zero exactly where the Gaussian entry is, and only the zero
    pattern of a scalar is read here; the field's row methods do all
    arithmetic.  Each push shrinks either the matrix or the region, so the
    procedure terminates; the leaves partition e and carry the exact
    per-atom rank.  A step costs time linear in its region, and an atom
    lies in a number of regions bounded by the matrix size, so the total
    grows linearly in d.
    """
    if e.context != gens.context:
        raise ContextMismatchError("idempotent over a different atom set")
    if e.is_zero:
        raise ZeroIdempotentError("elimination needs a nonzero starting idempotent")
    field = gens.field
    keep = e.selector()
    rows, cols = len(gens.gens), gens.ambient_dim
    values = chain.from_iterable(c.values for g in gens.gens for c in g.coords)
    atoms = e.atom_indices()
    flat = field.start_row(compress(values, keep * (rows * cols)), len(atoms))
    work = [(e, atoms, flat, rows, cols, 0)]
    leaves: list[tuple[Idempotent, int]] = []
    steps: list[PivotStep] = []
    while work:
        region, atoms, flat, rows, cols, rank = work.pop()
        n = len(atoms)
        nonzeros = [n - flat[s:s + n].count(0) for s in range(0, rows * cols * n, n)]
        best = max(nonzeros, default=0)
        if not best:
            leaves.append((region, rank))
            continue
        i, j = divmod(nonzeros.index(best), cols)
        pivot = flat[(i * cols + j) * n:(i * cols + j + 1) * n]
        support = region
        if best < n:  # the pivot misses some atoms: split off the residual region
            rest = list(compress(atoms, map(not_, pivot)))  # scalars are falsy exactly when zero
            atoms = list(compress(atoms, pivot))
            support = Idempotent(e.context, e.context.mask_of(atoms))
            flat, residual = field.split_row(flat, pivot)
            work.append((Idempotent(e.context, region.mask - support.mask), rest,
                         residual, rows, cols, rank))
            n = best
            pivot = flat[(i * cols + j) * n:(i * cols + j + 1) * n]
        steps.append(PivotStep(region, i, j, support))
        width, left, right = cols * n, j * n, (j + 1) * n
        others = [flat[k * width:(k + 1) * width] for k in range(rows)]
        pivot_row = others.pop(i)
        xs = field.join_rows(row[:left] + row[right:] for row in others)
        fs = field.join_rows(row[left:right] * (cols - 1) for row in others)
        reduced = field.pivot_reduce(xs, fs, pivot_row[:left] + pivot_row[right:], pivot,
                                     flat[rows * width:])
        work.append((support, atoms, reduced, rows - 1, cols - 1, rank + 1))
    leaves.sort(key=lambda leaf: leaf[0].first_atom_index())
    return leaves, EliminationTrace(e, tuple(steps), tuple(leaves))


def passport(gens: GeneratorSet) -> Passport:
    """Canonical invariant: equal-rank pieces joined, entries rank-ascending."""
    leaves, _ = regular_eliminate(gens, gens.context.full())
    by_rank: dict[int, int] = {}
    for piece, rank in leaves:
        by_rank[rank] = by_rank.get(rank, 0) | piece.mask
    entries = tuple(
        PassportEntry(Idempotent(gens.context, mask), rank)
        for rank, mask in sorted(by_rank.items())
    )
    return Passport(entries)


def atom_rank(gens: GeneratorSet, atom_index: int) -> int:
    """Classical rank of the generator fibers at one atom."""
    return fiber_rank(gens.fiber_matrix(atom_index), gens.field)


def kappa(gens: GeneratorSet, e: Idempotent) -> Optional[int]:
    """Homogeneity rank of the module restricted to e.

    0 for e = 0; the common value when the per-atom rank is constant on e;
    None when no single rank fits (the restriction is not homogeneous —
    that is an answer, not a failure).
    """
    if e.context != gens.context:
        raise ContextMismatchError("idempotent over a different atom set")
    if e.is_zero:
        return 0
    ranks = {atom_rank(gens, q) for q in e.atom_indices()}
    if len(ranks) == 1:
        return ranks.pop()
    return None


def is_strictly_homogeneous(gens: GeneratorSet, e: Idempotent) -> bool:
    """Whether every nonzero idempotent below e sees the same rank."""
    rank = kappa(gens, e)  # checks the atom set first
    if e.is_zero:
        raise ZeroIdempotentError("strict homogeneity is asked of a nonzero idempotent")
    return rank is not None


def _selected_basis(
    gens: GeneratorSet, selection: dict[int, Sequence[int]], rank: int
) -> list[ModuleVector]:
    """Slot i takes, at every atom q, the fiber of generator selection[q][i]."""
    return [
        ModuleVector(from_fibers(
            gens.field, gens.context, gens.ambient_dim,
            {q: gens.gens[chosen[slot]].fiber(q) for q, chosen in selection.items()},
        ))
        for slot in range(rank)
    ]


def extract_basis(
    gens: GeneratorSet, piece: Idempotent, rank: int, strategy: str = "first_fit"
) -> list[ModuleVector]:
    """A free basis of the module restricted to a constant-rank piece.

    At every atom of the piece the pivot columns of the echelon form of the
    generator fibers select a size-`rank` subset of generator indices with
    independent fibers — taken in ascending order for first_fit, descending
    for last_fit, which yields the lexicographically first (resp. last) such
    subset.  Slot i of the basis mixes, atom by atom, the i-th smallest
    selected generator.  The result is independent on the piece and every
    generator is a combination of it there.
    """
    if piece.context != gens.context:
        raise ContextMismatchError("idempotent over a different atom set")
    if piece.is_zero:
        raise ZeroIdempotentError("basis extraction needs a nonzero piece")
    if strategy not in ("first_fit", "last_fit"):
        raise ValidationError(f"unknown strategy {strategy!r}")
    last = len(gens) - 1
    selection: dict[int, Sequence[int]] = {}
    for q in piece.atom_indices():
        columns = gens.fiber_columns(q) if gens.gens else []  # n x 0: no pivots
        if strategy == "last_fit":
            columns = [row[::-1] for row in columns]
        _, pivots = echelon(columns, gens.field)
        if len(pivots) != rank:
            raise RankMismatchError(
                f"rank {len(pivots)} at atom {gens.context.labels[q]}, expected {rank}"
            )
        selection[q] = pivots if strategy == "first_fit" else sorted(last - c for c in pivots)
    return _selected_basis(gens, selection, rank)


class PiecewiseBasis(Record):
    """Local bases over a partition: on each piece, independent and spanning."""

    partition: PartitionOfUnity
    bases: tuple[tuple[ModuleVector, ...], ...]

    def __post_init__(self):
        if len(self.bases) != len(self.partition.pieces):
            raise ValidationError("one basis per partition piece required")


def piecewise_basis(gens: GeneratorSet, strategy: str = "first_fit") -> PiecewiseBasis:
    """Passport partition together with a local basis on every piece."""
    pp = passport(gens)
    bases = tuple(
        tuple(extract_basis(gens, entry.piece, entry.rank, strategy))
        for entry in pp.entries
    )
    return PiecewiseBasis(pp.partition(), bases)


def iso_check(gens: GeneratorSet, other: GeneratorSet) -> bool:
    """Modules over one algebra are isomorphic iff their passports coincide."""
    if not gens.same_algebra(other):
        raise ContextMismatchError("presentations over different algebras")
    return passport(gens) == passport(other)


class IsoPiece(Record):
    """The isomorphism on one passport piece, in basis coordinates."""

    piece: Idempotent
    rank: int
    source_basis: tuple[ModuleVector, ...]
    target_basis: tuple[ModuleVector, ...]
    # row per source generator: its coordinates in source_basis on this piece
    gen_coords: tuple[tuple[AlgebraElement, ...], ...]


def _target_combination(
    field: Field, context: AtomSet, dim: int, pieces: Sequence[IsoPiece], coefficients: Sequence
) -> ModuleVector:
    """Sum over pieces of the target basis combined with that piece's coefficients."""
    basis = [v for pc in pieces for v in pc.target_basis]
    if not basis:
        return ModuleVector.zeros(field, context, dim)
    return combine(basis, [a for piece_coefficients in coefficients for a in piece_coefficients])


class IsoMap(Record):
    """A piecewise module isomorphism: basis-to-basis on every passport piece."""

    field: Field
    context: AtomSet
    source_ambient_dim: int
    target_ambient_dim: int
    partition: PartitionOfUnity
    pieces: tuple[IsoPiece, ...]
    generator_images: tuple[ModuleVector, ...]

    def __post_init__(self):
        sources = {v.ambient_dim for pc in self.pieces for v in pc.source_basis}
        targets = {v.ambient_dim for pc in self.pieces for v in pc.target_basis}
        targets.update(v.ambient_dim for v in self.generator_images)
        if sources - {self.source_ambient_dim} or targets - {self.target_ambient_dim}:
            raise LengthMismatchError("a basis vector or image of the wrong ambient dimension")

    def apply(self, x: ModuleVector) -> ModuleVector:
        """Image of a source-module member; piecewise change of basis."""
        if x.field != self.field or x.context != self.context:
            raise ContextMismatchError("vector over a different algebra")
        if x.ambient_dim != self.source_ambient_dim:
            raise ContextMismatchError("vector in a different ambient space")
        coefficients = []
        for pc in self.pieces:  # on a rank-0 piece only zero is a member
            local = GeneratorSet(
                self.field, self.context, self.source_ambient_dim, pc.source_basis
            )
            result = membership(x, local, pc.piece)
            if not result.contained:
                raise NotInModuleError(
                    f"not in the source module at atom {result.witness_atom}"
                )
            assert result.coefficients is not None
            coefficients.append(result.coefficients)
        return _target_combination(
            self.field, self.context, self.target_ambient_dim, self.pieces, coefficients
        )

    def render(self) -> str:
        lines = []
        for pc in self.pieces:
            lines.append(f"piece={pc.piece.render()} rank={pc.rank}")
            for slot in range(pc.rank):
                lines.append(f"  source[{slot}]={pc.source_basis[slot].render()}")
                lines.append(f"  target[{slot}]={pc.target_basis[slot].render()}")
        for k, image in enumerate(self.generator_images):
            lines.append(f"image[{k}]={image.render()}")
        return "\n".join(lines)


def build_isomorphism(gens: GeneratorSet, other: GeneratorSet) -> IsoMap:
    """Explicit isomorphism between two presentations with equal passports.

    One echelon form per atom and side gives everything: the per-atom ranks,
    which must agree and whose groups, by ascending rank, are the passport
    pieces (the partition is unique); the pivot columns, which are the
    first_fit selections of both bases; and, in row `slot` of the source's
    reduced form, every source generator's coordinate on basis slot `slot`.
    The bases are matched slot by slot, and the images of the source
    generators are assembled across pieces for independent verification.
    """
    if not gens.same_algebra(other):
        raise ContextMismatchError("presentations over different algebras")
    field, context = gens.field, gens.context
    d = len(context)
    # an n x 0 matrix has no pivots, so a side without generators builds none
    source = [echelon(gens.fiber_columns(q) if gens.gens else [], field) for q in range(d)]
    target = [echelon(other.fiber_columns(q) if other.gens else [], field)[1] for q in range(d)]
    ranks = [len(pivots) for _, pivots in source]
    if ranks != [len(pivots) for pivots in target]:
        raise PassportMismatchError("passports differ; modules are not isomorphic")
    pieces: list[IsoPiece] = []
    for rank in sorted(set(ranks)):
        atoms = [q for q in range(d) if ranks[q] == rank]
        coords = tuple(
            from_fibers(
                field, context, rank, {q: [row[k] for row in source[q][0][:rank]] for q in atoms}
            )
            for k in range(len(gens))
        )
        pieces.append(
            IsoPiece(
                Idempotent(context, context.mask_of(atoms)),
                rank,
                tuple(_selected_basis(gens, {q: source[q][1] for q in atoms}, rank)),
                tuple(_selected_basis(other, {q: target[q] for q in atoms}, rank)),
                coords,
            )
        )
    images = tuple(
        _target_combination(
            field, context, other.ambient_dim, pieces, [pc.gen_coords[k] for pc in pieces]
        )
        for k in range(len(gens))
    )
    return IsoMap(
        field,
        context,
        gens.ambient_dim,
        other.ambient_dim,
        PartitionOfUnity(tuple(pc.piece for pc in pieces)),
        tuple(pieces),
        images,
    )


class FinitelyDimensionalReport(Record):
    passport: Passport
    decomposition: str
    independence_bound: int
    faithful: bool


def finitely_dimensional_report(gens: GeneratorSet) -> FinitelyDimensionalReport:
    """Product shape of the module: one free factor per nonzero-rank piece."""
    pp = passport(gens)
    factors = []
    for entry in pp.entries:
        if entry.rank == 0:
            continue
        if entry.piece.is_full:
            factors.append(f"A^{entry.rank}")
        else:
            labels = ",".join(entry.piece.labels())
            factors.append("A_{" + labels + "}^" + str(entry.rank))
    decomposition = " × ".join(factors) if factors else "0 module"
    return FinitelyDimensionalReport(pp, decomposition, pp.max_rank, pp.faithful)
