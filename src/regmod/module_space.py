"""Vectors over the algebra and finitely presented submodules of its powers.

A module is presented by finitely many generator vectors; the presented
module is the set of all mixings of algebra-linear combinations of the
generators.  Because the atom set is finite, every question about such a
module splits into one ordinary K-linear-algebra question per atom, and the
answers are reassembled by mixing over partitions of the atom set.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .boolean_core import AtomSet, Idempotent, PartitionOfUnity
from .errors import (
    ContextMismatchError,
    LengthMismatchError,
    NotFaithfulError,
    Record,
    ValidationError,
    ZeroIdempotentError,
)
from .fields import Field, Scalar, _quote
from .regular_algebra import AlgebraElement, from_fibers, mix_scalars


class ModuleVector(Record):
    """An n-tuple of algebra elements over one shared (field, atom set)."""

    coords: tuple[AlgebraElement, ...]

    def __post_init__(self):
        if not self.coords:
            raise LengthMismatchError("a module vector needs at least one coordinate")
        first = self.coords[0]
        for c in self.coords[1:]:
            if c.field != first.field or c.context != first.context:
                raise ContextMismatchError("coordinates over different algebras")

    @property
    def field(self) -> Field:
        return self.coords[0].field

    @property
    def context(self) -> AtomSet:
        return self.coords[0].context

    @property
    def ambient_dim(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.coords)

    @classmethod
    def zeros(cls, field: Field, context: AtomSet, ambient_dim: int) -> "ModuleVector":
        return cls((AlgebraElement.zeros(field, context),) * ambient_dim)

    @classmethod
    def unit(cls, field: Field, context: AtomSet, ambient_dim: int, position: int) -> "ModuleVector":
        """Standard basis vector: one at the given coordinate, zero elsewhere."""
        if position not in range(ambient_dim):
            raise LengthMismatchError(f"no coordinate {_quote(position)} in dimension {ambient_dim}")
        one = AlgebraElement.one(field, context)
        zero = AlgebraElement.zeros(field, context)
        return cls(tuple(one if c == position else zero for c in range(ambient_dim)))

    @classmethod
    def from_grid(cls, field: Field, context: AtomSet, grid: Sequence[Sequence]) -> "ModuleVector":
        """Build from raw per-coordinate value rows (coordinate-major)."""
        return cls(tuple(AlgebraElement.from_values(field, context, row) for row in grid))

    def _require_same_space(self, other: "ModuleVector") -> None:
        if (
            self.field != other.field
            or self.context != other.context
            or self.ambient_dim != other.ambient_dim
        ):
            raise ContextMismatchError("vectors in different module spaces")

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        self._require_same_space(other)
        return ModuleVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        self._require_same_space(other)
        return ModuleVector(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def scale(self, a: AlgebraElement) -> "ModuleVector":
        return ModuleVector(tuple(a * c for c in self.coords))

    def restrict(self, e: Idempotent) -> "ModuleVector":
        return ModuleVector(tuple(c.restrict(e) for c in self.coords))

    def support(self) -> Idempotent:
        mask = 0
        for c in self.coords:
            mask |= c.support().mask
        return Idempotent(self.context, mask)

    def fiber(self, atom_index: int) -> tuple[Scalar, ...]:
        """The K^n value of the vector at one atom."""
        return tuple(c.values[atom_index] for c in self.coords)

    def render(self) -> str:
        return "[" + "; ".join(",".join(c.field.render(v) for v in c.values) for c in self.coords) + "]"

    def __str__(self) -> str:
        return self.render()


class GeneratorSet(Record):
    """A finite presentation: the module of all mixings of combinations of gens."""

    field: Field
    context: AtomSet
    ambient_dim: int
    gens: tuple[ModuleVector, ...]

    def __post_init__(self):
        if type(self.ambient_dim) is not int:  # no bool, float or Fraction
            raise ValidationError(f"ambient dimension {_quote(self.ambient_dim)} is not an int")
        if self.ambient_dim < 1:
            raise LengthMismatchError("ambient dimension must be at least 1")
        for g in self.gens:
            if g.field != self.field or g.context != self.context:
                raise ContextMismatchError("generator over a different algebra")
            if g.ambient_dim != self.ambient_dim:
                raise LengthMismatchError("generator with wrong ambient dimension")

    @classmethod
    def from_grids(
        cls, field: Field, context: AtomSet, ambient_dim: int, grids: Sequence[Sequence[Sequence]]
    ) -> "GeneratorSet":
        gens = tuple(ModuleVector.from_grid(field, context, grid) for grid in grids)
        return cls(field, context, ambient_dim, gens)

    def __len__(self) -> int:
        return len(self.gens)

    def fiber_matrix(self, atom_index: int) -> list[list[Scalar]]:
        """Generator fibers at one atom, as rows of an m x n matrix over K."""
        return [list(g.fiber(atom_index)) for g in self.gens]

    def fiber_columns(self, atom_index: int) -> list[list[Scalar]]:
        """Generator fibers at one atom, as columns of an n x m matrix over K."""
        return [
            [g.coords[c].values[atom_index] for g in self.gens] for c in range(self.ambient_dim)
        ]

    def same_algebra(self, other: "GeneratorSet") -> bool:
        return self.field == other.field and self.context == other.context


# ---------------------------------------------------------------------------
# Per-atom exact linear algebra: every question is read off one reduced row
# echelon form.  Partial pivoting picks the first row with a nonzero entry;
# exact arithmetic needs nothing smarter and the fixed rule keeps results
# deterministic.


def echelon(rows: list[list[Scalar]], field: Field) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form of a matrix over K, and its pivot columns.

    Row r < len(pivots) has a one in column pivots[r] and zeros in every
    other pivot column; the rows below are zero.  The pivot columns are the
    greedy left-to-right choice of columns independent of those before.
    """
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    zero = field.zero
    pivots: list[int] = []
    for col in range(n):
        row = len(pivots)
        if row == m:
            break
        pivot = next((r for r in range(row, m) if a[r][col] != zero), None)
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = field.inv(a[row][col])
        a[row] = [field.mul(inv, v) for v in a[row]]
        for r in range(m):
            if r != row and a[r][col] != zero:
                factor = a[r][col]
                a[r] = [field.sub(v, field.mul(factor, w)) for v, w in zip(a[r], a[row])]
        pivots.append(col)
    return a, pivots


def solve_linear(rows: list[list[Scalar]], rhs: list[Scalar], field: Field) -> Optional[list[Scalar]]:
    """One solution of rows . x = rhs (free variables zero), or None."""
    n = len(rows[0]) if rows else 0
    reduced, pivots = echelon([list(r) + [b] for r, b in zip(rows, rhs)], field)
    if pivots and pivots[-1] == n:
        return None
    x = [field.zero] * n
    for r, c in enumerate(pivots):
        x[c] = reduced[r][n]
    return x


def kernel_sample(rows: list[list[Scalar]], field: Field) -> Optional[list[Scalar]]:
    """A nonzero x with rows . x = 0, or None when the kernel is trivial."""
    n = len(rows[0]) if rows else 0
    reduced, pivots = echelon(rows, field)
    free = next((c for c in range(n) if c not in pivots), None)
    if free is None:
        return None
    x = [field.zero] * n
    x[free] = field.one
    for r, c in enumerate(pivots):
        x[c] = field.neg(reduced[r][free])
    return x


def fiber_rank(rows: list[list[Scalar]], field: Field) -> int:
    """Rank of a small matrix over K."""
    return len(echelon(rows, field)[1])


# ---------------------------------------------------------------------------
# Module operations.


def mix_vectors(p: PartitionOfUnity, xs: Sequence[ModuleVector]) -> ModuleVector:
    """The unique vector agreeing with xs[i] on the i-th partition piece."""
    if len(xs) != len(p.pieces):
        raise LengthMismatchError(f"{len(xs)} vectors for {len(p.pieces)} partition pieces")
    for x in xs:
        xs[0]._require_same_space(x)
    return ModuleVector(tuple(mix_scalars(p, column) for column in zip(*(x.coords for x in xs))))


def combine(gens: Sequence[ModuleVector], coefficients: Sequence[AlgebraElement]) -> ModuleVector:
    """The algebra-linear combination sum(coefficients[k] * gens[k]).

    Each coordinate is one call of the field's combine_rows, whose scalars
    are canonical, so the elements are built without a second check.
    """
    if len(gens) != len(coefficients):
        raise LengthMismatchError("one coefficient per generator required")
    if not gens:
        raise LengthMismatchError("cannot combine an empty family without a target space")
    for g, a in zip(gens, coefficients):
        a._require_same_context(g.coords[0])
        gens[0]._require_same_space(g)
    field, context = gens[0].field, gens[0].context
    rows = [a.values for a in coefficients]
    columns = ([g.coords[c].values for g in gens] for c in range(gens[0].ambient_dim))
    return ModuleVector._raw(tuple(
        AlgebraElement._raw(field, context, tuple(field.combine_rows(rows, column)))
        for column in columns
    ))


class MembershipResult(Record):
    contained: bool
    coefficients: Optional[tuple[AlgebraElement, ...]]
    witness_atom: Optional[str]

    def __bool__(self) -> bool:
        return self.contained


def membership(x: ModuleVector, gens: GeneratorSet, e: Idempotent) -> MembershipResult:
    """Decide whether x agrees on e with a member of the presented module.

    Atom by atom inside e the fiber of x must be a K-combination of the
    generator fibers; the per-atom solutions are assembled into coefficient
    elements that reproduce x on e (and vanish off it).
    """
    if gens.field != x.field or gens.context != x.context or gens.ambient_dim != x.ambient_dim:
        raise ContextMismatchError("vector and presentation in different spaces")
    if e.context != x.context:
        raise ContextMismatchError("idempotent over a different atom set")
    solutions = {}
    for q in e.atom_indices():
        # unknowns: one coefficient per generator; equations: one per coordinate
        solutions[q] = solve_linear(gens.fiber_columns(q), list(x.fiber(q)), x.field)
        if solutions[q] is None:
            return MembershipResult(False, None, x.context.labels[q])
    return MembershipResult(True, from_fibers(x.field, x.context, len(gens), solutions), None)


class IndependenceResult(Record):
    independent: bool
    witness_atom: Optional[str]
    relation: Optional[tuple[Scalar, ...]]

    def __bool__(self) -> bool:
        return self.independent


def independence_test(gens: GeneratorSet, e: Idempotent) -> IndependenceResult:
    """Test algebra-linear independence of the generators restricted to e.

    Over an atomic algebra this holds exactly when the generator fibers are
    K-linearly independent at every atom of e.  A failure is reported with
    the first bad atom and a nontrivial K-relation among the fibers there;
    multiplying the relation by that atom's idempotent lifts it to a
    nontrivial algebra-linear relation.
    """
    if e.context != gens.context:
        raise ContextMismatchError("idempotent over a different atom set")
    if e.is_zero:
        raise ZeroIdempotentError("independence is tested on a nonzero idempotent")
    if not gens.gens:  # the empty family; its n x 0 fiber matrices need not be built
        return IndependenceResult(True, None, None)
    for q in e.atom_indices():
        relation = kernel_sample(gens.fiber_columns(q), gens.field)
        if relation is not None:
            return IndependenceResult(False, gens.context.labels[q], tuple(relation))
    return IndependenceResult(True, None, None)


def full_support_element(gens: GeneratorSet) -> ModuleVector:
    """A member of the module whose support is the whole atom set.

    Each atom is assigned to the first generator that is nonzero there, and
    the element takes that generator's fiber at the atom: a mixing of the
    generators, nonzero at every atom.  Atoms where every generator vanishes
    make the presentation unfaithful and are reported as a failure.
    """
    context = gens.context
    choice: list[Optional[int]] = [None] * len(context)
    for k, g in enumerate(gens.gens):
        for q in g.support().atom_indices():
            if choice[q] is None:
                choice[q] = k
    dead = tuple(context.labels[q] for q in range(len(context)) if choice[q] is None)
    if dead:
        raise NotFaithfulError(dead)
    fibers = {q: gens.gens[k].fiber(q) for q, k in enumerate(choice)}
    return ModuleVector(from_fibers(gens.field, context, gens.ambient_dim, fibers))


def split_product(x: ModuleVector, p: PartitionOfUnity) -> list[ModuleVector]:
    """Localize x to every partition piece; mix_vectors glues them back."""
    if p.context != x.context:
        raise ContextMismatchError("partition over a different atom set")
    return [x.restrict(piece) for piece in p.pieces]
