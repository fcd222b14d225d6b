"""The laterally complete commutative regular algebra of K-valued atom functions.

Elements are dense tuples of field scalars aligned with the atom order.  All
operations are pointwise and exact; the inversion of an element inverts it
where it is nonzero and vanishes elsewhere, which makes it total and gives
every element the regularity witness a*a*i(a) == a.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Mapping, Sequence

from .boolean_core import AtomSet, Idempotent, PartitionOfUnity
from .errors import ContextMismatchError, LengthMismatchError, Record, ValidationError
from .fields import Field, Scalar


class AlgebraElement(Record):
    """A K-valued function on the atoms, in canonical scalar form."""

    field: Field
    context: AtomSet
    values: tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.values) != len(self.context):
            raise LengthMismatchError(
                f"{len(self.values)} values for {len(self.context)} atoms"
            )
        self.field.check_all(self.values)

    @classmethod
    def zeros(cls, field: Field, context: AtomSet) -> "AlgebraElement":
        return cls(field, context, (field.zero,) * len(context))

    @classmethod
    def constant(cls, field: Field, context: AtomSet, value: Scalar) -> "AlgebraElement":
        return cls(field, context, (value,) * len(context))

    @classmethod
    def one(cls, field: Field, context: AtomSet) -> "AlgebraElement":
        return cls.constant(field, context, field.one)

    @classmethod
    def from_values(cls, field: Field, context: AtomSet, values: Iterable) -> "AlgebraElement":
        """Build from arbitrary raw values, coercing each into canonical form."""
        return cls(field, context, tuple(field.coerce(v) for v in values))

    @classmethod
    def from_idempotent(cls, field: Field, e: Idempotent) -> "AlgebraElement":
        """The characteristic element of e: one on its atoms, zero elsewhere."""
        return cls.one(field, e.context).restrict(e)

    def _require_same_context(self, other: "AlgebraElement") -> None:
        if self.field != other.field or self.context != other.context:
            raise ContextMismatchError("elements over different algebras")

    def _pointwise(self, op: Callable, *others: "AlgebraElement") -> "AlgebraElement":
        """The element op(a, b, ...) at each atom, a from self and b, ... from the others."""
        for other in others:
            self._require_same_context(other)
        values = tuple(map(op, self.values, *(other.values for other in others)))
        return AlgebraElement(self.field, self.context, values)

    @property
    def is_zero(self) -> bool:
        zero = self.field.zero
        return all(v == zero for v in self.values)

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._pointwise(self.field.add, other)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._pointwise(self.field.sub, other)

    def __mul__(self, other: "AlgebraElement") -> "AlgebraElement":
        return self._pointwise(self.field.mul, other)

    def __neg__(self) -> "AlgebraElement":
        return self._pointwise(self.field.neg)

    def scale(self, scalar: Scalar) -> "AlgebraElement":
        self.field.check(scalar)
        return self._pointwise(partial(self.field.mul, scalar))

    def inversion(self) -> "AlgebraElement":
        """Pointwise inverse on the support, zero off it; an involution."""
        f = self.field
        zero = f.zero
        return AlgebraElement(
            f, self.context, tuple(zero if v == zero else f.inv(v) for v in self.values)
        )

    def support(self) -> Idempotent:
        zero = self.field.zero
        atoms = [i for i, v in enumerate(self.values) if v != zero]
        return Idempotent(self.context, self.context.mask_of(atoms))

    def annihilator(self) -> Idempotent:
        """Largest idempotent killing the element; complement of the support."""
        return self.support().complement()

    def restrict(self, e: Idempotent) -> "AlgebraElement":
        if e.context != self.context:
            raise ContextMismatchError("idempotent over a different atom set")
        zero = self.field.zero
        return AlgebraElement(
            self.field,
            self.context,
            tuple(v if keep else zero for v, keep in zip(self.values, e.selector())),
        )

    def step_form(self) -> "StepForm":
        """Group atoms carrying equal nonzero values into disjoint pieces.

        Terms are ordered by the first atom index of their piece (the order of
        `by_value`), which makes the representation canonical.
        """
        zero = self.field.zero
        by_value: dict[Scalar, list[int]] = {}
        for i, v in enumerate(self.values):
            if v != zero:
                by_value.setdefault(v, []).append(i)
        return StepForm(tuple(StepTerm(value, Idempotent(self.context, self.context.mask_of(atoms)))
                              for value, atoms in by_value.items()))

    def render(self) -> str:
        return "(" + ",".join(self.field.render(v) for v in self.values) + ")"

    def __str__(self) -> str:
        return self.render()


class StepTerm(Record):
    value: Scalar
    piece: Idempotent


class StepForm(Record):
    """A finite sum of scalar multiples of pairwise disjoint idempotents."""

    terms: tuple[StepTerm, ...]

    def __post_init__(self):
        seen_values = set()
        seen_mask = 0
        for term in self.terms:
            if term.piece.is_zero:
                raise ValidationError("step pieces must be nonzero")
            if term.value == 0:
                raise ValidationError("step values must be nonzero")
            if term.value in seen_values:
                raise ValidationError("step values must be pairwise distinct")
            if seen_mask & term.piece.mask:
                raise ValidationError("step pieces must be pairwise disjoint")
            seen_values.add(term.value)
            seen_mask |= term.piece.mask

    def to_element(self, field: Field, context: AtomSet) -> AlgebraElement:
        if any(term.piece.context != context for term in self.terms):
            raise ContextMismatchError("step piece over a different atom set")
        fibers = {q: (term.value,) for term in self.terms for q in term.piece.atom_indices()}
        return from_fibers(field, context, 1, fibers)[0]


def from_fibers(
    field: Field, context: AtomSet, width: int, fibers: Mapping[int, Sequence[Scalar]]
) -> tuple[AlgebraElement, ...]:
    """`width` elements whose values at atom q are fibers[q], zero at atoms not in `fibers`.

    The inverse of ModuleVector.fiber: per-atom answers glued into elements.
    """
    columns = [[field.zero] * len(context) for _ in range(width)]
    for q, fiber in fibers.items():
        if len(fiber) != width:
            raise LengthMismatchError(f"fiber of {len(fiber)} values at atom {q}, expected {width}")
        for column, v in zip(columns, fiber):
            column[q] = v
    return tuple(AlgebraElement(field, context, tuple(column)) for column in columns)


def mix_scalars(p: PartitionOfUnity, elements: Sequence[AlgebraElement]) -> AlgebraElement:
    """The unique element agreeing with elements[i] on the i-th piece."""
    if len(elements) != len(p.pieces):
        raise LengthMismatchError(
            f"{len(elements)} elements for {len(p.pieces)} partition pieces"
        )
    first = elements[0]
    for a in elements:
        first._require_same_context(a)
    if p.context != first.context:
        raise ContextMismatchError("partition over a different atom set")
    fibers = {
        q: (a.values[q],) for piece, a in zip(p.pieces, elements) for q in piece.atom_indices()
    }
    return from_fibers(first.field, first.context, 1, fibers)[0]
