"""Finite atomic Boolean algebra of idempotents.

The algebra is the powerset of a fixed finite atom set; idempotents are
bitmasks over the atoms, so meet/join/complement are single machine-word
operations and every supremum exists trivially.  Bit i is atom i, and only
this module knows it: other modules build a mask from indices with
`AtomSet.mask_of` and read one with `Idempotent.selector`, each one linear pass.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from typing import Iterable, Iterator, Optional, Sequence

from .errors import ContextMismatchError, NotMinorantError, Record, ValidationError
from .fields import _quote

_BITS = (1, 2, 4, 8, 16, 32, 64, 128)
_SELECT = bytes.maketrans(b"01", b"\0\1")  # a binary digit to a 0 or 1 byte


class AtomSet(Record):
    """Ordered finite set of distinct atom labels; fixed for its lifetime."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) == 0:
            raise ValidationError("atom set must contain at least one atom")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("atom labels must be pairwise distinct")

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self) -> Iterator[str]:
        return iter(self.labels)

    def index(self, label: str) -> int:
        return self.labels.index(label)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    def full(self) -> "Idempotent":
        return Idempotent(self, self.full_mask)

    def empty(self) -> "Idempotent":
        return Idempotent(self, 0)

    def atom(self, label: str) -> "Idempotent":
        return Idempotent(self, 1 << self.index(label))

    def mask_of(self, indices: Iterable[int]) -> int:
        """Mask of the atoms at the given indices (any order, repeats allowed)."""
        packed = bytearray((len(self.labels) + 7) // 8)
        for q in indices:
            packed[q >> 3] |= _BITS[q & 7]
        return int.from_bytes(packed, "little")

    def subset(self, labels: Iterable[str]) -> "Idempotent":
        index = {label: i for i, label in enumerate(self.labels)}
        try:
            return Idempotent(self, self.mask_of([index[label] for label in labels]))
        except KeyError as exc:
            raise ValueError(f"unknown atom label {_quote(exc.args[0])}") from None

    def atoms(self) -> tuple["Idempotent", ...]:
        return tuple(Idempotent(self, 1 << i) for i in range(len(self.labels)))


class Idempotent(Record):
    """A subset of the atom set, i.e. one idempotent of the algebra."""

    context: AtomSet
    mask: int

    def __post_init__(self):
        if not isinstance(self.mask, int):
            raise ValidationError(f"mask must be an int, not {type(self.mask).__name__}")
        if self.mask < 0 or self.mask.bit_length() > len(self.context):
            raise ValidationError(f"mask {_quote(self.mask)} outside atom set of size {len(self.context)}")

    def _require_same_context(self, other: "Idempotent") -> None:
        if self.context != other.context:
            raise ContextMismatchError("idempotents over different atom sets")

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    @property
    def is_full(self) -> bool:
        return self.mask == self.context.full_mask

    @property
    def count(self) -> int:
        return self.mask.bit_count()

    def selector(self) -> bytes:
        """One byte per atom, 1 where the atom is in the idempotent and 0 elsewhere."""
        return format(self.mask, f"0{len(self.context)}b")[::-1].encode().translate(_SELECT)

    def atom_indices(self) -> tuple[int, ...]:
        return tuple(compress(range(len(self.context)), self.selector()))

    def labels(self) -> tuple[str, ...]:
        return tuple(compress(self.context.labels, self.selector()))

    def contains_atom(self, index: int) -> bool:
        return bool(self.mask >> index & 1)

    def first_atom_index(self) -> int:
        """Index of the smallest atom, or len(context) for the zero idempotent."""
        if self.mask == 0:
            return len(self.context)
        return (self.mask & -self.mask).bit_length() - 1

    def leq(self, other: "Idempotent") -> bool:
        self._require_same_context(other)
        return self.mask & other.mask == self.mask

    def meet(self, other: "Idempotent") -> "Idempotent":
        self._require_same_context(other)
        return Idempotent(self.context, self.mask & other.mask)

    def join(self, other: "Idempotent") -> "Idempotent":
        self._require_same_context(other)
        return Idempotent(self.context, self.mask | other.mask)

    def complement(self) -> "Idempotent":
        return Idempotent(self.context, self.mask ^ self.context.full_mask)

    def difference(self, other: "Idempotent") -> "Idempotent":
        self._require_same_context(other)
        return Idempotent(self.context, self.mask & ~other.mask)

    __and__ = meet
    __or__ = join
    __sub__ = difference

    def __invert__(self) -> "Idempotent":
        return self.complement()

    def render(self) -> str:
        return "{" + ",".join(self.labels()) + "}"

    def __str__(self) -> str:
        return self.render()


def sup_family(es: Iterable[Idempotent], context: Optional[AtomSet] = None) -> Idempotent:
    """Supremum of a family; the empty supremum needs an explicit context."""
    es = list(es)
    if context is None:
        if not es:
            raise ValueError("empty family needs an explicit atom set")
        context = es[0].context
    return reduce(Idempotent.join, es, context.empty())


class PartitionOfUnity(Record):
    """Pairwise disjoint nonzero idempotents whose join is the full atom set."""

    pieces: tuple[Idempotent, ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValidationError("a partition of unity has at least one piece")
        ctx = self.pieces[0].context
        seen = 0
        for piece in self.pieces:
            if piece.context != ctx:
                raise ContextMismatchError("partition pieces over different atom sets")
            if piece.is_zero:
                raise ValidationError("partition pieces must be nonzero")
            if seen & piece.mask:
                raise ValidationError("partition pieces must be pairwise disjoint")
            seen |= piece.mask
        if seen != ctx.full_mask:
            raise ValidationError("partition pieces must cover the whole atom set")

    @property
    def context(self) -> AtomSet:
        return self.pieces[0].context

    def __len__(self) -> int:
        return len(self.pieces)

    def __iter__(self) -> Iterator[Idempotent]:
        return iter(self.pieces)

    def piece_of(self, atom_index: int) -> int:
        """Position of the piece containing the given atom."""
        for k, piece in enumerate(self.pieces):
            if piece.contains_atom(atom_index):
                return k
        raise ValueError(f"atom index {atom_index} not covered")

    def refine(self, other: "PartitionOfUnity") -> "PartitionOfUnity":
        """Common refinement: all nonzero pairwise meets, in pair order."""
        if self.context != other.context:
            raise ContextMismatchError("partitions over different atom sets")
        return PartitionOfUnity(tuple(g for e in self.pieces for g in restrict_partition(e, other)))

    @staticmethod
    def atoms(context: AtomSet) -> "PartitionOfUnity":
        return PartitionOfUnity(context.atoms())


def restrict_partition(e: Idempotent, p: PartitionOfUnity) -> tuple[Idempotent, ...]:
    """Nonzero meets of e with the pieces of p: a partition of e."""
    out = []
    for piece in p.pieces:
        g = e.meet(piece)
        if not g.is_zero:
            out.append(g)
    return tuple(out)


def disjointify(e: Idempotent, candidates: Sequence[Idempotent]) -> list[Idempotent]:
    """Exhaust e by a pairwise disjoint selection from the candidate list.

    Greedy first-fit in list order: repeatedly take the first candidate that
    still fits under the residual, remove it from the residual, and continue
    until nothing is left.  Succeeds exactly when the candidates minorize
    every nonzero idempotent below e that the loop can reach; otherwise the
    loop stalls and NotMinorantError reports the stuck residual.
    """
    for b in candidates:
        if b.context != e.context:
            raise ContextMismatchError("candidates over a different atom set")
    out: list[Idempotent] = []
    residual = e
    while not residual.is_zero:
        for b in candidates:
            if not b.is_zero and b.leq(residual):
                out.append(b)
                residual = residual.difference(b)
                break
        else:
            raise NotMinorantError(
                f"no candidate below residual {residual.render()}"
            )
    return out
