"""Exception hierarchy and frozen record base shared by all regmod modules."""

from __future__ import annotations

from operator import attrgetter


class RegmodError(Exception):
    """Base class for all errors raised by this package."""


class ContextMismatchError(RegmodError):
    """Operands live over different atom sets or different fields."""


class LengthMismatchError(RegmodError):
    """A list of values does not line up with a partition or dimension."""


class NotMinorantError(RegmodError):
    """The candidate set cannot exhaust the target idempotent."""


class ZeroIdempotentError(RegmodError):
    """The operation requires a nonzero idempotent."""


class NotFaithfulError(RegmodError):
    """The presented module vanishes on part of the algebra."""

    def __init__(self, dead_atoms: tuple[str, ...]):
        self.dead_atoms = dead_atoms
        super().__init__(f"module vanishes on atoms {{{','.join(dead_atoms)}}}")


class RankMismatchError(RegmodError):
    """Local ranks are not the constant the operation requires."""


class PassportMismatchError(RegmodError):
    """Two modules with different passports cannot be matched up."""


class NotInModuleError(RegmodError):
    """A vector is outside the module an operation must stay inside."""


class ParseError(RegmodError):
    """A module file is not syntactically well formed."""


class ValidationError(RegmodError):
    """A module file parses but violates a structural constraint."""

    index: int | None = None  # set by a row method (parse_row, check_all): first bad position


class _RecordType(type):
    # one compiled __init__ per class: a loop over the fields costs ~0.4 µs more per construction
    def __new__(mcls, name, bases, namespace):
        annotations = namespace.get("__annotations__", {})
        fields = namespace["__slots__"] = tuple(annotations)
        namespace["_values"] = attrgetter(*fields) if fields else staticmethod(lambda record: ())
        # postponed annotations are strings: each tuple field's annotation starts "tuple["
        tuples = {f: f"{f} if isinstance({f}, tuple) else tuple({f})" for f in fields
                  if annotations[f].startswith("tuple[")}
        sets = "".join(f"_set(self, {field!r}, {tuples.get(field, field)}); " for field in fields)
        post = "self.__post_init__()" if "__post_init__" in namespace else "pass"
        init = f"def __init__(self, {', '.join(fields)}): {sets}{post}"
        exec(init, {"_set": object.__setattr__}, namespace)
        return super().__new__(mcls, name, bases, namespace)


class Record(metaclass=_RecordType):
    """Frozen value record: its annotated names are its fields and __slots__.

    __init__ takes the fields by position or keyword, stores any iterable
    given for a tuple[...] field as a tuple, then runs the class's own
    __post_init__, if any.  Equality and hash go by the field values.
    The classmethod _raw takes the same fields by position, already in their
    stored form (tuples as tuples), and sets them unchecked: it is for
    callers that have validated every field themselves.
    """

    @classmethod
    def _raw(cls, *values):
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self is other or self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, so __post_init__ runs
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is frozen: cannot set or delete {name!r}")

    __delattr__ = __setattr__
