"""Exception hierarchy shared by all regmod modules."""

from __future__ import annotations


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
