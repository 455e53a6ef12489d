"""Exception types shared across the toolkit."""

from __future__ import annotations


class FolError(Exception):
    """Base class for all toolkit errors."""


class ArityMismatch(FolError):
    """Two polynomials with different variable sets were combined."""


class ParseError(FolError):
    """Syntax error in a polynomial or system document."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message if line is None else f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class PreconditionError(FolError):
    """An operation was called outside its stated domain."""


class DegenerateInput(FolError):
    """Input is structurally degenerate (zero field, non-reduced form, ...)."""


class NonIsolatedSingularities(FolError):
    """The two field components share a polynomial factor; reduce the field first."""


class UnsupportedBranch(FolError):
    """Local branch structure outside the smooth/nodal cases handled here."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class UncertifiedResult(FolError):
    """A truncated computation could not certify its answer."""


class RootSearchOverflow(FolError):
    """Exact root extraction hit an internal size cap; result would be unsound."""
