"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
    "BidiskError",
    "ParseError",
    "DegenerateInputError",
    "NumericalError",
    "InconclusiveError",
]


class BidiskError(Exception):
    """Base class for errors raised by this package."""


class ParseError(BidiskError):
    """Expression text could not be parsed.  Carries the offending position
    when one is known; file level problems have no position."""

    def __init__(self, message: str, position: int | None = None):
        if position is None:
            super().__init__(message)
        else:
            super().__init__(f"{message} (at position {position})")
        self.position = position


class DegenerateInputError(BidiskError):
    """An operation received input outside its domain (e.g. a resultant in
    z2 of a polynomial that does not involve z2)."""


class NumericalError(BidiskError):
    """A numerical self-check failed (non-positive-definite Gram matrix,
    residual norm disagreeing with the solver's value, and similar)."""


class InconclusiveError(BidiskError):
    """The computation cannot commit to a verdict at the fixed
    tolerances.  Raised instead of guessing."""
