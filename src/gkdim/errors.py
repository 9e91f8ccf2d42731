"""Exception hierarchy shared across the package.

``ParseError`` covers malformed textual input; ``DomainError`` covers
violated mathematical preconditions; ``InvariantError`` covers an internal
cross-check that failed, which no input should cause.  Every ``DomainError``
and ``InvariantError`` carries a stable ``code`` and a ``details`` dict naming
the offending data, so the CLI can emit machine-readable error objects.

`_integers` is the one check of integer input: the integer fields of the
value types, the z-series bounds and every index argument go through it.
"""

from operator import index


def _integers(values, message: str) -> tuple[int, ...]:
    """values as ints, through ``operator.index``; any other value raises
    ``ValueError(message)``, and a non-iterable ``TypeError``."""
    entries = map(index, values)  # a non-iterable raises TypeError here
    try:
        return tuple(entries)
    except TypeError:
        raise ValueError(message) from None


class ParseError(ValueError):
    """Malformed textual input (weight strings, rationals, flags)."""


class _CodedError(Exception):
    """A message with a stable ``code`` and the ``details`` behind it."""

    code: str

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details

    def to_json(self) -> dict:
        return {"code": self.code, "message": str(self), "details": self.details}


class DomainError(_CodedError, ValueError):
    """A violated precondition of a library operation."""

    code = "domain-error"


class LengthMismatchError(DomainError):
    """Weight length does not match the (p, q) context."""

    code = "length-mismatch"


class NotIntegralError(DomainError):
    """Operation requires an integral weight."""

    code = "not-integral"


class NotPQDominantError(DomainError):
    """Operation requires a (p, q)-dominant weight."""

    code = "not-pq-dominant"


class RankBoundError(DomainError):
    """Hecke oracle invoked beyond its configured rank bound."""

    code = "rank-bound-exceeded"


class ZRangeBoundError(DomainError):
    """z-series asked for more points than its configured bound."""

    code = "z-range-bound-exceeded"


class OutsideUnitaryIntervalError(DomainError):
    """z is outside the unitary interval, where no closed form is asserted."""

    code = "outside-unitary-interval"


class InvariantError(_CodedError, RuntimeError):
    """Two computations that must agree did not; ``details`` holds the input
    and both values."""

    code = "invariant-violated"
