"""Exception hierarchy shared across the package.

``ParseError`` covers malformed textual input; ``DomainError`` covers
violated mathematical preconditions.  Every ``DomainError`` carries a stable
``code`` and a ``details`` dict naming the offending data, so the CLI can
emit machine-readable error objects.
"""


class ParseError(ValueError):
    """Malformed textual input (weight strings, rationals, flags)."""


class DomainError(ValueError):
    """A violated precondition of a library operation."""

    code = "domain-error"

    def __init__(self, message: str, **details):
        super().__init__(message)
        self.details = details

    def to_json(self) -> dict:
        return {"code": self.code, "message": str(self), "details": self.details}


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
