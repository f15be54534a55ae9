"""Exception types shared across the package, and the count check."""
from __future__ import annotations

from numbers import Integral


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ContractError(ValueError):
    """A structural precondition was violated (admissibility, closure, shape)."""


class SolveError(RuntimeError):
    """A linear solve failed or produced an untrustworthy result.

    Carries the parameter point and, when available, a condition number
    estimate so the offending configuration can be reported.
    """

    def __init__(self, message, point=None, cond=None):
        if point is not None:
            # plain floats, so a numpy array prints as (-1.0, 0.0)
            point = tuple(float(c) for c in point)
            message = f"{message} at point {point}"
        if cond is not None:
            message = f"{message} (condition estimate {cond:.3e})"
        super().__init__(message)
        self.point = point
        self.cond = cond


class SerializationError(ValueError):
    """A serialized artifact is malformed.  ``location`` points at the culprit."""

    def __init__(self, message, location=None):
        if location is not None:
            message = f"{message} (at {location})"
        super().__init__(message)
        self.location = location


class UnsupportedVersionError(SerializationError):
    """A serialized artifact declares a schema version this code cannot read."""


def _count(value, name, least=0):
    """``value`` as an int of at least ``least``.

    Booleans, floats (2.0 too) and strings are refused with a contract
    error, never truncated; numpy integers are integers.
    """
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ContractError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ContractError(f"{name} must be at least {least}, got {value}")
    return int(value)


class ConfigError(ValueError):
    """A study configuration failed validation.  Names the offending field."""

    def __init__(self, message, field=None):
        if field is not None:
            message = f"invalid field '{field}': {message}"
        super().__init__(message)
        self.field = field
