"""Exception types shared across the package, and the readers of numbers
from outside.

Every number a caller or a config file supplies is read by one of two
checks: ``_count`` for counts, which must be integers, and ``_number``
for every other real.  Both refuse booleans, strings and non-finite
values with a contract error, a ``ValueError``, instead of coercing them.
"""
from __future__ import annotations

import math
import operator
from numbers import Integral, Real


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


def _number(value, name, integral=False, ge=None, gt=None, lt=None):
    """``value`` as a finite float, or as an int when ``integral``.

    A real number is required, numpy scalars included, never a boolean
    or a string; an int too large for a float counts as non-finite.
    With ``integral``, 9.0 reads as 9 and an int is returned exactly.
    The value must satisfy the bounds ``ge``, ``gt`` and ``lt``.
    """
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ContractError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ContractError(f"{name} must be a finite number, got {value!r}")
    if integral:
        if not number.is_integer():
            raise ContractError(f"{name} must be an integer, got {value!r}")
        number = int(value) if isinstance(value, Integral) else int(number)
    for holds, op, bound in ((operator.ge, ">=", ge), (operator.gt, ">", gt),
                             (operator.lt, "<", lt)):
        if bound is not None and not holds(number, bound):
            raise ContractError(f"{name} must be {op} {bound}, got {value!r}")
    return number


class ConfigError(ValueError):
    """A study configuration failed validation.  Names the offending field."""

    def __init__(self, message, field=None):
        if field is not None:
            message = f"invalid field '{field}': {message}"
        super().__init__(message)
        self.field = field
