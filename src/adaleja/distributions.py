"""Bounded input laws: densities, sampling and canonical transforms.

Two families are supported, a symmetric quartic-kernel beta shape and the
uniform law, both on an arbitrary bounded interval.  Every law can be
rescaled to the canonical interval [-1, 1], which is where node sequences
and polynomial bases live; the affine transform pair ``to_canonical`` /
``from_canonical`` moves points between the two frames.  Centred on
[-1, 1], the beta CDF is an odd increasing self-map, so it is a
:class:`~adaleja.maps.ConformalMap` and samples through that ``inverse``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _count, _number
from .maps import _EDGE_SLACK, ConformalMap, _check_unit

BETA33 = "beta33"
UNIFORM = "uniform"

_KINDS = (BETA33, UNIFORM)


class _Beta33Cdf(ConformalMap):
    """2F((y+1)/2) - 1 for the beta33 CDF F on [0, 1]: a self-map of [-1, 1]."""

    def _raw(self, y):
        s = y * y
        return y * (35.0 + s * (-35.0 + s * (21.0 - 5.0 * s))) / 16.0

    def _raw_derivative(self, y):
        return 35.0 / 16.0 * (1.0 - y * y) ** 3

    def spec(self):     # keys the cached start table
        return {"map": "beta33-cdf"}


_BETA33_CDF = _Beta33Cdf()


def _points(y):
    y = np.asarray(y, dtype=float)
    if np.isnan(y).any():
        raise DomainError("point is NaN")
    return y


@dataclass(frozen=True)
class Distribution:
    """Univariate law with bounded support ``[lower, upper]``.

    ``kind`` selects the family: ``"beta33"`` is the symmetric beta shape
    with density 140 (y-l)^3 (u-y)^3 / (u-l)^7, ``"uniform"`` is flat.
    """

    kind: str
    lower: float
    upper: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown distribution kind {self.kind!r}")
        for bound in ("lower", "upper"):    # so that 2 y - lower - upper cannot overflow
            object.__setattr__(self, bound, _number(getattr(self, bound), bound,
                                                    gt=-2.0 ** 1020, lt=2.0 ** 1020))
        if not self.upper > self.lower:
            raise ValueError("upper bound must exceed lower bound")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def pdf(self, y):
        """Probability density at ``y`` (scalar or array), zero off support."""
        y = _points(y)
        if self.kind == UNIFORM:
            out = np.where((y >= self.lower) & (y <= self.upper),
                           1.0 / self.width, 0.0)
        else:
            a = y - self.lower
            b = self.upper - y
            inside = (a >= 0.0) & (b >= 0.0)
            a = np.where(inside, 2.0 * a / self.width, 0.0)
            b = np.where(inside, 2.0 * b / self.width, 0.0)
            out = 140.0 * a ** 3 * b ** 3 / 64.0 / self.width    # a, b in canonical units
        return out if out.ndim else float(out)

    def cdf(self, y):
        """Cumulative distribution at ``y`` (scalar or array)."""
        out = np.clip((_points(y) - self.lower) / self.width, 0.0, 1.0)
        if self.kind == BETA33:
            out = 0.5 * (_BETA33_CDF._raw(2.0 * out - 1.0) + 1.0)
        return out if out.ndim else float(out)

    def sample(self, n, seed):
        """Draw ``n`` independent variates using a seeded generator.

        Sampling is by inverse transform.  For the beta shape the centred
        CDF is inverted by :meth:`ConformalMap.inverse`, which stops each point
        at its own residual, at most 1e-14, so a draw does not depend on ``n``.
        """
        t = np.random.default_rng(seed).random(_count(n, "sample count"))
        if self.kind == BETA33:
            t = 0.5 * (_BETA33_CDF.inverse(2.0 * t - 1.0) + 1.0)
        return self.lower + self.width * t

    def to_canonical(self, y):
        """Affine transform of points in the support onto [-1, 1]."""
        y = np.asarray(y, dtype=float)
        slack = _EDGE_SLACK * max(1.0, abs(self.lower), abs(self.upper))
        if not np.all((y >= self.lower - slack) & (y <= self.upper + slack)):
            raise DomainError(
                f"point outside support [{self.lower}, {self.upper}]")
        t = np.clip((2.0 * y - self.lower - self.upper) / self.width, -1.0, 1.0)
        return t if t.ndim else float(t)

    def from_canonical(self, t):
        """Inverse of :meth:`to_canonical`."""
        t = _check_unit(t, "canonical point")
        y = self.lower + 0.5 * (t + 1.0) * self.width
        return y if y.ndim else float(y)

    def canonical(self) -> "Distribution":
        """The same shape rescaled to support [-1, 1]."""
        return Distribution(self.kind, -1.0, 1.0)

    def spec(self) -> dict:
        """JSON-ready description, inverse of :func:`make_distribution`."""
        return {"kind": self.kind, "lower": self.lower, "upper": self.upper}


def make_distribution(spec) -> Distribution:
    """Build a distribution from its JSON description."""
    if isinstance(spec, Distribution):
        return spec
    if not isinstance(spec, dict):
        raise ValueError(f"distribution spec must be a dict, got {type(spec).__name__}")
    missing = {"kind", "lower", "upper"}.difference(spec)
    if missing:
        raise ValueError(f"distribution spec is missing {sorted(missing)}")
    return Distribution(str(spec["kind"]), spec["lower"], spec["upper"])


def beta33(lower, upper) -> Distribution:
    return Distribution(BETA33, lower, upper)


def uniform(lower, upper) -> Distribution:
    return Distribution(UNIFORM, lower, upper)


def sample_joint(distributions, n, seed):
    """Draw ``n`` joint samples of independent coordinates, shape (n, N).

    Each dimension gets its own child stream spawned from ``seed`` so the
    draw is reproducible and decorrelated across dimensions.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    children = seed.spawn(len(distributions))
    cols = [d.sample(n, s) for d, s in zip(distributions, children)]
    return np.column_stack(cols) if cols else np.empty((_count(n, "sample count"), 0))
