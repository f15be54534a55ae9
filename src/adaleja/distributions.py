"""Bounded input laws: densities, sampling and canonical transforms.

Two families are supported, a symmetric quartic-kernel beta shape and the
uniform law, both on an arbitrary bounded interval.  Every law can be
rescaled to the canonical interval [-1, 1], which is where node sequences
and polynomial bases live; the affine transform pair ``to_canonical`` /
``from_canonical`` moves points between the two frames.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _count, _number

BETA33 = "beta33"
UNIFORM = "uniform"

_KINDS = (BETA33, UNIFORM)

# Slack admitted when checking membership of a closed interval, to absorb
# round-off from affine round trips.
_EDGE_SLACK = 1e-12

# Newton tolerance on the CDF residual when inverting for samples.
_CDF_TOL = 1e-12


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
        for bound in ("lower", "upper"):
            object.__setattr__(self, bound, _number(getattr(self, bound), bound))
        if not self.upper > self.lower:
            raise ValueError("upper bound must exceed lower bound")

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def pdf(self, y):
        """Probability density at ``y`` (scalar or array), zero off support."""
        y = np.asarray(y, dtype=float)
        if self.kind == UNIFORM:
            out = np.where((y >= self.lower) & (y <= self.upper),
                           1.0 / self.width, 0.0)
        else:
            a = y - self.lower
            b = self.upper - y
            inside = (a >= 0.0) & (b >= 0.0)
            a = np.where(inside, a, 0.0)
            b = np.where(inside, b, 0.0)
            out = 140.0 * a ** 3 * b ** 3 / self.width ** 7
        return out if out.ndim else float(out)

    def cdf(self, y):
        """Cumulative distribution at ``y`` (scalar or array)."""
        y = np.asarray(y, dtype=float)
        t = np.clip((y - self.lower) / self.width, 0.0, 1.0)
        if self.kind == UNIFORM:
            out = t
        else:
            out = _beta33_cdf01(t)
        return out if out.ndim else float(out)

    def sample(self, n, seed):
        """Draw ``n`` independent variates using a seeded generator.

        Sampling is by inverse transform.  For the beta shape the
        closed-form degree-7 polynomial CDF is inverted with a bracketed
        Newton iteration (bisection fallback) to residual 1e-12.
        """
        u = np.random.default_rng(seed).random(_count(n, "sample count"))
        if self.kind == UNIFORM:
            t = u
        else:
            t = _beta33_invert_cdf01(u)
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
        t = np.asarray(t, dtype=float)
        if not np.all(np.abs(t) <= 1.0 + _EDGE_SLACK):
            raise DomainError("canonical point outside [-1, 1]")
        y = self.lower + 0.5 * (np.clip(t, -1.0, 1.0) + 1.0) * self.width
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


def _beta33_cdf01(t):
    # Antiderivative of 140 t^3 (1-t)^3 on [0, 1].
    return t ** 4 * (35.0 + t * (-84.0 + t * (70.0 - 20.0 * t)))


def _beta33_invert_cdf01(u):
    """Solve cdf(t) = u on [0, 1] elementwise, Newton with bisection guard."""
    u = np.asarray(u, dtype=float)
    lo = np.zeros_like(u)
    hi = np.ones_like(u)
    t = np.full_like(u, 0.5)
    for _ in range(200):
        c = _beta33_cdf01(t)
        resid = c - u
        if np.max(np.abs(resid)) <= _CDF_TOL:
            break
        above = resid > 0.0
        hi = np.where(above, t, hi)
        lo = np.where(above, lo, t)
        d = 140.0 * t ** 3 * (1.0 - t) ** 3
        with np.errstate(divide="ignore", invalid="ignore"):
            step = resid / d
        tn = t - step
        bad = ~np.isfinite(tn) | (tn <= lo) | (tn >= hi)
        t = np.where(bad, 0.5 * (lo + hi), tn)
    return t


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
