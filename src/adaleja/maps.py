"""Conformal self-maps of [-1, 1] and the a priori convergence-gain estimate.

A map g takes the canonical interval onto itself (g(+-1) = +-1, odd,
strictly increasing) and is used to transplant interpolation nodes so they
distribute more evenly than the Chebyshev-like clustering of plain
polynomial methods.  The expected payoff of a map for functions analytic in
an epsilon-neighbourhood of the interval is quantified by
:meth:`ConformalMap.estimate_gain`: it compares the largest Bernstein
ellipse inscribed in the neighbourhood against the largest ellipse whose
image under g still fits inside, on a log scale.  The mapped ellipse may
not reach past the map's own singularities, so each map states the
Bernstein radius of the nearest one.  :meth:`ConformalMap.inverse`
starts each point from a cubic Hermite table of g^-1 (linear where a
slope is infinite), built once per distinct map and clipped into the
point's interval, and stops it at its own residual.  The beta law
samples through it too; surrogates call the unchecked ``_inverse``.
"""
from __future__ import annotations

from functools import lru_cache
from math import asin, factorial, inf, sqrt

import numpy as np

from .errors import ContractError, DomainError, _count, _number

_EDGE_SLACK = 1e-12

# Inverse map: residual target per point, Newton pass cap, chunk size,
# and intervals of the table of starting values.
_INV_TOL = 1e-14
_INV_MAXIT = 80
_INV_CHUNK = 8192
_INV_KNOTS = 8192

# Gain estimate: boundary samples on the candidate ellipse and the relative
# width at which the radius bisection stops.
GAIN_SAMPLES = 4096
_GAIN_RTOL = 1e-12
_GAIN_RADIUS_CAP = 1e9


def _check_unit(x, name):
    x = np.asarray(x, dtype=float)
    if not np.all(np.abs(x) <= 1.0 + _EDGE_SLACK):    # NaN fails too
        raise DomainError(f"{name} outside [-1, 1]")
    return np.clip(x, -1.0, 1.0)


class ConformalMap:
    """Base class: a strictly increasing odd self-map of [-1, 1]."""

    kind = "abstract"

    # Bernstein radius of the map's nearest singularity; infinite for
    # entire maps.
    singularity_radius = inf

    def _raw(self, y):
        """Map evaluation without domain checks; accepts complex input."""
        raise NotImplementedError

    def _raw_derivative(self, y):
        raise NotImplementedError

    def forward(self, y):
        """g(y) for y in [-1, 1] (scalar or array)."""
        y = _check_unit(y, "y")
        out = self._raw(y)
        return out if out.ndim else float(out)

    def forward_complex(self, z):
        """Analytic continuation of g to complex arguments."""
        return self._raw(np.asarray(z, dtype=complex))

    def derivative(self, y):
        y = _check_unit(y, "y")
        out = self._raw_derivative(y)
        return out if out.ndim else float(out)

    def inverse(self, t):
        """Solve g(y) = t on [-1, 1] elementwise.

        Safeguarded Newton with the analytic derivative from a Hermite
        start clipped into its table interval (linear where a slope 1/g'
        is not finite), with bisection on each point's bracket when a
        step leaves it.  Points go in cache-sized chunks, and each stops
        at its own |g(y) - t| <= 1e-14, so the batch never changes a result.
        Where g is too steep to reach that residual in floats, a point
        stops at the cap of 80 passes instead.
        """
        t = _check_unit(t, "t")
        y = self._inverse(t)
        return y if t.ndim else y[()]

    def _inverse(self, t):
        """``inverse`` of a float array already checked and clipped to [-1, 1]."""
        flat = t.reshape(-1)
        y = np.empty_like(flat)
        for start in range(0, flat.size, _INV_CHUNK):
            rows = slice(start, start + _INV_CHUNK)
            y[rows] = self._newton(flat[rows], self._start(flat[rows]))
        return y.reshape(t.shape)

    def _start(self, t):
        """Hermite start for the 1-D ``t``, clipped into its table interval."""
        y0, y1, c1, c2, c3 = self._start_table()
        u = (t + 1.0) * (0.5 * _INV_KNOTS)
        k = u.astype(np.intp)
        s = u - k
        y = y0[k] + s * (c1[k] + s * (c2[k] + s * c3[k]))
        return np.clip(y, y0[k], y1[k], out=y)

    @lru_cache(64)      # equal maps hash alike (by spec) and share a table
    def _start_table(self):
        """Read-only, per knot t_k: g^-1 at t_k and t_k+1, and the Hermite
        coefficients of s, s^2, s^3 after t_k, for s = (t - t_k) / step."""
        knots = np.linspace(-1.0, 1.0, _INV_KNOTS + 1)
        y = self._newton(knots, knots.copy())
        with np.errstate(divide="ignore", over="ignore"):
            slope = (2.0 / _INV_KNOTS) / self._raw_derivative(y)
        d = np.diff(y)
        # a slope that is not finite: the secant at both ends, a straight line
        ok = np.isfinite(slope[:-1]) & np.isfinite(slope[1:])
        m0, m1 = np.where(ok, slope[:-1], d), np.where(ok, slope[1:], d)
        a, b = d - m0, d - m1
        table = (y, np.append(y[1:], y[-1]),
                 *(np.append(c, 0.0) for c in (m0, 2.0 * a + b, -(a + b))))
        for column in table:
            column.setflags(write=False)
        return table

    def _newton(self, t, y):
        """``inverse`` of the 1-D ``t`` from the start ``y``, which it overwrites."""
        out, at = y, np.arange(len(t))
        lo, hi = np.full_like(t, -1.0), np.ones_like(t)
        for _ in range(_INV_MAXIT):
            f = self._raw(y) - t
            open_ = np.abs(f) > _INV_TOL
            if not open_.all():
                out[at] = y
                if not open_.any():
                    return out
                at, t, y, f, lo, hi = (a[open_] for a in (at, t, y, f, lo, hi))
            above = f > 0.0
            hi, lo = np.where(above, y, hi), np.where(above, lo, y)
            with np.errstate(divide="ignore", invalid="ignore"):
                yn = y - f / self._raw_derivative(y)
            # a step that is not finite or leaves the bracket bisects it
            y = np.where((yn >= lo) & (yn <= hi), yn, 0.5 * (lo + hi))
        out[at] = y
        return out

    def estimate_gain(self, epsilon, n_samples=GAIN_SAMPLES):
        """Convergence-gain exponent for epsilon-analytic integrands.

        Parameters
        ----------
        epsilon : float
            Half-width of the analyticity neighbourhood around [-1, 1].
        n_samples : int
            Boundary samples used by the ellipse containment test.

        Returns
        -------
        float
            log(r_hat_max) / log(r_max) - 1, where r_max is the radius of
            the largest Bernstein ellipse inside the neighbourhood and
            r_hat_max the radius of the largest ellipse whose image under
            the map stays inside it, capped at ``singularity_radius``.
            Positive values mean the mapped basis converges
            geometrically faster.
        """
        epsilon = _number(epsilon, "epsilon")
        if epsilon <= 0.0:
            raise DomainError("epsilon must be positive")
        r_max = epsilon + np.hypot(1.0, epsilon)
        theta = np.linspace(0.0, 2.0 * np.pi, _count(n_samples, "n_samples", 1),
                            endpoint=False)
        boundary = np.exp(1j * theta)

        def contained(r):
            w = r * boundary
            z = 0.5 * (w + 1.0 / w)
            gz = np.asarray(self.forward_complex(z))
            dx = np.maximum(np.abs(gz.real) - 1.0, 0.0)
            dist = np.hypot(dx, gz.imag)
            return float(np.max(dist)) <= epsilon

        cap = self.singularity_radius
        lo = 1.0
        hi = min(r_max, cap)
        while hi < cap and contained(hi):
            lo = hi
            hi = min(2.0 * hi, cap)
            if hi > _GAIN_RADIUS_CAP:
                return np.log(_GAIN_RADIUS_CAP) / np.log(r_max) - 1.0
        while hi - lo > _GAIN_RTOL * hi:
            mid = 0.5 * (lo + hi)
            if contained(mid):
                lo = mid
            else:
                hi = mid
        return float(np.log(lo) / np.log(r_max) - 1.0)

    def spec(self) -> dict:
        """JSON-ready description, inverse of :func:`make_map`."""
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, ConformalMap) and self.spec() == other.spec()

    def __hash__(self):
        return hash(tuple(sorted(self.spec().items())))

    def __repr__(self):
        args = ", ".join(f"{k}={v}" for k, v in self.spec().items()
                         if k != "map")
        return f"{type(self).__name__}({args})"


class IdentityMap(ConformalMap):
    kind = "identity"

    def _raw(self, y):
        return np.asarray(y)

    def _raw_derivative(self, y):
        return np.ones_like(np.asarray(y, dtype=float))

    def inverse(self, t):
        t = _check_unit(t, "t")
        return t if t.ndim else float(t)

    def _inverse(self, t):
        return t

    def estimate_gain(self, epsilon, n_samples=GAIN_SAMPLES):
        if _number(epsilon, "epsilon") <= 0.0:
            raise DomainError("epsilon must be positive")
        _count(n_samples, "n_samples", 1)
        return 0.0

    def spec(self):
        return {"map": "identity"}


class SausageMap(ConformalMap):
    """Normalized odd-polynomial map that evens out node distributions.

    The degree-``order`` Maclaurin polynomial of arcsin, rescaled so the
    endpoints stay fixed: coefficients (2i)! / (4^i (i!)^2 (2i+1)) on
    y^(2i+1) for 2i+1 <= order.  The order must be odd so the top term is
    present; order 1 degenerates to the identity.
    """

    kind = "sausage"

    def __init__(self, order=9):
        order = _number(order, "sausage order", integral=True, ge=1)
        if order % 2 == 0:
            raise ValueError("sausage order must be an odd positive integer")
        self.order = order
        i = np.arange((order - 1) // 2 + 1)
        coef = np.array([factorial(2 * k) / (4.0 ** k * factorial(k) ** 2
                                             * (2 * k + 1)) for k in i])
        # Stored high-to-low in the variable s = y^2 for Horner evaluation.
        self._even_coef = coef[::-1].copy()
        # d/dy of y*q(y^2) needs (2i+1) c_i y^(2i).
        self._deriv_coef = (coef * (2 * i + 1))[::-1].copy()
        self._norm = float(self._horner(self._even_coef, np.asarray(1.0)))

    @staticmethod
    def _horner(coef, y):
        # q(y^2), exactly even because only y^2 enters the loop
        s = y * y
        acc = np.zeros_like(s)
        for c in coef:
            acc = acc * s + c
        return acc

    def _raw(self, y):
        y = np.asarray(y)
        return y * self._horner(self._even_coef, y) / self._norm

    def _raw_derivative(self, y):
        return self._horner(self._deriv_coef, np.asarray(y)) / self._norm

    def spec(self):
        return {"map": "sausage", "order": self.order}


class KTEMap(ConformalMap):
    """Arcsine-based stretch map with strength ``alpha`` in (0, 1).

    Its branch points at ±1/alpha lie on the Bernstein ellipse of radius
    (1 + sqrt(1 - alpha²)) / alpha, written so that no square of alpha
    underflows; an alpha whose radius overflows is refused.
    """

    kind = "kte"

    def __init__(self, alpha):
        self.alpha = alpha = _number(alpha, "kte alpha", gt=0, lt=1)
        self._norm = asin(alpha)
        self.singularity_radius = (1.0 + sqrt((1.0 - alpha) * (1.0 + alpha))) / alpha
        if self.singularity_radius == inf:
            raise ContractError(f"kte alpha {alpha!r} is too small: its singularity "
                                "radius is not finite")

    def _raw(self, y):
        y = np.asarray(y)
        if np.iscomplexobj(y):
            return np.lib.scimath.arcsin(self.alpha * y) / self._norm
        return np.arcsin(self.alpha * y) / self._norm

    def _raw_derivative(self, y):
        y = np.asarray(y, dtype=float)
        return self.alpha / (np.sqrt(1.0 - (self.alpha * y) ** 2) * self._norm)

    def spec(self):
        return {"map": "kte", "alpha": self.alpha}


def make_map(spec) -> ConformalMap:
    """Build a map from its JSON description, e.g. {"map": "sausage", "order": 9}."""
    if isinstance(spec, ConformalMap):
        return spec
    if not isinstance(spec, dict) or "map" not in spec:
        raise ValueError("map spec must be a dict with a 'map' key")
    kind = spec["map"]
    if kind == "identity":
        return IdentityMap()
    if kind == "sausage":
        return SausageMap(spec.get("order", 9))
    if kind == "kte":
        if "alpha" not in spec:
            raise ValueError("kte map spec needs 'alpha'")
        return KTEMap(spec["alpha"])
    raise ValueError(f"unknown map kind {kind!r}")

