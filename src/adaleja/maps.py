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
Bernstein radius of the nearest one.
"""
from __future__ import annotations

from math import asin, factorial, inf, sqrt

import numpy as np

from .errors import DomainError, _count, _number

_EDGE_SLACK = 1e-12

# Inverse-map Newton: residual target and iteration cap.
_INV_TOL = 1e-14
_INV_MAXIT = 80

# Gain estimate: boundary samples on the candidate ellipse and the relative
# width at which the radius bisection stops.
GAIN_SAMPLES = 4096
_GAIN_RTOL = 1e-12
_GAIN_RADIUS_CAP = 1e9


def _check_unit(x, name):
    x = np.asarray(x, dtype=float)
    if np.any(np.abs(x) > 1.0 + _EDGE_SLACK):
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

        Safeguarded Newton with the analytic derivative; falls back to
        bisection on the monotone bracket whenever a step leaves it.  The
        result satisfies |g(y) - t| <= 1e-13.
        """
        t = _check_unit(t, "t")
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        lo = np.full_like(t, -1.0)
        hi = np.ones_like(t)
        y = t.copy()
        for _ in range(_INV_MAXIT):
            f = np.asarray(self._raw(y)) - t
            if np.max(np.abs(f)) <= _INV_TOL:
                break
            above = f > 0.0
            hi = np.where(above, y, hi)
            lo = np.where(above, lo, y)
            d = np.asarray(self._raw_derivative(y))
            with np.errstate(divide="ignore", invalid="ignore"):
                yn = y - f / d
            bad = ~np.isfinite(yn) | (yn < lo) | (yn > hi)
            y = np.where(bad, 0.5 * (lo + hi), yn)
        return y[0] if scalar else y

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
        self._norm = float(self._poly_part(np.asarray(1.0)))

    def _poly_part(self, y):
        # y * q(y^2); exactly odd because only y^2 enters the Horner loop.
        s = y * y
        acc = np.zeros_like(s)
        for c in self._even_coef:
            acc = acc * s + c
        return y * acc

    def _raw(self, y):
        return self._poly_part(np.asarray(y)) / self._norm

    def _raw_derivative(self, y):
        y = np.asarray(y)
        s = y * y
        acc = np.zeros_like(s)
        for c in self._deriv_coef:
            acc = acc * s + c
        return acc / self._norm

    def spec(self):
        return {"map": "sausage", "order": self.order}


class KTEMap(ConformalMap):
    """Arcsine-based stretch map with strength ``alpha`` in (0, 1).

    Its branch points at ±1/alpha lie on the Bernstein ellipse of radius
    1/alpha + sqrt(1/alpha² - 1).
    """

    kind = "kte"

    def __init__(self, alpha):
        self.alpha = alpha = _number(alpha, "kte alpha", gt=0, lt=1)
        self._norm = asin(alpha)
        self.singularity_radius = 1.0 / alpha + sqrt(1.0 / alpha ** 2 - 1.0)

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

