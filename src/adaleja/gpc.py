"""Orthonormal polynomial chaos by pseudo-spectral projection.

Coefficients of the expansion J ≈ Σ s_p Ψ_p are computed with Gauss
quadrature matched to each input law: Gauss-Legendre for the uniform
weight and Gauss-Jacobi(3,3) for the symmetric cubic beta weight, with
weights normalized to probability weights.  The basis is orthonormal
under the joint law, so the projection denominator is one and the decay
of max |s_p| over total degree doubles as a regularity diagnostic.
Expansions evaluate through the surrogates' prefix-product kernel, on
tables of the orthonormal polynomials, over the prefix tree of their
``MultiIndexSet``, which also finds a coefficient in O(1).
"""
from __future__ import annotations

import numpy as np
from numpy.polynomial.legendre import leggauss

from .distributions import BETA33, UNIFORM, make_distribution
from .errors import ContractError, SerializationError, _count, _number
from .grid import MultiIndexSet, _as_index
from .surrogate import (_basis, _model_value, _point_batch, _prefix_sum,
                        _read_evaluable, _write_evaluable)

TENSOR = "tensor"
SMOLYAK = "smolyak"


def recurrence_betas(kind, count):
    """Three-term recurrence coefficients β_n, n = 1..count.

    For the monic orthogonal polynomials of a symmetric weight the
    recurrence is π_{n+1} = y π_n − β_n π_{n−1}; the orthonormal version
    uses √β.  β_1 equals the law's variance.
    """
    n = np.arange(1, count + 1, dtype=float)
    if kind == UNIFORM:
        return n * n / (4.0 * n * n - 1.0)
    if kind == BETA33:
        return n * (n + 6.0) / ((2.0 * n + 5.0) * (2.0 * n + 7.0))
    raise ContractError(f"no orthogonal basis for kind {kind!r}")


def ortho_table(kind, y, degree):
    """Orthonormal polynomial values, shape (len(y), degree + 1)."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    table = np.empty((y.size, degree + 1))
    table[:, 0] = 1.0
    if degree == 0:
        return table
    sq = np.sqrt(recurrence_betas(kind, degree))
    table[:, 1] = y / sq[0]
    for k in range(1, degree):
        table[:, k + 1] = (y * table[:, k] - sq[k - 1] * table[:, k - 1]) / sq[k]
    return table


def gauss_rule(kind, order):
    """Canonical Gauss nodes and probability weights for a law kind."""
    order = _count(order, "quadrature order", 1)
    if kind == UNIFORM:
        nodes, weights = leggauss(order)
    elif kind == BETA33:
        # imported here, as its only caller: uniform-only studies skip it
        from scipy.special import roots_jacobi
        nodes, weights = roots_jacobi(order, 3.0, 3.0)
    else:
        raise ContractError(f"no Gauss rule for kind {kind!r}")
    return nodes, weights / np.sum(weights)


class GpcExpansion:
    """Total-degree orthonormal chaos expansion with complex coefficients."""

    def __init__(self, distributions, p_max, indices, coefficients):
        self.distributions = [make_distribution(d) for d in distributions]
        self.p_max = _number(p_max, "p_max", integral=True, ge=0)
        indices = [_as_index(ix) for ix in indices]
        self.coefficients = np.asarray(coefficients, dtype=complex)
        if len(indices) != self.coefficients.size:
            raise ContractError("one coefficient per index is required")
        if sorted(indices) != sorted(MultiIndexSet.total_degree(self.n_dim,
                                                                self.p_max)):
            raise ContractError(
                f"expected the full total-degree set of degree {self.p_max} "
                f"in {self.n_dim} dimensions, each index once")
        # in the given order, which is the order of the coefficients
        self._indices = MultiIndexSet(self.n_dim, indices)

    @property
    def n_dim(self):
        return len(self.distributions)

    @property
    def indices(self):
        """Multi-indices in the order of the coefficients."""
        return list(self._indices)

    def coefficient(self, index):
        index = _as_index(index, self.n_dim)
        row = self._indices.position(index)
        if row is None:
            raise ContractError(f"index {index} is outside the expansion")
        return complex(self.coefficients[row])

    def evaluate(self, points):
        """Expansion value at one point (N,) or a batch (P, N)."""
        pts, single = _point_batch(points, self.n_dim)
        ys = [dist.to_canonical(pts[:, d]) for d, dist in enumerate(self.distributions)]

        def tables(rows):
            return [ortho_table(dist.kind, y[rows], self.p_max).T
                    for dist, y in zip(self.distributions, ys)]

        out = _prefix_sum(tables, len(pts), self._indices.depths(),
                          self.coefficients[:, None])[:, 0]
        return complex(out[0]) if single else out

    def decay(self):
        """Rows (total degree w, max |s_p| over |p| = w), w = 0..p_max."""
        sums = np.array([sum(ix) for ix in self.indices])
        mags = np.abs(self.coefficients)
        return [(w, float(np.max(mags[sums == w]))) for w in range(self.p_max + 1)]

    def to_json(self) -> bytes:
        return _write_evaluable("gpc", {
            "N": self.n_dim,
            "distributions": [d.spec() for d in self.distributions],
            "p_max": self.p_max,
            "indices": [list(ix) for ix in self.indices],
        }, self.coefficients)

    @classmethod
    def from_json(cls, data) -> "GpcExpansion":
        kind, doc, coeff = _read_evaluable(data)
        if kind != "gpc":
            raise SerializationError("not a chaos-expansion document")
        return cls._from_document(doc, coeff)

    @classmethod
    def _from_document(cls, doc, coeff):
        """Expansion of a document ``_read_evaluable`` accepted."""
        dists = doc["distributions"]
        if not isinstance(dists, list) or len(dists) != doc["N"]:
            raise SerializationError(f"'distributions' must list {doc['N']} entries")
        try:
            return cls(dists, doc["p_max"], doc["indices"], coeff)
        except (ValueError, TypeError) as exc:
            raise SerializationError(f"inconsistent expansion data: {exc}") from exc


def project(model, distributions, p_max, quadrature=TENSOR) -> GpcExpansion:
    """Pseudo-spectral projection of a model onto the orthonormal basis.

    The tensor rule uses order p_max + 1 per dimension.  The sparse rule
    is the standard combination-technique quadrature on the total-degree
    index set of level p_max, with per-dimension Gauss orders ℓ + 1; it
    integrates total-degree 2 p_max + 1 polynomials exactly, which covers
    every product J Ψ_p of interest when J itself lies in the basis span.
    """
    dists = [make_distribution(d) for d in distributions]
    if not dists:
        raise ContractError("at least one distribution is required")
    p_max = _number(p_max, "p_max", integral=True, ge=0)
    if quadrature not in (TENSOR, SMOLYAK):
        raise ContractError(f"unknown quadrature {quadrature!r}")
    n_dim = len(dists)
    index_set = MultiIndexSet.total_degree(n_dim, p_max)    # in lex order
    coeff = np.zeros(len(index_set), dtype=complex)
    cache: dict[tuple, complex] = {}

    def tensor_contribution(orders, scale):
        """Add scale * (projection using the per-dimension Gauss orders)."""
        rules = [gauss_rule(d.kind, o) for d, o in zip(dists, orders)]
        grids = np.meshgrid(*[r[0] for r in rules], indexing="ij")
        ys = np.column_stack([g.reshape(-1) for g in grids])
        weight = np.ones(ys.shape[0])
        for g in np.meshgrid(*[r[1] for r in rules], indexing="ij"):
            weight = weight * g.reshape(-1)
        xs = np.column_stack([d.from_canonical(ys[:, k]) for k, d in enumerate(dists)])
        values = np.empty(ys.shape[0], dtype=complex)
        for q in range(ys.shape[0]):
            key = tuple(ys[q])
            if key not in cache:
                cache[key] = complex(_model_value(model, xs[q], "a quadrature node",
                                                  scalar=True))
            values[q] = cache[key]
        tables = [ortho_table(d.kind, ys[:, k], p_max).T
                  for k, d in enumerate(dists)]
        weighted = weight * values
        # one basis function at a time: the full matrix can outgrow memory
        for m, ix in enumerate(index_set):
            coeff[m] += scale * np.sum(weighted * _basis(tables, ix))

    if quadrature == TENSOR:
        tensor_contribution((p_max + 1,) * n_dim, 1.0)
    else:
        for ell in index_set:
            scale = 0
            for z in np.ndindex(*(2,) * n_dim):
                if tuple(a + b for a, b in zip(ell, z)) in index_set:
                    scale += (-1) ** int(np.sum(z))
            if scale:
                tensor_contribution(tuple(l + 1 for l in ell), float(scale))
    return GpcExpansion(dists, p_max, index_set, coeff)
