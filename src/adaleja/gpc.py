"""Orthonormal polynomial chaos by pseudo-spectral projection.

Coefficients of the expansion J ≈ Σ s_p Ψ_p are computed with Gauss
quadrature matched to each input law: Gauss-Legendre for the uniform
weight and Gauss-Jacobi(3,3) for the symmetric cubic beta weight, both
from the law's three-term recurrence (Golub & Welsch, Math. Comp. 23,
1969).  The basis is orthonormal under the joint law, so the projection
denominator is one and the decay of max |s_p| over total degree doubles
as a regularity diagnostic.  Each tensor rule projects by sum
factorization (Orszag, J. Comput. Phys. 37, 1980).
Expansions evaluate through the surrogates' prefix-product kernel, on
tables of the orthonormal polynomials, over the prefix tree of their
``MultiIndexSet``, which also finds a coefficient in O(1).
"""
from __future__ import annotations

import math

import numpy as np

from .distributions import BETA33, UNIFORM, make_distribution
from .errors import ContractError, SerializationError, _count, _finite, _number
from .grid import MultiIndexSet
from .surrogate import (_model_values, _point_batch, _prefix_sum, _read_evaluable,
                        _write_evaluable)

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
    """Canonical Gauss nodes and probability weights for a law kind.

    Nodes are the Jacobi matrix's eigenvalues, weights the Christoffel
    numbers 1 / Σ_{k<order} ψ_k(y)², both symmetrized: odd orders share 0.0."""
    order = _count(order, "quadrature order", 1)
    off = np.sqrt(recurrence_betas(kind, order - 1))
    nodes = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 1.0 / np.sum(ortho_table(kind, nodes, order - 1) ** 2, axis=1)
    weights = 0.5 * (weights + weights[::-1])
    return nodes, weights / np.sum(weights)


class GpcExpansion:
    """Total-degree orthonormal chaos expansion with complex coefficients."""

    _n_evaluations = None

    def __init__(self, distributions, p_max, indices, coefficients):
        self.distributions = [make_distribution(d) for d in distributions]
        self.p_max = _number(p_max, "p_max", integral=True, ge=0)
        indices = list(indices)
        # in the given order, which is the order of the coefficients
        self._indices = MultiIndexSet(self.n_dim, indices)
        self.coefficients = _finite(np.asarray(coefficients, dtype=complex), "coefficients")
        if len(indices) != self.coefficients.size:
            raise ContractError("one coefficient per index is required")
        if len(self._indices) != len(indices) or self._indices.sorted_indices() != list(
                MultiIndexSet.total_degree(self.n_dim, self.p_max)):
            raise ContractError(
                f"expected the full total-degree set of degree {self.p_max} "
                f"in {self.n_dim} dimensions, each index once")

    @property
    def n_dim(self):
        return len(self.distributions)

    @property
    def n_evaluations(self):
        """Model calls of the projection that made this expansion; None if loaded."""
        return self._n_evaluations

    @property
    def indices(self):
        """Multi-indices in the order of the coefficients."""
        return list(self._indices)

    def coefficient(self, index):
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


def _combination_weight(n_dim, excess):
    """Σ (-1)^|z| over z in {0,1}^n_dim with |z| <= excess; 0 once excess >= n_dim."""
    return (-1) ** excess * math.comb(n_dim - 1, excess)


def project(model, distributions, p_max, quadrature=TENSOR) -> GpcExpansion:
    """Pseudo-spectral projection of a model onto the orthonormal basis.

    The tensor rule uses order p_max + 1 per dimension.  The sparse rule
    is the standard combination-technique quadrature on the total-degree
    index set of level p_max, with per-dimension Gauss orders ℓ + 1; it
    integrates total-degree 2 p_max + 1 polynomials exactly, which covers
    every product J Ψ_p of interest when J itself lies in the basis span.
    A rule's new nodes go through one checked batch call (stacked band
    solves for a linear-system model), and its contraction keeps only
    the degree prefixes whose sum stays within p_max.
    """
    dists = [make_distribution(d) for d in distributions]
    if not dists:
        raise ContractError("at least one distribution is required")
    p_max = _number(p_max, "p_max", integral=True, ge=0)
    if quadrature not in (TENSOR, SMOLYAK):
        raise ContractError(f"unknown quadrature {quadrature!r}")
    n_dim = len(dists)
    index_set = MultiIndexSet.total_degree(n_dim, p_max)    # in lex order
    cache: dict[tuple, complex] = {}

    def tensor_projection(orders):
        """Coefficients by the tensor rule of the per-dimension Gauss orders."""
        rules = [gauss_rule(d.kind, o) for d, o in zip(dists, orders)]
        grids = np.meshgrid(*[r[0] for r in rules], indexing="ij")
        ys = np.stack(grids, -1).reshape(-1, n_dim)
        xs = np.column_stack([d.from_canonical(ys[:, k]) for k, d in enumerate(dists)])
        keys = [tuple(y) for y in ys]
        new = [q for q, key in enumerate(keys) if key not in cache]
        for q, value in zip(new, _model_values(model, xs[new], lambda p: "a quadrature node",
                                               scalar=True)):
            cache[keys[q]] = complex(value)
        # sum factorization: one contraction per dimension, in axis order,
        # over a trailing axis of degree prefixes, kept in lex order
        values = np.array([cache[key] for key in keys]).reshape(orders + (1,))
        degrees = np.zeros(1, dtype=int)
        for (nodes, weights), d in zip(rules, dists):
            weighted = weights[:, None] * ortho_table(d.kind, nodes, p_max)
            values = np.tensordot(values, weighted, axes=(0, 0))
            sums = (degrees[:, None] + np.arange(p_max + 1)).reshape(-1)
            values = values.reshape(values.shape[:-2] + (-1,))[..., sums <= p_max]
            degrees = sums[sums <= p_max]
        return values

    if quadrature == TENSOR:
        coeff = tensor_projection((p_max + 1,) * n_dim)
    else:
        scales = [_combination_weight(n_dim, p_max - sum(ell)) for ell in index_set]
        coeff = sum(scale * tensor_projection(tuple(l + 1 for l in ell))
                    for ell, scale in zip(index_set, scales) if scale)
    expansion = GpcExpansion(dists, p_max, index_set, coeff)
    expansion._n_evaluations = len(cache)
    return expansion
