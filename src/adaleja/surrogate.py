"""Mapped hierarchical sparse-grid interpolants.

A surrogate is a sum of hierarchical surpluses times multivariate basis
polynomials.  Each univariate factor is a Newton-style ratio built on the
canonical Leja nodes of its dimension, evaluated at the conformal-map
preimage of the canonical coordinate, so the interpolant is a polynomial
composed with the inverse map.  With one new node per level, every
multi-index owns exactly one grid point and one surplus.

Surpluses are complex scalars (QoI surrogates) or arrays, such as the
(2, n) primal–dual pairs of an adjoint field; all share one code path.
Finished surrogates serialize to a self-contained JSON document.

Each public method checks its index once; ``add_point`` and
``add_restricted`` also check admissibility and refuse a non-finite
value.  The adaptive drivers call the unchecked twins on the tuples the
index set hands them: ``_node_point``, which checks an index's levels
against the cap, ``_node_value``, ``_add`` and ``_append``.  Every way of
growing a surrogate ends in ``_append``, which writes a flat surplus
array and a flat, dimension-major level array, whose capacity doubles
when full, and the ``MultiIndexSet``, whose prefix tree finds a surplus in O(1).

Batch evaluation is ``_prefix_sum``, the one kernel ``gpc`` shares: sum
factorization over the prefix tree (Orszag 1980) of the hierarchical
interpolant of Chkifa, Cohen & Schwab (2014).  Points go in cache-sized
blocks, whose per-dimension tables (levels by points) are built once per
chunk of blocks; at each depth, the weight rows of the distinct prefixes
are their parents' rows times one table row.  Scalar batches contract the
last dimension with one dense matmul, also in a last block of one point
(the 257th of 257), with one column; a one-point call or vector values take
the frozen contraction, ``_contract``.  So a point's last bits can depend on its
batch.  Node predictions skip the kernel: a member's weight is one gather per
dimension through the level array, and they share only ``_contract``.  Both
evaluables are read back through ``_read_evaluable``.
``corrected_evaluate`` shares one ``_preimages`` pass: ``to_canonical``
checks the points, then one unchecked ``_inverse`` call per distinct map.

Every node is a shipped Leja node: a dimension holds its law's 512 nodes,
levels 0-511, and shares one read-only table of them per law; its physical
node coordinates are tabulated once, when the surrogate is made.  A level
past 511 is refused, and so is a stored node list other than a prefix or a
document whose surpluses could overflow the interpolant in its box.
"""
from __future__ import annotations

import json
from functools import cache

import numpy as np

from .distributions import make_distribution
from .errors import (ContractError, SerializationError, SolveError,
                     UnsupportedVersionError, _count, _finite)
from .grid import _INITIAL_CAPACITY, MultiIndexSet, _as_index
from .leja import _SHIPPED, leja_nodes
from .linmodel import ParametricLinearModel, _stacks
from .maps import ConformalMap, IdentityMap, make_map

SCHEMA_VERSION = 1

# Points per block of the batch kernel, so that a block's weight rows
# stay in cache, and bytes of tables per chunk of whole blocks.
_BLOCK = 256
_CHUNK_BYTES = 1 << 20
# Per law, about twice the largest |Newton factor| of any shipped level on [-1, 1]
_FACTOR_BOUND = {"uniform": 2.1, "beta33": 6.2e6}


def _prefix_sum(tables, n_pts, plan, coeffs):
    """Σ_i coeffs[i] Π_d T_d[levels[i, d]] at ``n_pts`` points, shape (n_pts, k).

    ``tables(rows)`` gives the tables T_d of the points in the slice
    ``rows``, one row per level and one column per point (or, for one
    point, one value per level).  ``plan`` is ``MultiIndexSet.depths()`` of
    the indices, in the order of the rows of the complex ``coeffs``.
    Tables come per chunk of as many whole blocks of ``_BLOCK`` points as
    ``_CHUNK_BYTES`` holds, at least one; per depth, a block's weight rows
    are one gather of their parents' rows times one gather of table rows
    (sum factorization over the prefix tree of the index set).  With more
    than one point, scalar ``coeffs`` and two or more depths, the last depth
    is instead one matmul of its coefficients, dense by parent and level,
    with the last table, and one product with the parents' rows.
    """
    out = np.empty((n_pts, coeffs.shape[1]), dtype=complex)
    chunk = _BLOCK
    if n_pts > _BLOCK:
        row_bytes = 8 * sum(int(levels.max()) + 1 for _, levels in plan)
        chunk *= max(1, _CHUNK_BYTES // (row_bytes * _BLOCK))
    dense = None    # or the real and imaginary last-depth coefficients
    if n_pts > 1 and coeffs.shape[1] == 1 and len(plan) > 1:
        (parents, levels), plan = plan[-1], plan[:-1]
        dense = np.zeros((2, len(plan[-1][1]), int(levels.max()) + 1))
        dense[:, parents, levels] = coeffs.real[:, 0], coeffs.imag[:, 0]
    for start in range(0, n_pts, _BLOCK):
        rows, offset = slice(start, start + _BLOCK), start % chunk
        if not offset:
            chunk_tables = tables(slice(start, start + chunk))
        first, *rest = (chunk_tables if chunk == _BLOCK else
                        [table[:, offset:offset + _BLOCK] for table in chunk_tables])
        w = first.take(plan[0][1], 0)
        for table, (parents, levels) in zip(rest, plan[1:]):
            w = w.take(parents, 0)
            w *= table.take(levels, 0)
        if dense is not None:   # zip left out the last table and depth
            last = dense @ rest[-1]
            out.real[rows, 0], out.imag[rows, 0] = np.einsum("pb,cpb->cb", w, last)
        else:
            out[rows] = _contract(w, coeffs)
    return out


def _contract(w, coeffs):
    """Σ_i w[i] coeffs[i].  Frozen: node predictions round through these two
    products on the strided halves of ``coeffs``, whose last bits break exact
    surplus ties and so decide the accepted order; a contiguous copy changes them."""
    return w.T @ coeffs.real + 1j * (w.T @ coeffs.imag)


def _basis(tables, index):
    """Π_d tables[d][index[d]]: one basis function at the tables' points."""
    out = tables[0][index[0]]
    for table, level in zip(tables[1:], index[1:]):
        out = out * table[level]
    return out


def _newton_table(x, nodes, dens, top):
    """Newton factors Π_{j<l} (x - nodes[j]) / dens[l], l = 0..top.

    One row per level and one column per point of ``x``, by a running product.
    """
    fac = np.empty((top + 1, len(x)))
    fac[0] = 1.0
    run = np.ones(len(x))
    for l in range(1, top + 1):
        run *= x - nodes[l - 1]
        np.divide(run, dens[l], out=fac[l])
    return fac


@cache
def _leja_tables(law):
    """A canonical law's 512 shipped Leja nodes, their Newton denominators and
    the Newton factors at the nodes, read-only: by the operations of
    ``_newton_table``, node-major so that a node prediction gathers rows."""
    nodes = leja_nodes(law, _SHIPPED)
    table = np.ones((_SHIPPED, _SHIPPED))
    np.cumprod(np.subtract.outer(nodes, nodes[:-1]), axis=1, out=table[:, 1:])
    dens = np.concatenate([[1.0], table[1:, 1:].diagonal()])
    table[:, 1:] /= dens[1:]
    nodes.flags.writeable = dens.flags.writeable = table.flags.writeable = False
    return nodes, dens, table


def _point_batch(points, n_dim):
    """Points as a (P, n_dim) float array, and whether one (N,) point was given."""
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.ndim != 2 or pts.shape[1] != n_dim:
        raise ContractError(f"points must have {n_dim} columns, got shape {pts.shape}")
    return pts, single


def _as_map_list(maps, n_dim):
    if maps is None:
        return [IdentityMap() for _ in range(n_dim)]
    if isinstance(maps, (ConformalMap, dict)):
        return [make_map(maps) for _ in range(n_dim)]
    out = [make_map(m) for m in maps]
    if len(out) != n_dim:
        raise ContractError(f"expected {n_dim} map entries, got {len(out)} maps "
                            f"for {n_dim} dimensions")
    return out


def _model_value(model, x, label, scalar=False, finite=True):
    """Model value at the point ``x``, as a complex array: the one checked call.

    A model exception, or unless ``finite`` is false a non-finite value
    (scalar or any vector entry), raises a solve error naming ``label``
    and the point; with ``scalar``, a vector value raises a contract error.
    """
    try:
        value = np.asarray(model(x), dtype=complex)
    except SolveError:
        raise
    except Exception as exc:
        raise SolveError(f"model evaluation failed at {label}: {exc}",
                         point=x) from exc
    if finite and not np.isfinite(value).all():
        raise SolveError(f"non-finite model value {value} at {label}", point=x)
    if scalar and value.ndim:
        raise ContractError(f"expected a scalar model, got shape {value.shape} "
                            f"at {label}, point {tuple(float(c) for c in x)}")
    return value


def _model_values(model, points, label, scalar=False, finite=True):
    """``_model_value`` at each row of ``points``; ``label(p)`` names row p.

    A ``ParametricLinearModel`` type overriding neither ``__call__`` nor
    ``qoi`` is solved in stacks; any other model goes point by point, as
    does a stack failing other than by a solve error, or holding a value
    ``finite`` refuses, so that the error names its point.
    """
    plain, kind = ParametricLinearModel, type(model)
    stacked = (isinstance(model, plain) and kind.qoi is plain.qoi
               and kind.__call__ is plain.__call__)
    values = []
    for rows in _stacks(model, len(points)) if stacked else [slice(0, len(points))]:
        try:
            stack = model._qois(points[rows]) if stacked else None
        except SolveError:
            raise
        except Exception:
            stack = None
        if stack is None or (finite and not np.isfinite(stack).all()):
            stack = [_model_value(model, x, label(p), scalar, finite)
                     for p, x in enumerate(points[rows], rows.start)]
        values += stack
    return values


class Surrogate:
    """Hierarchical interpolant over a box-shaped parameter domain.

    Starts empty; grows one multi-index at a time through ``add_point``.
    The admission order must respect the partial order on indices, which
    the underlying index set enforces.
    """

    def __init__(self, distributions, maps=None):
        dists = [make_distribution(d) for d in distributions]
        if not dists:
            raise ContractError("at least one distribution is required")
        self.distributions = dists
        self.maps = _as_map_list(maps, len(dists))
        self._indices = MultiIndexSet(len(dists), [])
        # rows [:len(self)] are live: one flattened surplus per absorbed
        # index, in absorption order
        self._surpluses = np.empty((_INITIAL_CAPACITY, 0), dtype=complex)
        self._value_shape: tuple | None = None
        # columns [:len(self)] are live: the absorbed indices, dimension-major
        self._levels = np.empty((len(dists), _INITIAL_CAPACITY), dtype=np.intp)
        # per dimension, its law's tables and the node coordinates by level
        self._leja = [_leja_tables(d.canonical()) for d in dists]
        self._coords = [d.from_canonical(m.forward(leja[0]))
                        for d, m, leja in zip(dists, self.maps, self._leja)]

    @property
    def n_dim(self) -> int:
        return len(self.distributions)

    @property
    def value_shape(self):
        return self._value_shape

    @property
    def index_set(self) -> MultiIndexSet:
        return self._indices

    @property
    def indices(self):
        """Multi-indices in absorption order."""
        return list(self._indices)

    def __len__(self):
        return len(self._indices)

    def nodes1d(self, dim):
        """The 512 canonical Leja nodes of dimension ``dim``, as a new array."""
        if (dim := _count(dim, "dim")) >= self.n_dim:
            raise ContractError(f"dim must be below {self.n_dim}, got {dim}")
        return self._leja[dim][0].copy()

    # -- node bookkeeping ------------------------------------------------

    def _check_levels(self, index):
        """Refuse a level past the last shipped Leja node, naming its dimension."""
        for d, lev in enumerate(index):
            if lev >= _SHIPPED:
                raise ContractError(f"dimension {d} cannot reach level {lev}: levels "
                                    f"stop at {_SHIPPED - 1}, the last shipped Leja node")

    def node_point(self, index):
        """Physical grid point of a multi-index, read from the coordinate tables."""
        return self._node_point(_as_index(index, self.n_dim))

    def _node_point(self, index):
        """``node_point`` of an index tuple; checks its levels against the cap."""
        self._check_levels(index)
        return np.array([self._coords[d][lev] for d, lev in enumerate(index)])

    def node_points(self):
        """All grid points in absorption order, shape (len(self), N)."""
        levels = self._levels[:, :len(self)]
        return np.column_stack([coords[row] for coords, row in zip(self._coords, levels)])

    # -- evaluation ------------------------------------------------------

    def _preimages(self, pts):
        """Preimages of physical points, one ``inverse`` call per distinct map."""
        S = np.column_stack([dist.to_canonical(pts[:, d])
                             for d, dist in enumerate(self.distributions)])
        for g in dict.fromkeys(self.maps):
            cols = [d for d, m in enumerate(self.maps) if m == g]
            S[:, cols] = g._inverse(S[:, cols])
        return S

    def _surplus_values(self):
        """Live surpluses in absorption order, shape (len(self),) + value shape."""
        n = len(self)
        return self._surpluses[:n].reshape((n,) + (self._value_shape or ()))

    def _newton_tables(self, S, top):
        """Newton factor tables at preimages ``S``, levels 0..top[d] per dimension."""
        return [_newton_table(S[:, d], nodes, dens, top[d])
                for d, (nodes, dens, _) in enumerate(self._leja)]

    def _evaluate_pre(self, S):
        if not self._indices:
            raise ContractError("cannot evaluate an empty surrogate")
        top = self._indices.max_level()
        out = _prefix_sum(lambda rows: self._newton_tables(S[rows], top), len(S),
                          self._indices.depths(), self._surpluses[:len(self)])
        return out.reshape((len(S),) + self._value_shape)

    def _node_value(self, index):
        """Interpolant at the node of ``index``, bit for bit ``_evaluate_pre`` at the raw
        Leja coordinates: each member's weight is its levels' entries in the node-table
        rows of ``index``, multiplied left to right as the prefix tree does."""
        levels = self._levels[:, :len(self)]
        (_, _, first), *rest = self._leja
        w = first[index[0]].take(levels[0])
        for (_, _, table), lev, row in zip(rest, index[1:], levels[1:]):
            w *= table[lev].take(row)
        return _contract(w, self._surpluses[:len(self)]).reshape(self._value_shape)

    def evaluate(self, points):
        """Interpolant value at one point (N,) or a batch (P, N).

        Returns a complex scalar or array; raises a domain error when any
        coordinate leaves the support box.  A point's last bits can differ
        between a one-point call, a last block of one point and a larger block.
        """
        pts, single = _point_batch(points, self.n_dim)
        out = self._evaluate_pre(self._preimages(pts))
        if single:
            return out[0] if self._value_shape else complex(out[0])
        return out

    def hierarchical_basis(self, index, points):
        """Multivariate basis polynomial of ``index`` at physical points.

        The index must belong to the set or be admissible for it.  The
        level-0 factor is identically one.
        """
        index = _as_index(index, self.n_dim)
        # stored indices have all their parents too
        if not self._indices._has_parents(index):
            raise ContractError(
                f"index {index} is neither stored nor admissible")
        self._check_levels(index)
        pts, single = _point_batch(points, self.n_dim)
        out = _basis(self._newton_tables(self._preimages(pts), index), index)
        return float(out[0]) if single else out

    # -- construction ----------------------------------------------------

    def _as_value(self, value):
        """Complex array of the value shape, which the first value fixes."""
        value = np.asarray(value, dtype=complex)
        if self._value_shape is None:
            self._value_shape = value.shape
            self._surpluses = np.empty((_INITIAL_CAPACITY, value.size), dtype=complex)
        elif value.shape != self._value_shape:
            raise ContractError(
                f"value shape {value.shape} does not match {self._value_shape}")
        return value

    def _append(self, index, surplus):
        """Store an admissible tuple, levels checked, and its value-shaped surplus."""
        n = len(self)
        if n == len(self._surpluses):
            self._surpluses = np.concatenate(
                [self._surpluses, np.empty_like(self._surpluses)])
            self._levels = np.concatenate(
                [self._levels, np.empty_like(self._levels)], axis=1)
        self._surpluses[n] = surplus.reshape(-1)
        self._levels[:, n] = index
        self._indices._absorb(index)
        return self

    def add_point(self, index, model_value):
        """Absorb an admissible index with the model value at its node.

        The stored surplus is the difference between the value and the
        current interpolant's prediction at the node, so interpolation at
        all previously absorbed nodes is untouched.
        """
        index = self._indices._admissible(_as_index(index, self.n_dim))
        self._check_levels(index)
        return self._add(index, _finite(model_value, f"values at index {index}"))

    def _add(self, index, value):
        """``add_point`` of an admissible tuple whose levels are checked."""
        value = self._as_value(value)
        return self._append(index, value - self._node_value(index) if len(self) else value)

    def predict_node(self, index):
        """Current interpolant value at the grid node of ``index``, read from
        the node tables, so surplus computations are exact at the nodes."""
        index = _as_index(index, self.n_dim)
        if not self._indices:
            raise ContractError("cannot evaluate an empty surrogate")
        self._check_levels(index)
        out = self._node_value(index)
        return out if self._value_shape else complex(out)

    def surplus(self, index):
        index = _as_index(index, self.n_dim)
        row = self._indices.position(index)
        if row is None:
            raise ContractError(f"index {index} is not in the set")
        s = self._surplus_values()[row]
        return s if self._value_shape else complex(s)

    @classmethod
    def fit(cls, model, distributions, index_set, maps=None):
        """Interpolate a model on a fixed downward-closed index set.

        Indices are absorbed in lexicographic order, which refines the
        componentwise partial order, so every parent precedes its children.
        A linear-system model's nodes are solved as stacked bands.  A
        failing model call or a non-finite value raises a solve error
        naming the index and its point.
        """
        sur = cls(distributions, maps)
        order = MultiIndexSet(sur.n_dim, list(index_set)).sorted_indices()
        points = np.array([sur._node_point(ix) for ix in order]).reshape(-1, sur.n_dim)
        for ix, value in zip(order, _model_values(model, points, lambda p: f"index {order[p]}")):
            sur._add(ix, value)
        return sur

    def restrict(self, indices):
        """Copy of this surrogate keeping only the given indices.

        The kept set must be downward closed; surpluses carry over
        unchanged because every dropped index is incomparable to or above
        the kept ones.
        """
        keep = {_as_index(ix, self.n_dim) for ix in indices}
        missing = keep.difference(self._indices)
        if missing:
            raise ContractError(f"indices not in the surrogate: {sorted(missing)}")
        out = Surrogate(self.distributions, self.maps)
        for ix, s in zip(self._indices, self._surplus_values()):
            if ix in keep:
                out._append(out._indices._admissible(ix), out._as_value(s))
        return out

    def add_restricted(self, index, surplus):
        """Append a pre-computed surplus (restriction path)."""
        index = self._indices._admissible(_as_index(index, self.n_dim))
        self._check_levels(index)
        surplus = _finite(surplus, f"values at index {index}")
        return self._append(index, self._as_value(surplus))

    @classmethod
    def _from_document(cls, doc, surpluses) -> "Surrogate":
        """Surrogate of a document ``_read_evaluable`` accepted."""
        n_dim = doc["N"]
        for key in ("distributions", "maps", "nodes1d"):
            if not isinstance(doc[key], list) or len(doc[key]) != n_dim:
                raise SerializationError(f"'{key}' must list {n_dim} entries")
        indices = doc["indices"]
        if not isinstance(indices, list) or not indices:
            raise SerializationError("'indices' must be a non-empty list")
        if surpluses.shape[:1] != (len(indices),):
            raise SerializationError(
                "'indices', 'surpluses_re' and 'surpluses_im' lengths differ")
        try:
            dists = [make_distribution(d) for d in doc["distributions"]]
            maps = [make_map(m) for m in doc["maps"]]
        except (ValueError, TypeError) as exc:
            raise SerializationError(f"bad component spec: {exc}") from exc

        sur = cls(dists, maps)
        try:
            nodes1d = [np.asarray(col, dtype=float) for col in doc["nodes1d"]]
            for ix, s in zip(indices, surpluses):
                ix = sur._indices._admissible(_as_index(ix, n_dim))
                sur._append(ix, sur._as_value(_finite(s, f"values at index {ix}")))
            for d, top in enumerate(sur._indices.max_level()):
                if (n := nodes1d[d].size) <= top:
                    raise ContractError(f"'nodes1d' dimension {d} has {n} nodes, "
                                        f"needs {top + 1}")
                if not np.array_equal(nodes1d[d], sur._leja[d][0][:n]):
                    raise ContractError(f"'nodes1d' dimension {d} is not a prefix of the "
                                        f"{_SHIPPED} Leja nodes of {dists[d].kind}")
            # Σ_i max_k |s_ik| times a bound on every weight bounds every sum
            with np.errstate(over="ignore", invalid="ignore"):
                bound = np.abs(surpluses).reshape(len(sur), -1).max(1).sum() * np.prod(
                    [_FACTOR_BOUND[dist.kind] for dist in dists])
            if not bound < 2.0 ** 1020:
                raise ContractError("surpluses this large can overflow the interpolant")
        except (ValueError, TypeError) as exc:
            raise SerializationError(f"inconsistent surrogate data: {exc}") from exc
        return sur


# kind marker -> (name in messages, value key prefix, required keys);
# a surrogate document carries no marker
_FORMATS = {
    None: ("surrogate", "surpluses",
           ("N", "distributions", "maps", "nodes1d", "indices")),
    "gpc": ("expansion", "coefficients", ("N", "distributions", "p_max", "indices")),
}


def _write_evaluable(kind, fields, values):
    """UTF-8 JSON of a document of ``kind``; floats round trip exactly."""
    _, part, _ = _FORMATS[kind]
    doc = dict(fields, version=SCHEMA_VERSION)
    if kind is not None:
        doc["kind"] = kind
    doc[part + "_re"] = np.real(values).tolist()
    doc[part + "_im"] = np.imag(values).tolist()
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def _read_evaluable(data):
    """Parse a serialized surrogate or chaos expansion: (kind, document, values).

    Checks the JSON syntax, the top-level object, the version, the keys
    of the document's kind and its dimension count ``N``, and assembles
    the complex values from their real and imaginary parts.
    """
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise SerializationError(
            f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise SerializationError("top-level JSON value must be an object")
    kind = doc.get("kind")
    if kind not in _FORMATS:
        raise SerializationError(f"unknown document kind {kind!r}")
    name, part, keys = _FORMATS[kind]
    if doc.get("version") != SCHEMA_VERSION:
        raise UnsupportedVersionError(
            f"unsupported {name} version {doc.get('version')!r}, "
            f"expected {SCHEMA_VERSION}")
    for key in keys + (part + "_re", part + "_im"):
        if key not in doc:
            raise SerializationError(f"missing key '{key}'")
    try:
        _count(doc["N"], "N", 1)
    except ContractError as exc:
        raise SerializationError(f"invalid dimension: {exc}") from exc
    try:
        re = np.asarray(doc[part + "_re"], dtype=float)
        im = np.asarray(doc[part + "_im"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"ragged {part} arrays: {exc}") from exc
    if re.shape != im.shape:
        raise SerializationError(
            f"'{part}_re' has shape {re.shape}, '{part}_im' {im.shape}")
    # assigned by part: re + 1j * im would turn an imaginary -0.0 into 0.0
    values = np.empty(re.shape, dtype=complex)
    values.real, values.imag = re, im
    return kind, doc, values


def serialize(sur: Surrogate) -> bytes:
    """UTF-8 JSON encoding of a surrogate; floats round trip exactly."""
    if not len(sur):
        raise SerializationError("refusing to serialize an empty surrogate")
    max_lev = sur._indices.max_level()
    return _write_evaluable(None, {
        "N": sur.n_dim,
        "distributions": [d.spec() for d in sur.distributions],
        "maps": [m.spec() for m in sur.maps],
        "nodes1d": [nodes[:top + 1].tolist()
                    for (nodes, _, _), top in zip(sur._leja, max_lev)],
        "indices": [list(ix) for ix in sur.indices],
    }, sur._surplus_values())


def deserialize(data) -> Surrogate:
    """Rebuild a surrogate from its JSON encoding (bytes or str)."""
    kind, doc, surpluses = _read_evaluable(data)
    if kind is not None:
        raise SerializationError(f"a {kind!r} document is not a surrogate")
    return Surrogate._from_document(doc, surpluses)


def save_surrogate(sur: Surrogate, path):
    with open(path, "wb") as fh:
        fh.write(serialize(sur))


def load_surrogate(path) -> Surrogate:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
