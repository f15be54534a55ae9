"""Mapped hierarchical sparse-grid interpolants.

A surrogate is a sum of hierarchical surpluses times multivariate basis
polynomials.  Each univariate factor is a Newton-style ratio built on the
canonical Leja nodes of its dimension, evaluated at the conformal-map
preimage of the canonical coordinate, so the interpolant is a polynomial
composed with the inverse map.  With one new node per level, every
multi-index owns exactly one grid point and one surplus.

Surpluses may be complex scalars (quantity-of-interest surrogates) or
complex vectors (solution-field surrogates); both share the same code
path.  Finished surrogates serialize to a self-contained JSON document.

Every way of growing a surrogate (``add_point``, ``add_restricted``,
``restrict`` and ``deserialize``) writes through one append path into a
flat surplus array whose capacity doubles when full, and into the
surrogate's ``MultiIndexSet``, which carries the prefix tree of the
indices and finds an index's surplus in O(1).  Absorbing an index costs
one prediction at its node plus amortized O(1) bookkeeping, and
evaluation reads these without rebuilding them.

Batch evaluation is ``_prefix_sum``, the one kernel ``gpc`` shares: sum
factorization over the prefix tree (Orszag 1980) of the hierarchical
interpolant of Chkifa, Cohen & Schwab (2014).  Points go in cache-sized
blocks; at each depth, the weight rows of the distinct prefixes are
their parents' rows times one row of a per-dimension table laid out as
levels by points.  Node predictions run the same kernel on one column of
per-dimension node tables, which are built once per node level, so a
prediction builds no tables.  Both evaluables are read back through
``_read_evaluable``.

The physical coordinate of every node is tabulated per dimension and
level, so ``node_point`` is one table lookup per dimension.  The table is
filled lazily, by ``node_point``, over the missing levels in one
vectorized map and distribution call: stored nodes are checked against
[-1, 1] only there, so a corrupt node raises when its point is asked
for, never while a surrogate is loaded or restricted.
"""
from __future__ import annotations

import json

import numpy as np

from .distributions import make_distribution
from .errors import (ContractError, SerializationError, SolveError,
                     UnsupportedVersionError, _count)
from .grid import _INITIAL_CAPACITY, MultiIndexSet, _as_index
from .leja import leja_nodes
from .maps import ConformalMap, IdentityMap, make_map

SCHEMA_VERSION = 1

# Points per block of the batch kernel, so that a block's weight rows
# stay in cache.
_BLOCK = 256


def _prefix_sum(tables, n_pts, plan, coeffs):
    """Σ_i coeffs[i] Π_d T_d[levels[i, d]] at ``n_pts`` points, shape (n_pts, k).

    ``tables(rows)`` gives the tables T_d of the points in the slice
    ``rows``, one row per level and one column per point (or, for one
    point, one value per level).  ``plan`` is ``MultiIndexSet.depths()`` of
    the indices, in the order of the rows of the complex ``coeffs``.
    Points go in blocks of ``_BLOCK``; per depth, a block's weight rows
    are one gather of their parents' rows times one gather of table rows
    (sum factorization over the prefix tree of the index set).
    """
    out = np.empty((n_pts, coeffs.shape[1]), dtype=complex)
    re, im = coeffs.real, coeffs.imag
    # three weight buffers reused by every block and depth, since fresh
    # arrays of this size are often fresh pages; mode "clip" lets take
    # write straight into them (every row number is in range)
    size = len(plan[-1][1])     # depth N, one row per index, is the widest
    buffers = None
    for start in range(0, n_pts, _BLOCK):
        rows = slice(start, start + _BLOCK)
        first, *rest = tables(rows)
        if buffers is None or buffers[0].shape[1:] != first.shape[1:]:
            buffers = [np.empty((size,) + first.shape[1:]) for _ in range(3)]
        spare, weights, gathered = buffers
        levels = plan[0][1]
        w = first.take(levels, 0, weights[:len(levels)], "clip")
        for table, (parents, levels) in zip(rest, plan[1:]):
            spare, weights = weights, spare
            w = w.take(parents, 0, weights[:len(parents)], "clip")
            w *= table.take(levels, 0, gathered[:len(levels)], "clip")
        # frozen: node predictions round through these two products, whose
        # last bits break exact surplus ties and so decide the accepted order
        out[rows] = w.T @ re + 1j * (w.T @ im)
    return out


def _basis(tables, index):
    """Π_d tables[d][index[d]]: one basis function at the tables' points."""
    out = tables[0][index[0]]
    for table, level in zip(tables[1:], index[1:]):
        out = out * table[level]
    return out


def _newton_table(x, nodes, dens, top):
    """Newton factors Π_{j<l} (x - nodes[j]) / dens[l], l = 0..top.

    One row per level and one column per point of ``x``.
    """
    fac = np.empty((top + 1, len(x)))
    fac[0] = 1.0
    np.cumprod(x - nodes[:top, None], axis=0, out=fac[1:])
    fac[1:] /= dens[1:top + 1, None]
    return fac


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
        raise ContractError(f"got {len(out)} maps for {n_dim} dimensions")
    return out


def _model_value(model, x, label, scalar=False):
    """Model value at the point ``x``, as a complex array: the one checked call.

    A model exception, or a non-finite value (scalar or any vector
    entry), raises a solve error naming ``label`` and the point; with
    ``scalar``, a vector value raises a contract error.
    """
    try:
        value = np.asarray(model(x), dtype=complex)
    except SolveError:
        raise
    except Exception as exc:
        raise SolveError(f"model evaluation failed at {label}: {exc}",
                         point=x) from exc
    if not np.isfinite(value).all():
        raise SolveError(f"non-finite model value {value} at {label}", point=x)
    if scalar and value.ndim:
        raise ContractError(f"expected a scalar model, got shape {value.shape} "
                            f"at {label}")
    return value


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
        self._nodes1d = [np.empty(0) for _ in dists]
        self._dens = [np.empty(0) for _ in dists]
        # per dimension, Newton factor of level l at node j in [l, j]
        self._node_tables = [np.empty((0, 0)) for _ in dists]
        # per dimension, physical coordinate of the node of level l at [l];
        # filled by node_point, emptied by _set_nodes
        self._coords = [np.empty(0) for _ in dists]

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
        return self._nodes1d[dim].copy()

    # -- node bookkeeping ------------------------------------------------

    def _set_nodes(self, dim, nodes):
        """Install canonical nodes of one dimension, their Newton
        denominators and the table of Newton factors at the nodes, and
        mark its coordinate table stale."""
        dens = np.array([np.prod(nodes[l] - nodes[:l]) for l in range(len(nodes))])
        self._nodes1d[dim], self._dens[dim] = nodes, dens
        self._node_tables[dim] = _newton_table(nodes, nodes, dens, len(nodes) - 1)
        self._coords[dim] = np.empty(0)

    def _ensure_levels(self, index):
        for d, lev in enumerate(index):
            have = len(self._nodes1d[d])
            if lev + 1 > have:
                nodes = leja_nodes(self.distributions[d], lev + 1)
                if not np.array_equal(nodes[:have], self._nodes1d[d]):
                    raise ContractError(
                        f"stored nodes of dimension {d} are not the Leja "
                        f"prefix of {self.distributions[d].kind}; refusing to "
                        f"extend them to level {lev}")
                self._set_nodes(d, nodes)

    def _coordinates(self, dim, lev):
        """Coordinate table of one dimension, filled up to level ``lev``.

        The missing levels are mapped in one call; a node outside
        [-1, 1] raises a domain error and leaves the table as it was.
        """
        table = self._coords[dim]
        if lev >= len(table):
            mapped = self.maps[dim].forward(self._nodes1d[dim][len(table):lev + 1])
            table = self._coords[dim] = np.concatenate(
                [table, self.distributions[dim].from_canonical(mapped)])
        return table

    def node_point(self, index):
        """Physical-coordinate grid point owned by a multi-index.

        Reads the per-dimension coordinate tables, extending a table over
        the levels up to ``index`` that it lacks.  Filling them here rather
        than when nodes are installed keeps a corrupt stored node from
        failing ``deserialize`` or ``restrict``: it raises a domain error
        here, once its level or a higher one is asked for.
        """
        index = _as_index(index, self.n_dim)
        self._ensure_levels(index)
        return np.array([self._coordinates(d, lev)[lev]
                         for d, lev in enumerate(index)])

    def node_points(self):
        """All grid points in absorption order, shape (len(self), N)."""
        if not len(self):
            return np.empty((0, self.n_dim))
        levels = np.array(self.indices)
        return np.column_stack([self._coordinates(d, top)[levels[:, d]]
                                for d, top in enumerate(self._indices.max_level())])

    # -- evaluation ------------------------------------------------------

    def _preimages(self, pts):
        """Map physical points to the polynomial coordinate, columnwise."""
        cols = []
        for d in range(self.n_dim):
            y = self.distributions[d].to_canonical(pts[:, d])
            cols.append(np.asarray(self.maps[d].inverse(y)))
        return np.column_stack(cols)

    def _surplus_values(self):
        """Live surpluses in absorption order, shape (len(self),) + value shape."""
        n = len(self)
        return self._surpluses[:n].reshape((n,) + (self._value_shape or ()))

    def _newton_tables(self, S, top):
        """Newton factor tables at preimages ``S``, levels 0..top[d] per dimension."""
        return [_newton_table(S[:, d], self._nodes1d[d], self._dens[d], top[d])
                for d in range(self.n_dim)]

    def _sum(self, tables, n_pts):
        """The live surpluses summed by the kernel over ``tables``."""
        n = len(self)
        out = _prefix_sum(tables, n_pts, self._indices.depths(), self._surpluses[:n])
        return out.reshape((n_pts,) + self._value_shape)

    def _evaluate_pre(self, S):
        top = self._indices.max_level()
        return self._sum(lambda rows: self._newton_tables(S[rows], top), len(S))

    def _node_value(self, index):
        """Interpolant at the node of ``index``, from the node tables.

        Equals ``_evaluate_pre`` at the raw Leja coordinates, skipping the
        map round trip, so surplus computations are exact at the nodes.
        """
        cols = [t[:, lev] for t, lev in zip(self._node_tables, index)]
        return self._sum(lambda rows: cols, 1)[0]

    def evaluate(self, points):
        """Interpolant value at one point (N,) or a batch (P, N).

        Returns a complex scalar or array; raises a domain error when any
        coordinate leaves the support box.
        """
        if not self._indices:
            raise ContractError("cannot evaluate an empty surrogate")
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
        self._ensure_levels(index)
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
        """Store a checked admissible index and its surplus: the one write path."""
        n = len(self)
        if n == len(self._surpluses):
            self._surpluses = np.concatenate(
                [self._surpluses, np.empty_like(self._surpluses)])
        self._surpluses[n] = surplus.reshape(-1)
        self._indices._absorb(index)

    def add_point(self, index, model_value):
        """Absorb an admissible index with the model value at its node.

        The stored surplus is the difference between the value and the
        current interpolant's prediction at the node, so interpolation at
        all previously absorbed nodes is untouched.
        """
        index = self._indices._admissible(index)
        value = self._as_value(model_value)
        self._ensure_levels(index)
        if len(self._indices):
            value = value - self._node_value(index)
        self._append(index, value)
        return self

    def predict_node(self, index):
        """Current interpolant value at the grid node of ``index``.

        Reads the per-dimension node tables, so surplus computations
        are exact at the nodes.
        """
        index = _as_index(index, self.n_dim)
        if not self._indices:
            raise ContractError("cannot evaluate an empty surrogate")
        self._ensure_levels(index)
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
        A failing model call or a non-finite value raises a solve error
        naming the index and its point.
        """
        sur = cls(distributions, maps)
        for ix in sorted(tuple(i) for i in index_set):
            sur.add_point(ix, _model_value(model, sur.node_point(ix), f"index {ix}"))
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
        for d, col in enumerate(self._nodes1d):
            out._set_nodes(d, col.copy())
        for ix, s in zip(self._indices, self._surplus_values()):
            if ix in keep:
                out.add_restricted(ix, s)
        return out

    def add_restricted(self, index, surplus):
        """Append a pre-computed surplus (restriction path)."""
        index = self._indices._admissible(index)
        surplus = self._as_value(surplus)
        self._ensure_levels(index)
        self._append(index, surplus)
        return self

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
            indices = [_as_index(ix, n_dim) for ix in indices]
            for d in range(n_dim):
                need = max(ix[d] for ix in indices) + 1
                if len(nodes1d[d]) < need:
                    raise ContractError(f"'nodes1d' dimension {d} has "
                                        f"{len(nodes1d[d])} nodes, needs {need}")
                sur._set_nodes(d, nodes1d[d])
            for ix, s in zip(indices, surpluses):
                sur.add_restricted(ix, s)
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
        "nodes1d": [sur._nodes1d[d][:max_lev[d] + 1].tolist()
                    for d in range(sur.n_dim)],
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
