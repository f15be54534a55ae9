"""Weighted Leja node sequences on the canonical interval.

Nodes are grown greedily: the next node maximizes the square-root-weighted
distance product sqrt(rho(y)) * prod_k |y - y_k| over [-1, 1].  The search
runs in log space on a fine uniform candidate grid and polishes the winner
with a golden-section pass, which keeps the whole construction
deterministic.  Sequences are nested by construction, so one growing
sequence per weight law serves every approximation level.

``LejaSequence`` generates any count of nodes; the first 512 of each law,
all a surrogate can hold and all ``leja_nodes`` serves, are read once per
process from ``leja_nodes.json``, which this regenerates at the repository root:
``PYTHONPATH=src python -c "import json, adaleja as al; json.dump({l.kind: al.LejaSequence(l).extend_to(512).nodes.tolist() for l in (al.beta33(-1, 1), al.uniform(-1, 1))}, open('src/adaleja/leja_nodes.json', 'w'))"``
"""
from __future__ import annotations

import json
import os
from functools import cache

import numpy as np

from .distributions import Distribution
from .errors import ContractError, _count

# Candidate grid resolution for the exhaustive scan.
GRID_POINTS = 100_001

# Grid objective values within this slack of the maximum count as ties;
# the smallest abscissa among them wins.
_TIE_SLACK = 1e-10

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_SHIPPED = 512      # nodes per law in leja_nodes.json


class LejaSequence:
    """Growing weighted Leja sequence for one canonical law.

    The first node sits at the weight's mode (the origin for both built-in
    laws).  ``next_node`` appends and returns one more node; ``nodes``
    exposes the sequence built so far.
    """

    def __init__(self, law: Distribution):
        self._law = law.canonical()
        self._grid = np.linspace(-1.0, 1.0, GRID_POINTS)
        with np.errstate(divide="ignore"):
            self._half_log_w = 0.5 * np.log(self._law.pdf(self._grid))
        self._nodes = np.zeros(1)     # grows by one per node
        with np.errstate(divide="ignore"):
            self._log_prod = np.log(np.abs(self._grid))

    @property
    def nodes(self):
        return np.array(self._nodes)

    def __len__(self):
        return len(self._nodes)

    def _objective(self, y):
        """Log of sqrt(rho(y)) * prod |y - y_k| at a scalar point."""
        w = self._law.pdf(y)
        if w <= 0.0:
            return -np.inf
        d = np.abs(y - self._nodes)
        if not d.all():
            return -np.inf
        return 0.5 * np.log(w) + float(np.log(d).sum())

    def next_node(self) -> float:
        obj = self._half_log_w + self._log_prod
        top = np.max(obj)
        ties = np.flatnonzero(obj >= top - _TIE_SLACK)
        i = int(ties[0])
        lo = self._grid[max(i - 1, 0)]
        hi = self._grid[min(i + 1, GRID_POINTS - 1)]
        y = _golden_max(self._objective, lo, hi)
        if self._objective(y) < obj[i]:
            y = float(self._grid[i])
        self._nodes = np.append(self._nodes, y)
        # the grid objective is spent: its array takes log |grid - y|
        np.abs(np.subtract(self._grid, y, out=obj), out=obj)
        with np.errstate(divide="ignore"):
            self._log_prod += np.log(obj, out=obj)
        return y

    def extend_to(self, count: int):
        count = _count(count, "count")
        while len(self._nodes) < count:
            self.next_node()
        return self


def _golden_max(fun, lo, hi):
    """Golden-section maximization of a scalar function on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = fun(c), fun(d)
    while b - a > 1e-14:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = fun(d)
    return c if fc >= fd else d


@cache
def _shipped():
    """The shipped nodes by law kind."""
    with open(os.path.join(os.path.dirname(__file__), "leja_nodes.json"), "rb") as fh:
        return {kind: np.array(nodes) for kind, nodes in json.load(fh).items()}


def leja_nodes(law: Distribution, count: int):
    """First ``count`` canonical Leja nodes for the law's shape, as a new array.

    The sequence depends only on the law kind (all supports collapse to the
    same canonical weight).  A count past the 512 shipped nodes is refused;
    ``LejaSequence`` generates more.
    """
    if (count := _count(count, "count")) > _SHIPPED:
        raise ContractError(f"count must be at most {_SHIPPED}, the shipped Leja "
                            f"nodes per law, got {count}")
    return _shipped()[law.kind][:count].copy()
