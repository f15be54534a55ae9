"""Downward-closed multi-index sets for dimension-adaptive grids.

A multi-index is a tuple of non-negative per-dimension levels.  A set is
downward closed when every backward neighbor (one level lower in one
dimension) of every member is itself a member.  The adaptive algorithm
only ever grows a set by admissible forward neighbors, which preserves
closure.  Public methods check an index once, with ``_as_index``, so
misuse fails early; the adaptive loop and surrogates pass their tuples
to the unchecked ``_admissible``, ``_absorb`` and ``_admissible_forward``.

With one new node per level in each dimension, grid points correspond
one-to-one with multi-indices, so the set size is also the node count.

The adaptive loop keeps the frontier itself.  Adding an index can only
make its own forward neighbors admissible (the active/old index sets of
Gerstner & Griebel 2003), so the loop asks the set for those of each
accepted index; ``admissible_neighbors`` rebuilds the whole frontier on
demand from the members.

The set also carries the prefix tree of its members, which the batch
kernel of the surrogates and chaos expansions sums over: one row per
distinct leading part of the members, appended as members arrive.  The
members are the full-length prefixes, so one dictionary answers
membership and a member's insertion rank in O(1).
"""
from __future__ import annotations

import operator
from math import comb

import numpy as np

from .errors import ContractError, _count

# Rows allocated by the first append; the arrays double from there.
_INITIAL_CAPACITY = 16
# Most indices ``total_degree`` enumerates: about 50 MB and 1 s of set.
MAX_TOTAL_DEGREE_SIZE = 100_000


def _as_index(index, dim=None):
    """Tuple of the integer entries of ``index``; floats, booleans and
    strings are refused, not truncated."""
    try:
        t = tuple(index)
        if bool in map(type, t):
            raise TypeError("boolean entry")
        t = tuple(map(operator.index, t))
    except TypeError as exc:
        raise ContractError(f"multi-index must be an integer tuple, got {index!r}") from exc
    if any(c < 0 for c in t):
        raise ContractError(f"multi-index has a negative entry: {t}")
    if dim is not None and len(t) != dim:
        raise ContractError(f"multi-index {t} has dimension {len(t)}, expected {dim}")
    return t


def backward_neighbors(index):
    """Indices one level lower in a single dimension (skips zero levels)."""
    index = _as_index(index)
    return [index[:k] + (c - 1,) + index[k + 1:] for k, c in enumerate(index) if c]


def forward_neighbors(index):
    """Indices one level higher in a single dimension."""
    index = _as_index(index)
    return [index[:k] + (index[k] + 1,) + index[k + 1:] for k in range(len(index))]


class MultiIndexSet:
    """Ordered, mutable, always downward-closed multi-index set.

    Iteration follows insertion order, which for sets built by the
    adaptive loop is the absorption order; ``sorted_indices`` gives the
    lexicographic view used for reproducible output.

    Depth k = 1..dim of the prefix tree has one row per distinct k-prefix
    of the members, in order of first appearance, holding the row of its
    (k-1)-prefix (0 at depth 1) and its last level.  The depth-dim rows
    are the members in insertion order.
    """

    def __init__(self, dim, indices=None):
        self.dim = dim = _count(dim, "dimension", 1)
        self._order: list[tuple] = []
        self._rows: dict[tuple, int] = {}   # every prefix -> its row at its depth
        self._count = [0] * dim
        # [k, 0] parent rows and [k, 1] levels of depth k + 1
        self._table = np.empty((dim, 2, _INITIAL_CAPACITY), dtype=np.intp)
        self._depths = None
        if indices is None:
            indices = [(0,) * dim]
        for ix in indices:
            ix = _as_index(ix, dim)
            if ix not in self._rows:
                self._absorb(ix)
        missing = self._closure_defect()
        if missing is not None:
            raise ContractError(
                f"index set is not downward closed: {missing[0]} requires {missing[1]}")

    @classmethod
    def total_degree(cls, dim, degree):
        """All indices with level sum at most ``degree``; a set of more than
        ``MAX_TOTAL_DEGREE_SIZE`` indices is refused before it is built."""
        if cls.total_degree_size(dim, degree) > MAX_TOTAL_DEGREE_SIZE:
            raise ContractError(f"degree {degree} in {dim} dimensions gives more than "
                                f"{MAX_TOTAL_DEGREE_SIZE} total-degree indices")

        def rec(prefix, remaining, budget):
            if remaining == 1:
                for c in range(budget + 1):
                    yield prefix + (c,)
                return
            for c in range(budget + 1):
                yield from rec(prefix + (c,), remaining - 1, budget - c)

        return cls(dim, sorted(rec((), dim, degree)))

    @staticmethod
    def total_degree_size(dim, degree):
        dim = _count(dim, "dimension", 1)
        return comb(dim + _count(degree, "degree"), dim)

    def _closure_defect(self):
        for ix in self._order:
            if not self._has_parents(ix):
                return ix, next(nb for nb in backward_neighbors(ix) if nb not in self._rows)
        return None

    def is_downward_closed(self) -> bool:
        return self._closure_defect() is None

    def __len__(self):
        return len(self._order)

    def __iter__(self):
        return iter(self._order)

    def __contains__(self, index):
        return self.position(index) is not None

    def sorted_indices(self):
        return sorted(self._order)

    def position(self, index):
        """Insertion rank of a member, or None for anything else."""
        try:    # the dimension check keeps prefixes, shorter keys of _rows, out
            return self._rows.get(_as_index(index, self.dim))
        except ContractError:
            return None

    def depths(self):
        """(parent rows, levels) of each depth of the prefix tree, as arrays."""
        if self._depths is None:
            self._depths = [(t[0, :c], t[1, :c])
                            for t, c in zip(self._table, self._count)]
        return self._depths

    def _has_parents(self, index):
        """All backward neighbors of a validated tuple are members."""
        rows = self._rows
        for k, c in enumerate(index):
            if c and index[:k] + (c - 1,) + index[k + 1:] not in rows:
                return False
        return True

    def _admissible_forward(self, index):
        """Admissible forward neighbors of a member tuple, lex order."""
        fwds = (index[:k] + (index[k] + 1,) + index[k + 1:]
                for k in reversed(range(self.dim)))     # a later raise is lex smaller
        return [f for f in fwds if f not in self._rows and self._has_parents(f)]

    def is_admissible(self, index) -> bool:
        """True when ``index`` is absent and all its parents are present."""
        index = _as_index(index, self.dim)
        return index not in self._rows and self._has_parents(index)

    def admissible_neighbors(self):
        """Forward neighbors that keep the set downward closed, lex order."""
        return sorted({fwd for ix in self._order for fwd in self._admissible_forward(ix)})

    def _admissible(self, index):
        """An index tuple, refused when it is a member or lacks a parent."""
        if index in self._rows:
            raise ContractError(f"index {index} is already in the set")
        if not self._has_parents(index):
            raise ContractError(f"index {index} is not admissible")
        return index

    def add(self, index):
        """Absorb an admissible index; reject anything else."""
        return self._absorb(self._admissible(_as_index(index, self.dim)))

    def _absorb(self, index):
        """Add a validated absent tuple without re-checking it; returns it."""
        self._order.append(index)
        self._depths = None
        parent = 0
        for k in range(self.dim):
            prefix = index[:k + 1]
            row = self._rows.get(prefix)
            if row is None:
                row = self._rows[prefix] = self._count[k]
                if row == self._table.shape[2]:
                    self._table = np.concatenate(
                        [self._table, np.empty_like(self._table)], axis=2)
                self._table[k, :, row] = parent, index[k]
                self._count[k] += 1
            parent = row
        return index

    def max_level(self):
        """Componentwise maximum over the set, as a tuple; zeros when empty."""
        return tuple(int(levels.max(initial=0)) for _, levels in self.depths())

    def __repr__(self):
        return f"MultiIndexSet(dim={self.dim}, size={len(self)})"
