"""Downward-closed multi-index sets for dimension-adaptive grids.

A multi-index is a tuple of non-negative per-dimension levels.  A set is
downward closed when every backward neighbor (one level lower in one
dimension) of every member is itself a member.  The adaptive algorithm
only ever grows a set by admissible forward neighbors, which preserves
closure; the checks here catch misuse early instead of producing a
silently broken interpolant.

With one new node per level in each dimension, grid points correspond
one-to-one with multi-indices, so the set size is also the node count.

The admissible frontier is kept incrementally, after the active/old index
sets of dimension-adaptive quadrature (Gerstner & Griebel 2003): adding an
index can only make its own forward neighbors admissible, so ``add`` costs
O(dim^2) tuple operations and ``admissible_neighbors`` only sorts the
frontier, whatever the size of the set.
"""
from __future__ import annotations

from math import comb

from .errors import ContractError


def _as_index(index, dim=None):
    try:
        t = tuple(int(c) for c in index)
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
    out = []
    for k, c in enumerate(index):
        if c > 0:
            out.append(index[:k] + (c - 1,) + index[k + 1:])
    return out


def forward_neighbors(index):
    """Indices one level higher in a single dimension."""
    index = _as_index(index)
    return [index[:k] + (index[k] + 1,) + index[k + 1:] for k in range(len(index))]


class MultiIndexSet:
    """Ordered, mutable, always downward-closed multi-index set.

    Iteration follows insertion order, which for sets built by the
    adaptive loop is the absorption order; ``sorted_indices`` gives the
    lexicographic view used for reproducible output.
    """

    def __init__(self, dim, indices=None):
        dim = int(dim)
        if dim < 1:
            raise ContractError("dimension must be at least 1")
        self.dim = dim
        self._order: list[tuple] = []
        self._members: set[tuple] = set()
        self._frontier: set[tuple] = set()
        if indices is None:
            indices = [(0,) * dim]
        for ix in indices:
            ix = _as_index(ix, dim)
            if ix not in self._members:
                self._members.add(ix)
                self._order.append(ix)
        missing = self._closure_defect()
        if missing is not None:
            raise ContractError(
                f"index set is not downward closed: {missing[0]} requires {missing[1]}")
        for ix in self._order:
            self._grow_frontier(ix)

    @classmethod
    def total_degree(cls, dim, degree):
        """All indices with level sum at most ``degree``."""
        if degree < 0:
            raise ContractError("degree must be non-negative")

        def rec(prefix, remaining, budget):
            if remaining == 1:
                for c in range(budget + 1):
                    yield prefix + (c,)
                return
            for c in range(budget + 1):
                yield from rec(prefix + (c,), remaining - 1, budget - c)

        return cls(dim, sorted(rec((), int(dim), int(degree))))

    @staticmethod
    def total_degree_size(dim, degree):
        return comb(dim + degree, dim)

    def _closure_defect(self):
        for ix in self._members:
            for nb in backward_neighbors(ix):
                if nb not in self._members:
                    return ix, nb
        return None

    def is_downward_closed(self) -> bool:
        return self._closure_defect() is None

    def __len__(self):
        return len(self._order)

    def __iter__(self):
        return iter(self._order)

    def __contains__(self, index):
        return tuple(index) in self._members

    def sorted_indices(self):
        return sorted(self._members)

    def _has_parents(self, index):
        """All backward neighbors of a validated tuple are members."""
        members = self._members
        for k, c in enumerate(index):
            if c and index[:k] + (c - 1,) + index[k + 1:] not in members:
                return False
        return True

    def _grow_frontier(self, index):
        """Admit the forward neighbors of a member that became admissible."""
        for k in range(self.dim):
            fwd = index[:k] + (index[k] + 1,) + index[k + 1:]
            if fwd not in self._members and self._has_parents(fwd):
                self._frontier.add(fwd)

    def is_admissible(self, index) -> bool:
        """True when ``index`` is absent and all its parents are present."""
        index = _as_index(index, self.dim)
        return index not in self._members and self._has_parents(index)

    def admissible_neighbors(self):
        """Forward neighbors that keep the set downward closed, lex order."""
        return sorted(self._frontier)

    def add(self, index):
        """Absorb an admissible index; reject anything else."""
        index = _as_index(index, self.dim)
        if index in self._members:
            raise ContractError(f"index {index} is already in the set")
        if not self._has_parents(index):
            raise ContractError(f"index {index} is not admissible")
        self._absorb(index)
        return index

    def _absorb(self, index):
        """Add a validated admissible tuple without re-checking it."""
        self._members.add(index)
        self._order.append(index)
        self._frontier.discard(index)
        self._grow_frontier(index)

    def max_level(self):
        """Componentwise maximum over the set, as a tuple."""
        out = [0] * self.dim
        for ix in self._order:
            for k, c in enumerate(ix):
                if c > out[k]:
                    out[k] = c
        return tuple(out)

    def __repr__(self):
        return f"MultiIndexSet(dim={self.dim}, size={len(self)})"
