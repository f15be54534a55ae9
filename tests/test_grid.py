from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaleja import MultiIndexSet, backward_neighbors, forward_neighbors
from adaleja.errors import ContractError


class TestNeighbors:
    def test_backward(self):
        assert backward_neighbors((2, 0, 1)) == [(1, 0, 1), (2, 0, 0)]
        assert backward_neighbors((0, 0)) == []

    def test_forward(self):
        assert forward_neighbors((1, 2)) == [(2, 2), (1, 3)]


class TestConstruction:
    def test_default_is_root(self):
        s = MultiIndexSet(3)
        assert list(s) == [(0, 0, 0)]

    def test_explicit_indices(self):
        s = MultiIndexSet(2, [(0, 0), (1, 0), (0, 1)])
        assert len(s) == 3

    def test_rejects_non_downward_closed(self):
        with pytest.raises(ContractError):
            MultiIndexSet(2, [(0, 0), (2, 0)])
        with pytest.raises(ContractError):
            MultiIndexSet(1, [(1,)])

    def test_rejects_bad_indices(self):
        # negative, wrong length, fractional, boolean, string, not a sequence
        for bad in [(-1, 0), (0, 0, 0), (1.7, 0), (1.0, 0), (True, 0),
                    (0, "1"), "10", 5, (np.float64(1.0), 0), (np.bool_(True), 0)]:
            with pytest.raises(ContractError):
                MultiIndexSet(2, [(0, 0), bad])
            with pytest.raises(ContractError):
                MultiIndexSet(2).add(bad)
            with pytest.raises(ContractError):
                MultiIndexSet(2).is_admissible(bad)
        for degree in [2.5, 2.0, True, "2", -1]:
            with pytest.raises(ContractError):
                MultiIndexSet.total_degree(2, degree)
            with pytest.raises(ContractError):
                MultiIndexSet.total_degree_size(2, degree)
        # dimensions too: 2.7 built a 2-D set, 0 recursed without end
        for dim in [2.7, 2.0, True, "2", 0, -1]:
            with pytest.raises(ContractError):
                MultiIndexSet(dim)
            with pytest.raises(ContractError):
                MultiIndexSet.total_degree(dim, 2)
            with pytest.raises(ContractError):
                MultiIndexSet.total_degree_size(dim, 2)
        # numpy integers are integers
        assert (0, 1) in MultiIndexSet(2, [(0, 0), (np.int64(0), np.int32(1))])
        assert len(MultiIndexSet.total_degree(2, np.int64(2))) == 6
        assert MultiIndexSet.total_degree_size(np.int64(2), np.int64(2)) == 6
        assert MultiIndexSet(np.int64(3)).dim == 3

    def test_empty_allowed(self):
        assert len(MultiIndexSet(2, [])) == 0


class TestTotalDegree:
    @pytest.mark.parametrize("dim,deg", [(1, 5), (2, 3), (3, 4), (5, 4)])
    def test_size(self, dim, deg):
        s = MultiIndexSet.total_degree(dim, deg)
        assert len(s) == comb(dim + deg, dim)

    def test_members(self):
        s = MultiIndexSet.total_degree(2, 2)
        assert set(s) == {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}

    def test_downward_closed(self):
        s = MultiIndexSet.total_degree(3, 5)
        for ix in s:
            for b in backward_neighbors(ix):
                assert b in s


class TestAdmissibility:
    def test_root_neighbors(self):
        s = MultiIndexSet(2)
        assert s.admissible_neighbors() == [(0, 1), (1, 0)]

    def test_is_admissible(self):
        s = MultiIndexSet(2, [(0, 0), (1, 0)])
        assert s.is_admissible((2, 0))
        assert s.is_admissible((0, 1))
        assert not s.is_admissible((1, 1))   # parent (0,1) missing
        assert not s.is_admissible((1, 0))   # already present

    def test_add_admissible(self):
        s = MultiIndexSet(2)
        s.add((1, 0))
        s.add((0, 1))
        s.add((1, 1))
        assert (1, 1) in s

    def test_add_rejects_non_admissible(self):
        s = MultiIndexSet(2)
        with pytest.raises(ContractError):
            s.add((1, 1))
        with pytest.raises(ContractError):
            s.add((0, 0))

    def test_neighbors_sorted_lexicographically(self):
        s = MultiIndexSet(3, [(0, 0, 0), (1, 0, 0), (0, 1, 0)])
        ns = s.admissible_neighbors()
        assert ns == sorted(ns)

    def test_closure_preserved_under_admissible_growth(self):
        """Randomly accepting admissible neighbors keeps the set closed."""
        rng = np.random.default_rng(17)
        s = MultiIndexSet(3)
        for _ in range(60):
            options = s.admissible_neighbors()
            pick = options[rng.integers(len(options))]
            s.add(pick)
            for ix in s:
                for b in backward_neighbors(ix):
                    assert b in s


class TestEnumeration:
    def test_insertion_order_iteration(self):
        s = MultiIndexSet(2)
        s.add((1, 0))
        s.add((0, 1))
        assert list(s) == [(0, 0), (1, 0), (0, 1)]

    def test_sorted_indices(self):
        s = MultiIndexSet(2)
        s.add((0, 1))
        s.add((1, 0))
        assert s.sorted_indices() == [(0, 0), (0, 1), (1, 0)]

    def test_max_level(self):
        s = MultiIndexSet.total_degree(2, 4)
        assert s.max_level() == (4, 4)
        t = MultiIndexSet(2, [(0, 0), (1, 0), (2, 0), (0, 1)])
        assert t.max_level() == (2, 1)

    def test_membership(self):
        s = MultiIndexSet.total_degree(2, 1)
        assert (0, 1) in s and (1, 1) not in s


def brute_force_frontier(s):
    """Rescan of every member: forward neighbors whose parents are all present."""
    found = set()
    for ix in s:
        for fwd in forward_neighbors(ix):
            if fwd not in s and all(b in s for b in backward_neighbors(fwd)):
                found.add(fwd)
    return sorted(found)


def grow(s, data, steps):
    """Absorb randomly drawn admissible neighbors, checking the frontier each time."""
    for _ in range(steps):
        s.add(data.draw(st.sampled_from(s.admissible_neighbors())))
        assert s.admissible_neighbors() == brute_force_frontier(s)
    return s


class TestIncrementalFrontier:
    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 6), steps=st.integers(0, 40), data=st.data())
    def test_growth_matches_brute_force(self, dim, steps, data):
        s = MultiIndexSet(dim)
        assert s.admissible_neighbors() == brute_force_frontier(s)
        grow(s, data, steps)

    @settings(max_examples=40, deadline=None)
    @given(dim=st.integers(1, 6), steps=st.integers(0, 30), data=st.data())
    def test_constructor_matches_brute_force(self, dim, steps, data):
        grown = grow(MultiIndexSet(dim), data, steps)
        members = data.draw(st.permutations(list(grown)))
        rebuilt = MultiIndexSet(dim, members)
        assert rebuilt.admissible_neighbors() == brute_force_frontier(rebuilt)
        assert rebuilt.admissible_neighbors() == grown.admissible_neighbors()
        grow(rebuilt, data, 5)

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(1, 6), degree=st.integers(0, 4), data=st.data())
    def test_total_degree_matches_brute_force(self, dim, degree, data):
        s = MultiIndexSet.total_degree(dim, degree)
        frontier = s.admissible_neighbors()
        assert frontier == brute_force_frontier(s)
        assert all(sum(ix) == degree + 1 for ix in frontier)
        assert len(frontier) == comb(dim + degree, dim - 1)
        grow(s, data, 5)

    def test_empty_set_has_empty_frontier(self):
        s = MultiIndexSet(3, [])
        assert s.admissible_neighbors() == []
        s.add((0, 0, 0))
        assert s.admissible_neighbors() == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def brute_force_depths(members, dim):
    """Per depth, the parent rows and levels of the distinct prefixes of
    ``members``, in order of first appearance."""
    out = []
    for k in range(1, dim + 1):
        parents = list(dict.fromkeys(ix[:k - 1] for ix in members))
        prefixes = list(dict.fromkeys(ix[:k] for ix in members))
        out.append(([parents.index(p[:-1]) for p in prefixes],
                    [p[-1] for p in prefixes]))
    return out


def check_prefix_tree(s, members):
    """The set's prefix tree, ranks and maximum against a brute-force rescan."""
    dim = s.dim
    assert list(s) == members
    got = [(list(parents), list(levels)) for parents, levels in s.depths()]
    assert got == brute_force_depths(members, dim)
    for rank, ix in enumerate(members):
        assert s.position(ix) == rank
        for k in range(dim):     # strict prefixes are rows, not members
            assert ix[:k] not in s and s.position(ix[:k]) is None
        assert ix + (0,) not in s and s.position(ix + (0,)) is None
    for ix in s.admissible_neighbors():
        assert ix not in s and s.position(ix) is None
    top = tuple(max((ix[k] for ix in members), default=0) for k in range(dim))
    assert s.max_level() == top


class TestPrefixTree:
    @settings(max_examples=60, deadline=None)
    @given(dim=st.integers(1, 6), steps=st.integers(0, 40), data=st.data())
    def test_grown_and_rebuilt_match_brute_force(self, dim, steps, data):
        check_prefix_tree(MultiIndexSet(dim, []), [])
        grown = grow(MultiIndexSet(dim), data, steps)
        check_prefix_tree(grown, list(grown))
        members = data.draw(st.permutations(list(grown)))
        check_prefix_tree(MultiIndexSet(dim, members), members)
