import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from adaleja import (Distribution, IdentityMap, KTEMap, MultiIndexSet,
                     SausageMap, Surrogate, beta33, deserialize, load_surrogate,
                     save_surrogate, sample_joint, serialize, uniform)
from adaleja.errors import (ContractError, DomainError, SerializationError,
                            SolveError, UnsupportedVersionError)

UNIT = [uniform(-1.0, 1.0)]


def fit_1d(f, count, cmap=None):
    maps = [cmap] if cmap is not None else None
    indices = MultiIndexSet(1, [(k,) for k in range(count)])
    return Surrogate.fit(f, UNIT, indices, maps)


class TestHierarchicalBasis:
    def test_level_zero_is_one(self):
        s = Surrogate(UNIT)
        s.add_point((0,), 1.0)
        pts = np.array([[-0.3], [0.8]])
        assert_allclose(s.hierarchical_basis((0,), pts), [1.0, 1.0], rtol=0)

    def test_level_one_frozen_value(self):
        # nodes 0 and -1: basis (y - 0) / (-1 - 0) gives -0.5 at y = 0.5
        s = Surrogate(UNIT, [IdentityMap()])
        s.add_point((0,), 0.0)
        s.add_point((1,), 0.0)
        val = s.hierarchical_basis((1,), np.array([[0.5]]))[0]
        assert_allclose(val, -0.5, rtol=1e-15)

    def test_unit_value_at_own_node(self):
        f = lambda y: float(np.sin(y[0]))
        s = fit_1d(f, 5)
        for ix in s.indices:
            node = s.node_point(ix)
            assert_allclose(s.hierarchical_basis(ix, node[None, :])[0], 1.0,
                            atol=1e-12)

    def test_vanishes_at_earlier_nodes(self):
        s = fit_1d(lambda y: 1.0, 6)
        for k in range(1, 6):
            for j in range(k):
                node = s.node_point((j,))
                val = s.hierarchical_basis((k,), node[None, :])[0]
                assert abs(val) < 1e-12


class TestSurplus:
    def test_quadratic_surplus_frozen(self):
        # interpolating y^2 on Leja nodes {0, -1}: prediction at node 2 (y=1)
        # is -1, true value 1, so the surplus is 2
        f = lambda y: float(y[0]) ** 2
        s = Surrogate(UNIT, [IdentityMap()])
        s.add_point((0,), f(s.node_point((0,))))
        s.add_point((1,), f(s.node_point((1,))))
        s.add_point((2,), f(s.node_point((2,))))
        assert_allclose(s.surplus((2,)), 2.0, rtol=1e-14)

    def test_root_surplus_is_value(self):
        s = Surrogate(UNIT)
        s.add_point((0,), 3.5 - 1.0j)
        assert s.surplus((0,)) == 3.5 - 1.0j

    def test_admissibility_enforced(self):
        s = Surrogate(UNIT)
        with pytest.raises(ContractError):
            s.add_point((1,), 0.0)   # root missing
        # entries must be integers: nothing truncates to the root
        for bad in [(0.5,), (False,), ("0",)]:
            with pytest.raises(ContractError):
                s.add_point(bad, 0.0)
            with pytest.raises(ContractError):
                s.node_point(bad)

    def test_duplicate_rejected(self):
        s = Surrogate(UNIT)
        s.add_point((0,), 1.0)
        with pytest.raises(ContractError):
            s.add_point((0,), 2.0)


class TestFit:
    SQUARE = [uniform(-1.0, 1.0), uniform(-1.0, 1.0)]

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_non_finite_value_names_index_and_point(self, shape):
        # lexicographic absorption meets the level-1 node of y0, at -1,
        # first at (1, 0); a vector value is NaN in its last entry only
        def holed(y):
            value = np.ones(shape)
            value.flat[-1] = np.nan if y[0] < -0.5 else 1.0
            return value

        with pytest.raises(SolveError, match=r"non-finite model value .* index "
                                             r"\(1, 0\) at point \(-1\.0, 0\.0\)"):
            Surrogate.fit(holed, self.SQUARE, MultiIndexSet.total_degree(2, 2))

    def test_model_failure_is_wrapped(self):
        def broken(y):
            raise ZeroDivisionError("synthetic")

        with pytest.raises(SolveError, match=r"model evaluation failed at index "
                                             r"\(0, 0\): synthetic at point"):
            Surrogate.fit(broken, self.SQUARE, MultiIndexSet.total_degree(2, 1))


class TestInterpolation:
    def test_reproduces_values_at_nodes(self):
        f = lambda y: float(np.exp(y[0]))
        s = fit_1d(f, 8)
        for ix in s.indices:
            node = s.node_point(ix)
            rel = abs(s.evaluate(node) - f(node)) / abs(f(node))
            assert rel < 1e-10

    def test_polynomial_reproduction(self):
        """Degree-M polynomials are exact on M+1 nested Leja nodes."""
        rng = np.random.default_rng(0)
        for deg in (3, 7, 12):
            coeffs = rng.standard_normal(deg + 1)
            f = lambda y: float(np.polyval(coeffs, y[0]))
            s = fit_1d(f, deg + 1)
            pts = rng.uniform(-1, 1, (100, 1))
            exact = np.array([f(p) for p in pts])
            got = s.evaluate(pts)
            assert np.abs(got - exact).max() < 1e-10 * max(1.0, np.abs(exact).max())

    def test_runge_error_small(self):
        f = lambda y: 1.0 / (1.0 + 10.0 * float(y[0]) ** 2)
        s = fit_1d(f, 30)
        grid = np.linspace(-1, 1, 1001)[:, None]
        err = np.abs(s.evaluate(grid) - 1.0 / (1.0 + 10.0 * grid[:, 0] ** 2)).max()
        assert err < 1e-2

    def test_mapped_nodes_interpolate_too(self):
        f = lambda y: 1.0 / (1.0 + 10.0 * float(y[0]) ** 2)
        s = fit_1d(f, 20, SausageMap(9))
        for ix in s.indices:
            node = s.node_point(ix)
            assert abs(s.evaluate(node) - f(node)) < 1e-10

    def test_permutation_insensitive(self):
        f = lambda y: float(np.cos(y[0]) + y[1] ** 3)
        dists = [uniform(-1, 1)] * 2
        idx = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)]
        a = Surrogate(dists)
        for ix in idx:
            a.add_point(ix, f(a.node_point(ix)))
        b = Surrogate(dists)
        for ix in [(0, 0), (0, 1), (1, 0), (2, 0), (0, 2), (1, 1)]:
            b.add_point(ix, f(b.node_point(ix)))
        pts = np.random.default_rng(1).uniform(-1, 1, (50, 2))
        assert_allclose(a.evaluate(pts), b.evaluate(pts), atol=1e-13)

    def test_multidimensional_mixed_laws(self):
        f = lambda y: float(y[0] * y[1] ** 2 + 0.5)
        dists = [uniform(-2, 2), beta33(0, 1)]
        s = Surrogate.fit(f, dists, MultiIndexSet.total_degree(2, 3))
        pts = np.column_stack([np.linspace(-1.9, 1.9, 40), np.linspace(0.02, 0.98, 40)])
        exact = pts[:, 0] * pts[:, 1] ** 2 + 0.5
        assert np.abs(s.evaluate(pts) - exact).max() < 1e-10

    def test_single_point_and_batch_agree(self):
        f = lambda y: float(y[0] ** 3)
        s = fit_1d(f, 4)
        pts = np.array([[0.25], [-0.6]])
        batch = s.evaluate(pts)
        singles = [s.evaluate(pts[0]), s.evaluate(pts[1])]
        assert_allclose(singles, batch, rtol=1e-13)

    def test_vector_valued(self):
        f = lambda y: np.array([y[0], y[0] ** 2, 1.0])
        indices = MultiIndexSet(1, [(0,), (1,), (2,)])
        s = Surrogate.fit(f, UNIT, indices)
        out = s.evaluate(np.array([0.5]))
        assert out.shape == (3,)
        assert_allclose(out.real, [0.5, 0.25, 1.0], atol=1e-13)

    def test_wrong_width_rejected(self):
        s = fit_1d(lambda y: 1.0, 3)
        with pytest.raises(ContractError):
            s.evaluate(np.zeros((4, 2)))


class TestRestrict:
    def test_restriction_keeps_interpolation(self):
        f = lambda y: float(np.sin(2 * y[0]) + y[1])
        dists = [uniform(-1, 1)] * 2
        s = Surrogate.fit(f, dists, MultiIndexSet.total_degree(2, 3))
        sub = [(0, 0), (1, 0), (0, 1), (1, 1)]
        r = s.restrict(sub)
        assert list(r.indices) == sorted(sub)
        for ix in sub:
            assert_allclose(r.surplus(ix), s.surplus(ix), rtol=0)
        node = r.node_point((1, 1))
        # the restricted interpolant still matches the model at its nodes
        assert abs(r.evaluate(node) - f(node)) < 1e-12

    def test_restrict_requires_closed_subset(self):
        s = fit_1d(lambda y: float(y[0]), 3)
        with pytest.raises(ContractError):
            s.restrict([(0,), (2,)])


class TestSerialization:
    def round_trip(self, s):
        return deserialize(serialize(s))

    def test_byte_stable(self):
        f = lambda y: complex(y[0], y[0] ** 2)
        s = fit_1d(f, 5, SausageMap(9))
        blob = serialize(s)
        again = serialize(deserialize(blob))
        assert blob == again

    def test_values_preserved(self):
        f = lambda y: float(np.tanh(y[0] + y[1]))
        dists = [uniform(0, 1), beta33(-1, 1)]
        s = Surrogate.fit(f, dists, MultiIndexSet.total_degree(2, 2))
        r = self.round_trip(s)
        pts = np.random.default_rng(2).uniform(0.01, 0.99, (30, 2))
        pts[:, 1] = pts[:, 1] * 2 - 1
        assert_allclose(r.evaluate(pts), s.evaluate(pts), rtol=0)

    def test_schema_fields(self):
        s = fit_1d(lambda y: 1.0, 2)
        doc = json.loads(serialize(s))
        for key in ("version", "N", "distributions", "maps", "nodes1d",
                    "indices", "surpluses_re", "surpluses_im"):
            assert key in doc
        assert doc["N"] == 1

    def test_empty_rejected(self):
        with pytest.raises(SerializationError):
            serialize(Surrogate(UNIT))

    def test_bad_json_rejected(self):
        with pytest.raises(SerializationError):
            deserialize(b"{not json")

    def test_missing_key_rejected(self):
        s = fit_1d(lambda y: 1.0, 2)
        doc = json.loads(serialize(s))
        del doc["surpluses_im"]
        with pytest.raises(SerializationError):
            deserialize(json.dumps(doc).encode())
        # a dimension that is no count; true loaded as a 1-D surrogate
        doc = json.loads(serialize(s))
        for n_dim in (True, "1", 1.0, 0, None):
            doc["N"] = n_dim
            with pytest.raises(SerializationError, match="N must be"):
                deserialize(json.dumps(doc).encode())

    def test_version_mismatch(self):
        s = fit_1d(lambda y: 1.0, 2)
        doc = json.loads(serialize(s))
        doc["version"] = 99
        with pytest.raises(UnsupportedVersionError):
            deserialize(json.dumps(doc).encode())

    def test_non_closed_indices_rejected(self):
        s = fit_1d(lambda y: 1.0, 3)
        doc = json.loads(serialize(s))
        doc["surpluses_re"] = doc["surpluses_re"][:2]
        doc["surpluses_im"] = doc["surpluses_im"][:2]
        # not downward closed, entries that are not integers, no list
        for indices in ([[0], [2]], [[0], [1.5]], [[0], ["1"]], [[0], [True]],
                        [[0], 1], [[0], [0, 1]], 5, {"0": [0]}):
            doc["indices"] = indices
            with pytest.raises(SerializationError):
                deserialize(json.dumps(doc).encode())

    def test_tampered_nodes_are_not_replaced(self):
        f = lambda y: float(np.exp(y[0]))
        doc = json.loads(serialize(fit_1d(f, 3)))
        doc["nodes1d"][0][2] += 1e-3
        loaded = deserialize(json.dumps(doc).encode())
        assert loaded.nodes1d(0)[2] == doc["nodes1d"][0][2]
        with pytest.raises(ContractError, match="dimension 0"):
            loaded.add_point((3,), 0.0)
        assert loaded.nodes1d(0)[2] == doc["nodes1d"][0][2]
        # nodes are numbers, in one flat list per dimension
        for nodes in (["a", 0.0, 1.0], [0.0, [1.0], 2.0], {"0": 0.0}):
            doc["nodes1d"][0] = nodes
            with pytest.raises(SerializationError, match="inconsistent surrogate"):
                deserialize(json.dumps(doc).encode())

    def test_loaded_nodes_extend(self):
        f = lambda y: float(np.exp(y[0]))
        s = fit_1d(f, 3)
        loaded = deserialize(serialize(s))
        for sur in (s, loaded):
            sur.add_point((3,), f(sur.node_point((3,))))
        assert serialize(loaded) == serialize(s)

    def test_file_round_trip(self, tmp_path):
        s = fit_1d(lambda y: float(y[0]), 3)
        path = tmp_path / "sur.json"
        save_surrogate(s, path)
        r = load_surrogate(path)
        pts = np.linspace(-1, 1, 11)[:, None]
        assert_allclose(r.evaluate(pts), s.evaluate(pts), rtol=0)


def smooth(y):
    return complex(np.exp(0.3 * np.sum(y)), np.cos(y[0]))


def smooth_vector(y):
    return np.array([smooth(y), y[0] * y[-1], 1.0])


@st.composite
def growth(draw, size):
    """Laws, maps and an admissible absorption order of ``size`` indices."""
    dim = draw(st.integers(2, 3))
    dists = draw(st.lists(st.sampled_from([uniform(-1, 1), beta33(0, 2)]),
                          min_size=dim, max_size=dim))
    maps = draw(st.lists(st.sampled_from([IdentityMap(), SausageMap(9)]),
                         min_size=dim, max_size=dim))
    grid = MultiIndexSet(dim)
    while len(grid) < size:
        grid.add(draw(st.sampled_from(grid.admissible_neighbors())))
    return dists, maps, list(grid)


def grown(dists, maps, order, f):
    sur = Surrogate(dists, maps)
    for ix in order:
        sur.add_point(ix, f(sur.node_point(ix)))
    return sur


def same_bits(a, b, pts):
    return np.asarray(a.evaluate(pts)).tobytes() == np.asarray(b.evaluate(pts)).tobytes()


# sizes on both sides of the first two capacity doublings of the arrays
@pytest.mark.parametrize("size", [15, 16, 17, 33])
@pytest.mark.parametrize("f", [smooth, smooth_vector], ids=["scalar", "vector"])
class TestGrowthProperties:
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_interpolates_at_every_node(self, size, f, data):
        dists, maps, order = data.draw(growth(size))
        sur = grown(dists, maps, order, f)
        assert sur.indices == order
        nodes = sur.node_points()
        assert_allclose(sur.evaluate(nodes), np.array([f(x) for x in nodes]),
                        rtol=1e-9, atol=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_surplus_basis_sum_is_evaluate(self, size, f, data):
        dists, maps, order = data.draw(growth(size))
        sur = grown(dists, maps, order, f)
        pts = sample_joint(dists, 40, 11)
        direct = sum(np.multiply.outer(sur.hierarchical_basis(ix, pts), sur.surplus(ix))
                     for ix in order)
        assert_allclose(direct, sur.evaluate(pts), rtol=1e-12)

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_round_trips_are_bit_exact(self, size, f, data):
        dists, maps, order = data.draw(growth(size))
        k = data.draw(st.integers(1, size))
        sur = grown(dists, maps, order, f)
        pts = sample_joint(dists, 40, 7)
        back = deserialize(serialize(sur))
        assert serialize(back) == serialize(sur)
        assert same_bits(back, sur, pts)
        # an absorption-order prefix is downward closed, and its surpluses
        # were computed on exactly that prefix
        prefix = grown(dists, maps, order[:k], f)
        for source in (sur, back):
            cut = source.restrict(order[:k])
            assert serialize(cut) == serialize(prefix)
            assert same_bits(cut, prefix, pts)
            assert same_bits(deserialize(serialize(cut)), prefix, pts)


def newton_basis(nodes, level, s):
    """Newton basis polynomial of ``level`` at preimages ``s``, by definition."""
    out = np.ones_like(s)
    for j in range(level):
        out = out * (s - nodes[j]) / (nodes[level] - nodes[j])
    return out


def oracle_sum(sur, indices, coeffs, pts):
    """Σ_i c_i Π_d basis at ``pts``, and the same sum of magnitudes."""
    pre = np.column_stack([m.inverse(d.to_canonical(pts[:, k]))
                           for k, (d, m) in enumerate(zip(sur.distributions, sur.maps))])
    total, size = 0.0, 0.0
    for ix, c in zip(indices, coeffs):
        basis = np.prod([newton_basis(sur.nodes1d(d), lev, pre[:, d])
                         for d, lev in enumerate(ix)], axis=0)
        total = total + np.multiply.outer(basis, c)
        size = size + np.multiply.outer(np.abs(basis), np.abs(c))
    return total, size


@st.composite
def coefficient_sets(draw):
    """Laws and maps, a downward-closed absorption order in 1-6
    dimensions, and random complex surpluses (scalar or vector)."""
    dim = draw(st.integers(1, 6))
    dists = draw(st.lists(st.sampled_from([uniform(-1, 1), beta33(0, 2)]),
                          min_size=dim, max_size=dim))
    maps = draw(st.lists(st.sampled_from([IdentityMap(), SausageMap(9)]),
                         min_size=dim, max_size=dim))
    grid = MultiIndexSet(dim)
    size = draw(st.integers(1, 40))
    while len(grid) < size:
        grid.add(draw(st.sampled_from(grid.admissible_neighbors())))
    shape = draw(st.sampled_from([(), (3,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    coeffs = (rng.normal(size=(size,) + shape)
              + 1j * rng.normal(size=(size,) + shape))
    return dists, maps, list(grid), coeffs


class TestPrefixKernel:
    """The prefix-product kernel against the brute-force sum over indices."""

    @settings(max_examples=40, deadline=None)
    @given(case=coefficient_sets(),
           n_pts=st.sampled_from([1, 255, 256, 257]) | st.integers(1, 600),
           data=st.data())
    def test_evaluate_matches_oracle(self, case, n_pts, data):
        dists, maps, order, coeffs = case
        sur = Surrogate(dists, maps)
        for ix, c in zip(order, coeffs):
            sur.add_restricted(ix, c)
        pts = sample_joint(dists, n_pts, 5)
        want, size = oracle_sum(sur, order, coeffs, pts)
        got = sur.evaluate(pts)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * size + 1e-300)

        # a box cuts any downward-closed set to a downward-closed one, so
        # the restricted plan keeps only some prefixes of each depth
        cap = data.draw(st.lists(st.integers(0, 4), min_size=len(order[0]),
                                 max_size=len(order[0])))
        kept = [k for k, ix in enumerate(order) if all(np.less_equal(ix, cap))]
        cut = deserialize(serialize(sur.restrict([order[k] for k in kept])))
        want, size = oracle_sum(cut, [order[k] for k in kept], coeffs[kept], pts)
        assert np.all(np.abs(cut.evaluate(pts) - want) <= 1e-12 * size + 1e-300)

    @settings(max_examples=40, deadline=None)
    @given(case=coefficient_sets())
    def test_node_tables_match_raw_leja_coordinates(self, case):
        dists, maps, order, coeffs = case
        sur = Surrogate(dists, maps)
        for ix, c in zip(order, coeffs):
            sur.add_restricted(ix, c)
        for target in (sur, deserialize(serialize(sur))):
            for ix in order + target.index_set.admissible_neighbors():
                got = target.predict_node(ix)
                raw = [[target.nodes1d(d)[lev] for d, lev in enumerate(ix)]]
                want = target._evaluate_pre(np.array(raw))[0]
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def scalar_point(sur, index):
    """The node point of ``index``, one scalar map and law call per dimension."""
    return np.array([d.from_canonical(m.forward(sur.nodes1d(k)[lev]))
                     for k, (lev, d, m) in enumerate(zip(index, sur.distributions,
                                                         sur.maps))])


@st.composite
def coordinate_cases(draw):
    """Per dimension a law on a random finite support and a map, the top
    level of an axis-line index set, and node queries at levels 0-40."""
    dim = draw(st.integers(1, 3))
    dists, maps = [], []
    for _ in range(dim):
        kind = draw(st.sampled_from([uniform, beta33]))
        lower = draw(st.floats(-1e3, 1e3))
        dists.append(kind(lower, lower + draw(st.floats(1e-3, 1e3))))
        maps.append(draw(st.one_of(
            st.just(IdentityMap()),
            st.sampled_from(range(1, 18, 2)).map(SausageMap),
            st.floats(1e-6, 1.0, exclude_max=True).map(KTEMap))))
    tops = draw(st.lists(st.integers(0, 40), min_size=dim, max_size=dim))
    queries = draw(st.lists(st.lists(st.integers(0, 40), min_size=dim, max_size=dim)
                            .map(tuple), min_size=1, max_size=8))
    return dists, maps, tops, queries


class TestNodeCoordinates:
    """Tabulated node coordinates against the scalar map and law calls."""

    @settings(max_examples=60, deadline=None)
    @given(case=coordinate_cases(), data=st.data())
    def test_node_point_is_the_scalar_composition(self, case, data):
        dists, maps, tops, queries = case
        dim = len(dists)
        # the root, then each axis line in turn: every prefix is downward closed
        order = [(0,) * dim] + [(0,) * d + (lev,) + (0,) * (dim - d - 1)
                                for d in range(dim) for lev in range(1, tops[d] + 1)]
        sur = Surrogate(dists, maps)
        for ix in order:
            sur.add_restricted(ix, 1.0)
        k = data.draw(st.integers(1, len(order)))
        for target in (sur, sur.restrict(order[:k]), deserialize(serialize(sur))):
            for ix in queries + order[::-1]:
                got = target.node_point(ix)
                assert np.array_equal(got, scalar_point(target, ix))
            want = np.array([scalar_point(target, ix) for ix in target.indices])
            assert np.array_equal(target.node_points(), want)

    def test_node_points_of_empty_surrogate(self):
        assert Surrogate(UNIT * 2).node_points().shape == (0, 2)

    def test_tabulated_levels_make_no_further_calls(self, monkeypatch):
        calls = {"forward": 0, "from_canonical": 0}

        def counted(cls, name):
            original = getattr(cls, name)

            def wrapper(self, *args):
                calls[name] += 1
                return original(self, *args)
            monkeypatch.setattr(cls, name, wrapper)

        counted(SausageMap, "forward")
        counted(Distribution, "from_canonical")
        sur = Surrogate([uniform(-1, 1), beta33(0, 2)], SausageMap(9))
        first = sur.node_point((6, 3))
        # one vectorized call per dimension fills levels 0..6 and 0..3
        assert calls == {"forward": 2, "from_canonical": 2}
        for ix in [(6, 3), (0, 0), (2, 1), (5, 3), (6, 0)]:
            sur.node_point(ix)
        assert np.array_equal(sur.node_point((6, 3)), first)
        sur.add_point((0, 0), 1.0)
        sur.add_point((1, 0), 1.0)
        sur.node_points()
        assert calls == {"forward": 2, "from_canonical": 2}
        # only the missing levels are mapped
        sur.node_point((8, 3))
        assert calls == {"forward": 3, "from_canonical": 3}

    def test_installing_nodes_resets_the_table(self):
        sur = fit_1d(lambda y: float(y[0]), 4, SausageMap(9))
        sur.node_points()
        sur._set_nodes(0, -sur.nodes1d(0))
        for lev in range(4):
            assert np.array_equal(sur.node_point((lev,)), scalar_point(sur, (lev,)))

    def test_out_of_range_node_raises_at_its_level(self):
        doc = json.loads(serialize(fit_1d(lambda y: float(np.exp(y[0])), 4)))
        doc["nodes1d"][0][2] = 1.5
        loaded = deserialize(json.dumps(doc).encode())
        cut = loaded.restrict([(0,), (1,), (2,)])
        for sur in (loaded, cut):
            assert np.array_equal(sur.node_point((1,)), scalar_point(sur, (1,)))
            for lev in (2, 3):
                with pytest.raises(DomainError, match=r"outside \[-1, 1\]"):
                    sur.node_point((lev,))
            # a failed fill leaves the levels below it in place
            assert np.array_equal(sur.node_point((0,)), scalar_point(sur, (0,)))
