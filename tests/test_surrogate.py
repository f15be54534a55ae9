import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from adaleja import (AdaptiveConfig, Distribution, GpcExpansion, IdentityMap,
                     KTEMap, LejaSequence, MultiIndexSet, SausageMap, Surrogate,
                     beta33, deserialize, leja_nodes, load_surrogate, project,
                     run_adaptive, save_surrogate, sample_joint, serialize,
                     uniform)
from adaleja import gpc, surrogate
from adaleja.cli import RungeProduct
from adaleja.errors import (ContractError, DomainError, SerializationError,
                            SolveError, UnsupportedVersionError)
from adaleja.gpc import ortho_table

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


class TestNanPoints:
    @pytest.fixture(scope="class")
    def sur(self):
        return Surrogate.fit(lambda y: float(y[0] * y[1]), [uniform(-1, 1)] * 2,
                             MultiIndexSet(2, [(0, 0), (1, 0), (0, 1)]),
                             [SausageMap(9), IdentityMap()])

    @pytest.mark.parametrize("point", [[np.nan, 0.0], [0.0, np.nan],
                                       [[0.1, 0.2], [np.nan, np.nan]]])
    def test_evaluate_refuses_nan(self, sur, point):
        # evaluate([nan, 0.0]) returned nan+nanj after 80 inverse passes
        with pytest.raises(DomainError, match="outside support"):
            sur.evaluate(point)

    @pytest.mark.parametrize("point", [[np.nan, 0.0], [[0.1, 0.2], [0.0, np.nan]]])
    def test_hierarchical_basis_refuses_nan(self, sur, point):
        with pytest.raises(DomainError, match="outside support"):
            sur.hierarchical_basis((1, 0), point)


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

    def test_refused_index_is_named_for_its_defect(self):
        # each of these was answered with "index ... is not in the set"
        sur = Surrogate(UNIT * 2).add_point((0, 0), 1.0)
        for bad, match in (((1.0, 0), "must be an integer tuple"),
                           ((-1, 0), "has a negative entry"),
                           ((0, 0, 0), "has dimension 3, expected 2"),
                           ("ab", "must be an integer tuple")):
            with pytest.raises(ContractError, match=match):
                sur.surplus(bad)

    def test_duplicate_rejected(self):
        s = Surrogate(UNIT)
        s.add_point((0,), 1.0)
        with pytest.raises(ContractError):
            s.add_point((0,), 2.0)

    def test_non_finite_values_refused(self):
        # they were stored, and the surrogate evaluated to nan
        vector = Surrogate(UNIT).add_point((0,), [1.0, 2.0])
        for call in (
            lambda: Surrogate(UNIT).add_point((0,), np.nan),
            lambda: Surrogate(UNIT).add_restricted((0,), np.inf),
            lambda: vector.add_point((1,), [1.0, np.nan]),
            lambda: vector.add_restricted((1,), [complex(0.0, np.inf), 1.0]),
        ):
            with pytest.raises(ContractError, match=r"at index \(\d,\) are not finite"):
                call()
        assert vector.indices == [(0,)]
        with pytest.raises(ContractError, match="must be numbers"):
            vector.add_point((1,), ["1", "2"])


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


    def test_model_solve_error_passes_unwrapped(self):
        error = SolveError("singular system", point=(0.0, 0.0))

        def failing(y):
            raise error

        with pytest.raises(SolveError) as info:
            Surrogate.fit(failing, self.SQUARE, MultiIndexSet.total_degree(2, 1))
        assert info.value is error


class TestContract:
    def test_refusals(self):
        sur = fit_1d(lambda y: float(y[0]), 2)
        for call, match in (
                (lambda: Surrogate(UNIT * 2, [SausageMap(9)] * 3),
                 "got 3 maps for 2 dimensions"),
                (lambda: sur.add_point((2,), [1.0, 2.0]),
                 r"value shape \(2,\) does not match \(\)"),
                (lambda: Surrogate(UNIT).predict_node((0,)),
                 "cannot evaluate an empty surrogate"),
                (lambda: sur.surplus((5,)), r"index \(5,\) is not in the set"),
                (lambda: sur.restrict([(0,), (5,)]),
                 r"indices not in the surrogate: \[\(5,\)\]"),
                (lambda: Surrogate([]), "at least one distribution is required"),
                # (3,) needs (2,), which the set {(0,), (1,)} lacks
                (lambda: sur.hierarchical_basis((3,), [0.5]),
                 r"index \(3,\) is neither stored nor admissible")):
            with pytest.raises(ContractError, match=match):
                call()


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

    @pytest.mark.parametrize("cmap", [None, SausageMap(9)], ids=["unmapped", "mapped"])
    @pytest.mark.parametrize("dim", [2, 5])
    def test_single_point_and_batch_agree_in_several_dimensions(self, dim, cmap):
        # one point sums its last depth by the frozen products, a batch by
        # the dense matmul: they agree up to the rounding of the terms
        dists = [uniform(-1, 1), beta33(0, 2)] * 2 + [uniform(-2, 1)]
        s = Surrogate.fit(smooth, dists[:dim], MultiIndexSet.total_degree(dim, 4), cmap)
        pts = sample_joint(s.distributions, 300, 4)
        batch = s.evaluate(pts)
        _, size = oracle_sum(s, s.indices, [s.surplus(ix) for ix in s.indices], pts)
        for k, pt in enumerate(pts):
            assert abs(s.evaluate(pt) - batch[k]) <= 1e-13 * size[k]

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

    def test_non_finite_surplus_refused(self):
        doc = json.loads(serialize(fit_1d(lambda y: 1.0, 3)))
        for part in ("surpluses_re", "surpluses_im"):
            bad = dict(doc, **{part: [0.0, float("nan"), 0.0]})
            with pytest.raises(SerializationError, match=r"index \(1,\) are not finite"):
                deserialize(json.dumps(bad).encode())

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

    def test_malformed_documents_rejected(self):
        s = fit_1d(lambda y: 1.0, 3)
        doc = json.loads(serialize(s))
        re, im = doc["surpluses_re"], doc["surpluses_im"]
        for edit, match in (
                ({"maps": doc["maps"] * 2}, "'maps' must list 1 entries"),
                ({"surpluses_re": re[:2], "surpluses_im": im[:2]}, "lengths differ"),
                ({"distributions": [{"kind": "cauchy"}]}, "bad component spec"),
                ({"nodes1d": [doc["nodes1d"][0][:2]]}, "has 2 nodes, needs 3"),
                ({"kind": "spline"}, "unknown document kind 'spline'"),
                ({"surpluses_re": [[1.0], 0.0, 0.0]}, "ragged surpluses arrays"),
                ({"surpluses_im": im[:2]}, "'surpluses_re' has shape")):
            with pytest.raises(SerializationError, match=match):
                deserialize(json.dumps(dict(doc, **edit)).encode())
        # each reader refuses the other kind of document
        expansion = project(lambda y: 1.0, UNIT, 2).to_json()
        with pytest.raises(SerializationError, match="'gpc' document is not a surrogate"):
            deserialize(expansion)
        with pytest.raises(SerializationError, match="not a chaos-expansion document"):
            GpcExpansion.from_json(serialize(s))

    def test_tampered_nodes_are_not_replaced(self):
        # a tampered node is refused, not silently swapped for the Leja node
        f = lambda y: float(np.exp(y[0]))
        doc = json.loads(serialize(fit_1d(f, 3)))
        doc["nodes1d"][0][1] += 1e-3
        with pytest.raises(SerializationError, match="'nodes1d' dimension 0 is not a prefix"):
            deserialize(json.dumps(doc).encode())
        # nodes are numbers, in one flat list per dimension
        for nodes in (["a", 0.0, 1.0], [0.0, [1.0], 2.0], {"0": 0.0}, [0.0, -1.0, 1.001],
                      [[0.0], [1.0], [-1.0]]):
            doc["nodes1d"][0] = nodes
            with pytest.raises(SerializationError, match="inconsistent surrogate"):
                deserialize(json.dumps(doc).encode())

    def test_tiny_kte_strength(self):
        doc = json.loads(serialize(fit_1d(lambda y: float(y[0]), 3, KTEMap(0.5))))
        # 1e-200 raised a bare ZeroDivisionError; it is a near-identity map
        doc["maps"] = [{"map": "kte", "alpha": 1e-200}]
        loaded = deserialize(json.dumps(doc).encode())
        assert_allclose(loaded.node_points()[:, 0], doc["nodes1d"][0], rtol=1e-15)
        assert np.isfinite(loaded.evaluate(np.linspace(-1.0, 1.0, 9)[:, None])).all()
        doc["maps"] = [{"map": "kte", "alpha": 1e-320}]
        with pytest.raises(SerializationError, match="bad component spec: kte alpha"):
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


@st.composite
def tail_cases(draw):
    """Laws and maps in 1-8 dimensions, an absorption order shaped at the
    edges of the last depth, and random complex surpluses (scalar or vector)."""
    dim = draw(st.integers(1, 8))
    dists = draw(st.lists(st.sampled_from([uniform(-1, 1), beta33(0, 2)]),
                          min_size=dim, max_size=dim))
    maps = draw(st.lists(st.sampled_from([IdentityMap(), SausageMap(9)]),
                         min_size=dim, max_size=dim))
    size = draw(st.integers(1, 40))
    edge = draw(st.sampled_from(["any", "one parent", "flat last"]))
    if edge == "one parent":    # indices vary only in the last dimension
        order = [(0,) * (dim - 1) + (lev,) for lev in range(size)]
    else:
        grid = MultiIndexSet(dim)
        while len(grid) < size:
            fronts = [ix for ix in grid.admissible_neighbors()
                      if edge == "any" or ix[-1] == 0]
            if not fronts:      # a flat 1-D set stops at (0,)
                break
            grid.add(draw(st.sampled_from(fronts)))
        order = list(grid)
    shape = draw(st.sampled_from([(), (3,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    coeffs = (rng.normal(size=(len(order),) + shape)
              + 1j * rng.normal(size=(len(order),) + shape))
    return dists, maps, order, coeffs


def edge_counts(draw, tops):
    """A point count at the edges of the blocks and chunks of the kernel,
    for tables of levels 0..tops[d]."""
    block_bytes = 8 * sum(t + 1 for t in tops) * surrogate._BLOCK
    chunk = surrogate._BLOCK * max(1, surrogate._CHUNK_BYTES // block_bytes)
    return draw(st.sampled_from([2, 255, 256, 257, chunk - 1, chunk + 1]))


def counted_evaluate(target, pts):
    """``target.evaluate(pts)`` and the number of blocks that took the dense tail."""
    with mock.patch.object(np, "einsum", wraps=np.einsum) as einsum:
        out = target.evaluate(pts)
    return out, einsum.call_count


class TestDenseTail:
    """Scalar batches in two or more dimensions sum the last depth by a
    dense matmul; everything else keeps the frozen products."""

    @settings(max_examples=40, deadline=None)
    @given(case=tail_cases(), data=st.data())
    def test_evaluate_matches_oracle(self, case, data):
        dists, maps, order, coeffs = case
        sur = Surrogate(dists, maps)
        for ix, c in zip(order, coeffs):
            sur.add_restricted(ix, c)
        n_pts = edge_counts(data.draw, sur.index_set.max_level())
        pts = sample_joint(dists, n_pts, data.draw(st.integers(0, 99)))
        want, size = oracle_sum(sur, order, coeffs, pts)
        got, dense_blocks = counted_evaluate(sur, pts)
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * size + 1e-300)
        dense = coeffs.ndim == 1 and len(dists) > 1
        assert dense_blocks == (-(-n_pts // surrogate._BLOCK) if dense else 0)
        # one point, as node predictions have, never takes the dense tail
        assert counted_evaluate(sur, pts[0])[1] == 0

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_gpc_matches_direct_sum(self, data):
        dists = data.draw(st.lists(st.sampled_from([uniform(-1, 1), beta33(0, 2)]),
                                   min_size=1, max_size=8))
        p_max = data.draw(st.integers(0, 3))
        indices = sorted(MultiIndexSet.total_degree(len(dists), p_max))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        coeffs = rng.normal(size=len(indices)) + 1j * rng.normal(size=len(indices))
        exp = GpcExpansion(dists, p_max, indices, coeffs)
        n_pts = edge_counts(data.draw, [p_max] * len(dists))
        pts = sample_joint(dists, n_pts, data.draw(st.integers(0, 99)))
        tables = [ortho_table(d.kind, d.to_canonical(pts[:, k]), p_max)
                  for k, d in enumerate(dists)]
        want, size = 0.0, 0.0
        for c, ix in zip(coeffs, indices):
            basis = np.prod([t[:, lev] for t, lev in zip(tables, ix)], axis=0)
            want, size = want + c * basis, size + abs(c) * np.abs(basis)
        got, dense_blocks = counted_evaluate(exp, pts)
        assert np.all(np.abs(got - want) <= 1e-12 * size + 1e-300)
        assert dense_blocks == (-(-n_pts // surrogate._BLOCK) if len(dists) > 1 else 0)


class TestBatchBits:
    """Batch sizes whose points keep the bits of a larger batch.  Not pinned:
    the last point of 257, 513 or 769 points, alone in its block, and a
    one-point call, which differ in their last bits."""

    def test_sizes_that_match_a_larger_batch(self):
        sur, _ = run_adaptive(RungeProduct(5), AdaptiveConfig(1000), UNIT * 5,
                              SausageMap(9))
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, (1000, 5))
        ref = sur.evaluate(pts)
        for n in (2, 3, 17, 255, 256, 511, 512):
            assert sur.evaluate(pts[:n]).tobytes() == ref[:n].tobytes()
        # a lone point padded to a pair
        for k in range(0, 1000, 5):
            assert sur.evaluate(pts[[k, k]])[0].tobytes() == ref[k].tobytes()


def cumprod_newton_table(x, nodes, dens, top):
    """Newton factor table as a cumprod down the levels, then one divide."""
    fac = np.empty((top + 1, len(x)))
    fac[0] = 1.0
    np.cumprod(x - nodes[:top, None], axis=0, out=fac[1:])
    fac[1:] /= dens[1:top + 1, None]
    return fac


class TestNewtonTable:
    @settings(max_examples=60, deadline=None)
    @given(law=st.sampled_from([uniform(-1, 1), beta33(-1, 1)]),
           top=st.sampled_from([0, 1, 40]) | st.integers(0, 40),
           n_on=st.integers(0, 20), n_off=st.integers(0, 20),
           seed=st.integers(0, 2 ** 16))
    def test_matches_cumprod_oracle_bit_for_bit(self, law, top, n_on, n_off, seed):
        nodes = leja_nodes(law, 41)
        dens = np.array([np.prod(nodes[l] - nodes[:l]) for l in range(len(nodes))])
        rng = np.random.default_rng(seed)
        # points on the nodes, where factors vanish, and between them
        x = np.concatenate([nodes[rng.integers(0, 41, n_on)],
                            rng.uniform(-1, 1, n_off), [-1.0, 1.0]])
        got = surrogate._newton_table(x, nodes, dens, top)
        want = cumprod_newton_table(x, nodes, dens, top)
        assert got.shape == want.shape == (top + 1, len(x))
        assert got.tobytes() == want.tobytes()


def chunked_cases(draw, tops):
    """A block size, a chunk budget, the chunk's points and a point count
    near their edges, for tables of levels 0..tops[d]."""
    block = draw(st.sampled_from([1, 2, 3, 4, surrogate._BLOCK]))
    block_bytes = 8 * sum(t + 1 for t in tops) * block
    budget = draw(st.sampled_from([block_bytes, 2 * block_bytes, surrogate._CHUNK_BYTES]))
    chunk = block * max(1, budget // block_bytes)
    # the one-block oracle with a tiny block runs one table call per block
    cap = 20_000 if block == surrogate._BLOCK else 300
    sizes = [p for p in (1, 255, 256, 257, block - 1, block, block + 1,
                         chunk - 1, chunk, chunk + 1) if 1 <= p <= cap]
    n_pts = draw(st.sampled_from(sizes) | st.integers(1, min(cap, 2 * chunk + 3)))
    return block, budget, chunk, n_pts


def chunked_evaluate(target, pts, block, budget):
    with mock.patch.object(surrogate, "_BLOCK", block), \
            mock.patch.object(surrogate, "_CHUNK_BYTES", budget):
        return target.evaluate(pts)


class TestChunkedTables:
    """Tables built per chunk of blocks give the bits of one-block chunks."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_surrogate_matches_one_block_chunks(self, data):
        dists, maps, order, coeffs = data.draw(coefficient_sets().filter(
            lambda case: len(case[0]) <= 5))
        sur = Surrogate(dists, maps)
        for ix, c in zip(order, coeffs):
            sur.add_restricted(ix, c)
        tops = sur.index_set.max_level()
        block, budget, chunk, n_pts = chunked_cases(data.draw, tops)
        pts = sample_joint(dists, n_pts, data.draw(st.integers(0, 99)))
        calls = []
        tables = Surrogate._newton_tables

        def counted(self, S, top):
            calls.append(len(S))
            return tables(self, S, top)

        with mock.patch.object(Surrogate, "_newton_tables", counted):
            got = chunked_evaluate(sur, pts, block, budget)
        # one table call per chunk, each over the chunk's points
        assert calls == [min(chunk, n_pts - k) for k in range(0, n_pts, chunk)]
        want = chunked_evaluate(sur, pts, block, 0)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_gpc_matches_one_block_chunks(self, data):
        dists = data.draw(st.lists(st.sampled_from([uniform(-1, 1), beta33(0, 2)]),
                                   min_size=1, max_size=3))
        p_max = data.draw(st.integers(0, 5))
        indices = sorted(MultiIndexSet.total_degree(len(dists), p_max))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        coeffs = rng.normal(size=len(indices)) + 1j * rng.normal(size=len(indices))
        exp = GpcExpansion(dists, p_max, indices, coeffs)
        block, budget, _, n_pts = chunked_cases(data.draw, [p_max] * len(dists))
        pts = sample_joint(dists, n_pts, data.draw(st.integers(0, 99)))
        got = chunked_evaluate(exp, pts, block, budget)
        assert np.array_equal(got, chunked_evaluate(exp, pts, block, 0))


def buffered_prefix_sum(tables, n_pts, plan, coeffs):
    """The kernel as it was with three weight buffers reused by every block
    and depth, filled by ``take(..., "clip")``: the reference whose bits the
    plain gathers must give."""
    out = np.empty((n_pts, coeffs.shape[1]), dtype=complex)
    re, im = coeffs.real, coeffs.imag
    buffers = None
    chunk = surrogate._BLOCK
    if n_pts > surrogate._BLOCK:
        row_bytes = 8 * sum(int(levels.max()) + 1 for _, levels in plan)
        chunk *= max(1, surrogate._CHUNK_BYTES // (row_bytes * surrogate._BLOCK))
    dense = None
    if n_pts > 1 and coeffs.shape[1] == 1 and len(plan) > 1:
        (parents, levels), plan = plan[-1], plan[:-1]
        dense = np.zeros((2, len(plan[-1][1]), int(levels.max()) + 1))
        dense[:, parents, levels] = re[:, 0], im[:, 0]
    size = len(plan[-1][1])
    for start in range(0, n_pts, surrogate._BLOCK):
        rows, offset = slice(start, start + surrogate._BLOCK), start % chunk
        if not offset:
            chunk_tables = tables(slice(start, start + chunk))
        first, *rest = (chunk_tables if chunk == surrogate._BLOCK else
                        [table[:, offset:offset + surrogate._BLOCK]
                         for table in chunk_tables])
        if buffers is None or buffers[0].shape[1:] != first.shape[1:]:
            buffers = [np.empty((size,) + first.shape[1:]) for _ in range(3)]
        spare, weights, gathered = buffers
        levels = plan[0][1]
        w = first.take(levels, 0, weights[:len(levels)], "clip")
        for table, (parents, levels) in zip(rest, plan[1:]):
            spare, weights = weights, spare
            w = w.take(parents, 0, weights[:len(parents)], "clip")
            w *= table.take(levels, 0, gathered[:len(levels)], "clip")
        if dense is not None:
            last = dense @ rest[-1]
            out.real[rows, 0], out.imag[rows, 0] = np.einsum("pb,cpb->cb", w, last)
        else:
            out[rows] = w.T @ re + 1j * (w.T @ im)
    return out


def both_kernels(call):
    """``call()`` with the plain-gather kernel, then with the buffered one."""
    got = np.asarray(call())
    with mock.patch.object(surrogate, "_prefix_sum", buffered_prefix_sum), \
            mock.patch.object(gpc, "_prefix_sum", buffered_prefix_sum):
        want = np.asarray(call())
    return got, want


@st.composite
def kernel_point_counts(draw, tops):
    """A point count at the edges of the kernel's blocks and chunks, or any."""
    block_bytes = 8 * sum(t + 1 for t in tops) * surrogate._BLOCK
    chunk = surrogate._BLOCK * max(1, surrogate._CHUNK_BYTES // block_bytes)
    return draw(st.sampled_from([1, 255, 256, 257, chunk - 1, chunk + 1])
                | st.integers(1, 2 * chunk + 3))


class TestPlainGathers:
    """The kernel's plain gathers give the bits of the buffered kernel."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_surrogate_matches_buffered_kernel(self, data):
        dim = data.draw(st.integers(1, 5))
        dists = data.draw(st.lists(st.sampled_from([uniform(-1, 1), beta33(0, 2)]),
                                   min_size=dim, max_size=dim))
        maps = data.draw(st.lists(st.sampled_from([IdentityMap(), SausageMap(9)]),
                                  min_size=dim, max_size=dim))
        grid = MultiIndexSet(dim)
        for _ in range(data.draw(st.integers(1, 60))):
            grid.add(data.draw(st.sampled_from(grid.admissible_neighbors())))
        shape = data.draw(st.sampled_from([(), (2, 1), (2, 3)]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        sur = Surrogate(dists, maps)
        for ix in grid:
            sur.add_restricted(ix, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        n_pts = data.draw(kernel_point_counts(sur.index_set.max_level()))
        pts = sample_joint(dists, n_pts, data.draw(st.integers(0, 99)))
        got, want = both_kernels(lambda: sur.evaluate(pts))
        assert got.shape == (n_pts,) + shape
        assert got.tobytes() == want.tobytes()
        for ix in list(grid) + grid.admissible_neighbors():
            got, want = both_kernels(lambda: sur.predict_node(ix))
            assert got.tobytes() == want.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_gpc_matches_buffered_kernel(self, data):
        dists = data.draw(st.lists(st.sampled_from([uniform(-1, 1), beta33(0, 2)]),
                                   min_size=1, max_size=5))
        p_max = data.draw(st.integers(0, 4))
        indices = sorted(MultiIndexSet.total_degree(len(dists), p_max))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        coeffs = rng.normal(size=len(indices)) + 1j * rng.normal(size=len(indices))
        exp = GpcExpansion(dists, p_max, indices, coeffs)
        n_pts = data.draw(kernel_point_counts([p_max] * len(dists)))
        pts = sample_joint(dists, n_pts, data.draw(st.integers(0, 99)))
        got, want = both_kernels(lambda: exp.evaluate(pts))
        assert got.tobytes() == want.tobytes()


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
        # one vectorized call per dimension tabulates levels 0..511
        assert calls == {"forward": 2, "from_canonical": 2}
        first = sur.node_point((6, 3))
        for ix in [(6, 3), (0, 0), (2, 1), (5, 3), (6, 0), (8, 3), (511, 200)]:
            sur.node_point(ix)
        assert np.array_equal(sur.node_point((6, 3)), first)
        sur.add_point((0, 0), 1.0)
        sur.add_point((1, 0), 1.0)
        sur.node_points()
        assert calls == {"forward": 2, "from_canonical": 2}

    def test_every_level_is_the_scalar_composition(self):
        sur = fit_1d(lambda y: float(y[0]), 4, SausageMap(9))
        for lev in range(512):
            assert np.array_equal(sur.node_point((lev,)), scalar_point(sur, (lev,)))

    def test_nodes1d_refuses_other_dimensions(self):
        sur = Surrogate([uniform(-1.0, 1.0), beta33(0.0, 2.0)])
        for dim in (-1, 2, 1.0, True, "0", None):
            with pytest.raises(ContractError, match="dim must be"):
                sur.nodes1d(dim)
        assert np.array_equal(sur.nodes1d(np.int64(1)), leja_nodes(beta33(-1.0, 1.0), 512))

    def test_out_of_range_node_is_refused_at_load(self):
        doc = json.loads(serialize(fit_1d(lambda y: float(np.exp(y[0])), 4)))
        doc["nodes1d"][0][2] = 1.5
        with pytest.raises(SerializationError,
                           match="'nodes1d' dimension 0 is not a prefix of the 512 Leja "
                                 "nodes of uniform"):
            deserialize(json.dumps(doc).encode())

    def test_refused_nodes_leave_the_dimension_as_it_was(self):
        sur = fit_1d(lambda y: float(y[0]), 4, SausageMap(9))
        before = sur.nodes1d(0), sur.node_points()
        for index in [(512,), (10 ** 6,)]:
            with pytest.raises(ContractError, match=f"dimension 0 cannot reach level {index[0]}"):
                sur.node_point(index)
            assert np.array_equal(sur.nodes1d(0), before[0])
            assert np.array_equal(sur.node_points(), before[1])


STORED_LAWS = [uniform(-1.0, 1.0), beta33(0.0, 2.0)]
STORED_MAPS = [IdentityMap(), SausageMap(9), KTEMap(0.9)]


@st.composite
def tampered_documents(draw):
    """A valid 2-D document with one ``nodes1d`` entry replaced by NaN,
    ±inf, a copy of another node, a value at least 1e-3 outside [-1, 1],
    or a distinct value in [-1, 1] at least 1e-3 from the one it replaces."""
    dists = [draw(st.sampled_from(STORED_LAWS)) for _ in range(2)]
    maps = [draw(st.sampled_from(STORED_MAPS)) for _ in range(2)]
    sur = Surrogate.fit(smooth, dists, MultiIndexSet.total_degree(2, 4), maps)
    doc = json.loads(serialize(sur))
    dim = draw(st.integers(0, 1))
    nodes = doc["nodes1d"][dim]
    at = draw(st.integers(0, len(nodes) - 1))
    others = nodes[:at] + nodes[at + 1:]
    nodes[at] = draw(st.one_of(
        st.sampled_from([float("nan"), float("inf"), float("-inf")]),
        st.sampled_from(others),
        st.floats(1.001, 1e300) | st.floats(-1e300, -1.001),
        st.floats(-1.0, 1.0).filter(
            lambda v: abs(v - nodes[at]) >= 1e-3 and v not in others)))
    return json.dumps(doc).encode(), dim


class TestStoredNodes:
    @settings(max_examples=80, deadline=None)
    @given(case=tampered_documents(), seed=st.integers(0, 2 ** 32 - 1))
    def test_tampered_node_loads_finite_or_is_refused(self, case, seed):
        data, dim = case
        try:
            loaded = deserialize(data)
        except SerializationError as exc:
            assert f"'nodes1d' dimension {dim}" in str(exc)
            return
        points = sample_joint(loaded.distributions, 50, seed)
        corners = [[d.lower if k & (1 << i) else d.upper
                    for i, d in enumerate(loaded.distributions)] for k in range(4)]
        values = loaded.evaluate(np.vstack([points, corners]))
        assert np.isfinite(values).all()
        assert np.isfinite(loaded.node_points()).all()

    @pytest.mark.parametrize("offset", [5e-324, 1e-310, 1e-308])
    @pytest.mark.parametrize("at", [1, 4])
    def test_near_repeat_is_refused(self, at, offset):
        # a node this near the root's 0.0 makes a Newton factor overflow: in
        # the node table for the second node, at evaluation points for the last
        sur = Surrogate.fit(smooth, [uniform(-1.0, 1.0)] * 2,
                            MultiIndexSet.total_degree(2, 4))
        doc = json.loads(serialize(sur))
        doc["nodes1d"][0][at] = offset
        with pytest.raises(SerializationError, match="'nodes1d' dimension 0 is not a prefix"):
            deserialize(json.dumps(doc))


def recomputed_node_data(nodes):
    """Newton denominators and node table of ``nodes``, computed afresh."""
    dens = np.array([np.prod(nodes[l] - nodes[:l]) for l in range(len(nodes))])
    return dens, surrogate._newton_table(nodes, nodes, dens, len(nodes) - 1)


class TestSharedNodeTables:
    @pytest.mark.parametrize("law", [uniform(-1.0, 1.0), beta33(0.0, 2.0)])
    def test_each_level_views_the_laws_table(self, law):
        nodes, dens, table = shared = surrogate._leja_tables(law.canonical())
        assert not any(array.flags.writeable for array in shared)
        assert nodes.tobytes() == leja_nodes(law, 512).tobytes()
        for l in range(512):
            assert dens[l] == np.prod(nodes[l] - nodes[:l])
        # row j holds the factors a one-point evaluation at node j computes
        for j in range(512):
            row = surrogate._newton_table(nodes[j:j + 1], nodes, dens, 511)[:, 0]
            assert table[j].tobytes() == row.tobytes()
        fitted = Surrogate.fit(smooth, [law, law], [(0, 0), (1, 0), (0, 1)],
                               [SausageMap(9), KTEMap(0.9)])
        for sur in (fitted, fitted.restrict([(0, 0)]), deserialize(serialize(fitted))):
            assert all(triple is shared for triple in sur._leja)

    def test_other_nodes_are_refused(self):
        doc = json.loads(serialize(fit_1d(lambda y: float(np.exp(y[0])), 5)))
        leja = doc["nodes1d"][0]
        beta = leja_nodes(beta33(-1.0, 1.0), 5).tolist()
        for nodes in ([0.0, 0.9, -0.8, 0.5, -0.3], leja[:3] + [float("nan"), leja[4]],
                      leja[:3] + [0.9, 0.9], leja[:3] + [1.5, leja[4]], beta,
                      leja_nodes(uniform(-1.0, 1.0), 512).tolist() + [0.5]):
            doc["nodes1d"][0] = nodes
            with pytest.raises(SerializationError,
                               match="'nodes1d' dimension 0 is not a prefix of the 512"):
                deserialize(json.dumps(doc).encode())
        # any longer prefix of the shipped nodes loads, up to all of them
        for n in (6, 129, 512):
            doc["nodes1d"][0] = leja_nodes(uniform(-1.0, 1.0), n).tolist()
            loaded = deserialize(json.dumps(doc).encode())
            assert loaded.nodes1d(0).tobytes() == leja_nodes(uniform(-1.0, 1.0), 512).tobytes()


def runge_1d(y):
    return 1.0 / (1.0 + 25.0 * y[0] ** 2)


class TestShippedNodesOnly:
    """Every surrogate node is one of its law's 512 shipped Leja nodes."""

    def test_surrogates_never_generate_nodes(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a Leja sequence was generated")
        monkeypatch.setattr(LejaSequence, "__init__", refuse)
        monkeypatch.setattr(LejaSequence, "next_node", refuse)
        surrogate._leja_tables.cache_clear()    # the tables are built from the file
        sur, report = run_adaptive(runge_1d, AdaptiveConfig(512), UNIT)
        assert len(sur) == report.lu_count == 512
        assert sur.index_set.max_level() == (511,)
        pts = np.linspace(-1.0, 1.0, 1001)[:, None]
        assert np.abs(sur.evaluate(pts) - [runge_1d(p) for p in pts]).max() < 1e-12
        lines = [(k, 0) for k in range(300)] + [(0, k) for k in range(1, 200)]
        fitted = Surrogate.fit(smooth, [uniform(-1.0, 1.0), beta33(0.0, 2.0)], lines,
                               [SausageMap(9), KTEMap(0.9)])
        kept = fitted.restrict(lines[:150])
        for original in (sur, fitted, kept):
            loaded = deserialize(serialize(original))
            assert serialize(loaded) == serialize(original)
            assert same_bits(loaded, original, loaded.node_points()[::7])

    @pytest.mark.parametrize("law", [uniform(-1.0, 1.0), beta33(-1.0, 1.0)])
    def test_shipped_newton_factors_are_bounded(self, law):
        # |Newton factor l| <= 2^l / |dens[l]| on [-1, 1]: finite at every level
        dens, table = recomputed_node_data(leja_nodes(law, 512))
        assert np.isfinite(2.0 ** np.arange(512) / np.abs(dens)).all()
        assert np.isfinite(table).all()

    def test_a_level_past_the_cap_is_refused_before_its_model_call(self):
        calls = []

        def counted(y):
            calls.append(y)
            return runge_1d(y)
        with pytest.raises(ContractError, match="dimension 0 cannot reach level 512: "
                                                "levels stop at 511"):
            run_adaptive(counted, AdaptiveConfig(513), UNIT)
        assert len(calls) == 512
        sur = Surrogate.fit(smooth, UNIT * 2, [(0, 0)])
        for refused in (lambda: sur.node_point((0, 512)),
                        lambda: sur.predict_node((0, 600)),
                        lambda: Surrogate.fit(smooth, UNIT * 2, [(0, k) for k in range(513)])):
            with pytest.raises(ContractError, match="dimension 1 cannot reach level"):
                refused()


def pair_values(y):
    """A (2, 3) value, shaped like an adjoint field's primal–dual pair."""
    return np.array([smooth_vector(y), 1j * smooth_vector(-y)])


def kernel_prediction(sur, index):
    """The node prediction of ``index`` by the batch kernel on one node-table
    row per dimension."""
    rows = [table[lev] for (_, _, table), lev in zip(sur._leja, index)]
    out = surrogate._prefix_sum(lambda _: rows, 1, sur.index_set.depths(),
                                sur._surpluses[:len(sur)])
    return out[0].reshape(sur.value_shape)


def by_add_point(dists, maps, order, size, f):
    return grown(dists, maps, order[:size], f)


def by_add_restricted(dists, maps, order, size, f):
    sur = Surrogate(dists, maps)
    for ix in order[:size]:
        sur.add_restricted(ix, f(sur.node_point(ix)))
    return sur


def by_fit(dists, maps, order, size, f):
    return Surrogate.fit(f, dists, order[:size], maps)


def by_restrict(dists, maps, order, size, f):
    return grown(dists, maps, order, f).restrict(order[:size])


def by_deserialize(dists, maps, order, size, f):
    return deserialize(serialize(grown(dists, maps, order[:size], f)))


# every way of growing a surrogate, each ending in ``Surrogate._append``
GROWTH_PATHS = [by_add_point, by_add_restricted, by_fit, by_restrict, by_deserialize]


@pytest.mark.parametrize("build", GROWTH_PATHS, ids=lambda build: build.__name__[3:])
@pytest.mark.parametrize("f", [smooth, pair_values], ids=["scalar", "pair"])
class TestNodePredictionBits:
    """Node predictions from the level array equal the batch kernel's bit for bit."""

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_matches_the_kernel(self, build, f, data):
        dim = data.draw(st.integers(1, 4))
        dists = data.draw(st.lists(st.sampled_from(STORED_LAWS), min_size=dim, max_size=dim))
        maps = data.draw(st.lists(st.sampled_from(STORED_MAPS), min_size=dim, max_size=dim))
        # sizes on both sides of the capacity doublings at 16, 32 and 64
        size = data.draw(st.sampled_from([1, 15, 16, 17, 32, 33, 64, 65, 70]))
        grid = MultiIndexSet(dim)
        while len(grid) < size + 6:
            grid.add(data.draw(st.sampled_from(grid.admissible_neighbors())))
        sur = build(dists, maps, list(grid), size, f)
        assert len(sur) == size
        assert np.array_equal(sur._levels[:, :size], np.array(sur.indices).T)
        for ix in sur.indices + sur.index_set.admissible_neighbors():
            got = np.asarray(sur.predict_node(ix))
            assert got.tobytes() == kernel_prediction(sur, ix).tobytes()


class Drop:
    """Marks a field that a mutation removes."""

    def __repr__(self):
        return "DROP"


DROP = Drop()


def valid_document():
    """A 2-D surrogate document on both laws and both maps, as a new object."""
    sur = Surrogate.fit(smooth, [uniform(-1.0, 1.0), beta33(0.0, 2.0)],
                        MultiIndexSet.total_degree(2, 2), [SausageMap(9), KTEMap(0.9)])
    return json.loads(serialize(sur))


def children(node):
    """(key, value) pairs of a JSON object or array; none for a scalar."""
    if isinstance(node, dict):
        return list(node.items())
    return list(enumerate(node)) if isinstance(node, list) else []


def fields(node, path=()):
    """The path of every key and array entry of a JSON value, at any depth."""
    for key, child in children(node):
        yield path + (key,)
        yield from fields(child, path + (key,))


def leaves(node):
    """Every scalar inside a JSON value."""
    kids = children(node)
    if not kids and not isinstance(node, (dict, list)):
        yield node
    for _, child in kids:
        yield from leaves(child)


@st.composite
def document_edits(draw):
    """One or two (field path, new value or DROP) edits of ``valid_document``.
    Values include the document's own, so that a node or level can repeat."""
    doc = valid_document()
    paths = list(fields(doc))
    values = st.one_of(
        st.just(DROP), st.sampled_from(list(leaves(doc))),
        st.sampled_from([None, True, 0, -1, 511, 512, 5.0, -0.0, 1e-320, 1e308,
                         "a", "beta33", [], {}, [0.0], [[0, 0]]]),
        st.floats(), st.integers(-2, 4))
    return draw(st.lists(st.tuples(st.sampled_from(paths), values), min_size=1,
                         max_size=2, unique_by=lambda edit: edit[0]))


def edited(doc, edits):
    """``doc`` with each edit applied whose field still exists, as JSON text."""
    for path, value in edits:
        *head, last = path
        parent = doc
        try:
            for key in head:
                parent = parent[key]
            parent[last]
        except (KeyError, IndexError, TypeError):
            continue    # an earlier edit dropped or replaced the field
        if isinstance(parent, (dict, list)):
            if value is DROP:
                del parent[last]
            else:
                parent[last] = value
    return json.dumps(doc)


class TestDocumentFuzz:
    """A mutated document loads to a surrogate that is finite in its own box,
    or is refused with ``SerializationError``."""

    @settings(max_examples=300, deadline=None)
    @given(edits=document_edits())
    # escapes found by earlier fuzzing: a null, a repeated and an
    # out-of-range node, and a subnormal KTE strength
    @example(edits=[(("nodes1d", 1, 1), None)])
    @example(edits=[(("nodes1d", 0, 2), -1.0)])
    @example(edits=[(("nodes1d", 0, 1), 5.0)])
    @example(edits=[(("maps", 1, "alpha"), 1e-320)])
    # and by this test: a surplus, a law bound and a sausage order whose
    # arithmetic overflows a float
    @example(edits=[(("surpluses_re", 4), 1e308)])
    @example(edits=[(("distributions", 0, "upper"), 1e308)])
    @example(edits=[(("maps", 0, "order"), 511)])
    def test_loads_finite_or_is_refused(self, edits):
        try:
            loaded = deserialize(edited(valid_document(), edits))
        except SerializationError:
            return
        box = loaded.distributions
        corners = [[d.lower if k & (1 << i) else d.upper for i, d in enumerate(box)]
                   for k in range(1 << len(box))]
        points = np.vstack([sample_joint(box, 20, 0), corners])
        assert np.isfinite(loaded.evaluate(points)).all()


class TestSurplusBound:
    """A document is refused only where its interpolant could overflow."""

    @pytest.mark.parametrize("law", [uniform(-1.0, 1.0), beta33(-1.0, 1.0)],
                             ids=["uniform", "beta33"])
    def test_factor_bound_covers_every_level_with_a_margin(self, law):
        nodes, dens, _ = surrogate._leja_tables(law)
        # at the 8,193 Chebyshev-Lobatto points a degree-511 polynomial reaches
        # at least cos(511π/16384) times its maximum on [-1, 1] (Ehlich & Zeller)
        x = np.cos(np.linspace(0.0, np.pi, 8193))
        peak = max(np.abs(surrogate._newton_table(x[k:k + 1024], nodes, dens, 511)).max()
                   for k in range(0, len(x), 1024))
        bound = surrogate._FACTOR_BOUND[law.kind]
        assert 1.9 * peak / np.cos(511 * np.pi / 16384) < bound < 2.1 * peak

    @pytest.mark.parametrize("law", [uniform(-1.0, 1.0), beta33(0.0, 2.0)],
                             ids=["uniform", "beta33"])
    def test_large_surpluses_at_the_level_cap_round_trip(self, law):
        sur = Surrogate([law], SausageMap(9))
        for level in range(512):
            sur.add_restricted((level,), 100.0 * (-1) ** level + 30j)
        data = serialize(sur)
        loaded = deserialize(data)
        assert serialize(loaded) == data
        points = sample_joint([law], 50, 0)
        assert np.isfinite(loaded.evaluate(points)).all()

    def test_a_slow_one_dimension_build_round_trips(self):
        def step(y):    # in physical units, a jump of 2,900
            return 2500.0 if y[0] > 0.1 else -400.0

        sur, _ = run_adaptive(step, AdaptiveConfig(budget=512), UNIT)
        assert abs(sur.surplus((511,))) > 100.0
        data = serialize(sur)
        assert serialize(deserialize(data)) == data

    def test_only_surpluses_that_could_overflow_are_refused(self):
        sur = Surrogate(UNIT).add_restricted((0,), 1.0).add_restricted((1,), 1e306)
        assert np.isfinite(deserialize(serialize(sur)).evaluate([[-1.0], [1.0]])).all()
        sur = Surrogate([uniform(-1.0, 1.0), beta33(0.0, 2.0)])
        sur.add_restricted((0, 0), 1.0).add_restricted((0, 1), 1e302)
        with pytest.raises(SerializationError, match="can overflow the interpolant"):
            deserialize(serialize(sur))
