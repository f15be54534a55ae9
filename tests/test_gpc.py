import itertools
import json
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from numpy.testing import assert_allclose

from adaleja import (GpcExpansion, MultiIndexSet, SMOLYAK, TENSOR, beta33,
                     gauss_rule, project, sample_joint, uniform)
from adaleja import gpc, surrogate
from adaleja.errors import (ContractError, SerializationError, SolveError,
                            UnsupportedVersionError)
from adaleja.gpc import ortho_table, recurrence_betas


class TestOrthonormalBasis:
    @pytest.mark.parametrize("kind", ["uniform", "beta33"])
    def test_orthonormality_under_gauss_rule(self, kind):
        deg = 8
        nodes, weights = gauss_rule(kind, deg + 1)
        table = ortho_table(kind, nodes, deg)
        gram = table.T @ (weights[:, None] * table)
        assert np.abs(gram - np.eye(deg + 1)).max() < 1e-12

    def test_uniform_betas_are_legendre(self):
        betas = recurrence_betas("uniform", 4)
        expected = [n * n / (4.0 * n * n - 1.0) for n in range(1, 5)]
        assert_allclose(betas, expected, rtol=1e-15)

    def test_beta33_first_beta_is_variance(self):
        # beta_1 equals the variance of the canonical beta33 law, 1/9
        betas = recurrence_betas("beta33", 1)
        assert_allclose(betas[0], 1.0 / 9.0, rtol=1e-14)

    def test_constant_polynomial_is_one(self):
        table = ortho_table("uniform", np.linspace(-1, 1, 7), 3)
        assert_allclose(table[:, 0], np.ones(7), rtol=0)

    def test_gauss_weights_normalized(self):
        for kind in ("uniform", "beta33"):
            _, w = gauss_rule(kind, 12)
            assert_allclose(w.sum(), 1.0, rtol=1e-13)

    def test_gauss_order_is_an_integer(self):
        # 2.6 returned two nodes
        for order in (0, 2.6, 2.0, True, "2"):
            with pytest.raises(ContractError):
                gauss_rule("uniform", order)
        assert len(gauss_rule("uniform", np.int64(3))[0]) == 3


def _moment(kind, k):
    """E[y**k] under the canonical law, exactly."""
    if k % 2:
        return Fraction(0)
    if kind == "uniform":
        return Fraction(1, k + 1)
    # density 35/32 (1 - y²)³ on [-1, 1]
    return Fraction(35, 16) * (Fraction(1, k + 1) - Fraction(3, k + 3)
                               + Fraction(3, k + 5) - Fraction(1, k + 7))


class TestGaussRule:
    ORDERS = range(1, 41)

    @pytest.mark.parametrize("kind", ["uniform", "beta33"])
    def test_rules_are_symmetric(self, kind):
        for order in self.ORDERS:
            nodes, weights = gauss_rule(kind, order)
            assert len(nodes) == len(weights) == order
            assert np.all(np.diff(nodes) > 0)
            # bitwise, so odd orders of every kind share an exact 0.0 node
            assert np.array_equal(nodes, -nodes[::-1])
            assert np.array_equal(weights, weights[::-1])
            if order % 2:
                assert nodes[order // 2] == 0.0

    def test_uniform_rule_matches_leggauss(self):
        for order in self.ORDERS:
            nodes, weights = gauss_rule("uniform", order)
            ref_nodes, ref_weights = leggauss(order)
            assert_allclose(nodes, ref_nodes, rtol=0, atol=2e-15)
            assert_allclose(weights, ref_weights / np.sum(ref_weights), rtol=2e-12)

    @pytest.mark.parametrize("kind", ["uniform", "beta33"])
    def test_rule_integrates_monomials_to_degree_2n_minus_1(self, kind):
        # |y| <= 1 and the weights sum to one, so Σ |w y^k| <= 1 and an
        # absolute bound of a few ulp fits every degree
        assert _moment("beta33", 2) == Fraction(1, 9)
        for order in self.ORDERS:
            nodes, weights = gauss_rule(kind, order)
            for k in range(2 * order):
                assert abs(np.sum(weights * nodes ** k) - float(_moment(kind, k))) < 4e-15

    def test_unknown_kind_is_refused(self):
        for order in (1, 3):
            with pytest.raises(ContractError, match="kind 'normal'"):
                gauss_rule("normal", order)


def _brute_projection(model, dists, p_max, quadrature):
    """Coefficients as a sum over the tensor points, one basis function
    at a time: product weights times every basis function's values."""
    n_dim = len(dists)
    index_set = list(MultiIndexSet.total_degree(n_dim, p_max))
    if quadrature == TENSOR:
        parts = [((p_max + 1,) * n_dim, 1)]
    else:
        parts = [(tuple(l + 1 for l in ell), gpc._combination_weight(n_dim, p_max - sum(ell)))
                 for ell in index_set]
    coeff = dict.fromkeys(index_set, 0.0)
    for orders, scale in parts:
        rules = [gauss_rule(d.kind, o) for d, o in zip(dists, orders)]
        ys = np.column_stack([g.reshape(-1) for g in
                              np.meshgrid(*[r[0] for r in rules], indexing="ij")])
        weight = np.prod([g.reshape(-1) for g in
                          np.meshgrid(*[r[1] for r in rules], indexing="ij")], axis=0)
        xs = np.column_stack([d.from_canonical(ys[:, k]) for k, d in enumerate(dists)])
        weighted = weight * np.array([model(x) for x in xs])
        tables = [ortho_table(d.kind, ys[:, k], p_max).T for k, d in enumerate(dists)]
        for ix in index_set:
            coeff[ix] += scale * np.sum(weighted * surrogate._basis(tables, ix))
    return coeff


class TestProjection:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_the_per_basis_sum(self, data):
        dists = data.draw(st.lists(
            st.sampled_from([uniform(-1, 2), beta33(0, 2)]), min_size=1, max_size=3))
        p_max = data.draw(st.integers(0, 5))
        quadrature = data.draw(st.sampled_from([TENSOR, SMOLYAK]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        a, b = rng.normal(size=(2, len(dists)))

        def model(x):
            return complex(np.exp(a @ x / 3.0) * (1.0 + 1j * np.sin(b @ x)))

        exp = project(model, dists, p_max, quadrature=quadrature)
        want = _brute_projection(model, dists, p_max, quadrature)
        scale = max(abs(c) for c in want.values())
        assert exp.indices == list(want)
        for ix, c in want.items():
            assert abs(exp.coefficient(ix) - c) <= 1e-13 * scale

    @pytest.mark.parametrize("law, n_dim, p_max, calls", [
        (uniform, 2, 3, 29), (uniform, 2, 6, 137), (uniform, 2, 8, 281),
        (beta33, 3, 6, 681), (uniform, 4, 6, 2145)])
    def test_smolyak_model_calls(self, law, n_dim, p_max, calls):
        # odd Gauss orders share their 0.0 node, so the node cache saves
        # exactly these calls
        seen = []

        def model(x):
            seen.append(x)
            return float(np.sum(x))

        project(model, [law(-1, 1)] * n_dim, p_max, quadrature=SMOLYAK)
        assert len(seen) == calls

    def test_reproduces_basis_coefficient(self):
        """Projecting Psi_(2,0) returns a lone unit coefficient."""
        dists = [uniform(-1, 1)] * 2

        def f(y):
            table = ortho_table("uniform", np.array([y[0]]), 2)
            return float(table[0, 2])

        exp = project(f, dists, 3)
        assert_allclose(exp.coefficient((2, 0)), 1.0, atol=1e-12)
        others = [ix for ix in exp.indices if ix != (2, 0)]
        assert max(abs(exp.coefficient(ix)) for ix in others) < 1e-12

    @pytest.mark.parametrize("model, error, match", [
        # a NaN gave all-NaN coefficients, written as bare NaN tokens
        (lambda y: np.nan if y[0] > 0.5 else 1.0, SolveError, "non-finite model value"),
        (lambda y: 1.0 / 0.0, SolveError, "model evaluation failed at a quadrature node"),
        (lambda y: np.array([1.0, 2.0]), ContractError, r"scalar model, got shape \(2,\)"),
    ])
    @pytest.mark.parametrize("quadrature", [TENSOR, SMOLYAK])
    def test_model_faults_are_refused(self, model, error, match, quadrature):
        with pytest.raises(error, match=match):
            project(model, [uniform(-1, 1)] * 2, 3, quadrature=quadrature)

    def test_p_max_is_an_integral_number(self):
        for p_max in (2.5, True, "2", -1, float("nan"), float("inf")):
            with pytest.raises(ContractError, match="p_max"):
                project(lambda y: 1.0, [uniform(-1, 1)], p_max)
            with pytest.raises(ContractError, match="p_max"):
                GpcExpansion([uniform(-1, 1)], p_max, [(0,)], [1.0])
        assert project(lambda y: 1.0, [uniform(-1, 1)], 2.0).p_max == 2

    def test_refusals(self):
        for call, match in (
                (lambda: project(lambda y: 1.0, [], 2),
                 "at least one distribution is required"),
                (lambda: project(lambda y: 1.0, [uniform(-1, 1)], 2, quadrature="clenshaw"),
                 "unknown quadrature 'clenshaw'"),
                (lambda: GpcExpansion([uniform(-1, 1)], 1, [(0,), (1,)], [1.0]),
                 "one coefficient per index is required")):
            with pytest.raises(ContractError, match=match):
                call()

    def test_constant_model(self):
        exp = project(lambda y: 5.0 - 2.0j, [beta33(-1, 1)], 2)
        assert_allclose(exp.coefficient((0,)), 5.0 - 2.0j, rtol=1e-14)
        assert abs(exp.coefficient((1,))) < 1e-14

    def test_product_coefficient_frozen(self):
        # f = y1*y2 on uniform^2: coefficient on Psi_1 x Psi_1 is
        # (E[y Psi_1])^2 = (1/sqrt(3))^2 = 1/3
        f = lambda y: float(y[0] * y[1])
        exp = project(f, [uniform(-1, 1)] * 2, 2)
        assert_allclose(exp.coefficient((1, 1)), 1.0 / 3.0, rtol=1e-12)
        # (1,) is a prefix of stored indices, not an index of the expansion
        # an integer tuple of the expansion's length is required
        for outside in ((1,), (1, 2), (0, 1, 0), (1.9, 1), (1.0, 1), (True, 1),
                        ("1", 1), 5):
            with pytest.raises(ContractError):
                exp.coefficient(outside)
        # degrees are integers too: 2.0 reads as 2, nothing is truncated
        assert project(f, [uniform(-1, 1)] * 2, 2.0).to_json() == exp.to_json()
        for p_max in (2.9, float("nan"), True, "2", -1):
            with pytest.raises(ContractError, match="p_max"):
                project(f, [uniform(-1, 1)] * 2, p_max)
            with pytest.raises(ContractError, match="p_max"):
                GpcExpansion(exp.distributions, p_max, exp.indices, exp.coefficients)

    def test_physical_support_scaling(self):
        # the canonical coefficient structure is unchanged by the support
        f = lambda y: float(y[0])
        exp = project(f, [uniform(2.0, 6.0)], 1)
        # y = 4 + 2t: coefficient on Psi_0 is 4, on Psi_1 is 2/sqrt(3)
        assert_allclose(exp.coefficient((0,)), 4.0, rtol=1e-13)
        assert_allclose(exp.coefficient((1,)), 2.0 / np.sqrt(3.0), rtol=1e-13)

    def test_tensor_and_smolyak_agree(self):
        # For a polynomial of total degree <= p_max both quadratures are
        # exact, so the coefficients must coincide to rounding.
        f = lambda y: float(1.0 + 0.5 * y[0] - y[1]
                            + y[0] ** 2 * y[1] - 0.25 * y[0] * y[1] ** 3)
        dists = [uniform(-1, 1), beta33(-1, 1)]
        te = project(f, dists, 4, quadrature=TENSOR)
        sm = project(f, dists, 4, quadrature=SMOLYAK)
        for ix in te.indices:
            assert abs(te.coefficient(ix) - sm.coefficient(ix)) < 1e-12

    def test_combination_weights_match_the_corner_sum(self):
        # the Smolyak weight of an index is Σ (-1)^|z| over the corners
        # z in {0,1}^N whose shift ell + z stays in the total-degree set
        for n_dim in range(1, 9):
            corners = list(itertools.product((0, 1), repeat=n_dim))
            for excess in range(11):
                brute = sum((-1) ** sum(z) for z in corners if sum(z) <= excess)
                assert gpc._combination_weight(n_dim, excess) == brute
        for n_dim, p_max in ((1, 4), (2, 5), (3, 4), (4, 3)):
            index_set = MultiIndexSet.total_degree(n_dim, p_max)
            for ell in index_set:
                brute = sum((-1) ** sum(z)
                            for z in itertools.product((0, 1), repeat=n_dim)
                            if tuple(l + c for l, c in zip(ell, z)) in index_set)
                assert gpc._combination_weight(n_dim, p_max - sum(ell)) == brute

    def test_quadrature_exactness_for_polynomials(self):
        """Total-degree p_max polynomials project onto themselves."""
        f = lambda y: float(2.0 + y[0] - 3.0 * y[0] * y[1] + y[1] ** 2)
        exp = project(f, [uniform(-1, 1)] * 2, 2)
        pts = np.random.default_rng(3).uniform(-1, 1, (64, 2))
        exact = 2.0 + pts[:, 0] - 3.0 * pts[:, 0] * pts[:, 1] + pts[:, 1] ** 2
        assert np.abs(exp.evaluate(pts) - exact).max() < 1e-12


class TestEvaluation:
    def test_matches_smooth_model(self):
        f = lambda y: float(np.exp(y[0]))
        exp = project(f, [uniform(-1, 1)], 10)
        grid = np.linspace(-1, 1, 101)[:, None]
        err = np.abs(exp.evaluate(grid) - np.exp(grid[:, 0])).max()
        assert err < 1e-8

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_blocked_evaluate_matches_direct_sum(self, data):
        dists = data.draw(st.lists(
            st.sampled_from([uniform(-1, 1), beta33(0, 2)]), min_size=1, max_size=3))
        p_max = data.draw(st.integers(0, 4))
        indices = sorted(MultiIndexSet.total_degree(len(dists), p_max))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        coeffs = rng.normal(size=len(indices)) + 1j * rng.normal(size=len(indices))
        exp = GpcExpansion(dists, p_max, indices, coeffs)
        pts = sample_joint(dists, 50, 3)
        # a few points per block, so the 50 points span many blocks
        block = data.draw(st.integers(1, 4))
        with mock.patch.object(surrogate, "_BLOCK", block):
            got = exp.evaluate(pts)
        tables = [ortho_table(d.kind, d.to_canonical(pts[:, k]), p_max)
                  for k, d in enumerate(dists)]
        want = np.zeros(len(pts), dtype=complex)
        for c, ix in zip(coeffs, indices):
            want += c * np.prod([t[:, l] for t, l in zip(tables, ix)], axis=0)
        assert_allclose(got, want, rtol=1e-12)

    def test_single_point(self):
        exp = project(lambda y: float(y[0]), [uniform(-1, 1)], 1)
        assert_allclose(complex(exp.evaluate(np.array([0.3]))), 0.3, atol=1e-13)


class TestDecay:
    def test_rows_cover_all_total_degrees(self):
        exp = project(lambda y: float(np.exp(y[0] + y[1])), [uniform(-1, 1)] * 2, 5)
        rows = exp.decay()
        assert [w for w, _ in rows] == list(range(6))

    def test_analytic_model_decays(self):
        f = lambda y: float(np.exp(0.5 * (y[0] + 0.7 * y[1])))
        exp = project(f, [uniform(-1, 1)] * 2, 6)
        vals = dict(exp.decay())
        assert all(vals[w + 1] < vals[w] for w in range(1, 6))
        assert vals[1] / vals[6] > 10.0


class TestSerialization:
    def test_round_trip(self):
        f = lambda y: complex(np.cos(y[0]), 0.1 * y[0])
        exp = project(f, [beta33(-1, 1)], 4)
        again = GpcExpansion.from_json(exp.to_json())
        assert again.p_max == exp.p_max
        assert list(again.indices) == list(exp.indices)
        pts = np.linspace(-0.9, 0.9, 17)[:, None]
        assert_allclose(again.evaluate(pts), exp.evaluate(pts), rtol=0)

    def test_signed_zero_round_trip(self):
        # re + 1j * im would turn both imaginary -0.0 into 0.0
        exp = GpcExpansion([uniform(-1, 1)], 2, [(0,), (1,), (2,)],
                           [complex(1.0, -0.0), 0.5j, complex(-2.0, -0.0)])
        again = GpcExpansion.from_json(exp.to_json())
        assert again.to_json() == exp.to_json()
        assert np.signbit(again.coefficients.imag).tolist() == [True, False, True]

    def test_gpc_marker(self):
        exp = project(lambda y: 1.0, [uniform(-1, 1)], 1)
        doc = json.loads(exp.to_json())
        assert doc["kind"] == "gpc"

    def test_version_guard(self):
        exp = project(lambda y: 1.0, [uniform(-1, 1)], 1)
        doc = json.loads(exp.to_json())
        doc["version"] = 40
        with pytest.raises(UnsupportedVersionError):
            GpcExpansion.from_json(json.dumps(doc).encode())

    def test_malformed_rejected(self):
        with pytest.raises(SerializationError):
            GpcExpansion.from_json(b"[1, 2, 3]")

    def test_non_finite_coefficients_refused(self):
        # they were stored, written as bare NaN tokens and read back
        exp = project(lambda y: float(y[0]), [uniform(-1, 1)] * 2, 1)
        for value in (np.nan, complex(1.0, -np.inf)):
            with pytest.raises(ContractError, match="1 of 3 coefficients are not finite"):
                GpcExpansion(exp.distributions, 1, exp.indices, [value, 1.0, 0.0])
        doc = json.loads(exp.to_json())
        doc["coefficients_im"][2] = float("nan")
        with pytest.raises(SerializationError, match="coefficients are not finite"):
            GpcExpansion.from_json(json.dumps(doc).encode())

    def test_duplicate_indices_rejected(self):
        # as many indices as the total-degree set, but one twice
        exp = project(lambda y: float(y[0]), [uniform(-1, 1)] * 2, 1)
        doc = json.loads(exp.to_json())
        original = doc["indices"][2]
        doc["indices"][2] = doc["indices"][1]
        with pytest.raises(SerializationError, match="each index once"):
            GpcExpansion.from_json(json.dumps(doc).encode())
        # entries are integers, not numbers that truncate to them
        for entry in (1.0, 1.5, True, "1"):
            doc["indices"][2] = [entry if c else c for c in original]
            with pytest.raises(SerializationError, match="integer tuple"):
                GpcExpansion.from_json(json.dumps(doc).encode())
        doc["indices"][2] = original
        assert GpcExpansion.from_json(json.dumps(doc).encode()).p_max == 1
        for p_max in (1.9, True, "1", -1, None):
            doc["p_max"] = p_max
            with pytest.raises(SerializationError, match="p_max"):
                GpcExpansion.from_json(json.dumps(doc).encode())
        # the dimension is a count, and it counts the distributions
        doc["p_max"] = 1
        for n_dim in ("x", True, 2.0, 0, 1, 3, None):
            doc["N"] = n_dim
            with pytest.raises(SerializationError, match="N|distributions"):
                GpcExpansion.from_json(json.dumps(doc).encode())
