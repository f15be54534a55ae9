import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from adaleja import (IdentityMap, KTEMap, SausageMap, Surrogate, make_map,
                     uniform)
from adaleja.errors import ContractError, DomainError

ALL_MAPS = [
    IdentityMap(),
    SausageMap(1),
    SausageMap(3),
    SausageMap(9),
    SausageMap(13),
    KTEMap(0.5),
    KTEMap(0.9),
    KTEMap(0.99),
]


class TestForward:
    def test_sausage_cubic_value(self):
        # degree-3 truncation of arcsin, normalized: (y + y^3/6) / (7/6)
        assert_allclose(SausageMap(3).forward(0.5), 25.0 / 56.0, rtol=1e-15)

    def test_sausage_linear_is_identity(self):
        m = SausageMap(1)
        for y in (-0.7, 0.0, 0.3, 1.0):
            assert m.forward(y) == y

    def test_sausage_normalization(self):
        assert SausageMap(9).forward(1.0) == 1.0
        assert SausageMap(9).forward(-1.0) == -1.0

    def test_kte_value(self):
        expected = math.asin(0.25) / math.asin(0.5)
        assert_allclose(KTEMap(0.5).forward(0.5), expected, rtol=1e-15)
        assert_allclose(expected, 0.48258, atol=5e-6)

    def test_domain_error(self):
        for m in (SausageMap(9), KTEMap(0.5)):
            with pytest.raises(DomainError):
                m.forward(1.0000001)
            with pytest.raises(DomainError):
                m.forward(-1.5)

    def test_sausage_rejects_even_order(self):
        with pytest.raises(ValueError):
            SausageMap(4)
        with pytest.raises(ValueError):
            SausageMap(0)

    def test_kte_alpha_range(self):
        with pytest.raises(ValueError):
            KTEMap(0.0)
        with pytest.raises(ValueError):
            KTEMap(1.0)


class TestMapProperties:
    @pytest.mark.parametrize("m", ALL_MAPS)
    def test_endpoints_exact(self, m):
        assert abs(m.forward(1.0) - 1.0) <= 1e-15
        assert abs(m.forward(-1.0) + 1.0) <= 1e-15

    @pytest.mark.parametrize("m", ALL_MAPS)
    def test_oddness(self, m):
        rng = np.random.default_rng(3)
        ys = rng.uniform(0.0, 1.0, 1000)
        for y in ys:
            assert abs(m.forward(-y) + m.forward(y)) <= 1e-15

    @pytest.mark.parametrize("m", ALL_MAPS)
    def test_into_interval_and_increasing(self, m):
        ys = np.linspace(-1.0, 1.0, 2001)
        ts = np.array([m.forward(y) for y in ys])
        assert ts.min() >= -1.0 - 1e-15 and ts.max() <= 1.0 + 1e-15
        assert (np.diff(ts) > 0.0).all()

    @pytest.mark.parametrize("m", ALL_MAPS)
    def test_derivative_positive_and_consistent(self, m):
        ys = np.linspace(-0.999, 0.999, 101)
        h = 1e-6
        for y in ys:
            d = m.derivative(y)
            assert d > 0.0
            fd = (m.forward(min(y + h, 1.0)) - m.forward(max(y - h, -1.0))) / (2 * h)
            assert abs(d - fd) < 1e-5 * max(1.0, abs(d))

    @pytest.mark.parametrize("m", ALL_MAPS)
    def test_inverse_round_trip(self, m):
        ys = np.linspace(-1.0, 1.0, 401)
        for y in ys:
            t = m.forward(y)
            assert abs(m.forward(m.inverse(t)) - t) <= 1e-13

    def test_inverse_domain_error(self):
        with pytest.raises(DomainError):
            SausageMap(9).inverse(1.1)

    def test_identity_inverse(self):
        assert IdentityMap().inverse(0.37) == 0.37

    def test_forward_complex_matches_real_axis(self):
        for m in (SausageMap(9), KTEMap(0.7)):
            for y in np.linspace(-0.9, 0.9, 19):
                assert abs(m.forward_complex(complex(y, 0.0)) - m.forward(y)) < 1e-14


class TestGain:
    def test_identity_zero(self):
        m = IdentityMap()
        for eps in (0.1, 0.5, 2.0):
            assert m.estimate_gain(eps) == 0.0

    def test_sample_count_is_an_integer(self):
        for m in (IdentityMap(), SausageMap(9)):
            for n in (0, 2.7, 64.0, True, "64"):
                with pytest.raises(ContractError):
                    m.estimate_gain(0.5, n_samples=n)

    def test_sausage9_positive_at_moderate_eps(self):
        g = SausageMap(9).estimate_gain(0.3294)
        assert g > 0.0

    def test_sausage9_small_at_huge_eps(self):
        # for enormous analyticity regions the map cannot help; the gain
        # settles around -0.6 rather than 0 because the polynomial map
        # caps the image region while r_max keeps growing
        g = SausageMap(9).estimate_gain(10.0)
        assert_allclose(g, -0.5954, atol=0.02)

    def test_monotone_non_increasing(self):
        m = SausageMap(9)
        eps = np.linspace(0.05, 2.0, 20)
        gains = np.array([m.estimate_gain(e) for e in eps])
        assert (np.diff(gains) <= 0.02).all()

    def test_gain_deterministic(self):
        m = KTEMap(0.9)
        assert m.estimate_gain(0.4) == m.estimate_gain(0.4)

    def test_kte_gain_stops_at_its_branch_points(self):
        # arcsin(0.9 z) branches at z = ±1/0.9, on the Bernstein ellipse of
        # radius 1.595; no larger ellipse may count as mapped inside
        m = KTEMap(0.9)
        assert_allclose(m.singularity_radius, 1.595, atol=5e-4)
        r_max = 1.0 + np.sqrt(2.0)
        bound = np.log(m.singularity_radius) / np.log(r_max) - 1.0
        assert m.estimate_gain(1.0) <= bound

    def test_entire_maps_have_no_singularity(self):
        assert IdentityMap().singularity_radius == np.inf
        assert SausageMap(9).singularity_radius == np.inf

    @pytest.mark.parametrize("m", [IdentityMap(), SausageMap(9)])
    def test_gain_rejects_nonpositive_epsilon(self, m):
        with pytest.raises(DomainError):
            m.estimate_gain(0.0)

    @pytest.mark.parametrize("m", [IdentityMap(), SausageMap(9), KTEMap(0.9)])
    @pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), "0.5", True])
    def test_gain_rejects_epsilon_that_is_no_finite_number(self, m, epsilon):
        # nan returned nan, inf returned -1.0, and the string was parsed
        with pytest.raises(ContractError, match="epsilon"):
            m.estimate_gain(epsilon)

    def test_gain_reads_any_real_epsilon(self):
        m = SausageMap(9)
        assert m.estimate_gain(np.float64(0.5)) == m.estimate_gain(0.5)
        assert m.estimate_gain(1) == m.estimate_gain(1.0)


class TestFactory:
    def test_make_map_kinds(self):
        assert isinstance(make_map({"map": "identity"}), IdentityMap)
        s = make_map({"map": "sausage", "order": 5})
        assert isinstance(s, SausageMap) and s.order == 5
        k = make_map({"map": "kte", "alpha": 0.8})
        assert isinstance(k, KTEMap) and k.alpha == 0.8

    def test_sausage_default_order(self):
        assert make_map({"map": "sausage"}).order == 9

    def test_no_map_means_identity(self):
        # a study that names no map interpolates on the untransformed nodes
        sur = Surrogate([uniform(-1, 1)] * 2)
        assert all(isinstance(m, IdentityMap) for m in sur.maps)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_map({"map": "moebius"})

    @pytest.mark.parametrize("spec", [
        {"map": "sausage", "order": 9.7},
        {"map": "sausage", "order": "9"},
        {"map": "sausage", "order": True},
        {"map": "kte", "alpha": "0.5"},
        {"map": "kte", "alpha": False},
        {"map": "kte", "alpha": float("nan")},
        {"map": "kte", "alpha": np.bool_(True)},
        {"map": "sausage", "order": float("inf")},
    ])
    def test_spec_numbers_are_not_coerced(self, spec):
        with pytest.raises(ValueError, match="must be a"):
            make_map(spec)

    def test_integral_float_order_is_an_order(self):
        assert make_map({"map": "sausage", "order": 9.0}).order == 9

    def test_spec_round_trip(self):
        for m in ALL_MAPS:
            assert make_map(m.spec()) == m
