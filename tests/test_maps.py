import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from adaleja import (IdentityMap, KTEMap, SausageMap, Surrogate, beta33,
                     make_map, uniform)
from adaleja.distributions import _BETA33_CDF
from adaleja.errors import ContractError, DomainError
from adaleja.maps import (_GAIN_RADIUS_CAP, _INV_CHUNK, _INV_KNOTS, _INV_TOL,
                          ConformalMap)

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

    def test_sausage_order_stops_before_its_coefficients_overflow(self):
        top = SausageMap(169)    # warnings are errors: no coefficient overflows
        assert np.isfinite(top._even_coef).all()
        assert np.array_equal(top.forward(np.array([-1.0, 0.0, 1.0])), [-1.0, 0.0, 1.0])
        for order in (171, 511):    # they loaded as 9th-order-like maps, with warnings
            with pytest.raises(ValueError, match="sausage order must be < 171"):
                SausageMap(order)

    def test_kte_alpha_range(self):
        with pytest.raises(ValueError):
            KTEMap(0.0)
        with pytest.raises(ValueError):
            KTEMap(1.0)

    def test_tiny_kte_alpha(self):
        # 1/alpha**2 raised ZeroDivisionError at 1e-200 and was inf at 1e-160
        for alpha in (1e-160, 1e-200, 1e-300):
            assert KTEMap(alpha).singularity_radius == 2.0 / alpha
        for alpha in (1e-308, 5e-324):
            with pytest.raises(ContractError, match="singularity radius is not finite"):
                KTEMap(alpha)
        with pytest.raises(ContractError):
            make_map({"map": "kte", "alpha": 1e-320})


    def test_kte_is_accurate_where_alpha_y_is_subnormal(self):
        # alpha * y below the normal range lost digits: 1e-10 was off by
        # 1.2e-6 relative, and 1e-300 mapped to 0.0
        m = KTEMap(1.2e-308)
        y = np.array([1e-10, 0.3, 1e-300])
        assert np.all(np.abs(m.forward(y) - y) <= 4 * np.spacing(y))
        z = y * (1.0 + 0.5j)
        assert np.all(np.abs(m.forward_complex(z) - z) <= 4 * np.spacing(np.abs(z)))
        assert np.all(np.abs(m.inverse(m.forward(y)) - y) <= _INV_TOL)
        assert np.all(np.abs(m.forward(m.inverse(y)) - y) <= _INV_TOL)
        # where alpha * y is normal, the map is the plain ratio
        for alpha in (1.2e-308, 0.5, 0.9999999):
            y = np.concatenate([np.linspace(-1.0, 1.0, 1001), [1e-300, -3e-8]])
            y = y[np.abs(alpha * y) >= np.finfo(float).tiny]
            want = np.arcsin(alpha * y) / math.asin(alpha)
            assert KTEMap(alpha).forward(y).tobytes() == want.tobytes()


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

    @pytest.mark.parametrize("m", [SausageMap(9), KTEMap(0.9), IdentityMap()])
    @pytest.mark.parametrize("method", ["inverse", "forward", "derivative"])
    @pytest.mark.parametrize("value", [np.nan, [0.5, np.nan], [[0.0], [np.nan]]])
    def test_nan_is_outside_the_interval(self, m, method, value):
        # nan passed the range check: inverse ran its 80 passes and
        # returned nan, forward and derivative returned nan
        with pytest.raises(DomainError, match=r"outside \[-1, 1\]"):
            getattr(m, method)(value)

    def test_identity_inverse(self):
        assert IdentityMap().inverse(0.37) == 0.37

    def test_forward_complex_matches_real_axis(self):
        for m in (SausageMap(9), KTEMap(0.7)):
            for y in np.linspace(-0.9, 0.9, 19):
                assert abs(m.forward_complex(complex(y, 0.0)) - m.forward(y)) < 1e-14


MAPS = st.one_of(
    st.integers(0, 8).map(lambda k: SausageMap(2 * k + 1)),
    st.floats(1e-3, 0.999).map(KTEMap),
)
# on the table's knots, at its ends and the middle, and anywhere between
KNOTS = st.integers(0, _INV_KNOTS).map(lambda k: -1.0 + 2.0 * k / _INV_KNOTS)
POINTS = st.one_of(st.sampled_from([-1.0, 0.0, 1.0, -0.0]), KNOTS,
                   st.floats(-1.0, 1.0))


def exact_points(m, t):
    """|g(y) - t| <= 1e-14 and y in [-1, 1] at every point."""
    y = m.inverse(t)
    assert np.all(np.abs(m.forward(y) - t) <= 1e-14)
    assert np.all((y >= -1.0) & (y <= 1.0))
    return y


class TestInverseProperties:
    @settings(max_examples=150, deadline=None)
    @given(m=MAPS, t=st.lists(POINTS, min_size=1, max_size=40))
    def test_each_point_alone_and_in_a_batch(self, m, t):
        t = np.array(t)
        batch = exact_points(m, t)
        alone = np.array([m.inverse(ti) for ti in t])
        assert np.array_equal(batch.view(np.int64), alone.view(np.int64))

    @settings(max_examples=12, deadline=None)
    @given(m=MAPS, extra=st.sampled_from([-1, 0, 1]), seed=st.integers(0, 2**32 - 1),
           probe=st.lists(POINTS, min_size=1, max_size=5))
    def test_chunk_edges_do_not_change_a_point(self, m, extra, seed, probe):
        # a batch one short of, equal to and one past the chunk size; each
        # point is bit-equal to its own inversion, wherever it lands
        rng = np.random.default_rng(seed)
        t = rng.uniform(-1.0, 1.0, _INV_CHUNK + extra)
        at = rng.choice(t.size, len(probe), replace=False)
        t[at] = probe
        y = exact_points(m, t)
        order = rng.permutation(t.size)
        assert np.array_equal(m.inverse(t[order]), y[order])
        for i in list(at) + [0, t.size - 1]:
            assert m.inverse(t[i]) == y[i]

    def test_batch_of_many_chunks_matches_single_points(self):
        # a batch ran every point until the worst one converged, so most
        # points took extra Newton steps that moved their last bits
        m = SausageMap(9)
        t = np.random.default_rng(5).uniform(-1.0, 1.0, 3 * _INV_CHUNK)
        y = exact_points(m, t)
        every = np.arange(0, t.size, 12)
        assert np.array_equal(y[every], [m.inverse(ti) for ti in t[every]])

    def test_equal_maps_share_their_table(self):
        assert SausageMap(9)._start_table() is SausageMap(9)._start_table()
        assert KTEMap(0.5)._start_table() is not KTEMap(0.25)._start_table()

    @pytest.mark.parametrize("m", [SausageMap(9), KTEMap(0.5), _BETA33_CDF])
    def test_shared_table_is_read_only(self, m):
        # every equal map reads the same arrays: a write would corrupt them all
        for column in m._start_table():
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.5

    @settings(max_examples=200, deadline=None)
    @given(m=st.one_of(MAPS, st.just(_BETA33_CDF)),
           k=st.sampled_from([0, _INV_KNOTS - 1]) | st.integers(0, _INV_KNOTS - 1),
           s=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0))
    def test_hermite_start_stays_in_its_interval(self, m, k, s):
        # both end intervals included: the beta33 CDF has g' = 0 at +-1,
        # so its end slopes are infinite and those intervals start linearly
        t = np.array([min(-1.0 + (k + s) * (2.0 / _INV_KNOTS), 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = ConformalMap._start_table.__wrapped__(m)
            start = m._start(t)
            exact_points(m, t)
        at = int((t[0] + 1.0) * (0.5 * _INV_KNOTS))
        y0 = table[0]
        assert y0[at] <= start[0] <= y0[min(at + 1, _INV_KNOTS)]
        assert all(np.array_equal(a, b) for a, b in zip(table, m._start_table()))

    @pytest.mark.parametrize("m", [SausageMap(9), KTEMap(0.5)])
    def test_uniform_points_close_on_the_first_check(self, m):
        # the Hermite start is within 1e-14 of g^-1, so no point takes a
        # Newton step; the table's own build takes them, once per map
        t = np.random.default_rng(11).uniform(-1.0, 1.0, 3 * _INV_CHUNK)
        m._start_table()
        raw = type(m)._raw_derivative
        with mock.patch.object(type(m), "_raw_derivative", autospec=True,
                               side_effect=raw) as derivative:
            exact_points(m, t)
        assert derivative.call_count == 0

    def test_points_open_at_the_pass_cap_bracket_t_within_one_ulp(self):
        # g' reaches about 1,400 near +-1, where a residual of 1e-14 is finer
        # than one ulp of y: those points stay open and stop within two
        # passes, once a pass leaves them unmoved
        m = KTEMap(0.9999999)
        t = np.concatenate([np.linspace(-1.0, -0.9, 2000), np.linspace(0.9, 1.0, 2000)])
        y = m.inverse(t)
        open_ = np.abs(m.forward(y) - t) > _INV_TOL
        assert open_.any()
        y, t = y[open_], t[open_]
        assert np.all(m._raw(np.nextafter(y, -2.0)) <= t)
        assert np.all(m._raw(np.nextafter(y, 2.0)) >= t)

    def test_points_that_stop_moving_close_within_three_passes(self):
        # those steep points stop moving after a pass or two; a point a pass
        # leaves unmoved is stationary, so it closes instead of running to
        # the cap of 80 passes
        m = KTEMap(0.9999999)
        t = np.concatenate([np.linspace(-1.0, -0.9, 2000), np.linspace(0.9, 1.0, 2000)])
        m._start_table()
        raw = type(m)._raw_derivative
        with mock.patch.object(type(m), "_raw_derivative", autospec=True,
                               side_effect=raw) as derivative:
            y = m.inverse(t)
        assert 1 <= derivative.call_count <= 3
        assert (np.abs(m.forward(y) - t) > _INV_TOL).any()

    @settings(max_examples=200, deadline=None)
    @given(m=st.one_of(MAPS, st.sampled_from([SausageMap(9), KTEMap(0.9), KTEMap(0.5),
                                              _BETA33_CDF])),
           t=st.sampled_from([1e-20, -1e-10, 1e-300]) | st.floats(1e-300, 1e-2)
           | st.floats(-1e-2, -1e-300))
    def test_small_arguments_round_trip_relatively(self, m, t):
        # near 0 the residual target shrinks with |t|: an absolute 1e-14
        # alone inverted t = 1e-20 to 0 and t = 1e-10 with 8e-8 relative error
        y = m.inverse(t)
        assert abs(m.forward(y) - t) <= 2.0 ** -40 * abs(t)
        assert np.sign(y) == np.sign(t)

    def test_pass_cap_returns_the_last_iterate(self, monkeypatch):
        # with one pass allowed, every open point leaves after one
        # safeguarded Newton step from its start
        m = KTEMap(0.999)
        t = np.linspace(0.05, 0.95, 19)
        f = m._raw(t) - t
        assert (np.abs(f) > _INV_TOL).all()
        step = t - f / m._raw_derivative(t)
        lo, hi = np.where(f > 0.0, -1.0, t), np.where(f > 0.0, t, 1.0)
        want = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        monkeypatch.setattr("adaleja.maps._INV_MAXIT", 1)
        assert np.array_equal(m._newton(t, t.copy()), want)

    @settings(max_examples=40, deadline=None)
    @given(maps=st.lists(st.one_of(MAPS, st.just(IdentityMap())), min_size=1,
                         max_size=4),
           seed=st.integers(0, 2**32 - 1), n_pts=st.integers(0, 30))
    def test_grouped_preimages_equal_per_column_inversion(self, maps, seed, n_pts):
        # columns under equal maps go through one inverse call
        maps = maps + maps[:2]
        dists = [beta33(-2.0 - d, 3.0) for d in range(len(maps))]
        sur = Surrogate(dists, maps)
        pts = np.random.default_rng(seed).uniform(-2.0, 3.0, (n_pts, len(maps)))
        S = sur._preimages(pts)
        for d, (m, dist) in enumerate(zip(maps, dists)):
            column = np.asarray(m.inverse(dist.to_canonical(pts[:, d])))
            assert np.array_equal(S[:, d], column)


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

    def test_gain_stops_at_the_radius_cap(self):
        # a continuation that never leaves [-1, 1] fits every ellipse, so
        # the radius doubling ends at the cap
        class Flat(ConformalMap):
            def _raw(self, y):
                return np.clip(np.real(y), -1.0, 1.0)

            def spec(self):
                return {"map": "flat"}

        r_max = 0.5 + np.hypot(1.0, 0.5)
        assert Flat().estimate_gain(0.5) == np.log(_GAIN_RADIUS_CAP) / np.log(r_max) - 1.0

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

    def test_repr(self):
        assert repr(SausageMap(5)) == "SausageMap(order=5)"
        assert repr(KTEMap(0.8)) == "KTEMap(alpha=0.8)"
        assert repr(IdentityMap()) == "IdentityMap()"

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

    @pytest.mark.parametrize("spec, match", [
        ("sausage", "map spec must be a dict with a 'map' key"),
        ({"order": 9}, "map spec must be a dict with a 'map' key"),
        ({"map": "kte"}, "kte map spec needs 'alpha'"),
    ])
    def test_malformed_spec_is_refused(self, spec, match):
        with pytest.raises(ValueError, match=match):
            make_map(spec)

    def test_integral_float_order_is_an_order(self):
        assert make_map({"map": "sausage", "order": 9.0}).order == 9

    def test_spec_round_trip(self):
        for m in ALL_MAPS:
            assert make_map(m.spec()) == m
