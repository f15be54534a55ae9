import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats as spstats

from adaleja import Distribution, beta33, make_distribution, sample_joint, uniform
from adaleja.distributions import _BETA33_CDF
from adaleja.errors import ContractError, DomainError


class TestPdf:
    def test_beta33_formula_value(self):
        d = beta33(18.5, 21.5)
        assert_allclose(d.pdf(20.0), 140 * 1.5**3 * 1.5**3 / 3.0**7, rtol=1e-14)

    def test_beta33_zero_at_boundary(self):
        d = beta33(18.5, 21.5)
        assert d.pdf(18.5) == 0.0
        assert d.pdf(21.5) == 0.0

    def test_beta33_zero_outside(self):
        d = beta33(0.0, 1.0)
        assert d.pdf(-0.2) == 0.0
        assert d.pdf(1.7) == 0.0

    def test_wide_beta33_stays_in_range(self):
        # width ** 7 overflowed a Python float
        assert_allclose(beta33(0.0, 1e50).pdf(5e49), 2.1875e-50, rtol=1e-15)
        assert 0.0 < beta33(-2.0 ** 1019, 2.0 ** 1019).pdf(0.0) < 1e-306
        for lower, upper in ((0.0, 1.0), (-1.0, 1.0), (-3.0, 7.0)):
            y = np.linspace(lower, upper, 1001)
            a, b = y - lower, upper - y
            np.testing.assert_array_max_ulp(
                beta33(lower, upper).pdf(y),
                140.0 * a ** 3 * b ** 3 / (upper - lower) ** 7, maxulp=8)

    def test_canonical_beta33_keeps_its_bits(self):
        # the Leja generator weighs its grid by this density, so its bits
        # decide the shipped nodes
        y = np.linspace(-1.0, 1.0, 100_001)
        want = 140.0 * (y + 1.0) ** 3 * (1.0 - y) ** 3 / 2.0 ** 7
        law = beta33(-1.0, 1.0)
        assert law.pdf(y).tobytes() == want.tobytes()
        for point in y[::997]:
            a, b = np.array(point + 1.0), np.array(1.0 - point)    # 0-d, as pdf cubes them
            assert law.pdf(point) == 140.0 * a ** 3 * b ** 3 / 2.0 ** 7

    def test_uniform_constant(self):
        assert uniform(-1.0, 1.0).pdf(0.3) == 0.5
        assert uniform(-1.0, 1.0).pdf(2.0) == 0.0

    @pytest.mark.parametrize("d", [beta33(-1, 1), beta33(3, 9), uniform(-1, 1), uniform(0.5, 1.5)])
    def test_normalization(self, d):
        grid = np.linspace(d.lower, d.upper, 1_000_001)
        vals = d.pdf(grid)
        assert abs(np.trapezoid(vals, grid) - 1.0) < 1e-10
        # the scalar path must agree with the array path, on and off support
        probe = np.linspace(d.lower - 0.1 * d.width, d.upper + 0.1 * d.width, 300)
        assert_allclose([d.pdf(y) for y in probe], d.pdf(probe), rtol=1e-14, atol=0)

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from([beta33, uniform]), lower=st.floats(-1e3, 1e3),
           width=st.floats(1e-3, 1e3), where=st.sampled_from(["in", "out", "edge"]),
           u=st.floats(0.0, 1.0))
    def test_one_point_has_the_array_bits(self, kind, lower, width, where, u):
        d = kind(lower, lower + width)
        y = {"in": d.lower + u * d.width, "out": d.upper + u * d.width + 1e-3,
             "edge": d.lower if u < 0.5 else d.upper}[where]
        want = d.pdf(np.array([y, 0.5 * (d.lower + d.upper)]))[0]
        for point in (y, np.float64(y), np.array(y)):
            got = d.pdf(point)
            assert type(got) is float
            assert np.float64(got).tobytes() == want.tobytes()

    def test_nonnegative(self):
        d = beta33(-2.0, 5.0)
        ys = np.linspace(-3.0, 6.0, 500)
        assert all(d.pdf(y) >= 0.0 for y in ys)


class TestCdfAndSampling:
    def test_cdf_endpoints_and_midpoint(self):
        d = beta33(-1.0, 1.0)
        assert d.cdf(-1.0) == 0.0
        assert d.cdf(1.0) == 1.0
        assert_allclose(d.cdf(0.0), 0.5, atol=1e-14)

    def test_cdf_monotone(self):
        d = beta33(0.0, 2.0)
        ys = np.linspace(0.0, 2.0, 200)
        cs = np.array([d.cdf(y) for y in ys])
        assert (np.diff(cs) >= 0.0).all()

    def test_samples_inside_support(self):
        for d in (beta33(3.0, 9.0), uniform(-2.0, 2.0)):
            s = d.sample(2000, 42)
            assert s.min() >= d.lower and s.max() <= d.upper

    def test_uniform_sample_mean(self):
        s = uniform(-1.0, 1.0).sample(100_000, 7)
        assert abs(s.mean()) < 0.01

    def test_beta33_sample_variance(self):
        # Beta(4,4) on [0,1] has variance 16/(64*9) = 1/36
        s = beta33(0.0, 1.0).sample(100_000, 7)
        assert abs(s.var() - 1.0 / 36.0) < 0.1 / 36.0

    def test_determinism(self):
        d = beta33(0.0, 1.0)
        assert d.sample(1, 123)[0] == d.sample(1, 123)[0]
        assert_allclose(d.sample(50, 9), d.sample(50, 9), rtol=0)

    def test_kolmogorov_smirnov(self):
        for d in (beta33(-1.0, 1.0), uniform(0.0, 3.0)):
            s = d.sample(100_000, 11)
            result = spstats.kstest(s, np.vectorize(d.cdf))
            assert result.pvalue > 0.01


# Sample counts around the inverse's chunk of 8192 points, and anywhere.
_COUNTS = st.one_of(st.sampled_from([1, 2, 8191, 8192, 8193]), st.integers(1, 20_000))
_SEEDS = st.integers(0, 2 ** 32 - 1)


class TestSamplerProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=_SEEDS, lower=st.floats(-1e6, 1e6), width=st.floats(1e-6, 1e6),
           n=_COUNTS, data=st.data())
    def test_each_draw_is_inverted_alone(self, seed, lower, width, n, data):
        d = beta33(lower, lower + width)
        x = d.sample(n, seed)
        u = np.random.default_rng(seed).random(n)
        at = {0, n - 1, min(8191, n - 1), min(8192, n - 1)}.union(
            data.draw(st.lists(st.integers(0, n - 1), max_size=32)))
        for i in sorted(at):
            t = 0.5 * (_BETA33_CDF.inverse(2.0 * u[i] - 1.0) + 1.0)
            assert x[i] == d.lower + d.width * t

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["beta33", "uniform"]), seed=_SEEDS,
           lower=st.floats(-1e6, 1e6), width=st.floats(1e-6, 1e6),
           n=_COUNTS, data=st.data())
    def test_draws_lie_in_support_and_invert_the_cdf(self, kind, seed, lower, width,
                                                     n, data):
        d = Distribution(kind, lower, lower + width)
        x = d.sample(n, seed)
        k = data.draw(st.integers(1, n))
        assert np.array_equal(d.sample(k, seed), x[:k])
        assert np.all((x >= d.lower) & (x <= d.upper))
        u = np.random.default_rng(seed).random(n)
        # an affine round trip through a support far from 0 loses eps * |bound|
        ulp = np.finfo(float).eps * max(abs(d.lower), abs(d.upper), d.width) / d.width
        assert np.abs(d.cdf(x) - u).max() <= 1e-14 + 5 * ulp


class TestCanonical:
    def test_midpoint(self):
        assert beta33(18.5, 21.5).to_canonical(20.0) == 0.0

    def test_endpoint(self):
        assert beta33(18.5, 21.5).from_canonical(1.0) == 21.5

    def test_affine(self):
        assert uniform(0.0, 4.0).to_canonical(3.0) == 0.5

    def test_round_trip(self):
        d = beta33(2.0, 11.0)
        rng = np.random.default_rng(5)
        ys = rng.uniform(2.0, 11.0, 1000)
        back = np.array([d.from_canonical(d.to_canonical(y)) for y in ys])
        assert np.abs(back - ys).max() < 1e-14 * 11

    def test_strictly_increasing(self):
        d = uniform(-3.0, 7.0)
        ys = np.linspace(-3.0, 7.0, 100)
        ts = np.array([d.to_canonical(y) for y in ys])
        assert (np.diff(ts) > 0.0).all()

    def test_out_of_range(self):
        d = uniform(0.0, 1.0)
        with pytest.raises(DomainError):
            d.to_canonical(1.5)
        with pytest.raises(DomainError):
            d.from_canonical(-1.01)

    @pytest.mark.parametrize("method", ["to_canonical", "from_canonical", "pdf", "cdf"])
    @pytest.mark.parametrize("value", [np.nan, [0.5, np.nan]])
    def test_nan_is_outside_the_support(self, method, value):
        # nan passed the range checks and came back as nan, or as density 0
        with pytest.raises(DomainError):
            getattr(beta33(0.0, 1.0), method)(value)

    @settings(max_examples=200, deadline=None)
    @given(kind=st.sampled_from(["beta33", "uniform"]),
           lower=st.floats(-1e6, 1e6), width=st.floats(1e-6, 1e6),
           t=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20))
    def test_transforms_are_inverses(self, kind, lower, width, t):
        d = Distribution(kind, lower, lower + width)
        # both maps are affine, so round-off scales with the support's magnitude
        ulp = np.finfo(float).eps * max(1.0, abs(d.lower), abs(d.upper))
        t = np.array(t)
        y = d.from_canonical(t)
        assert np.all((y >= d.lower) & (y <= d.upper))
        assert_allclose(d.to_canonical(y), t, rtol=0, atol=8 * ulp / d.width)
        assert_allclose(d.from_canonical(d.to_canonical(y)), y, rtol=0, atol=4 * ulp)
        # the scalar path agrees with the array path
        assert d.to_canonical(float(y[0])) == d.to_canonical(y)[0]
        assert d.from_canonical(float(t[0])) == y[0]


class TestConstruction:
    def test_upper_must_exceed_lower(self):
        with pytest.raises(ValueError):
            uniform(1.0, 1.0)
        with pytest.raises(ValueError):
            beta33(2.0, -2.0)

    def test_make_distribution(self):
        d = make_distribution({"kind": "beta33", "lower": 0.5, "upper": 1.5})
        assert d.kind == "beta33" and d.lower == 0.5 and d.upper == 1.5
        u = make_distribution({"kind": "uniform", "lower": -1, "upper": 1})
        assert u.kind == "uniform"

    def test_make_distribution_passthrough(self):
        d = uniform(0.0, 2.0)
        assert make_distribution(d) is d

    def test_make_distribution_malformed(self):
        with pytest.raises(ValueError):
            make_distribution({"kind": "gamma", "lower": 0, "upper": 1})
        with pytest.raises(ValueError):
            make_distribution({"kind": "uniform", "lower": 0})
        with pytest.raises(ValueError):
            make_distribution("uniform")

    @pytest.mark.parametrize("bounds", [("-1", 1.0), (-1.0, True), (None, 1.0)])
    def test_bounds_must_be_numbers(self, bounds):
        lower, upper = bounds
        with pytest.raises(ValueError, match="must be a number"):
            make_distribution({"kind": "uniform", "lower": lower, "upper": upper})
        with pytest.raises(ValueError, match="must be a number"):
            Distribution("uniform", lower, upper)
        with pytest.raises(ValueError, match="must be a number"):
            uniform(lower, upper)

    @pytest.mark.parametrize("bounds", [
        (float("nan"), 1.0), (-1.0, float("inf")), (-float("inf"), 1.0),
        (-1.0, 10 ** 400)])
    def test_bounds_must_be_finite(self, bounds):
        lower, upper = bounds
        with pytest.raises(ContractError, match="must be a finite number"):
            Distribution("uniform", lower, upper)

    def test_bounds_leave_room_for_the_canonical_transform(self):
        # 2 y - lower - upper overflowed in to_canonical, or the width was inf
        for lower, upper in ((-1.0, 1e308), (-1e308, 1.0), (-1e308, 1e308)):
            with pytest.raises(ContractError, match="must be [<>]"):
                Distribution("uniform", lower, upper)
        wide = uniform(-2.0 ** 1019, 2.0 ** 1019)
        assert np.array_equal(wide.to_canonical([wide.lower, 0.0, wide.upper]),
                              [-1.0, 0.0, 1.0])

    def test_bounds_are_stored_as_floats(self):
        d = Distribution("beta33", np.int64(-1), 2)
        assert d.spec() == {"kind": "beta33", "lower": -1.0, "upper": 2.0}
        assert all(type(v) is float for v in (d.lower, d.upper))

    def test_spec_round_trip(self):
        d = beta33(3.0, 4.0)
        assert make_distribution(d.spec()) == d


class TestJointSampling:
    def test_shape_and_support(self):
        dists = [uniform(0.5, 1.5), beta33(-1.0, 1.0)]
        pts = sample_joint(dists, 300, 1)
        assert pts.shape == (300, 2)
        assert pts[:, 0].min() >= 0.5 and pts[:, 0].max() <= 1.5
        assert pts[:, 1].min() >= -1.0 and pts[:, 1].max() <= 1.0

    def test_sample_count_is_an_integer(self):
        d = uniform(-1, 1)
        for n in (-1, 2.7, 2.0, True, "2", None):
            with pytest.raises(ContractError):
                d.sample(n, 0)
            with pytest.raises(ContractError):
                sample_joint([d, d], n, 0)
            with pytest.raises(ContractError):
                sample_joint([], n, 0)
        assert d.sample(np.int64(0), 0).shape == (0,)
        assert sample_joint([], 3, 0).shape == (3, 0)

    def test_seed_sequence_accepted(self):
        dists = [uniform(-1, 1)] * 3
        a = sample_joint(dists, 10, np.random.SeedSequence(4))
        b = sample_joint(dists, 10, np.random.SeedSequence(4))
        assert_allclose(a, b, rtol=0)

    def test_dimensions_independent(self):
        dists = [uniform(-1, 1), uniform(-1, 1)]
        pts = sample_joint(dists, 5000, 2)
        corr = np.corrcoef(pts[:, 0], pts[:, 1])[0, 1]
        assert abs(corr) < 0.05
