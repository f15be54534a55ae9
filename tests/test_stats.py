"""Tests for the Monte-Carlo post-processing estimators."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from adaleja import (cv_errors, extract_resonance, failure_probability,
                     kde_pdf, mc_moments, sobol_indices, stats, uniform)
from adaleja.errors import ContractError, SolveError

UNIT = [uniform(0.0, 1.0)]


def one_nan(pts):
    """The first coordinate, with the fourth output replaced by NaN."""
    values = pts[:, 0].copy()
    values[3] = np.nan
    return values


class Evaluable:
    """Minimal surrogate stand-in exposing batch evaluation."""

    def __init__(self, fn):
        self.fn = fn

    def evaluate(self, points):
        return self.fn(np.atleast_2d(points))


class TestMoments:
    def test_uniform_identity_moments(self):
        summary = mc_moments(lambda pts: pts[:, 0], UNIT, 100_000, 7)
        assert summary.sample_count == 100_000
        assert abs(summary.mean - 0.5) < 0.01
        assert abs(summary.std - 1.0 / np.sqrt(12.0)) < 0.01

    def test_seed_freezes_result(self):
        a = mc_moments(lambda pts: pts[:, 0], UNIT, 10_000, 7)
        b = mc_moments(lambda pts: pts[:, 0], UNIT, 10_000, 7)
        c = mc_moments(lambda pts: pts[:, 0], UNIT, 10_000, 8)
        assert (a.mean, a.std) == (b.mean, b.std)
        assert a.mean != c.mean

    def test_modulus_of_complex_output(self):
        summary = mc_moments(lambda pts: -3.0j * np.ones(pts.shape[0]),
                             UNIT, 100, 0)
        assert_allclose(summary.mean, 3.0, rtol=1e-14)
        assert_allclose(summary.std, 0.0, atol=1e-14)

    def test_evaluate_method_is_preferred(self):
        target = Evaluable(lambda pts: pts[:, 0])
        direct = mc_moments(lambda pts: pts[:, 0], UNIT, 5_000, 3)
        wrapped = mc_moments(target, UNIT, 5_000, 3)
        assert (direct.mean, direct.std) == (wrapped.mean, wrapped.std)

    def test_needs_two_samples(self):
        # and an integer count: nothing is truncated or parsed
        for n in (1, 2.9, 3.0, True, "3", None):
            with pytest.raises(ContractError):
                mc_moments(lambda pts: pts[:, 0], UNIT, n, 0)

    def test_bad_output_shape(self):
        with pytest.raises(ContractError):
            mc_moments(lambda pts: pts, [uniform(0, 1)] * 2, 100, 0)

    def test_non_finite_output_rejected(self):
        with pytest.raises(ContractError, match="1 of 100 evaluated values"):
            mc_moments(one_nan, UNIT, 100, 0)


class TestFailureProbability:
    def test_uniform_tail_mass(self):
        p = failure_probability(lambda pts: pts[:, 0], UNIT, 0.1, 100_000, 7)
        assert isinstance(p, float)
        assert abs(p - 0.1) < 0.01

    def test_threshold_includes_equality(self):
        ones = lambda pts: np.ones(pts.shape[0])
        assert failure_probability(ones, UNIT, 0.5, 100, 0) == 1.0
        assert failure_probability(ones, UNIT, np.float64(0.5), 100, 0) == 1.0

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5, "0.5", True,
                                       float("nan"), float("inf")])
    def test_alpha_bounds(self, alpha):
        with pytest.raises(ContractError):
            failure_probability(lambda pts: pts[:, 0], UNIT, alpha, 100, 0)

    def test_rejects_bad_sample_count(self):
        # zero samples gave nan with a RuntimeWarning, fractions were truncated
        for n in (0, -1, 0.5, 2.7, 3.0, True, "100"):
            with pytest.raises(ContractError):
                failure_probability(lambda pts: pts[:, 0], UNIT, 0.5, n, 0)

    def test_non_finite_output_rejected(self):
        # NaN >= 1 - alpha is false, so a NaN would read as a safe sample
        with pytest.raises(ContractError, match="1 of 100 evaluated values"):
            failure_probability(one_nan, UNIT, 0.1, 100, 0)


def dense_kde(samples, bandwidth, grid):
    """kde_pdf as the dense samples × grid sum: the bit-level oracle."""
    samples = np.asarray(samples, dtype=float).reshape(-1)
    bandwidth = float(bandwidth)
    grid = np.asarray(grid, dtype=float)
    flat = grid.reshape(-1)
    out = np.zeros(flat.size)
    step = max(1, stats._KDE_BLOCK // max(flat.size, 1))
    for start in range(0, samples.size, step):
        block = samples[start:start + step]
        t = (flat[None, :] - block[:, None]) / bandwidth
        out += np.sum(np.maximum(0.75 * (1.0 - t * t), 0.0), axis=0)
    return (out / (bandwidth * samples.size)).reshape(grid.shape)


# Quarter-integers put grid points exactly at x ± h for h in {0.25, 0.5, 1}
# and make duplicates common; free floats make the summation order show
# in the last bits.
KDE_VALUES = st.integers(-12, 12).map(lambda k: k / 4) | st.floats(-3.0, 3.0)


@st.composite
def kde_cases(draw):
    samples = draw(st.lists(KDE_VALUES, min_size=1, max_size=40))
    bandwidth = draw(st.sampled_from([0.25, 0.5, 1.0]) | st.floats(0.01, 4.0))
    if draw(st.booleans()):
        grid = np.array(draw(st.lists(KDE_VALUES, max_size=30)))
    else:
        lo = draw(st.floats(-4.0, 0.0))
        grid = np.linspace(lo, lo + draw(st.floats(0.1, 8.0)),
                           draw(st.integers(1, 60)))
    shape = draw(st.sampled_from(["flat", "column", "rows"]))
    if shape == "column":
        grid = grid.reshape(-1, 1)
    elif shape == "rows" and grid.size % 2 == 0:
        grid = grid.reshape(2, -1)
    # one-sample blocks, uneven blocks and the shipped block size
    block = draw(st.sampled_from(["1", "G-1", "G", "G+1", "default"])
                 | st.integers(1, 4 * grid.size + 4))
    return samples, bandwidth, grid, block


class TestKde:
    def test_single_sample_formula(self):
        # (1/h) 0.75 (1 - ((T - x)/h)^2) at T = 0.1, x = 0, h = 0.5
        assert_allclose(kde_pdf([0.0], 0.5, [0.1]), [1.44], rtol=1e-15)
        # any real bandwidth: ints and numpy scalars too
        assert kde_pdf([0.0], np.float64(0.5), [0.1]) == kde_pdf([0.0], 0.5, [0.1])
        assert kde_pdf([0.0], 1, [0.1]) == kde_pdf([0.0], 1.0, [0.1])

    def test_peak_height_at_sample(self):
        h = 0.2
        assert_allclose(kde_pdf([0.75], h, [0.75]), [0.75 / h], rtol=1e-15)

    def test_compact_support(self):
        out = kde_pdf([0.0], 0.5, [0.51, -0.51, 10.0])
        assert np.all(out == 0.0)

    def test_far_pairs_add_zeros_without_warnings(self):
        # a sample left of the grid still reaches the grid's first cell:
        # (1 - 0) / 1e-160 squared overflows and must clip to +0.0 quietly
        assert np.all(kde_pdf([0.0, 3.0], 1e-160, [1.0, 2.0]) == 0.0)

    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(21)
        samples = rng.normal(5.0, 1.0, 4_000)
        grid = np.linspace(0.0, 10.0, 20_001)
        pdf = kde_pdf(samples, 0.3, grid)
        assert abs(np.trapezoid(pdf, grid) - 1.0) < 1e-3
        assert np.all(pdf >= 0.0)

    def test_grid_shape_preserved(self):
        grid = np.linspace(-1, 1, 12).reshape(3, 4)
        assert kde_pdf([0.0, 0.2], 0.4, grid).shape == (3, 4)

    def test_rejects_empty_samples(self):
        with pytest.raises(ContractError):
            kde_pdf([], 0.5, [0.0])

    @pytest.mark.parametrize("h", [0.0, -1.0, float("nan"), float("inf"), True, "0.3",
                                   pytest.param(10 ** 400, id="beyond-float")])
    def test_rejects_bad_bandwidth(self, h):
        with pytest.raises(ContractError):
            kde_pdf([0.0], h, [0.0])

    @pytest.mark.filterwarnings("error")
    def test_rejects_bandwidth_whose_densities_overflow(self):
        # 0.75 / 5e-324 is beyond any float: an error naming the bandwidth, no warning
        with pytest.raises(ContractError, match="densities at bandwidth 5e-324"):
            kde_pdf([0.0], 5e-324, [0.0])
        # the same bandwidth is fine where every density is zero
        assert kde_pdf([0.0], 5e-324, [1.0]) == [0.0]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_samples(self, bad):
        with pytest.raises(ContractError, match="1 of 3 samples"):
            kde_pdf([0.0, bad, 0.1], 0.5, [0.0])

    def test_rejects_non_finite_grid(self):
        with pytest.raises(ContractError, match="1 of 2 grid points"):
            kde_pdf([0.0], 0.5, [0.0, float("nan")])

    @settings(max_examples=300, deadline=None)
    @given(case=kde_cases())
    # grid points exactly at x - h, x and x + h, and just inside the support
    @example(case=([0.5], 0.25, np.array([0.25, 0.5, 0.75]), "default"))
    @example(case=([0.0], 1.0, np.array([2.0**-30 - 1.0, 1.0 - 2.0**-30]), "default"))
    # one grid point: numpy sums the dense column pairwise
    @example(case=(list(np.linspace(-1.0, 1.0, 40) ** 3), 0.7, np.array([0.1]),
                   "default"))
    # a grid of one repeated value: its lattice spans nothing
    @example(case=([-0.3, 0.2, 0.25, 0.3, 2.0], 0.05, np.full(7, 0.25), "default"))
    # a geometric grid: most of its points crowd into the first lattice cell
    @example(case=(list(np.geomspace(1e-7, 2.5, 30)) + [-0.1, 0.0, 3.0], 0.01,
                   np.geomspace(1e-6, 3.0, 40), "G+1"))
    # 5 points on [-1, 1] make 20 cells of 0.1: samples on cell edges, on
    # edges +- h, and at every grid point +- h
    @example(case=([-1.0 + 0.1 * j for j in range(21)]
                   + [-0.9 + 0.1 * j + s for j in range(19) for s in (-0.3, 0.3)]
                   + [g + s for g in np.linspace(-1.0, 1.0, 5) for s in (-0.3, 0.3)],
                   0.3, np.linspace(-1.0, 1.0, 5), "default"))
    def test_matches_dense_sum_bit_for_bit(self, case):
        samples, bandwidth, grid, block = case
        size = grid.size
        block = {"1": 1, "G-1": size - 1, "G": size, "G+1": size + 1,
                 "default": stats._KDE_BLOCK}.get(block, block)
        with mock.patch.object(stats, "_KDE_BLOCK", block):
            got = kde_pdf(samples, bandwidth, grid)
            want = dense_kde(samples, bandwidth, grid)
        assert got.shape == want.shape == grid.shape
        assert np.array_equal(got, want)


class TestSobol:
    def test_additive_function(self):
        # f = y1 + 2 y2 on U(0,1)^2 has main effects 1/5 and 4/5 and no
        # interaction, so totals match the mains
        r = sobol_indices(lambda pts: pts[:, 0] + 2.0 * pts[:, 1],
                          [uniform(0, 1)] * 2, 100_000, 42)
        assert_allclose(r.main, [0.2, 0.8], atol=0.02)
        assert_allclose(r.total, [0.2, 0.8], atol=0.02)
        assert r.n_evaluations == 2 * (2 + 1) * 100_000

    def test_product_function_has_interaction(self):
        # f = y1 y2 on U(0,1)^2: main 3/7, total 4/7 per variable
        r = sobol_indices(lambda pts: pts[:, 0] * pts[:, 1],
                          [uniform(0, 1)] * 2, 100_000, 42)
        assert_allclose(r.main, [3.0 / 7.0] * 2, atol=0.02)
        assert_allclose(r.total, [4.0 / 7.0] * 2, atol=0.02)
        assert np.all(r.main < r.total)

    def test_zero_variance_output(self):
        r = sobol_indices(lambda pts: np.full(pts.shape[0], 2.5),
                          [uniform(0, 1)] * 2, 1_000, 1)
        assert np.all(r.main == 0.0)
        assert np.all(r.total == 0.0)
        assert r.n_evaluations == 2_000

    def test_zero_variance_counts_only_the_base_points(self):
        calls = []

        def constant(pts):
            calls.append(len(pts))
            return np.ones(len(pts))

        r = sobol_indices(constant, [uniform(0, 1)] * 3, 100, 0)
        assert r.n_evaluations == sum(calls) == 200

    def test_complex_output_uses_modulus(self):
        # |i (y1 + 2 y2)| on positive inputs equals the additive case
        r = sobol_indices(lambda pts: 1j * (pts[:, 0] + 2.0 * pts[:, 1]),
                          [uniform(0, 1)] * 2, 50_000, 9)
        assert_allclose(r.main, [0.2, 0.8], atol=0.02)

    def test_seeded_determinism(self):
        f = lambda pts: pts[:, 0] + 2.0 * pts[:, 1]
        a = sobol_indices(f, [uniform(0, 1)] * 2, 2_000, 5)
        b = sobol_indices(f, [uniform(0, 1)] * 2, 2_000, 5)
        assert np.array_equal(a.main, b.main)
        assert np.array_equal(a.total, b.total)

    def test_rejects_bad_n_base(self):
        for n_base in (0, 2.7, 2.0, True, "3", None):
            with pytest.raises(ContractError):
                sobol_indices(lambda pts: pts[:, 0], UNIT, n_base, 0)

    def test_non_finite_output_rejected(self):
        with pytest.raises(ContractError, match="1 of 50 evaluated values"):
            sobol_indices(one_nan, [uniform(0, 1)] * 2, 50, 0)


class TestResonance:
    def test_linear_dip(self):
        target = Evaluable(lambda pts: (pts[:, 0] - 0.9) + 0.3162j)
        f, v = extract_resonance(target, [], (0.5, 1.5), n_starts=5)
        assert abs(f - 0.9) < 1e-6
        assert_allclose(v, 0.3162, rtol=1e-9)

    def test_monotone_modulus_ends_on_boundary(self):
        target = Evaluable(lambda pts: pts[:, 0] + 0.25)
        f, v = extract_resonance(target, [], (0.5, 1.5))
        assert f == 0.5
        assert_allclose(v, 0.75, rtol=1e-12)

    def test_deeper_of_two_wells_wins(self):
        def wells(pts):
            f = pts[:, 0]
            return (1.0 - 0.6 * np.exp(-200.0 * (f - 0.3) ** 2)
                    - 0.9 * np.exp(-200.0 * (f - 0.75) ** 2))

        f, v = extract_resonance(Evaluable(wells), [], (0.0, 1.0), n_starts=8)
        grid = np.linspace(0.0, 1.0, 200_001)
        scan = wells(grid[:, None])
        assert abs(f - grid[np.argmin(scan)]) < 1e-4
        assert v <= scan.min() + 1e-9

    def test_remaining_parameters_are_fixed(self):
        target = Evaluable(lambda pts: pts[:, 0] - pts[:, 1])
        f, v = extract_resonance(target, [0.8], (0.5, 1.5))
        assert abs(f - 0.8) < 1e-6
        assert v < 1e-6

    def test_rejects_empty_range(self):
        with pytest.raises(ContractError):
            extract_resonance(Evaluable(lambda pts: pts[:, 0]), [], (1.0, 1.0))
        # and ends that are no finite numbers
        for f_range in (("0", 1.0), (0.0, "1"), (0.0, True), (float("nan"), 1.0),
                        (0.0, float("inf"))):
            with pytest.raises(ContractError):
                extract_resonance(Evaluable(lambda pts: pts[:, 0]), [], f_range)
        f, _ = extract_resonance(Evaluable(lambda pts: pts[:, 0]), [],
                                 (np.float64(0.5), 1))
        assert f == 0.5

    def test_rejects_bad_start_count(self):
        for n_starts in (0, 2.7, 2.0, True, "3", None):
            with pytest.raises(ContractError):
                extract_resonance(Evaluable(lambda pts: pts[:, 0]), [],
                                  (0.0, 1.0), n_starts=n_starts)

    def test_non_finite_target_rejected(self):
        target = Evaluable(lambda pts: np.full(len(pts), np.nan))
        with pytest.raises(ContractError, match="1 of 1 evaluated values"):
            extract_resonance(target, [], (0.0, 1.0))


class TestCvErrors:
    def test_constant_offset(self):
        mean_err, max_err = cv_errors(lambda pts: pts[:, 0] + 0.01,
                                      lambda p: complex(p[0]),
                                      UNIT, 500, 3)
        assert_allclose(mean_err, 0.01, rtol=1e-12)
        assert_allclose(max_err, 0.01, rtol=1e-12)

    def test_exact_match_is_zero(self):
        mean_err, max_err = cv_errors(Evaluable(lambda pts: pts[:, 0]),
                                      lambda p: complex(p[0]),
                                      UNIT, 200, 4)
        assert mean_err == 0.0
        assert max_err == 0.0

    def test_rejects_empty_sample(self):
        for n_cv in (0, 2.7, 2.0, True, "3", None):
            with pytest.raises(ContractError):
                cv_errors(lambda pts: pts[:, 0], lambda p: 0.0, UNIT, n_cv, 0)

    def test_non_finite_target_rejected(self):
        def half_nan(pts):
            values = pts[:, 0].copy()
            values[::2] = np.nan
            return values

        with pytest.raises(ContractError, match="50 of 100 evaluated values"):
            cv_errors(half_nan, lambda p: complex(p[0]), UNIT, 100, 3)

    def test_non_finite_reference_rejected(self):
        with pytest.raises(ContractError, match="100 of 100 reference values"):
            cv_errors(lambda pts: pts[:, 0], lambda p: complex("nan"), UNIT, 100, 3)

    def test_bad_reference_names_the_point(self):
        """A raising or vector-valued reference is checked, naming its point."""
        def raising(p):
            return 1.0 / float(p[0] > 0.5)    # ZeroDivisionError at or below 0.5

        with pytest.raises(SolveError, match="model evaluation failed at a "
                                             "cross-validation point") as exc_info:
            cv_errors(lambda pts: pts[:, 0], raising, UNIT, 100, 3)
        assert exc_info.value.point[0] <= 0.5
        with pytest.raises(ContractError, match=r"scalar model, got shape \(2,\) at a "
                                                r"cross-validation point, point \(0\."):
            cv_errors(lambda pts: pts[:, 0], lambda p: np.array([p[0], 1.0]), UNIT, 100, 3)
