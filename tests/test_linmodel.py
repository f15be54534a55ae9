from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from adaleja import (LadderModel, ParametricLinearModel, Surrogate, cv_errors,
                     error_indicator, material_interp, permittivity, project,
                     read_material_samples, sample_joint, solve_dual, solve_primal,
                     uniform)
from adaleja import linmodel
from adaleja.errors import ContractError, SolveError
from adaleja.grid import MultiIndexSet
from adaleja.linmodel import (GOLD_KAPPA_SAMPLES, GOLD_N_SAMPLES,
                              MATERIAL_FREQUENCIES_THZ, SILVER_KAPPA_SAMPLES,
                              SILVER_N_SAMPLES, _as_band, _Band, _residual_indicator,
                              factorize, substitute)
from adaleja.surrogate import _model_values


class TestLadderAssembly:
    def test_shapes(self):
        m = LadderModel(3, sections=10)
        A, f, j, offset = m.assemble(np.array([1.0, 1.2, 0.8]))
        assert A.shape == (10, 10)
        assert f.shape == (10,) and j.shape == (10,)
        assert offset == 0.0

    def test_structure(self):
        m = LadderModel(2, sections=6, damping=0.05)
        A, f, j, _ = m.assemble(np.array([1.0, 1.0]))
        A = np.asarray(A)
        assert np.iscomplexobj(A)
        # symmetric tridiagonal stiffness plus the frequency shift
        assert_allclose(A, A.T, rtol=0)
        assert f[0] == 1.0 and np.count_nonzero(f) == 1
        assert j[-1] == 1.0 and np.count_nonzero(j) == 1

    def test_parameter_count_validation(self):
        for args, kwargs in [
            ((11,), {"sections": 10}),
            ((0,), {"sections": 10}),            # no parameters at all
            ((2.9,), {"sections": 40}),          # counts are not truncated
            ((2,), {"sections": 40.7}),
            ((True,), {"sections": 12}),         # nor read from bools
            ((2,), {"sections": "12"}),          # or strings
            ((2,), {"damping": float("nan")}),   # refused before any solve
            ((2,), {"omega": float("inf")}),
            ((float("nan"),), {"sections": 10}),
            ((2,), {"sections": float("inf")}),
            ((2,), {"damping": "0.02"}),
            ((2,), {"omega": True}),
            # flags are booleans: "no" built a frequency model
            ((0,), {"sections": 10, "with_frequency": "no"}),
            ((1,), {"sections": 10, "with_frequency": 1}),
            ((1,), {"sections": 10, "with_frequency": None}),
        ]:
            with pytest.raises(ValueError):
                LadderModel(*args, **kwargs)
        LadderModel(0, sections=10, with_frequency=True)
        assert LadderModel(0, sections=10, with_frequency=np.True_).n_params == 1
        m = LadderModel(2.0, sections=40.0)      # integral floats read as ints
        assert (m.n_stiff, m.n) == (2, 40) and type(m.n) is int

    @pytest.mark.parametrize("with_frequency", [False, True])
    def test_band_is_bitwise_the_dense_chain(self, with_frequency):
        """np.asarray of the band equals the np.diag construction it replaced."""
        n, damping = 9, 0.07
        m = LadderModel(3, sections=n, damping=damping,
                        with_frequency=with_frequency, omega=0.9)
        y = np.array([1.3, -0.4, 0.8, 0.25][not with_frequency:])
        omega, t = (y[0], y[1:]) if with_frequency else (0.9, y)
        springs = np.ones(n + 2)
        springs[1:4] = 1.0 + 0.1 * t
        springs[n + 1] = 0.0
        diag = springs[1:n + 1] + springs[2:n + 2]
        off = -springs[2:n + 1]
        K = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        expected = K.astype(complex)
        expected += (-omega ** 2 + 1j * damping * omega) * np.eye(n)
        A = np.asarray(m.assemble(y)[0])
        assert A.dtype == expected.dtype
        assert A.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("call, shape, got", [
        pytest.param("assemble", (2,), r"\(2,\)", id="assemble"),
        pytest.param("_assemble_stack", (4, 2), r"\(2,\)", id="_assemble_stack"),
        # a stack is no point, and a point or a stack of stacks no stack
        pytest.param("assemble", (4, 3), r"\(4, 3\)", id="assemble-2d"),
        pytest.param("_assemble_stack", (3,), r"\(\)", id="_assemble_stack-1d"),
        pytest.param("_assemble_stack", (2, 4, 3), r"\(4, 3\)", id="_assemble_stack-3d"),
    ])
    def test_wrong_parameter_count_is_refused(self, call, shape, got):
        m = LadderModel(2, sections=8, with_frequency=True)    # 3 parameters
        with pytest.raises(ValueError, match=r"expected 3 parameters, got shape " + got):
            getattr(m, call)(np.zeros(shape))

    def test_support_box(self):
        m = LadderModel(2, sections=8, with_frequency=True)
        assert m.n_params == 3
        # frequency band first, then the stiffness perturbation range
        assert m.support() == [(0.5, 1.5), (-1.0, 1.0), (-1.0, 1.0)]

    def test_default_support_is_the_unit_box(self):
        class Unboxed(ParametricLinearModel):
            n, n_params = 4, 3

        assert Unboxed().support() == [(-1.0, 1.0)] * 3

    def test_qoi_matches_direct_solve(self):
        m = LadderModel(2, sections=12, damping=0.02)
        y = np.array([0.9, 1.1])
        A, f, j, offset = m.assemble(y)
        direct = np.vdot(j, np.linalg.solve(A, f)) + offset
        assert_allclose(m.qoi(y), direct, rtol=1e-12)
        assert_allclose(complex(m(y)), direct, rtol=1e-12)

    def test_stiffness_parameters_matter(self):
        m = LadderModel(2, sections=10)
        a = m.qoi(np.array([0.6, 0.6]))
        b = m.qoi(np.array([1.4, 1.4]))
        assert a != b


class TestSolves:
    def setup_method(self):
        self.model = LadderModel(2, sections=15, damping=0.1)
        self.y = np.array([1.05, 0.95])

    def test_primal_residual(self):
        A, f, j, _ = self.model.assemble(self.y)
        c, factors = solve_primal(self.model, self.y)
        assert np.linalg.norm(A @ c - f) <= 1e-10 * np.linalg.norm(f)

    def test_dual_residual(self):
        A, f, j, _ = self.model.assemble(self.y)
        c, factors = solve_primal(self.model, self.y)
        z = solve_dual(self.model, self.y, factors)
        assert np.linalg.norm(np.asarray(A).conj().T @ z - j) <= 1e-10

    def test_primal_dual_equivalence(self):
        """j^H c equals z^H f: both compute the same QoI."""
        A, f, j, _ = self.model.assemble(self.y)
        c, factors = solve_primal(self.model, self.y)
        z = solve_dual(self.model, self.y, factors)
        assert abs(np.vdot(j, c) - np.vdot(z, f)) < 1e-9

    @settings(max_examples=100, deadline=None)
    @given(n_params=st.integers(1, 4), extra_sections=st.integers(0, 40),
           damping=st.floats(0.005, 0.2), with_frequency=st.booleans(),
           unit=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5))
    def test_primal_dual_identity(self, n_params, extra_sections, damping,
                                  with_frequency, unit):
        """<j, c> = <z, f> at random points of random ladders."""
        model = LadderModel(n_params, n_params + extra_sections, damping,
                            with_frequency)
        lo, hi = np.array(model.support()).T
        y = lo + (hi - lo) * np.array(unit[:model.n_params])
        c, factors = solve_primal(model, y)
        z = solve_dual(model, y, factors)
        primal, dual = np.vdot(factors.j, c), np.vdot(z, factors.f)
        assert abs(primal - dual) <= 1e-12 * abs(primal)

    def test_indicator_zero_at_exact_solution(self):
        c, factors = solve_primal(self.model, self.y)
        z = solve_dual(self.model, self.y, factors)
        eta = error_indicator(self.model, self.y, c, z)
        assert abs(eta) < 1e-12

    def test_indicator_recovers_qoi_error(self):
        """With the exact dual, eta corrects any primal approximation."""
        A, f, j, offset = self.model.assemble(self.y)
        c, factors = solve_primal(self.model, self.y)
        z = solve_dual(self.model, self.y, factors)
        c_bad = c + 0.01 * np.ones_like(c)
        eta = error_indicator(self.model, self.y, c_bad, z)
        approx = np.vdot(j, c_bad) + offset
        exact = np.vdot(j, c) + offset
        assert abs(approx + eta - exact) < 1e-11

    def test_singular_system_raises(self):
        class Degenerate(ParametricLinearModel):
            n = 3
            n_params = 1
            name = "degenerate"

            def assemble(self, y):
                A = np.zeros((3, 3), dtype=complex)
                A[0, 0] = 1.0
                f = np.array([1.0, 1.0, 0.0], dtype=complex)
                j = np.array([0.0, 0.0, 1.0], dtype=complex)
                return A, f, j, 0.0 + 0.0j

        with pytest.raises(SolveError) as exc_info:
            solve_primal(Degenerate(), np.array([0.7]))
        assert "0.7" in str(exc_info.value)

    @pytest.mark.parametrize("entry, cause", [(0.0, "singular"),
                                              (np.nan, "non-finite")])
    def test_bad_band_matrix_raises(self, entry, cause):
        D = np.diag(np.full(4, 3.0 + 0j)) + np.diag(np.ones(3), 1) \
            + np.diag(np.ones(3), -1)
        if cause == "singular":
            D[:, 2] = entry                      # a zero column
        else:
            D[1, 2] = entry

        class Banded(ParametricLinearModel):
            n = 4
            n_params = 1

            def assemble(self, y):
                f = np.ones(4, dtype=complex)
                return _Band.pack(D, 1, 1), f, f, 0.0 + 0.0j

        with pytest.raises(SolveError, match=cause) as exc_info:
            solve_primal(Banded(), np.array([0.7]))
        assert exc_info.value.point == (0.7,)
        assert "0.7" in str(exc_info.value)

    def test_error_point_prints_as_plain_floats(self):
        err = SolveError("breakdown", point=np.array([-1.0, 0.5]), cond=2.0)
        assert str(err) == ("breakdown at point (-1.0, 0.5) "
                            "(condition estimate 2.000e+00)")
        assert err.point == (-1.0, 0.5)
        assert all(type(c) is float for c in err.point)


class TestBandPath:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 30),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_band_lu_matches_dense_solve(self, data, n, seed):
        """gbtrf/gbtrs and the band matvec against numpy on the dense matrix."""
        kl = data.draw(st.integers(0, n - 1), label="kl")
        ku = data.draw(st.integers(0, n - 1), label="ku")
        rng = np.random.default_rng(seed)
        D = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        i, j = np.indices((n, n))
        D[(i - j > kl) | (j - i > ku)] = 0.0
        D[i == j] += np.abs(D).sum(axis=1) + 1.0     # diagonally dominant
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        y = np.array([0.5])
        primal = np.linalg.solve(D, b)
        dual = np.linalg.solve(D.conj().T, b)
        # the band as drawn, and the same matrix packed as a full band
        for A in (_Band.pack(D, kl, ku), _as_band(D, y)):
            assert A.shape == (n, n)
            assert np.array_equal(np.asarray(A), D)
            factors = factorize(A, y)
            for x, ref, adjoint in ((substitute(factors, A, b, y), primal, False),
                                    (substitute(factors, A, b, y, adjoint=True),
                                     dual, True)):
                assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
            for got, ref in ((A @ b, D @ b),
                             (A.matvec(b, adjoint=True), D.conj().T @ b)):
                assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_dense_matrix_is_packed_as_a_full_band(self):
        A = _as_band(np.eye(5, dtype=complex), [0.0])
        assert (A.kl, A.ku, A.ab.shape) == (4, 4, (13, 5))

    def test_non_square_matrix_raises(self):
        with pytest.raises(SolveError, match="square") as exc_info:
            _as_band(np.ones((3, 2)), np.array([0.25]))
        assert exc_info.value.point == (0.25,)


class AssembleOverride(LadderModel):
    """A ladder driven twice as hard: its own assembly doubles every QoI."""

    def assemble(self, y):
        A, f, j, offset = super().assemble(y)
        return A, 2.0 * f, j, offset


class QoiOverride(LadderModel):
    """A ladder whose own ``qoi`` adds one."""

    def qoi(self, y):
        return super().qoi(y) + 1.0


class DenseModel(ParametricLinearModel):
    """A random dense two-parameter system, packed as a full band."""

    n_params = 2

    def __init__(self, n, seed):
        rng = np.random.default_rng(seed)
        self.n = n
        self.terms = rng.normal(size=(3, n, n)) + 1j * rng.normal(size=(3, n, n))
        self.f = rng.normal(size=n) + 1j * rng.normal(size=n)
        self.j = rng.normal(size=n) + 0j

    def assemble(self, y):
        A = self.terms[0] + y[0] * self.terms[1] + y[1] * self.terms[2]
        return A + 3.0 * self.n * np.eye(self.n), self.f, self.j, 0.5 + 0.0j


def _stack_failure(monkeypatch, fault, k):
    """Solve 300 ladder systems as one stack with ``fault`` put in block k.

    Returns the error, the points, the block size and the (band, lu, piv)
    shapes each condition estimate was given.
    """
    n = 12
    points = np.random.default_rng(3).uniform(-1.0, 1.0, (300, 2))
    A, f, _, _ = LadderModel(2, sections=n, damping=0.05)._assemble_stack(points)
    if fault == "nan entry":
        A.ab[2, k * n + 5] = np.nan
    elif fault == "zero column":
        A.ab[:, k * n + 5] = 0.0
    elif fault == "nan right-hand side":
        f[k * n + 3] = np.nan
    else:
        bind = linmodel._lapack

        def gbtrs(*args, **kwargs):
            x, info = bind("gbtrs")(*args, **kwargs)
            x[k * n + 4] += 1e-6
            return x, info

        monkeypatch.setattr(linmodel, "_lapack",
                            lambda name: gbtrs if name == "gbtrs" else bind(name))
    seen, estimate = [], linmodel._cond_estimate

    def spy(band, lu, piv):
        seen.append((band.ab.shape, lu.shape, piv.shape))
        return estimate(band, lu, piv)

    monkeypatch.setattr(linmodel, "_cond_estimate", spy)
    with pytest.raises(SolveError) as exc_info:
        substitute(factorize(A, points), A, f, points)
    return exc_info.value, points, n, seen


class TestStackedSolves:
    """A point set's systems solved side by side as one block-diagonal band."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), sections=st.integers(1, 60), n_stiff=st.integers(0, 3),
           with_frequency=st.booleans(), damping=st.floats(0.005, 0.2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_stacks_are_bitwise_one_point_solves(self, data, sections, n_stiff,
                                                 with_frequency, damping, seed):
        """qoi, solve_primal, A @ c and the residual formula, block by block."""
        n_stiff = min(n_stiff, sections)
        model = LadderModel(n_stiff, sections, damping, with_frequency or not n_stiff)
        chunk = linmodel._STACK_UNKNOWNS // sections
        m = data.draw(st.sampled_from([1, 2, chunk - 1, chunk, chunk + 1])
                      | st.integers(1, 300), label="m")
        rng = np.random.default_rng(seed)
        lo, hi = np.array(model.support()).T
        points = lo + (hi - lo) * rng.random((m, model.n_params))
        qois = _model_values(model, points, str)
        assert qois == [model.qoi(y) for y in points]
        A, f, j, offsets = model._assemble_stack(points)
        c = substitute(factorize(A, points), A, f, points)
        Ac = A @ c
        z = rng.normal(size=c.size) + 1j * rng.normal(size=c.size)
        etas = _residual_indicator(A, f, c.reshape(m, -1), z.reshape(m, -1))
        n = sections
        for k, y in enumerate(points):
            block = slice(k * n, (k + 1) * n)
            ck, fac = solve_primal(model, y)
            assert c[block].tobytes() == ck.tobytes()
            assert Ac[block].tobytes() == (fac.A @ ck).tobytes()
            assert etas[k] == _residual_indicator(fac.A, fac.f, c[block], z[block])
            assert (f[block].tobytes(), j[block].tobytes(), offsets[k]) == (
                fac.f.tobytes(), fac.j.tobytes(), fac.offset)

    @pytest.mark.parametrize("fault", ["nan entry", "zero column",
                                       "nan right-hand side", "residual"])
    def test_failure_names_its_block(self, monkeypatch, fault):
        k = 217
        err, points, n, seen = _stack_failure(monkeypatch, fault, k)
        assert err.point == tuple(points[k])
        # the estimate reads the failing block's n columns, never the stack
        assert seen == ([] if fault == "nan entry" else [((4, n), (4, n), (n,))])
        model = LadderModel(2, sections=n, damping=0.05)
        if fault in ("nan entry", "zero column"):
            assert err.cond == float("inf")
        else:
            A = model.assemble(points[k])[0]
            assert err.cond == linmodel._cond_estimate(A, *factorize(A, points[k]))

    @pytest.mark.parametrize("k", [0, 149, 299])
    def test_nan_block_is_named_wherever_it_sits(self, monkeypatch, k):
        err, points, _, _ = _stack_failure(monkeypatch, "nan right-hand side", k)
        assert err.point == tuple(points[k])
        assert "primal residual nan" in str(err)

    def test_batch_call_names_the_failing_point(self):
        class Holed(LadderModel):
            def assemble(self, y):
                A, f, j, offset = super().assemble(y)
                if y[0] < -0.9:
                    A.ab[2, 0] = np.nan
                return A, f, j, offset

        points = np.random.default_rng(4).uniform(-1.0, 1.0, (200, 2))
        first = int(np.argmax(points[:, 0] < -0.9))
        with pytest.raises(SolveError, match="non-finite entries") as exc_info:
            _model_values(Holed(2, sections=6), points, str)
        assert exc_info.value.point == tuple(points[first])

    def test_stack_failing_other_than_by_a_solve_goes_point_by_point(self):
        """A stack whose assembly raises a ValueError is retried per point,
        so the error names the one point that raises."""
        unit = [uniform(-1.0, 1.0)] * 2
        points = sample_joint(unit, 60, 5)
        bad = points[np.argmin(points[:, 0])]

        class Refusing(LadderModel):
            def assemble(self, y):
                if np.array_equal(y, bad):
                    raise ValueError("no system here")
                return super().assemble(y)

        with pytest.raises(SolveError, match="cross-validation point: no system") as exc_info:
            cv_errors(lambda pts: pts[:, 0], Refusing(2, sections=7), unit, 60, 5)
        assert exc_info.value.point == tuple(bad)

    def test_bands_of_different_widths_go_point_by_point(self):
        """A model whose band width depends on the point cannot stack."""
        class Widening(LadderModel):
            def assemble(self, y):
                A, f, j, offset = super().assemble(y)
                return (np.asarray(A) if y[0] > 0.0 else A), f, j, offset

        model = Widening(2, sections=8, damping=0.05)
        points = np.random.default_rng(9).uniform(-1.0, 1.0, (40, 2))
        with pytest.raises(ContractError, match="differ in size or width"):
            model._assemble_stack(points)
        values = _model_values(model, points, str)
        assert np.array(values).tobytes() == np.array(
            [model.qoi(y) for y in points]).tobytes()

    @pytest.mark.parametrize("cls", [AssembleOverride, QoiOverride])
    def test_overrides_win(self, cls):
        """cv_errors, Surrogate.fit and project use the subclass's values."""
        model = cls(2, sections=9, damping=0.05)
        unit = [uniform(-1.0, 1.0)] * 2

        def per_point(y):
            return model(y)

        def batch(points):
            return np.array([model(y) for y in points])

        assert cv_errors(batch, model, unit, 50, 0) == (0.0, 0.0)
        index_set = MultiIndexSet.total_degree(2, 3)
        fits = [Surrogate.fit(m, unit, index_set) for m in (model, per_point)]
        assert [fits[0].surplus(ix) for ix in index_set] == [
            fits[1].surplus(ix) for ix in index_set]
        gpc = [project(m, unit, 3, quadrature="smolyak") for m in (model, per_point)]
        assert [gpc[0].coefficient(ix) for ix in gpc[0].indices] == [
            gpc[1].coefficient(ix) for ix in gpc[1].indices]

    def test_dense_blocks_agree_within_a_stated_tolerance(self):
        """Full bands up to 6 × 6 stack bit for bit; larger ones within 1e-14."""
        for n in range(1, 13):
            model = DenseModel(n, seed=n)
            points = np.random.default_rng(n).uniform(-1.0, 1.0, (120, 2))
            stacked = np.array(_model_values(model, points, str))
            one = np.array([model.qoi(y) for y in points])
            if n <= 6:
                assert stacked.tobytes() == one.tobytes()
            assert np.max(np.abs(stacked - one) / np.abs(one)) <= 1e-14

    def test_condition_estimate_bounds_the_dense_one(self):
        rng = np.random.default_rng(8)
        for n, kl, ku in ((1, 0, 0), (7, 1, 2), (12, 3, 1), (20, 19, 19)):
            D = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            i, j = np.indices((n, n))
            D[(i - j > kl) | (j - i > ku)] = 0.0
            A = _Band.pack(D, kl, ku)
            exact = np.linalg.cond(D, 1).real
            estimate = linmodel._cond_estimate(A, *factorize(A, [0.0]))
            assert exact / 3.0 <= estimate <= exact * (1.0 + 1e-10)
        singular = _Band.pack(np.diag([1.0, 0.0, 2.0]).astype(complex), 1, 1)
        lu, piv, info = linmodel._lapack("gbtrf")(singular.ab, 1, 1)
        assert info == 2
        assert linmodel._cond_estimate(singular, lu, piv) == float("inf")


def _band_cases():
    rng = np.random.default_rng(5)
    dense = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)) + 4.0 * np.eye(6)
    for sections in (40, 400):
        yield LadderModel(2, sections=sections).assemble(np.array([0.3, -0.4]))[0]
    yield _as_band(dense, [0.0])


def _routine_outputs(routine):
    """Every output of gbtrf, gbtrs and gbmv on each case, as bytes."""
    outputs = []
    for A in _band_cases():
        n = A.shape[0]
        b = np.exp(1j * np.arange(n)) + np.arange(n)
        lu, piv, info = routine("gbtrf")(A.ab, A.kl, A.ku)
        outputs += [lu.tobytes(), piv.tobytes(), info]
        for trans in (0, 2):
            x, info = routine("gbtrs")(lu, A.kl, A.ku, b, piv, trans=trans)
            outputs += [x.tobytes(), info]
            rows = max(n, A.ab.shape[0])
            v = np.concatenate([b, np.zeros(rows - n)]) if trans else b
            outputs.append(routine("gbmv")(rows, n, A.kl, A.kl + A.ku, 1.0, A.ab, v,
                                           trans=trans).tobytes())
    return outputs


class TestLapackBinding:
    """The band routines bound from scipy's extension files are scipy.linalg's."""

    @staticmethod
    def scipy_routine(name):
        from scipy.linalg import blas, lapack
        return getattr(blas if name == "gbmv" else lapack, "z" + name)

    @pytest.fixture
    def rebind(self):
        linmodel._lapack.cache_clear()
        yield
        linmodel._lapack.cache_clear()

    def test_bytes_match_scipy_linalg(self, rebind):
        assert _routine_outputs(linmodel._lapack) == _routine_outputs(self.scipy_routine)

    def test_gbcon_matches_scipy_linalg(self, rebind, monkeypatch):
        """Condition estimates bound directly and through the fallback are scipy's."""
        def estimates(routine):
            out = []
            for A in _band_cases():
                lu, piv, _ = routine("gbtrf")(A.ab, A.kl, A.ku)
                rcond, info = routine("gbcon")(A.kl, A.ku, lu, piv,
                                               np.abs(A.ab).sum(axis=0).max())
                out.append((np.float64(rcond).tobytes(), info))
            return out

        reference = estimates(self.scipy_routine)
        assert estimates(linmodel._lapack) == reference
        linmodel._lapack.cache_clear()
        located = []
        monkeypatch.setattr(linmodel, "util", SimpleNamespace(find_spec=located.append))
        assert estimates(linmodel._lapack) == reference
        assert located == ["scipy"] * 2

    def test_fallback_binds_the_same_routines(self, rebind, monkeypatch):
        located = []

        def find_spec(name):
            located.append(name)   # scipy cannot be located: the direct load fails

        monkeypatch.setattr(linmodel, "util", SimpleNamespace(find_spec=find_spec))
        assert _routine_outputs(linmodel._lapack) == _routine_outputs(self.scipy_routine)
        assert located == ["scipy"] * 3


class TestMaterial:
    def test_all_table_values_exact(self):
        for table in (GOLD_N_SAMPLES, GOLD_KAPPA_SAMPLES,
                      SILVER_N_SAMPLES, SILVER_KAPPA_SAMPLES):
            for freq, value in table:
                assert material_interp(table, freq) == value

    def test_quadratic_reproduction(self):
        # three samples determine a parabola; check midpoint consistency
        parab = lambda x: 2.0 - 0.5 * x + 0.01 * x * x
        samples = [(f, parab(f)) for f in MATERIAL_FREQUENCIES_THZ]
        mid = 410.0
        assert_allclose(material_interp(samples, mid), parab(mid), rtol=1e-12)

    def test_extrapolation_warns(self):
        with pytest.warns(UserWarning, match="extrapolat"):
            material_interp(GOLD_N_SAMPLES, 500.0)

    def test_two_samples_rejected(self):
        with pytest.raises(ValueError, match="exactly three samples are required"):
            material_interp(GOLD_N_SAMPLES[:2], 410.0)

    def test_degenerate_frequencies_rejected(self):
        with pytest.raises(ValueError):
            material_interp([(1.0, 0.1), (1.0, 0.2), (2.0, 0.3)], 1.5)

    def test_numbers_are_checked(self):
        # strings were parsed and booleans read as 1.0
        for call in (
            lambda: material_interp(GOLD_N_SAMPLES, "425.57"),
            lambda: material_interp(GOLD_N_SAMPLES, True),
            lambda: material_interp(GOLD_N_SAMPLES, float("nan")),
            lambda: material_interp([(1.0, 0.1), (2.0, "0.2"), (3.0, 0.3)], 1.5),
            lambda: material_interp([(1.0, 0.1), (2.0, 0.2), (float("inf"), 0.3)], 1.5),
            lambda: permittivity("0.14", 4.542),
            lambda: permittivity(0.14, True),
            lambda: permittivity(float("nan"), 4.542),
        ):
            with pytest.raises(ContractError):
                call()
        # ints and numpy scalars are reals
        assert material_interp(GOLD_N_SAMPLES, np.float64(425.57)) == 0.13
        assert permittivity(np.int64(1), 0) == permittivity(1.0, 0.0)

    def test_permittivity_formula(self):
        eps = permittivity(0.14, 4.542)
        assert_allclose(eps.real, 0.14**2 - 4.542**2, rtol=1e-15)
        assert_allclose(eps.imag, -2 * 0.14 * 4.542, rtol=1e-15)

    def test_csv_ingestion(self, tmp_path):
        path = tmp_path / "gold.csv"
        path.write_text(
            "# gold optical data\n"
            "frequency_THz,n,kappa\n"
            "396.55,0.14,4.542\n"
            "425.57,0.13,4.103\n"
            "454.58,0.14,3.697\n")
        n_samples, kappa_samples = read_material_samples(path)
        assert n_samples == GOLD_N_SAMPLES
        assert kappa_samples == GOLD_KAPPA_SAMPLES

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [0, 1, 2])
    def test_csv_non_finite_value(self, tmp_path, column, value):
        rows = [["396.55", "0.14", "4.542"], ["425.57", "0.13", "4.103"],
                ["454.58", "0.14", "3.697"]]
        rows[column][column] = value
        path = tmp_path / "bad.csv"
        path.write_text("".join(",".join(r) + "\n" for r in rows))
        name = ("frequency_THz", "n", "kappa")[column]
        with pytest.raises(ContractError, match=f"column '{name}' must be a finite"):
            read_material_samples(path)

    def test_csv_two_column_row(self, tmp_path):
        path = tmp_path / "narrow.csv"
        path.write_text("396.55,0.14,4.542\n425.57,0.13\n454.58,0.14,3.697\n")
        with pytest.raises(ValueError, match=r"expected 3 columns, got \['425.57', '0.13'\]"):
            read_material_samples(path)

    def test_csv_wrong_row_count(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("396.55,0.14,4.542\n425.57,0.13,4.103\n")
        with pytest.raises(ValueError):
            read_material_samples(path)


class TestFrequencyParameter:
    def test_frequency_changes_response(self):
        m = LadderModel(1, sections=10, damping=0.05, with_frequency=True)
        lo = m.qoi(np.array([0.6, 1.0]))
        hi = m.qoi(np.array([1.4, 1.0]))
        assert abs(lo - hi) > 1e-6

    def test_fixed_omega_used_without_frequency_param(self):
        a = LadderModel(1, sections=10, omega=0.8)
        b = LadderModel(1, sections=10, omega=1.2)
        y = np.array([1.0])
        assert a.qoi(y) != b.qoi(y)
