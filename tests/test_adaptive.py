"""Tests for the adaptive refinement drivers and their cost accounting."""
import csv
import importlib.util
import io
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from adaleja import (AdaptiveConfig, AdaptiveReport, LadderModel,
                     SausageMap, Surrogate, backward_neighbors,
                     corrected_evaluate, deserialize, error_indicator,
                     forward_neighbors, run_adaptive, run_adaptive_adjoint,
                     serialize, solve_dual, solve_primal, uniform)
from adaleja import grid, surrogate
from adaleja.errors import ContractError, SolveError


def runge2(y):
    return 1.0 / ((1.0 + 10.0 * y[0] ** 2) * (1.0 + 10.0 * y[1] ** 2))


UNIT_SQUARE = [uniform(-1, 1), uniform(-1, 1)]

BENCHMARK_WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    """The benchmark's workload module, which defines its black-box inputs."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  BENCHMARK_WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestConfig:
    def test_defaults(self):
        cfg = AdaptiveConfig(budget=10)
        assert cfg.tol is None

    def test_budget_must_be_positive(self):
        # and an integer: nothing is truncated or parsed
        for budget in (0, -3, 2.7, 5.0, "5", True, None):
            with pytest.raises(ContractError):
                AdaptiveConfig(budget=budget)
        assert AdaptiveConfig(budget=np.int64(7)).budget == 7

    def test_negative_tolerance(self):
        # nan would never stop the loop, since best < nan is always false
        for tol in (-1e-3, float("nan"), float("inf"), -float("inf"), "0.1", True):
            with pytest.raises(ContractError):
                AdaptiveConfig(budget=5, tol=tol)
        assert AdaptiveConfig(budget=5, tol=np.float64(0.5)).tol == 0.5
        assert AdaptiveConfig(budget=5, tol=0).tol == 0


class TestSurplusDriver:
    def test_budget_and_counters(self):
        sur, report = run_adaptive(runge2, AdaptiveConfig(budget=100),
                                   UNIT_SQUARE)
        # pending candidates are folded in, so the node count hits the
        # budget exactly and every node cost one evaluation
        assert len(sur) == 100
        assert report.lu_count == 100
        assert report.fb_count == 100
        assert report.res_count == 0
        assert len(report.records) == 94

    def test_acceptance_order_is_frozen(self):
        _, report = run_adaptive(runge2, AdaptiveConfig(budget=100),
                                 UNIT_SQUARE)
        head = [r.index for r in report.records[:6]]
        assert head == [(0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (1, 1)]

    @pytest.mark.parametrize("seed", range(4))
    def test_benchmark_orders_match_shipped_digests(self, workloads, seed):
        # each Runge factor is an even function, so some surpluses tie
        # exactly and only the rounding of node predictions orders them
        box = workloads.Blackbox("full", seed)
        _, report = run_adaptive(box.model, box.config, box.dists, box.maps)
        shipped = workloads.load_refs()["blackbox"][str(seed)]
        assert workloads.sequence_digest(report.accepted) == shipped

    def test_runs_are_deterministic(self):
        sur_a, rep_a = run_adaptive(runge2, AdaptiveConfig(budget=60),
                                    UNIT_SQUARE)
        sur_b, rep_b = run_adaptive(runge2, AdaptiveConfig(budget=60),
                                    UNIT_SQUARE)
        assert [r.index for r in rep_a.records] == [r.index for r in rep_b.records]
        assert list(sur_a.indices) == list(sur_b.indices)
        for ix in sur_a.indices:
            assert sur_a.surplus(ix) == sur_b.surplus(ix)

    def test_linear_model_is_reproduced_exactly(self):
        f = lambda y: 2.0 + y[0] - 3.0 * y[1]
        sur, _ = run_adaptive(f, AdaptiveConfig(budget=12), UNIT_SQUARE)
        pts = np.random.default_rng(2).uniform(-1, 1, (50, 2))
        for p in pts:
            assert abs(complex(sur.evaluate(p)) - f(p)) < 1e-12

    def test_tolerance_exits_early(self):
        sur, report = run_adaptive(runge2,
                                   AdaptiveConfig(budget=100, tol=10.0),
                                   UNIT_SQUARE)
        # every first-layer indicator is below the huge tolerance, so
        # only the root is accepted; the pending layer still lands in
        # the returned surrogate
        assert len(report.records) == 1
        assert len(sur) == 3

    def test_on_accept_sees_every_record(self):
        seen = []
        _, report = run_adaptive(runge2, AdaptiveConfig(budget=30),
                                 UNIT_SQUARE,
                                 on_accept=lambda s, r: seen.append(r))
        assert seen == report.records
        assert [r.iteration for r in seen] == list(range(len(seen)))

    def test_model_failure_is_wrapped(self):
        def broken(y):
            raise RuntimeError("synthetic blowup")

        with pytest.raises(SolveError, match="model evaluation failed"):
            run_adaptive(broken, AdaptiveConfig(budget=5), UNIT_SQUARE)

    def test_vector_model_rejected(self):
        with pytest.raises(ContractError, match=r"scalar model, got shape \(2,\)"):
            run_adaptive(lambda y: np.array([1.0, 2.0]), AdaptiveConfig(budget=5),
                         UNIT_SQUARE)

    def test_non_finite_value_names_index_and_point(self):
        # the level-1 node of a uniform law sits at -1
        def holed(y):
            return np.nan if y[0] < -0.5 else runge2(y)

        with pytest.raises(SolveError, match=r"non-finite model value .* index "
                                             r"\(1, 0\) at point \(-1\.0, 0\.0\)"):
            run_adaptive(holed, AdaptiveConfig(budget=10), UNIT_SQUARE)

    def test_non_finite_surplus_names_index_and_point(self):
        def cliff(y):
            return 1e308 if y[0] >= 0.0 else -1e308

        with pytest.raises(SolveError, match=r"non-finite surplus .* index "
                                             r"\(1, 0\) at point \(-1\.0, 0\.0\)"):
            run_adaptive(cliff, AdaptiveConfig(budget=10), UNIT_SQUARE)


def frontier_from_scratch(members):
    """Forward neighbors of members whose backward neighbors all are members."""
    return sorted({fwd for ix in members for fwd in forward_neighbors(ix)
                   if fwd not in members
                   and all(b in members for b in backward_neighbors(fwd))})


def greedy_oracle(model, dists, budget, tol):
    """The surplus greedy spelled out: each step rescans the frontier,
    scores the candidates not yet scored in lex order and takes the
    smallest (-|surplus|, index).  Returns the surrogate, the accepted
    indices, their indicators, the model calls made by each acceptance
    and the called points."""
    sur = Surrogate(dists)
    calls, values, pending = [], {}, {}

    def call(ix):
        x = sur.node_point(ix)
        calls.append(tuple(x))
        return complex(model(x))

    root = (0,) * len(dists)
    sur.add_point(root, call(root))
    accepted, indicators, counts = [root], [abs(sur.surplus(root))], [len(calls)]
    while True:
        for ix in frontier_from_scratch(set(sur.indices)):
            if ix not in pending:
                values[ix] = call(ix)
                pending[ix] = values[ix] - sur.predict_node(ix)
        best = min(pending, key=lambda ix: (-abs(pending[ix]), ix))
        if tol is not None and abs(pending[best]) < tol:
            break
        if len(sur) + len(pending) >= budget:
            break
        indicators.append(abs(pending.pop(best)))
        sur.add_point(best, values[best])
        accepted.append(best)
        counts.append(len(calls))
    for ix in sorted(pending):
        sur.add_point(ix, values[ix])
    return sur, accepted, indicators, counts, calls


# models whose surpluses tie exactly: constants and functions of one
# coordinate leave every other direction at surplus 0, products of
# identical even factors are symmetric under swapped coordinates, and
# small integer values repeat
TIE_HEAVY = {
    "constant": lambda y: 3.0,
    "last coordinate": lambda y: float(np.cos(3.0 * y[-1])),
    "even product": lambda y: float(np.prod(1.0 / (1.0 + 4.0 * y ** 2))),
    "square product": lambda y: float(np.prod(y ** 2)),
    "integer sum": lambda y: float(np.round(2.0 * np.sum(y))),
}


class TestLoopOracle:
    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(sorted(TIE_HEAVY)), dim=st.integers(1, 4),
           budget=st.integers(1, 40),
           tol=st.one_of(st.none(), st.sampled_from([0.0, 1e-12, 0.05, 0.5])))
    def test_matches_brute_force_greedy(self, name, dim, budget, tol):
        model = TIE_HEAVY[name]
        dists = [uniform(-1, 1)] * dim
        seen = []

        def traced(x):
            seen.append(tuple(x))
            return model(x)

        sur, report = run_adaptive(traced, AdaptiveConfig(budget, tol=tol), dists)
        ref, accepted, indicators, counts, calls = greedy_oracle(model, dists,
                                                                 budget, tol)
        assert seen == calls
        assert report.accepted == accepted
        assert [r.indicator for r in report.records] == indicators
        assert [r.lu_count for r in report.records] == counts
        assert [r.fb_count for r in report.records] == counts
        assert [r.res_count for r in report.records] == [0] * len(counts)
        assert (report.lu_count, report.fb_count, report.res_count) == (
            len(calls), len(calls), 0)
        assert serialize(sur) == serialize(ref)


class TestReportCsv:
    def test_header_and_formatting(self):
        report = AdaptiveReport()
        report.lu_count, report.fb_count, report.res_count = 3, 6, 4
        rec = report.record((1, 2), 0.125)
        rec.cv_error = 1e-3
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert rows[0] == ["iteration", "chosen_index", "indicator",
                           "lu_count", "fb_count", "res_count", "cv_error"]
        assert rows[1] == ["0", "1 2", "0.125", "3", "6", "4", "0.001"]

    def test_missing_cv_error_is_blank(self):
        report = AdaptiveReport()
        report.record((0,), 1.0)
        rows = list(csv.reader(io.StringIO(report.to_csv())))
        assert rows[1][-1] == ""


@pytest.fixture(scope="module")
def run():
    model = LadderModel(1, sections=8, damping=0.1, with_frequency=True)
    dists = [uniform(lo, hi) for lo, hi in model.support()]
    cfg = AdaptiveConfig(budget=60)
    return model, run_adaptive_adjoint(model, cfg, dists)


class TestAdjointDriver:
    def test_counter_relations(self, run):
        _, (qoi, field, report) = run
        # one factorization per accepted index, two substitutions per
        # factorization, and at least one residual scoring per candidate
        assert report.lu_count == len(report.records)
        assert report.fb_count == 2 * report.lu_count
        assert report.res_count >= report.lu_count

    def test_frozen_counters(self, run):
        _, (qoi, field, report) = run
        assert (len(qoi), len(field)) == (60, 57)
        assert (report.lu_count, report.fb_count, report.res_count) == (57, 114, 59)

    def test_accepts_reuse_the_scoring_assembly(self):
        class Counting(LadderModel):
            assemblies = 0

            def assemble(self, y):
                self.assemblies += 1
                return super().assemble(y)

        model = Counting(1, sections=8, damping=0.1, with_frequency=True)
        dists = [uniform(lo, hi) for lo, hi in model.support()]
        cfg = AdaptiveConfig(budget=60)
        *_, report = run_adaptive_adjoint(model, cfg, dists)
        # only the root is assembled at acceptance; every other index is
        # assembled once, when it is scored
        assert model.assemblies == report.res_count + 1

    def test_primal_dual_share_indices(self, run):
        # one field surrogate holds both: its value at a node is the pair (c, z)
        model, (qoi, field, report) = run
        assert field.value_shape == (2, model.n)
        assert set(field.indices) <= set(qoi.indices)

    def test_correction_beats_plain_surrogate(self, run):
        model, (qoi, field, report) = run
        rng_f = np.random.default_rng(11).uniform(0.5, 1.5, 40)
        rng_t = np.random.default_rng(12).uniform(-1, 1, 40)
        pts = np.column_stack([rng_f, rng_t])
        plain = qoi.restrict(list(field.indices))
        plain_err = max(abs(complex(plain.evaluate(p)) - model.qoi(p))
                        for p in pts)
        corrected = corrected_evaluate(qoi, field, model, pts)
        corr_err = max(abs(corrected[k] - model.qoi(pts[k]))
                       for k in range(len(pts)))
        assert corr_err < plain_err / 3.0
        assert corr_err < 0.05

    def test_correction_vanishes_at_grid_nodes(self, run):
        model, (qoi, field, report) = run
        node = qoi.node_point(report.records[3].index)
        value = corrected_evaluate(qoi, field, model, node)
        assert abs(value - model.qoi(node)) < 1e-12

    def test_single_point_matches_batch(self, run):
        model, (qoi, field, report) = run
        point = np.array([1.1, 0.3])
        single = corrected_evaluate(qoi, field, model, point)
        batch = corrected_evaluate(qoi, field, model, point[None, :])
        assert isinstance(single, complex)
        assert_allclose(abs(single - batch[0]), 0.0, atol=1e-15)

    def test_qoi_on_the_core_set(self, run):
        # a qoi without folded candidates is restricted too, to the same bits
        model, (qoi, field, report) = run
        core = qoi.restrict(field.indices)
        pts = np.array([[1.1, 0.3], [0.7, -0.8], [1.4, 0.9]])
        expected = core.evaluate(pts) + np.array([
            error_indicator(model, p, c, z) for p, (c, z) in zip(pts, field.evaluate(pts))])
        assert core.indices == field.indices
        assert np.array_equal(corrected_evaluate(core, field, model, pts), expected)

    def test_one_map_inversion_per_point(self, monkeypatch):
        # the QoI and field surrogates share their preimages: N inverted
        # coordinates per call, with the same bits as separate inversions
        model = LadderModel(2, sections=6, damping=0.1, with_frequency=True)
        dists = [uniform(lo, hi) for lo, hi in model.support()]
        qoi, field, _ = run_adaptive_adjoint(
            model, AdaptiveConfig(budget=25), dists,
            maps=SausageMap(9))
        rng = np.random.default_rng(3)
        pts = np.column_stack([rng.uniform(lo, hi, 50) for lo, hi in model.support()])
        core = qoi.restrict(field.indices)
        expected = core.evaluate(pts) + np.array([
            error_indicator(model, p, c, z) for p, (c, z) in zip(pts, field.evaluate(pts))])
        inverted = []
        inverse = SausageMap._inverse

        def counting(self, t):
            inverted.append(np.size(t))
            return inverse(self, t)

        monkeypatch.setattr(SausageMap, "_inverse", counting)
        got = corrected_evaluate(qoi, field, model, pts)
        assert sum(inverted) == pts.size
        assert np.array_equal(got, expected)
        # a field under other maps still uses its own preimages
        other = Surrogate(dists, SausageMap(3))
        for ix, s in zip(field.indices, field._surplus_values()):
            other.add_restricted(ix, s)
        expected = core.evaluate(pts) + np.array([
            error_indicator(model, p, c, z) for p, (c, z) in zip(pts, other.evaluate(pts))])
        assert np.array_equal(corrected_evaluate(qoi, other, model, pts), expected)

    def test_empty_primal_and_dual(self, run):
        model, (qoi, field, report) = run
        with pytest.raises(ContractError, match="empty surrogate"):
            corrected_evaluate(qoi, field.restrict([]), model, np.array([1.0, 0.0]))

    @pytest.mark.parametrize("shape", ["scalar", "primal", "dual rows", "wider"])
    def test_refuses_other_value_shapes(self, run, shape):
        # only a field of (c, z) pairs, shape (2, model.n), is accepted
        model, (qoi, field, report) = run
        values = {"scalar": lambda s: s[0, 0], "primal": lambda s: s[0],
                  "dual rows": lambda s: s[1:], "wider": lambda s: np.pad(s, ((0, 0), (0, 1)))}
        bad = Surrogate(field.distributions, field.maps)
        for ix, s in zip(field.indices, field._surplus_values()):
            bad.add_restricted(ix, values[shape](s))
        with pytest.raises(ContractError, match=r"field values have shape .*"
                                                rf"expected the pair shape \(2, {model.n}\)"):
            corrected_evaluate(qoi, bad, model, np.array([1.0, 0.0]))

    def test_non_finite_indicator_names_index_and_point(self):
        class HoledLadder(LadderModel):
            def assemble(self, y):
                A, f, j, offset = super().assemble(y)
                return A, (f * np.nan if y[0] < -0.5 else f), j, offset

        model = HoledLadder(2, sections=8, damping=0.1)
        cfg = AdaptiveConfig(budget=10)
        with pytest.raises(SolveError, match=r"non-finite residual indicator .* "
                                             r"index \(1, 0\) at point \(-1\.0, 0\.0\)"):
            run_adaptive_adjoint(model, cfg, UNIT_SQUARE)

    def test_black_box_model_rejected(self):
        with pytest.raises(ContractError):
            run_adaptive_adjoint(
                runge2, AdaptiveConfig(budget=5),
                UNIT_SQUARE)

    def test_dimension_mismatch_rejected(self, run):
        model, _ = run
        three = [uniform(-1, 1)] * 3
        with pytest.raises(ContractError):
            run_adaptive_adjoint(
                model, AdaptiveConfig(budget=5), three)


def adjoint_oracle(model, dists, maps, budget, tol):
    """The adjoint greedy spelled out with public calls only: each step
    rescans the frontier, scores the candidates not yet scored by the
    residual indicator and takes the smallest (-|indicator|, index); an
    accepted index costs one primal and one dual solve.  Returns the
    three surrogates, the records (index, indicator, lu, fb, res) and
    the final counters."""
    qoi, primal, dual = (Surrogate(dists, maps) for _ in range(3))
    counts = {"lu": 0, "fb": 0, "res": 0}
    records, pending = [], {}

    def absorb(ix):
        x = qoi.node_point(ix)
        c, fac = solve_primal(model, x)
        z = solve_dual(model, x, fac)
        counts["lu"] += 1
        counts["fb"] += 2
        qoi.add_point(ix, np.vdot(fac.j, c) + fac.offset)
        primal.add_point(ix, c)
        dual.add_point(ix, z)

    def record(ix, indicator):
        records.append((ix, abs(indicator), counts["lu"], counts["fb"],
                        counts["res"]))

    root = (0,) * len(dists)
    absorb(root)
    record(root, qoi.surplus(root))
    while True:
        for ix in frontier_from_scratch(set(qoi.indices)):
            if ix not in pending:
                pending[ix] = error_indicator(model, qoi.node_point(ix),
                                              primal.predict_node(ix),
                                              dual.predict_node(ix))
                counts["res"] += 1
        best = min(pending, key=lambda ix: (-abs(pending[ix]), ix))
        if tol is not None and abs(pending[best]) < tol:
            break
        if len(qoi) + len(pending) >= budget:
            break
        indicator = pending.pop(best)
        absorb(best)
        record(best, indicator)
    for ix in sorted(pending):
        qoi.add_restricted(ix, pending[ix])
    return (qoi, primal, dual), records, counts


class TestAdjointOracle:
    @settings(max_examples=40, deadline=None)
    @given(n_stiff=st.integers(0, 2), with_frequency=st.booleans(),
           sections=st.integers(2, 8), damping=st.sampled_from([0.05, 0.1, 0.5]),
           mapped=st.booleans(), budget=st.integers(1, 30),
           tol=st.one_of(st.none(), st.sampled_from([0.0, 1e-6, 1e-2])))
    def test_matches_brute_force_greedy(self, n_stiff, with_frequency, sections,
                                        damping, mapped, budget, tol):
        if not (n_stiff or with_frequency):
            with_frequency = True
        model = LadderModel(n_stiff, sections=sections, damping=damping,
                            with_frequency=with_frequency)
        dists = [uniform(lo, hi) for lo, hi in model.support()]
        maps = SausageMap(9) if mapped else None
        qoi, field, report = run_adaptive_adjoint(
            model, AdaptiveConfig(budget, tol=tol), dists, maps)
        (ref_qoi, *refs), records, counts = adjoint_oracle(model, dists, maps, budget, tol)
        assert [(r.index, r.indicator, r.lu_count, r.fb_count, r.res_count)
                for r in report.records] == records
        assert (report.lu_count, report.fb_count, report.res_count) == (
            counts["lu"], counts["fb"], counts["res"])
        assert serialize(qoi) == serialize(ref_qoi)
        assert field.value_shape == (2, model.n)
        for half, ref in enumerate(refs):   # the primal, then the dual
            assert field.indices == ref.indices
            assert (field._surplus_values()[:, half].tobytes()
                    == ref._surplus_values().tobytes())


class TestIndicesCheckedOnce:
    """The drivers pass the tuples the index set hands them to unchecked
    code; restrict and deserialize check each index once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"index": 0, "levels": 0}

        def count(owner, name, key):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        count(grid, "_as_index", "index")
        count(surrogate, "_as_index", "index")
        count(Surrogate, "_check_levels", "levels")
        return calls

    def test_surplus_driver(self, calls):
        # the benchmark's size: 5-D product Runge, sausage-9 maps, budget
        # 300; the loop made three index checks and three level checks
        # per node when it called the public methods
        c = np.array([4.0, 25.0, 1.0, 12.0, 50.0])
        model = lambda y: float(np.prod(1.0 / (1.0 + c * y * y)))
        sur, _ = run_adaptive(model, AdaptiveConfig(300), [uniform(-1, 1)] * 5,
                              SausageMap(9))
        assert calls["index"] == 0
        assert calls["levels"] <= len(sur)

    def test_adjoint_driver(self, calls):
        # an index's levels are checked when it is scored and when it is
        # accepted; through the public methods, this build made 511 index
        # checks and 510 level checks
        model = LadderModel(3, sections=40, damping=0.1)
        dists = [uniform(lo, hi) for lo, hi in model.support()]
        qoi, field, _ = run_adaptive_adjoint(
            model, AdaptiveConfig(80), dists, SausageMap(9))
        assert calls["index"] == 0
        assert calls["levels"] <= len(qoi) + len(field)

    def test_restrict_and_deserialize(self, calls):
        sur, _ = run_adaptive(runge2, AdaptiveConfig(60), UNIT_SQUARE)
        data = serialize(sur)
        for call in (lambda: sur.restrict(sur.indices), lambda: deserialize(data)):
            calls["index"] = 0
            call()
            assert calls["index"] == len(sur)
