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

from adaleja import (ADJOINT, SURPLUS, AdaptiveConfig, AdaptiveReport,
                     LadderModel, Surrogate, backward_neighbors,
                     corrected_evaluate, forward_neighbors, run_adaptive,
                     run_adaptive_adjoint, serialize, uniform)
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
        assert cfg.indicator == SURPLUS
        assert cfg.tol is None

    def test_budget_must_be_positive(self):
        # and an integer: nothing is truncated or parsed
        for budget in (0, -3, 2.7, 5.0, "5", True, None):
            with pytest.raises(ContractError):
                AdaptiveConfig(budget=budget)
        assert AdaptiveConfig(budget=np.int64(7)).budget == 7

    def test_unknown_indicator(self):
        with pytest.raises(ContractError):
            AdaptiveConfig(budget=5, indicator="oracle")

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

    def test_surplus_config_required(self):
        with pytest.raises(ContractError):
            run_adaptive(runge2, AdaptiveConfig(budget=5, indicator=ADJOINT),
                         UNIT_SQUARE)

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

    def test_writes_to_file_path(self, tmp_path):
        _, report = run_adaptive(runge2, AdaptiveConfig(budget=20),
                                 UNIT_SQUARE)
        target = tmp_path / "report.csv"
        assert report.to_csv(str(target)) is None
        assert target.read_text() == report.to_csv()


@pytest.fixture(scope="module")
def run():
    model = LadderModel(1, sections=8, damping=0.1, with_frequency=True)
    dists = [uniform(lo, hi) for lo, hi in model.support()]
    cfg = AdaptiveConfig(budget=60, indicator=ADJOINT)
    return model, run_adaptive_adjoint(model, cfg, dists)


class TestAdjointDriver:
    def test_counter_relations(self, run):
        _, (qoi, primal, dual, report) = run
        # one factorization per accepted index, two substitutions per
        # factorization, and at least one residual scoring per candidate
        assert report.lu_count == len(report.records)
        assert report.fb_count == 2 * report.lu_count
        assert report.res_count >= report.lu_count

    def test_frozen_counters(self, run):
        _, (qoi, primal, dual, report) = run
        assert (len(qoi), len(primal), len(dual)) == (60, 57, 57)
        assert (report.lu_count, report.fb_count, report.res_count) == (57, 114, 59)

    def test_accepts_reuse_the_scoring_assembly(self):
        class Counting(LadderModel):
            assemblies = 0

            def assemble(self, y):
                self.assemblies += 1
                return super().assemble(y)

        model = Counting(1, sections=8, damping=0.1, with_frequency=True)
        dists = [uniform(lo, hi) for lo, hi in model.support()]
        cfg = AdaptiveConfig(budget=60, indicator=ADJOINT)
        *_, report = run_adaptive_adjoint(model, cfg, dists)
        # only the root is assembled at acceptance; every other index is
        # assembled once, when it is scored
        assert model.assemblies == report.res_count + 1

    def test_primal_dual_share_indices(self, run):
        _, (qoi, primal, dual, report) = run
        assert list(primal.indices) == list(dual.indices)
        assert set(primal.indices) <= set(qoi.indices)

    def test_correction_beats_plain_surrogate(self, run):
        model, (qoi, primal, dual, report) = run
        rng_f = np.random.default_rng(11).uniform(0.5, 1.5, 40)
        rng_t = np.random.default_rng(12).uniform(-1, 1, 40)
        pts = np.column_stack([rng_f, rng_t])
        plain = qoi.restrict(list(primal.indices))
        plain_err = max(abs(complex(plain.evaluate(p)) - model.qoi(p))
                        for p in pts)
        corrected = corrected_evaluate(qoi, primal, dual, model, pts)
        corr_err = max(abs(corrected[k] - model.qoi(pts[k]))
                       for k in range(len(pts)))
        assert corr_err < plain_err / 3.0
        assert corr_err < 0.05

    def test_correction_vanishes_at_grid_nodes(self, run):
        model, (qoi, primal, dual, report) = run
        node = qoi.node_point(report.records[3].index)
        value = corrected_evaluate(qoi, primal, dual, model, node)
        assert abs(value - model.qoi(node)) < 1e-12

    def test_single_point_matches_batch(self, run):
        model, (qoi, primal, dual, report) = run
        point = np.array([1.1, 0.3])
        single = corrected_evaluate(qoi, primal, dual, model, point)
        batch = corrected_evaluate(qoi, primal, dual, model, point[None, :])
        assert isinstance(single, complex)
        assert_allclose(abs(single - batch[0]), 0.0, atol=1e-15)

    def test_mismatched_primal_dual_sets(self, run):
        model, (qoi, primal, dual, report) = run
        root_only = dual.restrict([(0, 0)])
        with pytest.raises(ContractError):
            corrected_evaluate(qoi, primal, root_only, model,
                               np.array([1.0, 0.0]))

    def test_adjoint_config_required(self, run):
        model, _ = run
        dists = [uniform(lo, hi) for lo, hi in model.support()]
        with pytest.raises(ContractError):
            run_adaptive_adjoint(model, AdaptiveConfig(budget=5), dists)

    def test_non_finite_indicator_names_index_and_point(self):
        class HoledLadder(LadderModel):
            def assemble(self, y):
                A, f, j, offset = super().assemble(y)
                return A, (f * np.nan if y[0] < -0.5 else f), j, offset

        model = HoledLadder(2, sections=8, damping=0.1)
        cfg = AdaptiveConfig(budget=10, indicator=ADJOINT)
        with pytest.raises(SolveError, match=r"non-finite residual indicator .* "
                                             r"index \(1, 0\) at point \(-1\.0, 0\.0\)"):
            run_adaptive_adjoint(model, cfg, UNIT_SQUARE)

    def test_black_box_model_rejected(self):
        with pytest.raises(ContractError):
            run_adaptive_adjoint(
                runge2, AdaptiveConfig(budget=5, indicator=ADJOINT),
                UNIT_SQUARE)

    def test_dimension_mismatch_rejected(self, run):
        model, _ = run
        three = [uniform(-1, 1)] * 3
        with pytest.raises(ContractError):
            run_adaptive_adjoint(
                model, AdaptiveConfig(budget=5, indicator=ADJOINT), three)
