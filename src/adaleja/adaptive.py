"""Dimension-adaptive surrogate construction.

Two drivers share one greedy loop shape: absorb the root, score every
admissible neighbor, accept the candidate with the largest indicator,
repeat until the node budget is hit, then fold all still-pending
candidates into the final surrogate.

The surplus-steered driver treats the model as a black box and uses the
modulus of the hierarchical surplus as the indicator, which costs one
model evaluation per scored candidate.  The adjoint-steered driver works
on parametric linear systems: candidates are scored by the residual
error indicator, which needs only an assembly, and a full factorization
is spent solely on accepted indices, where one LU serves both the primal
and the dual solve.

A structural fact keeps the bookkeeping cheap: two admissible neighbors
of a downward-closed set are never componentwise comparable, so the
basis polynomial added by accepting one vanishes at every other pending
candidate's node.  Scored indicators therefore stay exact until their
index is accepted or the run ends, and each candidate is scored once.

Apart from the model work (model calls, or assemblies and solves), one
step costs the scoring of its new candidates (one interpolant evaluation
each, linear in the current set size), the sort of the admissible
frontier and a scan of the pending candidates; the index set and the
surrogate arrays grow in amortized constant time.  Nothing is rebuilt from
the whole index set.

A non-finite model value, surplus or residual indicator raises a solve
error naming the multi-index and its point, instead of stalling
refinement in that direction and folding NaN into the surrogate.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, SolveError
from .linmodel import ParametricLinearModel, factorize, substitute
from .surrogate import Surrogate

SURPLUS = "surplus"
ADJOINT = "adjoint"


@dataclass
class AdaptiveConfig:
    """Budget is the target node count of the refined index set.

    The loop stops once the refined set plus its pending candidates
    reaches the budget, so the model-call count never exceeds the budget
    by more than the final candidate layer.  ``tol`` adds an optional
    early exit when the largest indicator falls below it.
    """

    budget: int
    indicator: str = SURPLUS
    tol: float | None = None

    def __post_init__(self):
        self.budget = int(self.budget)
        if self.budget < 1:
            raise ContractError("budget must be at least 1")
        if self.indicator not in (SURPLUS, ADJOINT):
            raise ContractError(f"unknown indicator kind {self.indicator!r}")
        if self.tol is not None and self.tol < 0:
            raise ContractError("tolerance must be non-negative")


@dataclass
class IterationRecord:
    iteration: int
    index: tuple
    indicator: float
    lu_count: int
    fb_count: int
    res_count: int
    cv_error: float | None = None


@dataclass
class AdaptiveReport:
    """Cost accounting of one adaptive run.

    lu_count: assemble-and-factorize events (for black-box models, one
    per model evaluation).  fb_count: forward-backward substitutions.
    res_count: candidate scorings by residual assembly (adjoint driver
    only).  Records carry the cumulative counters per accepted index.
    """

    records: list[IterationRecord] = field(default_factory=list)
    lu_count: int = 0
    fb_count: int = 0
    res_count: int = 0

    @property
    def accepted(self):
        return [r.index for r in self.records]

    def record(self, index, indicator):
        self.records.append(IterationRecord(
            len(self.records), tuple(index), float(indicator),
            self.lu_count, self.fb_count, self.res_count))
        return self.records[-1]

    def to_csv(self, target=None):
        """Write records as CSV; returns the text when target is None."""
        buffer = target is None
        if buffer:
            target = io.StringIO()
        close = False
        if isinstance(target, (str, bytes)):
            target = open(target, "w", newline="")
            close = True
        try:
            writer = csv.writer(target, lineterminator="\n")
            writer.writerow(["iteration", "chosen_index", "indicator",
                             "lu_count", "fb_count", "res_count", "cv_error"])
            for r in self.records:
                writer.writerow([
                    r.iteration,
                    " ".join(str(c) for c in r.index),
                    f"{r.indicator:.17g}",
                    r.lu_count, r.fb_count, r.res_count,
                    "" if r.cv_error is None else f"{r.cv_error:.17g}"])
        finally:
            if close:
                target.close()
        return target.getvalue() if buffer else None


def _largest(pending):
    """Candidate with the largest indicator modulus, smallest lex on ties."""
    best_ix, best_val = None, -1.0
    for ix in sorted(pending):
        v = abs(pending[ix])
        if v > best_val:
            best_ix, best_val = ix, v
    return best_ix, best_val


def run_adaptive(model, config: AdaptiveConfig, distributions, maps=None,
                 on_accept=None):
    """Surplus-steered adaptive interpolation of a black-box model.

    Returns the final surrogate, built on the refined set plus all
    pending candidates, and the cost report.  ``on_accept(sur, record)``
    is invoked after every accepted index, for convergence tracking.
    """
    if config.indicator != SURPLUS:
        raise ContractError("run_adaptive drives the surplus indicator")
    sur = Surrogate(distributions, maps)
    report = AdaptiveReport()
    values: dict[tuple, complex] = {}

    def model_value(ix):
        if ix not in values:
            x = sur.node_point(ix)
            try:
                values[ix] = complex(model(x))
            except SolveError:
                raise
            except Exception as exc:
                raise SolveError(
                    f"model evaluation failed at index {ix}, "
                    f"point {x.tolist()}: {exc}") from exc
            if not np.isfinite(values[ix]):
                raise SolveError(f"non-finite model value {values[ix]} at index {ix}",
                                 point=x.tolist())
            report.lu_count += 1
            report.fb_count += 1
        return values[ix]

    def surplus(ix):
        s = model_value(ix) - sur.predict_node(ix)
        if not np.isfinite(s):
            raise SolveError(f"non-finite surplus {s} at index {ix}",
                             point=sur.node_point(ix).tolist())
        return s

    root = (0,) * sur.n_dim
    sur.add_point(root, model_value(root))
    rec = report.record(root, abs(sur.surplus(root)))
    if on_accept is not None:
        on_accept(sur, rec)

    pending: dict[tuple, complex] = {}
    while True:
        for ix in sur.index_set.admissible_neighbors():
            if ix not in pending:
                pending[ix] = surplus(ix)
        best_ix, best_val = _largest(pending)
        if config.tol is not None and best_val < config.tol:
            break
        if len(sur) + len(pending) >= config.budget:
            break
        del pending[best_ix]
        sur.add_point(best_ix, values[best_ix])
        rec = report.record(best_ix, best_val)
        if on_accept is not None:
            on_accept(sur, rec)
    for ix in sorted(pending):
        sur.add_point(ix, values[ix])
    return sur, report


def run_adaptive_adjoint(model: ParametricLinearModel, config: AdaptiveConfig,
                         distributions, maps=None, on_accept=None):
    """Adjoint-steered adaptive interpolation of a parametric system.

    Returns (qoi, primal, dual, report).  The primal and dual vector
    surrogates live on the refined index set; the QoI surrogate is
    extended by the pending candidates using their indicator values as
    surplus estimates.
    """
    if config.indicator != ADJOINT:
        raise ContractError("run_adaptive_adjoint drives the adjoint indicator")
    if not isinstance(model, ParametricLinearModel):
        raise ContractError("the adjoint driver needs a ParametricLinearModel")
    qoi = Surrogate(distributions, maps)
    primal = Surrogate(distributions, maps)
    dual = Surrogate(distributions, maps)
    if qoi.n_dim != model.n_params:
        raise ContractError(
            f"model has {model.n_params} parameters, got {qoi.n_dim} distributions")
    report = AdaptiveReport()
    assemblies: dict[tuple, tuple] = {}

    def accept(ix):
        x = qoi.node_point(ix)
        if ix in assemblies:
            A, f, j, offset = assemblies.pop(ix)
        else:
            A, f, j, offset = model.assemble(x)
        factors = factorize(A, x)
        report.lu_count += 1
        c = substitute(factors, A, f, x)
        z = substitute(factors, A, j, x, adjoint=True)
        report.fb_count += 2
        qoi.add_point(ix, np.vdot(j, c) + offset)
        primal.add_point(ix, c)
        dual.add_point(ix, z)

    root = (0,) * qoi.n_dim
    accept(root)
    rec = report.record(root, abs(qoi.surplus(root)))
    if on_accept is not None:
        on_accept(qoi, rec)

    pending: dict[tuple, complex] = {}
    while True:
        for ix in qoi.index_set.admissible_neighbors():
            if ix not in pending:
                x = qoi.node_point(ix)
                A, f, j, offset = model.assemble(x)
                assemblies[ix] = (A, f, j, offset)
                report.res_count += 1
                resid = f - A @ primal.predict_node(ix)
                pending[ix] = complex(np.vdot(dual.predict_node(ix), resid))
                if not np.isfinite(pending[ix]):
                    raise SolveError(
                        f"non-finite residual indicator {pending[ix]} at index {ix}",
                        point=x.tolist())
        best_ix, best_val = _largest(pending)
        if config.tol is not None and best_val < config.tol:
            break
        if len(qoi) + len(pending) >= config.budget:
            break
        del pending[best_ix]
        accept(best_ix)
        rec = report.record(best_ix, best_val)
        if on_accept is not None:
            on_accept(qoi, rec)
    for ix in sorted(pending):
        qoi.add_restricted(ix, pending[ix])
    return qoi, primal, dual, report


def corrected_evaluate(qoi_sur: Surrogate, primal_sur: Surrogate,
                       dual_sur: Surrogate, model: ParametricLinearModel,
                       points):
    """Surrogate value plus the residual error indicator, per point.

    The quantity-of-interest surrogate is restricted to the index set the
    primal and dual surrogates share, so an indicator-extended surrogate
    is never double-corrected.  Each point costs one assembly and two
    surrogate evaluations; no system is solved.
    """
    core_set = primal_sur.indices
    if dual_sur.indices != core_set:
        raise ContractError("primal and dual surrogates must share an index set")
    if qoi_sur.indices == core_set:
        core = qoi_sur
    else:
        core = qoi_sur.restrict(core_set)
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    base = np.atleast_1d(core.evaluate(pts))
    c_tilde = primal_sur.evaluate(pts)
    z_tilde = dual_sur.evaluate(pts)
    out = np.empty(pts.shape[0], dtype=complex)
    for p in range(pts.shape[0]):
        A, f, _, _ = model.assemble(pts[p])
        out[p] = base[p] + np.vdot(z_tilde[p], f - A @ c_tilde[p])
    return complex(out[0]) if single else out
