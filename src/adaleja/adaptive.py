"""Dimension-adaptive surrogate construction.

Both drivers run one greedy loop, ``_refine``, after the active/old
index sets of Gerstner & Griebel 2003: absorb the root, score each new
admissible neighbor once, accept the candidate with the largest
indicator modulus (smallest index on ties), stop at the node budget or
below ``tol``, then fold the still-pending candidates into the surrogate.
The drivers differ only in the closures they pass it:

* surplus (black boxes): a candidate costs one checked model call, and
  its indicator is the hierarchical surplus; pending candidates are
  folded in with their model values.
* adjoint (parametric linear systems): a candidate costs one assembly,
  and its indicator is the residual z̃ᴴ(f − A c̃); an accepted index
  reuses that assembly for one LU serving the primal and the dual solve,
  and pending candidates are folded in with their indicators as surpluses.

Two admissible neighbors of a downward-closed set are never
componentwise comparable, so the basis polynomial an acceptance adds
vanishes at every other pending node: scored indicators stay exact until
their index is accepted or the run ends.  The loop keeps the frontier
as a heap of the pending candidates and scores only the forward
neighbors an acceptance makes admissible, so apart from model work a
step costs one interpolant evaluation per new candidate and a heap
update; nothing is rebuilt from the whole index set.  A non-finite
model value, surplus or residual indicator raises a solve error naming
the index and its point.

The module writes no files: ``AdaptiveReport.to_csv`` returns its CSV
text, and writes it only to a path or handle its caller passes.
"""
from __future__ import annotations

import csv
import heapq
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, SolveError, _count, _number
from .linmodel import (ParametricLinearModel, _residual_indicator,
                       _solve_assembled, solve_dual)
from .surrogate import Surrogate, _model_value, _point_batch

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
        self.budget = _count(self.budget, "budget", 1)
        if self.indicator not in (SURPLUS, ADJOINT):
            raise ContractError(f"unknown indicator kind {self.indicator!r}")
        if self.tol is not None:
            self.tol = _number(self.tol, "tol", ge=0)


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
        """The records as CSV text, or written to a path or text handle."""
        text = _csv_text(["iteration", "chosen_index", "indicator", "lu_count",
                          "fb_count", "res_count", "cv_error"],
                         [(r.iteration, " ".join(str(c) for c in r.index),
                           r.indicator, r.lu_count, r.fb_count, r.res_count,
                           r.cv_error) for r in self.records])
        if target is None:
            return text
        if isinstance(target, (str, bytes)):
            with open(target, "w", newline="") as handle:
                handle.write(text)
        else:
            target.write(text)


def _cell(value):
    """One CSV cell: blank for None, integers as such, floats to 17 digits."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _csv_text(header, rows):
    """CSV text of a header and rows of ``_cell`` values, lines ending in \\n."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(c) for c in row] for row in rows)
    return buffer.getvalue()


def _refine(sur, config, report, score, accept, fold, on_accept):
    """The greedy loop both drivers share; ``sur`` is the steered surrogate.

    ``accept(ix)`` absorbs an index, ``score(ix)`` returns the indicator of
    a new admissible candidate, and ``fold(ix, indicator)`` absorbs a
    candidate still pending when the loop stops.
    """
    root = (0,) * sur.n_dim
    accept(root)
    rec = report.record(root, abs(sur.surplus(root)))
    # (-modulus, index, indicator): largest modulus on top, smallest index on ties
    pending: list[tuple] = []
    while True:
        if on_accept is not None:  # the acceptance just recorded
            on_accept(sur, rec)
        # only the accepted index's forward neighbors can have become admissible
        for ix in sur.index_set._admissible_forward(rec.index):
            v = score(ix)
            heapq.heappush(pending, (-abs(v), ix, v))
        best_val = -pending[0][0]
        if config.tol is not None and best_val < config.tol:
            break
        if len(sur) + len(pending) >= config.budget:
            break
        best_ix = heapq.heappop(pending)[1]
        accept(best_ix)
        rec = report.record(best_ix, best_val)
    for ix, v in sorted((ix, v) for _, ix, v in pending):
        fold(ix, v)


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

    def call(ix):
        value = _model_value(model, sur.node_point(ix), f"index {ix}", scalar=True)
        report.lu_count += 1
        report.fb_count += 1
        return complex(value)

    def score(ix):
        values[ix] = call(ix)
        s = values[ix] - sur.predict_node(ix)
        if not np.isfinite(s):
            raise SolveError(f"non-finite surplus {s} at index {ix}",
                             point=sur.node_point(ix))
        return s

    def accept(ix):
        sur.add_point(ix, values.pop(ix) if ix in values else call(ix))

    _refine(sur, config, report, score, accept,
            lambda ix, _: sur.add_point(ix, values[ix]), on_accept)
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
    # kept from scoring to acceptance, so an accepted index is assembled once
    assemblies: dict[tuple, tuple] = {}

    def score(ix):
        x = qoi.node_point(ix)
        assemblies[ix] = model.assemble(x)
        A, f, _, _ = assemblies[ix]
        report.res_count += 1
        eta = _residual_indicator(A, f, primal.predict_node(ix),
                                  dual.predict_node(ix))
        if not np.isfinite(eta):
            raise SolveError(f"non-finite residual indicator {eta} at index {ix}",
                             point=x)
        return eta

    def accept(ix):
        x = qoi.node_point(ix)
        system = assemblies.pop(ix) if ix in assemblies else model.assemble(x)
        c, fac = _solve_assembled(system, x)
        z = solve_dual(model, x, fac)
        report.lu_count += 1
        report.fb_count += 2
        qoi.add_point(ix, np.vdot(fac.j, c) + fac.offset)
        primal.add_point(ix, c)
        dual.add_point(ix, z)

    _refine(qoi, config, report, score, accept, qoi.add_restricted, on_accept)
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
    pts, single = _point_batch(points, core.n_dim)
    base = core.evaluate(pts)
    c_tilde = primal_sur.evaluate(pts)
    z_tilde = dual_sur.evaluate(pts)
    out = np.empty(pts.shape[0], dtype=complex)
    for p in range(pts.shape[0]):
        A, f, _, _ = model.assemble(pts[p])
        out[p] = base[p] + _residual_indicator(A, f, c_tilde[p], z_tilde[p])
    return complex(out[0]) if single else out
