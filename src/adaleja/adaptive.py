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
  and its indicator is the residual z̃ᴴ(f − A c̃) of one field surrogate
  of pairs (c̃, z̃); an accepted index reuses that assembly for one LU
  serving the primal and the dual solve, and pending candidates are folded
  in with their indicators as surpluses.

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

The module writes no files: ``AdaptiveReport.to_csv`` returns text.
"""
from __future__ import annotations

import csv
import heapq
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, SolveError, _count, _number
from .linmodel import (ParametricLinearModel, _residual_indicator,
                       _solve_assembled, _stacks, solve_dual)
from .surrogate import Surrogate, _model_value, _point_batch


@dataclass
class AdaptiveConfig:
    """Budget is the target node count of the refined index set.

    The loop stops once the refined set plus its pending candidates
    reaches the budget, so the model-call count never exceeds the budget
    by more than the final candidate layer.  ``tol`` adds an optional
    early exit when the largest indicator falls below it; the driver
    called decides which indicator that is.
    """

    budget: int
    tol: float | None = None

    def __post_init__(self):
        self.budget = _count(self.budget, "budget", 1)
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

    def to_csv(self):
        """The records as CSV text."""
        return _csv_text(["iteration", "chosen_index", "indicator", "lu_count",
                          "fb_count", "res_count", "cv_error"],
                         [(r.iteration, " ".join(str(c) for c in r.index),
                           r.indicator, r.lu_count, r.fb_count, r.res_count,
                           r.cv_error) for r in self.records])


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
    rec = report.record(root, abs(complex(sur._surplus_values()[0])))
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
    sur = Surrogate(distributions, maps)
    report = AdaptiveReport()
    values: dict[tuple, complex] = {}

    def call(ix):
        value = _model_value(model, sur._node_point(ix), f"index {ix}", scalar=True)
        report.lu_count += 1
        report.fb_count += 1
        return complex(value)

    def score(ix):
        values[ix] = call(ix)
        s = values[ix] - complex(sur._node_value(ix))
        if not np.isfinite(s):
            raise SolveError(f"non-finite surplus {s} at index {ix}",
                             point=sur._node_point(ix))
        return s

    def accept(ix):
        sur._add(ix, values.pop(ix) if ix in values else call(ix))

    _refine(sur, config, report, score, accept,
            lambda ix, _: sur._add(ix, values[ix]), on_accept)
    return sur, report


def run_adaptive_adjoint(model: ParametricLinearModel, config: AdaptiveConfig,
                         distributions, maps=None, on_accept=None):
    """Adjoint-steered adaptive interpolation of a parametric system.

    Returns (qoi, field, report).  The field surrogate, whose value at a
    node is the primal–dual pair (c, z) of shape (2, model.n), lives on the
    refined index set; the QoI surrogate is extended by the pending
    candidates using their indicator values as surplus estimates.
    """
    if not isinstance(model, ParametricLinearModel):
        raise ContractError("the adjoint driver needs a ParametricLinearModel")
    qoi = Surrogate(distributions, maps)
    # an empty copy on the same laws and maps
    field = qoi.restrict([])
    if qoi.n_dim != model.n_params:
        raise ContractError(
            f"model has {model.n_params} parameters, got {qoi.n_dim} distributions")
    report = AdaptiveReport()
    # kept from scoring to acceptance, so an accepted index is assembled once
    assemblies: dict[tuple, tuple] = {}

    def score(ix):
        x = qoi._node_point(ix)
        A, f, _, _ = assemblies[ix] = model.assemble(x)
        report.res_count += 1
        eta = _residual_indicator(A, f, *field._node_value(ix))
        if not np.isfinite(eta):
            raise SolveError(f"non-finite residual indicator {eta} at index {ix}",
                             point=x)
        return eta

    def accept(ix):
        x = qoi._node_point(ix)
        c, fac = _solve_assembled(assemblies.pop(ix, None) or model.assemble(x), x)
        report.lu_count += 1
        report.fb_count += 2
        qoi._add(ix, np.vdot(fac.j, c) + fac.offset)
        field._add(ix, (c, solve_dual(model, x, fac)))

    _refine(qoi, config, report, score, accept,
            lambda ix, v: qoi._append(ix, qoi._as_value(v)), on_accept)
    return qoi, field, report


def corrected_evaluate(qoi_sur: Surrogate, field_sur: Surrogate,
                       model: ParametricLinearModel, points):
    """Surrogate value plus the residual error indicator, per point.

    The quantity-of-interest surrogate is restricted to the index set of
    the (c̃, z̃) field, value shape (2, model.n), so an indicator-extended
    surrogate is never double-corrected.  Points are assembled as stacked
    bands, one ``gbmv`` per stack giving A c̃; each point costs one map
    inversion, which surrogates with equal maps share; no system is solved.
    """
    if field_sur.value_shape not in (None, (2, model.n)):
        raise ContractError(f"field values have shape {field_sur.value_shape}, "
                            f"expected the pair shape {(2, model.n)}")
    core = qoi_sur.restrict(field_sur.indices)
    pts, single = _point_batch(points, core.n_dim)
    S, frame = core._preimages(pts), (core.distributions, core.maps)
    base, cz = (
        s._evaluate_pre(S if (s.distributions, s.maps) == frame else s._preimages(pts))
        for s in (core, field_sur))
    out = np.empty(pts.shape[0], dtype=complex)
    for rows in _stacks(model, pts.shape[0]):
        A, f, _, _ = model._assemble_stack(pts[rows])
        out[rows] = base[rows] + _residual_indicator(A, f, cz[rows, 0], cz[rows, 1])
    return complex(out[0]) if single else out
