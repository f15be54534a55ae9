"""Span tracer for the traced benchmark run.

Wrappers are installed from the benchmark's side around the public
entry points of each adaleja module; the library itself is untouched.
A span is ``[name, start, end, parent]`` with ``parent`` the index of
the enclosing span (-1 at the top).  Spans live in memory and are
summarised or written out when the run ends.

Names that a caller imported directly (``adaptive`` imports
``factorize``/``substitute``, ``surrogate`` imports ``leja_nodes``, the
CLI imports most entry points) are replaced in every namespace that
looks them up, so a call is traced whichever module makes it.
"""
from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.enabled = True

    @contextmanager
    def paused(self):
        """Run checks that belong to no repetition without recording them."""
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = True

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name, fn, count=None):
        """Traced version of ``fn``; ``count(counts, args, result)`` adds counters."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            with self.span(name):
                out = fn(*args, **kwargs)
            if count is not None:
                count(self.counts, args, out)
            return out
        return traced


def _add(key, size):
    def count(counts, args, out):
        counts[key] += size(args, out)
    return count


def _eval_count(counts, args, out):
    sur, points = args[0], args[1]
    n_points = 1 if getattr(points, "ndim", 2) == 1 else len(points)
    width = 1
    for s in sur.value_shape or ():
        width *= s
    counts["surrogate.evaluate_points"] += n_points
    counts["surrogate.eval_terms"] += n_points * len(sur) * width


def _factorize_count(counts, args, out):
    n = args[0].shape[0]
    counts["linmodel.lu_flops"] += 8.0 / 3.0 * n ** 3


def _size(arg):
    return lambda args, out: getattr(args[arg], "size", 1)


def install(tracer: Tracer):
    """Wrap the library's public entry points, process-wide."""
    import adaleja
    from adaleja import (adaptive, cli, distributions, gpc, grid, leja,
                         linmodel, maps, stats, surrogate)

    def patch(name, fn, homes, count=None):
        traced = tracer.wrap(name, fn, count)
        for home in homes:
            if getattr(home, fn.__name__, None) is fn:
                setattr(home, fn.__name__, traced)

    def patch_method(name, cls, attr, count=None):
        setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr], count))

    everywhere = (adaleja, adaptive, cli, gpc, stats, surrogate, leja, linmodel)
    patch("adaptive.run_adaptive", adaptive.run_adaptive, everywhere)

    patch_method("grid.frontier", grid.MultiIndexSet, "admissible_neighbors",
                 _add("grid.frontier_returned", lambda a, out: len(out)))

    S = surrogate.Surrogate
    patch_method("surrogate.predict", S, "predict_node")
    patch_method("surrogate.add", S, "add_point")
    patch_method("surrogate.add_restricted", S, "add_restricted")
    patch_method("surrogate.node_point", S, "node_point")
    patch_method("surrogate.evaluate", S, "evaluate", _eval_count)
    patch_method("surrogate.restrict", S, "restrict")
    patch("surrogate.serialize", surrogate.serialize, everywhere,
          _add("surrogate.json_bytes", lambda a, out: len(out)))
    patch("surrogate.deserialize", surrogate.deserialize, everywhere)

    patch("leja.nodes", leja.leja_nodes, everywhere)
    patch_method("leja.next_node", leja.LejaSequence, "next_node")

    for cls in (maps.ConformalMap, maps.IdentityMap):
        patch_method("maps.inverse", cls, "inverse",
                     _add("maps.inverse_points", _size(1)))
        patch_method("maps.gain", cls, "estimate_gain")
    patch_method("maps.forward", maps.ConformalMap, "forward")

    patch_method("distributions.sample", distributions.Distribution, "sample",
                 _add("distributions.samples", lambda a, out: len(out)))

    patch_method("model", linmodel.ParametricLinearModel, "__call__")
    patch_method("linmodel.assemble", linmodel.LadderModel, "assemble")
    patch("linmodel.factorize", linmodel.factorize, everywhere, _factorize_count)
    patch("linmodel.substitute", linmodel.substitute, everywhere)

    for fn in (stats.mc_moments, stats.failure_probability,
               stats.sobol_indices):
        patch("stats." + fn.__name__, fn, everywhere)
    patch("stats.kde_pdf", stats.kde_pdf, everywhere,
          _add("stats.kde_pairs", lambda a, out: np.size(a[0]) * np.size(a[2])))
    patch("gpc.project", gpc.project, everywhere)


# -- summaries ---------------------------------------------------------------

def self_times(spans):
    """Per span index: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(s[2] - s[1]) - c for s, c in zip(spans, child)], child


def by_name(spans):
    """name -> [calls, total seconds, self seconds]."""
    own, _ = self_times(spans)
    out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for s, self_s in zip(spans, own):
        row = out[s[0]]
        row[0] += 1
        row[1] += s[2] - s[1]
        row[2] += self_s
    return out


def count_under(spans, name, ancestor):
    """Spans called ``name`` with a span called ``ancestor`` above them."""
    hits = 0
    for s in spans:
        if s[0] != name:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] != ancestor:
            p = spans[p][3]
        hits += p >= 0
    return hits


def coverage(spans):
    """Share of the top-level spans' time that their child spans cover."""
    _, child = self_times(spans)
    top = [i for i, s in enumerate(spans) if s[3] < 0]
    total = sum(spans[i][2] - spans[i][1] for i in top)
    return sum(child[i] for i in top) / total if total > 0 else 0.0


# Per-layer metrics of the traced run and their units.  Times and counts
# are per repetition of the workload; ratios and rates are over the run.
LAYER_UNITS = {
    "adaptive.self_s": "s", "adaptive.steps": "count",
    "adaptive.scored": "count", "adaptive.lu_count": "count",
    "adaptive.fb_count": "count",
    "grid.frontier_s": "s", "grid.frontier_calls": "count",
    "grid.frontier_returned": "count", "grid.frontier_new_ratio": "ratio",
    "surrogate.predict_s": "s", "surrogate.predict_calls": "count",
    "surrogate.add_s": "s", "surrogate.add_calls": "count",
    "surrogate.node_point_s": "s",
    "surrogate.evaluate_s": "s", "surrogate.evaluate_points": "count",
    "surrogate.eval_terms": "count", "surrogate.eval_terms_per_s": "1/s",
    "surrogate.serialize_s": "s",
    "surrogate.deserialize_s": "s", "surrogate.json_bytes": "bytes",
    "leja.nodes_s": "s", "leja.nodes_generated": "count",
    "leja.cold_s.uniform": "s", "leja.cold_s.beta33": "s",
    "maps.inverse_s": "s", "maps.inverse_points": "count",
    "maps.forward_s": "s", "maps.forward_calls": "count", "maps.gain_s": "s",
    "distributions.sample_s": "s", "distributions.samples": "count",
    "linmodel.assemble_s": "s", "linmodel.assemble_calls": "count",
    "linmodel.factorize_s": "s", "linmodel.factorize_calls": "count",
    "linmodel.lu_gflops": "GFLOP/s", "linmodel.substitute_s": "s",
    "linmodel.substitute_calls": "count",
    "model.calls": "count", "model.s": "s", "model.share": "ratio",
    "stats.moments_s": "s", "stats.failure_s": "s", "stats.sobol_s": "s",
    "stats.kde_s": "s", "stats.self_s": "s", "stats.kde_pairs_per_s": "1/s",
    "gpc.project_s": "s", "gpc.quad_evals": "count",
    "cli.build_s": "s", "cli.stats_s": "s", "cli.sobol_s": "s",
    "cli.kde_s": "s", "cli.converge_s": "s", "cli.gpc_build_s": "s",
    "cli.gain_s": "s", "cli.self_s": "s",
    "trace.overhead_ratio": "ratio", "trace.coverage": "ratio",
}


def layer_metrics(spans, counts, reps, fixed):
    """Per-layer metrics from the traced repetitions' spans and counters.

    ``fixed`` holds values measured outside the spans (cold Leja timings,
    CV error, trace overhead); they are reported as given.
    """
    rows = by_name(spans)

    def total(*names):
        return sum(rows[n][1] for n in names if n in rows)

    def calls(name):
        return rows[name][0] if name in rows else 0

    def own(prefix):
        return sum(r[2] for n, r in rows.items() if n.startswith(prefix))

    def rate(num, den):
        return num / den if den > 0 else 0.0

    build = "adaptive.run_adaptive"
    m = {
        "adaptive.self_s": rows[build][2] if build in rows else 0.0,
        "grid.frontier_s": total("grid.frontier"),
        "grid.frontier_calls": calls("grid.frontier"),
        "grid.frontier_returned": counts["grid.frontier_returned"],
        "surrogate.predict_s": total("surrogate.predict"),
        "surrogate.predict_calls": calls("surrogate.predict"),
        "surrogate.add_s": total("surrogate.add"),
        "surrogate.add_calls": calls("surrogate.add"),
        "surrogate.node_point_s": total("surrogate.node_point"),
        "surrogate.evaluate_s": total("surrogate.evaluate"),
        "surrogate.evaluate_points": counts["surrogate.evaluate_points"],
        "surrogate.eval_terms": counts["surrogate.eval_terms"],
        "surrogate.serialize_s": total("surrogate.serialize"),
        "surrogate.deserialize_s": total("surrogate.deserialize"),
        "surrogate.json_bytes": counts["surrogate.json_bytes"],
        "leja.nodes_s": total("leja.nodes"),
        "leja.nodes_generated": calls("leja.next_node"),
        "maps.inverse_s": total("maps.inverse"),
        "maps.inverse_points": counts["maps.inverse_points"],
        "maps.forward_s": total("maps.forward"),
        "maps.forward_calls": calls("maps.forward"),
        "maps.gain_s": total("maps.gain"),
        "distributions.sample_s": total("distributions.sample"),
        "distributions.samples": counts["distributions.samples"],
        "linmodel.assemble_s": total("linmodel.assemble"),
        "linmodel.assemble_calls": calls("linmodel.assemble"),
        "linmodel.factorize_s": total("linmodel.factorize"),
        "linmodel.factorize_calls": calls("linmodel.factorize"),
        "linmodel.substitute_s": total("linmodel.substitute"),
        "linmodel.substitute_calls": calls("linmodel.substitute"),
        "model.calls": calls("model"),
        "model.s": total("model"),
        "stats.moments_s": total("stats.mc_moments"),
        "stats.failure_s": total("stats.failure_probability"),
        "stats.sobol_s": total("stats.sobol_indices"),
        "stats.kde_s": total("stats.kde_pdf"),
        "stats.self_s": own("stats."),
        "gpc.project_s": total("gpc.project"),
        "gpc.quad_evals": count_under(spans, "model", "gpc.project"),
        "cli.self_s": own("cli."),
    }
    for key in ("steps", "scored", "lu_count", "fb_count"):
        m["adaptive." + key] = counts["adaptive." + key]
    for name in LAYER_UNITS:
        if name.startswith("cli.") and name != "cli.self_s":
            m[name] = total(name[:-2])
    out = {k: v / reps for k, v in m.items()}
    out["grid.frontier_new_ratio"] = rate(counts["adaptive.scored"],
                                          counts["grid.frontier_returned"])
    out["surrogate.eval_terms_per_s"] = rate(counts["surrogate.eval_terms"],
                                             total("surrogate.evaluate"))
    out["linmodel.lu_gflops"] = rate(counts["linmodel.lu_flops"] / 1e9,
                                     total("linmodel.factorize"))
    out["model.share"] = rate(total("model"), total(build))
    out["stats.kde_pairs_per_s"] = rate(counts["stats.kde_pairs"],
                                        total("stats.kde_pdf"))
    out["trace.coverage"] = coverage(spans)
    out.update(fixed)
    return out


def top_self(spans, reps, limit=12):
    """Largest self times per repetition: (name, calls, total s, self s)."""
    rows = sorted(by_name(spans).items(), key=lambda kv: -kv[1][2])[:limit]
    return [(n, r[0] / reps, r[1] / reps, r[2] / reps) for n, r in rows]


def merge(spans, extra):
    """Append another span list, shifting its parent indices."""
    offset = len(spans)
    spans.extend([n, a, b, p + offset if p >= 0 else -1] for n, a, b, p in extra)
