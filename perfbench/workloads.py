"""The benchmark workloads.

Each workload is a closed loop with one caller: a repetition issues its
operations one after another, and the worker repeats it until the run
length is used up.  The constructor is the set-up (timed as
``setup_s``); ``references`` computes expected outputs outside any
timed region; ``rep`` runs and checks one repetition.

Every operation counts as attempted; it counts as failed when it raises,
exits non-zero or fails its output check.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
import traceback

import numpy as np

import adaleja as al
from adaleja import adaptive
from adaleja.surrogate import Surrogate

HERE = os.path.dirname(os.path.abspath(__file__))

# Budgets and sample counts, scaled down from the full-size cases (budget
# 1000) so that one repetition fits many times into a 50 s run on two
# cores.  Every adaptive build at full scale still accepts at least
# MIN_STEPS indices.
SIZES = {
    "full": {
        "blackbox": dict(dim=5, budget=300, n_cv=1000, eval_repeats=5, leja=40,
                         n_holdout=20_000),
        "cli-study": dict(sections=40, budget=200, n_cv=1000, n_samples=100_000,
                          n_base=10_000, sweep=[50, 100, 200], p_max=8, n_eps=10),
    },
    "tiny": {
        "blackbox": dict(dim=3, budget=30, n_cv=200, eval_repeats=2, leja=10,
                         n_holdout=500),
        "cli-study": dict(sections=10, budget=20, n_cv=100, n_samples=1000,
                          n_base=100, sweep=[5, 10], p_max=3, n_eps=3),
    },
}
MIN_STEPS = {"full": 100, "tiny": 1}

# The black box's steepness values, evenly spaced over this range and
# assigned to the dimensions in a seeded order, so every seed builds a
# different surrogate at the same cost.
STEEPNESS = (5.0, 15.0)
SAUSAGE_ORDER = 9
ALPHA = 0.5
NODE_TOL = 1e-8


def stream(seed, tag):
    """Integer seed for one input stream, derived from the run seed."""
    return int(np.random.SeedSequence([seed, tag]).generate_state(1)[0])


class ProductRunge:
    """The black box: prod_k 1 / (1 + c_k y_k^2)."""

    def __init__(self, c):
        self.c = np.asarray(c, dtype=float)

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return float(np.prod(1.0 / (1.0 + self.c * y * y)))


def steepness(seed, dim):
    rng = np.random.default_rng(stream(seed, 1))
    return rng.permutation(np.linspace(*STEEPNESS, dim))


def load_refs():
    with open(os.path.join(HERE, "refs.json")) as fh:
        return json.load(fh)


def sequence_digest(indices):
    text = ";".join(",".join(str(int(c)) for c in ix) for ix in indices)
    return hashlib.sha256(text.encode()).hexdigest()


class Record:
    """Samples and outcome counts of one run."""

    def __init__(self):
        self.samples: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        # A traced run swaps in its tracer's ``paused`` so checks go unrecorded.
        self.unrecorded = contextlib.nullcontext

    def add(self, key, *values):
        self.samples.setdefault(key, []).extend(values)

    def add_steps(self, step_ms):
        """One repetition's step times: their count, median and 90th percentile."""
        self.add("steps", len(step_ms))
        self.add("step_ms.p50", float(np.percentile(step_ms, 50)))
        self.add("step_ms.p90", float(np.percentile(step_ms, 90)))

    def outcome(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)

    def crashed(self, what, n_ops):
        self.attempted += n_ops
        self.failed += n_ops
        self.errors.append(f"{what}: {traceback.format_exc(limit=3)}")


def _forward(ix):
    return [ix[:k] + (ix[k] + 1,) + ix[k + 1:] for k in range(len(ix))]


def _downward_closed(indices):
    members = set(indices)
    return all(ix[:k] + (ix[k] - 1,) + ix[k + 1:] in members
               for ix in members for k in range(len(ix)) if ix[k])


def reference_accepted(model, dists, maps, budget):
    """Accepted index order of the surplus-steered greedy loop.

    An independent implementation of the driver's rule (largest surplus
    modulus, smallest index on ties, stop once refined plus pending
    reaches the budget), keeping the admissible frontier incrementally.
    """
    sur = Surrogate(dists, maps)
    root = (0,) * len(dists)
    sur.add_point(root, complex(model(sur.node_point(root))))
    members, accepted = {root}, [root]
    frontier, pending, values = set(_forward(root)), {}, {}
    while True:
        for ix in frontier.difference(pending):
            values[ix] = complex(model(sur.node_point(ix)))
            pending[ix] = values[ix] - sur.predict_node(ix)
        best = min(pending, key=lambda ix: (-abs(pending[ix]), ix))
        if len(members) + len(pending) >= budget:
            return accepted
        del pending[best]
        sur.add_point(best, values[best])
        members.add(best)
        accepted.append(best)
        frontier.discard(best)
        for f in _forward(best):
            if all(f[:k] + (f[k] - 1,) + f[k + 1:] in members
                   for k in range(len(f)) if f[k]):
                frontier.add(f)


def _steps_ms(stamps):
    return list(np.diff(np.asarray(stamps)) * 1e3)


class Blackbox:
    """Surplus-steered build of a 5-D product-Runge black box, then CV."""

    name = "blackbox"

    def __init__(self, scale, seed):
        p = self.p = SIZES[scale][self.name]
        self.scale, self.seed = scale, seed
        self.dists = [al.uniform(-1.0, 1.0)] * p["dim"]
        self.maps = [al.SausageMap(SAUSAGE_ORDER)] * p["dim"]
        self.model = ProductRunge(steepness(seed, p["dim"]))
        al.leja_nodes(self.dists[0], p["leja"])
        self.cv_points = al.sample_joint(self.dists, p["n_cv"], stream(seed, 2))
        self.config = al.AdaptiveConfig(budget=p["budget"])
        self.ops_per_rep = 1 + p["eval_repeats"]

    def references(self):
        # cv_l1 is measured once, on a held-out set large enough that the
        # seed's draw moves it by about 1%; every repetition builds the
        # same surrogate (the accepted order is checked).
        self.holdout = al.sample_joint(self.dists, self.p["n_holdout"], stream(self.seed, 4))
        self.holdout_ref = np.array([self.model(x) for x in self.holdout])
        self.cv_l1 = None
        shipped = load_refs()["blackbox"] if self.scale == "full" else {}
        digest = shipped.get(str(self.seed))
        if digest is None:
            digest = sequence_digest(reference_accepted(
                self.model, self.dists, self.maps, self.p["budget"]))
        self.accepted_digest = digest

    def rep(self, rec, model):
        stamps = []
        t0 = time.perf_counter()
        sur, report = adaptive.run_adaptive(
            model, self.config, self.dists, self.maps,
            on_accept=lambda s, r: stamps.append(time.perf_counter()))
        build = time.perf_counter() - t0
        evals, values = [], []
        for _ in range(self.p["eval_repeats"]):
            t = time.perf_counter()
            values.append(sur.evaluate(self.cv_points))
            evals.append(time.perf_counter() - t)
        wall = time.perf_counter() - t0

        with rec.unrecorded():
            nodes = sur.node_points()
            node_err = np.max(np.abs(sur.evaluate(nodes)
                                     - [self.model(x) for x in nodes]))
            if self.cv_l1 is None:
                # In CV-sized chunks, so that the check sets neither the
                # worker's peak memory nor the allocator's state.
                approx = np.concatenate([
                    sur.evaluate(chunk) for chunk in
                    np.array_split(self.holdout, len(self.holdout) // self.p["n_cv"])])
                self.cv_l1 = float(np.mean(np.abs(approx - self.holdout_ref)))
        rec.outcome(
            sequence_digest(report.accepted) == self.accepted_digest
            and node_err <= NODE_TOL
            and _downward_closed(sur.indices)
            and len(report.records) >= MIN_STEPS[self.scale],
            f"build: digest/node error {node_err:.3e}/closure/steps "
            f"{len(report.records)}")
        for v in values:
            rec.outcome(np.array_equal(v, values[0]) and np.all(np.isfinite(v)),
                        "cv evaluate: not finite or not repeatable")
        rec.add("wall", wall)
        rec.add("build", build)
        rec.add_steps(_steps_ms(stamps))
        rec.add("eval_rate", *(len(self.cv_points) / t for t in evals))
        rec.add("model_calls", report.lu_count)
        rec.add("cv_l1", self.cv_l1)
        return wall, {"adaptive.steps": len(report.records),
                      "adaptive.scored": report.lu_count - 1,
                      "adaptive.lu_count": report.lu_count,
                      "adaptive.fb_count": report.fb_count}


class CliStudy:
    """The README study through ``adaleja.cli.run_command`` in a fresh process."""

    name = "cli-study"
    ops_per_rep = 7

    def __init__(self, scale, seed):
        p = self.p = SIZES[scale][self.name]
        self.scale = scale
        self.work = os.path.join(HERE, "out", f"cli-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        uniform = {"kind": "uniform", "lower": -1.0, "upper": 1.0}
        base = {"model": {"model": "ladder", "sections": p["sections"],
                          "damping": 0.02, "n_params": 2},
                "distributions": [uniform, uniform], "seed": seed}
        mapped = dict(base, maps={"map": "sausage", "order": SAUSAGE_ORDER},
                      algorithm="adaptive", cv={"n": p["n_cv"], "seed": seed})
        configs = {
            "build": dict(mapped, budget=p["budget"]),
            "post": {"surrogate": "out/build/surrogate.json", "alpha": ALPHA,
                     "n_samples": p["n_samples"], "n_base": p["n_base"],
                     "seed": seed},
            "converge": dict(mapped, sweep=p["sweep"]),
            "gpc": dict(base, algorithm="gpc", p_max=p["p_max"],
                        quadrature="smolyak"),
            "gain": {"gain": {"map": {"map": "sausage", "order": SAUSAGE_ORDER},
                              "epsilons": {"lo": 0.1, "hi": 1.0,
                                           "count": p["n_eps"]}},
                     "seed": seed},
        }
        for name, cfg in configs.items():
            with open(os.path.join(self.work, name + ".json"), "w") as fh:
                json.dump(cfg, fh)
        self.digests = None
        # Set by a traced run: each pass then traces itself into this file.
        self.spans_path = None
        self.child_traces = []

    def references(self):
        pass

    def rep(self, rec, model):
        out = os.path.join(self.work, "out")
        shutil.rmtree(out, ignore_errors=True)
        cmd = [sys.executable, os.path.join(HERE, "cli_worker.py"), self.work]
        if self.spans_path:
            cmd.append(self.spans_path)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            rec.attempted += self.ops_per_rep
            rec.failed += self.ops_per_rep
            rec.errors.append(f"cli worker exited {proc.returncode}: "
                              f"{proc.stderr[-2000:]}")
            return wall, {}
        result = json.loads(proc.stdout.splitlines()[-1])
        digests = {}
        for name, rc, seconds in result["commands"]:
            folder = os.path.join(out, name)
            digests[name] = _tree_digest(folder)
            same = self.digests is None or self.digests[name] == digests[name]
            rec.outcome(rc == 0 and same,
                        f"{name}: exit {rc}, artifacts identical {same}")
        if self.digests is None:
            self.digests = digests
        times = {name: s for name, _, s in result["commands"]}
        p = self.p
        points = 2 * p["n_samples"] + 6 * p["n_base"] + p["n_samples"]
        with open(os.path.join(out, "build", "report.csv")) as fh:
            last = fh.read().strip().splitlines()[-1].split(",")
        (build_report,) = result["reports"]["build"]
        rec.add("wall", wall)
        rec.add("build", times["build"])
        # Every surplus-steered build of the pass: build and the converge sweep.
        builds = [r for runs in result["reports"].values() for r in runs]
        rec.add_steps([ms for r in builds for ms in r["step_ms"]])
        rec.add("eval_rate", points / (times["stats"] + times["sobol"] + times["kde"]))
        rec.add("model_calls", build_report["lu_count"])
        rec.add("cv_l1", float(last[6]))
        if self.spans_path:
            with open(self.spans_path) as fh:
                self.child_traces.append(json.load(fh))
        counts = {}
        for r in builds:
            for key, value in (("steps", r["steps"]), ("scored", r["lu_count"] - 1),
                               ("lu_count", r["lu_count"]), ("fb_count", r["fb_count"])):
                counts["adaptive." + key] = counts.get("adaptive." + key, 0) + value
        return wall, counts

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)


def _tree_digest(folder):
    h = hashlib.sha256()
    if os.path.isdir(folder):
        for name in sorted(os.listdir(folder)):
            h.update(name.encode())
            with open(os.path.join(folder, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


WORKLOADS = {w.name: w for w in (Blackbox, CliStudy)}
