"""Benchmark worker: set up one workload, then time its repetitions.

Started by run.py in a fresh interpreter whose environment already pins
the BLAS thread count, so the pin is in effect when numpy loads.

    worker.py WORKLOAD SEED SECONDS TRACE SCALE ROLE T0

ROLE ``setup`` stops after the set-up; ``measure`` goes on to the timed
repetitions.  T0 is the parent's ``time.monotonic()`` at spawn, so the
set-up time includes interpreter start and imports.  The last line of
standard output is one JSON object.
"""
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict


def blas_threads():
    """Threads the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root):
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed):
    import numpy as np
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_requested": int(os.environ.get("OPENBLAS_NUM_THREADS", 0)),
        "blas_threads_in_effect": blas_threads(),
        "git_commit": git_commit(os.getcwd()),
        "seed": seed,
    }


# The calibration loop's time on the reference host (2 vCPUs of an Intel
# Xeon at 2.1 GHz, Python 3.11) while no other tenant slows it.
CALIBRATION_REF_S = 0.007
CALIBRATION_SAMPLES = 3


def calibration_loop():
    """A fixed loop of tuple hashing and set lookups, like frontier upkeep."""
    t = time.perf_counter()
    seen = set()
    for i in range(20_000):
        key = (i % 31, i % 29, i % 7, i % 5, i % 3)
        if key not in seen:
            seen.add(key)
    return time.perf_counter() - t


def loop(wl, rec, seconds, model, warmup=True):
    """Repeat the workload until ``seconds`` have passed.

    With ``warmup`` the first repetition's samples are dropped (its
    outcomes still count), since it alone pays first-call costs; at least
    one repetition is always measured.  Each repetition starts from a
    freshly collected heap, right after the calibration loop has timed
    the host's current speed.
    """
    walls, counts = [], defaultdict(float)
    end = time.perf_counter() + seconds
    while True:
        gc.collect()
        calibration = statistics.median(calibration_loop()
                                        for _ in range(CALIBRATION_SAMPLES))
        try:
            wall, rep_counts = wl.rep(rec, model)
        except Exception:
            rec.crashed(wl.name, wl.ops_per_rep)
        else:
            if warmup:
                rec.samples.clear()
                warmup = False
                continue
            rec.add("calibration", calibration)
            walls.append(wall)
            for k, v in rep_counts.items():
                counts[k] += v
        now = time.perf_counter()
        if now >= end and (walls or now >= end + seconds):
            return walls, counts


def raw_timings(rec):
    """Wall-clock means over the run's repetitions."""
    s = rec.samples
    mean = statistics.fmean
    return {
        "wall_s": mean(s["wall"]),
        "build_s": mean(s["build"]),
        "step_ms.p50": mean(s["step_ms.p50"]),
        "step_ms.p90": mean(s["step_ms.p90"]),
        # Every evaluation covers the same points, so this is total points
        # over total evaluation time.
        "eval_pts_per_s": statistics.harmonic_mean(s["eval_rate"]),
    }


def end_to_end(rec):
    """Timings at the reference host speed, and the other metrics.

    A shared host alternates between fast and slow phases, and the share
    of slow time drifts over minutes, so wall-clock means of runs made
    minutes apart differ by up to a third.  The calibration loop runs
    before every repetition and slows down with the host; each wall-clock
    mean is scaled by the reference time of that loop over its mean time
    in this run.
    """
    s = rec.samples
    scale = CALIBRATION_REF_S / statistics.fmean(s["calibration"])
    out = {name: value / scale if name == "eval_pts_per_s" else value * scale
           for name, value in raw_timings(rec).items()}
    out.update({
        "model_calls": statistics.median(s["model_calls"]),
        "cv_l1": statistics.median(s["cv_l1"]),
    })
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["peak_rss_mb"] = peak_kb / 1024.0
    return out


def cold_leja(count):
    """Median time to build a fresh Leja sequence per law, cache bypassed."""
    import adaleja as al
    out = {}
    for law in (al.uniform(-1.0, 1.0), al.beta33(-1.0, 1.0)):
        times = []
        for _ in range(3):
            t = time.perf_counter()
            al.LejaSequence(law).extend_to(count)
            times.append(time.perf_counter() - t)
        out["leja.cold_s." + law.kind] = statistics.median(times)
    return out


def traced(wl, rec, seconds, untraced_walls, seed):
    from tracing import (Tracer, install, layer_metrics, merge, top_self)
    tracer = Tracer()
    install(tracer)
    rec.unrecorded = tracer.paused
    model = tracer.wrap("model", wl.model) if hasattr(wl, "model") else None
    if hasattr(wl, "spans_path"):
        wl.spans_path = os.path.join(wl.work, "spans.json")
    walls, counts = loop(wl, rec, seconds, model, warmup=False)
    if not rec.samples.get("wall"):
        return {}, None
    spans = tracer.spans
    for child in getattr(wl, "child_traces", []):
        merge(spans, child["spans"])
        for k, v in child["counts"].items():
            counts[k] += v
    for k, v in tracer.counts.items():
        counts[k] += v
    reps = max(len(walls), 1)
    with tracer.paused():
        fixed = cold_leja(20 if wl.scale == "full" else 4)
    fixed["trace.overhead_ratio"] = (statistics.median(walls)
                                     / statistics.median(untraced_walls) - 1.0)
    metrics = layer_metrics(spans, counts, reps, fixed)
    out_dir = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
    with open(os.path.join(out_dir, f"spans-{wl.name}-seed{seed}.json"), "w") as fh:
        json.dump(spans, fh)
    report = {"traced_reps": len(walls), "untraced_reps": len(untraced_walls),
              "traced_wall_s": statistics.median(walls),
              "untraced_wall_s": statistics.median(untraced_walls),
              "top_self": top_self(spans, reps)}
    return metrics, report


def main(argv):
    name, seed, seconds, trace, scale, role, t0 = argv
    seed, seconds, trace, t0 = int(seed), float(seconds), int(trace), float(t0)
    from workloads import WORKLOADS, Record
    wl = WORKLOADS[name](scale, seed)
    setup_s = time.monotonic() - t0
    result = {"setup_s": setup_s}
    if role == "measure":
        os.makedirs(os.path.join(os.path.dirname(os.path.abspath(__file__)), "out"),
                    exist_ok=True)
        wl.references()
        rec = Record()
        model = getattr(wl, "model", None)
        # A run in which no repetition completed reports no metrics; its
        # failed operations still show in ``failed``.
        if trace:
            walls, _ = loop(wl, rec, seconds / 2, model)
            metrics, result["trace"] = (traced(wl, rec, seconds / 2, walls, seed)
                                        if rec.samples.get("wall") else ({}, None))
        else:
            loop(wl, rec, seconds, model)
            metrics = end_to_end(rec) if rec.samples.get("wall") else {}
            if metrics:
                result["wall_clock"] = raw_timings(rec)
        result.update(metrics=metrics, attempted=rec.attempted, failed=rec.failed,
                      errors=rec.errors[:20], env=environment(seed),
                      samples=dict({k: len(v) for k, v in rec.samples.items()},
                                   step_ms=sum(rec.samples.get("steps", []))),
                      raw=rec.samples)
    if hasattr(wl, "close"):
        wl.close()
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
