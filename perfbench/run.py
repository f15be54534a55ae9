"""adaleja benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an adaleja checkout; the library is imported from
``src``.  Workloads: blackbox, cli-study (see
perfbench/README.md).  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it times half the run untraced,
half traced, and reports the per-layer metrics.

Human-readable lines come first.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(name -> value and unit).  A full record, with the environment, sample
counts and the trace report, goes to ``perfbench/out/``.  The exit code
is 0 when the workload ran, 1 when a worker crashed or ran out of time
(the result line then reads correct false, attempted 1, failed 1, with
no metrics), and 2, with no result line, when the checkout has no
library.  A run in which no repetition completed prints its failed
operations and no metrics.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import LAYER_UNITS  # noqa: E402
from worker import CALIBRATION_REF_S  # noqa: E402

WORKLOADS = ("blackbox", "cli-study")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "build_s": "s",
    "step_ms.p50": "ms", "step_ms.p90": "ms",
    "eval_pts_per_s": "points/s", "model_calls": "count", "cv_l1": "abs",
    "peak_rss_mb": "MB",
}

# BLAS threads for every worker, pinned in the environment before numpy
# loads; one thread keeps runs steady on a small shared machine.
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Fresh-process set-ups per run; setup_s is their median.
SETUP_SAMPLES = 3

# A run must end within this many seconds.
DEADLINE = 170.0


def spawn(args, env, role, deadline):
    """Run one worker in its own process group; kill the group on timeout."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           str(args.seed), str(args.seconds), str(args.trace), args.scale, role,
           repr(time.monotonic())]
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    sys.stderr.write(err)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} worker exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the self-test")
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "adaleja", "__init__.py")):
        sys.stderr.write("run.py: no src/adaleja here; run it from the root "
                         "of an adaleja checkout\n")
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src"), HERE] + [p for p in [env.get("PYTHONPATH")] if p])
    threads = min(BLAS_THREADS, os.cpu_count() or 1)
    env.update({var: str(threads) for var in BLAS_VARS})

    try:
        setups = [spawn(args, env, "setup", deadline)
                  for _ in range(SETUP_SAMPLES - 1)]
        result = spawn(args, env, "measure", deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"# FAILED: {exc}")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    setups.append(result)
    metrics = result["metrics"]
    if args.trace == 0 and metrics:
        metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
    units = LAYER_UNITS if args.trace else END_TO_END_UNITS
    out = {
        "correct": result["failed"] == 0 and bool(metrics),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items() if k in metrics},
    }

    env_line = ", ".join(f"{k}={v}" for k, v in result["env"].items())
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} scale={args.scale}")
    print(f"# environment: {env_line}")
    print(f"# setup samples (s): {[round(s['setup_s'], 4) for s in setups]}")
    print(f"# samples: {result['samples']}")
    if "wall_clock" in result:
        calibration = statistics.fmean(result["raw"]["calibration"])
        print(f"# calibration loop: mean {calibration * 1e3:.3f} ms, reference "
              f"{CALIBRATION_REF_S * 1e3:.3f} ms; wall-clock means before scaling: "
              + ", ".join(f"{k}={v:.6g}" for k, v in result["wall_clock"].items()))
    print(f"# attempted {out['attempted']}, failed {out['failed']}, "
          f"error_rate {out['failed'] / max(out['attempted'], 1):.4g}")
    for err in result["errors"]:
        print(f"# FAILED: {err}")
    for name, m in out["metrics"].items():
        print(f"{name:28s} {m['value']:>16.6g} {m['unit']}")
    if args.trace and result["trace"]:
        t = result["trace"]
        print(f"# traced run: {t['traced_reps']} traced reps, wall {t['traced_wall_s']:.4f} s;"
              f" untraced {t['untraced_reps']} reps, wall {t['untraced_wall_s']:.4f} s")
        print(f"# {'span':32s} {'calls/rep':>10s} {'total s/rep':>12s} {'self s/rep':>12s}")
        for name, calls, total, own in t["top_self"]:
            print(f"# {name:32s} {calls:10.1f} {total:12.4f} {own:12.4f}")

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    path = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(dict(result, setups=setups, result=out), fh, indent=1)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
