"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py            (from the checkout root)

Runs every workload of BENCHMARK.json untraced and traced for one
second at the tiny scale, and checks that each run passes its output
checks and emits exactly the metrics BENCHMARK.json names, each with its
unit.  It also checks that a directory holding only the benchmark, and
no library, makes run.py fail without printing a result.  Exits 1 on
the first problem.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(args, cwd):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")]
                          + args, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def check_result(proc, expected, label):
    if proc.returncode != 0:
        return f"{label}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
    out = json.loads(proc.stdout.splitlines()[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        return f"{label}: result keys {sorted(out)}"
    if not out["correct"] or out["failed"] or out["attempted"] < 1:
        return f"{label}: correct={out['correct']} failed={out['failed']}"
    got = {k: m["unit"] for k, m in out["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        wrong = sorted(k for k in set(got) & set(expected) if got[k] != expected[k])
        return f"{label}: missing {missing}, unexpected {extra}, wrong unit {wrong}"
    bad = [k for k, m in out["metrics"].items()
           if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
    if bad:
        return f"{label}: non-numeric values {bad}"
    return None


def main():
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            label = f"{workload} trace={trace}"
            proc = run(["--workload", workload, "--seed", "0", "--seconds", "1",
                        "--trace", str(trace), "--scale", "tiny"], root)
            problem = check_result(proc, expected[trace], label)
            if problem:
                print("FAIL", problem)
                return 1
            print("ok  ", label)

    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
    try:
        proc = run(["--workload", "blackbox", "--seed", "0", "--seconds", "1",
                    "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    last = (proc.stdout.strip().splitlines() or [""])[-1]
    if proc.returncode == 0 or last.startswith("{"):
        print("FAIL without the library: exit", proc.returncode, "last line", last)
        return 1
    print("ok   no library: exit", proc.returncode)
    return 0


if __name__ == "__main__":
    sys.exit(main())
