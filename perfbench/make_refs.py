"""Regenerate refs.json, the expected outputs shipped for seeds 0..N-1.

    python3 perfbench/make_refs.py [N]        (N defaults to 40; run from
                                              the checkout root)

blackbox: sha256 of the accepted index order, from the benchmark's own
greedy loop, cross-checked against ``run_adaptive``.  Full-scale sizes
only; other seeds and the tiny scale compute their references during
the run.
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.getcwd(), "src"), HERE]

import adaleja as al  # noqa: E402
import workloads as W  # noqa: E402


def main(count):
    refs = {"blackbox": {}}
    for seed in range(count):
        bb = W.Blackbox("full", seed)
        order = W.reference_accepted(bb.model, bb.dists, bb.maps, bb.p["budget"])
        _, report = al.run_adaptive(bb.model, bb.config, bb.dists, bb.maps)
        if report.accepted != order:
            raise SystemExit(f"seed {seed}: run_adaptive disagrees with the reference loop")
        refs["blackbox"][str(seed)] = W.sequence_digest(order)
        print(f"seed {seed} done", flush=True)
    with open(os.path.join(HERE, "refs.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 40)
