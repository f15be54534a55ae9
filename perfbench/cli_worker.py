"""One pass of the CLI study in a fresh interpreter.

Usage: python3 cli_worker.py WORKDIR [SPANS_PATH]

Runs every subcommand of the study through ``adaleja.cli.run_command``
in order, from WORKDIR, which holds the study's config files.  Each
command writes to ``out/<command>``.  The last line of standard output
is JSON: ``{"commands": [[name, exit code, seconds], ...], "reports":
{name: [counters, ...]}}``, where ``reports`` holds the counters of every
``AdaptiveReport`` each command's ``run_adaptive`` calls returned, and
the milliseconds between that call's consecutive accepted indices.  With
SPANS_PATH the library entry points are traced and the spans written
there.
"""
import contextlib
import io
import json
import os
import sys
import time

COMMANDS = (
    ("build", "build", "build.json"),
    ("stats", "stats", "post.json"),
    ("sobol", "sobol", "post.json"),
    ("kde", "kde", "post.json"),
    ("converge", "converge", "converge.json"),
    ("gpc_build", "build", "gpc.json"),
    ("gain", "gain", "gain.json"),
)


def main(argv):
    os.chdir(argv[0])
    spans_path = os.path.abspath(argv[1]) if len(argv) > 1 else None
    from adaleja import cli
    tracer = None
    if spans_path:
        from tracing import Tracer, install
        tracer = Tracer()
        install(tracer)
    results, reports, current = [], {}, [None]
    inner = cli.run_adaptive

    def run_adaptive(*args, on_accept=None, **kwargs):
        stamps = []

        def stamp(sur, record):
            stamps.append(time.perf_counter())
            if on_accept is not None:
                on_accept(sur, record)
        sur, report = inner(*args, on_accept=stamp, **kwargs)
        reports.setdefault(current[0], []).append({
            "steps": len(report.records), "lu_count": report.lu_count,
            "fb_count": report.fb_count,
            "step_ms": [(b - a) * 1e3 for a, b in zip(stamps, stamps[1:])]})
        return sur, report
    cli.run_adaptive = run_adaptive

    for name, sub, config in COMMANDS:
        current[0] = name
        argv = [sub, "--config", config, "--out", os.path.join("out", name)]
        t = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                code = cli.run_command(argv)
            else:
                with tracer.span("cli." + name):
                    code = cli.run_command(argv)
        results.append([name, code, time.perf_counter() - t])
    if tracer is not None:
        with open(spans_path, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
    print(json.dumps({"commands": results, "reports": reports}))


if __name__ == "__main__":
    main(sys.argv[1:])
