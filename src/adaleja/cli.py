"""Batch front door for surrogate studies.

``adaleja <subcommand> --config study.json`` reads a JSON study
description, runs one pipeline, and writes plot-ready CSV artifacts plus
a ``manifest.json`` that records the resolved configuration, its hash,
the seed, and package versions.  Feeding a manifest back as the config
reproduces the run; all floats are written with 17 significant digits so
repeated runs agree byte for byte.

Each subcommand returns its artifacts as bytes, and ``run_command``
writes them, with the manifest, only after all of them were made.
Exit codes: 0 on success, 1 on numerical failure (the failing parameter
point is part of the message), 2 on configuration problems, including
an output directory that cannot be created or written, 64 for an
unknown subcommand.  A failed run writes no artifact.
"""

import argparse
import copy
import hashlib
import json
import os
import platform
import sys

import numpy as np
import numpy.random  # lazy in numpy: load it here, as every study samples
import scipy  # for the manifest's versions; the band routines bind below

from .adaptive import (AdaptiveConfig, AdaptiveReport, _csv_text,
                       run_adaptive, run_adaptive_adjoint)
from .distributions import make_distribution, sample_joint
from .errors import (ConfigError, ContractError, DomainError, SerializationError,
                     SolveError, _flag, _number)
from .gpc import SMOLYAK, TENSOR, GpcExpansion, project
from .grid import MAX_TOTAL_DEGREE_SIZE, MultiIndexSet
from .linmodel import LadderModel, ParametricLinearModel, _lapack
from .maps import make_map
from .stats import (_deviation, _modulus, _reference_values, extract_resonance,
                    failure_probability, kde_pdf, mc_moments, sobol_indices)
from .surrogate import Surrogate, _read_evaluable, serialize

# the CLI's studies solve: bind the band LU routines before any command
for _routine in ("gbtrf", "gbtrs", "gbmv"):
    _lapack(_routine)

SUBCOMMANDS = ("build", "converge", "stats", "sobol", "kde", "resonance", "gain")

# each algorithm and the field a converge sweep varies
ALGORITHMS = {"adaptive": "budget", "adaptive-adjoint": "budget",
              "gpc": "p_max", "isotropic-smolyak": "level"}

_USAGE = """usage: adaleja <subcommand> --config PATH [--out DIR] [--seed U64] [--threads N]

subcommands:
  build      fit a surrogate, write surrogate.json and report.csv (decay.csv for gpc)
  converge   sweep the build budget, write report.csv with nodes, mean_l1, max_err
  stats      Monte-Carlo moments and failure probability, write moments.csv
  sobol      Sobol sensitivity indices, write sobol.csv
  kde        kernel density of the surrogate output modulus, write kde.csv
  resonance  per-sample resonance extraction, write resonance.csv
  gain       map gain sweep over epsilon, write gain.csv

--threads N sets OMP_NUM_THREADS, OPENBLAS_NUM_THREADS and MKL_NUM_THREADS
for child processes only: the BLAS this process already loaded keeps its
thread count, and manifest.json says so with "threads_applied": false.
To cap this process, set those variables before starting adaleja.
"""

_REQUIRED = object()

def _field(spec, key, kind, default=_REQUIRED, *, field=None,
           ge=None, gt=None, lt=None, choices=None):
    """``spec[key]``, or ``default`` when absent, as a JSON value of one kind.

    ``kind`` is int, float, bool or str.  A bool is read by
    ``errors._flag``, an int or float by ``errors._number`` with the
    bounds ``ge``/``gt``/``lt``, as the library reads its arguments:
    booleans and strings are no numbers, numbers must be finite, and an
    int may be written 2.0.  Strings must be among ``choices`` when
    given.  A null value stands for absence only where the default is
    None.  Anything else raises ConfigError naming ``field`` (the
    enclosing config object) and ``key``, or ``key`` alone.
    """
    value = spec.get(key, default)
    if value is None and default is None:
        return None

    def invalid(problem):
        return ConfigError(f"{key} {problem}" if field else problem,
                           field=field or key)

    if value is _REQUIRED:
        raise invalid("missing")
    if kind in (int, float, bool):
        try:
            return (_flag(value, key) if kind is bool else
                    _number(value, key, integral=kind is int, ge=ge, gt=gt, lt=lt))
        except ContractError as exc:
            raise ConfigError(str(exc), field=field or key) from None
    if not isinstance(value, str):
        raise invalid("must be a string")
    if choices is not None and value not in choices:
        raise invalid(f"must be one of {', '.join(choices)}")
    return value


class RungeProduct:
    """Product Runge function, the standard smooth-but-stiff benchmark."""

    def __init__(self, n_params, c=10.0):
        self.n_params = n_params
        self.c = c

    def __call__(self, y):
        y = np.asarray(y, dtype=float)
        return complex(np.prod(1.0 / (1.0 + self.c * y * y)))


def make_model(spec):
    """Build a model instance from its config dictionary."""
    if not isinstance(spec, dict):
        raise ConfigError("model description must be an object", field="model")
    kind = _field(spec, "model", str, field="model", choices=("ladder", "runge"))
    if kind == "ladder":
        with_frequency = _field(spec, "with_frequency", bool, False, field="model")
        # the frequency can be the only parameter; stiffness ones need a section each
        n_params = _field(spec, "n_params", int, 1, field="model",
                          ge=0 if with_frequency else 1)
        return LadderModel(
            n_params=n_params,
            sections=_field(spec, "sections", int, 40, field="model", ge=max(n_params, 1)),
            damping=_field(spec, "damping", float, 0.02, field="model"),
            with_frequency=with_frequency,
            omega=_field(spec, "omega", float, 1.0, field="model"),
        )
    return RungeProduct(_field(spec, "n_params", int, 1, field="model", ge=1),
                        _field(spec, "c", float, 10.0, field="model", gt=0))


def _read(path, field):
    """The bytes of the file at ``path``; an unreadable file is a config
    error on ``field``."""
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}", field=field)


def _load_json(path):
    try:
        data = json.loads(_read(path, "config"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}", field="config")
    if isinstance(data, dict) and "config" in data and "command" in data:
        data = data["config"]        # a manifest was fed back in
    if not isinstance(data, dict):
        raise ConfigError("study config must be a JSON object", field="config")
    return data


def _study(config):
    """Model, input laws and conformal maps of a study config.

    Every study builds a surrogate, so its ``algorithm`` is checked here.
    """
    _field(config, "algorithm", str, choices=ALGORITHMS)
    model = make_model(config.get("model", {}))
    distributions = _distributions(config, model)
    return model, distributions, _maps(config, len(distributions))


def _distributions(config, model):
    specs = config.get("distributions")
    if specs is None:
        raise ConfigError("missing", field="distributions")
    if not isinstance(specs, list) or not specs:
        raise ConfigError("must be a non-empty list", field="distributions")
    try:
        dists = [make_distribution(s) for s in specs]
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc), field="distributions") from exc
    if len(dists) != model.n_params:
        raise ConfigError(
            f"model expects {model.n_params} parameters, got {len(dists)}",
            field="distributions")
    return dists


def _maps(config, n_dim):
    spec = config.get("maps")
    if spec is None:
        return None
    if config["algorithm"] == "gpc":
        raise ConfigError("gpc projects without maps", field="maps")
    try:
        if isinstance(spec, list):
            if len(spec) != n_dim:
                raise ConfigError(
                    f"expected {n_dim} map entries, got {len(spec)}", field="maps")
            return [make_map(s) for s in spec]
        return make_map(spec)
    except ConfigError:
        raise
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(str(exc), field="maps") from exc


def _counted(model):
    """Wrap a model so converge can report the number of evaluations."""
    counter = {"calls": 0}

    def wrapped(y):
        counter["calls"] += 1
        return model(y)

    return wrapped, counter


class _CvTracker:
    """Cross-validation callback shared by the adaptive build pipelines."""

    def __init__(self, model, distributions, n_cv, seed, per_iteration):
        self.per_iteration = per_iteration
        self.points = sample_joint(distributions, n_cv, seed)
        self.reference = _reference_values(model, self.points)

    def measure(self, surrogate):
        return _deviation(surrogate, self.points, self.reference)

    def on_accept(self, surrogate, record):
        if self.per_iteration:
            record.cv_error = self.measure(surrogate)[0]


def _cv_tracker(config, model, distributions, converge=False):
    spec = config.get("cv")
    if spec is None:
        if not converge:
            return None
        spec = {}
    if not isinstance(spec, dict):
        raise ConfigError("must be an object", field="cv")
    n_cv = _field(spec, "n", int, 1000, field="cv", ge=1)
    seed = _field(spec, "seed", int, 10007, field="cv", ge=0)
    per_iteration = _field(spec, "per_iteration", bool, False, field="cv")
    # a converge sweep or an isotropic build has no accepted steps to track
    if per_iteration and (converge or config["algorithm"] == "isotropic-smolyak"):
        raise ConfigError("per_iteration applies to adaptive builds only", field="cv")
    return _CvTracker(model, distributions, n_cv, seed, per_iteration)


def _degree(config, n_dim):
    """gpc ``p_max`` or isotropic ``level`` within the size bound; None if adaptive."""
    key = ALGORITHMS[config["algorithm"]]
    if key == "budget":
        return None
    degree = _field(config, key, int, ge=1)
    if MultiIndexSet.total_degree_size(n_dim, degree) > MAX_TOTAL_DEGREE_SIZE:
        raise ConfigError(f"{key} {config[key]!r} gives more than "
                          f"{MAX_TOTAL_DEGREE_SIZE} total-degree indices", field=key)
    return degree


def _build_surrogate(config, model, distributions, maps, tracker=None):
    """Run the configured algorithm; returns (target, report_or_None, parts).

    ``parts`` maps a file name to a further surrogate only ``build`` writes.
    """
    algorithm, parts = config["algorithm"], {}
    degree = _degree(config, len(distributions))
    if algorithm == "gpc":
        quadrature = _field(config, "quadrature", str, TENSOR, choices=(TENSOR, SMOLYAK))
        expansion = project(model, distributions, degree, quadrature=quadrature)
        return expansion, None, parts
    if algorithm == "isotropic-smolyak":
        indices = MultiIndexSet.total_degree(len(distributions), degree)
        target = Surrogate.fit(model, distributions, indices, maps)
        # one row per node in absorption order, one model call each
        report = AdaptiveReport()
        for ix in target.indices:
            report.lu_count += 1
            report.fb_count += 1
            report.record(ix, abs(target.surplus(ix)))
    else:
        cfg = AdaptiveConfig(budget=_field(config, "budget", int, ge=1),
                             tol=_field(config, "tol", float, None, ge=0))
        on_accept = tracker.on_accept if tracker is not None else None
        if algorithm == "adaptive-adjoint":
            if not isinstance(model, ParametricLinearModel):
                raise ConfigError(
                    "adaptive-adjoint requires a linear-system model", field="algorithm")
            target, parts["field.json"], report = run_adaptive_adjoint(
                model, cfg, distributions, maps, on_accept=on_accept)
        else:
            target, report = run_adaptive(
                model, cfg, distributions, maps, on_accept=on_accept)
    if tracker is not None and not tracker.per_iteration:
        report.records[-1].cv_error = tracker.measure(target)[0]
    return target, report, parts


def _load_artifact(path):
    """Load a serialized surrogate or gpc expansion, whichever the file holds."""
    data = _read(path, "surrogate")
    try:
        kind, doc, values = _read_evaluable(data)
        cls = GpcExpansion if kind == "gpc" else Surrogate
        return cls._from_document(doc, values)
    except SerializationError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _target(config):
    """Surrogate for the stats family: loaded from disk or built fresh."""
    path = _field(config, "surrogate", str, None)
    if path is not None:
        target = _load_artifact(path)
        if getattr(target, "value_shape", ()) != ():    # gpc expansions are scalar
            raise ConfigError(f"{path} holds values of shape {target.value_shape}, "
                              "not one scalar per point", field="surrogate")
        return target, list(target.distributions)
    model, distributions, maps = _study(config)
    return _build_surrogate(config, model, distributions, maps)[0], distributions


def _grid(spec, field, lo, hi, count, gt=None):
    """The lo, hi and count of a {lo, hi, count} object over the defaults.

    ``gt``, when given, is an exclusive lower bound on ``lo``; with None
    defaults, the fields given are checked and the absent ones read None.
    """
    if not isinstance(spec, dict):
        raise ConfigError("must be a lo/hi/count object", field=field)
    lo = _field(spec, "lo", float, lo, field=field, gt=gt)
    hi = _field(spec, "hi", float, hi, field=field, gt=lo)
    return lo, hi, _field(spec, "count", int, count, field=field, ge=2)


def _cmd_build(config, seed):
    model, distributions, maps = _study(config)
    if config["algorithm"] == "gpc" and config.get("cv") is not None:
        raise ConfigError("a gpc build measures no cv error", field="cv")
    tracker = _cv_tracker(config, model, distributions)
    target, report, parts = _build_surrogate(config, model, distributions, maps, tracker)
    files = {name: serialize(part) for name, part in parts.items()}
    if isinstance(target, GpcExpansion):
        files["surrogate.json"] = target.to_json()
        files["decay.csv"] = _csv_text(["total_degree", "max_abs_coeff"],
                                       target.decay()).encode()
    else:
        files["surrogate.json"] = serialize(target)
        files["report.csv"] = report.to_csv().encode()
    return files


def _sweep_values(config):
    spec = config.get("sweep")
    if isinstance(spec, list) and spec:
        entries = {f"sweep[{i}]": v for i, v in enumerate(spec)}
        return [_field(entries, k, int, field="sweep", ge=1) for k in entries]
    if not isinstance(spec, dict):
        raise ConfigError("must be a non-empty list or a from/to/step object",
                          field="sweep")
    lo = _field(spec, "from", int, field="sweep", ge=1)
    hi = _field(spec, "to", int, field="sweep", ge=lo)
    return list(range(lo, hi + 1, _field(spec, "step", int, 1, field="sweep", ge=1)))


def _cmd_converge(config, seed):
    model, distributions, maps = _study(config)
    algorithm = config["algorithm"]
    runs = [{**config, ALGORITHMS[algorithm]: value} for value in _sweep_values(config)]
    for run_config in runs:     # every entry is checked before anything is computed
        _degree(run_config, len(distributions))
    tracker = _cv_tracker(config, model, distributions, converge=True)
    rows = []
    for run_config in runs:
        # gpc returns no report, so its model calls are counted here
        build_model, counter = _counted(model) if algorithm == "gpc" else (model, None)
        target, report, _ = _build_surrogate(
            run_config, build_model, distributions, maps)
        nodes = report.lu_count if report is not None else counter["calls"]
        rows.append((nodes, *tracker.measure(target)))
    return {"report.csv": _csv_text(["nodes", "mean_l1", "max_err"], rows).encode()}


def _cmd_stats(config, seed):
    n_samples = _field(config, "n_samples", int, 100_000, ge=2)
    alpha = _field(config, "alpha", float, None, gt=0, lt=1)
    target, distributions = _target(config)
    children = np.random.SeedSequence(seed).spawn(2)
    summary = mc_moments(target, distributions, n_samples, children[0])
    row = [summary.sample_count, summary.mean, summary.std, None, None]
    if alpha is not None:
        row[3] = alpha
        row[4] = failure_probability(target, distributions, alpha,
                                     n_samples, children[1])
    return {"moments.csv": _csv_text(["sample_count", "mean", "std", "alpha",
                                      "failure_probability"], [row]).encode()}


def _cmd_sobol(config, seed):
    n_base = _field(config, "n_base", int, 10_000, ge=1)
    target, distributions = _target(config)
    result = sobol_indices(target, distributions, n_base, seed)
    rows = [(k, result.main[k], result.total[k])
            for k in range(len(distributions))]
    return {"sobol.csv": _csv_text(["parameter", "main", "total"], rows).encode()}


def _cmd_kde(config, seed):
    n_samples = _field(config, "n_samples", int, 100_000, ge=1)
    bandwidth = _field(config, "bandwidth", float, None, gt=0)
    spec = config.get("kde_grid")
    spec = {} if spec is None else spec
    _grid(spec, "kde_grid", None, None, None)   # before any build or sample
    target, distributions = _target(config)
    samples = _modulus(target, sample_joint(distributions, n_samples, seed))
    if bandwidth is None:
        sigma = float(samples.std(ddof=1)) if n_samples > 1 else 1.0
        bandwidth = 1.06 * max(sigma, 1e-12) * n_samples ** (-0.2)
    grid = np.linspace(*_grid(spec, "kde_grid", samples.min() - bandwidth,
                              samples.max() + bandwidth, 512))
    density = kde_pdf(samples, bandwidth, grid)
    return {"kde.csv": _csv_text(["T", "density"], zip(grid, density)).encode()}


def _cmd_resonance(config, seed):
    spec = config.get("resonance")
    if not isinstance(spec, dict):
        raise ConfigError("missing object with f_range", field="resonance")
    f_range = spec.get("f_range")
    if not isinstance(f_range, list) or len(f_range) != 2:
        raise ConfigError("f_range must be a [lo, hi] pair", field="resonance")
    ends = dict(zip(("f_range[0]", "f_range[1]"), f_range))
    f_lo = _field(ends, "f_range[0]", float, field="resonance")
    f_range = (f_lo, _field(ends, "f_range[1]", float, field="resonance", gt=f_lo))
    n_starts = _field(spec, "n_starts", int, 15, field="resonance", ge=1)
    n_slices = _field(spec, "n_slices", int, 50, field="resonance", ge=1)
    target, distributions = _target(config)
    lo, hi = distributions[0].lower, distributions[0].upper
    if f_range[0] < lo or f_range[1] > hi:
        raise ConfigError(
            f"f_range must lie inside the frequency support [{lo}, {hi}]",
            field="resonance")
    if len(distributions) < 2:
        raise ConfigError(
            "resonance extraction needs a frequency dimension plus at least "
            "one sampled parameter", field="distributions")
    slices = sample_joint(distributions[1:], n_slices, seed)
    rows = []
    for point in slices:
        f_res, s_res = extract_resonance(target, point, f_range, n_starts)
        rows.append((f_res, s_res))
    return {"resonance.csv": _csv_text(["fRes", "sRes"], rows).encode()}


def _cmd_gain(config, seed):
    spec = config.get("gain")
    if not isinstance(spec, dict):
        raise ConfigError("missing object with map and epsilons", field="gain")
    try:
        cmap = make_map(spec.get("map", {"map": "sausage"}))
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigError(str(exc), field="gain") from exc
    eps_spec = spec.get("epsilons")
    if isinstance(eps_spec, list) and eps_spec:
        entries = {f"epsilons[{i}]": e for i, e in enumerate(eps_spec)}
        epsilons = [_field(entries, k, float, field="gain", gt=0) for k in entries]
    elif isinstance(eps_spec, dict):
        epsilons = list(np.linspace(*_grid(eps_spec, "gain", 0.1, 1.0, 20, gt=0)))
    else:
        raise ConfigError("epsilons must be a list or a lo/hi/count object",
                          field="gain")
    n_samples = _field(spec, "n_samples", int, 4096, field="gain", ge=1)
    rows = [(eps, cmap.estimate_gain(eps, n_samples=n_samples))
            for eps in epsilons]
    return {"gain.csv": _csv_text(["epsilon", "gain"], rows).encode()}


_HANDLERS = {
    "build": _cmd_build,
    "converge": _cmd_converge,
    "stats": _cmd_stats,
    "sobol": _cmd_sobol,
    "kde": _cmd_kde,
    "resonance": _cmd_resonance,
    "gain": _cmd_gain,
}


def _versions():
    from . import __version__
    return {
        "adaleja": __version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def _manifest(command, config, seed, threads):
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    manifest = {
        "command": command,
        "config": config,
        "config_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "seed": seed,
        "versions": _versions(),
    }
    if threads is not None:
        # the variables were set after numpy loaded its BLAS
        manifest["threads_applied"] = False
    return (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()


def run_command(argv):
    """Run one subcommand; returns the process exit code."""
    argv = list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0
    command = argv[0]
    if command not in SUBCOMMANDS:
        sys.stderr.write(f"unknown subcommand {command!r}\n{_USAGE}")
        return 64
    parser = argparse.ArgumentParser(prog=f"adaleja {command}", add_help=True)
    parser.add_argument("--config", required=True, help="study config JSON")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument("--threads", type=int, default=None,
                        help="set the BLAS thread variables for child processes; "
                             "this process keeps its BLAS threads")
    try:
        ns = parser.parse_args(argv[1:])
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        threads = _field(vars(ns), "threads", int, None, ge=1)
        if threads is not None:
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
                os.environ[var] = str(threads)
        config = _load_json(ns.config)
        seed = _field(config if ns.seed is None else vars(ns), "seed", int, 0, ge=0)
        config_out = _field(config, "out_dir", str, None)
        out_dir = ns.out or config_out or "."
        resolved = copy.deepcopy(config)
        resolved["seed"] = seed
        files = _HANDLERS[command](resolved, seed)
        if threads is not None:
            resolved["threads"] = threads
        files["manifest.json"] = _manifest(command, resolved, seed, threads)
        # the one place that writes, after everything else has succeeded
        try:
            os.makedirs(out_dir, exist_ok=True)
            for name in sorted(files):
                with open(os.path.join(out_dir, name), "wb") as handle:
                    handle.write(files[name])
        except OSError as exc:
            raise ConfigError(f"cannot write {exc.filename or out_dir}: "
                              f"{exc.strerror or exc}", field="out_dir")
    except (ConfigError, SerializationError) as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2
    except (SolveError, DomainError, ContractError,
            np.linalg.LinAlgError, FloatingPointError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return 1
    for name in sorted(files):
        print(f"wrote {os.path.join(out_dir, name)}")
    return 0


def console_main():
    raise SystemExit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    console_main()
