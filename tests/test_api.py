"""The public surface of the package, pinned name by name.

Adding or removing a public name is an API change; it shows up here as
an edit to ``PUBLIC``.  The traced benchmark run wraps further library
names by name, so renaming one of those is checked here too.
"""
import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import adaleja

PUBLIC = [
    # adaptive drivers
    "AdaptiveConfig", "AdaptiveReport", "IterationRecord",
    "corrected_evaluate", "run_adaptive", "run_adaptive_adjoint",
    # input laws
    "BETA33", "UNIFORM", "Distribution", "beta33", "make_distribution",
    "sample_joint", "uniform",
    # errors
    "ConfigError", "ContractError", "DomainError", "SerializationError",
    "SolveError", "UnsupportedVersionError",
    # polynomial chaos
    "SMOLYAK", "TENSOR", "GpcExpansion", "gauss_rule", "project",
    # index sets and Leja nodes
    "MultiIndexSet", "backward_neighbors", "forward_neighbors",
    "LejaSequence", "leja_nodes",
    # parametric linear systems
    "LadderModel", "ParametricLinearModel", "error_indicator",
    "material_interp", "permittivity", "read_material_samples",
    "solve_dual", "solve_primal",
    # conformal maps
    "ConformalMap", "IdentityMap", "KTEMap", "SausageMap", "make_map",
    # post-processing
    "McSummary", "SobolResult", "cv_errors", "extract_resonance",
    "failure_probability", "kde_pdf", "mc_moments", "sobol_indices",
    # surrogates
    "Surrogate", "deserialize", "load_surrogate", "save_surrogate",
    "serialize",
    "__version__",
]


def test_all_is_pinned():
    assert adaleja.__all__ == PUBLIC


def test_every_public_name_resolves():
    missing = [name for name in adaleja.__all__ if not hasattr(adaleja, name)]
    assert missing == []


def test_star_import_matches_all():
    namespace = {}
    exec("from adaleja import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)


def test_adaptive_config_fields_are_pinned():
    # a new knob shows up here; the driver called picks the indicator
    fields = [f.name for f in dataclasses.fields(adaleja.AdaptiveConfig)]
    assert fields == ["budget", "tol"]


def test_readme_library_example_runs():
    # the one documented library example, verbatim, in a fresh interpreter
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    assert len(blocks) == 1
    code = "import sys; sys.path.insert(0, sys.argv[1])\n" + blocks[0]
    proc = subprocess.run([sys.executable, "-c", code, str(root / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("101 nodes, 101 model evaluations\n")


def test_benchmark_tracer_installs():
    # a fresh interpreter, so the wrappers never reach this test session
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path[:0] = sys.argv[1:]; import tracing; "
            "tracing.install(tracing.Tracer())")
    proc = subprocess.run([sys.executable, "-c", code, str(root / "src"),
                           str(root / "perfbench")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_optimize_and_special_unloaded():
    # scipy.optimize and scipy.special each serve one rarely used call
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import adaleja; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.special') "
            "if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code, str(root / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_import_leaves_linalg_unloaded():
    # the band LU routines are bound at the first solve, from scipy's
    # extension files: not even a solve pays for importing scipy.linalg
    root = Path(__file__).resolve().parents[1]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import adaleja; "
            "print('scipy.linalg' in sys.modules); "
            "adaleja.LadderModel(2, sections=4)([0.1, -0.2]); "
            "print('scipy.linalg' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(root / "src")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_cli_build_leaves_linalg_and_array_api_unloaded(tmp_path):
    # a ladder study through the command solves systems; its cold start
    # loads neither scipy.linalg nor scipy's array-API layer, and the
    # command itself imports nothing the CLI did not load with itself
    root = Path(__file__).resolve().parents[1]
    study = {"model": {"model": "ladder", "sections": 10, "damping": 0.05, "n_params": 2},
             "distributions": [{"kind": "uniform", "lower": -1.0, "upper": 1.0}] * 2,
             "maps": {"map": "sausage", "order": 3}, "algorithm": "adaptive",
             "budget": 25, "cv": {"n": 100, "seed": 11}, "seed": 3}
    config = tmp_path / "study.json"
    config.write_text(json.dumps(study))
    out = tmp_path / "run"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "from adaleja.cli import run_command; loaded = set(sys.modules); "
            "print(run_command(['build', '--config', sys.argv[2], '--out', sys.argv[3]])); "
            "print(sorted(m for m in ('scipy.linalg', 'scipy._lib._array_api') "
            "if m in sys.modules)); "
            "print(sorted(set(sys.modules) - loaded))")
    proc = subprocess.run([sys.executable, "-c", code, str(root / "src"), str(config),
                           str(out)], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-3:] == ["0", "[]", "[]"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["versions"]["scipy"]
