"""End-to-end tests of the command line driver."""
import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from adaleja import cli, linmodel
from adaleja.adaptive import AdaptiveConfig, corrected_evaluate, run_adaptive_adjoint
from adaleja.cli import RungeProduct, make_model, run_command
from adaleja.distributions import make_distribution
from adaleja.errors import SolveError
from adaleja.gpc import GpcExpansion
from adaleja.grid import MultiIndexSet
from adaleja.linmodel import LadderModel
from adaleja.maps import make_map
from adaleja.stats import cv_errors, mc_moments
from adaleja.surrogate import Surrogate, load_surrogate


def write_config(directory, data, name="config.json"):
    path = os.path.join(str(directory), name)
    with open(path, "w") as handle:
        json.dump(data, handle)
    return path


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class Holed:
    """Two-parameter black box that is NaN on part of its domain."""

    n_params = 2

    def __call__(self, y):
        return complex("nan") if y[0] < -0.5 else 1.0 + y[0] * y[1]


def count_factorizations(monkeypatch):
    """The column count of each gbtrf call from now on, one stacked block per point."""
    from adaleja import linmodel
    bind, columns = linmodel._lapack, []

    def counting(name):
        routine = bind(name)
        if name != "gbtrf":
            return routine

        def gbtrf(*args, **kwargs):
            columns.append(args[0].shape[1])
            return routine(*args, **kwargs)
        return gbtrf

    monkeypatch.setattr(linmodel, "_lapack", counting)
    return columns


# a config value that stands for "leave this field out"
DROP = object()

BUILD_CONFIG = {
    "model": {"model": "ladder", "sections": 10, "damping": 0.05,
              "n_params": 2},
    "distributions": [
        {"kind": "uniform", "lower": -1.0, "upper": 1.0},
        {"kind": "uniform", "lower": -1.0, "upper": 1.0},
    ],
    "maps": {"map": "sausage", "order": 3},
    "algorithm": "adaptive",
    "budget": 25,
    "cv": {"n": 100, "seed": 11},
    "seed": 3,
}

PER_ITERATION = {"n": 50, "seed": 11, "per_iteration": True}


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    """One shared adaptive build whose surrogate feeds the post commands."""
    root = tmp_path_factory.mktemp("built")
    config = write_config(root, BUILD_CONFIG)
    out = str(root / "run")
    assert run_command(["build", "--config", config, "--out", out]) == 0
    return root, out


@pytest.fixture(scope="module")
def adjoint_built(tmp_path_factory):
    """One adjoint build, whose field.json holds the primal–dual pairs."""
    root = tmp_path_factory.mktemp("adjoint")
    config = dict(BUILD_CONFIG, algorithm="adaptive-adjoint", budget=15)
    del config["maps"]
    out = str(root / "run")
    assert run_command(["build", "--config", write_config(root, config),
                        "--out", out]) == 0
    return out


class TestDispatch:
    def test_no_arguments_prints_usage(self, capsys):
        assert run_command([]) == 0
        assert "usage" in capsys.readouterr().out

    def test_help_flag(self, capsys):
        assert run_command(["-h"]) == 0
        assert "usage" in capsys.readouterr().out

    def test_subcommand_flags(self, capsys):
        assert run_command(["stats", "--help"]) == 0
        assert "usage: adaleja stats" in capsys.readouterr().out
        assert run_command(["stats", "--config", "x.json", "--frobnicate"]) == 2
        assert "unrecognized arguments: --frobnicate" in capsys.readouterr().err

    def test_module_entry_point(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "adaleja.cli", "--help"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == cli._USAGE

    def test_manifest_reads_the_scipy_version_without_importing_scipy(self, tmp_path):
        import scipy
        study = {"model": {"model": "ladder", "sections": 10, "damping": 0.05,
                           "n_params": 2},
                 "distributions": [{"kind": "uniform", "lower": -1.0, "upper": 1.0}] * 2,
                 "algorithm": "adaptive", "budget": 10, "seed": 3}
        config, out = write_config(tmp_path, study), tmp_path / "run"
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import adaleja.cli; "
                "print(adaleja.cli.run_command(['build', '--config', sys.argv[2], "
                "'--out', sys.argv[3]])); print('scipy' in sys.modules)")
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run([sys.executable, "-c", code, src, config, str(out)],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == ["0", "False"]
        manifest = read_json(os.path.join(out, "manifest.json"))
        assert manifest["versions"]["scipy"] == scipy.__version__

    def test_scipy_version_falls_back_to_the_import(self, monkeypatch):
        import scipy
        monkeypatch.setattr(linmodel, "util", SimpleNamespace(find_spec=lambda name: None))
        assert cli._versions()["scipy"] == scipy.__version__

    def test_unknown_subcommand(self, capsys):
        assert run_command(["frobnicate", "--config", "x.json"]) == 64
        assert "unknown subcommand" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = run_command(["build", "--config",
                            str(tmp_path / "absent.json")])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{not json", "[1, 2]", "5", "null"])
    def test_config_must_be_a_json_object(self, tmp_path, capsys, text):
        config = tmp_path / "config.json"
        config.write_text(text)
        code = run_command(["build", "--config", str(config),
                            "--out", str(tmp_path / "o")])
        assert code == 2
        assert "invalid field 'config'" in capsys.readouterr().err

    def test_bad_thread_count(self, tmp_path, capsys):
        config = write_config(tmp_path, BUILD_CONFIG)
        code = run_command(["build", "--config", config,
                            "--out", str(tmp_path / "o"), "--threads", "0"])
        assert code == 2
        assert "threads" in capsys.readouterr().err


class TestBuild:
    def test_artifacts_and_manifest(self, built, capsys):
        _, out = built
        for name in ("surrogate.json", "report.csv", "manifest.json"):
            assert os.path.exists(os.path.join(out, name))
        manifest = read_json(os.path.join(out, "manifest.json"))
        assert manifest["command"] == "build"
        assert manifest["seed"] == 3
        assert manifest["config"]["budget"] == 25
        assert set(manifest["versions"]) == {"adaleja", "python",
                                             "numpy", "scipy"}
        assert len(manifest["config_sha256"]) == 64
        assert "threads_applied" not in manifest

    def test_report_has_cv_column(self, built):
        _, out = built
        rows = read_rows(os.path.join(out, "report.csv"))
        assert rows[0] == ["iteration", "chosen_index", "indicator",
                           "lu_count", "fb_count", "res_count", "cv_error"]
        # the final record carries the cross-validation error
        assert rows[-1][-1] != ""

    def test_rerun_is_byte_identical(self, built):
        root, out = built
        config = os.path.join(str(root), "config.json")
        again = str(root / "again")
        assert run_command(["build", "--config", config, "--out", again]) == 0
        for name in ("surrogate.json", "report.csv", "manifest.json"):
            first = Path(out, name).read_bytes()
            second = Path(again, name).read_bytes()
            assert first == second

    def test_manifest_reruns_as_config(self, built):
        root, out = built
        replay = str(root / "replay")
        code = run_command(["build", "--config",
                            os.path.join(out, "manifest.json"),
                            "--out", replay])
        assert code == 0
        assert (Path(out, "surrogate.json").read_bytes()
                == Path(replay, "surrogate.json").read_bytes())

    def test_adjoint_stores_vector_surrogates(self, adjoint_built):
        assert sorted(os.listdir(adjoint_built)) == [
            "field.json", "manifest.json", "report.csv", "surrogate.json"]

    def test_adjoint_field_loads_for_correction(self, adjoint_built):
        # the two files load back as the pair corrected_evaluate takes, to the bits
        config = read_json(os.path.join(adjoint_built, "manifest.json"))["config"]
        model = make_model(config["model"])
        dists = [make_distribution(d) for d in config["distributions"]]
        qoi, field, _ = run_adaptive_adjoint(model, AdaptiveConfig(budget=15), dists)
        loaded = [load_surrogate(os.path.join(adjoint_built, name))
                  for name in ("surrogate.json", "field.json")]
        assert loaded[1].value_shape == (2, model.n)
        pts = np.random.default_rng(2).uniform(-1, 1, (20, 2))
        assert np.array_equal(corrected_evaluate(*loaded, model, pts),
                              corrected_evaluate(qoi, field, model, pts))

    def test_gpc_writes_decay_table(self, tmp_path):
        config = {
            "model": {"model": "runge", "n_params": 2, "c": 10.0},
            "distributions": BUILD_CONFIG["distributions"],
            "algorithm": "gpc", "p_max": 4, "quadrature": "smolyak",
            "seed": 0,
        }
        path = write_config(tmp_path, config)
        out = str(tmp_path / "run")
        assert run_command(["build", "--config", path, "--out", out]) == 0
        rows = read_rows(os.path.join(out, "decay.csv"))
        assert rows[0] == ["total_degree", "max_abs_coeff"]
        assert len(rows) == 1 + 5
        assert not os.path.exists(os.path.join(out, "report.csv"))
        payload = read_json(os.path.join(out, "surrogate.json"))
        assert payload["kind"] == "gpc"

    def test_distribution_count_mismatch(self, tmp_path, capsys):
        config = dict(BUILD_CONFIG,
                      distributions=BUILD_CONFIG["distributions"][:1])
        path = write_config(tmp_path, config)
        code = run_command(["build", "--config", path,
                            "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert "expects 2 parameters, got 1" in err

    def test_seed_flag_overrides_config(self, tmp_path):
        path = write_config(tmp_path, BUILD_CONFIG)
        # a seed beyond the float range's exact integers is written as given
        for seed in (99, 18446744073709551615):
            out = str(tmp_path / f"run{seed}")
            assert run_command(["build", "--config", path, "--out", out,
                                "--seed", str(seed)]) == 0
            manifest = read_json(os.path.join(out, "manifest.json"))
            assert manifest["seed"] == seed
            assert manifest["config"]["seed"] == seed
            with open(os.path.join(out, "manifest.json")) as handle:
                assert f'"seed": {seed},' in handle.read()

    def test_thread_cap_is_recorded(self, tmp_path, monkeypatch):
        # run_command sets these; monkeypatch restores them after the test
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        path = write_config(tmp_path, BUILD_CONFIG)
        out = str(tmp_path / "run")
        assert run_command(["build", "--config", path, "--out", out,
                            "--threads", "2"]) == 0
        manifest = read_json(os.path.join(out, "manifest.json"))
        assert manifest["config"]["threads"] == 2
        assert os.environ["OMP_NUM_THREADS"] == "2"
        # set after numpy loaded its BLAS, so this process is not capped
        assert manifest["threads_applied"] is False
        assert "threads_applied" not in manifest["config"]

    def test_solver_failure_exits_one(self, tmp_path, capsys, monkeypatch):
        class Boom:
            n_params = 2

            def __call__(self, y):
                raise SolveError("synthetic breakdown")

        monkeypatch.setattr("adaleja.cli.make_model", lambda spec: Boom())
        path = write_config(tmp_path, BUILD_CONFIG)
        code = run_command(["build", "--config", path,
                            "--out", str(tmp_path / "o")])
        assert code == 1
        assert "numerical failure" in capsys.readouterr().err

    def test_non_finite_model_exits_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("adaleja.cli.make_model", lambda spec: Holed())
        path = write_config(tmp_path, BUILD_CONFIG)
        out = tmp_path / "o"
        code = run_command(["build", "--config", path, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "numerical failure: non-finite model value" in err
        assert not (out / "surrogate.json").exists()

    def test_non_finite_cv_reference_exits_one(self, tmp_path, capsys, monkeypatch):
        class FirstCallNan:
            """Finite everywhere except on its first call, the first CV point."""

            n_params = 2

            def __init__(self):
                self.calls = 0

            def __call__(self, y):
                self.calls += 1
                return complex("nan") if self.calls == 1 else 1.0 + y[0] * y[1]

        monkeypatch.setattr("adaleja.cli.make_model", lambda spec: FirstCallNan())
        path = write_config(tmp_path, BUILD_CONFIG)
        out = tmp_path / "o"
        code = run_command(["build", "--config", path, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "numerical failure: 1 of 100 reference values are not finite" in err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("first, message", [
        (lambda y: 1.0 / 0.0, "model evaluation failed at a cross-validation point: "
                              ".*division by zero at point"),
        (lambda y: np.array([1.0, 2.0]), r"expected a scalar model, got shape \(2,\) "
                                         r"at a cross-validation point, point"),
    ], ids=["raises", "vector"])
    def test_bad_cv_reference_names_the_point(self, tmp_path, capsys, monkeypatch,
                                              first, message):
        class FirstCallBad:
            """A black box whose first call, the first CV point, is bad."""

            n_params = 2

            def __init__(self):
                self.calls = []

            def __call__(self, y):
                self.calls.append(tuple(y))
                return first(y) if len(self.calls) == 1 else 1.0 + y[0] * y[1]

        model = FirstCallBad()
        monkeypatch.setattr("adaleja.cli.make_model", lambda spec: model)
        path = write_config(tmp_path, BUILD_CONFIG)
        code = run_command(["build", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert re.search("numerical failure: " + message, err)
        assert str(tuple(float(c) for c in model.calls[0])) in err

    def test_cv_reference_is_solved_in_stacks(self, tmp_path, monkeypatch):
        """One gbtrf per adaptive model call, plus one per stack of CV points."""
        from adaleja import linmodel
        factorizations, reports = count_factorizations(monkeypatch), []
        inner = cli.run_adaptive

        def recording(*args, **kwargs):
            result = inner(*args, **kwargs)
            reports.append(result[1])
            return result

        monkeypatch.setattr(cli, "run_adaptive", recording)
        sections, n_cv = 40, 1000
        config = dict(BUILD_CONFIG, budget=40, cv={"n": n_cv, "seed": 11},
                      model=dict(BUILD_CONFIG["model"], sections=sections))
        path = write_config(tmp_path, config)
        assert run_command(["build", "--config", path, "--out", str(tmp_path / "o")]) == 0
        (report,) = reports
        stacks = math.ceil(n_cv * sections / linmodel._STACK_UNKNOWNS)
        assert stacks == math.ceil(n_cv / (linmodel._STACK_UNKNOWNS // sections)) == 3
        assert len(factorizations) == report.lu_count + stacks
        assert factorizations.count(sections) == report.lu_count

    def test_gpc_converge_solves_in_stacks(self, tmp_path, monkeypatch):
        """A gpc converge of a ladder solves each rule's nodes as one stack, as
        build does, after the stacked CV reference."""
        factorizations = count_factorizations(monkeypatch)
        sections, n_cv, sweep = 40, 100, [1, 2, 4]
        config = dict(BUILD_CONFIG, algorithm="gpc", quadrature="tensor", maps=None,
                      sweep=sweep, cv={"n": n_cv, "seed": 11},
                      model=dict(BUILD_CONFIG["model"], sections=sections))
        out = str(tmp_path / "converge")
        assert run_command(["converge", "--config", write_config(tmp_path, config),
                            "--out", out]) == 0
        nodes = [(p + 1) ** 2 for p in sweep]
        assert [int(r[0]) for r in read_rows(os.path.join(out, "report.csv"))[1:]] == nodes
        assert factorizations == [n_cv * sections] + [k * sections for k in nodes]
        factorizations.clear()
        config = dict(config, p_max=sweep[-1], cv=None)
        assert run_command(["build", "--config", write_config(tmp_path, config),
                            "--out", str(tmp_path / "build")]) == 0
        assert factorizations == [nodes[-1] * sections]

    def test_isotropic_report_matches_fit(self, tmp_path):
        config = {
            "model": {"model": "runge", "n_params": 2, "c": 10.0},
            "distributions": BUILD_CONFIG["distributions"],
            "maps": {"map": "sausage", "order": 3},
            "algorithm": "isotropic-smolyak", "level": 4, "seed": 0,
        }
        path = write_config(tmp_path, config)
        out = str(tmp_path / "run")
        assert run_command(["build", "--config", path, "--out", out]) == 0
        rows = read_rows(os.path.join(out, "report.csv"))[1:]
        dists = [make_distribution(d) for d in config["distributions"]]
        index_set = MultiIndexSet.total_degree(2, 4)
        sur = Surrogate.fit(make_model(config["model"]), dists, index_set,
                            make_map(config["maps"]))
        expected = index_set.sorted_indices()
        assert len(rows) == len(expected) == 15
        for k, (row, ix) in enumerate(zip(rows, expected)):
            assert row[:2] == [str(k), " ".join(map(str, ix))]
            assert float(row[2]) == abs(sur.surplus(ix))
            # one model call per node, counted cumulatively
            assert row[3:6] == [str(k + 1), str(k + 1), "0"]

    def test_one_dimension_builds_up_to_the_level_cap(self, tmp_path, capsys):
        config = {"model": {"model": "runge", "n_params": 1, "c": 25.0},
                  "distributions": [{"kind": "uniform", "lower": -1.0, "upper": 1.0}],
                  "algorithm": "adaptive", "budget": 512, "cv": {"n": 20, "seed": 1}}
        out = tmp_path / "o"
        assert run_command(["build", "--config", write_config(tmp_path, config),
                            "--out", str(out)]) == 0
        assert len(load_surrogate(out / "surrogate.json")) == 512
        path = write_config(tmp_path, dict(config, budget=513))
        assert run_command(["build", "--config", path, "--out", str(tmp_path / "p")]) == 1
        assert "dimension 0 cannot reach level 512" in capsys.readouterr().err
        assert not (tmp_path / "p").exists()

    def test_isotropic_non_finite_model_exits_one(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setattr("adaleja.cli.make_model", lambda spec: Holed())
        config = dict(BUILD_CONFIG, algorithm="isotropic-smolyak", level=3)
        path = write_config(tmp_path, config)
        out = tmp_path / "o"
        code = run_command(["build", "--config", path, "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "numerical failure: non-finite model value" in err
        assert not (out / "surrogate.json").exists()


class TestUntracedPaths:
    """CLI branches the other tests never reach."""

    ADJOINT = dict(BUILD_CONFIG, algorithm="adaptive-adjoint", budget=15,
                   maps=None)

    def test_per_iteration_cv(self, tmp_path):
        config = dict(self.ADJOINT, cv={"n": 50, "seed": 5, "per_iteration": True})
        path = write_config(tmp_path, config)
        out = str(tmp_path / "run")
        assert run_command(["build", "--config", path, "--out", out]) == 0
        rows = read_rows(os.path.join(out, "report.csv"))[1:]
        assert len(rows) > 1
        assert all(float(r[-1]) >= 0.0 for r in rows)

    def test_adjoint_converge_counts_lus(self, tmp_path):
        config = dict(self.ADJOINT, sweep=[5, 12], cv={"n": 50, "seed": 5})
        path = write_config(tmp_path, config)
        out = str(tmp_path / "run")
        assert run_command(["converge", "--config", path, "--out", out]) == 0
        rows = read_rows(os.path.join(out, "report.csv"))[1:]
        model = make_model(config["model"])
        dists = [make_distribution(d) for d in config["distributions"]]
        lus = [run_adaptive_adjoint(model, AdaptiveConfig(budget=b),
                                    dists)[2].lu_count for b in (5, 12)]
        assert [int(r[0]) for r in rows] == lus
        assert all(np.isfinite(float(v)) for r in rows for v in r[1:])

    def test_adjoint_on_black_box_exits_two(self, tmp_path, capsys):
        config = dict(self.ADJOINT, model={"model": "runge", "n_params": 2})
        path = write_config(tmp_path, config)
        code = run_command(["build", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert ("invalid field 'algorithm': adaptive-adjoint requires a "
                "linear-system model") in capsys.readouterr().err

    def test_isotropic_cv_on_last_row(self, tmp_path):
        config = dict(BUILD_CONFIG, algorithm="isotropic-smolyak", level=3)
        path = write_config(tmp_path, config)
        out = str(tmp_path / "run")
        assert run_command(["build", "--config", path, "--out", out]) == 0
        rows = read_rows(os.path.join(out, "report.csv"))[1:]
        assert [r[-1] for r in rows[:-1]] == [""] * (len(rows) - 1)
        model = make_model(config["model"])
        dists = [make_distribution(d) for d in config["distributions"]]
        sur = Surrogate.fit(model, dists, MultiIndexSet.total_degree(2, 3),
                            make_map(config["maps"]))
        mean_l1, _ = cv_errors(sur, model, dists, 100, 11)
        assert rows[-1][-1] == f"{mean_l1:.17g}"

    @pytest.mark.parametrize("command, spec", [
        ("converge", {"sweep": [5, 10]}),
        ("build", {"algorithm": "isotropic-smolyak", "level": 2}),
    ])
    def test_per_iteration_false_is_accepted(self, tmp_path, command, spec):
        reports = []
        for cv in ({"n": 50, "seed": 11}, {"n": 50, "seed": 11, "per_iteration": False}):
            path = write_config(tmp_path, dict(BUILD_CONFIG, cv=cv, **spec))
            out = str(tmp_path / f"run{len(reports)}")
            assert run_command([command, "--config", path, "--out", out]) == 0
            reports.append(Path(out, "report.csv").read_bytes())
        assert reports[0] == reports[1]

    def test_cv_fields_are_refused_in_reading_order(self, tmp_path, capsys):
        # n and seed are read before per_iteration, so their message comes first
        for cv, message in (({"n": 0, "per_iteration": True}, "n must be >= 1"),
                            ({"seed": -1, "per_iteration": True}, "seed must be >= 0"),
                            ({"n": 50, "per_iteration": True}, "per_iteration applies")):
            path = write_config(tmp_path, dict(BUILD_CONFIG, sweep=[5, 10], cv=cv))
            assert run_command(["converge", "--config", path,
                                "--out", str(tmp_path / "run")]) == 2
            assert f"invalid field 'cv': {message}" in capsys.readouterr().err

    def test_converge_without_cv_uses_the_default_block(self, tmp_path, monkeypatch):
        # no cv block means n 1000 and seed 10007, as if they were written out
        sizes = []
        sample = cli.sample_joint
        monkeypatch.setattr(cli, "sample_joint",
                            lambda d, n, seed: sizes.append((n, seed)) or sample(d, n, seed))
        reports = []
        for cv in (DROP, {"n": 1000, "seed": 10007}):
            config = {k: v for k, v in dict(BUILD_CONFIG, sweep=[5, 10], cv=cv).items()
                      if v is not DROP}
            out = str(tmp_path / f"run{len(reports)}")
            assert run_command(["converge", "--config", write_config(tmp_path, config),
                                "--out", out]) == 0
            reports.append(Path(out, "report.csv").read_bytes())
        assert sizes == [(1000, 10007)] * 2
        assert reports[0] == reports[1]

    def test_gpc_converge_counts_model_calls(self, tmp_path):
        config = {"model": {"model": "runge", "n_params": 2, "c": 10.0},
                  "distributions": BUILD_CONFIG["distributions"],
                  "algorithm": "gpc", "quadrature": "tensor", "sweep": [1, 2, 4],
                  "cv": {"n": 50, "seed": 5}}
        path = write_config(tmp_path, config)
        out = str(tmp_path / "run")
        assert run_command(["converge", "--config", path, "--out", out]) == 0
        rows = read_rows(os.path.join(out, "report.csv"))[1:]
        assert [int(r[0]) for r in rows] == [(p + 1) ** 2 for p in (1, 2, 4)]

    def test_gpc_build_calls_each_quadrature_node_once(self, tmp_path, monkeypatch):
        # a gpc build computes no cv reference, so it calls the model only
        # at the (p_max + 1)² tensor nodes
        calls = []
        call = RungeProduct.__call__
        monkeypatch.setattr(RungeProduct, "__call__",
                            lambda self, y: calls.append(1) or call(self, y))
        config = {"model": {"model": "runge", "n_params": 2, "c": 10.0},
                  "distributions": BUILD_CONFIG["distributions"],
                  "algorithm": "gpc", "quadrature": "tensor", "p_max": 4}
        path = write_config(tmp_path, config)
        assert run_command(["build", "--config", path, "--out", str(tmp_path / "o")]) == 0
        assert len(calls) == 25

    def test_per_dimension_maps(self, tmp_path, capsys):
        maps = [{"map": "kte", "alpha": 0.5}, {"map": "sausage", "order": 5}]
        path = write_config(tmp_path, dict(BUILD_CONFIG, maps=maps, budget=10))
        out = str(tmp_path / "run")
        assert run_command(["build", "--config", path, "--out", out]) == 0
        assert read_json(os.path.join(out, "surrogate.json"))["maps"] == maps
        path = write_config(tmp_path, dict(BUILD_CONFIG, maps=maps[:1]))
        code = run_command(["build", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 2
        assert ("invalid field 'maps': expected 2 map entries, got 1"
                in capsys.readouterr().err)

    def test_sweep_range(self, tmp_path):
        config = dict(BUILD_CONFIG, sweep={"from": 4, "to": 14, "step": 5},
                      cv={"n": 50, "seed": 5})
        path = write_config(tmp_path, config)
        out = str(tmp_path / "run")
        assert run_command(["converge", "--config", path, "--out", out]) == 0
        rows = read_rows(os.path.join(out, "report.csv"))[1:]
        assert [int(r[0]) for r in rows] == [4, 9, 14]


class TestReadme:
    README = Path(__file__).resolve().parents[1] / "README.md"

    def test_build_row_names_the_files_build_writes(self, tmp_path):
        # the artifacts cell of the README's build row, against what adaptive,
        # gpc and adaptive-adjoint builds write beside their manifest
        row = next(line for line in self.README.read_text().splitlines()
                   if line.startswith("| `build`"))
        named = set(re.findall(r"`([\w.]+\.(?:json|csv))`", row.rsplit("|", 2)[1]))
        written = set()
        for k, spec in enumerate(({}, {"algorithm": "adaptive-adjoint", "maps": None},
                                  {"algorithm": "gpc", "p_max": 2, "maps": None, "cv": None})):
            path = write_config(tmp_path, dict(BUILD_CONFIG, **spec))
            assert run_command(["build", "--config", path, "--out", str(tmp_path / str(k))]) == 0
            written |= set(os.listdir(tmp_path / str(k)))
        assert named == written - {"manifest.json"}


class TestOutput:
    """Only run_command writes, and only what its wrote lines name."""

    ADJOINT = TestUntracedPaths.ADJOINT

    @pytest.mark.parametrize("command, spec", [
        ("stats", {"n_samples": 200}),
        ("sobol", {"n_base": 50}),
        ("kde", {"n_samples": 200, "kde_grid": {"count": 8}}),
        ("resonance", {
            "model": {"model": "ladder", "sections": 10, "damping": 0.1,
                      "n_params": 1, "with_frequency": True},
            "distributions": [{"kind": "uniform", "lower": 0.5, "upper": 1.5},
                              {"kind": "uniform", "lower": -1.0, "upper": 1.0}],
            "resonance": {"f_range": [0.5, 1.5], "n_starts": 3, "n_slices": 2}}),
    ])
    def test_adjoint_study_writes_what_it_names(self, tmp_path, capsys, command, spec):
        path = write_config(tmp_path, dict(self.ADJOINT, **spec))
        out = tmp_path / "run"
        assert run_command([command, "--config", path, "--out", str(out)]) == 0
        named = [line.split(" ", 1)[1] for line in capsys.readouterr().out.splitlines()]
        assert sorted(named) == sorted(str(p) for p in out.iterdir())
        assert sorted(p.name for p in out.iterdir()) == sorted(
            ["manifest.json", f"{'moments' if command == 'stats' else command}.csv"])

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_out_naming_a_file_exits_two(self, tmp_path, capsys, below):
        blocker = tmp_path / "taken"
        blocker.write_text("x")
        path = write_config(tmp_path, {"gain": {"epsilons": [0.5], "n_samples": 64}})
        code = run_command(["gain", "--config", path,
                            "--out", str(blocker / below) if below else str(blocker)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: invalid field 'out_dir': cannot write {blocker}" in err
        assert blocker.read_text() == "x"

    def test_failed_adjoint_build_writes_nothing(self, tmp_path, capsys, monkeypatch):
        class NanReference(LadderModel):
            """A ladder whose first direct call, the first CV point, is NaN."""

            calls = 0

            def __call__(self, y):
                self.calls += 1
                return complex("nan") if self.calls == 1 else super().__call__(y)

        monkeypatch.setattr("adaleja.cli.make_model",
                            lambda spec: NanReference(2, sections=10, damping=0.05))
        path = write_config(tmp_path, self.ADJOINT)
        out = tmp_path / "o"
        code = run_command(["build", "--config", path, "--out", str(out)])
        assert code == 1
        assert "reference values are not finite" in capsys.readouterr().err
        assert not out.exists()


class TestConverge:
    def test_error_decreases_along_sweep(self, tmp_path):
        config = {
            "model": {"model": "runge", "n_params": 2, "c": 10.0},
            "distributions": BUILD_CONFIG["distributions"],
            "algorithm": "adaptive",
            "sweep": [10, 30, 60],
            "cv": {"n": 300, "seed": 21},
            "seed": 0,
        }
        path = write_config(tmp_path, config)
        out = str(tmp_path / "run")
        assert run_command(["converge", "--config", path, "--out", out]) == 0
        rows = read_rows(os.path.join(out, "report.csv"))
        assert rows[0] == ["nodes", "mean_l1", "max_err"]
        nodes = [int(r[0]) for r in rows[1:]]
        mean_l1 = [float(r[1]) for r in rows[1:]]
        assert nodes == sorted(nodes)
        assert mean_l1[-1] < mean_l1[0]


class TestPostProcessing:
    def test_stats_row(self, built, tmp_path):
        _, out = built
        config = write_config(tmp_path, {
            "surrogate": os.path.join(out, "surrogate.json"),
            "n_samples": 5000, "alpha": 0.1, "seed": 7,
        })
        run = str(tmp_path / "run")
        assert run_command(["stats", "--config", config, "--out", run]) == 0
        rows = read_rows(os.path.join(run, "moments.csv"))
        assert rows[0] == ["sample_count", "mean", "std", "alpha",
                           "failure_probability"]
        record = rows[1]
        assert int(record[0]) == 5000
        assert float(record[1]) > 0.0
        assert float(record[3]) == 0.1
        assert 0.0 <= float(record[4]) <= 1.0

    def test_stats_on_gpc_artifact(self, tmp_path):
        build = write_config(tmp_path, {
            "model": {"model": "runge", "n_params": 2, "c": 10.0},
            "distributions": BUILD_CONFIG["distributions"],
            "algorithm": "gpc", "p_max": 3, "seed": 0,
        }, "build.json")
        built_dir = str(tmp_path / "built")
        assert run_command(["build", "--config", build, "--out", built_dir]) == 0
        artifact = os.path.join(built_dir, "surrogate.json")
        config = write_config(tmp_path, {"surrogate": artifact,
                                         "n_samples": 500, "seed": 7})
        run = str(tmp_path / "run")
        assert run_command(["stats", "--config", config, "--out", run]) == 0
        record = read_rows(os.path.join(run, "moments.csv"))[1]
        expansion = GpcExpansion.from_json(Path(artifact).read_bytes())
        stream = np.random.SeedSequence(7).spawn(2)[0]
        summary = mc_moments(expansion, expansion.distributions, 500, stream)
        assert record[1:3] == [f"{summary.mean:.17g}", f"{summary.std:.17g}"]

    @pytest.mark.parametrize("command, field, spec", [
        ("kde", "kde_grid", {"kde_grid": [0.0, 1.0]}),
        ("kde", "kde_grid", {"kde_grid": {"count": "many"}}),
        ("gain", "gain", {"gain": {"epsilons": {"lo": "small"}}}),
        # values that escaped as a traceback
        ("build", "model", {"model": {"model": "runge", "n_params": "one"}}),
        ("build", "cv", {"cv": {"n": 100, "seed": "x"}}),
        ("build", "cv", {"cv": {"n": 100, "seed": -1}}),
        ("converge", "sweep", {"sweep": {"from": "a", "to": 30}}),
        ("converge", "sweep", {"sweep": ["a"]}),
        ("build", "tol", {"tol": "abc"}),
        ("stats", "alpha", {"alpha": "x"}),
        ("kde", "bandwidth", {"bandwidth": "x"}),
        ("gain", "gain", {"gain": {"epsilons": ["a"]}}),
        ("resonance", "resonance", {"resonance": {"f_range": ["a", 1]}}),
        ("stats --seed -1", "seed", {}),
        ("stats", "surrogate", {"surrogate": ["surrogate.json"]}),
        # values that were silently truncated or read as true
        ("build", "budget", {"budget": 2.7}),
        ("build", "budget", {"budget": True}),
        ("build", "seed", {"seed": 1.5}),
        ("build", "cv", {"cv": {"n": 100, "seed": 11, "per_iteration": "false"}}),
        ("build", "model", {"model": {"model": "ladder", "sections": 10,
                                      "n_params": 1, "with_frequency": "false"}}),
        ("build --seed -1", "seed", {}),
        ("build", "out_dir", {"out_dir": 5}),
        # config faults that were reported as numerical failures
        ("build", "tol", {"tol": -1}),
        ("stats", "alpha", {"alpha": 1.5}),
        ("stats", "n_samples", {"n_samples": 1}),
        # component numbers that were coerced: a string or boolean bound,
        # a fractional or string sausage order
        ("build", "distributions", {"distributions": [
            {"kind": "uniform", "lower": "-1", "upper": 1.0},
            {"kind": "uniform", "lower": -1.0, "upper": 1.0}]}),
        ("build", "distributions", {"distributions": [
            {"kind": "uniform", "lower": -1.0, "upper": True},
            {"kind": "uniform", "lower": -1.0, "upper": 1.0}]}),
        ("build", "maps", {"maps": {"map": "sausage", "order": 9.7}}),
        ("build", "maps", {"maps": {"map": "sausage", "order": "9"}}),
        # non-finite component numbers
        ("build", "maps", {"maps": {"map": "kte", "alpha": float("nan")}}),
        ("build", "distributions", {"distributions": [
            {"kind": "uniform", "lower": -1.0, "upper": float("inf")},
            {"kind": "uniform", "lower": -1.0, "upper": 1.0}]}),
        ("build", "budget", {"budget": 10 ** 400}),
        ("gain", "gain", {"gain": {"epsilons": [float("nan")]}}),
        # fields a gpc study would ignore: its projection takes no maps,
        # and its build reports no cv error
        ("build", "cv", {"algorithm": "gpc", "p_max": 2, "maps": None}),
        ("build", "maps", {"algorithm": "gpc", "p_max": 2}),
        # refusals no other row reaches; DROP removes the field
        ("build", "algorithm", {"algorithm": DROP}),
        ("build", "algorithm", {"algorithm": "newton"}),
        ("build", "model", {"model": 5}),
        ("build", "distributions", {"distributions": DROP}),
        ("build", "distributions", {"distributions": {"kind": "uniform"}}),
        ("build", "cv", {"cv": 5}),
        ("converge", "sweep", {"sweep": 5}),
        ("resonance", "resonance", {}),
        ("resonance", "resonance", {"resonance": {"f_range": [0.5]}}),
        ("resonance", "resonance", {"resonance": {"f_range": [-2.0, 0.5]}}),
        ("resonance", "distributions", {
            "surrogate": None, "algorithm": "gpc", "p_max": 2,
            "model": {"model": "runge", "n_params": 1},
            "distributions": [{"kind": "uniform", "lower": -1.0, "upper": 1.0}],
            "resonance": {"f_range": [-0.5, 0.5]}}),
        ("gain", "gain", {}),
        ("gain", "gain", {"gain": {"map": {"map": "conformal"}, "epsilons": [0.5]}}),
        ("gain", "gain", {"gain": {"epsilons": 5}}),
        # per_iteration where no accepted step is tracked: it changed nothing
        ("converge", "cv", {"sweep": [5, 10], "cv": PER_ITERATION}),
        ("converge", "cv", {"algorithm": "adaptive-adjoint", "sweep": [5, 10],
                            "cv": PER_ITERATION}),
        ("converge", "cv", {"algorithm": "gpc", "maps": None, "sweep": [1, 2],
                            "cv": PER_ITERATION}),
        ("converge", "cv", {"algorithm": "isotropic-smolyak", "sweep": [1, 2],
                            "cv": PER_ITERATION}),
        ("build", "cv", {"algorithm": "isotropic-smolyak", "level": 2,
                         "cv": PER_ITERATION}),
        # falsy grids that gave the default grid; only absent or null does
        ("kde", "kde_grid", {"kde_grid": False}),
        ("kde", "kde_grid", {"kde_grid": 0}),
        ("kde", "kde_grid", {"kde_grid": []}),
        ("kde", "kde_grid", {"kde_grid": ""}),
        # a kte strength whose singularity radius overflows (alpha ** 2
        # underflowed to a bare ZeroDivisionError)
        ("build", "maps", {"maps": {"map": "kte", "alpha": 1e-320}}),
        ("gain", "gain", {"gain": {"map": {"map": "kte", "alpha": 1e-320},
                                   "epsilons": [0.5]}}),
        # total-degree sets past the size bound, refused before they are built
        ("build", "p_max", {"algorithm": "gpc", "p_max": 1e308, "maps": None, "cv": None}),
        ("build", "p_max", {"algorithm": "gpc", "p_max": 10 ** 20, "maps": None,
                            "cv": None}),
        ("build", "level", {"algorithm": "isotropic-smolyak", "level": 10 ** 6}),
        ("converge", "p_max", {"algorithm": "gpc", "maps": None, "sweep": [1, 10 ** 9]}),
        # counts past their bounds, refused before anything is allocated (each
        # escaped as a MemoryError)
        ("stats", "n_samples", {"n_samples": 10 ** 12}),
        ("kde", "n_samples", {"n_samples": 10 ** 12}),
        ("sobol", "n_base", {"n_base": 10 ** 12}),
        ("build", "cv", {"cv": {"n": 10 ** 12, "seed": 11}}),
        ("gain", "gain", {"gain": {"epsilons": [0.5], "n_samples": 10 ** 12}}),
        ("kde", "kde_grid", {"kde_grid": {"count": 10 ** 12}}),
        ("gain", "gain", {"gain": {"epsilons": {"count": 10 ** 12}}}),
        ("converge", "sweep", {"sweep": {"from": 1, "to": 10 ** 12}}),
        ("converge", "sweep", {"sweep": {"from": 5, "to": 10 ** 18, "step": 10 ** 6}}),
        ("resonance", "resonance", {"resonance": {"f_range": [-0.5, 0.5],
                                                  "n_starts": 10 ** 12}}),
        ("resonance", "resonance", {"resonance": {"f_range": [-0.5, 0.5],
                                                  "n_slices": 10 ** 12}}),
    ])
    def test_bad_range_exits_two(self, built, tmp_path, capsys, command, field, spec):
        _, out = built
        command, *flags = command.split()
        if command in ("build", "converge"):
            base = BUILD_CONFIG
        else:
            base = {"surrogate": os.path.join(out, "surrogate.json"), "n_samples": 100}
        config = write_config(tmp_path, {key: value for key, value
                                         in dict(base, **spec).items()
                                         if value is not DROP})
        code = run_command([command, "--config", config,
                            "--out", str(tmp_path / "run"), *flags])
        assert code == 2
        assert f"invalid field '{field}'" in capsys.readouterr().err

    def test_converge_checks_every_entry_first(self, tmp_path, capsys, monkeypatch):
        # a sweep entry past the size bound refuses the study before the CV
        # reference or the first projection is computed
        called = []
        monkeypatch.setattr(cli, "project", lambda *a, **k: called.append("project"))
        monkeypatch.setattr(cli, "_reference_values", lambda *a, **k: called.append("reference"))
        config = write_config(tmp_path, dict(BUILD_CONFIG, algorithm="gpc", maps=None,
                                             sweep=[1, 10 ** 9]))
        code = run_command(["converge", "--config", config, "--out", str(tmp_path / "run")])
        assert code == 2
        assert "invalid field 'p_max': p_max 1000000000 gives more than" in (
            capsys.readouterr().err)
        assert called == []

    @pytest.mark.parametrize("command, field, spec", [
        ("resonance", "resonance", {}),
        ("resonance", "resonance", {"resonance": {"f_range": [1.2, 0.8]}}),
        ("resonance", "resonance", {"resonance": {"f_range": [-0.5, 0.5],
                                                  "n_starts": 0}}),
        ("kde", "kde_grid", {"kde_grid": 5}),
        ("kde", "kde_grid", {"kde_grid": {"count": 1}}),
        ("kde", "kde_grid", {"kde_grid": {"lo": 0.5, "hi": 0.2}}),
    ])
    def test_blocks_are_checked_before_the_build(self, tmp_path, capsys, monkeypatch,
                                                 command, field, spec):
        builds = []
        inner = cli.run_adaptive

        def counted(*args, **kwargs):
            builds.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(cli, "run_adaptive", counted)
        config = write_config(tmp_path, dict(BUILD_CONFIG, **spec))
        code = run_command([command, "--config", config, "--out", str(tmp_path / "run")])
        assert code == 2
        assert f"invalid field '{field}'" in capsys.readouterr().err
        assert builds == []

    def test_corrupt_artifact_names_its_path(self, built, tmp_path, capsys):
        artifact = tmp_path / "broken.json"
        artifact.write_bytes(b"{not json")
        config = write_config(tmp_path, {"surrogate": str(artifact)})
        code = run_command(["stats", "--config", config,
                            "--out", str(tmp_path / "run")])
        assert code == 2
        assert f"{artifact}: invalid JSON" in capsys.readouterr().err
        # valid JSON with a node that is no number, or indices that are no list
        _, out = built
        with open(os.path.join(out, "surrogate.json")) as handle:
            good = json.load(handle)
        for field, value in (("nodes1d", [["a"], good["nodes1d"][1]]), ("indices", 5)):
            artifact.write_text(json.dumps(dict(good, **{field: value})))
            code = run_command(["stats", "--config", config,
                                "--out", str(tmp_path / "run")])
            assert code == 2
            assert f"config error: {artifact}: " in capsys.readouterr().err

    def test_sobol_rows(self, built, tmp_path):
        _, out = built
        config = write_config(tmp_path, {
            "surrogate": os.path.join(out, "surrogate.json"),
            "n_base": 2000, "seed": 5,
        })
        run = str(tmp_path / "run")
        assert run_command(["sobol", "--config", config, "--out", run]) == 0
        rows = read_rows(os.path.join(run, "sobol.csv"))
        assert rows[0] == ["parameter", "main", "total"]
        assert [r[0] for r in rows[1:]] == ["0", "1"]
        for record in rows[1:]:
            assert -0.5 <= float(record[1]) <= 1.5

    def test_kde_grid(self, built, tmp_path):
        _, out = built
        config = write_config(tmp_path, {
            "surrogate": os.path.join(out, "surrogate.json"),
            "n_samples": 2000, "seed": 7, "kde_grid": {"count": 32},
        })
        run = str(tmp_path / "run")
        assert run_command(["kde", "--config", config, "--out", run]) == 0
        rows = read_rows(os.path.join(run, "kde.csv"))
        assert rows[0] == ["T", "density"]
        assert len(rows) == 1 + 32
        assert all(float(r[1]) >= 0.0 for r in rows[1:])
        # null, like an absent field, means the default grid
        config = write_config(tmp_path, {
            "surrogate": os.path.join(out, "surrogate.json"),
            "n_samples": 2000, "seed": 7, "kde_grid": None,
        })
        assert run_command(["kde", "--config", config, "--out", run]) == 0
        assert len(read_rows(os.path.join(run, "kde.csv"))) == 1 + 512

    @pytest.mark.parametrize("command", ["stats", "sobol", "kde"])
    def test_vector_surrogate_exits_two(self, adjoint_built, tmp_path, capsys, command):
        # a field surrogate has one (2, width) pair per point: every
        # sampling command refuses it as a bad config, before sampling
        field = os.path.join(adjoint_built, "field.json")
        width = len(read_json(field)["surpluses_re"][0][0])
        path = write_config(tmp_path, {"surrogate": field, "n_samples": 100,
                                       "n_base": 100})
        code = run_command([command, "--config", path, "--out", str(tmp_path / "run")])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid field 'surrogate'" in err
        assert f"holds values of shape (2, {width}), not one scalar" in err

    def test_resonance_slices(self, tmp_path):
        config = {
            "model": {"model": "ladder", "sections": 10, "damping": 0.1,
                      "n_params": 1, "with_frequency": True},
            "distributions": [
                {"kind": "uniform", "lower": 0.5, "upper": 1.5},
                {"kind": "uniform", "lower": -1.0, "upper": 1.0},
            ],
            "algorithm": "adaptive",
            "budget": 60,
            "resonance": {"f_range": [0.5, 1.5], "n_starts": 7,
                          "n_slices": 5},
            "seed": 2,
        }
        path = write_config(tmp_path, config)
        out = str(tmp_path / "run")
        code = run_command(["resonance", "--config", path, "--out", out])
        assert code == 0
        rows = read_rows(os.path.join(out, "resonance.csv"))
        assert rows[0] == ["fRes", "sRes"]
        assert len(rows) == 1 + 5
        for record in rows[1:]:
            assert 0.5 <= float(record[0]) <= 1.5
            assert float(record[1]) >= 0.0

    def test_gain_sweep(self, tmp_path):
        config = {"gain": {
            "map": {"map": "sausage", "order": 9},
            "epsilons": {"lo": 0.1, "hi": 0.5, "count": 3},
            "n_samples": 512,
        }}
        path = write_config(tmp_path, config)
        out = str(tmp_path / "run")
        assert run_command(["gain", "--config", path, "--out", out]) == 0
        rows = read_rows(os.path.join(out, "gain.csv"))
        assert rows[0] == ["epsilon", "gain"]
        eps = [float(r[0]) for r in rows[1:]]
        assert eps == pytest.approx([0.1, 0.3, 0.5])
        assert all(float(r[1]) > 0.0 for r in rows[1:])
