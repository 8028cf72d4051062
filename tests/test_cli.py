"""End-to-end command-line runs through main() with temp directories."""

import importlib.util
import json
import logging
import multiprocessing
import os
import shlex
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import fsfgw
import fsfgw.cli
import oracles
from fsfgw.cli import _build_parser, main
from fsfgw.core import StructuredObject
from fsfgw.pipelines import structured_object_to_dict


def write_object(path, rng, n, d, names=None, a=None):
    obj = StructuredObject(
        C=oracles.random_structure(rng, n),
        a=np.full(n, 1.0 / n) if a is None else a,
        X=rng.normal(0.0, 1.0, (n, d)),
        feature_names=names,
    )
    path.write_text(json.dumps(structured_object_to_dict(obj)))
    return obj


def read_csv_lines(path):
    return path.read_text().strip().splitlines()


def load_perfbench(name):
    """A module of the benchmark harness, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSolveCommand:
    def test_happy_path(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        x = tmp_path / "x.json"
        y = tmp_path / "y.json"
        write_object(x, rng, 5, 3, names=("u", "v", "w"))
        write_object(y, rng, 4, 3)
        out = tmp_path / "out"
        code = main(["solve", str(x), str(y), "--lambda", "0.2", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("objective ")
        assert "converged" in printed

        result = json.loads((out / "result.json").read_text())
        assert result["lambda"] == 0.2
        assert result["objective"] == pytest.approx(
            result["feature_term"] + result["gw_term"] + result["reg_term"], abs=1e-9
        )
        lines = read_csv_lines(out / "weights.csv")
        assert lines[0] == "feature,name,weight,score"
        assert len(lines) == 4
        assert lines[1].startswith("0,u,")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"][0] == "solve"
        assert manifest["config"]["lambda"] == 0.2
        assert manifest["config"]["mode"] == "lasso"
        assert manifest["input_paths"] == [str(x), str(y)]
        assert manifest["seed"] == 0

    def test_defaults_to_a_calibrated_fraction(self, tmp_path):
        rng = np.random.default_rng(1)
        x = tmp_path / "x.json"
        y = tmp_path / "y.json"
        write_object(x, rng, 4, 3)
        write_object(y, rng, 4, 3)
        out = tmp_path / "out"
        assert main(["solve", str(x), str(y), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["lambda"] is None
        assert manifest["config"]["suppression_fraction"] == 0.3

    def test_group_mode_via_groups_file(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        x = tmp_path / "x.json"
        y = tmp_path / "y.json"
        write_object(x, rng, 4, 3)
        write_object(y, rng, 5, 3)
        gpath = tmp_path / "groups.json"
        gpath.write_text("[[0, 1], [2]]")
        out = tmp_path / "out"
        code = main(
            ["solve", str(x), str(y), "--mode", "group_simplex",
             "--groups", str(gpath), "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        result = json.loads((out / "result.json").read_text())
        w = result["weights"]
        assert w in ([1.0, 1.0, 0.0], [0.0, 0.0, 1.0])

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        x = tmp_path / "x.json"
        y = tmp_path / "y.json"
        write_object(x, rng, 4, 3)
        write_object(y, rng, 4, 3)
        out = tmp_path / "out"
        argv = ["solve", str(x), str(y), "--f", "0.4", "--out", str(out)]
        assert main(argv) == 0
        first = {
            p.name: p.read_bytes() for p in out.iterdir()
        }
        assert main(argv) == 0
        capsys.readouterr()
        second = {p.name: p.read_bytes() for p in out.iterdir()}
        assert first == second


class TestSolveValidationErrors:
    def write_pair(self, tmp_path, d_y=3):
        rng = np.random.default_rng(4)
        x = tmp_path / "x.json"
        y = tmp_path / "y.json"
        write_object(x, rng, 4, 3)
        write_object(y, rng, 4, d_y)
        return x, y

    def assert_error_json(self, capsys, code, expect_code):
        assert code == expect_code
        err = capsys.readouterr().err.strip()
        doc = json.loads(err)
        assert set(doc) == {"error", "message"}
        return doc

    def test_level_conflicts_with_simplex_mode(self, tmp_path, capsys):
        x, y = self.write_pair(tmp_path)
        code = main(["solve", str(x), str(y), "--mode", "simplex",
                     "--lambda", "1.0", "--out", str(tmp_path / "o")])
        doc = self.assert_error_json(capsys, code, 2)
        assert doc["error"] == "InvalidConfig"

    def test_group_mode_requires_groups(self, tmp_path, capsys):
        x, y = self.write_pair(tmp_path)
        code = main(["solve", str(x), str(y), "--mode", "group_simplex",
                     "--out", str(tmp_path / "o")])
        self.assert_error_json(capsys, code, 2)

    def test_non_integral_group_indices(self, tmp_path, capsys):
        x, y = self.write_pair(tmp_path)
        gpath = tmp_path / "groups.json"
        # JSON true is a Python int: it must not be read as feature 1.
        for groups in ("[[0.7], [1.2], [2]]", "[[true, false], [2]]"):
            gpath.write_text(groups)
            code = main(["solve", str(x), str(y), "--mode", "group_simplex",
                         "--groups", str(gpath), "--out", str(tmp_path / "o")])
            doc = self.assert_error_json(capsys, code, 2)
            assert doc["error"] == "InvalidPartition"
        assert not (tmp_path / "o" / "result.json").exists()

    @pytest.mark.parametrize(
        "fault",
        [
            {"a": "uniformm"},
            {"edges": [[0, 1, 2]], "structure": "geodesic"},
            {"n": 0, "a": "uniform"},
            {"n": 99},
            {"feature_names": 5},
        ],
        ids=["measure", "edge", "no-nodes", "wrong-n", "names"],
    )
    def test_bad_object_field(self, tmp_path, capsys, fault):
        x, y = self.write_pair(tmp_path)
        doc = json.loads(y.read_text())
        if "edges" in fault:
            del doc["C"]
        y.write_text(json.dumps({**doc, **fault}))
        code = main(["solve", str(x), str(y), "--out", str(tmp_path / "o")])
        doc = self.assert_error_json(capsys, code, 2)
        assert doc["error"] == "InvalidObjectFile"
        assert str(y) in doc["message"]

    def test_infinite_lambda(self, tmp_path, capsys):
        x, y = self.write_pair(tmp_path)
        code = main(["solve", str(x), str(y), "--mode", "lasso", "--lambda", "inf",
                     "--out", str(tmp_path / "o")])
        doc = self.assert_error_json(capsys, code, 2)
        assert doc["error"] == "InvalidConfig"
        assert not (tmp_path / "o" / "result.json").exists()

    def test_negative_seed(self, tmp_path, capsys):
        code = main(["synthetic", "recover", "--seed", "-1", "--out", str(tmp_path / "o")])
        doc = self.assert_error_json(capsys, code, 2)
        assert doc["error"] == "InvalidConfig"
        assert "seed" in doc["message"]

    @pytest.mark.parametrize("command", [
        ["solve", "x.json", "y.json"], ["pairwise", "objects"],
        ["redistrict", "compare", "n.csv", "e.csv", "p.csv", "q.csv"],
        ["redistrict", "matrix", "n.csv", "e.csv", "p.csv"],
        ["redistrict", "cluster", "n.csv", "e.csv", "p.csv"],
    ], ids=lambda command: "-".join(command[:2]))
    def test_seed_is_a_usage_error_outside_synthetic(self, tmp_path, capsys, command):
        # The seed only draws restart plans, and the CLI runs no restarts.
        assert main([*command, "--seed", "1", "--out", str(tmp_path / "o")]) == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_missing_input_file(self, tmp_path, capsys):
        x, _ = self.write_pair(tmp_path)
        code = main(["solve", str(x), str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o")])
        doc = self.assert_error_json(capsys, code, 2)
        assert doc["error"] == "FileNotFoundError"

    def test_feature_count_mismatch(self, tmp_path, capsys):
        x, y = self.write_pair(tmp_path, d_y=2)
        code = main(["solve", str(x), str(y), "--out", str(tmp_path / "o")])
        doc = self.assert_error_json(capsys, code, 2)
        assert doc["error"] == "DimensionMismatch"

    def test_malformed_json(self, tmp_path, capsys):
        x, y = self.write_pair(tmp_path)
        y.write_text("{not json")
        code = main(["solve", str(x), str(y), "--out", str(tmp_path / "o")])
        self.assert_error_json(capsys, code, 2)

    def test_direct_contraction_beyond_the_cap_is_a_solver_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # n * m = 10,201 at q = 1: the FGW problem refuses it when built,
        # before any transport LP is solved.
        lps = []
        monkeypatch.setattr(fsfgw.fgw, "solve_emd", lambda *args, **kwargs: lps.append(1))
        rng = np.random.default_rng(6)
        x, y = tmp_path / "x.json", tmp_path / "y.json"
        write_object(x, rng, 101, 2)
        write_object(y, rng, 101, 2)
        code = main(["solve", str(x), str(y), "--q", "1", "--out", str(tmp_path / "o")])
        doc = self.assert_error_json(capsys, code, 3)
        assert doc["error"] == "InstanceTooLarge"
        assert lps == []
        assert not (tmp_path / "o" / "result.json").exists()

    def test_usage_error_from_the_parser(self, capsys):
        assert main(["solve"]) == 2
        capsys.readouterr()

    def test_removed_norm_is_a_usage_error(self, tmp_path, capsys):
        x, y = self.write_pair(tmp_path)
        code = main(["solve", str(x), str(y), "--norm", "per_pair",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "invalid choice" in capsys.readouterr().err


def test_each_exported_error_has_its_exit_code(tmp_path, capsys, monkeypatch):
    # Exit 3 is a SolverError: a solver that could not finish on valid input.
    solver = {"SolverError", "Infeasible", "NumericalFailure", "InstanceTooLarge",
              "DisconnectedAfterRetries"}
    exported = {name for name in fsfgw.__all__ if isinstance(getattr(fsfgw, name), type)
                and issubclass(getattr(fsfgw, name), fsfgw.FsfgwError)}
    assert solver < exported and "InvalidBasis" in exported
    for name in sorted(exported):
        def planted(path, error=getattr(fsfgw, name)):
            raise error("planted")

        monkeypatch.setattr(fsfgw.cli, "load_structured_object", planted)
        code = main(["solve", "x.json", "y.json", "--out", str(tmp_path / "o")])
        doc = json.loads(capsys.readouterr().err)
        assert (doc["error"], code) == (name, 3 if name in solver else 2)


def test_package_exports_each_submodules_all():
    submodules = ("core", "fgw", "pipelines", "suppression", "transport")
    declared = {name for m in submodules for name in getattr(fsfgw, m).__all__}
    assert set(fsfgw.__all__) == declared | set(submodules)
    assert fsfgw.check_partition is fsfgw.core.check_partition


@pytest.mark.parametrize(
    "flags",
    [
        [],
        ["--alpha", "0.3", "--q", "1", "--mode", "group_simplex", "--lambda", "0.2",
         "--f", "0.4", "--groups", "g.json", "--norm", "none", "--max-outer-iter", "7",
         "--workers", "2", "--out", "o"],
    ],
    ids=["defaults", "every-flag"],
)
def test_plan_matrix_commands_parse_the_same_flags(flags):
    parsed = []
    for command in ("matrix", "cluster"):
        argv = ["redistrict", command, "n.csv", "e.csv", "p.csv", "q.csv", *flags]
        doc = vars(_build_parser().parse_args(argv))
        assert doc.pop("redistrict_command") == command
        assert doc.pop("func") is getattr(fsfgw.cli, f"cmd_redistrict_{command}")
        parsed.append(doc)
    assert parsed[0] == parsed[1]
    assert parsed[0]["plans"] == ["p.csv", "q.csv"]
    assert {"alpha", "q", "mode", "lam", "fraction", "groups", "norm", "max_outer_iter",
            "seed", "workers", "out"} < set(parsed[0])


@pytest.mark.parametrize("command", ["solve", "pairwise", "redistrict cluster"])
def test_non_partitioning_groups_exit_2_from_every_command(tmp_path, capsys, command):
    # Groups [0] and [1] leave feature 2 out of the three or four features.
    groups = tmp_path / "groups.json"
    groups.write_text("[[0], [1]]")
    rng = np.random.default_rng(11)
    objects = tmp_path / "objects"
    objects.mkdir()
    for name in ("x", "y"):
        write_object(objects / f"{name}.json", rng, 4, 3)
    inputs = {
        "solve": [str(objects / "x.json"), str(objects / "y.json")],
        "pairwise": [str(objects)],
        "redistrict cluster": [str(p) for p in oracles.write_planted_plan_csvs(tmp_path)],
    }[command]
    code = main([*command.split(), *inputs, "--mode", "group_simplex",
                 "--groups", str(groups), "--out", str(tmp_path / "o")])
    doc = json.loads(capsys.readouterr().err)
    assert (code, doc["error"]) == (2, "InvalidPartition")
    assert not (tmp_path / "o").exists()


def test_readme_quickstart_lines_parse():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text()
    block = text.split("## CLI quickstart", 1)[1].split("```")[1]
    lines = [ln for ln in block.splitlines() if ln.startswith("fsfgw ")]
    assert len(lines) >= 8
    parser = _build_parser()
    for line in lines:
        args = parser.parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


class TestSyntheticCommands:
    def test_recover(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["synthetic", "recover", "--n", "16", "--d", "6", "--k", "2",
             "--radius", "0.45", "--f", "0.3", "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("separation ")
        lines = read_csv_lines(out / "weights.csv")
        assert lines[0] == "feature,name,weight,score,differentiating"
        assert len(lines) == 7
        flags = [line.split(",")[-1] for line in lines[1:]]
        assert flags == ["1", "1", "0", "0", "0", "0"]

    def test_delta_sweep(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["synthetic", "delta-sweep", "--n", "16", "--d", "6", "--k", "2",
             "--radius", "0.45", "--deltas", "0.5,2.0",
             "--modes", "lasso,simplex", "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        lines = read_csv_lines(out / "sweep.csv")
        assert lines[0] == "delta,mode,separation"
        body = [line.split(",") for line in lines[1:]]
        assert [(row[0], row[1]) for row in body] == [
            ("0.5", "lasso"), ("0.5", "simplex"), ("2", "lasso"), ("2", "simplex")
        ]

    def test_delta_sweep_manifest_records_each_mode_config(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["synthetic", "delta-sweep", "--n", "16", "--d", "6", "--k", "2",
             "--radius", "0.45", "--deltas", "1.0", "--modes", "lasso",
             "--max-outer-iter", "1", "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        configs = json.loads((out / "manifest.json").read_text())["config"]
        assert [(c["mode"], c["max_outer_iter"]) for c in configs] == [("lasso", 1)]

    def test_delta_range_syntax(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["synthetic", "delta-sweep", "--n", "16", "--d", "6", "--k", "2",
             "--radius", "0.45", "--deltas", "0.0:2.0:3",
             "--modes", "simplex", "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        lines = read_csv_lines(out / "sweep.csv")
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]

    @pytest.mark.parametrize("flag, field", [("--radius", "geo_radius"), ("--delta", "delta")])
    def test_invalid_spec_is_a_validation_error(self, tmp_path, capsys, flag, field):
        code = main(["synthetic", "recover", flag, "nan", "--out", str(tmp_path / "o")])
        assert code == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"] == "InvalidConfig"
        assert field in doc["message"]

    @pytest.mark.parametrize("command", [["recover"], ["delta-sweep", "--deltas", "1.0"]])
    @pytest.mark.parametrize("k", ["0", "6"])
    def test_empty_or_full_planted_set_is_rejected_before_any_solve(
        self, tmp_path, capsys, monkeypatch, command, k
    ):
        monkeypatch.setattr(fsfgw.cli, "solve_fsfgw", pytest.fail)
        code = main(["synthetic", *command, "--n", "16", "--d", "6", "--k", k,
                     "--radius", "0.45", "--out", str(tmp_path / "o")])
        assert code == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert (doc["error"], doc["message"]) == (
            "EmptySet", f"--k must lie strictly between 0 and --d = 6, got {k}"
        )

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["delta-sweep", "--modes", "lasso,bogus"], ["'bogus'"]),
            (["delta-sweep", "--modes", ","], ["--modes"]),
            (["delta-sweep", "--modes", "lasso", "--deltas", ","], ["--deltas"]),
            (["delta-sweep", "--deltas", "1,a"], ["--deltas", "'a'"]),
            (["delta-sweep", "--deltas", "0:1:2.5"], ["--deltas", "'2.5'", "integer"]),
            (["delta-sweep", "--deltas", "0:b:3"], ["--deltas", "'b'"]),
            (["roc", "--fracs", "0.2,a"], ["--fracs", "'a'"]),
            (["delta-sweep", "--modes", "lasso", "--deltas", "1,-1"], ["delta", "-1"]),
        ],
        ids=["bogus", "no-mode", "no-delta", "bad-delta", "bad-delta-count",
             "bad-delta-stop", "bad-fraction", "negative-delta"],
    )
    def test_bad_mode_list(self, tmp_path, capsys, monkeypatch, flags, named):
        # Every listed value is checked before a pair is drawn or --out made.
        monkeypatch.setattr(fsfgw.cli, "generate_synthetic_pair", pytest.fail)
        monkeypatch.setattr(fsfgw.cli, "solve_fsfgw", pytest.fail)
        monkeypatch.setattr(fsfgw.cli, "roc_sweep", pytest.fail)
        code = main(["synthetic", *flags, "--out", str(tmp_path / "o")])
        assert code == 2
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "InvalidConfig"
        assert all(part in doc["message"] for part in named), doc["message"]
        assert not (tmp_path / "o").exists()

    def test_roc(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(
            ["synthetic", "roc", "--n", "16", "--d", "6", "--k", "2",
             "--radius", "0.45", "--fracs", "0.2,0.5", "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("auc ")
        lines = read_csv_lines(out / "roc.csv")
        assert lines[0] == "f,tpr,fpr"
        assert len(lines) == 3

    def test_roc_solves_with_the_config_flags(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["synthetic", "roc", "--n", "16", "--d", "6", "--k", "2", "--radius", "0.45",
                "--fracs", "0.2,0.5", "--out", str(out)]
        assert main(argv + ["--max-outer-iter", "1"]) == 0
        capsys.readouterr()
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["mode"], config["max_outer_iter"]) == ("lasso", 1)
        # A fixed level would make every point of the sweep the same solve.
        assert main(argv + ["--lambda", "0.1"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidConfig"
        # The sweep replaces the fraction at every point of --fracs.
        assert main(argv + ["--f", "0.9"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InvalidConfig"
        assert main(argv + ["--groups", str(tmp_path / "absent.json")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"


class TestPairwiseCommand:
    def make_objects(self, tmp_path, count=3):
        rng = np.random.default_rng(5)
        obj_dir = tmp_path / "objects"
        obj_dir.mkdir()
        for idx in range(count):
            write_object(obj_dir / f"g{idx}.json", rng, 4 + idx, 3)
        return obj_dir

    def test_distance_matrix(self, tmp_path, capsys):
        obj_dir = self.make_objects(tmp_path)
        out = tmp_path / "out"
        code = main(["pairwise", str(obj_dir), "--lambda", "0.2", "--out", str(out)])
        assert code == 0
        capsys.readouterr()
        lines = read_csv_lines(out / "distances.csv")
        assert lines[0] == "id,g0,g1,g2"
        assert len(lines) == 4
        assert lines[1].split(",")[1] == "0"
        wlines = read_csv_lines(out / "pair_weights.csv")
        assert wlines[0] == "id_a,id_b,f0,f1,f2"
        assert len(wlines) == 4

    def test_an_invalid_object_names_its_file(self, tmp_path, capsys):
        obj_dir = self.make_objects(tmp_path)
        doc = json.loads((obj_dir / "g1.json").read_text())
        doc["C"][0][1] += 0.5
        (obj_dir / "g1.json").write_text(json.dumps(doc))
        code = main(["pairwise", str(obj_dir), "--out", str(tmp_path / "o")])
        assert code == 2
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "AsymmetricCost"
        assert err["message"].startswith(f"{obj_dir / 'g1.json'}: C is not symmetric")
        assert not (tmp_path / "o").exists()

    def test_a_lost_helper_is_a_solver_failure(self, tmp_path, capsys, monkeypatch):
        parent, solve = os.getpid(), fsfgw.pipelines.solve_fsfgw

        def exit_in_helper(*args):
            if os.getpid() != parent:
                os._exit(9)
            deadline = time.monotonic() + 30.0  # let the helper claim a task first
            while multiprocessing.active_children() and time.monotonic() < deadline:
                time.sleep(0.01)
            return solve(*args)

        monkeypatch.setattr(fsfgw.pipelines, "solve_fsfgw", exit_in_helper)
        obj_dir = self.make_objects(tmp_path, 4)
        code = main(["pairwise", str(obj_dir), "--workers", "2",
                     "--out", str(tmp_path / "o")])
        assert code == 3
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"] == "ChildProcessError"
        assert "[9]" in doc["message"]
        assert multiprocessing.active_children() == []

    def test_workers_do_not_change_the_output(self, tmp_path, capsys):
        obj_dir = self.make_objects(tmp_path)
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        argv = ["pairwise", str(obj_dir), "--lambda", "0.2"]
        assert main(argv + ["--out", str(serial)]) == 0
        assert main(argv + ["--workers", "2", "--out", str(parallel)]) == 0
        capsys.readouterr()
        assert (serial / "distances.csv").read_bytes() == (
            parallel / "distances.csv"
        ).read_bytes()
        assert (serial / "pair_weights.csv").read_bytes() == (
            parallel / "pair_weights.csv"
        ).read_bytes()

    @pytest.mark.parametrize("count, helpers", [(2, 0), (3, 2)])
    def test_pool_is_capped_at_the_pair_count(
        self, tmp_path, capsys, started_helpers, usable_cpus, count, helpers
    ):
        usable_cpus(64)  # so that the pair count is the binding cap
        obj_dir = self.make_objects(tmp_path, count)
        code = main(["pairwise", str(obj_dir), "--workers", "64",
                     "--out", str(tmp_path / "o")])
        assert code == 0
        capsys.readouterr()
        # A single pair is solved in-process; no helper is started for it.
        assert len(started_helpers) == helpers
        assert multiprocessing.active_children() == []

    def test_pool_is_capped_at_the_usable_cpus(
        self, tmp_path, capsys, caplog, started_helpers, usable_cpus
    ):
        caplog.set_level(logging.INFO, logger="fsfgw")
        usable_cpus(2)
        obj_dir = self.make_objects(tmp_path, 3)
        code = main(["pairwise", str(obj_dir), "--workers", "64",
                     "--out", str(tmp_path / "o")])
        assert code == 0
        capsys.readouterr()
        # Three pairs on two usable CPUs: the calling process and one helper.
        assert len(started_helpers) == 1
        assert "64 workers capped at 2 usable CPUs" in caplog.messages
        assert multiprocessing.active_children() == []

    def test_empty_directory(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["pairwise", str(empty), "--out", str(tmp_path / "o")])
        assert code == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"] == "InvalidConfig"

    def test_mixed_feature_counts(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        obj_dir = tmp_path / "objects"
        obj_dir.mkdir()
        write_object(obj_dir / "a.json", rng, 4, 3)
        write_object(obj_dir / "b.json", rng, 4, 2)
        code = main(["pairwise", str(obj_dir), "--out", str(tmp_path / "o")])
        assert code == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert (doc["error"], doc["message"]) == (
            "DimensionMismatch", "object 1: feature counts differ: 3 vs 2"
        )


def write_two_precinct_map(
    tmp_path, node_rows="a,1,0.1\nb,1,0.2", edge_rows="a,b", plan_rows="a,1\nb,2"
):
    nodes = tmp_path / "nodes.csv"
    nodes.write_text(f"precinct_id,population,v0\n{node_rows}\n")
    edges = tmp_path / "edges.csv"
    edges.write_text(f"precinct_id_a,precinct_id_b\n{edge_rows}\n")
    plan = tmp_path / "plan.csv"
    plan.write_text(f"precinct_id,district\n{plan_rows}\n")
    return nodes, edges, plan


@pytest.fixture
def started_helpers(monkeypatch):
    """Record every process the engine starts (the calling process runs
    tasks too, so N workers start N - 1 helpers)."""

    started = []
    real_start = multiprocessing.Process.start

    def counting(self):
        started.append(self)
        real_start(self)

    monkeypatch.setattr(multiprocessing.Process, "start", counting)
    return started


class TestRedistrictCommands:
    @pytest.mark.parametrize(
        "rows, bad_file",
        [
            ({"plan_rows": "a,1\nb"}, "plan.csv"),
            ({"edge_rows": "a"}, "edges.csv"),
            ({"plan_rows": "a,1\nb,x"}, "plan.csv, line 3"),
            ({"node_rows": "a,1,0.1\nb,many,0.2"}, "nodes.csv, line 3"),
            ({"node_rows": "a,1,0.1\nb,1,high"}, "nodes.csv, line 3"),
        ],
        ids=["plan", "edges", "plan-district", "nodes-population", "nodes-feature"],
    )
    def test_short_csv_row_is_a_validation_error(self, tmp_path, capsys, rows, bad_file):
        nodes, edges, plan = write_two_precinct_map(tmp_path, **rows)
        code = main(
            ["redistrict", "compare", str(nodes), str(edges), str(plan), str(plan),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"] == "InvalidObjectFile"
        assert bad_file in doc["message"]

    def test_pool_is_capped_at_the_distinct_solves(
        self, tmp_path, capsys, started_helpers, usable_cpus
    ):
        usable_cpus(64)  # so that the distinct solves are the binding cap
        nodes, edges, plan_p, plan_q = oracles.write_planted_plan_csvs(tmp_path)
        code = main(
            ["redistrict", "matrix", str(nodes), str(edges), str(plan_p), str(plan_q),
             str(plan_p), "--workers", "64", "--out", str(tmp_path / "o")]
        )
        assert code == 0
        capsys.readouterr()
        # Three plan pairs, nine matched district pairs, five distinct ones:
        # the calling process and four helpers.
        assert len(started_helpers) == 4

    def test_compare_identical_plans(self, tmp_path, capsys):
        nodes, edges, plan_p, _ = oracles.write_planted_plan_csvs(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["redistrict", "compare", str(nodes), str(edges), str(plan_p), str(plan_p),
             "--lambda", "0.2", "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert printed.startswith("total_distance ")
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["plan_p"] == "p" and doc["plan_q"] == "p"
        assert doc["matching"] == [[1, 1], [2, 2], [3, 3]]
        assert doc["total_distance"] <= 3e-8
        lines = read_csv_lines(out / "weight_heatmap.csv")
        assert lines[0] == "district_pair,v0,v1,v2,v3"
        assert [line.split(",")[0] for line in lines[1:]] == ["1:1", "2:2", "3:3"]
        assert (out / "manifest.json").exists()

    def test_compare_differing_plans(self, tmp_path, capsys):
        nodes, edges, plan_p, plan_q = oracles.write_planted_plan_csvs(tmp_path)
        out = tmp_path / "out"
        code = main(
            ["redistrict", "compare", str(nodes), str(edges), str(plan_p), str(plan_q),
             "--lambda", "0.2", "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        doc = json.loads((out / "comparison.json").read_text())
        assert doc["total_distance"] > 1e-6

    @pytest.mark.parametrize("command", ["compare", "matrix"])
    def test_disconnected_district_is_a_validation_error(self, tmp_path, capsys, command):
        (tmp_path / "nodes.csv").write_text(
            "precinct_id,population,v0\na,1,0.1\nb,1,0.2\nc,1,0.3\nd,1,0.4\n"
        )
        (tmp_path / "edges.csv").write_text(
            "precinct_id_a,precinct_id_b\na,b\nc,d\na,c\nb,d\n"
        )
        # Districts take the grid's diagonals: both induced subgraphs are
        # disconnected.
        (tmp_path / "diag.csv").write_text("precinct_id,district\na,1\nb,2\nc,2\nd,1\n")
        code = main(
            ["redistrict", command, str(tmp_path / "nodes.csv"),
             str(tmp_path / "edges.csv"), str(tmp_path / "diag.csv"),
             str(tmp_path / "diag.csv"), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        doc = json.loads(capsys.readouterr().err.strip())
        assert doc["error"] == "DisconnectedDistrict"

    def test_matrix(self, tmp_path, capsys):
        nodes, edges, plan_p, plan_q = oracles.write_planted_plan_csvs(tmp_path)
        third = tmp_path / "plan_r.csv"
        third.write_text(plan_p.read_text())
        out = tmp_path / "out"
        code = main(
            ["redistrict", "matrix", str(nodes), str(edges),
             str(plan_p), str(plan_q), str(third),
             "--lambda", "0.2", "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        lines = read_csv_lines(out / "plan_distances.csv")
        assert lines[0] == "id,p,q,r"
        assert len(lines) == 4
        grid = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
        assert np.array_equal(grid, grid.T)
        assert grid[0, 2] <= 1e-8  # p and r are the same plan
        assert grid[0, 1] > 1e-6

    def test_cluster(self, tmp_path, capsys):
        nodes, edges, plan_p, plan_q = oracles.write_planted_plan_csvs(tmp_path)
        third = tmp_path / "plan_r.csv"
        third.write_text(plan_p.read_text())
        fourth = tmp_path / "plan_s.csv"
        fourth.write_text(plan_q.read_text())
        out = tmp_path / "out"
        code = main(
            ["redistrict", "cluster", str(nodes), str(edges),
             str(plan_p), str(plan_q), str(third), str(fourth),
             "--lambda", "0.2", "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert len(printed) == 3
        assert all(line.startswith("merge ") for line in printed)
        merges = json.loads((out / "dendrogram.json").read_text())
        assert len(merges) == 3
        assert set(merges[0]) == {"a", "b", "height"}
        # The two copies of each plan pair up before anything else merges.
        first_two = {(m["a"], m["b"]) for m in merges[:2]}
        assert first_two == {(0, 2), (1, 3)}
        assert (out / "plan_distances.csv").exists()

    def test_cluster_workers_do_not_change_the_output(self, tmp_path, capsys):
        nodes, edges, plan_p, plan_q = oracles.write_planted_plan_csvs(tmp_path)
        third = tmp_path / "plan_r.csv"
        third.write_text(plan_p.read_text())
        argv = ["redistrict", "cluster", str(nodes), str(edges),
                str(plan_p), str(plan_q), str(third), "--lambda", "0.2"]
        assert main(argv + ["--out", str(tmp_path / "serial")]) == 0
        assert main(argv + ["--workers", "2", "--out", str(tmp_path / "pool")]) == 0
        capsys.readouterr()
        for name in ("plan_distances.csv", "dendrogram.json"):
            serial = (tmp_path / "serial" / name).read_bytes()
            assert serial == (tmp_path / "pool" / name).read_bytes(), name

    @staticmethod
    def three_plans(tmp_path):
        """The grid fixture's plans p and q plus r, a copy of p: the (q, r)
        comparison meets the district pairs of (p, q) swapped."""
        nodes, edges, plan_p, plan_q = oracles.write_planted_plan_csvs(tmp_path)
        third = tmp_path / "plan_r.csv"
        third.write_text(plan_p.read_text())
        return [str(nodes), str(edges), str(plan_p), str(plan_q), str(third)]

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("command", ["matrix", "cluster"])
    def test_plan_distances_equal_the_direct_route(self, tmp_path, capsys, command, workers):
        paths = self.three_plans(tmp_path)
        argv = ["redistrict", command, *paths, "--lambda", "0.2", "--workers", workers]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        # Every plan pair solved without any reuse.
        config = fsfgw.cli._config_from_args(_build_parser().parse_args(argv))
        graph = fsfgw.load_precinct_graph(paths[0], paths[1])
        plans = [fsfgw.load_plan_csv(path, graph) for path in paths[2:]]
        D = np.zeros((3, 3))
        for i in range(3):
            for j in range(i + 1, 3):
                D[i, j] = D[j, i] = sum(
                    fsfgw.solve_fsfgw(
                        fsfgw.district_object(graph, np.flatnonzero(plans[i].assignment == lp)),
                        fsfgw.district_object(graph, np.flatnonzero(plans[j].assignment == lq)),
                        config,
                    ).objective
                    for lp, lq in fsfgw.match_districts(plans[i], plans[j])
                )
        fsfgw.cli._write_matrix(tmp_path / "expected.csv", ["p", "q", "r"], D)
        expected = (tmp_path / "expected.csv").read_bytes()
        assert (tmp_path / "o" / "plan_distances.csv").read_bytes() == expected

    def test_info_log_says_what_was_reused(self, tmp_path, capsys, caplog):
        caplog.set_level(logging.INFO, logger="fsfgw")
        argv = ["redistrict", "matrix", *self.three_plans(tmp_path), "--lambda", "0.2"]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0
        capsys.readouterr()
        lines = [r.getMessage() for r in caplog.records]
        # p has districts 1, 2, 3 and q shares 1: five distinct districts;
        # (p, q) and (p, r) solve five distinct pairs, and (q, r) reuses them.
        assert lines[-1] == "built 5 of 18 districts and ran 5 of 9 solves"
        assert [line.rsplit(", ", 1)[1] for line in lines[:-1]] == ["solved"] * 3 + [
            "reused", "solved", "solved"] + ["reused"] * 3

    @pytest.mark.parametrize("command", ["matrix", "cluster"])
    def test_reuse_does_not_depend_on_the_workers(self, tmp_path, capsys, caplog, command):
        caplog.set_level(logging.INFO, logger="fsfgw")
        argv = ["redistrict", command, *self.three_plans(tmp_path), "--lambda", "0.2"]
        summaries = []
        for workers in ("1", "2"):
            caplog.clear()
            assert main(argv + ["--workers", workers, "--out", str(tmp_path / workers)]) == 0
            summaries += [r.getMessage() for r in caplog.records
                          if r.getMessage().startswith("built ")]
        capsys.readouterr()
        assert summaries == ["built 5 of 18 districts and ran 5 of 9 solves"] * 2

    def test_matrix_needs_two_plans(self, tmp_path, capsys):
        nodes, edges, plan_p, _ = oracles.write_planted_plan_csvs(tmp_path)
        code = main(
            ["redistrict", "matrix", str(nodes), str(edges), str(plan_p),
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        capsys.readouterr()


@pytest.mark.parametrize("workers", ["0", "-2"])
@pytest.mark.parametrize("command", ["pairwise", "matrix", "cluster"])
def test_workers_below_one_are_a_validation_error(
    tmp_path, capsys, monkeypatch, command, workers
):
    if command == "pairwise":
        obj_dir = tmp_path / "objects"
        obj_dir.mkdir()
        rng = np.random.default_rng(3)
        for k in range(2):
            write_object(obj_dir / f"g{k}.json", rng, 4, 3)
        argv = ["pairwise", str(obj_dir)]
    else:
        nodes, edges, plan_p, plan_q = oracles.write_planted_plan_csvs(tmp_path)
        argv = ["redistrict", command, str(nodes), str(edges), str(plan_p), str(plan_q)]
    # The count is checked before any input is read.
    for module, name in ((fsfgw.cli, "load_structured_object"),
                         (fsfgw.cli, "load_precinct_graph"),
                         (fsfgw.pipelines, "district_object")):
        monkeypatch.setattr(module, name, pytest.fail)
    code = main(argv + ["--workers", workers, "--out", str(tmp_path / "o")])
    assert code == 2
    doc = json.loads(capsys.readouterr().err.strip())
    assert doc == {"error": "InvalidConfig", "message": f"workers must be >= 1, got {workers}"}


def test_bench_tracer_sees_every_layer(tmp_path, capsys):
    """perfbench's tracer wraps package names from outside; a rename or a
    call that bypasses a wrapped name leaves a benchmark layer empty."""
    tracer_module = load_perfbench("tracer")
    workloads = load_perfbench("workloads").WORKLOADS
    cluster, pairwise = workloads["redistrict-cluster"], workloads["pairwise-q1-pool"]
    nodes, edges, plan_p, plan_q = oracles.write_planted_plan_csvs(tmp_path)
    rng = np.random.default_rng(9)
    paths = [tmp_path / f"g{k}.json" for k in range(3)]
    for path in paths:
        write_object(path, rng, 5, 3)
    tracer = tracer_module.Tracer(tmp_path)
    tracer_module.install(tracer)
    try:
        assert tracer.missing == set()
        before = tracer.snapshot()
        argv = ["redistrict", "cluster", str(nodes), str(edges), str(plan_p), str(plan_q)]
        assert fsfgw.cli.main(argv + cluster.flags + ["--out", str(tmp_path / "o")]) == 0
        cluster_calls = tracer_module.difference(tracer.snapshot(), before)["totals"]
        before = tracer.snapshot()
        objects = [fsfgw.load_structured_object(path) for path in paths]
        fsfgw.pairwise_distance_matrix(objects, pairwise.config)
        pairwise_calls = tracer_module.difference(tracer.snapshot(), before)["totals"]
    finally:
        tracer.unwrap()
    capsys.readouterr()
    assert set(cluster.layers) - set(cluster_calls) == set()
    assert set(pairwise.layers) - set(pairwise_calls) == set()


# The test process holds scipy through the oracles, so which modules a run
# loads is seen in a new interpreter.
FRESH_MAIN = textwrap.dedent("""
    import json, sys
    from fsfgw.cli import main
    code = main(json.loads(sys.argv[1]))
    print(json.dumps([code, [m for m in sys.modules if m.split(".")[0] == "scipy"]]))
""")


def fresh_python(code, *args):
    """Run ``code`` in a new interpreter on this checkout's package and
    return its last line of output, read as JSON."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestScipyLoadsOnFirstUse:
    def test_importing_the_package_loads_no_scipy(self):
        code = ("import json, sys, fsfgw, fsfgw.cli; "
                "print(json.dumps([m for m in sys.modules if m.split('.')[0] == 'scipy']))")
        assert fresh_python(code) == []

    @pytest.mark.parametrize("command", ["solve", "pairwise"])
    def test_runs_on_matrix_objects_load_no_scipy(self, tmp_path, command):
        # Dirichlet measures of different sizes: every LP goes through the simplex.
        rng = np.random.default_rng(21)
        obj_dir = tmp_path / "objects"
        obj_dir.mkdir()
        paths = [obj_dir / f"g{k}.json" for k in range(3)]
        for path, n in zip(paths, (6, 5, 7)):
            write_object(path, rng, n, 3, a=rng.dirichlet(np.ones(n)))
        if command == "solve":
            argv = ["solve", str(paths[0]), str(paths[1])]
        else:
            argv = ["pairwise", str(obj_dir), "--workers", "1"]
        argv += ["--lambda", "0.2", "--out", str(tmp_path / "o")]
        assert fresh_python(FRESH_MAIN, json.dumps(argv)) == [0, []]

    def test_uniform_square_lp_loads_no_scipy_module_and_keeps_its_bits(self):
        # The assignment route loads scipy's compiled kernel from its file:
        # no scipy module is imported, and the peak resident set grows by
        # well under the ~45 MB that importing scipy.optimize costs.
        code = textwrap.dedent("""
            import json, resource, sys
            import numpy as np
            from fsfgw import solve_emd
            cost = np.random.default_rng(5).uniform(size=(9, 9))
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            lp = solve_emd(cost, np.full(9, 1 / 9), np.full(9, 1 / 9))
            grown_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
            print(json.dumps([lp.T.tobytes().hex(), lp.value.hex(),
                              [m for m in sys.modules if m.split(".")[0] == "scipy"],
                              grown_kb]))
        """)
        cost = np.random.default_rng(5).uniform(size=(9, 9))
        lp = fsfgw.solve_emd(cost, np.full(9, 1 / 9), np.full(9, 1 / 9))
        T_hex, value_hex, scipy_modules, grown_kb = fresh_python(code)
        assert [T_hex, value_hex, scipy_modules] == [lp.T.tobytes().hex(), lp.value.hex(), []]
        assert grown_kb < 10 * 1024

    @staticmethod
    def assert_fresh_run_loads_no_scipy(tmp_path, capsys, argv, outputs):
        """A new interpreter runs ``argv`` without loading scipy and writes
        the same ``outputs`` as a run in this process."""
        fresh = fresh_python(FRESH_MAIN, json.dumps(argv + ["--out", str(tmp_path / "fresh")]))
        assert fresh == [0, []]
        assert main(argv + ["--out", str(tmp_path / "here")]) == 0
        capsys.readouterr()
        for name in outputs:
            assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()

    def test_synthetic_recover_gives_the_in_process_bits(self, tmp_path, capsys):
        # Uniform measures with n = m: every LP takes the assignment route.
        argv = ["synthetic", "recover", "--n", "16", "--d", "6", "--k", "2",
                "--radius", "0.45", "--f", "0.3"]
        self.assert_fresh_run_loads_no_scipy(tmp_path, capsys, argv, ("weights.csv",))

    def test_redistrict_compare_gives_the_in_process_bits(self, tmp_path, capsys):
        nodes, edges, plan_p, plan_q = oracles.write_planted_plan_csvs(tmp_path)
        argv = ["redistrict", "compare", str(nodes), str(edges), str(plan_p), str(plan_q)]
        self.assert_fresh_run_loads_no_scipy(tmp_path, capsys, argv,
                                             ("comparison.json", "weight_heatmap.csv"))

    def test_redistrict_cluster_gives_the_in_process_bits(self, tmp_path, capsys):
        nodes, edges, plan_p, plan_q = oracles.write_planted_plan_csvs(tmp_path)
        argv = ["redistrict", "cluster", str(nodes), str(edges), str(plan_p), str(plan_q)]
        self.assert_fresh_run_loads_no_scipy(tmp_path, capsys, argv,
                                             ("plan_distances.csv", "dendrogram.json"))

    def test_edge_list_solve_gives_the_in_process_bits(self, tmp_path, capsys):
        # Hop geodesics from edge lists, Dirichlet measures: the simplex route.
        rng = np.random.default_rng(8)
        paths = [tmp_path / "x.json", tmp_path / "y.json"]
        for path, n in zip(paths, (6, 8)):
            edges = [[i, i + 1] for i in range(n - 1)] + [[0, n - 1], [1, n - 2]]
            path.write_text(json.dumps({
                "n": n, "a": rng.dirichlet(np.ones(n)).tolist(),
                "X": rng.normal(size=(n, 3)).tolist(),
                "edges": edges, "structure": "geodesic",
            }))
        argv = ["solve", str(paths[0]), str(paths[1]), "--lambda", "0.2"]
        self.assert_fresh_run_loads_no_scipy(tmp_path, capsys, argv,
                                             ("result.json", "weights.csv"))
