"""The example scripts run end to end and write their CSV outputs; the BENCH
and pair scripts refuse failing benchmark runs, a BENCH file names the tree
it measured and runs the workloads its BENCHMARK.json lists, and the pair
script gives a verdict per metric (its rule and loop are tested in-process,
with one run against stub checkouts); the solve digest repeats."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "name, args, csvs",
    [
        ("synthetic_study.py", ["--seeds", "1"],
         ["recovery.csv", "delta_sweep.csv", "roc.csv"]),
        ("redistricting_demo.py", [],
         ["nodes.csv", "edges.csv", "plan_base.csv", "compare/weight_heatmap.csv",
          "matrix/plan_distances.csv", "cluster/plan_distances.csv"]),
    ],
)
def test_script_writes_its_csvs(tmp_path, name, args, csvs):
    out = tmp_path / "out"
    proc = run_script(name, *args, "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    for csv in csvs:
        lines = (out / csv).read_text().splitlines()
        assert len(lines) >= 2, csv  # a header and at least one row


STUB_RUN = textwrap.dedent("""
    import json, sys
    workload = sys.argv[sys.argv.index("--workload") + 1]
    trace = sys.argv[sys.argv.index("--trace") + 1]
    print(json.dumps({"environment": {"python": "stub"}}))
    correct = not (workload == "pairwise-q1-pool" and trace == "1")
    print(json.dumps({"correct": correct, "attempted": 1, "failed": int(not correct),
                      "metrics": {}}))
""")


def write_benchmark(root, workloads=None, run_seconds=None):
    """Copy this checkout's BENCHMARK.json to ``root``, with other workload
    names or run length where given."""

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if workloads is not None:
        bench["workloads"] = [{"name": name, "why": "stub"} for name in workloads]
    if run_seconds is not None:
        bench["run_seconds"] = run_seconds
    (root / "BENCHMARK.json").write_text(json.dumps(bench))


def test_bench_json_refuses_an_incorrect_run(tmp_path):
    # A checkout whose benchmark reports every run correct but the last.
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(STUB_RUN)
    write_benchmark(tmp_path)
    tag = "refused-by-test"
    written = [root / f"BENCH_{tag}.json" for root in (ROOT, tmp_path)]
    try:
        proc = run_script("bench_json.py", tag, "--root", str(tmp_path))
        assert proc.returncode != 0
        assert "pairwise-q1-pool --trace 1" in proc.stderr
        assert not any(path.exists() for path in written)
    finally:
        for path in written:
            path.unlink(missing_ok=True)


PAIR_STUB_RUN = textwrap.dedent("""
    import json, sys
    seed = int(sys.argv[sys.argv.index("--seed") + 1])
    wall = {wall} + {step} * seed
    print(json.dumps({{"environment": {{"python": "stub"}}}}))
    metrics = {{name: {{"value": wall, "unit": "s"}}
               for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}}
    metrics["ok_frac"] = {{"value": 1.0, "unit": "ratio"}}
    print(json.dumps({{"correct": seed != {bad_seed}, "attempted": 1, "failed": 0,
                      "metrics": metrics, "argv": sys.argv[1:]}}))
""")


def stub_checkout(root, wall, bad_seed=-1, step=0.01):
    """A checkout whose runs report ``wall + step * seed`` for every
    end-to-end metric but ``ok_frac``, which is 1."""

    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        PAIR_STUB_RUN.format(wall=wall, bad_seed=bad_seed, step=step)
    )
    write_benchmark(root)
    return root


def load_script(name):
    spec = importlib.util.spec_from_file_location(Path(name).stem, ROOT / "scripts" / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = load_script("bench_pairs.py")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_bench_pairs_summarizes_ten_pairs(tmp_path):
    # The one run against stub checkouts: ten pairs of real subprocesses.
    parent = stub_checkout(tmp_path / "parent", 1.0)
    change = stub_checkout(tmp_path / "change", 0.5)
    proc = run_script("bench_pairs.py", str(parent), str(change), "--workload", "synth-uniform")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 5  # every end-to-end metric
    wall = next(line for line in lines if line.startswith("synth-uniform wall_s:"))
    # Parent values 1.00..1.09: median 1.045, quartiles 1.0175 and 1.0725.
    assert "parent median 1.045 (quartiles 1.0175, 1.0725)" in wall
    assert "change median 0.545, change wins 10/10" in wall
    ok = next(line for line in lines if line.startswith("synth-uniform ok_frac:"))
    assert ok.endswith("change wins 0/10: unresolved")


def verdicts(parent, change):
    """The verdict on every end-to-end metric when each reads ``parent``
    and ``change`` in its pairs, but ``ok_frac``, which is 1 on both."""

    out = {}
    for metric in BENCH["end_to_end"]:
        p, c = (parent, change) if metric["name"] != "ok_frac" else ([1.0] * 10, [1.0] * 10)
        out[metric["name"]] = bench_pairs.compare(p, c, metric["better"], metric["bound"]).verdict
    return out


@pytest.mark.parametrize(
    "wall, step, timed, rss",
    [
        (0.5, 0.01, "gain", "gain"),  # wins 10/10, medians 0.5 apart
        (0.99, 0.01, "unresolved", "unresolved"),  # 10/10, medians inside the quartiles
        (1.2, -0.1, "unresolved", "unresolved"),  # medians 0.295 apart, wins 8/10
        (1.04, 0.01, "unresolved", "unresolved"),  # 3.8% worse: inside every bound
        (1.1, 0.01, "unresolved", "worse"),  # 9.6% worse: beyond the 5% bound only
        (2.0, 0.01, "worse", "worse"),  # 96% worse: beyond every bound
    ],
)
def test_bench_pairs_gives_a_verdict_per_metric(wall, step, timed, rss):
    # Parent values 1.00..1.09: median 1.045, quartiles 1.0175 and 1.0725.
    # The bounds are 0.25 for the three times and 0.05 for peak_rss_mb.
    parent = [1.0 + 0.01 * k for k in range(10)]
    change = [wall + step * k for k in range(10)]
    assert verdicts(parent, change) == {
        "wall_s": timed, "cpu_s": timed, "peak_rss_mb": rss, "ok_frac": "unresolved",
        "setup_s": timed,
    }


@pytest.mark.parametrize("losses, verdict", [(1, "gain"), (2, "unresolved")])
def test_bench_pairs_gain_needs_nine_wins(losses, verdict):
    # The change is 0.5 better in every pair but the last ``losses``.
    parent = [1.0 + 0.01 * k for k in range(10)]
    change = [p - 0.5 if k < 10 - losses else p + 0.5 for k, p in enumerate(parent)]
    c = bench_pairs.compare(parent, change, "lower", 0.25)
    assert (c.wins, c.verdict) == (10 - losses, verdict)


def fake_runs(monkeypatch):
    """Replace the benchmark run with one that reports ``wall + 0.01 *
    seed`` for every metric (wall 1.0 on the parent, 0.5 on the change)
    and records (side, workload, seed) of every call."""

    calls = []

    def run(side, checkout, workload, seed, seconds):
        calls.append((side, workload, seed))
        value = (1.0 if side == "parent" else 0.5) + 0.01 * seed
        return {m["name"]: {"value": value} for m in BENCH["end_to_end"]}

    monkeypatch.setattr(bench_pairs, "run", run)
    return calls


def test_bench_pairs_starts_at_the_first_seed(monkeypatch, capsys):
    calls = fake_runs(monkeypatch)
    bench_pairs.main(["parent", "change", "--first-seed", "10", "--workload", "synth-uniform"])
    # Seeds 10..19, the parent first in even pairs and the change first in odd ones.
    assert calls == [(side, "synth-uniform", 10 + k) for k in range(10)
                     for side in (("parent", "change") if k % 2 == 0 else ("change", "parent"))]
    wall = next(line for line in capsys.readouterr().out.splitlines()
                if line.startswith("synth-uniform wall_s:"))
    # Parent values 1.10..1.19: median 1.145, quartiles 1.1175 and 1.1725.
    assert "parent median 1.145 (quartiles 1.1175, 1.1725)" in wall
    assert "change median 0.645, change wins 10/10" in wall


def test_bench_pairs_runs_only_the_named_workloads(monkeypatch, capsys):
    fake_runs(monkeypatch)
    bench_pairs.main(["parent", "change", "--workload", "pairwise-q1-pool",
                      "--workload", "synth-uniform"])
    # In BENCHMARK.json's order, five end-to-end metrics each.
    workloads = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert workloads == ["synth-uniform"] * 5 + ["pairwise-q1-pool"] * 5


def test_bench_pairs_refuses_an_unknown_workload_before_any_run(monkeypatch, capsys):
    calls = fake_runs(monkeypatch)
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.main(["parent", "change", "--workload", "synth-uniform",
                          "--workload", "no-such-workload"])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert "unknown workload(s) ['no-such-workload']" in err
    assert out == "" and calls == []


def test_bench_pairs_refuses_an_incorrect_run(tmp_path):
    change = stub_checkout(tmp_path / "change", 0.5, bad_seed=3)
    assert bench_pairs.run("change", change, "synth-uniform", 2, 30)["wall_s"]["value"] == 0.52
    with pytest.raises(SystemExit) as exit_:
        bench_pairs.run("change", change, "synth-uniform", 3, 30)
    assert "synth-uniform seed 3 on the change" in str(exit_.value.code)


def git(root, *args):
    return subprocess.run(
        ["git", "-c", "user.name=test", "-c", "user.email=test@example.com", *args],
        cwd=root, capture_output=True, check=True,
    ).stdout


def test_bench_json_records_the_measured_tree(tmp_path):
    root = stub_checkout(tmp_path / "checkout", 1.0)
    git(root, "init", "-q")
    git(root, "add", "-A")
    git(root, "commit", "-q", "-m", "stub")
    tag = "tree-by-test"
    written = ROOT / f"BENCH_{tag}.json"
    try:
        proc = run_script("bench_json.py", tag, "--root", str(root))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(written.read_text())
        assert doc["dirty"] is False
        assert doc["diff_sha256"] == hashlib.sha256(b"").hexdigest()
        assert len(doc["results"]) == 6

        run_py = root / "perfbench" / "run.py"
        run_py.write_text(run_py.read_text() + "# an uncommitted edit\n")
        diff = git(root, "diff", "HEAD")
        assert diff
        proc = run_script("bench_json.py", tag, "--root", str(root))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(written.read_text())
        assert doc["dirty"] is True
        assert doc["diff_sha256"] == hashlib.sha256(diff).hexdigest()
    finally:
        written.unlink(missing_ok=True)


def test_bench_json_runs_the_workloads_of_the_measured_checkout(tmp_path):
    root = stub_checkout(tmp_path / "checkout", 1.0)
    write_benchmark(root, workloads=["second", "first"], run_seconds=7)
    tag = "workloads-by-test"
    written = ROOT / f"BENCH_{tag}.json"
    try:
        proc = run_script("bench_json.py", tag, "--root", str(root))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(written.read_text())
    finally:
        written.unlink(missing_ok=True)
    assert doc["seconds"] == 7
    runs = [(r["workload"], r["trace"]) for r in doc["results"]]
    assert runs == [("second", 0), ("second", 1), ("first", 0), ("first", 1)]
    for result in doc["results"]:
        argv = result["argv"]
        assert argv[argv.index("--workload") + 1] == result["workload"]
        assert argv[argv.index("--seconds") + 1] == "7"


def test_solve_digest_is_repeatable():
    digests = []
    for _ in range(2):
        proc = run_script("solve_digest.py", "--count", "12", "--large", "1", "--synth", "1",
                          "--plans", "1")
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]
