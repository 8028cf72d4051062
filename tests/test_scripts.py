"""The example scripts run end to end and write their CSV outputs; the BENCH
and pair scripts refuse failing benchmark runs, and a BENCH file names the
tree it measured; the solve digest repeats."""

import hashlib
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


def test_bench_json_refuses_an_incorrect_run(tmp_path):
    # A checkout whose benchmark reports every run correct but the last.
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(STUB_RUN)
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
    wall = {wall} + 0.01 * seed
    print(json.dumps({{"environment": {{"python": "stub"}}}}))
    metrics = {{name: {{"value": wall, "unit": "s"}}
               for name in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}}
    metrics["ok_frac"] = {{"value": 1.0, "unit": "ratio"}}
    print(json.dumps({{"correct": seed != {bad_seed}, "attempted": 1, "failed": 0,
                      "metrics": metrics}}))
""")


def stub_checkout(root, wall, bad_seed=-1):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(
        PAIR_STUB_RUN.format(wall=wall, bad_seed=bad_seed)
    )
    return root


def test_bench_pairs_summarizes_ten_pairs(tmp_path):
    parent = stub_checkout(tmp_path / "parent", 1.0)
    change = stub_checkout(tmp_path / "change", 0.5)
    proc = run_script("bench_pairs.py", str(parent), str(change))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3 * 5  # every workload and end-to-end metric
    wall = next(line for line in lines if line.startswith("synth-uniform wall_s:"))
    # Parent values 1.00..1.09: median 1.045, quartiles 1.0175 and 1.0725.
    assert "parent median 1.045 (quartiles 1.0175, 1.0725)" in wall
    assert "change median 0.545, change wins 10/10" in wall
    ok = next(line for line in lines if line.startswith("synth-uniform ok_frac:"))
    assert ok.endswith("change wins 0/10")


def test_bench_pairs_starts_at_the_first_seed(tmp_path):
    # Seeds 10..19 only: the change's bad seed 3 is never run.
    parent = stub_checkout(tmp_path / "parent", 1.0)
    change = stub_checkout(tmp_path / "change", 0.5, bad_seed=3)
    proc = run_script("bench_pairs.py", str(parent), str(change), "--first-seed", "10")
    assert proc.returncode == 0, proc.stderr
    wall = next(line for line in proc.stdout.splitlines()
                if line.startswith("synth-uniform wall_s:"))
    # Parent values 1.10..1.19: median 1.145, quartiles 1.1175 and 1.1725.
    assert "parent median 1.145 (quartiles 1.1175, 1.1725)" in wall
    assert "change median 0.645, change wins 10/10" in wall


def test_bench_pairs_refuses_an_incorrect_run(tmp_path):
    parent = stub_checkout(tmp_path / "parent", 1.0)
    change = stub_checkout(tmp_path / "change", 0.5, bad_seed=3)
    proc = run_script("bench_pairs.py", str(parent), str(change))
    assert proc.returncode != 0
    assert "synth-uniform seed 3 on the change" in proc.stderr
    assert proc.stdout == ""


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


def test_solve_digest_is_repeatable():
    digests = []
    for _ in range(2):
        proc = run_script("solve_digest.py", "--count", "12", "--large", "1", "--synth", "1",
                          "--plans", "1")
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]
