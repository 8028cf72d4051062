"""The example scripts run end to end and write their CSV outputs; the BENCH
script refuses failing benchmark runs."""

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
