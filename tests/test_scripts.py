"""The example scripts run end to end and write their CSV outputs."""

import os
import subprocess
import sys
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
