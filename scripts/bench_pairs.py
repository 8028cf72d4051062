#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py PARENT_DIR [CHANGE_DIR] [--first-seed N]

CHANGE_DIR defaults to this checkout, whose BENCHMARK.json names the
workloads, the end-to-end metrics and the run length.  For each workload,
pair k (k = 0..9) runs ``perfbench/run.py --trace 0`` with seed N + k on
both checkouts, the parent first when k is even and the change first when
k is odd.  N is 0 unless ``--first-seed`` sets it, so a claim can be
confirmed on seeds that were not used while writing the change.  A run
whose result is not ``correct`` stops the script with a non-zero exit.
For every workload and metric it prints the parent's median and
quartiles, the change's median and the number of pairs the change wins
(ties count for neither side).
"""
import argparse, json, statistics, subprocess, sys
from pathlib import Path

PAIRS = 10
ROOT = Path(__file__).resolve().parent.parent
parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("parent", type=Path)
parser.add_argument("change", type=Path, nargs="?", default=ROOT)
parser.add_argument("--first-seed", type=int, default=0)
args = parser.parse_args()
bench = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(side: str, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    out = subprocess.run(cmd, cwd=getattr(args, side), capture_output=True, text=True,
                         check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if result.get("correct") is not True:
        sys.exit(f"{workload} seed {seed} on the {side}: perfbench reports correct: "
                 f"{result.get('correct')}")
    return result["metrics"]


for workload in (w["name"] for w in bench["workloads"]):
    runs = {"parent": [], "change": []}
    for k in range(PAIRS):
        for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
            runs[side].append(run(side, workload, args.first_seed + k))
    for metric in bench["end_to_end"]:
        name = metric["name"]
        parent = [r[name]["value"] for r in runs["parent"]]
        change = [r[name]["value"] for r in runs["change"]]
        sign = 1.0 if metric["better"] == "lower" else -1.0
        wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
        q1, _, q3 = statistics.quantiles(parent, n=4)
        print(f"{workload} {name}: parent median {statistics.median(parent):.6g} "
              f"(quartiles {q1:.6g}, {q3:.6g}), change median "
              f"{statistics.median(change):.6g}, change wins {wins}/{PAIRS}", flush=True)
