#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py PARENT_DIR [CHANGE_DIR] [--first-seed N]
                                   [--workload NAME ...]

CHANGE_DIR defaults to this checkout, whose BENCHMARK.json names the
workloads, the end-to-end metrics and the run length.  For each workload,
pair k (k = 0..9) runs ``perfbench/run.py --trace 0`` with seed N + k on
both checkouts, the parent first when k is even and the change first when
k is odd.  N is 0 unless ``--first-seed`` sets it, so a claim can be
confirmed on seeds that were not used while writing the change.
``--workload NAME`` (repeatable) restricts the run to the named
workloads; a name BENCHMARK.json does not list exits 2 before any run.  A run
whose result is not ``correct`` stops the script with a non-zero exit.
For every workload and metric it prints the parent's median and
quartiles, the change's median, the number of pairs the change wins
(ties count for neither side) and a verdict (``compare``):

* ``gain``: the change wins at least 9 of the 10 pairs, and its median is
  better than the parent's by more than the parent's quartile spread;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's relative ``bound`` in BENCHMARK.json;
* ``unresolved``: anything else.
"""
import argparse, json, statistics, subprocess, sys
from pathlib import Path
from typing import NamedTuple

PAIRS = 10
GAIN_WINS = 9
ROOT = Path(__file__).resolve().parent.parent


class Comparison(NamedTuple):
    parent_median: float
    q1: float
    q3: float
    change_median: float
    wins: int
    verdict: str


def compare(parent: list[float], change: list[float], better: str, bound: float) -> Comparison:
    """The verdict on one metric from its paired runs (``parent[k]`` and
    ``change[k]`` ran as pair k), where ``better`` is "lower" or "higher"
    and ``bound`` is the relative worsening allowed."""

    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    p_med, c_med = statistics.median(parent), statistics.median(change)
    gained = sign * (p_med - c_med)  # how much better the change's median is
    if wins >= GAIN_WINS and gained > q3 - q1:
        verdict = "gain"
    elif -gained > bound * abs(p_med):
        verdict = "worse"
    else:
        verdict = "unresolved"
    return Comparison(p_med, q1, q3, c_med, wins, verdict)


def run(side: str, checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one untraced run in ``checkout``, the parent or the
    change as ``side`` says; exits if the run is not ``correct``."""

    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if result.get("correct") is not True:
        sys.exit(f"{workload} seed {seed} on the {side}: perfbench reports correct: "
                 f"{result.get('correct')}")
    return result["metrics"]


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?", default=ROOT)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workload", action="append", metavar="NAME")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload:
        unknown = sorted(set(args.workload) - set(workloads))
        if unknown:
            parser.error(f"unknown workload(s) {unknown}; BENCHMARK.json lists {workloads}")
        workloads = [w for w in workloads if w in args.workload]
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for k in range(PAIRS):
            for side in ("parent", "change") if k % 2 == 0 else ("change", "parent"):
                runs[side].append(run(side, getattr(args, side), workload,
                                      args.first_seed + k, bench["run_seconds"]))
        for metric in bench["end_to_end"]:
            name = metric["name"]
            c = compare([r[name]["value"] for r in runs["parent"]],
                        [r[name]["value"] for r in runs["change"]],
                        metric["better"], metric["bound"])
            print(f"{workload} {name}: parent median {c.parent_median:.6g} (quartiles "
                  f"{c.q1:.6g}, {c.q3:.6g}), change median {c.change_median:.6g}, change "
                  f"wins {c.wins}/{PAIRS}: {c.verdict}", flush=True)


if __name__ == "__main__":
    main()
