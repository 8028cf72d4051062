#!/usr/bin/env python3
"""Write perfbench results for every workload, untraced and traced, to BENCH_<tag>.json.

    python3 scripts/bench_json.py TAG [--root CHECKOUT]

The workloads and the run length (``run_seconds``) come from the measured
checkout's BENCHMARK.json, and every run uses seed 1.  Files written at
different times can differ with the machine's speed, so a change is shown by
runs of both commits made back to back.
The file names the tree it measured: ``dirty`` is whether the checkout had
uncommitted changes (``git status --porcelain``) and ``diff_sha256`` is the
SHA-256 of its ``git diff HEAD``, both read before the runs; both are null
when the checkout is not a git work tree.
A run whose result is not ``correct`` stops the script with a non-zero exit
before anything is written.
"""
import argparse, hashlib, json, subprocess, sys
from pathlib import Path

SEED = 1
parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("tag")
parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="checkout to benchmark (default: this one)")
args = parser.parse_args()
bench = json.loads((args.root / "BENCHMARK.json").read_text())
seconds = bench["run_seconds"]


def git(*argv) -> bytes:
    return subprocess.run(["git", *argv], cwd=args.root, capture_output=True, check=True).stdout


try:
    dirty = bool(git("status", "--porcelain").strip())
    diff_sha256 = hashlib.sha256(git("diff", "--no-ext-diff", "HEAD")).hexdigest()
except (OSError, subprocess.CalledProcessError):
    dirty = diff_sha256 = None
doc = {"seed": SEED, "seconds": seconds, "dirty": dirty, "diff_sha256": diff_sha256,
       "environment": None, "results": []}
for workload in (w["name"] for w in bench["workloads"]):
    for trace in (0, 1):
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
               str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
        out = subprocess.run(cmd, cwd=args.root, capture_output=True, text=True, check=True)
        env_line, result_line = out.stdout.strip().splitlines()[-2:]
        result = json.loads(result_line)
        if result.get("correct") is not True:
            sys.exit(f"{workload} --trace {trace}: perfbench reports correct: "
                     f"{result.get('correct')}; no BENCH file written")
        doc["environment"] = json.loads(env_line)["environment"]
        doc["results"].append({"workload": workload, "trace": trace, **result})
out_path = Path(__file__).resolve().parent.parent / f"BENCH_{args.tag}.json"
out_path.write_text(json.dumps(doc, indent=1) + "\n")
print(out_path)
