#!/usr/bin/env python3
"""Write perfbench results for every workload, untraced and traced, to BENCH_<tag>.json.

    python3 scripts/bench_json.py TAG [--root CHECKOUT]

Every file uses seed 1 and 30 s runs.  Files written at different times can
differ with the machine's speed, so a change is shown by runs of both commits
made back to back.
A run whose result is not ``correct`` stops the script with a non-zero exit
before anything is written.
"""
import argparse, json, subprocess, sys
from pathlib import Path

SEED = 1
SECONDS = 30.0
parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("tag")
parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                    help="checkout to benchmark (default: this one)")
args = parser.parse_args()
doc = {"seed": SEED, "seconds": SECONDS, "environment": None, "results": []}
for workload in ("synth-uniform", "redistrict-cluster", "pairwise-q1-pool"):
    for trace in (0, 1):
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
               str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
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
