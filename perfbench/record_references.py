#!/usr/bin/env python3
"""Record the reference objectives and weights the benchmark checks against.

    python3 perfbench/record_references.py --seeds 0-19 [--workload NAME ...]

Runs every batch of each named workload (default: all) once per seed and
merges the outcomes into ``perfbench/references.json``.  Record only on a
commit whose results are the accepted baseline: a benchmark run whose
objectives or weights differ from these counts the operation as failed.
A seed that has no entry is checked against the invariants alone.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def record(workload, seed: int) -> list:
    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        batches = workload.prepare(seed, tmp, workload.batches)
        table = []
        for b, batch in enumerate(batches):
            outcomes = []
            for k, (got, problems) in enumerate(workload.results(batch, workload.run(batch))):
                if problems:
                    raise SystemExit(f"{workload.name} seed {seed} batch {b} op {k}: {problems}")
                outcomes.append(got)
            table.append(outcomes)
        return table
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="N or FIRST-LAST")
    parser.add_argument("--workload", action="append", help="repeatable; default all")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    names = args.workload or list(workloads.WORKLOADS)
    recorded = {}
    for name in names:
        for seed in args.seeds:
            recorded.setdefault(name, {})[str(seed)] = record(workloads.WORKLOADS[name], seed)
            print(f"{name} seed {seed}: recorded", file=sys.stderr, flush=True)
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    for name, seeds in recorded.items():
        refs.setdefault(name, {}).update(seeds)
    with open(REFERENCES, "w") as fh:
        json.dump({k: dict(sorted(v.items(), key=lambda kv: int(kv[0])))
                   for k, v in sorted(refs.items())}, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
