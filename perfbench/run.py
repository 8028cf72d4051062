#!/usr/bin/env python3
"""fsfgw benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The inputs are made from ``--seed`` in a temporary directory
inside the checkout and removed afterwards.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it records the environment.

``--trace 0`` reports the end-to-end metrics.  It starts SESSIONS fresh
processes in turn; each sets up every batch and then measures a share of
the batches for ``--seconds / SESSIONS``.  On a machine whose CPUs differ
in speed from moment to moment, a process keeps the speed of the CPU it
lands on, so spreading the batches over several processes averages that
out.  Set-up time is the median over the processes of the time from
process start to inputs ready.
``--trace 1`` reports the per-layer metrics from one traced process.

This script uses only the standard library; ``session.py`` does the work.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SESSION = HERE / "session.py"
WORKLOADS = ("synth-uniform", "redistrict-cluster", "pairwise-q1-pool")
SESSIONS = 3
PROCESS_LIMIT_S = 150.0


class SessionFailed(Exception):
    pass


def run_session(args, tmp: Path, part: int, parts: int):
    """Start one session process; return (seconds to ready, its result)."""

    cmd = [
        sys.executable, str(SESSION),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds / parts),
        "--trace", str(args.trace),
        "--tmp", str(tmp),
        "--part", str(part),
        "--parts", str(parts),
    ]
    tmp.mkdir()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    watchdog = threading.Timer(PROCESS_LIMIT_S, os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    ready = None
    result = None
    try:
        for line in proc.stdout:
            if not line.startswith("@@perfbench "):
                continue
            kind, _, payload = line[len("@@perfbench "):].partition(" ")
            if kind.strip() == "ready":
                ready = time.perf_counter() - start
            elif kind == "result":
                result = json.loads(payload)
    finally:
        proc.stdout.close()
        code = proc.wait()
        watchdog.cancel()
    if code != 0 or ready is None or result is None:
        raise SessionFailed(f"session exited with code {code}")
    return ready, result


def git_commit() -> str | None:
    """The checked-out commit, read from .git when the checkout has one."""

    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fsfgw" / "__init__.py").is_file():
        print(f"no fsfgw sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        parts = 1 if args.trace else SESSIONS
        sessions = [run_session(args, tmp / f"s{k}", k, parts) for k in range(parts)]
    except SessionFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    results = [result for _, result in sessions]
    env = results[-1]["environment"]
    env["git_commit"] = git_commit()
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    problems = [p for r in results for p in r["problems"] + r.get("selftest_problems", [])]
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if not results[-1]["referenced"]:
        print(f"no reference values for seed {args.seed}; invariants checked only",
              file=sys.stderr)
    if args.trace:
        metrics = results[0]["metrics"]
    else:
        # Each batch ran in one session; every batch's median counts once.
        def per_batch_mean(key):
            return statistics.fmean(v for r in results for v in r[key].values())

        setup = [ready for ready, _ in sessions]
        metrics = {
            "wall_s": {"value": per_batch_mean("wall_s"), "unit": "s"},
            "cpu_s": {"value": per_batch_mean("cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in results), "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        print(f"{args.workload}: {sum(r['runs'] for r in results)} batch runs, setup "
              f"samples {[round(s, 3) for s in setup]}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
