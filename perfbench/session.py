"""One benchmark process: set up a workload's inputs, then measure it.

``run.py`` starts this script once per set-up sample.  It prints marker
lines on standard output; anything else there (the CLI's own output) is
ignored by the reader:

    @@perfbench ready            the inputs are generated, written and loaded
    @@perfbench result {...}     measurements and check results

Untraced, every process sets up all batches and measures its share of
them (``--part`` of ``--parts``): it runs them in turn until each ran once
and another run would end after ``--seconds``, and reports each batch's
median wall and CPU time.  Traced, it sets up the first half of the batches, runs each once
untraced and once traced (alternating which goes first), then batch 0
traced a second time, and reports the per-layer totals of set-up plus
the first traced run of each batch.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import tracer as tr

ROOT = Path(__file__).resolve().parent.parent
MARK = "@@perfbench"
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "GOTO_NUM_THREADS",
)


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped child (Linux
    reports ru_maxrss in KiB)."""

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def environment() -> dict:
    """The environment as found; nothing here changes it."""

    import multiprocessing

    import numpy
    import scipy

    blas = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_context().get_start_method(),
    }


def load_references(workload: str, seed: int):
    path = Path(__file__).with_name("references.json")
    if not path.is_file():
        return None
    with open(path) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self, workload, refs, reference_problems):
        self.workload = workload
        self.refs = refs
        self.reference_problems = reference_problems
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, b: int, batch, raw) -> list:
        """Check one batch run; return its operations' outcomes."""

        checked = self.workload.results(batch, raw)
        want = self.refs[b] if self.refs is not None else None
        if want is not None and len(want) != len(checked):
            checked = [(got, probs + ["operation count differs from the reference"])
                       for got, probs in checked]
            want = None
        outcomes = []
        for k, (got, problems) in enumerate(checked):
            if want is not None and got is not None:
                problems = problems + self.reference_problems(got, want[k])
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(f"batch {b} operation {k}: {'; '.join(problems)}")
            outcomes.append(got)
        return outcomes


def timed(workload, batch):
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    raw = workload.run(batch)
    wall = time.perf_counter() - t0
    return raw, wall, cpu_seconds() - cpu0


def untraced_run(workload, batches, tally, seconds: float, part: int, parts: int) -> dict:
    mine = list(range(part, len(batches), parts))
    walls = {b: [] for b in mine}
    cpus = {b: [] for b in mine}
    start = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - start
        # After one pass, start another run only if it should end in time.
        if k >= len(mine) and elapsed * (k + 1) / k > seconds:
            break
        b = mine[k % len(mine)]
        raw, wall, cpu = timed(workload, batches[b])
        walls[b].append(wall)
        cpus[b].append(cpu)
        tally.add(b, batches[b], raw)
        k += 1
    return {
        "runs": k,
        "wall_s": {b: statistics.median(w) for b, w in walls.items()},
        "cpu_s": {b: statistics.median(c) for b, c in cpus.items()},
    }


def traced_run(workload, batches, tally, tracer) -> dict:
    problems = []
    overheads = []
    first_counts = None
    for b, batch in enumerate(batches):
        runs = {}
        for traced in ((False, True) if b % 2 == 0 else (True, False)):
            if traced:
                before = tracer.snapshot()
                tr.install(tracer)
            try:
                raw, wall, _ = timed(workload, batch)
            finally:
                tracer.unwrap()
            if traced and b == 0:
                first_counts = tr.exact_counts(tr.difference(tracer.snapshot(), before))
            runs[traced] = (tally.add(b, batch, raw), wall)
        if runs[True][0] != runs[False][0]:
            problems.append(f"batch {b}: traced and untraced results differ")
        overheads.append((runs[True][1] - runs[False][1]) / runs[False][1])

    metrics = tr.layer_metrics(tracer)
    metrics["trace.overhead_frac"] = {"value": statistics.median(overheads), "unit": "ratio"}

    missing = [name for name in workload.layers if tracer.totals.get(name, [0])[0] == 0]
    if missing:
        problems.append(f"layers with no recorded call: {missing}")
    if tracer.missing:
        problems.append(f"names to wrap not found: {sorted(tracer.missing)}")

    before = tracer.snapshot()
    tr.install(tracer)
    try:
        raw, _, _ = timed(workload, batches[0])
    finally:
        tracer.unwrap()
    repeat_counts = tr.exact_counts(tr.difference(tracer.snapshot(), before))
    tally.add(0, batches[0], raw)
    if repeat_counts != first_counts:
        changed = sorted(
            k for k in set(repeat_counts) | set(first_counts)
            if repeat_counts.get(k) != first_counts.get(k)
        )
        problems.append(f"exact counts differ between two traced runs of batch 0: {changed}")
    return {"metrics": metrics, "selftest_problems": problems}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark process")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tmp", required=True, help="directory for this process's inputs")
    parser.add_argument("--part", type=int, default=0, help="measure batches part, part + parts, ...")
    parser.add_argument("--parts", type=int, default=1)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import fsfgw

    package = Path(fsfgw.__file__).resolve().parent
    if package != (ROOT / "src" / "fsfgw").resolve():
        print(f"fsfgw was imported from {package}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tmp = Path(args.tmp)
    tracer = None
    if args.trace:
        tracer = tr.Tracer(tmp)
        tr.install(tracer)
    try:
        count = workload.batches if tracer is None else (workload.batches + 1) // 2
        batches = workload.prepare(args.seed, tmp, count)
    finally:
        if tracer is not None:
            tracer.unwrap()
    print(MARK, "ready", flush=True)

    refs = load_references(workload.name, args.seed)
    tally = Tally(workload, refs, workloads.reference_problems)
    if tracer is None:
        result = untraced_run(workload, batches, tally, args.seconds, args.part, args.parts)
    else:
        result = traced_run(workload, batches, tally, tracer)
    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.problems,
        referenced=tally.refs is not None,
        peak_rss_mb=peak_rss_mb(),
        environment=environment(),
    )
    print(MARK, "result", json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
