#!/usr/bin/env python3
"""Print one SHA-256 over the outputs of a fixed set of solves.

    PYTHONPATH=src python3 scripts/solve_digest.py [--count N] [--large L]
        [--synth S] [--plans K]

Solve k (k = 0..N-1, N = 720 unless ``--count`` sets it) draws a pair of
point clouds from seed k and solves it with configuration k mod 108: every
combination of mode, q in {1, 1.5, 2}, restarts 0-2, uniform or Dirichlet
measures and, for lasso and ridge, a fixed or a calibrated level.  These
clouds have 4-11 nodes.  ``--large L`` (default 0) adds L solves of 46-55
node clouds, large solve j from seed 10,000 + j with the q != 2
configuration 7j mod 72, so that each q != 2 dense structure-operator
call runs in several 1 MiB pieces; uniform measures then have n = m and
take the assignment route.  ``--synth S`` (default 0) then adds the
solves of the first S batches of perfbench's ``synth-uniform`` workload
at seed 1, with its configuration: 50-node pairs with 20 features and
uniform measures, which take the assignment route.  Their pairs come in
both orders (26 of the 48 pairs of all 12 batches are solved swapped),
so their feature-cost stacks are built in both orientations.  The
digest covers each result's plan, weights, scores, terms, level, trace,
outer iteration count and convergence flag, so two trees that print the
same digest gave the same bits on every solve.  ``--plans K`` (default 0)
then runs the first K batches of perfbench's ``redistrict-cluster``
workload at seed 1 through ``fsfgw.cli.main`` with ``--workers`` 1, 2
and 3, and adds the ``plan_distances.csv`` and ``dendrogram.json`` of
the serial run to the digest; it exits non-zero if any worker count
writes different bytes.  Each batch then runs ``redistrict compare`` on
its first two plans, with the workload's flags but ``--workers``, and
adds that run's ``comparison.json`` and ``weight_heatmap.csv``.  The
pool caps its helpers at the usable CPUs, so for these runs the script's
own process reports three (``os.sched_getaffinity``): ``--workers 3``
then starts two helper processes beside the calling one on any machine,
three processes in all and no more.  The q = 2 products go through BLAS,
so compare digests taken on one machine.
"""
import argparse, contextlib, hashlib, importlib.util, io, os, sys, tempfile
from pathlib import Path
import numpy as np
import fsfgw.cli
from fsfgw import FsFgwConfig, StructuredObject, solve_fsfgw

LEVELS = {
    "lasso": ({"lam": 0.1}, {"suppression_fraction": 0.3}),
    "ridge": ({"lam": 0.3}, {"suppression_fraction": 0.5}),
    "simplex": ({},),
    "group_simplex": ({"groups": ((0, 2), (1, 3, 4), (5,))},),
}
CONFIGS = [(FsFgwConfig(mode=mode, q=q, restarts=restarts, **level), uniform)
           for mode, levels in LEVELS.items() for level in levels
           for q in (1.0, 1.5, 2.0) for restarts in (0, 1, 2) for uniform in (True, False)]
LARGE = [(config, uniform) for config, uniform in CONFIGS if config.q != 2.0]
WORKERS = (1, 2, 3)


def cloud(rng, n, uniform, d=6):
    pts = rng.uniform(size=(n, 2))
    C = np.sqrt(((pts[:, None] - pts[None]) ** 2).sum(axis=2))
    a = np.full(n, 1.0 / n) if uniform else rng.dirichlet(np.ones(n))
    return StructuredObject(C=C / C.max(), a=a, X=rng.normal(size=(n, d)))


def pairs(count, large):
    for k in range(count):
        config, uniform = CONFIGS[k % len(CONFIGS)]
        rng = np.random.default_rng(k)
        x = cloud(rng, int(rng.integers(4, 12)), uniform)
        yield x, cloud(rng, int(rng.integers(4, 12)), uniform), config
    for j in range(large):
        config, uniform = LARGE[7 * j % len(LARGE)]
        rng = np.random.default_rng(10_000 + j)
        n = int(rng.integers(46, 56))
        yield cloud(rng, n, uniform), cloud(rng, n if uniform else int(rng.integers(46, 56)),
                                             uniform), config


def add(r):
    scalars = (r.objective, r.feature_term, r.gw_term, r.reg_term, r.lambda_used,
               r.outer_iters, r.converged)
    for arr in (r.plan.T, r.weights.w, r.scores, np.array(r.trace), np.array(scalars)):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def perfbench_workload(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS[name]


parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--count", type=int, default=720)
parser.add_argument("--large", type=int, default=0)
parser.add_argument("--synth", type=int, default=0)
parser.add_argument("--plans", type=int, default=0)
args = parser.parse_args()
h = hashlib.sha256()
for x, y, config in pairs(args.count, args.large):
    add(solve_fsfgw(x, y, config))
if args.synth > 0:
    synth = perfbench_workload("synth-uniform")
    with tempfile.TemporaryDirectory() as tmp:
        for batch in synth.prepare(1, Path(tmp), args.synth):
            for x, y in batch:
                add(solve_fsfgw(x, y, synth.config))
if args.plans > 0:
    os.sched_getaffinity = lambda pid: set(range(max(WORKERS)))
    cluster = perfbench_workload("redistrict-cluster")
    # compare takes no --workers: argv[2:6] is the nodes, the edges and the first two plans.
    w = cluster.flags.index("--workers")
    compare_flags = cluster.flags[:w] + cluster.flags[w + 2 :]
    with tempfile.TemporaryDirectory() as tmp:
        batches = cluster.prepare(1, Path(tmp), args.plans)
        for b, batch in enumerate(batches):
            outs = {workers: Path(tmp) / f"out-{b}-{workers}" for workers in WORKERS}
            for workers, out in outs.items():
                # The later --workers and --out flags override the batch's own.
                argv = batch["argv"] + ["--workers", str(workers), "--out", str(out)]
                with contextlib.redirect_stdout(io.StringIO()):
                    if fsfgw.cli.main(argv) != 0:
                        sys.exit(f"batch {b}: redistrict cluster failed with {workers} workers")
            for name in ("plan_distances.csv", "dendrogram.json"):
                data = {workers: (out / name).read_bytes() for workers, out in outs.items()}
                for workers in WORKERS[1:]:
                    if data[workers] != data[1]:
                        sys.exit(f"batch {b}: --workers 1 and {workers} wrote different {name}")
                h.update(data[1])
            out = Path(tmp) / f"out-{b}-compare"
            argv = ["redistrict", "compare", *batch["argv"][2:6], *compare_flags,
                    "--out", str(out)]
            with contextlib.redirect_stdout(io.StringIO()):
                if fsfgw.cli.main(argv) != 0:
                    sys.exit(f"batch {b}: redistrict compare failed")
            for name in ("comparison.json", "weight_heatmap.csv"):
                h.update((out / name).read_bytes())
print(h.hexdigest())
