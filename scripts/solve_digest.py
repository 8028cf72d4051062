#!/usr/bin/env python3
"""Print one SHA-256 over the outputs of a fixed set of solves.

    PYTHONPATH=src python3 scripts/solve_digest.py [--count N] [--large L] [--plans K]

Solve k (k = 0..N-1, N = 720 unless ``--count`` sets it) draws a pair of
point clouds from seed k and solves it with configuration k mod 108: every
combination of mode, q in {1, 1.5, 2}, restarts 0-2, uniform or Dirichlet
measures and, for lasso and ridge, a fixed or a calibrated level.  These
clouds have 4-11 nodes.  ``--large L`` (default 0) adds L solves of 46-55
node clouds, large solve j from seed 10,000 + j with the q != 2
configuration 7j mod 72, so that each q != 2 dense structure-operator
call runs in several 1 MiB pieces; uniform measures then have n = m and
take the assignment route.  The
digest covers each result's plan, weights, scores, terms, level, trace,
outer iteration count and convergence flag, so two trees that print the
same digest gave the same bits on every solve.  ``--plans K`` (default 0)
then runs the first K batches of perfbench's ``redistrict-cluster``
workload at seed 1 through ``fsfgw.cli.main`` with ``--workers`` 1, 2
and 3 (the calling process plus up to two helper processes), and adds
the ``plan_distances.csv`` and ``dendrogram.json`` of the serial run to
the digest; it exits non-zero if any worker count writes different
bytes.  The q = 2 products go through BLAS, so compare digests taken on
one machine.
"""
import argparse, contextlib, hashlib, importlib.util, io, sys, tempfile
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


parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
parser.add_argument("--count", type=int, default=720)
parser.add_argument("--large", type=int, default=0)
parser.add_argument("--plans", type=int, default=0)
args = parser.parse_args()
h = hashlib.sha256()
for x, y, config in pairs(args.count, args.large):
    r = solve_fsfgw(x, y, config)
    scalars = (r.objective, r.feature_term, r.gw_term, r.reg_term, r.lambda_used,
               r.outer_iters, r.converged)
    for arr in (r.plan.T, r.weights.w, r.scores, np.array(r.trace), np.array(scalars)):
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
if args.plans > 0:
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    with tempfile.TemporaryDirectory() as tmp:
        batches = workloads.WORKLOADS["redistrict-cluster"].prepare(1, Path(tmp), args.plans)
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
print(h.hexdigest())
