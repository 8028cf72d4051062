#!/usr/bin/env python3
"""Planted-feature recovery study over all four suppression modes.

Three blocks, each writing one CSV into ``--out``:

  recovery.csv     separation per (mode, seed) at the default planted pair
                   (binary modes) and at the high-dimensional pair where
                   one-hot/grouped weights are the interesting regime
  delta_sweep.csv  mean separation vs shift size for lasso and ridge
  roc.csv          AUC per (mode, seed) sweeping the suppression fraction

Run ``python3 scripts/synthetic_study.py --seeds 5`` for a quick pass.
"""

from __future__ import annotations

import argparse
import csv
import logging
from pathlib import Path

import numpy as np

from fsfgw import (
    FsFgwConfig,
    SyntheticSpec,
    generate_synthetic_pair,
    roc_sweep,
    separation_metric,
    solve_fsfgw,
)

logger = logging.getLogger("synthetic_study")

ROC_FRACTIONS = [0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.3, 0.5, 0.7]


def _chunks(d: int, size: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(range(i, min(i + size, d))) for i in range(0, d, size))


def _solve_separation(spec: SyntheticSpec, config: FsFgwConfig) -> float:
    x, y, planted = generate_synthetic_pair(spec)
    result = solve_fsfgw(x, y, config)
    return separation_metric(result.weights, planted)


def recovery_block(out: Path, seeds: int) -> None:
    binary_configs = {
        "lasso": FsFgwConfig(mode="lasso", suppression_fraction=0.3),
        "ridge": FsFgwConfig(mode="ridge", suppression_fraction=0.2),
    }
    wide_configs = {
        "simplex": FsFgwConfig(mode="simplex"),
        "group_simplex": FsFgwConfig(mode="group_simplex", groups=_chunks(100, 10)),
    }
    rows = []
    for mode, config in binary_configs.items():
        for seed in range(seeds):
            sep = _solve_separation(SyntheticSpec(seed=seed), config)
            rows.append((mode, "n40_d10_k3", seed, sep))
    for mode, config in wide_configs.items():
        delta = 5.0 if mode == "simplex" else 2.0
        for seed in range(seeds):
            spec = SyntheticSpec(d=100, k=10, delta=delta, seed=seed)
            rows.append((mode, "n40_d100_k10", seed, _solve_separation(spec, config)))

    with (out / "recovery.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "regime", "seed", "separation"])
        writer.writerows(rows)
    for mode in (*binary_configs, *wide_configs):
        seps = [r[3] for r in rows if r[0] == mode]
        perfect = sum(1 for s in seps if s == 1.0)
        logger.info(
            "recovery %-14s mean separation %+.3f, perfect %d/%d",
            mode, float(np.mean(seps)), perfect, len(seps),
        )


def delta_sweep_block(out: Path, seeds: int) -> None:
    deltas = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    configs = {
        "lasso": FsFgwConfig(mode="lasso", suppression_fraction=0.3),
        "ridge": FsFgwConfig(mode="ridge", suppression_fraction=0.3),
    }
    with (out / "delta_sweep.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta", "mode", "mean_separation"])
        for delta in deltas:
            for mode, config in configs.items():
                seps = [
                    _solve_separation(SyntheticSpec(delta=delta, seed=seed), config)
                    for seed in range(seeds)
                ]
                mean = float(np.mean(seps))
                writer.writerow([delta, mode, mean])
                logger.info("delta %.1f %-6s mean separation %+.3f", delta, mode, mean)


def roc_block(out: Path, seeds: int) -> None:
    with (out / "roc.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mode", "seed", "auc"])
        for mode in ("lasso", "ridge"):
            aucs = []
            for seed in range(seeds):
                spec = SyntheticSpec(d=100, k=10, delta=2.0, seed=seed)
                config = FsFgwConfig(mode=mode, suppression_fraction=0.3, seed=seed)
                auc = roc_sweep(spec, config, ROC_FRACTIONS).auc
                aucs.append(auc)
                writer.writerow([mode, seed, auc])
            logger.info("roc %-6s mean AUC %.4f over %d seeds", mode, float(np.mean(aucs)), seeds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="study_out", help="output directory")
    parser.add_argument("--seeds", type=int, default=10, help="seeds per cell")
    parser.add_argument(
        "--blocks",
        nargs="+",
        choices=["recovery", "delta", "roc"],
        default=["recovery", "delta", "roc"],
    )
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(message)s")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if "recovery" in args.blocks:
        recovery_block(out, args.seeds)
    if "delta" in args.blocks:
        delta_sweep_block(out, args.seeds)
    if "roc" in args.blocks:
        roc_block(out, args.seeds)
    logger.info("wrote %s", ", ".join(str(p) for p in sorted(out.glob("*.csv"))))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
