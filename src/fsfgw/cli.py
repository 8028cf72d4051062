"""Command-line interface.

Subcommands: ``solve`` for one pair of structured-object JSON files,
``synthetic`` (recover / delta-sweep / roc) for planted-feature recovery
experiments, ``pairwise`` for a distance matrix over a directory of
objects, and ``redistrict`` (compare / matrix / cluster) for plan
comparison on a precinct graph.

Every run writes a ``manifest.json`` (command line, resolved config,
input paths, output directory, seed, tool version) next to its outputs.
Numeric CSV cells carry 12 significant digits.  Exit codes: 0 on success,
2 on validation errors, 3 on solver errors; errors are reported as a JSON
object on stderr.  The ``FSFGW_LOG`` environment variable sets the log
level.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .core import (
    FEATURE_NORMS,
    MODES,
    DimensionMismatch,
    FsFgwConfig,
    FsfgwError,
    InvalidConfig,
)
from .fgw import InstanceTooLarge
from .pipelines import (
    DisconnectedAfterRetries,
    PairwiseSolveError,
    SyntheticSpec,
    compare_plans,
    complete_linkage_cluster,
    generate_synthetic_pair,
    load_plan_csv,
    load_precinct_graph,
    load_structured_object,
    pairwise_distance_matrix,
    roc_sweep,
    separation_metric,
)
from .suppression import solve_fsfgw
from .transport import Infeasible, NumericalFailure

logger = logging.getLogger("fsfgw")

_SOLVER_ERRORS = (
    Infeasible,
    NumericalFailure,
    InstanceTooLarge,
    DisconnectedAfterRetries,
    PairwiseSolveError,
    ChildProcessError,  # a pool helper exited without reporting its task
)


def _g(x) -> str:
    """12-significant-digit cell formatting for CSV output."""

    return format(float(x), ".12g")


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_matrix(path: Path, ids: list[str], D: np.ndarray) -> None:
    _write_csv(path, ["id"] + ids, [[pid] + [_g(v) for v in row] for pid, row in zip(ids, D)])


def _config_dict(config: FsFgwConfig) -> dict:
    doc = dataclasses.asdict(config)
    doc["lambda"] = doc.pop("lam")
    if doc["groups"] is not None:
        doc["groups"] = [list(g) for g in doc["groups"]]
    return doc


def _write_manifest(
    out: Path, command: list[str], config: FsFgwConfig | list[FsFgwConfig],
    inputs: list[str], seed: int,
) -> None:
    # A list of configs (one per swept mode) is recorded as a list, in order.
    doc = {
        "command": command,
        "config": (
            [_config_dict(c) for c in config] if isinstance(config, list) else _config_dict(config)
        ),
        "input_paths": inputs,
        "output_dir": str(out),
        "seed": seed,
        "tool_version": __version__,
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_groups(path: str | None):
    if path is None:
        return None
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, list) or not all(isinstance(g, list) for g in doc):
        raise InvalidConfig(f"{path}: groups file must be a JSON list of index lists")
    return tuple(tuple(g) for g in doc)


def _config_from_args(args, **flags) -> FsFgwConfig:
    """The solver config of the parsed flags.

    Keyword ``flags`` replace parsed values by name (``mode``, ``lam``,
    ``fraction``, and ``groups``, which takes a partition instead of the
    ``--groups`` file).  Lasso and ridge fall back to a suppression
    fraction of 0.3 when neither level was given (passing both is rejected
    by the config).
    """

    groups = flags.pop("groups") if "groups" in flags else _load_groups(args.groups)
    args = argparse.Namespace(**{**vars(args), **flags})
    lam, fraction = args.lam, args.fraction
    if args.mode in ("lasso", "ridge") and lam is None and fraction is None:
        fraction = 0.3
    return FsFgwConfig(
        mode=args.mode,
        alpha=args.alpha,
        q=args.q,
        lam=lam,
        suppression_fraction=fraction,
        groups=groups,
        feature_norm=args.norm,
        max_outer_iter=args.max_outer_iter,
        seed=args.seed,
    )


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--alpha", type=float, default=0.5, help="trade-off in [0, 1]")
    parser.add_argument("--q", type=float, default=2.0, help="cost exponent (>= 1)")
    parser.add_argument("--mode", choices=MODES, default="lasso")
    parser.add_argument(
        "--lambda", dest="lam", type=float, default=None, help="fixed regularization level"
    )
    parser.add_argument(
        "--f",
        dest="fraction",
        type=float,
        default=None,
        help="suppression fraction in (0, 1), calibrates lambda "
        "(lasso/ridge default to 0.3 when neither --lambda nor --f is given)",
    )
    parser.add_argument(
        "--groups", default=None, help="JSON file with a list of feature-index lists"
    )
    parser.add_argument(
        "--norm",
        choices=FEATURE_NORMS,
        default="per_feature",
        help="per_feature rescales each feature's cost matrix to maximum 1; "
        "none keeps raw costs",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-outer-iter", type=int, default=50)
    parser.add_argument("--out", default="fsfgw_out", help="output directory")


def _weights_csv_rows(result, names=None) -> list[list[str]]:
    rows = []
    for r, (w, s) in enumerate(zip(result.weights.w, result.scores)):
        name = names[r] if names else f"f{r}"
        rows.append([str(r), name, _g(w), _g(s)])
    return rows


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    x = load_structured_object(args.x)
    y = load_structured_object(args.y)
    config = _config_from_args(args)
    result = solve_fsfgw(x, y, config)
    out = _out_dir(args)
    with open(out / "result.json", "w") as fh:
        json.dump(result.to_json_dict(), fh)
        fh.write("\n")
    _write_csv(
        out / "weights.csv",
        ["feature", "name", "weight", "score"],
        _weights_csv_rows(result, x.feature_names),
    )
    _write_manifest(out, args.command_line, config, [str(args.x), str(args.y)], args.seed)
    print(
        f"objective {_g(result.objective)} converged {result.converged} "
        f"outer_iters {result.outer_iters}"
    )
    return 0


def _synthetic_spec(args) -> SyntheticSpec:
    return SyntheticSpec(
        n=args.n, d=args.d, k=args.k, delta=args.delta, geo_radius=args.radius, seed=args.seed
    )


def _default_groups(d: int, k: int):
    """Correct grouping for planted recovery: the differentiating block,
    then the shared features chunked into blocks of the same size."""

    groups = [tuple(range(k))]
    rest = list(range(k, d))
    for start in range(0, len(rest), k):
        groups.append(tuple(rest[start : start + k]))
    return tuple(g for g in groups if g)


def cmd_synthetic_recover(args) -> int:
    spec = _synthetic_spec(args)
    groups = _load_groups(args.groups)
    if args.mode == "group_simplex" and groups is None:
        groups = _default_groups(spec.d, max(spec.k, 1))
    config = _config_from_args(args, groups=groups)
    x, y, diff = generate_synthetic_pair(spec)
    result = solve_fsfgw(x, y, config)
    sep = separation_metric(result.weights, diff)
    out = _out_dir(args)
    rows = []
    for r in range(spec.d):
        rows.append(
            [str(r), f"f{r}", _g(result.weights.w[r]), _g(result.scores[r]),
             str(int(r in diff))]
        )
    _write_csv(
        out / "weights.csv", ["feature", "name", "weight", "score", "differentiating"], rows
    )
    _write_manifest(out, args.command_line, config, [], args.seed)
    print(f"separation {_g(sep)}")
    return 0


def _parse_deltas(text: str) -> list[float]:
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise InvalidConfig(f"delta range must be start:stop:count, got {text!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise InvalidConfig("delta count must be >= 1")
        return [float(v) for v in np.linspace(start, stop, count)]
    return [float(v) for v in text.split(",") if v.strip()]


def cmd_synthetic_delta_sweep(args) -> int:
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    for mode in modes:
        if mode not in MODES:
            raise InvalidConfig(f"unknown mode {mode!r} in --modes")
    deltas = _parse_deltas(args.deltas)
    spec = _synthetic_spec(args)
    groups = _load_groups(args.groups)
    if groups is None:
        groups = _default_groups(spec.d, max(spec.k, 1))
    out = _out_dir(args)
    # The level flags apply to lasso and ridge only, and groups to
    # group_simplex only, so one flag set sweeps every mode.
    configs = [
        _config_from_args(
            args,
            mode=mode,
            lam=args.lam if mode in ("lasso", "ridge") else None,
            fraction=args.fraction if mode in ("lasso", "ridge") else None,
            groups=groups if mode == "group_simplex" else None,
        )
        for mode in modes
    ]
    rows = []
    for delta in deltas:
        x, y, diff = generate_synthetic_pair(dataclasses.replace(spec, delta=delta))
        for mode, config in zip(modes, configs):
            result = solve_fsfgw(x, y, config)
            sep = separation_metric(result.weights, diff)
            rows.append([_g(delta), mode, _g(sep)])
            logger.info("delta %.3g mode %s separation %.4f", delta, mode, sep)
    _write_csv(out / "sweep.csv", ["delta", "mode", "separation"], rows)
    _write_manifest(out, args.command_line, configs, [], args.seed)
    print(f"wrote {len(rows)} sweep rows to {out / 'sweep.csv'}")
    return 0


def cmd_synthetic_roc(args) -> int:
    if args.fraction is not None:
        raise InvalidConfig("synthetic roc sweeps the suppression fraction over --fracs; "
                            "--f is not accepted")
    spec = _synthetic_spec(args)
    fractions = [float(v) for v in args.fracs.split(",") if v.strip()]
    config = _config_from_args(args)
    sweep = roc_sweep(spec, config, fractions)
    out = _out_dir(args)
    rows = [[_g(p.fraction), _g(p.tpr), _g(p.fpr)] for p in sweep.points]
    _write_csv(out / "roc.csv", ["f", "tpr", "fpr"], rows)
    _write_manifest(out, args.command_line, config, [], args.seed)
    print(f"auc {_g(sweep.auc)}")
    return 0


def cmd_pairwise(args) -> int:
    obj_dir = Path(args.objects)
    files = sorted(obj_dir.glob("*.json"))
    if not files:
        raise InvalidConfig(f"no object JSON files found in {obj_dir}")
    objects = [load_structured_object(p) for p in files]
    ids = [p.stem for p in files]
    d0 = objects[0].d
    for obj, pid in zip(objects, ids):
        if obj.d != d0:
            raise DimensionMismatch(
                f"object {pid!r} has {obj.d} features, expected {d0}"
            )
    config = _config_from_args(args)
    D, records = pairwise_distance_matrix(objects, config, workers=args.workers)
    out = _out_dir(args)
    _write_matrix(out / "distances.csv", ids, D)
    names = objects[0].feature_names or [f"f{r}" for r in range(d0)]
    wrows = [
        [ids[rec.i], ids[rec.j]] + [_g(w) for w in rec.result.weights.w] for rec in records
    ]
    _write_csv(out / "pair_weights.csv", ["id_a", "id_b"] + list(names), wrows)
    _write_manifest(out, args.command_line, config, [str(p) for p in files], args.seed)
    print(f"wrote {len(ids)}x{len(ids)} distance matrix to {out / 'distances.csv'}")
    return 0


def _load_plans(nodes, edges, plan_paths):
    graph = load_precinct_graph(nodes, edges)
    return graph, [load_plan_csv(p, graph) for p in plan_paths]


def cmd_redistrict_compare(args) -> int:
    graph, (plan_p, plan_q) = _load_plans(args.nodes, args.edges, [args.plan_p, args.plan_q])
    config = _config_from_args(args)
    (comparison,) = compare_plans(graph, [plan_p, plan_q], config)
    out = _out_dir(args)
    doc = {"plan_p": plan_p.plan_id, "plan_q": plan_q.plan_id}
    doc.update(comparison.to_json_dict())
    with open(out / "comparison.json", "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    rows = []
    for pair, wrow in zip(comparison.matching, comparison.weight_matrix):
        rows.append([f"{pair[0]}:{pair[1]}"] + [_g(w) for w in wrow])
    _write_csv(
        out / "weight_heatmap.csv", ["district_pair"] + list(graph.feature_names), rows
    )
    _write_manifest(
        out,
        args.command_line,
        config,
        [args.nodes, args.edges, args.plan_p, args.plan_q],
        args.seed,
    )
    print(f"total_distance {_g(comparison.total_distance)}")
    return 0


def _plan_matrix(args):
    """Load the map and plans, compare every plan pair, and write
    plan_distances.csv and the manifest; returns the output directory and
    the distance matrix."""

    graph, plans = _load_plans(args.nodes, args.edges, args.plans)
    if len(plans) < 2:
        raise InvalidConfig("need at least two plans for a distance matrix")
    config = _config_from_args(args)
    # compare_plans is looked up here, where perfbench's tracer wraps it.
    comparisons = compare_plans(graph, plans, config, args.workers)
    D = np.zeros((len(plans), len(plans)))
    i, j = np.triu_indices(len(plans), 1)
    D[i, j] = D[j, i] = [c.total_distance for c in comparisons]
    out = _out_dir(args)
    _write_matrix(out / "plan_distances.csv", [p.plan_id for p in plans], D)
    _write_manifest(
        out, args.command_line, config, [args.nodes, args.edges, *args.plans], args.seed
    )
    return out, D


def cmd_redistrict_matrix(args) -> int:
    _, D = _plan_matrix(args)
    print(f"wrote {len(D)}x{len(D)} plan distance matrix")
    return 0


def cmd_redistrict_cluster(args) -> int:
    out, D = _plan_matrix(args)
    merges = complete_linkage_cluster(D)
    with open(out / "dendrogram.json", "w") as fh:
        json.dump([{"a": m.a, "b": m.b, "height": m.height} for m in merges], fh, indent=2)
        fh.write("\n")
    for m in merges:
        print(f"merge {m.a} {m.b} height {_g(m.height)}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fsfgw",
        description="Feature-selected fused Gromov-Wasserstein solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one pair of object JSON files")
    p_solve.add_argument("x", help="first structured-object JSON file")
    p_solve.add_argument("y", help="second structured-object JSON file")
    _add_config_flags(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_syn = sub.add_parser("synthetic", help="planted-feature recovery experiments")
    syn_sub = p_syn.add_subparsers(dest="synthetic_command", required=True)

    def _add_spec_flags(p):
        p.add_argument("--n", type=int, default=40)
        p.add_argument("--d", type=int, default=10)
        p.add_argument("--k", type=int, default=3)
        p.add_argument("--delta", type=float, default=2.0)
        p.add_argument("--radius", type=float, default=0.3)

    p_rec = syn_sub.add_parser("recover", help="one recovery run")
    _add_spec_flags(p_rec)
    _add_config_flags(p_rec)
    p_rec.set_defaults(func=cmd_synthetic_recover)

    p_sweep = syn_sub.add_parser("delta-sweep", help="separation vs shift size")
    _add_spec_flags(p_sweep)
    p_sweep.add_argument(
        "--deltas", default="0.0:5.0:11", help="start:stop:count or comma list"
    )
    p_sweep.add_argument(
        "--modes", default="lasso,ridge,simplex,group_simplex", help="comma list"
    )
    _add_config_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_synthetic_delta_sweep)

    p_roc = syn_sub.add_parser("roc", help="recovery ROC over suppression fractions")
    _add_spec_flags(p_roc)
    p_roc.add_argument(
        "--fracs", default="0.05,0.1,0.2,0.3,0.5,0.7", help="comma list of fractions"
    )
    _add_config_flags(p_roc)
    p_roc.set_defaults(func=cmd_synthetic_roc)

    p_pair = sub.add_parser("pairwise", help="distance matrix over a directory of objects")
    p_pair.add_argument("objects", help="directory of structured-object JSON files")
    p_pair.add_argument("--workers", type=int, default=1)
    _add_config_flags(p_pair)
    p_pair.set_defaults(func=cmd_pairwise)

    p_red = sub.add_parser("redistrict", help="district-matched plan comparison")
    red_sub = p_red.add_subparsers(dest="redistrict_command", required=True)

    p_cmp = red_sub.add_parser("compare", help="compare two plans")
    p_cmp.add_argument("nodes", help="nodes.csv")
    p_cmp.add_argument("edges", help="edges.csv")
    p_cmp.add_argument("plan_p", help="first plan CSV")
    p_cmp.add_argument("plan_q", help="second plan CSV")
    _add_config_flags(p_cmp)
    p_cmp.set_defaults(func=cmd_redistrict_compare)

    p_mat = red_sub.add_parser("matrix", help="plan-vs-plan distance matrix")
    p_mat.add_argument("nodes")
    p_mat.add_argument("edges")
    p_mat.add_argument("plans", nargs="+", help="plan CSV files")
    p_mat.add_argument("--workers", type=int, default=1)
    _add_config_flags(p_mat)
    p_mat.set_defaults(func=cmd_redistrict_matrix)

    p_clu = red_sub.add_parser("cluster", help="complete-linkage clustering of plans")
    p_clu.add_argument("nodes")
    p_clu.add_argument("edges")
    p_clu.add_argument("plans", nargs="+", help="plan CSV files")
    p_clu.add_argument("--workers", type=int, default=1)
    _add_config_flags(p_clu)
    p_clu.set_defaults(func=cmd_redistrict_cluster)

    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    level = os.environ.get("FSFGW_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    args.command_line = list(argv)
    try:
        return args.func(args)
    except _SOLVER_ERRORS as exc:
        _report_error(exc)
        return 3
    except (FsfgwError, OSError, json.JSONDecodeError, ValueError) as exc:
        _report_error(exc)
        return 2


def _report_error(exc: Exception) -> None:
    doc = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(doc), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
