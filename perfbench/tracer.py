"""Span totals recorded around calls into fsfgw's public functions.

The tracer measures each layer from outside the package: it replaces a
function under the name its caller looks up (``fsfgw.fgw.solve_emd``, not
``fsfgw.transport.solve_emd``, because ``fgw`` imported that name) with a
wrapper that times the call.  Nested wrapped calls form a span stack, so a
span's self time is its duration minus the time of the wrapped calls made
inside it.  Spans are kept as in-memory totals per layer name.

Pool workers are forked and inherit the wrappers.  Each worker starts with
empty totals and writes them to a spool file in the run's temporary
directory when it exits; the wrapper around ``pairwise_distance_matrix``
merges those files after the pool has shut down.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter

# Counters that must repeat exactly between two traced runs of the same
# inputs: every call count plus these solver counts.
EXACT_COUNTERS = ("transport.solve_emd.pivots", "fgw.cg_iters", "suppression.outer_iters")


class Tracer:
    """Per-layer call counts, seconds and self seconds, plus solver counters."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.totals: dict[str, list[float]] = {}  # name -> [calls, seconds, self seconds]
        self.counters: dict[str, float] = {}
        self.distinct: dict[str, set[str]] = {}
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()
        mp_util.register_after_fork(self, Tracer._after_fork)

    # -- recording ---------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def _record(self, name: str, seconds: float, self_seconds: float) -> None:
        entry = self.totals.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += seconds
        entry[2] += self_seconds

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` with a timed wrapper recording under ``name``.

        ``observe(tracer, args, result, seconds)`` runs after the span has
        closed and reads counts off the result.  A name the package no
        longer has is noted in ``missing`` and left alone.
        """

        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            frame = [0.0]
            tracer._stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                seconds = perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += seconds
                tracer._record(name, seconds, seconds - frame[0])
            if observe is not None:
                observe(tracer, args, result, seconds)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def unwrap(self) -> None:
        """Put every original function back."""

        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def active(self) -> bool:
        return bool(self._patches)

    def snapshot(self) -> dict:
        return {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "counters": dict(self.counters),
            "distinct": {k: sorted(v) for k, v in self.distinct.items()},
        }

    def merge(self, snap: dict) -> None:
        for name, (calls, seconds, self_seconds) in snap["totals"].items():
            entry = self.totals.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += seconds
            entry[2] += self_seconds
        for name, value in snap["counters"].items():
            self.add(name, value)
        for name, keys in snap["distinct"].items():
            self.distinct.setdefault(name, set()).update(keys)

    # -- pool workers ------------------------------------------------------

    def _after_fork(self) -> None:
        if not self.active:
            return
        self.totals, self.counters, self.distinct, self._stack = {}, {}, {}, []
        mp_util.Finalize(self, Tracer._write_spool, args=(self,), exitpriority=100)

    def _write_spool(self) -> None:
        path = self.spool_dir / f"spans-{os.getpid()}.json"
        with open(path, "w") as fh:
            json.dump(self.snapshot(), fh)

    def collect_spools(self) -> list[dict]:
        """Read and delete the spool files that exited workers wrote."""

        snaps = []
        for path in sorted(self.spool_dir.glob("spans-*.json")):
            with open(path) as fh:
                snaps.append(json.load(fh))
            path.unlink()
        return snaps


def difference(after: dict, before: dict) -> dict:
    """Totals and counters recorded between two snapshots."""

    totals = {}
    for name, (calls, seconds, self_seconds) in after["totals"].items():
        c0, s0, ss0 = before["totals"].get(name, (0, 0.0, 0.0))
        if calls != c0:
            totals[name] = [calls - c0, seconds - s0, self_seconds - ss0]
    counters = {
        name: value - before["counters"].get(name, 0.0)
        for name, value in after["counters"].items()
    }
    return {"totals": totals, "counters": counters}


def exact_counts(delta: dict) -> dict:
    """The parts of a recorded difference that carry no timing."""

    counts = {f"{name}.calls": entry[0] for name, entry in delta["totals"].items()}
    counts.update({name: delta["counters"].get(name, 0.0) for name in EXACT_COUNTERS})
    return counts


# -- the layers --------------------------------------------------------------


def _count_pivots(tracer, args, result, seconds):
    tracer.add("transport.solve_emd.pivots", result.iterations)


def _count_cg(tracer, args, result, seconds):
    tracer.add("fgw.cg_iters", result.cg_iters)


def _count_outer(tracer, args, result, seconds):
    tracer.add("suppression.outer_iters", result.outer_iters)
    tracer.add("suppression.converged", int(result.converged))


def _district_key(tracer, args, result, seconds):
    graph, indices = args
    digest = hashlib.blake2b(digest_size=16)
    digest.update(graph.features.tobytes())
    digest.update(graph.population.tobytes())
    digest.update(repr(sorted(int(i) for i in indices)).encode())
    tracer.distinct.setdefault("pipelines.district_object", set()).add(digest.hexdigest())


def _merge_workers(tracer, args, result, seconds):
    snaps = tracer.collect_spools()
    worker_solve = 0.0
    for snap in snaps:
        tracer.merge(snap)
        worker_solve += snap["totals"].get("suppression.solve_fsfgw", [0, 0.0, 0.0])[1]
    if snaps:
        tracer.add("pipelines.pool_overhead_s", seconds - worker_solve / len(snaps))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary under the name its caller looks it up."""

    import fsfgw
    import fsfgw.cli
    import fsfgw.core
    import fsfgw.fgw
    import fsfgw.pipelines
    import fsfgw.suppression

    fgw, sup, pip, cli = fsfgw.fgw, fsfgw.suppression, fsfgw.pipelines, fsfgw.cli
    w = tracer.wrap
    # transport, as fgw calls it
    w(fgw, "solve_emd", "transport.solve_emd", _count_pivots)
    # fgw
    w(sup, "solve_fgw", "fgw.solve_fgw", _count_cg)
    w(fgw, "gw_gradient", "fgw.gw_gradient")
    w(fgw, "gw_value", "fgw.gw_value")
    w(sup, "gw_value", "fgw.gw_value")
    # suppression, as the pipelines and the benchmark call it
    w(fsfgw, "solve_fsfgw", "suppression.solve_fsfgw", _count_outer)
    w(pip, "solve_fsfgw", "suppression.solve_fsfgw", _count_outer)
    w(sup, "update_weights", "suppression.update_weights")
    # core
    w(sup, "feature_cost_stack", "core.feature_cost_stack")
    w(sup, "feature_scores", "core.feature_scores")
    w(fsfgw.core.TransportPlan, "__post_init__", "core.transport_plan_check")
    w(fsfgw.core.StructuredObject, "__post_init__", "core.structured_object_check")
    # pipelines
    w(pip, "geodesic_structure", "pipelines.geodesic_structure")
    w(pip, "district_object", "pipelines.district_object", _district_key)
    w(pip, "match_districts", "pipelines.match_districts")
    w(cli, "compare_plans", "pipelines.compare_plans")
    w(cli, "complete_linkage_cluster", "pipelines.complete_linkage_cluster")
    w(cli, "load_precinct_graph", "pipelines.load_inputs")
    w(cli, "load_plan_csv", "pipelines.load_inputs")
    w(cli, "load_structured_object", "pipelines.load_inputs")
    w(fsfgw, "load_structured_object", "pipelines.load_inputs")
    w(fsfgw, "generate_synthetic_pair", "pipelines.generate_synthetic_pair")
    w(fsfgw, "pairwise_distance_matrix", "pipelines.pairwise_distance_matrix", _merge_workers)
    # cli
    w(cli, "main", "cli.main")


# Per-layer metric name -> (unit, better, how it is derived from the totals).
def _calls(name):
    return lambda t, c, d: t.get(name, [0, 0.0, 0.0])[0]


def _seconds(name):
    return lambda t, c, d: t.get(name, [0, 0.0, 0.0])[1]


def _self_seconds(name):
    return lambda t, c, d: t.get(name, [0, 0.0, 0.0])[2]


def _counter(name):
    return lambda t, c, d: c.get(name, 0.0)


def _converged_frac(t, c, d):
    calls = t.get("suppression.solve_fsfgw", [0])[0]
    return c.get("suppression.converged", 0.0) / calls if calls else 0.0


def _distinct_frac(t, c, d):
    calls = t.get("pipelines.district_object", [0])[0]
    return len(d.get("pipelines.district_object", ())) / calls if calls else 0.0


LAYER_METRICS = {
    "transport.solve_emd.calls": ("count", "lower", _calls("transport.solve_emd")),
    "transport.solve_emd.s": ("s", "lower", _seconds("transport.solve_emd")),
    "transport.solve_emd.pivots": ("count", "lower", _counter("transport.solve_emd.pivots")),
    "fgw.solve_fgw.calls": ("count", "lower", _calls("fgw.solve_fgw")),
    "fgw.solve_fgw.self_s": ("s", "lower", _self_seconds("fgw.solve_fgw")),
    "fgw.cg_iters": ("count", "lower", _counter("fgw.cg_iters")),
    "fgw.gw_gradient.calls": ("count", "lower", _calls("fgw.gw_gradient")),
    "fgw.gw_gradient.s": ("s", "lower", _seconds("fgw.gw_gradient")),
    "fgw.gw_value.calls": ("count", "lower", _calls("fgw.gw_value")),
    "fgw.gw_value.s": ("s", "lower", _seconds("fgw.gw_value")),
    "suppression.solve_fsfgw.calls": ("count", "lower", _calls("suppression.solve_fsfgw")),
    "suppression.solve_fsfgw.s": ("s", "lower", _seconds("suppression.solve_fsfgw")),
    "suppression.solve_fsfgw.self_s": ("s", "lower", _self_seconds("suppression.solve_fsfgw")),
    "suppression.outer_iters": ("count", "lower", _counter("suppression.outer_iters")),
    "suppression.converged_frac": ("ratio", "higher", _converged_frac),
    "suppression.update_weights.s": ("s", "lower", _seconds("suppression.update_weights")),
    "core.feature_cost_stack.calls": ("count", "lower", _calls("core.feature_cost_stack")),
    "core.feature_cost_stack.s": ("s", "lower", _seconds("core.feature_cost_stack")),
    "core.feature_scores.s": ("s", "lower", _seconds("core.feature_scores")),
    "core.transport_plan_check.calls": ("count", "lower", _calls("core.transport_plan_check")),
    "core.transport_plan_check.s": ("s", "lower", _seconds("core.transport_plan_check")),
    "core.structured_object_check.s": ("s", "lower", _seconds("core.structured_object_check")),
    "pipelines.geodesic_structure.calls": (
        "count", "lower", _calls("pipelines.geodesic_structure")),
    "pipelines.geodesic_structure.s": ("s", "lower", _seconds("pipelines.geodesic_structure")),
    "pipelines.district_object.calls": ("count", "lower", _calls("pipelines.district_object")),
    "pipelines.district_object.s": ("s", "lower", _seconds("pipelines.district_object")),
    "pipelines.district_object.distinct_frac": ("ratio", "higher", _distinct_frac),
    "pipelines.match_districts.s": ("s", "lower", _seconds("pipelines.match_districts")),
    "pipelines.complete_linkage_cluster.s": (
        "s", "lower", _seconds("pipelines.complete_linkage_cluster")),
    "pipelines.compare_plans.s": ("s", "lower", _seconds("pipelines.compare_plans")),
    "pipelines.pairwise_distance_matrix.s": (
        "s", "lower", _seconds("pipelines.pairwise_distance_matrix")),
    "pipelines.pool_overhead_s": ("s", "lower", _counter("pipelines.pool_overhead_s")),
    "pipelines.generate_synthetic_pair.s": (
        "s", "lower", _seconds("pipelines.generate_synthetic_pair")),
    "pipelines.load_inputs.s": ("s", "lower", _seconds("pipelines.load_inputs")),
    "cli.main.s": ("s", "lower", _seconds("cli.main")),
    "cli.self_s": ("s", "lower", _self_seconds("cli.main")),
}


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    return {
        name: {"value": float(derive(tracer.totals, tracer.counters, tracer.distinct)),
               "unit": unit}
        for name, (unit, _, derive) in LAYER_METRICS.items()
    }
