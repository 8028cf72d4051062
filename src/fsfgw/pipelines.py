"""Experiment pipelines: synthetic recovery, pairwise matrices, clustering,
and redistricting-plan comparison.

Synthetic pairs are random geometric graphs with normalized hop-count
geodesics and Gaussian features, a planted subset of which shifts in mean
between the two objects.  Redistricting plans are compared district by
district after an exact minimum-Hamming assignment, with population-
normalized measures and hop-count geodesics inside each district.

``compare_plans`` compares every pair of a list of plans in one pass: it
matches each plan pair once and solves each distinct district pair once.
Those solves and the pairs of ``pairwise_distance_matrix`` run in
``_ordered_map``, the one process pool: with ``workers`` N, the calling
process and N - 1 helper processes, no more than the usable CPUs, take
task indices from one shared counter, and the results come back in task
order, so pool and serial runs give identical bits and raise the same
first failure.
"""

from __future__ import annotations

import csv
import json
import logging
import multiprocessing
import multiprocessing.connection
import operator
import os
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (
    breadth_first_order,
    connected_components,
    shortest_path,
)

from .core import (
    FsFgwConfig,
    FsfgwError,
    InvalidConfig,
    ShapeMismatch,
    SolveResult,
    StructuredObject,
    SuppressionWeights,
    TransportPlan,
)
from .suppression import solve_fsfgw

__all__ = [
    "DisconnectedAfterRetries",
    "EmptySet",
    "InvalidMatrix",
    "DisconnectedDistrict",
    "DistrictCountMismatch",
    "PrecinctUniverseMismatch",
    "PairwiseSolveError",
    "InvalidObjectFile",
    "SyntheticSpec",
    "generate_synthetic_pair",
    "separation_metric",
    "RocPoint",
    "RocSweep",
    "roc_sweep",
    "PairRecord",
    "pairwise_distance_matrix",
    "Merge",
    "complete_linkage_cluster",
    "geodesic_structure",
    "PrecinctGraph",
    "RedistrictingPlan",
    "district_object",
    "match_districts",
    "PlanComparison",
    "compare_plans",
    "load_structured_object",
    "structured_object_to_dict",
    "load_precinct_graph",
    "load_plan_csv",
]

logger = logging.getLogger("fsfgw")

RESAMPLE_ATTEMPTS = 20


class DisconnectedAfterRetries(FsfgwError):
    """No sufficiently large connected component after resampling."""


class EmptySet(FsfgwError):
    """The differentiating set must be a nonempty proper subset."""


class InvalidMatrix(FsfgwError):
    """A distance matrix is not symmetric/zero-diagonal/nonnegative."""


class DisconnectedDistrict(FsfgwError):
    """A district induces a disconnected subgraph."""


class DistrictCountMismatch(FsfgwError):
    """Two plans have different district counts."""


class PrecinctUniverseMismatch(FsfgwError):
    """Two plans do not cover the same precincts."""


class PairwiseSolveError(FsfgwError):
    """A pairwise solve failed; the message names the pair."""


class InvalidObjectFile(FsfgwError):
    """A structured-object JSON document violates the schema."""


# ---------------------------------------------------------------------------
# graph helpers


def geodesic_structure(
    adjacency: Sequence[tuple[int, int]], nodes: Sequence[int]
) -> np.ndarray:
    """Hop-count geodesic matrix of the subgraph induced by ``nodes``,
    divided by its maximum (a single node yields [[0]]).

    Raises ``DisconnectedDistrict`` naming the components when the induced
    subgraph is disconnected.
    """

    nodes = [int(v) for v in nodes]
    if len(nodes) == 0:
        raise ShapeMismatch("cannot build a geodesic matrix on zero nodes")
    if len(set(nodes)) != len(nodes):
        raise ShapeMismatch("induced node set contains duplicates")
    local = {v: i for i, v in enumerate(nodes)}
    k = len(nodes)
    edges = [
        (local[i], local[j])
        for i, j in adjacency
        if i in local and j in local and i != j
    ]
    rows = [i for i, _ in edges]
    cols = [j for _, j in edges]
    graph = csr_matrix((np.ones(len(edges)), (rows, cols)), shape=(k, k))
    C = shortest_path(graph, directed=False, unweighted=True)
    if not np.all(np.isfinite(C)):
        count, labels = connected_components(graph, directed=False)
        named = [
            sorted(nodes[i] for i in np.flatnonzero(labels == c)) for c in range(count)
        ]
        raise DisconnectedDistrict(
            f"induced subgraph on {k} nodes splits into components {named}"
        )
    mx = C.max(initial=0.0)
    if mx > 0.0:
        C /= mx
    return C


# ---------------------------------------------------------------------------
# synthetic pairs


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for one synthetic pair: n nodes, d features of which the
    first k shift by delta in the second object, geometric graphs with the
    given connection radius."""

    n: int = 40
    d: int = 10
    k: int = 3
    delta: float = 2.0
    geo_radius: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n", "d", "k"):
            try:
                object.__setattr__(self, name, _node_count(getattr(self, name)))
            except TypeError as exc:
                raise InvalidConfig(f"{name}: {exc}") from None
        if self.n < 2:
            raise InvalidConfig(f"n must be >= 2, got {self.n}")
        if self.d < 1:
            raise InvalidConfig(f"d must be >= 1, got {self.d}")
        if not (0 <= self.k <= self.d):
            raise InvalidConfig(f"k must lie in [0, d], got {self.k}")
        if not (np.isfinite(self.delta) and self.delta >= 0.0):
            raise InvalidConfig(f"delta must be finite and >= 0, got {self.delta}")
        if not (self.geo_radius > 0.0):
            raise InvalidConfig(f"geo_radius must be > 0, got {self.geo_radius}")
        try:
            seed = operator.index(self.seed)
        except TypeError:
            raise InvalidConfig(f"seed must be an integer, got {self.seed!r}") from None
        if seed < 0:
            raise InvalidConfig(f"seed must be >= 0, got {seed}")
        object.__setattr__(self, "seed", seed)


def _sample_geometric_graph(rng: np.random.Generator, n: int, radius: float):
    """Largest component of a random geometric graph with >= 0.9 n nodes,
    resampled up to RESAMPLE_ATTEMPTS times; nodes come back in BFS order
    so any prefix stays connected."""

    for _ in range(RESAMPLE_ATTEMPTS):
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        delta = pts[:, None, :] - pts[None, :, :]
        close = (delta**2).sum(axis=2) <= radius**2
        np.fill_diagonal(close, False)
        graph = csr_matrix(close)
        _, labels = connected_components(graph, directed=False)
        sizes = np.bincount(labels)
        largest = int(np.argmax(sizes))  # first maximum: lowest-numbered component
        if sizes[largest] >= 0.9 * n:
            source = int(np.flatnonzero(labels == largest)[0])
            order = breadth_first_order(
                graph, source, directed=False, return_predecessors=False
            )
            edges = [(i, j) for i in range(n) for j in range(i + 1, n) if close[i, j]]
            return order, edges
    raise DisconnectedAfterRetries(
        f"no component with >= {0.9 * n:.0f} of {n} nodes in "
        f"{RESAMPLE_ATTEMPTS} samples at radius {radius}"
    )


def generate_synthetic_pair(
    spec: SyntheticSpec,
) -> tuple[StructuredObject, StructuredObject, frozenset[int]]:
    """Two random geometric graphs with planted differentiating features.

    Features 0..k-1 are N(0, 1) in the first object and N(delta, 1) in the
    second; the remaining d - k features are N(0, 1) in both.  Both
    objects are trimmed to the smaller of the two retained components and
    carry uniform measures and normalized hop geodesics.  Returns the two
    objects and the differentiating index set.
    """

    rng = np.random.default_rng(spec.seed)
    order1, edges1 = _sample_geometric_graph(rng, spec.n, spec.geo_radius)
    order2, edges2 = _sample_geometric_graph(rng, spec.n, spec.geo_radius)
    size = min(len(order1), len(order2))
    C1 = geodesic_structure(edges1, order1[:size])
    C2 = geodesic_structure(edges2, order2[:size])

    X = rng.normal(0.0, 1.0, size=(size, spec.d))
    Y = rng.normal(0.0, 1.0, size=(size, spec.d))
    Y[:, : spec.k] += spec.delta

    a = np.full(size, 1.0 / size)
    names = tuple(f"f{r}" for r in range(spec.d))
    x = StructuredObject(C=C1, a=a, X=X, feature_names=names)
    y = StructuredObject(C=C2, a=a, X=Y, feature_names=names)
    return x, y, frozenset(range(spec.k))


def separation_metric(
    weights: SuppressionWeights | np.ndarray, diff_set: frozenset[int] | Sequence[int]
) -> float:
    """Mean weight on the differentiating features minus mean weight on the
    rest.  Lies in [-1, 1]; equals 1.0 exactly on perfect recovery."""

    w = weights.w if isinstance(weights, SuppressionWeights) else np.asarray(weights, float)
    d = w.shape[0]
    diff = sorted(int(i) for i in diff_set)
    if any(i < 0 or i >= d for i in diff):
        raise ShapeMismatch(f"diff indices out of range for {d} features")
    if len(diff) == 0 or len(diff) >= d:
        raise EmptySet("diff_set must be a nonempty proper subset of the features")
    mask = np.zeros(d, dtype=bool)
    mask[diff] = True
    return float(w[mask].mean() - w[~mask].mean())


# ---------------------------------------------------------------------------
# ROC sweep


class RocPoint(NamedTuple):
    fraction: float
    tpr: float
    fpr: float


@dataclass(frozen=True)
class RocSweep:
    points: tuple[RocPoint, ...]
    auc: float


def _trapezoid_auc(points: Sequence[tuple[float, float]]) -> float:
    """Trapezoidal area under (FPR, TPR) points, anchored at (0,0), (1,1)."""

    pts = sorted(set((float(f), float(t)) for f, t in points) | {(0.0, 0.0), (1.0, 1.0)})
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts[:-1], pts[1:]):
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def roc_sweep(
    spec: SyntheticSpec, config: FsFgwConfig, fractions: Sequence[float]
) -> RocSweep:
    """Recovery operating curve over suppression fractions on one pair.

    Each fraction is an independent solve on the same synthetic pair with
    ``config``, a lasso or ridge configuration without a fixed level, whose
    suppression fraction is the only field replaced; weights threshold at
    0.5 into predicted-differentiating sets, scored against the planted
    truth.  The AUC is the trapezoid over the points sorted by FPR,
    anchored at (0, 0) and (1, 1).
    """

    if config.mode not in ("lasso", "ridge"):
        raise InvalidConfig(f"roc_sweep supports lasso and ridge, got {config.mode!r}")
    if config.lam is not None:
        raise InvalidConfig("roc_sweep calibrates the level at each fraction; lam must be None")
    if not (0 < spec.k < spec.d):
        raise EmptySet("roc_sweep needs a nonempty proper differentiating set")
    if len(fractions) == 0:
        raise InvalidConfig("at least one fraction is required")
    x, y, diff = generate_synthetic_pair(spec)
    truth = np.zeros(spec.d, dtype=bool)
    truth[sorted(diff)] = True
    points = []
    for f in fractions:
        result = solve_fsfgw(x, y, replace(config, suppression_fraction=float(f)))
        predicted = result.weights.w > 0.5
        tp = int(np.sum(predicted & truth))
        fp = int(np.sum(predicted & ~truth))
        points.append(RocPoint(float(f), tp / spec.k, fp / (spec.d - spec.k)))
    auc = _trapezoid_auc([(p.fpr, p.tpr) for p in points])
    return RocSweep(points=tuple(points), auc=auc)


# ---------------------------------------------------------------------------
# pairwise distances and clustering


class PairRecord(NamedTuple):
    i: int
    j: int
    result: SolveResult


def _claim(counter, count: int) -> int | None:
    """The next unclaimed task index from the shared counter, or None."""

    with counter.get_lock():
        i = counter.value
        if i >= count:
            return None
        counter.value = i + 1
        return i


def _attempt(task, args, counter, i: int) -> tuple[bool, object]:
    """(failed, result or exception) of task i; a failure stops all claims,
    since every task before it has been claimed already."""

    try:
        return False, task(*args[i])
    except Exception as exc:
        with counter.get_lock():
            counter.value = len(args)
        return True, exc


def _helper(task, args, counter, conn) -> None:
    # One message per task; the helper stops after its first failure.
    for i in iter(lambda: _claim(counter, len(args)), None):
        failed, value = _attempt(task, args, counter, i)
        conn.send((i, failed, value))
        if failed:
            break
    conn.close()


def _ordered_map(task, args: list[tuple], workers: int) -> list:
    """``[task(*a) for a in args]`` in min(workers, len(args), usable CPUs)
    processes: the calling process and helpers started through
    ``multiprocessing``, so ``task`` must be picklable under a start
    method other than fork.  The usable CPUs are this process's affinity
    set, or the CPU count where the platform has none.

    Every process claims the next task index from one shared counter and
    each helper sends back (index, failed, result or exception) in one
    message through its own pipe.  Results come back in task order; the
    first failure in task order is raised after every helper has been
    joined, and a task no helper reported raises ``ChildProcessError``
    naming the exit codes.  Helpers are terminated on any other exception.
    """

    if workers < 1:
        raise InvalidConfig(f"workers must be >= 1, got {workers}")
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    if min(workers, len(args)) > cpus:
        logger.info("%d workers capped at %d usable CPUs", workers, cpus)
    helpers = min(workers, len(args), cpus) - 1
    if helpers < 1:
        return [task(*a) for a in args]
    counter = multiprocessing.Value("q", 0)
    outcomes: dict[int, tuple[bool, object]] = {}
    procs, readers = [], []
    try:
        for _ in range(helpers):
            reader, writer = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_helper, args=(task, args, counter, writer))
            proc.start()
            # Only the helper holds its writer, so its reader sees EOF when it exits;
            # helpers started later never inherit it.
            writer.close()
            procs.append(proc)
            readers.append(reader)
        for i in iter(lambda: _claim(counter, len(args)), None):
            outcomes[i] = _attempt(task, args, counter, i)
            _receive(readers, outcomes, timeout=0)
        while readers:
            _receive(readers, outcomes, timeout=None)
    except BaseException:
        for proc in procs:
            proc.terminate()
        raise
    finally:
        # A helper at EOF may still be running its exit handlers.
        for proc in procs:
            proc.join()
        for reader in readers:
            reader.close()
    results = []
    for i in range(len(args)):
        if i not in outcomes:
            codes = sorted({proc.exitcode for proc in procs})
            raise ChildProcessError(f"task {i} was never reported: helper exit codes {codes}")
        failed, value = outcomes[i]
        if failed:
            raise value
        results.append(value)
    return results


def _receive(readers: list, outcomes: dict, timeout: float | None) -> None:
    """Store the messages waiting on ``readers``, waiting up to ``timeout``
    for the first; a reader at EOF (its helper has exited) is dropped."""

    for reader in multiprocessing.connection.wait(readers, timeout):
        try:
            i, failed, value = reader.recv()
        except EOFError:
            readers.remove(reader)
            reader.close()
        else:
            outcomes[i] = (failed, value)


def _solve_pair(i, j, x, y, config):
    try:
        result = solve_fsfgw(x, y, config)
    except FsfgwError as exc:
        raise PairwiseSolveError(f"pair ({i}, {j}) failed: {exc}") from exc
    return PairRecord(i, j, result)


def pairwise_distance_matrix(
    objects: Sequence[StructuredObject],
    config: FsFgwConfig,
    workers: int = 1,
) -> tuple[np.ndarray, list[PairRecord]]:
    """Symmetric matrix of solve objectives over all unordered pairs, with
    one record per pair (i < j, row-major).  The pairs run through
    ``_ordered_map`` with ``workers``, so a pool run is bit-identical to a
    serial run."""

    N = len(objects)
    tasks = [(i, j, objects[i], objects[j], config) for i in range(N) for j in range(i + 1, N)]
    records = _ordered_map(_solve_pair, tasks, workers)
    D = np.zeros((N, N))
    for i, j, result in records:
        D[i, j] = D[j, i] = result.objective
    return D, records


class Merge(NamedTuple):
    """One agglomeration step: the two cluster ids joined and the linkage
    height.  Leaves are 0..N-1; the merge at step t creates cluster N+t."""

    a: int
    b: int
    height: float


def complete_linkage_cluster(D: np.ndarray) -> list[Merge]:
    """Agglomerative clustering under complete (maximum) linkage.

    At every step the pair of active clusters with the smallest maximum
    inter-point distance merges; ties resolve to the lexicographically
    smallest (id_a, id_b).  Returns the N-1 merges in order.
    """

    D = np.asarray(D, dtype=float)
    if D.ndim != 2 or D.shape[0] != D.shape[1]:
        raise InvalidMatrix(f"distance matrix must be square, got {D.shape}")
    N = D.shape[0]
    if not np.all(np.isfinite(D)):
        raise InvalidMatrix("distance matrix must be finite")
    if np.abs(D - D.T).max(initial=0.0) > 1e-9:
        raise InvalidMatrix("distance matrix must be symmetric")
    if np.abs(np.diagonal(D)).max(initial=0.0) > 1e-12:
        raise InvalidMatrix("distance matrix must have a zero diagonal")
    if D.min(initial=0.0) < 0.0:
        raise InvalidMatrix("distance matrix must be nonnegative")

    # Lance-Williams update: a merged cluster's complete linkage is the larger
    # of its parts', so L holds exact maxima of D.  L keeps the active ids in
    # ascending order and D's orientation (D is symmetric only within 1e-9).
    ids = list(range(N))
    L = D.copy()
    merges: list[Merge] = []
    for step in range(N - 1):
        k = len(ids)
        # With the diagonal and below masked, the first row-major minimum is
        # the smallest (id_a, id_b) among ties.
        i, j = divmod(int(np.argmin(np.where(np.tri(k, dtype=bool), np.inf, L))), k)
        merges.append(Merge(ids[i], ids[j], float(L[i, j])))
        keep = [p for p in range(k) if p != i and p != j]
        grown = np.zeros((k - 1, k - 1))
        grown[:-1, :-1] = L[np.ix_(keep, keep)]
        grown[:-1, -1] = np.maximum(L[keep, i], L[keep, j])
        grown[-1, :-1] = np.maximum(L[i, keep], L[j, keep])
        L = grown
        ids = [ids[p] for p in keep] + [N + step]
    return merges


# ---------------------------------------------------------------------------
# redistricting


@dataclass(frozen=True)
class PrecinctGraph:
    """Adjacency, per-precinct features, and population for one state of
    affairs; precincts are indexed by file order and named by id."""

    precinct_ids: tuple[str, ...]
    adjacency: tuple[tuple[int, int], ...]
    features: np.ndarray
    population: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        ids = tuple(str(s) for s in self.precinct_ids)
        if len(set(ids)) != len(ids):
            raise InvalidObjectFile("precinct ids must be unique")
        P = len(ids)
        feats = np.asarray(self.features, dtype=float)
        pop = np.asarray(self.population, dtype=float)
        if feats.ndim != 2 or feats.shape[0] != P:
            raise ShapeMismatch(f"features must have {P} rows, got {feats.shape}")
        if pop.shape != (P,):
            raise ShapeMismatch(f"population must have length {P}, got {pop.shape}")
        if not np.all(np.isfinite(feats)) or not np.all(np.isfinite(pop)):
            raise ShapeMismatch("features and population must be finite")
        if pop.min(initial=0.0) < 0.0:
            raise InvalidObjectFile("population must be nonnegative")
        names = tuple(str(s) for s in self.feature_names)
        if len(names) != feats.shape[1]:
            raise ShapeMismatch(
                f"{len(names)} feature names for {feats.shape[1]} columns"
            )
        seen = set()
        edges = []
        for i, j in self.adjacency:
            i, j = int(i), int(j)
            if i == j:
                raise InvalidObjectFile(f"self-loop on precinct index {i}")
            if not (0 <= i < P and 0 <= j < P):
                raise InvalidObjectFile(f"edge ({i}, {j}) out of range for {P} precincts")
            key = (min(i, j), max(i, j))
            if key not in seen:
                seen.add(key)
                edges.append(key)
        feats = feats.copy()
        feats.setflags(write=False)
        pop = pop.copy()
        pop.setflags(write=False)
        object.__setattr__(self, "precinct_ids", ids)
        object.__setattr__(self, "adjacency", tuple(edges))
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "population", pop)
        object.__setattr__(self, "feature_names", names)

    @property
    def P(self) -> int:
        return len(self.precinct_ids)

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class RedistrictingPlan:
    """A district label in 1..D for every precinct."""

    plan_id: str
    assignment: np.ndarray

    def __post_init__(self) -> None:
        assignment = np.asarray(self.assignment, dtype=np.int64)
        if assignment.ndim != 1 or assignment.shape[0] < 1:
            raise ShapeMismatch("assignment must be a nonempty vector")
        labels = np.unique(assignment)
        D = int(labels.max())
        if labels.min() < 1 or labels.shape[0] != D:
            raise InvalidObjectFile(
                f"district labels must be exactly 1..D with none empty, got {labels.tolist()}"
            )
        assignment = assignment.copy()
        assignment.setflags(write=False)
        object.__setattr__(self, "assignment", assignment)

    @property
    def P(self) -> int:
        return self.assignment.shape[0]

    @property
    def D(self) -> int:
        return int(self.assignment.max())


def district_object(graph: PrecinctGraph, indices: Sequence[int]) -> StructuredObject:
    """Structured object for one district: hop geodesics on the induced
    subgraph, population-normalized measure (uniform fallback when the
    district's population is zero), and precinct features."""

    idx = np.asarray(sorted(int(i) for i in indices), dtype=np.int64)
    if idx.shape[0] == 0:
        raise EmptySet("a district must contain at least one precinct")
    C = geodesic_structure(graph.adjacency, idx.tolist())
    pop = graph.population[idx]
    total = pop.sum()
    a = pop / total if total > 0 else np.full(idx.shape[0], 1.0 / idx.shape[0])
    return StructuredObject(
        C=C, a=a, X=graph.features[idx], feature_names=graph.feature_names
    )


def match_districts(
    plan_p: RedistrictingPlan, plan_q: RedistrictingPlan
) -> list[tuple[int, int]]:
    """Minimum-total-Hamming bijection between the two plans' districts.

    District i of ``plan_p`` is matched to district sigma(i) of ``plan_q``
    minimizing the summed Hamming distance between precinct-membership
    indicator vectors, solved exactly as a linear assignment.  Returns
    (label_p, label_q) pairs ordered by label_p (labels are 1-based).
    """

    if plan_p.P != plan_q.P:
        raise PrecinctUniverseMismatch(
            f"plans cover {plan_p.P} and {plan_q.P} precincts"
        )
    if plan_p.D != plan_q.D:
        raise DistrictCountMismatch(
            f"plans have {plan_p.D} and {plan_q.D} districts"
        )
    D = plan_p.D
    mem_p = plan_p.assignment[:, None] == np.arange(1, D + 1)[None, :]
    mem_q = plan_q.assignment[:, None] == np.arange(1, D + 1)[None, :]
    counts_p = mem_p.sum(axis=0)
    counts_q = mem_q.sum(axis=0)
    overlap = mem_p.T.astype(np.int64) @ mem_q.astype(np.int64)
    H = counts_p[:, None] + counts_q[None, :] - 2 * overlap
    rows, cols = linear_sum_assignment(H)
    return [(int(r) + 1, int(c) + 1) for r, c in zip(rows, cols)]


@dataclass(frozen=True)
class PlanComparison:
    """District-matched comparison of two plans: the matching, one solve
    per matched pair (in matching order), their summed objectives, and the
    per-pair suppression weights with their mean."""

    matching: tuple[tuple[int, int], ...]
    per_district: tuple[SolveResult, ...]
    total_distance: float
    mean_weights: np.ndarray
    weight_matrix: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "matching": [list(pair) for pair in self.matching],
            "total_distance": self.total_distance,
            "mean_weights": self.mean_weights.tolist(),
            "per_district": [
                {
                    "district_p": pair[0],
                    "district_q": pair[1],
                    "objective": res.objective,
                    "converged": res.converged,
                    "weights": res.weights.w.tolist(),
                }
                for pair, res in zip(self.matching, self.per_district)
            ],
        }


def _district_key(plan: RedistrictingPlan, label: int) -> tuple[int, ...]:
    return tuple(np.flatnonzero(plan.assignment == label).tolist())


def _solve_districts(x, y, config):
    # The pool task: it looks solve_fsfgw up here, where perfbench's tracer wraps it.
    return solve_fsfgw(x, y, config)


def compare_plans(
    graph: PrecinctGraph,
    plans: Sequence[RedistrictingPlan],
    config: FsFgwConfig,
    workers: int = 1,
) -> list[PlanComparison]:
    """One district-matched comparison per plan pair (i < j, row-major).

    Every plan must cover the graph's precinct universe.  Each plan pair
    is matched once; each district (keyed on its sorted precinct indices)
    is built once and each unordered matched district pair solved once, in
    first-seen order and orientation, through ``_ordered_map`` with
    ``workers``.  A pair met the other way round gets the stored result
    with its plan transposed, the same bits as a new solve.  A
    comparison's total distance is the sum of its matched-pair objectives;
    its weight matrix stacks each pair's suppression weights (one row per
    matched pair, in matching order).
    """

    for plan in plans:
        if plan.P != graph.P:
            raise PrecinctUniverseMismatch(
                f"plan {plan.plan_id!r} covers {plan.P} precincts, graph has {graph.P}"
            )
    districts, first, matched = {}, {}, []  # first: unordered pair -> first orientation
    for i, plan_p in enumerate(plans):
        for plan_q in plans[i + 1 :]:
            rows = []
            for label_p, label_q in match_districts(plan_p, plan_q):
                keys = _district_key(plan_p, label_p), _district_key(plan_q, label_q)
                for key in keys:
                    if key not in districts:
                        districts[key] = district_object(graph, key)
                rows.append((label_p, label_q, keys, frozenset(keys) in first))
                first.setdefault(frozenset(keys), keys)
            matched.append(rows)
    tasks = [(districts[kp], districts[kq], config) for kp, kq in first.values()]
    solved = dict(zip(first.values(), _ordered_map(_solve_districts, tasks, workers)))
    comparisons = []
    for rows in matched:
        results = []
        for label_p, label_q, (kp, kq), reused in rows:
            r = solved.get((kp, kq))
            if r is None:
                r = solved[kq, kp]
                r = replace(r, plan=TransportPlan(r.plan.T.T, r.plan.col_marginal,
                                                  r.plan.row_marginal))
            logger.info("district pair (%d, %d): objective %.6g, %s", label_p, label_q,
                        r.objective, "reused" if reused else "solved")
            results.append(r)
        weight_matrix = np.array([r.weights.w for r in results])
        comparisons.append(PlanComparison(
            matching=tuple((lp, lq) for lp, lq, _, _ in rows),
            per_district=tuple(results),
            total_distance=float(sum(r.objective for r in results)),
            mean_weights=weight_matrix.mean(axis=0),
            weight_matrix=weight_matrix,
        ))
    asked = sum(map(len, matched))
    logger.info("built %d of %d districts and ran %d of %d solves",
                len(districts), 2 * asked, len(first), asked)
    return comparisons


# ---------------------------------------------------------------------------
# file formats


def structured_object_to_dict(obj: StructuredObject) -> dict:
    out = {
        "n": obj.n,
        "C": obj.C.tolist(),
        "a": obj.a.tolist(),
        "X": obj.X.tolist(),
    }
    if obj.feature_names is not None:
        out["feature_names"] = list(obj.feature_names)
    return out


def _node_count(value) -> int:
    # JSON true is a Python int, and int() would truncate 2.5 or parse "3".
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def load_structured_object(source: dict | str | Path) -> StructuredObject:
    """Read a structured object from a JSON document.

    The document needs ``n``, ``a`` (a vector or the string "uniform"),
    ``X``, and exactly one of ``C`` (a dense matrix) or ``edges`` with
    ``structure: "geodesic"`` (0-based endpoint pairs, from which
    normalized hop geodesics are computed).  ``n`` must be a JSON integer
    equal to the number of rows of ``C``, ``a`` and ``X``.
    """

    if isinstance(source, (str, Path)):
        where = source
        with open(source) as fh:
            doc = json.load(fh)
    else:
        where, doc = "object document", source
    if not isinstance(doc, dict):
        raise InvalidObjectFile(f"{where}: object document must be a JSON mapping")

    def field(key, convert):
        try:
            return convert(doc[key])
        except KeyError as exc:
            raise InvalidObjectFile(f"{where}: missing key {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise InvalidObjectFile(f"{where}: invalid {key!r}: {exc}") from exc

    def floats(value):
        return np.asarray(value, dtype=float)

    n = field("n", _node_count)
    if n < 1:
        raise InvalidObjectFile(f"{where}: n must be >= 1, got {n}")
    X = field("X", floats)
    a = field("a", lambda v: np.full(n, 1.0 / n) if v == "uniform" else floats(v))
    has_C = "C" in doc
    if has_C == ("edges" in doc):
        raise InvalidObjectFile(f"{where}: needs exactly one of 'C' and 'edges'")
    if has_C:
        C = field("C", floats)
    else:
        if doc.get("structure") != "geodesic":
            raise InvalidObjectFile(
                f"{where}: edge-list objects must declare structure: \"geodesic\""
            )
        edges = field("edges", lambda e: [(int(i), int(j)) for i, j in e])
        if any(not (0 <= i < n and 0 <= j < n) for i, j in edges):
            raise InvalidObjectFile(f"{where}: edge endpoints out of range for n={n}")
        C = geodesic_structure(edges, range(n))
    for key, arr in (("C", C), ("a", a), ("X", X)):
        if arr.shape[:1] != (n,):
            raise InvalidObjectFile(f"{where}: n is {n} but {key!r} has shape {arr.shape}")
    names = doc.get("feature_names")
    if names is not None and not isinstance(names, list):
        raise InvalidObjectFile(f"{where}: 'feature_names' must be a list, got {names!r}")
    return StructuredObject(C=C, a=a, X=X, feature_names=names)


def load_precinct_graph(nodes_path: str | Path, edges_path: str | Path) -> PrecinctGraph:
    """Read the nodes/edges CSV pair.

    ``nodes.csv`` needs columns precinct_id, population, then one column
    per feature; ``edges.csv`` needs precinct_id_a, precinct_id_b.
    Precincts are indexed in file order.
    """

    with open(nodes_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[0] != "precinct_id":
            raise InvalidObjectFile(
                f"{nodes_path}: expected header precinct_id,population,<features...>"
            )
        if header[1] != "population":
            raise InvalidObjectFile(f"{nodes_path}: second column must be population")
        feature_names = tuple(header[2:])
        ids = []
        pops = []
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise InvalidObjectFile(f"{nodes_path}: ragged row {row!r}")
            ids.append(row[0])
            try:
                pops.append(float(row[1]))
                rows.append([float(v) for v in row[2:]])
            except ValueError as exc:
                raise InvalidObjectFile(
                    f"{nodes_path}, line {reader.line_num}: {exc}"
                ) from exc
    index = {pid: i for i, pid in enumerate(ids)}
    with open(edges_path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["precinct_id_a", "precinct_id_b"]:
            raise InvalidObjectFile(
                f"{edges_path}: expected header precinct_id_a,precinct_id_b"
            )
        edges = []
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise InvalidObjectFile(f"{edges_path}: short row {row!r}")
            try:
                edges.append((index[row[0]], index[row[1]]))
            except KeyError as exc:
                raise InvalidObjectFile(f"{edges_path}: unknown precinct {exc}") from exc
    features = np.asarray(rows, dtype=float) if rows else np.zeros((0, len(feature_names)))
    return PrecinctGraph(
        precinct_ids=tuple(ids),
        adjacency=tuple(edges),
        features=features,
        population=np.asarray(pops, dtype=float),
        feature_names=feature_names,
    )


def load_plan_csv(
    path: str | Path, graph: PrecinctGraph, plan_id: str | None = None
) -> RedistrictingPlan:
    """Read a precinct_id,district CSV covering the graph's precincts
    exactly once."""

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["precinct_id", "district"]:
            raise InvalidObjectFile(f"{path}: expected header precinct_id,district")
        seen: dict[str, int] = {}
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise InvalidObjectFile(f"{path}: short row {row!r}")
            if row[0] in seen:
                raise PrecinctUniverseMismatch(f"{path}: duplicate precinct {row[0]!r}")
            try:
                seen[row[0]] = int(row[1])
            except ValueError as exc:
                raise InvalidObjectFile(f"{path}, line {reader.line_num}: {exc}") from exc
    universe = set(graph.precinct_ids)
    missing = [pid for pid in graph.precinct_ids if pid not in seen]
    extra = [pid for pid in seen if pid not in universe]
    if missing or extra:
        raise PrecinctUniverseMismatch(
            f"{path}: plan does not cover the precinct universe "
            f"(missing {missing[:5]}, extra {extra[:5]})"
        )
    assignment = np.array([seen[pid] for pid in graph.precinct_ids], dtype=np.int64)
    if plan_id is None:
        stem = Path(path).stem
        plan_id = stem[5:] if stem.startswith("plan_") else stem
    return RedistrictingPlan(plan_id=plan_id, assignment=assignment)
