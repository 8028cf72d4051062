"""The benchmark workloads: inputs from a seed, one timed batch, and checks.

Set-up turns the benchmark seed into a fixed list of batches: it generates
the inputs, writes them to the run's temporary directory and loads them
back through fsfgw's readers.  A batch is the unit the timed loop repeats.
An operation is one pair solve (one plan-pair comparison in
``redistrict-cluster``); correctness is checked per operation.

The sizes keep every batch at a few seconds on a 2-CPU machine, so a
30-second run covers about one cycle of distinct inputs.  Per-instance
solve time varies by 25-35% between random instances, so each run
spreads its time over many distinct instances rather than repeating few.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import fsfgw
import fsfgw.cli
from fsfgw.core import MARGINAL_TOL

# Objectives must match the recorded references to this relative
# tolerance; weights to WEIGHT_ATOL, which is exact for the lasso and
# simplex modes whose weights are 0 or 1.
OBJECTIVE_RTOL = 1e-9
WEIGHT_ATOL = 1e-9
# The objective must equal the sum of its three terms to this relative
# tolerance, and the trace may rise by at most TRACE_SLACK per step.
TERMS_RTOL = 1e-12
TRACE_SLACK = 1e-10


def solve_problems(result, x, y) -> list[str]:
    """Invariants every ``SolveResult`` must meet."""

    problems = []
    T = np.asarray(result.plan.T)
    if T.shape != (x.n, y.n) or T.min(initial=0.0) < 0.0:
        problems.append("plan has the wrong shape or a negative entry")
    else:
        dev = max(np.abs(T.sum(axis=1) - x.a).max(), np.abs(T.sum(axis=0) - y.a).max())
        if dev > MARGINAL_TOL:
            problems.append(f"plan marginals deviate by {dev:.3e}")
    terms = result.feature_term + result.gw_term + result.reg_term
    if not abs(result.objective - terms) <= TERMS_RTOL * max(1.0, abs(result.objective)):
        problems.append("objective differs from the sum of its terms")
    objectives = [entry.objective for entry in result.trace]
    if any(b > a + TRACE_SLACK for a, b in zip(objectives, objectives[1:])):
        problems.append("objective trace increases")
    return problems


def outcome(result) -> list:
    """What a reference records for one solve: objective and weights."""

    return [float(result.objective), [float(w) for w in result.weights.w]]


def reference_problems(got: list, want: list) -> list[str]:
    obj, weights = got
    ref_obj, ref_weights = want
    problems = []
    if not abs(obj - ref_obj) <= OBJECTIVE_RTOL * max(1.0, abs(ref_obj)):
        problems.append(f"objective {obj!r} differs from the reference {ref_obj!r}")
    if len(weights) != len(ref_weights) or any(
        abs(a - b) > WEIGHT_ATOL for a, b in zip(weights, ref_weights)
    ):
        problems.append("weights differ from the reference")
    return problems


def _write_object(path: Path, obj) -> Path:
    with open(path, "w") as fh:
        json.dump(fsfgw.structured_object_to_dict(obj), fh)
    return path


def _point_cloud(rng: np.random.Generator, n: int, d: int):
    """Uniform points in the unit square with normalized Euclidean
    distances, a Dirichlet(2) measure and Gaussian features."""

    pts = rng.uniform(size=(n, 2))
    C = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    C /= C.max()
    return fsfgw.StructuredObject(C=C, a=rng.dirichlet(np.full(n, 2.0)), X=rng.normal(size=(n, d)))


class Workload:
    name = ""
    batches = 1
    # Layers this workload must exercise; the traced run checks each
    # records at least one call.
    layers: tuple[str, ...] = ()

    def prepare(self, seed: int, tmp: Path, count: int) -> list:
        """Generate, write and load the inputs of the first ``count``
        batches; a smaller count gives a prefix of the same batches."""

        raise NotImplementedError

    def run(self, batch):
        """The timed work of one batch."""

        raise NotImplementedError

    def results(self, batch, raw) -> list[tuple[list | None, list[str]]]:
        """Per operation: its reference outcome (None when it has none) and
        the problems found."""

        raise NotImplementedError


_SOLVER_LAYERS = (
    "transport.solve_emd",
    "fgw.solve_fgw",
    "fgw.gw_gradient",
    "fgw.gw_value",
    "suppression.solve_fsfgw",
    "suppression.update_weights",
    "core.feature_cost_stack",
    "core.feature_scores",
    "core.transport_plan_check",
    "core.structured_object_check",
)


class SynthUniform(Workload):
    """The paper's planted-recovery setting: serial ``solve_fsfgw`` on
    geometric graphs with hop geodesics, uniform measures, n = m, read
    back from object JSON files."""

    name = "synth-uniform"
    batches = 12
    pairs = 4
    config = fsfgw.FsFgwConfig(mode="lasso", suppression_fraction=0.25, q=2.0)
    layers = _SOLVER_LAYERS + (
        "pipelines.generate_synthetic_pair",
        "pipelines.geodesic_structure",
        "pipelines.load_inputs",
    )

    def prepare(self, seed, tmp, count):
        rng = np.random.default_rng(seed)
        batches = []
        for b in range(count):
            batch = []
            for p in range(self.pairs):
                spec = fsfgw.SyntheticSpec(
                    n=50, d=20, k=5, delta=1.0, seed=int(rng.integers(2**31))
                )
                x, y, _ = fsfgw.generate_synthetic_pair(spec)
                px = _write_object(tmp / f"{self.name}-{b}-{p}-x.json", x)
                py = _write_object(tmp / f"{self.name}-{b}-{p}-y.json", y)
                batch.append((fsfgw.load_structured_object(px), fsfgw.load_structured_object(py)))
            batches.append(batch)
        return batches

    def run(self, batch):
        out = []
        for x, y in batch:
            try:
                out.append(fsfgw.solve_fsfgw(x, y, self.config))
            except fsfgw.FsfgwError as exc:
                out.append(exc)
        return out

    def results(self, batch, raw):
        checked = []
        for (x, y), result in zip(batch, raw):
            if isinstance(result, Exception):
                checked.append((None, [f"solve raised {result!r}"]))
            else:
                checked.append((outcome(result), solve_problems(result, x, y)))
        return checked


class PairwiseQ1Pool(Workload):
    """``pairwise_distance_matrix`` over point clouds in a 2-worker process
    pool, simplex mode with q = 1 (the direct O(n^2 m^2) contraction)."""

    name = "pairwise-q1-pool"
    batches = 6
    clouds = 8
    workers = 2
    config = fsfgw.FsFgwConfig(mode="simplex", q=1.0)
    layers = _SOLVER_LAYERS + ("pipelines.pairwise_distance_matrix", "pipelines.load_inputs")

    def prepare(self, seed, tmp, count):
        rng = np.random.default_rng(seed)
        batches = []
        for b in range(count):
            objects = []
            for c in range(self.clouds):
                obj = _point_cloud(rng, int(rng.integers(24, 33)), 8)
                path = _write_object(tmp / f"{self.name}-{b}-{c}.json", obj)
                objects.append(fsfgw.load_structured_object(path))
            batches.append(objects)
        return batches

    def run(self, batch):
        try:
            return fsfgw.pairwise_distance_matrix(batch, self.config, workers=self.workers)
        except fsfgw.FsfgwError as exc:
            return exc

    def results(self, batch, raw):
        pairs = len(batch) * (len(batch) - 1) // 2
        if isinstance(raw, Exception):
            return [(None, [f"pairwise raised {raw!r}"])] * pairs
        D, records = raw
        matrix_problems = []
        if not (np.array_equal(D, D.T) and not np.diagonal(D).any()):
            matrix_problems.append("distance matrix is not symmetric with a zero diagonal")
        if len(records) != pairs:
            return [(None, ["wrong number of pair records"])] * pairs
        checked = []
        for rec in records:
            problems = solve_problems(rec.result, batch[rec.i], batch[rec.j])
            if D[rec.i, rec.j] != rec.result.objective:
                problems.append("matrix entry differs from the pair objective")
            checked.append((outcome(rec.result), problems + matrix_problems))
        return checked


# --- redistricting ----------------------------------------------------------


def _grid_edges(cols: int, rows: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return edges


def _plans(rng: np.random.Generator, cols: int, rows: int, districts: int) -> dict:
    """Column bands, row bands and boundary moves of them, so most
    districts recur unchanged across plans.  Every move takes a cell off
    the edge of a band at least two cells wide, so districts stay
    connected."""

    cells = np.arange(cols * rows)
    col_band = (cells % cols) * districts // cols + 1
    row_band = (cells // cols) * districts // rows + 1

    shift = col_band.copy()
    shift[max(c for c in range(cols) if col_band[c] == 1)] = 2
    shift_low = col_band.copy()
    last_row = (rows - 1) * cols
    shift_low[last_row + min(c for c in range(cols) if col_band[c] == districts)] = districts - 1
    noisy = col_band.copy()
    boundary = [
        i for i in cells if 0 < i % cols < cols - 1 and col_band[i] != col_band[i + 1]
    ]
    for i in rng.choice(boundary, size=3, replace=False):
        noisy[i] = col_band[i + 1]
    rows_shift = row_band.copy()
    first_of_band2 = min(i for i in cells if row_band[i] == 2)
    rows_shift[first_of_band2 + cols - 1] = 1
    return {
        "base": col_band,
        "shift": shift,
        "shift_low": shift_low,
        "noisy": noisy,
        "bands2": row_band,
        "bands2_shift": rows_shift,
    }


class RedistrictCluster(Workload):
    """``fsfgw redistrict cluster`` run in-process on a rook grid."""

    name = "redistrict-cluster"
    batches = 6
    cols, rows, features, districts = 12, 10, 6, 5
    flags = ["--mode", "lasso", "--lambda", "0.05", "--workers", "1"]
    layers = _SOLVER_LAYERS + (
        "cli.main",
        "pipelines.load_inputs",
        "pipelines.compare_plans",
        "pipelines.match_districts",
        "pipelines.district_object",
        "pipelines.geodesic_structure",
        "pipelines.complete_linkage_cluster",
    )

    def prepare(self, seed, tmp, count):
        rng = np.random.default_rng(seed)
        cells = self.cols * self.rows
        batches = []
        for b in range(count):
            root = tmp / f"{self.name}-{b}"
            root.mkdir()
            ids = [f"p{i:03d}" for i in range(cells)]
            features = rng.normal(size=(cells, self.features))
            features[np.arange(cells) % self.cols < self.cols // 2, 0] += 1.5
            population = rng.integers(50, 150, size=cells)
            with open(root / "nodes.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(
                    ["precinct_id", "population"] + [f"v{r}" for r in range(self.features)]
                )
                for i, pid in enumerate(ids):
                    writer.writerow([pid, int(population[i])] + [repr(float(v)) for v in features[i]])
            with open(root / "edges.csv", "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["precinct_id_a", "precinct_id_b"])
                writer.writerows([ids[i], ids[j]] for i, j in _grid_edges(self.cols, self.rows))
            plan_paths = []
            for name, labels in _plans(rng, self.cols, self.rows, self.districts).items():
                path = root / f"plan_{name}.csv"
                with open(path, "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(["precinct_id", "district"])
                    writer.writerows([pid, int(label)] for pid, label in zip(ids, labels))
                plan_paths.append(str(path))
            argv = ["redistrict", "cluster", str(root / "nodes.csv"), str(root / "edges.csv")]
            argv += plan_paths + self.flags + ["--out", str(root / "out")]
            batches.append({"argv": argv, "out": root / "out", "plans": len(plan_paths)})
        return batches

    def run(self, batch):
        return fsfgw.cli.main(batch["argv"])

    def results(self, batch, raw):
        N = batch["plans"]
        pairs = N * (N - 1) // 2
        if raw != 0:
            return [(None, [f"cli exited {raw}"])] * pairs
        with open(batch["out"] / "plan_distances.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        D = np.array([[float(v) for v in row[1:]] for row in rows])
        with open(batch["out"] / "dendrogram.json") as fh:
            dendrogram = json.load(fh)
        problems = []
        if D.shape != (N, N) or not np.array_equal(D, D.T) or np.diagonal(D).any():
            return [(None, ["plan distance matrix is not symmetric with a zero diagonal"])] * pairs
        expected = fsfgw.complete_linkage_cluster(D)
        same = len(expected) == len(dendrogram) and all(
            (m.a, m.b) == (e["a"], e["b"])
            and abs(m.height - e["height"]) <= OBJECTIVE_RTOL * max(1.0, abs(m.height))
            for m, e in zip(expected, dendrogram)
        )
        if not same:
            problems.append("dendrogram differs from complete_linkage_cluster on the matrix")
        return [
            ([float(D[i, j]), []], problems + ([] if D[i, j] >= 0.0 else ["negative distance"]))
            for i in range(N)
            for j in range(i + 1, N)
        ]


WORKLOADS = {
    w.name: w
    for w in (SynthUniform(), RedistrictCluster(), PairwiseQ1Pool())
}
