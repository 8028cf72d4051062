"""Independent reference implementations used to check the package.

Everything here is deliberately written from the mathematical definitions
with none of the package's shortcuts: transport LPs go through scipy's
HiGHS solver, the structure term is a literal four-index sum, weight
subproblems are minimized by grid search or enumeration, and assignments
by trying every permutation.  scipy's assignment solver and graph
routines are the references for the package's own ports of them, which
must give the same tie choices, hop counts and node orders.  Test files
import these as the second, independent route to each quantity.

Two closed forms that the package itself never evaluates live here too:
``fgw_objective`` (the fused objective at a plan, on the package's own
``gw_value``) and ``reduced_objective_g`` (the weight subproblem
minimized in closed form).  ``assert_coupling`` states what the solvers'
unchecked plan arrays must satisfy.  ``planted_plan_fixture`` is the
redistricting test fixture, and ``write_planted_plan_csvs`` its one
writer to the CSV files that the loaders and the command line read.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components, shortest_path

from fsfgw.core import MARGINAL_TOL, InvalidConfig
from fsfgw.fgw import gw_value


def emd_lp(cost: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Transportation LP via scipy linprog (HiGHS): (value, plan)."""

    cost = np.asarray(cost, dtype=float)
    n, m = cost.shape
    A_eq = []
    for i in range(n):
        row = np.zeros(n * m)
        row[i * m : (i + 1) * m] = 1.0
        A_eq.append(row)
    for j in range(m):
        row = np.zeros(n * m)
        row[j::m] = 1.0
        A_eq.append(row)
    b_eq = np.concatenate([a, b])
    res = linprog(cost.ravel(), A_eq=np.array(A_eq), b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.success, res.message
    return float(res.fun), res.x.reshape(n, m)


def assert_basis_tree(basis, a: np.ndarray, b: np.ndarray) -> None:
    """Check a basis that ``solve_emd`` returned for marginals ``a`` and
    ``b``: its n + m - 1 arcs lie in the grid, their flows carry the
    marginals, and they span every node without a cycle (a traversal from
    row node 0)."""

    n, m = a.shape[0], b.shape[0]
    arc_row, arc_col, arc_flow = basis
    assert all(part.shape == (n + m - 1,) for part in (arc_row, arc_col, arc_flow))
    assert 0 <= arc_row.min() and arc_row.max() < n
    assert 0 <= arc_col.min() and arc_col.max() < m
    assert np.all(np.isfinite(arc_flow)) and arc_flow.min() >= -MARGINAL_TOL
    assert np.abs(np.bincount(arc_row, arc_flow, n) - a).max() <= MARGINAL_TOL
    assert np.abs(np.bincount(arc_col, arc_flow, m) - b).max() <= MARGINAL_TOL
    ends = (arc_row + n + arc_col).tolist()
    adjacency: list[list[int]] = [[] for _ in range(n + m)]
    for k, i in enumerate(arc_row.tolist()):
        adjacency[i].append(k)
        adjacency[ends[k] - i].append(k)
    parent_arc = [-1] * (n + m)
    reached, stack = {0}, [0]
    while stack:
        node = stack.pop()
        for k in adjacency[node]:
            other = ends[k] - node
            if k != parent_arc[node]:
                assert other not in reached, "the basis arcs hold a cycle"
                reached.add(other)
                parent_arc[other] = k
                stack.append(other)
    assert len(reached) == n + m, "the basis arcs do not span every node"


def feature_cost_stack_loop(X: np.ndarray, Y: np.ndarray, q: float, norm: str) -> np.ndarray:
    """The (d, n, m) feature-cost stack one feature at a time: M_r =
    |X[:, r] - Y[:, r]^T|^q, divided by its maximum when ``norm`` is
    ``"per_feature"`` and that maximum is positive."""

    stack = np.empty((X.shape[1], X.shape[0], Y.shape[0]))
    for r in range(X.shape[1]):
        M = np.abs(X[:, r][:, None] - Y[:, r][None, :]) ** q
        if norm == "per_feature" and M.max() > 0.0:
            M = M / M.max()
        stack[r] = M
    return stack


def gw_quadruple(T: np.ndarray, C1: np.ndarray, C2: np.ndarray, q: float) -> float:
    """The structure distortion as a literal four-index Python sum."""

    n, m = T.shape
    total = 0.0
    for i in range(n):
        for ip in range(n):
            for j in range(m):
                for jp in range(m):
                    total += abs(C1[i, ip] - C2[j, jp]) ** q * T[i, j] * T[ip, jp]
    return total


def gw_gradient_quadruple(T: np.ndarray, C1: np.ndarray, C2: np.ndarray, q: float) -> np.ndarray:
    """Gradient of ``gw_quadruple`` in T: 2 sum_{i'j'} |C1-C2|^q T[i',j']."""

    n, m = T.shape
    G = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for ip in range(n):
                for jp in range(m):
                    acc += abs(C1[i, ip] - C2[j, jp]) ** q * T[ip, jp]
            G[i, j] = 2.0 * acc
    return G


def assert_coupling(T: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """A solver's unchecked plan array: read-only, nonnegative, and within
    MARGINAL_TOL of both marginals."""

    assert not T.flags.writeable
    assert T.min() >= 0.0
    assert np.abs(T.sum(axis=1) - a).max() <= MARGINAL_TOL
    assert np.abs(T.sum(axis=0) - b).max() <= MARGINAL_TOL


def fgw_objective(T: np.ndarray, problem, M_eff: np.ndarray) -> float:
    """(1 - alpha) <M_eff, T> + alpha GW(T) for an ``FgwProblem``."""

    T = np.asarray(T, dtype=float)
    feature = float(np.sum(M_eff * T))
    structure = gw_value(T, problem.C1, problem.C2, problem.q)
    return (1.0 - problem.alpha) * feature + problem.alpha * structure


def finite_difference_gradient(value_fn, T: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a matrix."""

    G = np.zeros_like(T)
    for i in range(T.shape[0]):
        for j in range(T.shape[1]):
            plus = T.copy()
            plus[i, j] += h
            minus = T.copy()
            minus[i, j] -= h
            G[i, j] = (value_fn(plus) - value_fn(minus)) / (2.0 * h)
    return G


def subproblem_value(
    w: np.ndarray,
    scores: np.ndarray,
    alpha: float,
    lam: float | None,
    mode: str,
    groups=None,
) -> float:
    """Fixed-plan weight-subproblem objective, straight from the formulas.

    lasso / ridge: (1-alpha) sum (1-w_r) s_r plus the l1 or half-squared
    penalty.  simplex: the plain feature term.  group_simplex: each score
    is divided by its group's size (group means).
    """

    w = np.asarray(w, dtype=float)
    scores = np.asarray(scores, dtype=float)
    if mode == "group_simplex":
        inv = np.ones_like(scores)
        for g in groups:
            for r in g:
                inv[r] = 1.0 / len(g)
        feature = (1.0 - alpha) * float(np.sum((1.0 - w) * inv * scores))
    else:
        feature = (1.0 - alpha) * float(np.sum((1.0 - w) * scores))
    if mode == "lasso":
        return feature + lam * float(np.sum(np.abs(w)))
    if mode == "ridge":
        return feature + lam * 0.5 * float(np.sum(w * w))
    return feature


def reduced_objective_g(
    scores: np.ndarray, alpha: float, lam: float, mode: str
) -> float:
    """Value of the feature-plus-regularization terms after minimizing the
    weights in closed form, as a function of the scores alone.

    lasso: sum_r min((1 - alpha) s_r, lambda).  ridge: per coordinate,
    (1 - alpha) s_r - ((1 - alpha) s_r)^2 / (2 lambda) while the scaled
    score is below lambda, saturating at lambda / 2 beyond.
    """

    scores = np.asarray(scores, dtype=float)
    if lam <= 0.0:
        raise InvalidConfig(f"the reduced objective needs lambda > 0, got {lam}")
    t = (1.0 - alpha) * scores
    if mode == "lasso":
        return float(np.minimum(t, lam).sum())
    if mode == "ridge":
        below = t - t * t / (2.0 * lam)
        return float(np.where(t <= lam, below, lam / 2.0).sum())
    raise InvalidConfig(f"no reduced objective for mode {mode!r}")


_GRID = np.linspace(0.0, 1.0, 1001)


def grid_min_subproblem(
    scores: np.ndarray, alpha: float, lam: float | None, mode: str, groups=None
) -> float:
    """Oracle minimum of the weight subproblem.

    lasso / ridge separate per coordinate, so each coordinate is minimized
    over a 1001-point grid on [0, 1].  The simplex modes are linear, hence
    minimized at a vertex: every one-hot (or one-hot-group) candidate is
    enumerated.
    """

    scores = np.asarray(scores, dtype=float)
    d = scores.shape[0]
    if mode in ("lasso", "ridge"):
        total = 0.0
        for r in range(d):
            feature = (1.0 - alpha) * (1.0 - _GRID) * scores[r]
            penalty = lam * _GRID if mode == "lasso" else lam * 0.5 * _GRID**2
            total += float(np.min(feature + penalty))
        return total
    if mode == "simplex":
        values = []
        for r in range(d):
            w = np.zeros(d)
            w[r] = 1.0
            values.append(subproblem_value(w, scores, alpha, None, "simplex"))
        return min(values)
    if mode == "group_simplex":
        values = []
        for g in groups:
            w = np.zeros(d)
            w[list(g)] = 1.0
            values.append(subproblem_value(w, scores, alpha, None, "group_simplex", groups))
        return min(values)
    raise ValueError(mode)


def ipf_coupling(a: np.ndarray, b: np.ndarray, rng: np.random.Generator, sweeps: int = 2000) -> np.ndarray:
    """A random feasible coupling by iterative proportional fitting of an
    exponential random positive matrix.  Independent of the package's
    sampler (different distribution and schedule)."""

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    K = rng.exponential(1.0, size=(a.shape[0], b.shape[0]))
    for _ in range(sweeps):
        K *= (a / K.sum(axis=1))[:, None]
        K *= (b / K.sum(axis=0))[None, :]
        if max(
            np.abs(K.sum(axis=1) - a).max(),
            np.abs(K.sum(axis=0) - b).max(),
        ) < 1e-13:
            break
    return K


@lru_cache(maxsize=None)
def _perms(D: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(D))), dtype=np.int64)


def assignment_costs(H: np.ndarray) -> np.ndarray:
    """The cost of each of the D! assignments, enumerated."""

    H = np.asarray(H, dtype=float)
    D = H.shape[0]
    return H[np.arange(D)[None, :], _perms(D)].sum(axis=1)


def assignment_min_cost(H: np.ndarray) -> float:
    """Minimum assignment cost by enumerating all D! permutations."""

    return float(assignment_costs(H).min())


def assignment_reference(H: np.ndarray) -> list[int]:
    """The column scipy's ``linear_sum_assignment`` matches to each row."""

    rows, cols = linear_sum_assignment(H)
    assert rows.tolist() == list(range(len(rows)))
    return cols.tolist()


def graph_reference(close: np.ndarray):
    """scipy's view of the undirected graph with boolean adjacency matrix
    ``close``: (hop counts with inf where unreached, component labels,
    and each component's breadth-first order from its lowest node)."""

    graph = csr_matrix(close)
    hops = shortest_path(graph, directed=False, unweighted=True)
    count, labels = connected_components(graph, directed=False)
    orders = [
        breadth_first_order(graph, int(np.flatnonzero(labels == c)[0]), directed=False,
                            return_predecessors=False).tolist()
        for c in range(count)
    ]
    return hops, labels, orders


def hamming_matrix(assign_p: np.ndarray, assign_q: np.ndarray, D: int) -> np.ndarray:
    """H[i, j] = Hamming distance between the indicator of district i+1 in
    the first plan and district j+1 in the second, by explicit counting."""

    H = np.zeros((D, D))
    for i in range(D):
        in_p = assign_p == (i + 1)
        for j in range(D):
            in_q = assign_q == (j + 1)
            H[i, j] = int(np.sum(in_p != in_q))
    return H


def linkage_reference(D: np.ndarray) -> list[tuple[int, int, float]]:
    """Complete-linkage merges recomputed from the original matrix.

    Clusters are member lists; the linkage between two clusters is the
    maximum original pairwise distance over their members, recomputed in
    full at every step (no distance-update recurrences).  Ties take the
    first pair in ascending (id_a, id_b) order.
    """

    D = np.asarray(D, dtype=float)
    N = D.shape[0]
    members = {i: [i] for i in range(N)}
    merges = []
    for step in range(N - 1):
        ids = sorted(members)
        best = None
        for pos, ida in enumerate(ids):
            for idb in ids[pos + 1 :]:
                link = max(D[p, q] for p in members[ida] for q in members[idb])
                if best is None or link < best[0]:
                    best = (link, ida, idb)
        link, ida, idb = best
        merges.append((ida, idb, float(link)))
        members[N + step] = members.pop(ida) + members.pop(idb)
    return merges


def quantile_nearest_rank(values: np.ndarray, level: float) -> float:
    """Nearest-rank quantile: smallest element v with at least
    ceil(level * len) elements <= v (computed by counting, not indexing)."""

    values = np.sort(np.asarray(values, dtype=float))
    need = int(np.ceil(level * values.shape[0]))
    need = min(max(need, 1), values.shape[0])
    for v in values:
        if int(np.sum(values <= v)) >= need:
            return float(v)
    return float(values[-1])


# ---------------------------------------------------------------------------
# shared random instances and fixtures


def random_structure(rng: np.random.Generator, n: int) -> np.ndarray:
    """Normalized Euclidean distances of n random planar points: a valid
    symmetric, zero-diagonal structure matrix in [0, 1]."""

    pts = rng.uniform(0.0, 1.0, size=(n, 2))
    C = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    mx = C.max()
    if mx > 0:
        C = C / mx
    np.fill_diagonal(C, 0.0)
    return C


def random_measure(rng: np.random.Generator, n: int, uniform: bool = False) -> np.ndarray:
    if uniform:
        return np.full(n, 1.0 / n)
    a = rng.uniform(0.2, 1.0, size=n)
    return a / a.sum()


def grid_graph_edges(cols: int, rows: int) -> list[tuple[int, int]]:
    """4-neighbor grid adjacency; node index = row * cols + col."""

    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def planted_plan_fixture(seed: int = 5):
    """A 6x5 grid of 30 precincts, three 10-precinct column-band districts,
    and a second plan that moves one boundary precinct from district 2 to
    district 3.  Returns (precinct_ids, edges, features, population,
    assignment_p, assignment_q, moved_index).

    Districts stay connected in both plans: each band is a 2x5 block, and
    the moved precinct (column 3, row 0) is grid-adjacent to column 4.
    """

    cols, rows = 6, 5
    P = cols * rows
    rng = np.random.default_rng(seed)
    ids = tuple(f"p{i:02d}" for i in range(P))
    edges = grid_graph_edges(cols, rows)
    features = rng.normal(0.0, 1.0, size=(P, 4))
    population = rng.integers(50, 150, size=P).astype(float)
    assignment_p = np.zeros(P, dtype=np.int64)
    for i in range(P):
        assignment_p[i] = (i % cols) // 2 + 1
    moved = 3  # row 0, column 3: on the boundary between bands 2 and 3
    assignment_q = assignment_p.copy()
    assignment_q[moved] = 3
    return ids, edges, features, population, assignment_p, assignment_q, moved


def write_planted_plan_csvs(directory):
    """Write ``planted_plan_fixture`` as the CSV files the package reads:
    nodes.csv (features v0..v3), edges.csv, plan_p.csv and plan_q.csv in
    ``directory``.  Returns the four paths in that order."""

    ids, edges, features, population, assign_p, assign_q, _ = planted_plan_fixture()
    nodes = directory / "nodes.csv"
    lines = ["precinct_id,population," + ",".join(f"v{r}" for r in range(features.shape[1]))]
    for i, pid in enumerate(ids):
        feats = ",".join(repr(float(v)) for v in features[i])
        lines.append(f"{pid},{float(population[i])!r},{feats}")
    nodes.write_text("\n".join(lines) + "\n")
    epath = directory / "edges.csv"
    rows = ["precinct_id_a,precinct_id_b"] + [f"{ids[i]},{ids[j]}" for i, j in edges]
    epath.write_text("\n".join(rows) + "\n")
    plans = []
    for name, assignment in (("plan_p.csv", assign_p), ("plan_q.csv", assign_q)):
        body = ["precinct_id,district"] + [f"{pid},{d}" for pid, d in zip(ids, assignment)]
        plans.append(directory / name)
        plans[-1].write_text("\n".join(body) + "\n")
    return nodes, epath, plans[0], plans[1]
