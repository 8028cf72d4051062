"""Exact transport over the coupling polytope.

``solve_emd`` solves min <cost, T> over U(a, b) and returns a vertex of the
polytope (at most n + m - 1 nonzero entries).  The route is chosen from the
input:

* Uniform square measures (n = m, all entries of ``a`` equal, all entries
  of ``b`` equal): the vertices of U(1/n, 1/n) are permutation matrices
  divided by n (Birkhoff-von Neumann), so the LP is an assignment problem
  and ``scipy.optimize.linear_sum_assignment`` solves it exactly.
* Everything else: a primal network simplex specialized to the bipartite
  transportation problem.  The basis is a spanning tree of the n + m node
  graph, entering arcs are picked by most negative reduced cost with
  lowest-flat-index tie-breaking, and after a fixed number of pivots the
  entering rule switches to Bland's lowest-index rule so termination is
  guaranteed.

Determinism: the same input always gives the same plan.  When costs are
degenerate, which optimal vertex that is depends on the route.  The
simplex breaks ties on the lowest flat cell index; the assignment route
returns whichever permutation ``linear_sum_assignment`` picks, which is
fixed for a given cost but follows no index rule.

``line_search_quadratic`` is the exact minimizer of a 1-D quadratic on
[0, 1], used by the conditional-gradient solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import FsfgwError, ShapeMismatch, TransportPlan

__all__ = [
    "Infeasible",
    "NumericalFailure",
    "LpSolution",
    "solve_emd",
    "line_search_quadratic",
    "random_coupling",
]

# Residual marginal imbalance above this is an error; below, it is absorbed
# into the largest entry of b.
IMBALANCE_TOL = 1e-7

_REDUCED_COST_TOL = 1e-11


class Infeasible(FsfgwError):
    """The two marginals cannot be coupled (sums differ beyond tolerance)."""


class NumericalFailure(FsfgwError):
    """The pivoting loop exceeded its cycling guard."""


@dataclass(frozen=True)
class LpSolution:
    """An optimal vertex plan, its objective value, and the pivot count.

    ``iterations`` counts network-simplex pivots; it is 0 when the
    assignment route solved the LP.
    """

    plan: TransportPlan
    value: float
    iterations: int


def line_search_quadratic(quad_coef: float, lin_coef: float) -> float:
    """Minimize g(t) = quad_coef * t^2 + lin_coef * t over t in [0, 1].

    For a strictly convex segment the minimizer is -lin/(2*quad) clamped to
    [0, 1]; otherwise (concave or linear) the better endpoint wins, with
    ties resolved to 0.
    """

    if quad_coef > 0.0:
        return float(min(1.0, max(0.0, -lin_coef / (2.0 * quad_coef))))
    return 1.0 if quad_coef + lin_coef < 0.0 else 0.0


def _northwest_corner(a: np.ndarray, b: np.ndarray):
    """Initial basic feasible solution with exactly n + m - 1 arcs."""

    n, m = a.shape[0], b.shape[0]
    arc_row = np.empty(n + m - 1, dtype=np.int64)
    arc_col = np.empty(n + m - 1, dtype=np.int64)
    arc_flow = np.empty(n + m - 1, dtype=float)
    ar = a.copy()
    br = b.copy()
    i = j = k = 0
    while True:
        f = min(ar[i], br[j])
        arc_row[k], arc_col[k], arc_flow[k] = i, j, f
        ar[i] -= f
        br[j] -= f
        k += 1
        if i == n - 1 and j == m - 1:
            break
        # Advance past an exhausted row when possible; otherwise move right.
        if ar[i] <= 0.0 and i < n - 1:
            i += 1
        elif j < m - 1:
            j += 1
        else:
            i += 1
    return arc_row[:k], arc_col[:k], arc_flow[:k]


def solve_emd(
    cost: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    max_pivots: int | None = None,
) -> LpSolution:
    """Exact solution of the transportation LP min <cost, T> over U(a, b).

    Marginals are rescaled to a common sum (that of ``a``) before solving;
    an imbalance above 1e-7 raises ``Infeasible`` and anything below is
    absorbed into the largest entry of ``b``.  The returned plan is a
    vertex of the polytope and is deterministic for a given input.

    Uniform square inputs (n = m, ``a`` constant, ``b`` constant) are
    solved as an assignment problem: the plan is a permutation matrix
    scaled by ``a``, the one ``linear_sum_assignment`` picks, and
    ``iterations`` is 0.  On degenerate costs that pick need not be the
    lowest-flat-index vertex.  All other inputs go through the network
    simplex, where ties in both the entering and the leaving choice break
    on the lowest flat cell index and ``iterations`` counts pivots.
    """

    cost = np.ascontiguousarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ShapeMismatch(f"cost must be a matrix, got shape {cost.shape}")
    n, m = cost.shape
    if not np.all(np.isfinite(cost)):
        raise Infeasible("cost matrix must be finite")
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    if a.shape != (n,) or b.shape != (m,):
        raise ShapeMismatch(
            f"marginals of shapes {a.shape}, {b.shape} do not fit cost {cost.shape}"
        )
    if a.min(initial=0.0) < 0.0 or b.min(initial=0.0) < 0.0:
        raise Infeasible("marginals must be nonnegative")
    sa, sb = float(a.sum()), float(b.sum())
    if sa <= 0.0 or sb <= 0.0:
        raise Infeasible("marginals must have positive mass")
    if abs(sa - sb) > IMBALANCE_TOL:
        raise Infeasible(f"marginal sums differ by {abs(sa - sb):.3e} (> {IMBALANCE_TOL:g})")
    # Tested before b is rescaled, since absorbing the residue can make one
    # entry of a uniform b differ in the last bit.
    uniform_square = n == m and bool(np.all(a == a[0]) and np.all(b == b[0]))
    b = b * (sa / sb)
    b = b.copy()
    b[int(np.argmax(b))] += sa - b.sum()

    if uniform_square:
        rows, perm = linear_sum_assignment(cost)
        T = np.zeros((n, m))
        T[rows, perm] = a
        plan = TransportPlan(T=T, row_marginal=a, col_marginal=b)
        return LpSolution(plan=plan, value=float(np.dot(cost[rows, perm], a)), iterations=0)

    arc_row, arc_col, arc_flow = _northwest_corner(a, b)
    n_nodes = n + m
    # Column nodes are offset by n; adjacency maps node -> incident basic arcs.
    adjacency: list[list[int]] = [[] for _ in range(n_nodes)]
    for arc in range(arc_row.shape[0]):
        adjacency[arc_row[arc]].append(arc)
        adjacency[n + arc_col[arc]].append(arc)

    if max_pivots is None:
        max_pivots = 200 * n_nodes + 1000
    bland_after = 20 * n_nodes + 200

    u = np.zeros(n)
    v = np.zeros(m)
    parent = np.full(n_nodes, -1, dtype=np.int64)
    parent_arc = np.full(n_nodes, -1, dtype=np.int64)
    depth = np.zeros(n_nodes, dtype=np.int64)
    flat = arc_row * m + arc_col  # flat cell index per basic arc

    pivots = 0
    while True:
        # Duals and tree structure by DFS from row node 0 (u[0] = 0).
        parent[0] = -1
        parent_arc[0] = -1
        depth[0] = 0
        u[0] = 0.0
        stack = [0]
        seen = np.zeros(n_nodes, dtype=bool)
        seen[0] = True
        while stack:
            node = stack.pop()
            for arc in adjacency[node]:
                if node < n:
                    other = n + arc_col[arc]
                else:
                    other = arc_row[arc]
                if seen[other]:
                    continue
                seen[other] = True
                parent[other] = node
                parent_arc[other] = arc
                depth[other] = depth[node] + 1
                if other >= n:
                    v[other - n] = cost[arc_row[arc], arc_col[arc]] - u[arc_row[arc]]
                else:
                    u[other] = cost[arc_row[arc], arc_col[arc]] - v[arc_col[arc]]
                stack.append(other)

        reduced = cost - u[:, None] - v[None, :]
        rflat = reduced.ravel()
        rflat[flat] = np.inf  # basic cells never re-enter
        if pivots < bland_after:
            ent = int(np.argmin(rflat))
            if rflat[ent] >= -_REDUCED_COST_TOL:
                break
        else:
            candidates = np.flatnonzero(rflat < -_REDUCED_COST_TOL)
            if candidates.size == 0:
                break
            ent = int(candidates[0])
        if pivots >= max_pivots:
            raise NumericalFailure(
                f"network simplex exceeded {max_pivots} pivots on a {n}x{m} instance"
            )
        pivots += 1

        ent_i, ent_j = divmod(ent, m)
        # Tree path from the entering arc's column node back to its row node.
        up_from_row: list[int] = []
        up_from_col: list[int] = []
        x_node, y_node = ent_i, n + ent_j
        while depth[x_node] > depth[y_node]:
            up_from_row.append(parent_arc[x_node])
            x_node = parent[x_node]
        while depth[y_node] > depth[x_node]:
            up_from_col.append(parent_arc[y_node])
            y_node = parent[y_node]
        while x_node != y_node:
            up_from_row.append(parent_arc[x_node])
            x_node = parent[x_node]
            up_from_col.append(parent_arc[y_node])
            y_node = parent[y_node]
        cycle = up_from_col + up_from_row[::-1]

        # Walking the cycle from the column endpoint, signs alternate -, +, ...
        theta = np.inf
        leave_pos = -1
        leave_flat = -1
        for pos, arc in enumerate(cycle):
            if pos % 2 == 0:
                f = arc_flow[arc]
                if f < theta - 1e-15 or (
                    abs(f - theta) <= 1e-15 and (leave_flat < 0 or flat[arc] < leave_flat)
                ):
                    theta = f
                    leave_pos = pos
                    leave_flat = flat[arc]
        theta = max(theta, 0.0)
        for pos, arc in enumerate(cycle):
            if pos % 2 == 0:
                arc_flow[arc] -= theta
            else:
                arc_flow[arc] += theta
        leave = cycle[leave_pos]

        # Swap the leaving arc's slot over to the entering cell.
        old_i, old_j = arc_row[leave], arc_col[leave]
        adjacency[old_i].remove(leave)
        adjacency[n + old_j].remove(leave)
        arc_row[leave] = ent_i
        arc_col[leave] = ent_j
        arc_flow[leave] = theta
        flat[leave] = ent
        adjacency[ent_i].append(leave)
        adjacency[n + ent_j].append(leave)

    T = np.zeros((n, m))
    T[arc_row, arc_col] = np.maximum(arc_flow, 0.0)
    value = float(np.dot(cost[arc_row, arc_col], np.maximum(arc_flow, 0.0)))
    plan = TransportPlan(T=T, row_marginal=a, col_marginal=b)
    return LpSolution(plan=plan, value=value, iterations=pivots)


def random_coupling(
    a: np.ndarray,
    b: np.ndarray,
    rng: np.random.Generator,
    max_iters: int = 10_000,
    tol: float = 1e-12,
) -> np.ndarray:
    """A random interior point of U(a, b) by scaling a positive matrix.

    Alternate row/column rescaling of a uniform random positive matrix
    converges to a coupling; rows or columns with zero mass stay zero.
    Used to seed multi-restart solves.
    """

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    K = rng.uniform(0.5, 1.5, size=(a.shape[0], b.shape[0]))
    for _ in range(max_iters):
        rows = K.sum(axis=1)
        K *= np.divide(a, rows, out=np.zeros_like(a), where=rows > 0)[:, None]
        cols = K.sum(axis=0)
        K *= np.divide(b, cols, out=np.zeros_like(b), where=cols > 0)[None, :]
        row_err = np.abs(K.sum(axis=1) - a).max(initial=0.0)
        col_err = np.abs(K.sum(axis=0) - b).max(initial=0.0)
        if max(row_err, col_err) < tol:
            break
    return K
