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
  guaranteed.  A cold start is the least-cost basis: cells are filled
  cheapest first, cost ties broken on the lowest flat index.  A warm
  start is a basis that an earlier call returned for the same marginal
  arrays: a feasible basis stays feasible when only the cost changes, so
  a warm start skips the pivots that the cost change left in place
  (Ahuja, Magnanti & Orlin 1993, *Network Flows*, ch. 11), and keeps its
  spanning tree.  After each pivot only the subtree that the leaving arc
  cuts off is re-hung and gets new potentials.

Determinism: the plan is a function of (cost, a, b, basis), and a cold
start is a function of (cost, a, b).  When costs are degenerate, which
optimal vertex that is depends on the route and on the starting basis,
but every one has the same value.  The simplex breaks ties on the lowest
flat cell index, so a warm start may stop at a different optimal vertex
than a cold start; the assignment route returns whichever permutation
``linear_sum_assignment`` picks, which is fixed for a given cost but
follows no index rule.

``solve_emd`` checks a finite cost on every call.  A cold call checks
its marginals: nonnegative, of equal mass.  A warm call accepts only a
basis that it returned for these very read-only marginal arrays, which
are therefore still the marginals that call checked; anything else
raises ``InvalidBasis``.  ``LpSolution.T`` is the solver's own read-only
array, on the marginals by construction, and is not checked again.

``line_search_quadratic`` is the exact minimizer of a 1-D quadratic on
[0, 1], used by the conditional-gradient solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import FsfgwError, ShapeMismatch

__all__ = [
    "Infeasible",
    "NumericalFailure",
    "InvalidBasis",
    "LpSolution",
    "solve_emd",
    "line_search_quadratic",
    "random_coupling",
]

# Residual marginal imbalance above this is an error; below, it is absorbed
# into the largest entry of b.
IMBALANCE_TOL = 1e-7

_REDUCED_COST_TOL = 1e-11
# The simplex raises NumericalFailure after 200 (n + m) + 1000 pivots.
_PIVOTS_PER_NODE = 200
_SCALING_MAX_ITERS = 10_000
_SCALING_TOL = 1e-12


class Infeasible(FsfgwError):
    """The two marginals cannot be coupled (sums differ beyond tolerance)."""


class NumericalFailure(FsfgwError):
    """The pivoting loop exceeded its cycling guard."""


class InvalidBasis(FsfgwError):
    """A starting basis is not one that ``solve_emd`` returned for these
    marginal arrays, or a cold start is not a spanning tree."""


Basis = tuple[np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class LpSolution:
    """An optimal vertex plan, its objective value, the pivot count, and
    the final basis.

    ``T`` is the solver's own read-only n x m plan, not re-checked: it is
    nonnegative and carries the marginals by construction.
    ``iterations`` counts network-simplex pivots; it is 0 when the
    assignment route solved the LP.  ``basis`` is the final spanning tree
    as read-only ``(arc_row, arc_col, arc_flow)`` arrays of n + m - 1 arcs;
    passed back to ``solve_emd`` with the same read-only marginal arrays,
    it warm-starts the next solve from its tree.  The plan is a function
    of (cost, a, b, basis).  The assignment route returns no basis.
    """

    T: np.ndarray
    value: float
    iterations: int
    basis: Basis | None = None


def line_search_quadratic(quad_coef: float, lin_coef: float) -> float:
    """Minimize g(t) = quad_coef * t^2 + lin_coef * t over t in [0, 1].

    For a strictly convex segment the minimizer is -lin/(2*quad) clamped to
    [0, 1]; otherwise (concave or linear) the better endpoint wins, with
    ties resolved to 0.
    """

    if quad_coef > 0.0:
        return float(min(1.0, max(0.0, -lin_coef / (2.0 * quad_coef))))
    return 1.0 if quad_coef + lin_coef < 0.0 else 0.0


def _least_cost_start(cost: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Initial basic feasible solution with exactly n + m - 1 arcs: cells
    in cost order, ties on the lowest flat index, each take what their row
    and column have left and cross out one of them (the row if it is empty,
    or its column is the last one open, and it is not the last open row).
    A crossed-out line gets no later arc, so the arcs form a tree."""

    n, m = a.shape[0], b.shape[0]
    ar, br = a.tolist(), b.tolist()
    row_open, col_open = [True] * n, [True] * m
    rows_left, cols_left = n, m
    arcs = []
    for cell in np.argsort(cost, axis=None, kind="stable").tolist():
        i, j = divmod(cell, m)
        if not (row_open[i] and col_open[j]):
            continue
        f = min(ar[i], br[j])
        arcs.append((i, j, f))
        if rows_left == cols_left == 1:
            break
        ar[i] -= f
        br[j] -= f
        if rows_left > 1 and (ar[i] <= 0.0 or cols_left == 1):
            row_open[i] = False
            rows_left -= 1
        else:
            col_open[j] = False
            cols_left -= 1
    arc_row, arc_col, arc_flow = zip(*arcs)
    return np.array(arc_row), np.array(arc_col), np.array(arc_flow)


class _Basis(tuple):
    """A basis that ``solve_emd`` returned: the ``(arc_row, arc_col,
    arc_flow)`` tuple, plus ``marginals``, the marginal arguments of that
    call, and ``tree``, its spanning tree hung from row node 0 as
    ``(parent, parent_arc, depth, adjacency)`` lists."""


def _trusted(basis, a, b, n: int, m: int) -> bool:
    """Whether ``basis`` was returned for these very marginal arrays, both
    read-only (so still as that call checked them), of this cost's shape."""

    return isinstance(basis, _Basis) and all(
        x is y and isinstance(x, np.ndarray) and not x.flags.writeable and x.shape == (k,)
        for x, y, k in zip((a, b), basis.marginals, (n, m))
    )


def solve_emd(
    cost: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    basis: Basis | None = None,
) -> LpSolution:
    """Exact solution of the transportation LP min <cost, T> over U(a, b).

    Marginals are rescaled to a common sum (that of ``a``) before solving;
    an imbalance above 1e-7 raises ``Infeasible`` and anything below is
    absorbed into the largest entry of ``b``.  The returned plan is a
    vertex of the polytope and a function of (cost, a, b, basis).

    Uniform square inputs (n = m, ``a`` constant, ``b`` constant) are
    solved as an assignment problem: the plan is a permutation matrix
    scaled by ``a``, the one ``linear_sum_assignment`` picks, and
    ``iterations`` is 0.  On degenerate costs that pick need not be the
    lowest-flat-index vertex.  All other inputs go through the network
    simplex, where ties in both the entering and the leaving choice break
    on the lowest flat cell index and ``iterations`` counts pivots; more
    than 200 (n + m) + 1000 raise ``NumericalFailure``.  A cold simplex
    starts from the least-cost basis, filling cells cheapest first with
    cost ties broken on the lowest flat index.

    ``basis`` is an ``LpSolution.basis`` that this function returned for
    the very same read-only arrays ``a`` and ``b`` (``is``); anything else
    raises ``InvalidBasis``.  The simplex starts from its spanning tree,
    which is reused, not changed, and the marginal checks of that earlier
    call stand.  On degenerate costs a warm start may end at a different
    optimal vertex than a cold start, with the same value.
    """

    cost = np.ascontiguousarray(cost, dtype=float)
    if cost.ndim != 2:
        raise ShapeMismatch(f"cost must be a matrix, got shape {cost.shape}")
    n, m = cost.shape
    if not np.all(np.isfinite(cost)):
        raise Infeasible("cost matrix must be finite")
    given = (a, b)
    if basis is not None:
        if not _trusted(basis, a, b, n, m):
            raise InvalidBasis(
                "a starting basis must be one solve_emd returned for these very "
                "read-only marginal arrays"
            )
        arc_row, arc_col, arc_flow = (np.array(part) for part in basis)
    else:
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
        # entry of a uniform b differ in the last bit.  The route needs no b.
        if n == m and bool(np.all(a == a[0]) and np.all(b == b[0])):
            rows, perm = linear_sum_assignment(cost)
            T = np.zeros((n, m))
            T[rows, perm] = a
            T.setflags(write=False)
            return LpSolution(T=T, value=float(np.dot(cost[rows, perm], a)), iterations=0)
        b = b * (sa / sb)
        b[int(np.argmax(b))] += sa - b.sum()
        arc_row, arc_col, arc_flow = _least_cost_start(cost, a, b)
    n_nodes = n + m
    # Column nodes are offset by n.  Per basic arc: its flow, its cost, and
    # the sum of its two end nodes (so one end gives the other).
    flow = arc_flow.tolist()
    flat = arc_row * m + arc_col  # flat cell index per basic arc
    arc_cost = cost.ravel()[flat].tolist()
    ends = (arc_row + n + arc_col).tolist()

    max_pivots = _PIVOTS_PER_NODE * (n_nodes + 5)
    bland_after = 20 * n_nodes + 200

    # Tree rooted at row node 0, and the node potentials (u, then v) with
    # pot[0] = 0 and cost = pot[row] + pot[col] on every basic arc.
    pot = [0.0] * n_nodes
    if basis is not None:
        # A copy of the basis's tree, so the basis stays reusable.  Only
        # the arc costs changed: the potentials are set parents first, by
        # the rule ``hang`` uses, so they are the same bits.
        parent, parent_arc, depth = (nodes[:] for nodes in basis.tree[:3])
        adjacency = [arcs[:] for arcs in basis.tree[3]]
        for node in np.argsort(depth, kind="stable").tolist()[1:]:
            pot[node] = arc_cost[parent_arc[node]] - pot[parent[node]]
    else:
        adjacency: list[list[int]] = [[] for _ in range(n_nodes)]
        for arc, (i, end_sum) in enumerate(zip(arc_row.tolist(), ends)):
            adjacency[i].append(arc)
            adjacency[end_sum - i].append(arc)
        parent = [-1] * n_nodes
        parent_arc = [-1] * n_nodes
        depth = [0] * n_nodes

    def hang(root: int, above: int, arc: int) -> int:
        """Hang the subtree holding ``root`` below node ``above`` through
        ``arc`` (-1, -1 for the tree root) and return how many nodes it set.

        Each node's potential is its parent's, subtracted from the cost of
        the arc between them, so it is the cost along its unique tree path
        from row node 0, whichever subtree is hung.  The walk stops after
        n + m nodes, so a basis that is not a tree cannot make it loop.
        """

        parent[root] = above
        parent_arc[root] = arc
        if above >= 0:
            depth[root] = depth[above] + 1
            pot[root] = arc_cost[arc] - pot[above]
        stack = [root]
        placed = 0
        while stack and placed < n_nodes:
            node = stack.pop()
            placed += 1
            skip = parent_arc[node]
            below = depth[node] + 1
            here = pot[node]
            for k in adjacency[node]:
                if k != skip:
                    other = ends[k] - node
                    parent[other] = node
                    parent_arc[other] = k
                    depth[other] = below
                    pot[other] = arc_cost[k] - here
                    stack.append(other)
        return placed + len(stack)

    if basis is None and hang(0, -1, -1) != n_nodes:
        raise InvalidBasis("the least-cost start is not a spanning tree")

    pivots = 0
    while True:
        duals = np.array(pot)
        reduced = cost - duals[:n, None] - duals[None, n:]
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
                f = flow[arc]
                if f < theta - 1e-15 or (
                    abs(f - theta) <= 1e-15 and (leave_flat < 0 or flat[arc] < leave_flat)
                ):
                    theta = f
                    leave_pos = pos
                    leave_flat = flat[arc]
        theta = max(theta, 0.0)
        for pos, arc in enumerate(cycle):
            if pos % 2 == 0:
                flow[arc] -= theta
            else:
                flow[arc] += theta
        leave = cycle[leave_pos]

        # Swap the leaving arc's slot over to the entering cell.
        old_i = int(arc_row[leave])
        adjacency[old_i].remove(leave)
        adjacency[ends[leave] - old_i].remove(leave)
        arc_row[leave] = ent_i
        arc_col[leave] = ent_j
        flow[leave] = theta
        flat[leave] = ent
        arc_cost[leave] = cost.item(ent)
        ends[leave] = ent_i + n + ent_j
        adjacency[ent_i].append(leave)
        adjacency[n + ent_j].append(leave)
        # Removing the leaving arc cuts off the subtree on its side of the
        # cycle; only that subtree moves, now hung below the entering arc.
        if leave_pos < len(up_from_col):
            hang(n + ent_j, ent_i, leave)
        else:
            hang(ent_i, n + ent_j, leave)

    arc_flow = np.array(flow)
    T = np.zeros((n, m))
    T[arc_row, arc_col] = np.maximum(arc_flow, 0.0)
    value = float(np.dot(cost[arc_row, arc_col], np.maximum(arc_flow, 0.0)))
    for part in (T, arc_row, arc_col, arc_flow):
        part.setflags(write=False)
    final = _Basis((arc_row, arc_col, arc_flow))
    final.marginals = given
    final.tree = (parent, parent_arc, depth, adjacency)
    return LpSolution(T=T, value=value, iterations=pivots, basis=final)


def random_coupling(
    a: np.ndarray,
    b: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """A random interior point of U(a, b) by scaling a positive matrix.

    Alternate row/column rescaling of a uniform random positive matrix
    converges to a coupling; rows or columns with zero mass stay zero.
    Used to seed multi-restart solves.
    """

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    K = rng.uniform(0.5, 1.5, size=(a.shape[0], b.shape[0]))
    for _ in range(_SCALING_MAX_ITERS):
        rows = K.sum(axis=1)
        K *= np.divide(a, rows, out=np.zeros_like(a), where=rows > 0)[:, None]
        cols = K.sum(axis=0)
        K *= np.divide(b, cols, out=np.zeros_like(b), where=cols > 0)[None, :]
        row_err = np.abs(K.sum(axis=1) - a).max(initial=0.0)
        col_err = np.abs(K.sum(axis=0) - b).max(initial=0.0)
        if max(row_err, col_err) < _SCALING_TOL:
            break
    return K
