"""Fused Gromov-Wasserstein objective and its conditional-gradient solver.

The structure term is GW(T) = <K(T), T> with the linear operator

    K(T)[i, j] = sum_{i' j'} |C1[i, i'] - C2[j, j']|^q T[i', j']

defined for any real T, so the gradient of GW is 2 K(T).  ``gw_value``
and ``gw_gradient`` take (T, C1, C2, q) and apply K through one private
function, ``_k``.  For q = 2 K factorizes into two marginal-weighted
vectors and one bilinear term, avoiding the O(n^2 m^2) contraction.
Other exponents apply K to the nnz nonzeros of T in O(n m nnz): O(n^2 m^2)
on a dense matrix, only permitted up to n * m = 10,000, and O(n m (n + m))
on an LP vertex, whose nnz is at most n + m - 1.  No call keeps a
difference block: each builds |C1[i, i'] - C2[j, j']|^q over the support
of T in pieces of at most 2**17 doubles (1 MiB), each filled from two
tiles of C1 and C2 of at most 1 MiB, and applies each with an einsum,
which makes no BLAS call.

``FgwProblem`` is the fixed half of the problem, (C1, C2, alpha, q, a, b),
checked once when it is built, size cap included, with read-only copies
of a and b;
``solve_fgw(problem, M_eff, init, basis, gradient)`` checks only the
shapes of its arrays and the finiteness of ``M_eff``.  It minimizes
(1 - alpha) <M_eff, T> + alpha GW(T) over U(a, b) by conditional
gradient: each iteration solves an exact transport LP on the current
gradient, warm-started from the previous LP's basis (the marginals never
change within a solve), and applies K once: to the direction D at q = 2,
otherwise to the LP vertex, since K(D) = K(vertex) - K(T) and G = 2 K(T)
is carried from step to step and, through ``FgwSolve.G``, from solve to
solve.  K's kernel is symmetric, so the objective along T + gamma D
is an exact quadratic in gamma: the step is its exact minimizer (q = 2)
or an Armijo backtracking step on the closed form (q != 2).  Steps are
accepted only when they strictly decrease the objective, so the iterate
sequence is monotone and a converged warm start is returned unchanged.
Each LP goes through ``solve_emd``, which trusts a basis it returned for
the problem's read-only marginals; ``LpSolution.T`` and ``FgwSolve.T``
are the solvers' own read-only arrays, not re-checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ShapeMismatch, SolverError, _check_alpha, _check_finite, _check_q
from .transport import Basis, line_search_quadratic, solve_emd

__all__ = [
    "InstanceTooLarge",
    "DIRECT_CONTRACTION_CAP",
    "FgwProblem",
    "FgwSolve",
    "gw_value",
    "gw_gradient",
    "solve_fgw",
]

DIRECT_CONTRACTION_CAP = 10_000
_PIECE_DOUBLES = 2**17

_ARMIJO_SLOPE = 1e-4
_ARMIJO_MAX_HALVINGS = 30
_CG_MAX_ITER = 200
_CG_TOL = 1e-9


class InstanceTooLarge(SolverError):
    """Direct contraction requested beyond the n * m size cap."""


def _check_size(n: int, m: int, q: float) -> None:
    """Raise ``InstanceTooLarge`` when the direct contraction (q != 2)
    would exceed the n * m cap."""

    if q != 2.0 and n * m > DIRECT_CONTRACTION_CAP:
        raise InstanceTooLarge(
            f"direct contraction needs n*m <= {DIRECT_CONTRACTION_CAP}, got {n * m}"
        )


def _checked(T, C1, C2, q) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    T = np.asarray(T, dtype=float)
    C1 = np.asarray(C1, dtype=float)
    C2 = np.asarray(C2, dtype=float)
    n, m = T.shape
    if C1.shape != (n, n) or C2.shape != (m, m):
        raise ShapeMismatch(
            f"structure matrices {C1.shape}, {C2.shape} do not fit a {n}x{m} plan"
        )
    _check_q(q)
    _check_size(n, m, q)
    return T, C1, C2


def _k(T: np.ndarray, C1: np.ndarray, C2: np.ndarray, q: float) -> np.ndarray:
    """K(T) for any real n x m matrix T: factorized at q = 2, with r and c
    the row and column sums of T; otherwise an einsum over the block
    |C1[i, rows] - C2[j, cols]|^q of T's nonzeros at (rows, cols), built in
    pieces of at most 2**17 doubles over output rows, and over output
    columns when one row is too large, each in one reused buffer filled
    from two C-contiguous tiles of at most 1 MiB.  Each output cell is the
    same einsum reduction as over the whole block."""

    if q == 2.0:
        r = T.sum(axis=1)
        c = T.sum(axis=0)
        return ((C1 * C1) @ r)[:, None] + ((C2 * C2) @ c)[None, :] - 2.0 * (C1 @ T @ C2)
    n, m = T.shape
    rows, cols = np.nonzero(T)
    values, nnz = T[rows, cols], rows.size
    K = np.empty((n, m))
    step_i = min(n, max(1, _PIECE_DOUBLES // (m * max(1, nnz))))
    step_j = m if m * nnz <= _PIECE_DOUBLES else _PIECE_DOUBLES // nnz
    buf = np.empty(step_i * step_j * nnz)
    for j0 in range(0, m, step_j):
        j1 = min(m, j0 + step_j)
        right = np.take(C2[j0:j1], cols, axis=1)  # right[j, s] = C2[j0 + j, cols[s]]
        for i0 in range(0, n, step_i):
            i1 = min(n, i0 + step_i)
            left = np.take(C1[i0:i1], rows, axis=1)  # left[i, s] = C1[i0 + i, rows[s]]
            piece = buf[: (i1 - i0) * (j1 - j0) * nnz].reshape(i1 - i0, j1 - j0, nnz)
            np.subtract(left[:, None, :], right[None, :, :], out=piece)
            np.abs(piece, out=piece)
            if q != 1.0:  # x ** 1.0 is x exactly
                piece **= q
            K[i0:i1, j0:j1] = np.einsum("ijs,s->ij", piece, values)
        del right  # free the tile before the next one is built
    return K


def gw_value(T: np.ndarray, C1: np.ndarray, C2: np.ndarray, q: float = 2.0) -> float:
    """Exact value of the structure-distortion quartic form, <K(T), T> (>= 0)."""

    T, C1, C2 = _checked(T, C1, C2, q)
    value = float(np.sum(_k(T, C1, C2, q) * T))
    # The form is a sum of nonnegative terms; cancellation in the
    # factorized path may leave a tiny negative residue.
    if -1e-9 < value < 0.0:
        value = 0.0
    return value


def gw_gradient(T: np.ndarray, C1: np.ndarray, C2: np.ndarray, q: float = 2.0) -> np.ndarray:
    """Gradient of ``gw_value`` with respect to the plan: 2 K(T).

    Linear in the plan, which may be any real matrix (a CG direction)."""

    T, C1, C2 = _checked(T, C1, C2, q)
    return 2.0 * _k(T, C1, C2, q)


@dataclass(frozen=True, eq=False)
class FgwProblem:
    """The fixed half of a fused transport problem: structure matrices,
    trade-off ``alpha``, exponent ``q``, and the two marginals, checked
    once, for every ``solve_fgw`` on the problem.  ``alpha`` outside
    [0, 1] or ``q`` not finite and >= 1 raises ``InvalidConfig``; at
    q != 2 beyond the direct contraction's n * m cap it raises
    ``InstanceTooLarge``."""

    C1: np.ndarray
    C2: np.ndarray
    alpha: float
    q: float
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        C1 = np.asarray(self.C1, dtype=float)
        C2 = np.asarray(self.C2, dtype=float)
        a = np.array(self.a, dtype=float)  # copies, made read-only below
        b = np.array(self.b, dtype=float)
        n, m = a.shape[0], b.shape[0]
        if C1.shape != (n, n) or C2.shape != (m, m):
            raise ShapeMismatch(
                f"inconsistent problem shapes: C1 {C1.shape}, C2 {C2.shape}, "
                f"marginals ({n},), ({m},)"
            )
        _check_alpha(self.alpha)
        _check_q(self.q)
        for name, arr in (("C1", C1), ("C2", C2), ("a", a), ("b", b)):
            _check_finite(arr, name)
            object.__setattr__(self, name, arr)
        # Read-only, so that solve_emd may trust an LP basis it returned
        # for these very arrays.
        a.setflags(write=False)
        b.setflags(write=False)
        _check_size(n, m, self.q)


class FgwSolve(NamedTuple):
    """The final plan ``T`` (the solver's own read-only n x m array, not
    re-checked) and objective, the CG iterations, the objective trace, the
    last LP basis (None on the assignment route), the sum of the LP
    pivots, the carried structure gradient ``G`` = 2 K(T) (read-only), and
    why CG stopped: ``"stationary"`` (the LP vertex does not improve on T),
    ``"no step"`` (the line search found none), ``"tol"`` (the decrease
    fell below the tolerance) or ``"cap"`` (the iteration cap)."""

    T: np.ndarray
    objective: float
    cg_iters: int
    trace: tuple[float, ...] = ()
    basis: Basis | None = None
    lp_pivots: int = 0
    G: np.ndarray | None = None
    stop: str = "cap"


def _armijo_step(quad: float, slope: float) -> float:
    """Largest gamma = 2^-k (k < 30) whose decrease along the quadratic
    gamma * slope + gamma^2 * quad is a sufficient fraction of the slope's."""

    gamma = 1.0
    for _ in range(_ARMIJO_MAX_HALVINGS):
        if gamma * slope + gamma * gamma * quad <= _ARMIJO_SLOPE * gamma * slope:
            return gamma
        gamma *= 0.5
    return 0.0


def solve_fgw(
    problem: FgwProblem,
    M_eff: np.ndarray,
    init: np.ndarray | None = None,
    basis: Basis | None = None,
    gradient: np.ndarray | None = None,
) -> FgwSolve:
    """Conditional-gradient minimization of (1 - alpha) <M_eff, T> +
    alpha GW(T) over U(a, b).

    ``M_eff`` must be a finite n x m matrix; the problem was checked when
    it was built.

    Starts from the outer product a b^T unless a warm start is supplied.
    Stops when the candidate step's relative objective decrease falls
    below 1e-9 (the candidate is then discarded, so a converged warm start
    is returned bit-identically) or after 200 iterations.

    ``gradient`` is 2 K(init), the ``FgwSolve.G`` returned with ``init``,
    trusted; ``gw_gradient`` evaluates it when it is None.  Each iteration
    applies K once, to D (q = 2) or to the LP vertex; the step, the
    decrease and the next gradient follow in closed form, so the returned
    objective and gradient can differ from those evaluated afresh at the
    plan by accumulated rounding.

    Each LP starts from the basis the previous one returned, the first
    from ``basis`` (an ``FgwSolve.basis`` of a solve on this problem) or cold.
    The result is a function of (problem, M_eff, init, basis, gradient): on
    degenerate gradients a warm LP may pick a different optimal vertex than
    a cold one, so the CG path can differ from a cold one's while every LP
    value is the same.
    """

    alpha, q = problem.alpha, problem.q
    C1, C2, a, b = problem.C1, problem.C2, problem.a, problem.b
    shape = (a.shape[0], b.shape[0])
    M = np.asarray(M_eff, dtype=float)
    if M.shape != shape:
        raise ShapeMismatch(f"M_eff of shape {M.shape} does not fit a {shape} plan")
    _check_finite(M, "M_eff")
    T = np.outer(a, b) if init is None else np.array(init, dtype=float)
    if T.shape != shape:
        raise ShapeMismatch(f"warm start of shape {T.shape} does not fit a {shape} plan")

    # G = 2 K(T) is the structure gradient; K's linearity carries it and
    # the objective from step to step with one application of K each.
    if gradient is None:
        G = gw_gradient(T, C1, C2, q)
    else:
        G = np.array(gradient, dtype=float)
        if G.shape != shape:
            raise ShapeMismatch(f"gradient of shape {G.shape} does not fit a {shape} plan")
    obj = (1.0 - alpha) * float(np.sum(M * T)) + alpha * 0.5 * float(np.sum(G * T))
    trace = [obj]
    iters = 0
    pivots = 0
    stop = "cap"
    for _ in range(_CG_MAX_ITER):
        iters += 1
        grad = (1.0 - alpha) * M + alpha * G
        lp = solve_emd(grad, a, b, basis=basis)
        basis = lp.basis
        pivots += lp.iterations
        direction = lp.T - T
        slope = float(np.sum(grad * direction))
        if slope >= 0.0:
            # The vertex does not improve on T: stationary for this LP.
            iters -= 1
            stop = "stationary"
            break
        if q == 2.0:
            G_d = gw_gradient(direction, C1, C2, q)
        else:
            G_d = 2.0 * _k(lp.T, C1, C2, q) - G
        quad = 0.5 * alpha * float(np.sum(G_d * direction))
        gamma = line_search_quadratic(quad, slope) if q == 2.0 else _armijo_step(quad, slope)
        if gamma <= 0.0:
            iters -= 1
            stop = "no step"
            break
        decrease = -(gamma * slope + gamma * gamma * quad)
        if decrease <= _CG_TOL * max(1.0, abs(obj)):
            stop = "tol"
            break
        T = T + gamma * direction
        G = G + gamma * G_d
        obj -= decrease
        trace.append(obj)

    T.setflags(write=False)
    G.setflags(write=False)
    return FgwSolve(T, obj, iters, tuple(trace), basis, pivots, G, stop)
