"""Fused Gromov-Wasserstein objective and its conditional-gradient solver.

The structure term is GW(T) = <K(T), T> with the linear operator

    K(T)[i, j] = sum_{i' j'} |C1[i, i'] - C2[j, j']|^q T[i', j']

defined for any real T, so the gradient of GW is 2 K(T).  ``gw_value``
and ``gw_gradient`` take (T, C1, C2, q) and apply K through two private
functions.  ``_k_dense`` applies it to any n x m matrix: for q = 2 K
factorizes into two marginal-weighted vectors and one bilinear term,
avoiding the O(n^2 m^2) contraction.  Other exponents use the direct
contraction, only permitted up to n * m = 10,000; it keeps no difference
block: each call builds |C1[i, i'] - C2[j, j']|^q in pieces of at most
2**17 doubles (1 MiB), each filled from two tiles of C1 and C2 of at most
1 MiB, and applies each with an einsum, which makes no BLAS call.
``_k_sparse`` applies K to a plan's nnz nonzeros in O(n m nnz), also by
einsum: O(n m (n + m)) on an LP vertex, whose nnz is at most n + m - 1.
At q != 2 ``gw_value`` evaluates <K(T), T> that way, on the support of T.

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

from .core import FsfgwError, InvalidConfig, ShapeMismatch, _check_q
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
_PIECE_DOUBLES = 2**17  # dense contraction
_BLOCK_DOUBLES = 2**22  # sparse application

_ARMIJO_SLOPE = 1e-4
_ARMIJO_MAX_HALVINGS = 30
_CG_MAX_ITER = 200
_CG_TOL = 1e-9


class InstanceTooLarge(FsfgwError):
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


def _distortion(diff: np.ndarray, q: float) -> np.ndarray:
    """|diff|^q, computed in place so it is the only array of its size."""

    np.abs(diff, out=diff)
    if q != 1.0:  # x ** 1.0 is x exactly
        diff **= q
    return diff


def _contraction(T: np.ndarray, C1: np.ndarray, C2: np.ndarray, q: float) -> np.ndarray:
    """K(T) by blocked direct contraction.

    Work is blocked over rows of C1, and over columns of C2 when one row
    of n * m * m doubles is too large, so that a piece of the difference
    block |C1[i, i'] - C2[j, j']|^q holds at most 2**17 doubles (1 MiB).
    Each piece is filled, in one reused buffer, from two tiles of at most
    1 MiB each: the piece's rows of C1 with every entry repeated m times
    and its columns of C2 tiled n times, so the subtraction runs over rows
    of n * m contiguous doubles.  Each output cell is the same einsum
    reduction as over the whole block.
    """

    n, m = T.shape
    K = np.empty((n, m))
    rows = min(n, max(1, _PIECE_DOUBLES // (n * m * m)))
    cols = m if n * m * m <= _PIECE_DOUBLES else _PIECE_DOUBLES // (n * m)
    buf = np.empty(rows * cols * n * m)
    for c0 in range(0, m, cols):
        c1 = min(m, c0 + cols)
        right = np.tile(C2[c0:c1], (1, n))  # right[j, k m + l] = C2[c0 + j, l]
        for r0 in range(0, n, rows):
            r1 = min(n, r0 + rows)
            left = np.repeat(C1[r0:r1], m, axis=1)  # left[b, k m + l] = C1[r0 + b, k]
            piece = buf[: (r1 - r0) * (c1 - c0) * n * m].reshape(r1 - r0, c1 - c0, n * m)
            np.subtract(left[:, None, :], right[None, :, :], out=piece)
            diff = _distortion(piece, q).reshape(r1 - r0, c1 - c0, n, m)
            K[r0:r1, c0:c1] = np.einsum("bjkl,kl->bj", diff, T)
        del right  # free the tile before the next one is built
    return K


def _k_dense(T: np.ndarray, C1: np.ndarray, C2: np.ndarray, q: float) -> np.ndarray:
    """K(T): (C1∘C1) r + (C2∘C2) c - 2 C1 T C2 for q = 2, with r and c
    the row and column sums of T; the blocked contraction otherwise."""

    if q == 2.0:
        r = T.sum(axis=1)
        c = T.sum(axis=0)
        return ((C1 * C1) @ r)[:, None] + ((C2 * C2) @ c)[None, :] - 2.0 * (C1 @ T @ C2)
    return _contraction(T, C1, C2, q)


def _k_sparse(rows: np.ndarray, cols: np.ndarray, values: np.ndarray,
              C1: np.ndarray, C2: np.ndarray, q: float) -> np.ndarray:
    """K of the n x m matrix with ``values`` at (``rows``, ``cols``) and
    zeros elsewhere, such as an LP vertex: an einsum over |C1[:, rows]
    - C2[:, cols]|^q in pieces of at most 2**22 doubles, gathers included."""

    n, m = C1.shape[0], C2.shape[0]
    K = np.zeros((n, m))
    step = max(1, _BLOCK_DOUBLES // (n * m + n + m))
    for s0 in range(0, len(values), step):
        piece = slice(s0, s0 + step)
        diff = _distortion(C1[:, None, rows[piece]] - C2[None, :, cols[piece]], q)
        K += np.einsum("ijs,s->ij", diff, values[piece])
        del diff  # free the piece before the next one is allocated
    return K


def gw_value(T: np.ndarray, C1: np.ndarray, C2: np.ndarray, q: float = 2.0) -> float:
    """Exact value of the structure-distortion quartic form, <K(T), T> (>= 0).

    At q != 2 K(T) is applied to the nonzeros of T only, in O(n m nnz),
    which an LP vertex keeps at n + m - 1 or fewer."""

    T, C1, C2 = _checked(T, C1, C2, q)
    if q == 2.0:
        K = _k_dense(T, C1, C2, q)
    else:
        rows, cols = np.nonzero(T)
        K = _k_sparse(rows, cols, T[rows, cols], C1, C2, q)
    value = float(np.sum(K * T))
    # The form is a sum of nonnegative terms; cancellation in the
    # factorized path may leave a tiny negative residue.
    if -1e-9 < value < 0.0:
        value = 0.0
    return value


def gw_gradient(T: np.ndarray, C1: np.ndarray, C2: np.ndarray, q: float = 2.0) -> np.ndarray:
    """Gradient of ``gw_value`` with respect to the plan: 2 K(T).

    Linear in the plan, which may be any real matrix (a CG direction)."""

    T, C1, C2 = _checked(T, C1, C2, q)
    return 2.0 * _k_dense(T, C1, C2, q)


@dataclass(frozen=True)
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
        if not (0.0 <= self.alpha <= 1.0):
            raise InvalidConfig(f"alpha must lie in [0, 1], got {self.alpha}")
        _check_q(self.q)
        for name, arr in (("C1", C1), ("C2", C2), ("a", a), ("b", b)):
            if not np.all(np.isfinite(arr)):
                raise ShapeMismatch(f"{name} contains non-finite entries")
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
    if not np.all(np.isfinite(M)):
        raise ShapeMismatch("M_eff contains non-finite entries")
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
            rows, cols = np.nonzero(lp.T)
            G_d = 2.0 * _k_sparse(rows, cols, lp.T[rows, cols], C1, C2, q) - G
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
