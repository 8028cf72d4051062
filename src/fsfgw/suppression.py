"""Feature suppression: closed-form weight updates and the alternating solver.

For a fixed transport plan with nonnegative per-feature scores s_r, every
supported regularizer admits an exact weight update (``update_weights``):

* lasso  (R = ||w||_1):        w_r = 1 if (1 - alpha) s_r > lambda else 0
* ridge  (R = ||w||^2 / 2):    w_r = min(1, (1 - alpha) s_r / lambda)
* simplex (w on the simplex):  one-hot on the largest score
* group simplex:               1 on the group with the largest mean score,
                               0 elsewhere

A lasso score exactly at the threshold is retained (w_r = 0), and ties
between scores or group means go to the lowest index.  At lambda = 0, which
a calibrated level can reach, lasso and ridge suppress every strictly
positive score and retain zero scores.

``solve_fsfgw`` alternates these updates with warm-started conditional
gradient transport solves: each outer iteration starts from the previous
plan, LP basis and structure gradient 2 K(T), so only the first solve of
each alternating run applies K to a dense plan.  The basis never leaves
one alternating solve (restarts start cold), so a solve is a function of
(x, y, config).  The FGW problem (checked once, the direct contraction's
size cap included), the partition and the level are set up once per
solve and shared by every outer iteration and restart.
The groupwise objective weighs each feature score by the reciprocal of its
group size (group-mean form), in both the update and the reported objective.
"""

from __future__ import annotations

import logging

import numpy as np

from .core import (
    FsFgwConfig,
    FsfgwError,
    InvalidPartition,
    ShapeMismatch,
    SolveResult,
    StructuredObject,
    SuppressionWeights,
    TraceEntry,
    TransportPlan,
    check_partition,
    feature_cost_stack,
    feature_scores,
)
from .fgw import FgwProblem, gw_value, solve_fgw
from .transport import random_coupling

__all__ = [
    "InvalidPartition",
    "InvalidFraction",
    "calibrate_lambda",
    "solve_fsfgw",
]

logger = logging.getLogger("fsfgw")

# Both the weight change and the relative objective change must fall below
# this for the alternating solve to stop as converged.
_OUTER_TOL = 1e-7


class InvalidFraction(FsfgwError):
    """The suppression fraction is outside (0, 1)."""


def update_weights(
    mode: str,
    scores: np.ndarray,
    alpha: float,
    lam: float,
    groups: tuple[tuple[int, ...], ...] | None,
) -> np.ndarray:
    """The weights that minimize the subproblem at fixed ``scores``, by the
    rules and tie-breaks in the module docstring.

    The inputs are trusted: ``FsFgwConfig`` checked ``mode``, ``alpha`` and
    ``lam``, ``solve_fsfgw`` checked ``groups`` against the feature count,
    and the scores of a nonnegative stack and plan are nonnegative.
    """

    if mode == "lasso":
        return ((1.0 - alpha) * scores > lam).astype(float)
    if mode == "ridge":
        if lam > 0.0:
            return np.clip((1.0 - alpha) * scores / lam, 0.0, 1.0)
        return ((1.0 - alpha) * scores > 0.0).astype(float)
    w = np.zeros(scores.shape[0])
    if mode == "simplex":
        w[int(np.argmax(scores))] = 1.0
    else:
        means = [scores[list(g)].mean() for g in groups]
        w[list(groups[int(np.argmax(means))])] = 1.0
    return w


def calibrate_lambda(scores: np.ndarray, alpha: float, fraction: float) -> float:
    """Regularization level at which about ``fraction`` of features exceed
    the suppression threshold.

    Uses the nearest-rank quantile: scores sorted ascending, element at
    0-based index ceil((1 - fraction) * d) - 1, clamped to [0, d - 1],
    scaled by (1 - alpha).
    """

    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.shape[0] < 1:
        raise ShapeMismatch(f"scores must be a nonempty vector, got {scores.shape}")
    if not (0.0 < fraction < 1.0):
        raise InvalidFraction(f"fraction must lie in (0, 1), got {fraction}")
    d = scores.shape[0]
    idx = int(np.ceil((1.0 - fraction) * d)) - 1
    idx = min(max(idx, 0), d - 1)
    return float((1.0 - alpha) * np.sort(scores)[idx])


def _regularizer(w: np.ndarray, mode: str, lam: float) -> float:
    if mode == "lasso":
        return lam * float(np.abs(w).sum())
    if mode == "ridge":
        return lam * 0.5 * float(np.dot(w, w))
    return 0.0


def _solve_once(
    problem: FgwProblem,
    stack: np.ndarray,
    config: FsFgwConfig,
    groups: tuple[tuple[int, ...], ...] | None,
    inv_size: np.ndarray,
    lam: float | None,
    init: np.ndarray | None,
    flip: bool,
) -> SolveResult:
    """One alternating solve from ``init`` (a b^T when None).  Iteration 0
    is the unsuppressed solve; with ``lam`` None it calibrates the level.
    With ``flip`` the returned plan is transposed back to the caller's
    orientation."""

    alpha, q, mode = config.alpha, config.q, config.mode
    w = w_new = np.zeros(stack.shape[0])
    # The LP marginals are problem.a and problem.b throughout, so each
    # transport solve starts from the last plan, basis and gradient.
    T, basis, G, obj = init, None, None, 0.0
    trace = []
    converged = False
    for k in range(config.max_outer_iter + 1):
        if k > 0:
            w_new = update_weights(mode, scores, alpha, lam, groups)
            if np.array_equal(w_new, w) and solved.stop != "cap":
                # A weight fixed point: M_eff would be the same bits, and
                # a solve that stopped on its own would return its warm
                # start unchanged, so this iteration repeats the last.
                trace.append(TraceEntry(obj, 0.0))
                converged = True
                break
        M_eff = np.einsum("r,rij->ij", (1.0 - w_new) * inv_size, stack)
        solved = solve_fgw(problem, M_eff, T, basis, G)
        T, basis, G = solved.T, solved.basis, solved.G
        scores = feature_scores(T, stack)
        if lam is None:
            lam = calibrate_lambda(scores, alpha, config.suppression_fraction)
        parts = (
            (1.0 - alpha) * float(np.dot((1.0 - w_new) * inv_size, scores)),
            alpha * gw_value(T, problem.C1, problem.C2, q),
            _regularizer(w_new, mode, lam),
        )
        obj_new = sum(parts)
        dw = float(np.linalg.norm(w_new - w))
        trace.append(TraceEntry(obj_new, dw))
        obj_settled = abs(obj_new - obj) <= _OUTER_TOL * max(1.0, abs(obj))
        w, obj = w_new, obj_new
        if k > 0 and dw < _OUTER_TOL and obj_settled:
            converged = True
            break

    logger.debug(
        "alternating solve: %d outer iterations, converged=%s, objective=%.6g",
        k,
        converged,
        obj,
    )
    rows, cols = (problem.b, problem.a) if flip else (problem.a, problem.b)
    return SolveResult(
        plan=TransportPlan(T=T.T if flip else T, row_marginal=rows, col_marginal=cols),
        weights=SuppressionWeights(w=w, mode=mode, groups=groups),
        objective=float(obj),
        feature_term=float(parts[0]),
        gw_term=float(parts[1]),
        reg_term=float(parts[2]),
        scores=scores,
        lambda_used=float(lam),
        trace=tuple(trace),
        outer_iters=k,
        converged=converged,
    )


def _canonical_flip(x: StructuredObject, y: StructuredObject) -> bool:
    """Whether (x, y) is the other orientation of the canonical pair: the
    smaller object first, then the smaller byte content of (C, a, X).
    Ties (identical byte content) leave the order as given, and so does a
    pair that ``feature_cost_stack`` will reject, so that its error names
    the arguments in the caller's order.
    """

    if not (isinstance(x, StructuredObject) and isinstance(y, StructuredObject)) or x.d != y.d:
        return False
    if x.n != y.n:
        return x.n > y.n
    key_x = (x.C.tobytes(), x.a.tobytes(), x.X.tobytes())
    key_y = (y.C.tobytes(), y.a.tobytes(), y.X.tobytes())
    return key_x > key_y


def solve_fsfgw(
    x: StructuredObject, y: StructuredObject, config: FsFgwConfig
) -> SolveResult:
    """Alternating minimization over suppression weights and transport.

    Weights start at zero; the first transport solve is therefore the
    unsuppressed problem.  When a suppression fraction is configured, the
    regularization level is calibrated once from the initial scores of the
    first solve, and every restart reuses that level.  The loop stops when
    both the weight change and the relative objective change drop below
    1e-7, or at a weight fixed point (weights equal to the last ones after
    a transport solve that stopped before its cap), where a re-solve would
    repeat the last iteration.  Hitting ``max_outer_iter`` instead is
    reported via ``converged=False``, not an error.  With ``restarts > 0``
    the solve is repeated from random feasible couplings and the lowest
    objective wins.

    Argument symmetry: every pair is solved in one canonical orientation,
    with its feature-cost stack built in that orientation, so the
    objective, terms, weights, scores, level and trace of (x, y) are the
    same bits as those of (y, x), and the plan is the transpose.
    """

    flip = _canonical_flip(x, y)
    if flip:
        x, y = y, x
    # feature_cost_stack validates the pair.  Its cost |x_r - y_r|^q is
    # exactly symmetric, so this stack is the transpose of the caller's.
    stack = feature_cost_stack(x, y, q=config.q, norm=config.feature_norm)
    # C1, C2, alpha, q and the marginals are fixed for every outer
    # iteration and restart: checked once.
    problem = FgwProblem(C1=x.C, C2=y.C, alpha=config.alpha, q=config.q, a=x.a, b=y.a)
    groups = check_partition(config.groups, x.d) if config.mode == "group_simplex" else None
    # Groupwise scoring weighs each feature by 1 / |its group| (group means).
    inv_size = np.ones(x.d)
    for g in groups or ():
        inv_size[list(g)] = 1.0 / len(g)
    if config.lam is not None:
        lam = float(config.lam)
    elif config.suppression_fraction is not None:
        lam = None  # calibrated by the first solve
    else:
        lam = 0.0  # simplex modes carry no regularization level
    best = _solve_once(problem, stack, config, groups, inv_size, lam, None, flip)
    if config.restarts > 0:
        rng = np.random.default_rng(config.seed)
        for _ in range(config.restarts):
            init = random_coupling(x.a, y.a, rng)
            candidate = _solve_once(
                problem, stack, config, groups, inv_size, best.lambda_used, init, flip
            )
            if candidate.objective < best.objective:
                best = candidate
    return best
