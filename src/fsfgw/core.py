"""Domain types and shared primitives for structured-object comparison.

A structured object bundles a symmetric structure-cost matrix ``C`` with
zero diagonal, a node probability measure ``a``, and a node feature matrix
``X``.  Pairs of objects are compared through a stack of per-feature cost
matrices and transport plans coupling the two measures.

All types are frozen dataclasses carrying read-only numpy arrays, so
instances are safe to share across threads and worker processes.

Each invariant is checked once, by the entry point that takes it:
``StructuredObject`` one object, ``FsFgwConfig`` a configuration,
``validate_pair`` a shared feature count, ``check_partition`` the groups
against it, ``TransportPlan`` and ``SuppressionWeights`` the plan and
weights a solve returns; ``solve_emd``, ``FgwProblem`` and ``solve_fgw``
check the solver inputs.  ``LpSolution.T``, ``FgwSolve.T`` and the weight
updates' arrays are unchecked output.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "MEASURE_TOL",
    "MARGINAL_TOL",
    "SYMMETRY_TOL",
    "MODES",
    "FEATURE_NORMS",
    "FsfgwError",
    "DimensionMismatch",
    "InvalidMeasure",
    "AsymmetricCost",
    "ShapeMismatch",
    "InvalidConfig",
    "InvalidPartition",
    "StructuredObject",
    "TransportPlan",
    "SuppressionWeights",
    "FsFgwConfig",
    "TraceEntry",
    "SolveResult",
    "validate_pair",
    "check_partition",
    "feature_cost_stack",
    "feature_scores",
]

# Validation tolerances.  Measures are checked to MEASURE_TOL and then
# renormalized exactly; plan marginals are only ever checked, never repaired.
MEASURE_TOL = 1e-9
SYMMETRY_TOL = 1e-9
MARGINAL_TOL = 1e-8

MODES = ("lasso", "ridge", "simplex", "group_simplex")
FEATURE_NORMS = ("none", "per_feature")


class FsfgwError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(FsfgwError):
    """Two objects disagree on an axis that must match (e.g. feature count)."""


class InvalidMeasure(FsfgwError):
    """A probability vector is negative, non-finite, or does not sum to one."""


class AsymmetricCost(FsfgwError):
    """A structure cost matrix is not symmetric within tolerance."""


class ShapeMismatch(FsfgwError):
    """An array argument has an incompatible shape."""


class InvalidConfig(FsfgwError):
    """A solver configuration violates its invariants."""


class InvalidPartition(InvalidConfig):
    """Groups do not partition the feature index set."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=float)
    if out is arr:
        out = out.copy()
    out.setflags(write=False)
    return out


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise ShapeMismatch(f"{what} contains non-finite entries")


def _check_q(q: float) -> None:
    """Raise ``InvalidConfig`` unless the cost exponent ``q`` is finite
    and >= 1 (nan fails both comparisons)."""

    if not (1.0 <= q < np.inf):
        raise InvalidConfig(f"q must be finite and >= 1, got {q}")


@dataclass(frozen=True)
class StructuredObject:
    """A structure cost matrix, a node measure, and node features.

    ``C`` must be square, symmetric within 1e-9, with zero diagonal and
    nonnegative entries; it is symmetrized exactly on construction.  ``a``
    must be entrywise nonnegative and sum to 1 within 1e-9; it is
    renormalized to sum exactly 1.  ``X`` holds one feature row per node.
    """

    C: np.ndarray
    a: np.ndarray
    X: np.ndarray
    feature_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        C = np.asarray(self.C, dtype=float)
        a = np.asarray(self.a, dtype=float)
        X = np.asarray(self.X, dtype=float)

        if C.ndim != 2 or C.shape[0] != C.shape[1]:
            raise ShapeMismatch(f"C must be square, got shape {C.shape}")
        n = C.shape[0]
        _check_finite(C, "C")
        if np.abs(C - C.T).max(initial=0.0) > SYMMETRY_TOL:
            raise AsymmetricCost(
                f"C is not symmetric within {SYMMETRY_TOL:g} "
                f"(max deviation {np.abs(C - C.T).max():.3e})"
            )
        if np.abs(np.diagonal(C)).max(initial=0.0) > SYMMETRY_TOL:
            raise AsymmetricCost("C must have a zero diagonal")
        if C.min(initial=0.0) < -SYMMETRY_TOL:
            raise AsymmetricCost("C must be entrywise nonnegative")
        C = np.maximum((C + C.T) / 2.0, 0.0)
        np.fill_diagonal(C, 0.0)

        if a.ndim != 1 or a.shape[0] != n:
            raise ShapeMismatch(f"a must be a length-{n} vector, got shape {a.shape}")
        _check_finite(a, "a")
        if a.min(initial=0.0) < 0.0:
            raise InvalidMeasure("a has negative entries")
        total = a.sum()
        if abs(total - 1.0) > MEASURE_TOL:
            raise InvalidMeasure(f"a sums to {total!r}, expected 1 within {MEASURE_TOL:g}")
        a = a / total

        if X.ndim != 2 or X.shape[0] != n:
            raise ShapeMismatch(f"X must have {n} rows, got shape {X.shape}")
        _check_finite(X, "X")

        if self.feature_names is not None:
            names = tuple(str(s) for s in self.feature_names)
            if len(names) != X.shape[1]:
                raise DimensionMismatch(
                    f"{len(names)} feature names for {X.shape[1]} feature columns"
                )
            object.__setattr__(self, "feature_names", names)

        object.__setattr__(self, "C", _readonly(C))
        object.__setattr__(self, "a", _readonly(a))
        object.__setattr__(self, "X", _readonly(X))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


@dataclass(frozen=True)
class TransportPlan:
    """A nonnegative coupling whose marginals match the stated measures.

    Row and column sums must equal ``row_marginal`` and ``col_marginal``
    entrywise within 1e-8.  Entries in [-1e-12, 0) are snapped to zero.
    """

    T: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray

    def __post_init__(self) -> None:
        T = np.asarray(self.T, dtype=float)
        a = np.asarray(self.row_marginal, dtype=float)
        b = np.asarray(self.col_marginal, dtype=float)
        if T.ndim != 2:
            raise ShapeMismatch(f"plan must be a matrix, got shape {T.shape}")
        n, m = T.shape
        if a.shape != (n,) or b.shape != (m,):
            raise ShapeMismatch(
                f"marginals of shapes {a.shape}, {b.shape} do not fit a {n}x{m} plan"
            )
        _check_finite(T, "plan")
        low = T.min(initial=0.0)
        if low < -1e-12:
            raise InvalidMeasure(f"plan has negative entries (min {low:.3e})")
        T = np.maximum(T, 0.0)
        row_err = np.abs(T.sum(axis=1) - a).max(initial=0.0)
        col_err = np.abs(T.sum(axis=0) - b).max(initial=0.0)
        if max(row_err, col_err) > MARGINAL_TOL:
            raise InvalidMeasure(
                f"plan marginals deviate by {max(row_err, col_err):.3e} "
                f"(tolerance {MARGINAL_TOL:g})"
            )
        object.__setattr__(self, "T", _readonly(T))
        object.__setattr__(self, "row_marginal", _readonly(a))
        object.__setattr__(self, "col_marginal", _readonly(b))

    @property
    def shape(self) -> tuple[int, int]:
        return self.T.shape


def check_partition(
    groups: Sequence[Sequence[int]] | None, d: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """Check that nonempty ``groups`` cover the indices 0..d-1 exactly once
    and return them as tuples of ints.  Indices must be integers (numpy
    integers too); a float such as 0.7 or 1.0 is rejected, not rounded.

    ``d`` defaults to the largest index plus one, which is what a
    configuration can check before the feature count is known.
    """

    if not groups:
        raise InvalidPartition("a group partition is required")
    try:
        groups = tuple(tuple(operator.index(i) for i in g) for g in groups)
    except TypeError:
        raise InvalidPartition("groups must be lists of integer feature indices") from None
    flat = sorted(i for g in groups for i in g)
    if d is None:
        d = flat[-1] + 1 if flat else 0
    if any(len(g) == 0 for g in groups) or flat != list(range(d)):
        raise InvalidPartition(
            f"groups must partition the {d} feature indices exactly once"
        )
    return groups


@dataclass(frozen=True)
class SuppressionWeights:
    """Per-feature suppression levels in [0, 1] tagged with their mode.

    Mode invariants are enforced: lasso weights are binary, simplex weights
    are one-hot, and group-simplex weights are constant 1 on exactly one
    group of the partition and 0 elsewhere.  ``groups``, required for
    group simplex and optional otherwise, must partition the d indices.
    """

    w: np.ndarray
    mode: str
    groups: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 1:
            raise ShapeMismatch(f"weights must be a vector, got shape {w.shape}")
        _check_finite(w, "weights")
        if self.mode not in MODES:
            raise InvalidConfig(f"unknown mode {self.mode!r}")
        if w.min(initial=0.0) < -1e-12 or w.max(initial=0.0) > 1.0 + 1e-12:
            raise InvalidConfig("weights must lie in [0, 1]")
        w = np.clip(w, 0.0, 1.0)
        if self.mode == "group_simplex" or self.groups is not None:
            object.__setattr__(self, "groups", check_partition(self.groups, w.shape[0]))

        if self.mode == "lasso":
            if not np.all((w == 0.0) | (w == 1.0)):
                off = w[(w != 0.0) & (w != 1.0)]
                raise InvalidConfig(f"lasso weights must be binary, got {off[:3]}")
        elif self.mode == "simplex":
            if not (np.count_nonzero(w == 1.0) == 1 and np.count_nonzero(w) == 1):
                raise InvalidConfig("simplex weights must be one-hot")
        elif self.mode == "group_simplex":
            groups = self.groups
            hot = [gi for gi, g in enumerate(groups) if all(w[list(g)] == 1.0)]
            if len(hot) != 1 or np.count_nonzero(w) != len(groups[hot[0]]):
                raise InvalidConfig("group_simplex weights must be 1 on one group only")
        object.__setattr__(self, "w", _readonly(w))

    @property
    def d(self) -> int:
        return self.w.shape[0]


@dataclass(frozen=True)
class FsFgwConfig:
    """Solver configuration.

    Exactly one of ``lam`` (a fixed regularization level) and
    ``suppression_fraction`` (a target fraction of features to suppress,
    used to calibrate the level from initial scores) must be given for the
    lasso and ridge modes; simplex modes accept neither.  ``restarts``
    adds that many extra alternating solves from random feasible couplings
    and keeps the best objective; every restart reuses the first solve's
    level.  Tolerances are fixed: 1e-7 on the outer weight and relative
    objective changes, 1e-9 on conditional gradient's relative decrease (at
    most 200 iterations), 1e-12 on restart couplings' marginals (at most
    10,000 scaling sweeps).
    """

    mode: str = "lasso"
    alpha: float = 0.5
    q: float = 2.0
    lam: float | None = None
    suppression_fraction: float | None = None
    groups: tuple[tuple[int, ...], ...] | None = None
    feature_norm: str = "per_feature"
    max_outer_iter: int = 50
    seed: int = 0
    restarts: int = 0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise InvalidConfig(f"mode must be one of {MODES}, got {self.mode!r}")
        if not (0.0 <= self.alpha <= 1.0):
            raise InvalidConfig(f"alpha must lie in [0, 1], got {self.alpha}")
        _check_q(self.q)
        if self.feature_norm not in FEATURE_NORMS:
            raise InvalidConfig(
                f"feature_norm must be one of {FEATURE_NORMS}, got {self.feature_norm!r}"
            )
        if self.lam is not None and not (0.0 < self.lam < np.inf):
            raise InvalidConfig(f"lambda must be positive and finite, got {self.lam}")
        f = self.suppression_fraction
        if f is not None and not (0.0 < f < 1.0):
            raise InvalidConfig(f"suppression fraction must lie in (0, 1), got {f}")
        if self.mode in ("lasso", "ridge"):
            if (self.lam is None) == (f is None):
                raise InvalidConfig(
                    f"{self.mode} mode needs exactly one of lambda and "
                    "suppression_fraction"
                )
        else:
            if self.lam is not None or f is not None:
                raise InvalidConfig(
                    f"{self.mode} mode accepts neither lambda nor suppression_fraction"
                )
        if self.mode == "group_simplex":
            object.__setattr__(self, "groups", check_partition(self.groups))
        elif self.groups is not None:
            raise InvalidConfig(f"groups are only meaningful for group_simplex mode")
        for name, least in (("max_outer_iter", 1), ("restarts", 0), ("seed", 0)):
            try:
                value = operator.index(getattr(self, name))
            except TypeError:
                raise InvalidConfig(f"{name} must be an integer") from None
            if value < least:
                raise InvalidConfig(f"{name} must be >= {least}")
            object.__setattr__(self, name, value)


class TraceEntry(NamedTuple):
    """One outer iteration: objective value and weight-change norm."""

    objective: float
    dw: float


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an alternating suppression/transport solve.

    The objective always equals ``feature_term + gw_term + reg_term``.
    ``trace`` records (objective, weight-change norm) per outer iteration,
    starting from the initial transport solve with zero weights, and is
    non-increasing in the objective.  ``converged`` is False when the
    iteration stopped only because ``max_outer_iter`` was reached.
    """

    plan: TransportPlan
    weights: SuppressionWeights
    objective: float
    feature_term: float
    gw_term: float
    reg_term: float
    scores: np.ndarray
    lambda_used: float
    trace: tuple[TraceEntry, ...]
    outer_iters: int
    converged: bool

    def __post_init__(self) -> None:
        object.__setattr__(self, "scores", _readonly(np.asarray(self.scores, float)))
        object.__setattr__(
            self, "trace", tuple(TraceEntry(float(o), float(dw)) for o, dw in self.trace)
        )

    def to_json_dict(self) -> dict:
        return {
            "objective": self.objective,
            "feature_term": self.feature_term,
            "gw_term": self.gw_term,
            "reg_term": self.reg_term,
            "lambda": self.lambda_used,
            "weights": self.weights.w.tolist(),
            "scores": self.scores.tolist(),
            "plan": self.plan.T.tolist(),
            "outer_iters": self.outer_iters,
            "converged": self.converged,
            "trace": [{"objective": t.objective, "dw": t.dw} for t in self.trace],
        }


def validate_pair(x: StructuredObject, y: StructuredObject) -> None:
    """Check that two objects can be compared.

    Object-level invariants (symmetry, measure normalization) are enforced
    by the ``StructuredObject`` constructor; this check covers the
    cross-object requirement that both carry the same feature count.
    """

    if not isinstance(x, StructuredObject) or not isinstance(y, StructuredObject):
        raise ShapeMismatch("validate_pair expects two StructuredObject instances")
    if x.d != y.d:
        raise DimensionMismatch(f"feature counts differ: {x.d} vs {y.d}")


def feature_cost_stack(
    x: StructuredObject,
    y: StructuredObject,
    q: float = 2.0,
    norm: str = "per_feature",
) -> np.ndarray:
    """Build the stack of per-feature cost matrices M_r[i, j] = |x_ir - y_jr|^q.

    With ``norm="per_feature"`` each matrix is rescaled so its maximum
    entry is 1; all-zero matrices are left untouched.  ``norm="none"``
    keeps the raw costs.  Returns a read-only array of shape (d, n, m),
    built in one pass: the differences of the features' contiguous rows,
    then ``abs``, the power and the rescaling in place.
    """

    validate_pair(x, y)
    _check_q(q)
    if norm not in FEATURE_NORMS:
        raise InvalidConfig(f"norm must be one of {FEATURE_NORMS}, got {norm!r}")
    xt = np.ascontiguousarray(x.X.T)
    yt = np.ascontiguousarray(y.X.T)
    stack = np.subtract(xt[:, :, None], yt[:, None, :])
    np.abs(stack, out=stack)
    stack **= q
    if norm == "per_feature":
        mx = stack.max(axis=(1, 2), initial=0.0)[:, None, None]
        np.divide(stack, mx, out=stack, where=mx > 0.0)
    stack.setflags(write=False)
    return stack


def feature_scores(T: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Per-feature transport costs s_r = sum_ij T_ij M_r[i, j] of an n x m
    plan array ``T``.

    Scores are linear in the plan and nonnegative whenever the stack is.
    """

    T = np.asarray(T, dtype=float)
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or T.ndim != 2 or stack.shape[1:] != T.shape:
        raise ShapeMismatch(
            f"stack of shape {stack.shape} does not match plan of shape {T.shape}"
        )
    return np.einsum("rij,ij->r", stack, T)
