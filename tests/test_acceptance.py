"""Whole-library acceptance checks.

Thirteen end-to-end checks, one per load-bearing contract, each printing a
single ``ACCEPTANCE NN <name>: PASS|FAIL`` line so the verdicts stay
visible in any test log.  Draw counts, seeds, and tolerances are frozen;
reference values come from the independent routes in :mod:`oracles`.
"""

import numpy as np
import pytest

import oracles
from fsfgw.core import (
    FsFgwConfig,
    StructuredObject,
    SuppressionWeights,
    feature_cost_stack,
    feature_scores,
)
from fsfgw.fgw import FgwProblem, gw_gradient, gw_value, solve_fgw
from fsfgw.pipelines import (
    PrecinctGraph,
    RedistrictingPlan,
    SyntheticSpec,
    compare_plans,
    generate_synthetic_pair,
    match_districts,
    roc_sweep,
    separation_metric,
)
from fsfgw.suppression import solve_fsfgw, update_weights
from fsfgw.transport import solve_emd
from oracles import fgw_objective, reduced_objective_g


def _verdict(capsys, num: int, name: str, failures: list[str]) -> None:
    """Print the one-line verdict, then fail with the first few details."""
    ok = not failures
    with capsys.disabled():
        print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"{name}: {len(failures)} failure(s): " + " | ".join(failures[:8])


def _random_object(rng: np.random.Generator, n: int, d: int) -> StructuredObject:
    return StructuredObject(
        C=oracles.random_structure(rng, n),
        a=oracles.random_measure(rng, n),
        X=rng.normal(size=(n, d)),
    )


def _random_partition(rng: np.random.Generator, d: int) -> tuple[tuple[int, ...], ...]:
    idx = [int(i) for i in rng.permutation(d)]
    groups, start = [], 0
    while start < d:
        size = int(rng.integers(1, d - start + 1))
        groups.append(tuple(sorted(idx[start : start + size])))
        start += size
    return tuple(groups)


def _chunks(d: int, size: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(range(i, min(i + size, d))) for i in range(0, d, size))


# ---------------------------------------------------------------------------
# 01  closed-form weight updates minimize their subproblem


def test_01_weight_updates_beat_grid_search(capsys):
    rng = np.random.default_rng(2024)
    failures = []
    for mode in ("lasso", "ridge", "simplex", "group_simplex"):
        for draw in range(500):
            d = int(rng.integers(1, 9))
            scores = rng.uniform(0.0, 3.0, size=d)
            alpha = float(rng.uniform(0.0, 0.95))
            lam = float(rng.uniform(0.05, 2.0)) if mode in ("lasso", "ridge") else None
            groups = _random_partition(rng, d) if mode == "group_simplex" else None
            w = update_weights(mode, scores, alpha, lam, groups)
            SuppressionWeights(w=w, mode=mode, groups=groups)  # the mode's invariants
            value = oracles.subproblem_value(w, scores, alpha, lam, mode, groups)
            ref = oracles.grid_min_subproblem(scores, alpha, lam, mode, groups)
            if value > ref + 1e-6:
                failures.append(f"{mode} draw {draw}: {value} > {ref} + 1e-6")
    _verdict(capsys, 1, "closed-form-weight-updates", failures)


# ---------------------------------------------------------------------------
# 02  reduced objective identity at the closed-form minimizer


def test_02_reduced_objective_identity(capsys):
    rng = np.random.default_rng(2025)
    failures = []
    for draw in range(200):
        d = int(rng.integers(1, 9))
        scores = rng.uniform(0.0, 3.0, size=d)
        alpha = float(rng.uniform(0.0, 0.95))
        lam = float(rng.uniform(0.05, 2.0))
        for mode in ("lasso", "ridge"):
            w = update_weights(mode, scores, alpha, lam, None)
            SuppressionWeights(w=w, mode=mode)  # the mode's invariants
            value = oracles.subproblem_value(w, scores, alpha, lam, mode)
            g = reduced_objective_g(scores, alpha, lam, mode)
            if abs(value - g) > 1e-10:
                failures.append(f"{mode} draw {draw}: |{value} - {g}| > 1e-10")
    _verdict(capsys, 2, "reduced-objective-identity", failures)


# ---------------------------------------------------------------------------
# 03  exact transport agrees with an LP oracle and dominates feasible plans


def test_03_transport_matches_lp_and_dominates(capsys):
    rng = np.random.default_rng(7)
    failures = []
    for draw in range(100):
        n = int(rng.integers(1, 6))
        m = int(rng.integers(1, 6))
        cost = rng.uniform(0.0, 5.0, size=(n, m))
        a = oracles.random_measure(rng, n)
        b = oracles.random_measure(rng, m)
        sol = solve_emd(cost, a, b)
        ref_value, _ = oracles.emd_lp(cost, a, b)
        if abs(sol.value - ref_value) > 1e-8:
            failures.append(f"draw {draw}: |{sol.value} - {ref_value}| > 1e-8")
        for _ in range(100):
            feasible = oracles.ipf_coupling(a, b, rng)
            if float(np.sum(cost * feasible)) < sol.value - 1e-10:
                failures.append(f"draw {draw}: a feasible plan beats the solver")
                break
    _verdict(capsys, 3, "exact-transport-oracle", failures)


# ---------------------------------------------------------------------------
# 04  structure-distortion gradient and value routes


def test_04_gw_gradient_and_value_routes(capsys):
    rng = np.random.default_rng(11)
    failures = []
    for draw in range(50):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        C1 = oracles.random_structure(rng, n)
        C2 = oracles.random_structure(rng, m)
        a = oracles.random_measure(rng, n)
        b = oracles.random_measure(rng, m)
        T = oracles.ipf_coupling(a, b, rng)
        for q in (1.0, 2.0):
            grad = gw_gradient(T, C1, C2, q)
            fd = oracles.finite_difference_gradient(
                lambda M: gw_value(M, C1, C2, q), T
            )
            rel = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd))
            if rel > 1e-4:
                failures.append(f"draw {draw} q={q}: gradient rel err {rel:.3g}")
        fast = gw_value(T, C1, C2, 2.0)
        direct = oracles.gw_quadruple(T, C1, C2, 2.0)
        if abs(fast - direct) > 1e-10:
            failures.append(f"draw {draw}: |{fast} - {direct}| > 1e-10")
    _verdict(capsys, 4, "gw-gradient-check", failures)


# ---------------------------------------------------------------------------
# 05 / 06  alternating solver corpus: convergence and objective bounds


@pytest.fixture(scope="module")
def solver_corpus():
    rng = np.random.default_rng(12345)
    records = []
    for _ in range(100):
        n = int(rng.integers(5, 16))
        m = int(rng.integers(5, 16))
        d = int(rng.integers(3, 7))
        x = _random_object(rng, n, d)
        y = _random_object(rng, m, d)
        configs = {
            "lasso": FsFgwConfig(mode="lasso", suppression_fraction=0.3),
            "ridge": FsFgwConfig(mode="ridge", suppression_fraction=0.3),
            "simplex": FsFgwConfig(mode="simplex"),
            "group_simplex": FsFgwConfig(mode="group_simplex", groups=_chunks(d, 2)),
        }
        for mode, config in configs.items():
            records.append((mode, x, y, config, solve_fsfgw(x, y, config)))
    return records


def test_05_solver_converges_with_monotone_traces(capsys, solver_corpus):
    failures = []
    iters = []
    for k, (mode, _, _, _, res) in enumerate(solver_corpus):
        iters.append(res.outer_iters)
        if not res.converged or res.outer_iters > 50:
            failures.append(f"solve {k} ({mode}): not converged within 50")
        for t0, t1 in zip(res.trace[:-1], res.trace[1:]):
            if t1.objective > t0.objective + 1e-10:
                failures.append(f"solve {k} ({mode}): trace increased")
                break
    median = float(np.median(iters))
    if median > 8.0:
        failures.append(f"median outer iterations {median} > 8")
    _verdict(capsys, 5, "alternating-solver-convergence", failures)


def test_06_objective_sandwich(capsys, solver_corpus):
    failures = []
    for k, (mode, x, y, config, res) in enumerate(solver_corpus):
        gw = gw_value(res.plan.T, x.C, y.C, config.q)
        if config.alpha * gw > res.objective + 1e-12:
            failures.append(f"solve {k} ({mode}): alpha*gw exceeds the objective")
        if res.objective > res.trace[0].objective + 1e-10:
            failures.append(f"solve {k} ({mode}): worse than the unsuppressed start")
    _verdict(capsys, 6, "objective-sandwich", failures)


# ---------------------------------------------------------------------------
# 07  degenerate limits collapse to the classical solve


def test_07_degenerate_limits(capsys):
    rng = np.random.default_rng(99)
    failures = []
    for draw in range(5):
        n = int(rng.integers(5, 11))
        m = int(rng.integers(5, 11))
        d = int(rng.integers(3, 7))
        x = _random_object(rng, n, d)
        y = _random_object(rng, m, d)
        stack = feature_cost_stack(x, y)
        problem = FgwProblem(C1=x.C, C2=y.C, alpha=0.5, q=2.0, a=x.a, b=y.a)
        M_eff = stack.sum(axis=0)

        # A prohibitive level keeps every weight at zero: the classical solve.
        res = solve_fsfgw(x, y, FsFgwConfig(mode="lasso", lam=1e12))
        classical = solve_fgw(problem, M_eff)
        if abs(res.objective - classical.objective) > 1e-10:
            failures.append(f"draw {draw}: prohibitive level changed the objective")
        if not np.array_equal(res.plan.T, classical.T):
            failures.append(f"draw {draw}: prohibitive level changed the plan")

        # At alpha = 1 the features must not matter at all.  Rebuild both
        # pairs through the constructor so the measures renormalize along
        # the identical path and stay bitwise equal.
        cfg1 = FsFgwConfig(mode="lasso", lam=0.5, alpha=1.0)
        res1 = solve_fsfgw(
            StructuredObject(C=x.C, a=x.a, X=x.X),
            StructuredObject(C=y.C, a=y.a, X=y.X),
            cfg1,
        )
        x0 = StructuredObject(C=x.C, a=x.a, X=np.zeros_like(x.X))
        y0 = StructuredObject(C=y.C, a=y.a, X=np.zeros_like(y.X))
        res0 = solve_fsfgw(x0, y0, cfg1)
        if abs(res1.objective - res0.objective) > 1e-12:
            failures.append(f"draw {draw}: alpha=1 objective depends on features")
        if not np.array_equal(res1.plan.T, res0.plan.T):
            failures.append(f"draw {draw}: alpha=1 plan depends on features")

        # Evaluating with all-zero weights is the fused objective itself.
        T = classical.T
        scores = feature_scores(T, stack)
        manual = 0.5 * float(scores.sum()) + 0.5 * gw_value(T, x.C, y.C, 2.0)
        fused = fgw_objective(T, problem, M_eff)
        if abs(manual - fused) > 1e-12 * max(1.0, abs(fused)):
            failures.append(f"draw {draw}: zero-weight evaluation drifts from fused")
    _verdict(capsys, 7, "degenerate-limits", failures)


# ---------------------------------------------------------------------------
# 08  planted recovery, binary and graded weights


def test_08_planted_recovery_binary_and_graded(capsys):
    failures = []
    lasso_hits = 0
    ridge_hits = 0
    diff = frozenset(range(3))
    shared = [r for r in range(10) if r not in diff]
    for seed in range(20):
        x, y, planted = generate_synthetic_pair(SyntheticSpec(seed=seed))
        assert planted == diff
        res = solve_fsfgw(x, y, FsFgwConfig(mode="lasso", suppression_fraction=0.3))
        if separation_metric(res.weights, planted) == 1.0:
            lasso_hits += 1
        res = solve_fsfgw(x, y, FsFgwConfig(mode="ridge", suppression_fraction=0.2))
        w = res.weights.w
        if w[list(diff)].min() > w[shared].max():
            ridge_hits += 1
    if lasso_hits < 16:
        failures.append(f"lasso perfect recovery in only {lasso_hits}/20 seeds")
    if ridge_hits < 16:
        failures.append(f"ridge ordering holds in only {ridge_hits}/20 seeds")
    _verdict(capsys, 8, "planted-recovery-binary", failures)


# ---------------------------------------------------------------------------
# 09  planted recovery, one-hot and group weights


def test_09_planted_recovery_simplex_and_group(capsys):
    failures = []
    group_hits = 0
    groups = _chunks(100, 10)
    for seed in range(20):
        x, y, planted = generate_synthetic_pair(
            SyntheticSpec(d=100, k=10, delta=5.0, seed=seed)
        )
        res = solve_fsfgw(x, y, FsFgwConfig(mode="simplex"))
        sep = separation_metric(res.weights, planted)
        if sep > 0.1 + 1e-9:
            failures.append(f"seed {seed}: one-hot separation {sep} exceeds its cap")

        x, y, planted = generate_synthetic_pair(
            SyntheticSpec(d=100, k=10, delta=2.0, seed=seed)
        )
        res = solve_fsfgw(x, y, FsFgwConfig(mode="group_simplex", groups=groups))
        if separation_metric(res.weights, planted) == 1.0:
            group_hits += 1
    if group_hits < 16:
        failures.append(f"grouped recovery in only {group_hits}/20 seeds")
    _verdict(capsys, 9, "planted-recovery-simplex", failures)


# ---------------------------------------------------------------------------
# 10  recovery operating curves stay well above chance


def test_10_roc_sweep_auc(capsys):
    failures = []
    fractions = [0.02, 0.05, 0.08, 0.1, 0.15, 0.2, 0.3, 0.5, 0.7]
    aucs = {"lasso": [], "ridge": []}
    for seed in range(5):
        spec = SyntheticSpec(d=100, k=10, delta=2.0, seed=seed)
        for mode in ("lasso", "ridge"):
            config = FsFgwConfig(mode=mode, suppression_fraction=0.3, seed=seed)
            aucs[mode].append(roc_sweep(spec, config, fractions).auc)
    lasso_auc = float(np.mean(aucs["lasso"]))
    ridge_auc = float(np.mean(aucs["ridge"]))
    if lasso_auc < 0.85:
        failures.append(f"lasso mean AUC {lasso_auc:.4f} < 0.85")
    if ridge_auc < 0.80:
        failures.append(f"ridge mean AUC {ridge_auc:.4f} < 0.80")
    _verdict(capsys, 10, "roc-sweep-auc", failures)


# ---------------------------------------------------------------------------
# 11  district matching equals the permutation-enumeration optimum


def _random_assignment(rng: np.random.Generator, P: int, D: int) -> np.ndarray:
    labels = np.concatenate(
        [np.arange(1, D + 1), rng.integers(1, D + 1, size=P - D)]
    )
    rng.shuffle(labels)
    return labels.astype(np.int64)


def test_11_district_matching_oracle(capsys):
    rng = np.random.default_rng(3)
    failures = []
    for draw in range(500):
        D = int(rng.integers(2, 9))
        P = int(rng.integers(D, 40))
        assign_p = _random_assignment(rng, P, D)
        assign_q = _random_assignment(rng, P, D)
        plan_p = RedistrictingPlan(plan_id="p", assignment=assign_p)
        plan_q = RedistrictingPlan(plan_id="q", assignment=assign_q)
        H = oracles.hamming_matrix(assign_p, assign_q, D)
        matching = match_districts(plan_p, plan_q)
        total = sum(H[lp - 1, lq - 1] for lp, lq in matching)
        ref = oracles.assignment_min_cost(H)
        if total != ref:
            failures.append(f"draw {draw}: matching cost {total} != optimum {ref}")

        if draw < 50:
            same = match_districts(plan_p, plan_p)
            if any(lp != lq for lp, lq in same):
                failures.append(f"draw {draw}: self-matching is not the identity")
            perm = rng.permutation(D) + 1
            plan_r = RedistrictingPlan(
                plan_id="r", assignment=perm[assign_p - 1].astype(np.int64)
            )
            relabeled = match_districts(plan_p, plan_r)
            H2 = oracles.hamming_matrix(assign_p, plan_r.assignment, D)
            if sum(H2[lp - 1, lq - 1] for lp, lq in relabeled) != 0:
                failures.append(f"draw {draw}: relabeling left a nonzero cost")
    _verdict(capsys, 11, "district-matching-oracle", failures)


# ---------------------------------------------------------------------------
# 12  a one-precinct change localizes to the two affected districts


def test_12_planted_plan_localization(capsys):
    ids, edges, features, population, assign_p, assign_q, _ = (
        oracles.planted_plan_fixture()
    )
    graph = PrecinctGraph(
        precinct_ids=ids,
        adjacency=edges,
        features=features,
        population=population,
        feature_names=tuple(f"v{r}" for r in range(features.shape[1])),
    )
    plan_p = RedistrictingPlan(plan_id="p", assignment=assign_p)
    plan_q = RedistrictingPlan(plan_id="q", assignment=assign_q)
    config = FsFgwConfig(mode="lasso", lam=0.05)
    (comparison,) = compare_plans(graph, [plan_p, plan_q], config)

    failures = []
    affected = {(2, 2), (3, 3)}
    objectives = dict(zip(comparison.matching, comparison.objectives))
    others = [v for pair, v in objectives.items() if pair not in affected]
    threshold = max(1e-8, 10.0 * max(others))
    flagged = {pair for pair, v in objectives.items() if v > threshold}
    if flagged != affected:
        failures.append(f"flagged pairs {sorted(flagged)} != {sorted(affected)}")
    if min(objectives.get(pair, 0.0) for pair in affected) <= 1e-4:
        failures.append(f"affected pairs not clearly nonzero: {objectives}")
    _verdict(capsys, 12, "planted-plan-localization", failures)


# ---------------------------------------------------------------------------
# 13  restarted solves behave like a metric


def test_13_metric_properties(capsys):
    rng = np.random.default_rng(42)
    objects = []
    for _ in range(30):
        n = int(rng.integers(4, 9))
        objects.append(
            StructuredObject(
                C=oracles.random_structure(rng, n),
                a=np.full(n, 1.0 / n),
                X=rng.normal(size=(n, 3)),
            )
        )
    config = FsFgwConfig(mode="lasso", lam=0.1, q=1.0, restarts=3)
    cache: dict[tuple[int, int], float] = {}

    def dist(i: int, j: int) -> float:
        key = (min(i, j), max(i, j))
        if key not in cache:
            cache[key] = solve_fsfgw(objects[key[0]], objects[key[1]], config).objective
        return cache[key]

    failures = []
    for i in range(10):
        self_d = solve_fsfgw(objects[i], objects[i], config).objective
        if self_d > 1e-8:
            failures.append(f"object {i}: self-distance {self_d} > 1e-8")

    for pair in range(50):
        i, j = (int(v) for v in rng.choice(30, size=2, replace=False))
        fwd = solve_fsfgw(objects[i], objects[j], config).objective
        rev = solve_fsfgw(objects[j], objects[i], config).objective
        if abs(fwd - rev) > 1e-6:
            failures.append(f"pair {pair} ({i},{j}): asymmetry {abs(fwd - rev):.3g}")

    violations = 0
    for _ in range(100):
        i, j, k = (int(v) for v in rng.choice(30, size=3, replace=False))
        if dist(i, k) > dist(i, j) + dist(j, k) + 1e-6:
            violations += 1
    if violations > 5:
        failures.append(f"triangle inequality broken in {violations}/100 triples")
    _verdict(capsys, 13, "metric-properties", failures)
