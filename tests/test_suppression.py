"""Closed-form weight updates, level calibration, and the alternating solver."""

import hashlib
import inspect
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fsfgw.core import (
    DimensionMismatch,
    FsFgwConfig,
    InvalidConfig,
    ShapeMismatch,
    StructuredObject,
    SuppressionWeights,
    feature_cost_stack,
    feature_scores,
)
from fsfgw.fgw import FgwProblem, solve_fgw
from fsfgw.suppression import (
    InvalidFraction,
    InvalidPartition,
    calibrate_lambda,
    solve_fsfgw,
    update_weights,
)
from oracles import reduced_objective_g


def make_object(rng, n, d, uniform=True):
    return StructuredObject(
        C=oracles.random_structure(rng, n),
        a=oracles.random_measure(rng, n, uniform=uniform),
        X=rng.normal(0.0, 1.0, (n, d)),
    )


def point_cloud(rng, n, d=4):
    """Uniform points in the unit square with normalized Euclidean
    distances, a uniform measure and Gaussian features."""

    pts = rng.uniform(size=(n, 2))
    C = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return StructuredObject(C=C / C.max(), a=np.full(n, 1.0 / n), X=rng.normal(size=(n, d)))


def dirichlet_cloud(rng, n, d=6):
    """A point cloud as above with a Dirichlet(1) measure."""

    pts = rng.uniform(size=(n, 2))
    C = np.sqrt(((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2))
    return StructuredObject(C=C / C.max(), a=rng.dirichlet(np.ones(n)), X=rng.normal(size=(n, d)))


def update(mode, scores, alpha, lam=0.0, groups=None):
    """The closed-form update, with the mode's invariants checked on the
    returned weights."""

    w = update_weights(mode, np.asarray(scores, dtype=float), alpha, lam, groups)
    return SuppressionWeights(w=w, mode=mode, groups=groups)


class TestLassoUpdate:
    def test_threshold_rule(self):
        out = update("lasso", [4.0, 0.5], 0.5, 1.0)
        assert np.array_equal(out.w, [1.0, 0.0])
        assert out.mode == "lasso"

    def test_boundary_tie_resolves_down(self):
        # (1 - alpha) * 2.0 equals lambda exactly; both choices are optimal
        # and the update keeps the feature.
        out = update("lasso", [2.0], 0.5, 1.0)
        assert np.array_equal(out.w, [0.0])

    def test_zero_lambda_suppresses_positive_scores(self):
        out = update("lasso", [0.3, 0.0, 2.0], 0.5, 0.0)
        assert np.array_equal(out.w, [1.0, 0.0, 1.0])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_minimizes_subproblem(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 8))
        scores = rng.uniform(0.0, 3.0, d)
        alpha = float(rng.uniform(0.0, 1.0))
        lam = float(rng.uniform(0.05, 2.0))
        w = update("lasso", scores, alpha, lam).w
        value = oracles.subproblem_value(w, scores, alpha, lam, "lasso")
        assert value <= oracles.grid_min_subproblem(scores, alpha, lam, "lasso") + 1e-9


class TestRidgeUpdate:
    def test_interior_value(self):
        out = update("ridge", [2.0], 0.5, 2.0)
        assert np.array_equal(out.w, [0.5])
        assert out.mode == "ridge"

    def test_saturation(self):
        out = update("ridge", [4.0], 0.5, 1.0)
        assert np.array_equal(out.w, [1.0])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_minimizes_subproblem(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 8))
        scores = rng.uniform(0.0, 3.0, d)
        alpha = float(rng.uniform(0.0, 1.0))
        lam = float(rng.uniform(0.05, 2.0))
        w = update("ridge", scores, alpha, lam).w
        value = oracles.subproblem_value(w, scores, alpha, lam, "ridge")
        assert value <= oracles.grid_min_subproblem(scores, alpha, lam, "ridge") + 1e-9


class TestSimplexUpdate:
    def test_one_hot_on_largest_score(self):
        out = update("simplex", [0.1, 0.9, 0.3], 0.5)
        assert np.array_equal(out.w, [0.0, 1.0, 0.0])

    def test_ties_resolve_to_lowest_index(self):
        out = update("simplex", [1.0, 1.0, 1.0], 0.5)
        assert np.array_equal(out.w, [1.0, 0.0, 0.0])

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_minimizes_over_vertices(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 8))
        scores = rng.uniform(0.0, 3.0, d)
        alpha = float(rng.uniform(0.0, 1.0))
        w = update("simplex", scores, alpha).w
        value = oracles.subproblem_value(w, scores, alpha, None, "simplex")
        assert value <= oracles.grid_min_subproblem(scores, alpha, None, "simplex") + 1e-12


class TestGroupSimplexUpdate:
    def test_largest_group_mean_wins(self):
        out = update("group_simplex", [1.0, 1.0, 3.0], 0.5, groups=((0, 1), (2,)))
        assert np.array_equal(out.w, [0.0, 0.0, 1.0])
        assert out.groups == ((0, 1), (2,))

    def test_singleton_groups_match_simplex(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            scores = rng.uniform(0.0, 2.0, 5)
            singles = tuple((r,) for r in range(5))
            grouped = update("group_simplex", scores, 0.4, groups=singles)
            plain = update("simplex", scores, 0.4)
            assert np.array_equal(grouped.w, plain.w)

    def test_partition_required_and_checked(self):
        # The configuration checks the partition, and each solve checks it
        # once against the objects' feature count; the update trusts it.
        with pytest.raises(InvalidPartition):
            FsFgwConfig(mode="group_simplex")
        with pytest.raises(InvalidPartition):
            FsFgwConfig(mode="group_simplex", groups=((0, 1), (1,)))
        rng = np.random.default_rng(0)
        x, y = make_object(rng, 4, 2), make_object(rng, 5, 2)
        with pytest.raises(InvalidPartition):
            solve_fsfgw(x, y, FsFgwConfig(mode="group_simplex", groups=((0,),)))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_minimizes_over_group_vertices(self, seed):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 4, size=int(rng.integers(1, 4)))
        groups, start = [], 0
        for s in sizes:
            groups.append(tuple(range(start, start + int(s))))
            start += int(s)
        groups = tuple(groups)
        scores = rng.uniform(0.0, 3.0, start)
        alpha = float(rng.uniform(0.0, 1.0))
        w = update("group_simplex", scores, alpha, groups=groups).w
        value = oracles.subproblem_value(w, scores, alpha, None, "group_simplex", groups)
        ref = oracles.grid_min_subproblem(scores, alpha, None, "group_simplex", groups)
        assert value <= ref + 1e-12


class TestCalibrateLambda:
    def test_decile_example(self):
        scores = np.arange(1.0, 11.0)
        assert calibrate_lambda(scores, alpha=0.5, fraction=0.3) == pytest.approx(3.5)

    def test_single_feature(self):
        assert calibrate_lambda([4.0], alpha=0.25, fraction=0.5) == pytest.approx(3.0)

    def test_equal_scores_suppress_nothing_under_lasso(self):
        scores = np.full(6, 2.0)
        lam = calibrate_lambda(scores, alpha=0.5, fraction=0.5)
        w = update("lasso", scores, 0.5, lam).w
        assert np.array_equal(w, np.zeros(6))

    def test_fraction_range(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(InvalidFraction):
                calibrate_lambda([1.0, 2.0], alpha=0.5, fraction=bad)

    def test_matches_nearest_rank_quantile(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            d = int(rng.integers(1, 30))
            scores = rng.uniform(0.0, 5.0, d)
            f = float(rng.uniform(0.05, 0.95))
            alpha = float(rng.uniform(0.0, 1.0))
            ref = (1.0 - alpha) * oracles.quantile_nearest_rank(scores, 1.0 - f)
            assert calibrate_lambda(scores, alpha, f) == pytest.approx(ref, abs=1e-12)

    def test_suppressed_count_tracks_fraction(self):
        rng = np.random.default_rng(2)
        for d, f in ((10, 0.3), (7, 0.3), (20, 0.45), (13, 0.8)):
            scores = rng.permutation(np.linspace(0.5, 5.0, d))
            lam = calibrate_lambda(scores, alpha=0.5, fraction=f)
            w = update("lasso", scores, 0.5, lam).w
            assert abs(w.sum() - f * d) < 1.0


class TestReducedObjective:
    def test_lasso_example(self):
        assert reduced_objective_g([4.0, 0.5], 0.5, 1.0, "lasso") == pytest.approx(1.25)

    def test_ridge_example(self):
        assert reduced_objective_g([2.0], 0.5, 2.0, "ridge") == pytest.approx(0.75)

    def test_ridge_saturates_at_half_lambda(self):
        assert reduced_objective_g([4.0], 0.5, 1.0, "ridge") == pytest.approx(0.5)

    def test_requires_positive_lambda(self):
        with pytest.raises(InvalidConfig):
            reduced_objective_g([1.0], 0.5, 0.0, "lasso")
        with pytest.raises(InvalidConfig):
            reduced_objective_g([1.0], 0.5, 1.0, "simplex")

    @given(seed=st.integers(0, 10_000), mode=st.sampled_from(["lasso", "ridge"]))
    @settings(max_examples=80, deadline=None)
    def test_equals_subproblem_at_optimal_weights(self, seed, mode):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 8))
        scores = rng.uniform(0.0, 3.0, d)
        alpha = float(rng.uniform(0.0, 0.95))
        lam = float(rng.uniform(0.05, 2.0))
        w = update(mode, scores, alpha, lam).w
        direct = oracles.subproblem_value(w, scores, alpha, lam, mode)
        assert reduced_objective_g(scores, alpha, lam, mode) == pytest.approx(
            direct, abs=1e-10
        )

    def test_zero_lambda_limit_clears_the_feature_term(self):
        scores = np.array([0.4, 1.7, 0.2])
        w = update("lasso", scores, 0.25, 0.0).w
        assert np.array_equal(w, np.ones(3))
        assert float(((1.0 - w) * scores).sum()) == 0.0


class TestSolveFsfgw:
    def test_identical_objects_have_zero_objective(self):
        rng = np.random.default_rng(3)
        x = make_object(rng, 5, 4)
        result = solve_fsfgw(x, x, FsFgwConfig(mode="lasso", lam=0.5))
        assert result.objective <= 1e-8
        assert result.converged

    def test_huge_lambda_recovers_the_unsuppressed_solve(self):
        rng = np.random.default_rng(4)
        x = make_object(rng, 5, 3)
        y = make_object(rng, 4, 3)
        result = solve_fsfgw(x, y, FsFgwConfig(mode="lasso", lam=1e12))
        assert np.array_equal(result.weights.w, np.zeros(3))
        stack = feature_cost_stack(x, y)
        classical = solve_fgw(
            FgwProblem(
                C1=x.C, C2=y.C, alpha=0.5, q=2.0,
                a=x.a, b=y.a,
            ),
            stack.sum(axis=0),
        )
        assert result.objective == pytest.approx(classical.objective, abs=1e-10)
        assert np.array_equal(result.plan.T, classical.T)

    def test_objective_terms_compose(self):
        rng = np.random.default_rng(5)
        x = make_object(rng, 6, 5)
        y = make_object(rng, 5, 5)
        for config in (
            FsFgwConfig(mode="lasso", lam=0.2),
            FsFgwConfig(mode="ridge", suppression_fraction=0.4),
            FsFgwConfig(mode="simplex"),
        ):
            r = solve_fsfgw(x, y, config)
            assert r.objective == pytest.approx(
                r.feature_term + r.gw_term + r.reg_term, abs=1e-12
            )

    def test_trace_is_non_increasing_and_starts_unsuppressed(self):
        rng = np.random.default_rng(6)
        x = make_object(rng, 6, 4)
        y = make_object(rng, 6, 4)
        r = solve_fsfgw(x, y, FsFgwConfig(mode="lasso", suppression_fraction=0.5))
        objs = [t.objective for t in r.trace]
        assert len(objs) == r.outer_iters + 1
        assert r.trace[0].dw == 0.0
        assert all(b <= a + 1e-10 for a, b in zip(objs, objs[1:]))

    def test_iteration_cap_reports_unconverged(self):
        rng = np.random.default_rng(7)
        x = make_object(rng, 5, 6)
        y = make_object(rng, 5, 6)
        r = solve_fsfgw(x, y, FsFgwConfig(mode="lasso", lam=0.01, max_outer_iter=1))
        assert r.outer_iters == 1
        assert not r.converged

    @staticmethod
    def record_fgw_stops(monkeypatch):
        import fsfgw.suppression

        stops = []
        real = fsfgw.suppression.solve_fgw

        def recording(*args, **kwargs):
            solved = real(*args, **kwargs)
            stops.append(solved.stop)
            return solved

        monkeypatch.setattr(fsfgw.suppression, "solve_fgw", recording)
        return stops

    def test_weight_fixed_point_is_not_solved_again(self, monkeypatch):
        # Weights that stay at 0 give the same M_eff, so the outer
        # iteration after the first solve stops without a transport solve.
        stops = self.record_fgw_stops(monkeypatch)
        rng = np.random.default_rng(4)
        x, y = make_object(rng, 5, 3), make_object(rng, 4, 3)
        r = solve_fsfgw(x, y, FsFgwConfig(mode="lasso", lam=1e12))
        assert np.array_equal(r.weights.w, np.zeros(3))
        assert r.converged and r.outer_iters == 1
        assert stops == ["stationary"]
        assert r.trace[1] == (r.trace[0].objective, 0.0)

    def test_capped_solve_is_solved_again(self, monkeypatch):
        # A transport solve stopped by its iteration cap would go on from
        # its last plan, so equal weights after it do not stop the loop.
        import fsfgw.fgw

        monkeypatch.setattr(fsfgw.fgw, "_CG_MAX_ITER", 1)
        stops = self.record_fgw_stops(monkeypatch)
        rng = np.random.default_rng(4)
        x, y = make_object(rng, 5, 3), make_object(rng, 4, 3)
        r = solve_fsfgw(x, y, FsFgwConfig(mode="lasso", lam=1e12))
        assert np.array_equal(r.weights.w, np.zeros(3))
        assert r.converged and r.outer_iters == 1
        assert stops == ["cap", "stationary"]

    def test_singleton_groups_match_simplex_mode(self):
        rng = np.random.default_rng(8)
        x = make_object(rng, 5, 3)
        y = make_object(rng, 4, 3)
        grouped = solve_fsfgw(
            x, y, FsFgwConfig(mode="group_simplex", groups=((0,), (1,), (2,)))
        )
        plain = solve_fsfgw(x, y, FsFgwConfig(mode="simplex"))
        assert grouped.objective == pytest.approx(plain.objective, abs=1e-12)
        assert np.array_equal(grouped.weights.w, plain.weights.w)

    def test_calibrated_level_comes_from_the_initial_plan(self):
        rng = np.random.default_rng(9)
        x = make_object(rng, 5, 6)
        y = make_object(rng, 6, 6)
        config = FsFgwConfig(mode="ridge", suppression_fraction=0.25)
        r = solve_fsfgw(x, y, config)
        stack = feature_cost_stack(x, y)
        t0 = solve_fgw(
            FgwProblem(
                C1=x.C, C2=y.C, alpha=0.5, q=2.0,
                a=x.a, b=y.a,
            ),
            stack.sum(axis=0),
        )
        expected = calibrate_lambda(feature_scores(t0.T, stack), 0.5, 0.25)
        assert r.lambda_used == pytest.approx(expected, abs=1e-12)

    def test_group_scores_are_averaged_in_the_objective(self):
        # With every feature in one group, the feature term is the mean
        # score, not the sum: check against a manual evaluation.
        rng = np.random.default_rng(10)
        x = make_object(rng, 4, 4)
        y = make_object(rng, 4, 4)
        r = solve_fsfgw(
            x, y, FsFgwConfig(mode="group_simplex", groups=((0, 1), (2, 3)))
        )
        stack = feature_cost_stack(x, y)
        scores = feature_scores(r.plan.T, stack)
        inv = np.array([0.5, 0.5, 0.5, 0.5])
        manual = 0.5 * float(((1.0 - r.weights.w) * inv * scores).sum())
        assert r.feature_term == pytest.approx(manual, abs=1e-12)

    def test_restarts_never_worsen_the_objective(self):
        rng = np.random.default_rng(11)
        x = make_object(rng, 6, 4)
        y = make_object(rng, 5, 4)
        base = solve_fsfgw(x, y, FsFgwConfig(mode="lasso", lam=0.1))
        multi = solve_fsfgw(x, y, FsFgwConfig(mode="lasso", lam=0.1, restarts=3))
        assert multi.objective <= base.objective

    def test_restarts_keep_argument_symmetry(self):
        rng = np.random.default_rng(12)
        x = make_object(rng, 6, 3, uniform=False)
        y = make_object(rng, 4, 3, uniform=False)
        config = FsFgwConfig(mode="lasso", lam=0.1, restarts=3)
        fwd = solve_fsfgw(x, y, config)
        rev = solve_fsfgw(y, x, config)
        assert abs(fwd.objective - rev.objective) <= 1e-12
        assert np.allclose(fwd.weights.w, rev.weights.w, atol=1e-9)

    @pytest.mark.parametrize(
        "config",
        [
            FsFgwConfig(mode="lasso", suppression_fraction=0.3, restarts=2),
            FsFgwConfig(mode="ridge", suppression_fraction=0.3, restarts=2),
            FsFgwConfig(mode="simplex", restarts=2),
            FsFgwConfig(mode="group_simplex", groups=((0, 1), (2, 3), (4, 5)), restarts=2),
        ],
        ids=lambda config: config.mode,
    )
    def test_swapped_arguments_give_the_same_bits(self, config):
        # Calibration puts the level exactly on one feature's scaled score,
        # so a score that rounds differently in the other orientation can
        # flip the lasso threshold: every pair must be solved one way.
        rng = np.random.default_rng(16)
        for pair in range(30):
            n, m = (int(k) for k in rng.integers(12, 25, size=2))
            x, y = dirichlet_cloud(rng, n), dirichlet_cloud(rng, m)
            fwd, rev = solve_fsfgw(x, y, config), solve_fsfgw(y, x, config)
            assert np.array_equal(fwd.plan.T, rev.plan.T.T), pair
            assert (fwd.objective, fwd.feature_term, fwd.gw_term, fwd.reg_term) == (
                rev.objective, rev.feature_term, rev.gw_term, rev.reg_term
            ), pair
            assert np.array_equal(fwd.weights.w, rev.weights.w), pair
            assert np.array_equal(fwd.scores, rev.scores), pair
            assert fwd.lambda_used == rev.lambda_used, pair
            assert fwd.trace == rev.trace, pair

    def test_solve_does_not_depend_on_earlier_solves(self):
        # The LP basis never outlives one alternating solve, so a solve is a
        # function of (x, y, config) whatever ran before it.
        rng = np.random.default_rng(14)
        x, y, z = (make_object(rng, n, 3, uniform=False) for n in (7, 6, 7))
        config = FsFgwConfig(mode="lasso", lam=0.1, restarts=2)
        first = solve_fsfgw(x, y, config)
        solve_fsfgw(z, y, config)
        solve_fsfgw(x, z, config)
        again = solve_fsfgw(x, y, config)
        assert np.array_equal(first.plan.T, again.plan.T)
        assert first.objective == again.objective
        assert first.trace == again.trace

    def test_restarts_reuse_the_first_solves_level(self, monkeypatch):
        # On this pair a restart that calibrated its own level from its own
        # initial scores would win with a different level, so "lowest
        # objective wins" would compare different problems.
        import fsfgw.suppression

        rng = np.random.default_rng(3)
        x, y = point_cloud(rng, 12), point_cloud(rng, 10)
        config = FsFgwConfig(mode="lasso", suppression_fraction=0.3, q=1.0)
        plain = solve_fsfgw(x, y, config)

        real = fsfgw.suppression._solve_once
        levels = []

        def recording(*args, **kwargs):
            given = inspect.signature(real).bind(*args, **kwargs).arguments.get("lam")
            result = real(*args, **kwargs)
            levels.append((given, result.lambda_used))
            return result

        monkeypatch.setattr(fsfgw.suppression, "_solve_once", recording)
        multi = solve_fsfgw(x, y, replace(config, restarts=3))
        assert multi.lambda_used == plain.lambda_used
        assert len(levels) == 4
        assert levels[0] == (None, plain.lambda_used)
        assert all(pair == (plain.lambda_used,) * 2 for pair in levels[1:])

    @pytest.mark.parametrize(
        "seed, config, n, m, uniform, digest",
        [
            (40, FsFgwConfig(mode="lasso", lam=0.15, q=1.0), 7, 6, True, "a552355b54495d46"),
            (41, FsFgwConfig(mode="ridge", lam=0.3, q=1.5, restarts=1), 8, 6, False,
             "18dfce53b2f9e4cf"),
            (42, FsFgwConfig(mode="simplex", q=1.0, restarts=2), 6, 7, False,
             "fe144a1fc1168afc"),
            (43, FsFgwConfig(mode="group_simplex", groups=((0, 2), (1, 3)), q=1.5), 7, 7,
             True, "82aed38f6b5e7677"),
            (44, FsFgwConfig(mode="lasso", lam=0.08, q=1.5, restarts=2, alpha=0.3), 9, 7,
             False, "048d76c44fd1e69a"),
            (45, FsFgwConfig(mode="ridge", lam=0.2, q=1.0, seed=5, restarts=1), 6, 8, True,
             "6d958899c39c91dc"),
        ],
    )
    def test_pinned_solve_outputs(self, seed, config, n, m, uniform, digest):
        """The plan, weights, scores and trace of a solve at a fixed level,
        pinned bit for bit to recorded values.  At q != 2 these sizes fit
        the support block in one piece, applied by einsum, so the digests do
        not depend on BLAS threading."""
        rng = np.random.default_rng(seed)
        x, y = make_object(rng, n, 4, uniform), make_object(rng, m, 4, uniform)
        r = solve_fsfgw(x, y, config)
        h = hashlib.sha256()
        for arr in (r.plan.T, r.weights.w, r.scores, np.array(r.trace)):
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        assert h.hexdigest()[:16] == digest

    def test_pair_is_validated_once(self, monkeypatch):
        import fsfgw.core
        import fsfgw.suppression

        calls = []
        real = fsfgw.core.validate_pair

        def counting(x, y):
            calls.append(1)
            return real(x, y)

        monkeypatch.setattr(fsfgw.core, "validate_pair", counting)
        monkeypatch.setattr(fsfgw.suppression, "validate_pair", counting, raising=False)
        rng = np.random.default_rng(15)
        x, y = make_object(rng, 5, 3), make_object(rng, 4, 3)
        solve_fsfgw(x, y, FsFgwConfig(mode="lasso", lam=0.1, restarts=1))
        assert len(calls) == 1

    def test_invalid_pair_is_rejected_in_the_callers_order(self):
        # The larger object comes second in the canonical orientation, so a
        # pair that were swapped before it is checked would name its
        # feature counts the other way round.
        rng = np.random.default_rng(17)
        small, large = make_object(rng, 4, 3), make_object(rng, 6, 2)
        config = FsFgwConfig(mode="lasso", lam=0.1)
        for x, y, counts in ((small, large, "3 vs 2"), (large, small, "2 vs 3")):
            with pytest.raises(DimensionMismatch, match=f"^feature counts differ: {counts}$"):
                solve_fsfgw(x, y, config)
        message = "^validate_pair expects two StructuredObject instances$"
        for x, y in ((small, "object"), ("object", small)):
            with pytest.raises(ShapeMismatch, match=message):
                solve_fsfgw(x, y, config)

    def test_fixed_problem_checked_once_and_plans_once_per_solve(self, monkeypatch):
        # Inner LP and CG results travel as arrays: the only checked plan
        # is the one each alternating solve returns.
        import fsfgw.core
        import fsfgw.fgw

        counts = {"problem": 0, "plan": 0}
        for key, cls in (("problem", fsfgw.fgw.FgwProblem), ("plan", fsfgw.core.TransportPlan)):
            real = cls.__post_init__

            def counting(self, _real=real, _key=key):
                counts[_key] += 1
                _real(self)

            monkeypatch.setattr(cls, "__post_init__", counting)
        rng = np.random.default_rng(15)
        x, y = make_object(rng, 5, 3), make_object(rng, 4, 3)
        restarts = 1
        result = solve_fsfgw(x, y, FsFgwConfig(mode="lasso", lam=0.1, restarts=restarts))
        assert result.outer_iters >= 1
        assert counts == {"problem": 1, "plan": 1 + restarts}

    @pytest.mark.parametrize("restarts", [0, 2])
    def test_partition_checked_once_and_weights_once_per_solve(self, monkeypatch, restarts):
        # Weight updates return arrays: the partition is checked against the
        # feature count once, and again only by each returned result.
        import fsfgw.core
        import fsfgw.suppression

        config = FsFgwConfig(
            mode="group_simplex", groups=((0, 2), (1,)), max_outer_iter=2, restarts=restarts
        )
        counts = {"partition": 0, "weights": 0}
        real_check = fsfgw.core.check_partition

        def counting_check(*args, **kwargs):
            counts["partition"] += 1
            return real_check(*args, **kwargs)

        real_init = SuppressionWeights.__post_init__

        def counting_init(self):
            counts["weights"] += 1
            real_init(self)

        monkeypatch.setattr(fsfgw.core, "check_partition", counting_check)
        monkeypatch.setattr(fsfgw.suppression, "check_partition", counting_check)
        monkeypatch.setattr(SuppressionWeights, "__post_init__", counting_init)
        rng = np.random.default_rng(16)
        x, y = make_object(rng, 5, 3), make_object(rng, 6, 3)
        result = solve_fsfgw(x, y, config)
        assert result.outer_iters == 2
        assert counts == {"partition": 2 + restarts, "weights": 1 + restarts}

    def test_result_serializes_with_the_level_key(self):
        rng = np.random.default_rng(13)
        x = make_object(rng, 4, 3)
        r = solve_fsfgw(x, x, FsFgwConfig(mode="lasso", lam=0.5))
        payload = json.loads(json.dumps(r.to_json_dict()))
        assert payload["lambda"] == 0.5
        assert payload["converged"] is True
        assert len(payload["weights"]) == 3
        assert len(payload["trace"]) == len(r.trace)
