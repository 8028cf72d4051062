"""Structure-distortion quartic form and the conditional-gradient solver."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fsfgw.core import (
    FsFgwConfig,
    InvalidConfig,
    ShapeMismatch,
    StructuredObject,
    feature_cost_stack,
)
import fsfgw.fgw
from fsfgw.fgw import (
    FgwProblem,
    InstanceTooLarge,
    _k,
    gw_gradient,
    gw_value,
    solve_fgw,
)
from fsfgw.suppression import solve_fsfgw
from fsfgw.transport import solve_emd
from oracles import fgw_objective

def random_problem(rng, n, m, alpha=0.5, q=2.0):
    """A random problem and feature cost, drawn in the order C1, C2,
    M_eff, a, b."""

    C1 = oracles.random_structure(rng, n)
    C2 = oracles.random_structure(rng, m)
    M_eff = rng.uniform(0.0, 1.0, (n, m))
    problem = FgwProblem(
        C1=C1,
        C2=C2,
        alpha=alpha,
        q=q,
        a=oracles.random_measure(rng, n),
        b=oracles.random_measure(rng, m),
    )
    return problem, M_eff


class TestGwValue:
    def test_identity_coupling_on_matched_structures(self):
        rng = np.random.default_rng(0)
        C = oracles.random_structure(rng, 5)
        T = np.eye(5) / 5.0
        # The direct summation is exactly zero; the factorized route may
        # keep one ulp of cancellation residue.
        assert gw_value(T, C, C, q=1.0) == 0.0
        assert gw_value(T, C, C, q=2.0) == pytest.approx(0.0, abs=1e-12)

    def test_two_by_two_uniform_plan(self):
        """Frozen from the 4-index summation: the flat structure contributes
        nothing, and the unit off-diagonal entries of C1 pair every row sum
        with every other, giving sum(C1**2) * 0.25 = 0.5."""
        C1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        C2 = np.zeros((2, 2))
        T = np.full((2, 2), 0.25)
        expected = oracles.gw_quadruple(T, C1, C2, q=2.0)
        assert expected == pytest.approx(0.5, abs=1e-15)
        assert gw_value(T, C1, C2, q=2.0) == pytest.approx(0.5, abs=1e-12)

    def test_factorized_matches_quadruple_sum(self):
        rng = np.random.default_rng(1)
        C1 = oracles.random_structure(rng, 5)
        C2 = oracles.random_structure(rng, 6)
        T = oracles.ipf_coupling(
            oracles.random_measure(rng, 5), oracles.random_measure(rng, 6), rng
        )
        ref = oracles.gw_quadruple(T, C1, C2, q=2.0)
        assert gw_value(T, C1, C2, q=2.0) == pytest.approx(ref, abs=1e-10)

    def test_direct_contraction_matches_quadruple_sum(self):
        rng = np.random.default_rng(2)
        C1 = oracles.random_structure(rng, 4)
        C2 = oracles.random_structure(rng, 5)
        T = oracles.ipf_coupling(
            oracles.random_measure(rng, 4), oracles.random_measure(rng, 5), rng
        )
        for q in (1.0, 1.5, 3.0):
            ref = oracles.gw_quadruple(T, C1, C2, q=q)
            assert gw_value(T, C1, C2, q=q) == pytest.approx(ref, abs=1e-10)

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=40, deadline=None)
    def test_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        C1 = oracles.random_structure(rng, n)
        C2 = oracles.random_structure(rng, m)
        T = oracles.ipf_coupling(
            oracles.random_measure(rng, n), oracles.random_measure(rng, m), rng
        )
        assert gw_value(T, C1, C2, q=2.0) >= 0.0

    def test_size_cap_for_direct_contraction(self):
        n = 101
        T = np.eye(n) / n
        C = np.zeros((n, n))
        with pytest.raises(InstanceTooLarge):
            gw_value(T, C, C, q=1.0)
        # The factorized q=2 route has no such cap.
        assert gw_value(T, C, C, q=2.0) == 0.0
        with pytest.raises(InstanceTooLarge):
            gw_gradient(T, C, C, q=1.0)

    def test_problem_checks_the_size_cap_when_built(self):
        n = 101  # n * m = 10,201
        C, a = np.zeros((n, n)), np.full(n, 1.0 / n)
        with pytest.raises(InstanceTooLarge):
            FgwProblem(C1=C, C2=C, alpha=0.5, q=1.0, a=a, b=a)
        assert FgwProblem(C1=C, C2=C, alpha=0.5, q=2.0, a=a, b=a).q == 2.0

    def test_direct_contraction_memory_is_bounded(self):
        # At n = m = 60 the (n, m, n, m) difference tensor would take
        # 104 MB in one piece.  One reused piece of at most 2**17 doubles
        # (1 MiB), the two tiles it is filled from (at most 1 MiB each),
        # and the small inputs and outputs must stay under 4 MB.
        n = 60
        rng = np.random.default_rng(11)
        C1 = oracles.random_structure(rng, n)
        C2 = oracles.random_structure(rng, n)
        T = np.full((n, n), 1.0 / n**2)
        tracemalloc.start()
        try:
            G = gw_gradient(T, C1, C2, q=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        # Cells from the first, a middle and the last piece, summed directly.
        for i, j in ((0, 0), (19, 7), (38, 59), (59, 30)):
            cell = 2.0 * np.sum(np.abs(C1[i][:, None] - C2[j][None, :]) * T)
            assert G[i, j] == pytest.approx(cell, rel=1e-12)

    def test_thin_contraction_memory_is_bounded(self):
        # At n = 2, m = 2000 one row of the difference tensor holds
        # n * m * m = 8e6 doubles (64 MB); pieces over columns of C2 keep
        # every piece, and the tile of C2 it is filled from, at most 2**17
        # doubles.
        n, m = 2, 2000
        rng = np.random.default_rng(12)
        C1 = oracles.random_structure(rng, n)
        C2 = oracles.random_structure(rng, m)
        T = rng.uniform(size=(n, m))
        T /= T.sum()
        tracemalloc.start()
        try:
            G = gw_gradient(T, C1, C2, q=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        # The unblocked contraction, one full row at a time.
        for i in range(n):
            row = np.einsum("jkl,kl->j", np.abs(C1[i, None, :, None] - C2[:, None, :]), T)
            np.testing.assert_allclose(G[i], 2.0 * row, rtol=1e-12, atol=0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            gw_value(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros((2, 2)))


class TestGwGradient:
    def test_zero_plan_gives_zero_gradient(self):
        rng = np.random.default_rng(3)
        C1 = oracles.random_structure(rng, 3)
        C2 = oracles.random_structure(rng, 4)
        for q in (1.0, 2.0):
            assert np.allclose(gw_gradient(np.zeros((3, 4)), C1, C2, q=q), 0.0)

    def test_matches_quadruple_gradient(self):
        rng = np.random.default_rng(4)
        C1 = oracles.random_structure(rng, 4)
        C2 = oracles.random_structure(rng, 4)
        T = oracles.ipf_coupling(
            oracles.random_measure(rng, 4), oracles.random_measure(rng, 4), rng
        )
        for q in (1.0, 2.0):
            ref = oracles.gw_gradient_quadruple(T, C1, C2, q=q)
            assert np.allclose(gw_gradient(T, C1, C2, q=q), ref, atol=1e-10)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for q, n, m in ((2.0, 3, 3), (1.0, 4, 4)):
            C1 = oracles.random_structure(rng, n)
            C2 = oracles.random_structure(rng, m)
            T = oracles.ipf_coupling(
                oracles.random_measure(rng, n), oracles.random_measure(rng, m), rng
            )
            grad = gw_gradient(T, C1, C2, q=q)
            fd = oracles.finite_difference_gradient(
                lambda M: oracles.gw_quadruple(M, C1, C2, q=q), T
            )
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(grad - fd).max() / scale < 1e-5

    def test_factorized_matches_direct_at_q2(self):
        rng = np.random.default_rng(6)
        C1 = oracles.random_structure(rng, 5)
        C2 = oracles.random_structure(rng, 3)
        T = oracles.ipf_coupling(
            oracles.random_measure(rng, 5), oracles.random_measure(rng, 3), rng
        )
        direct = 2.0 * np.array(
            [
                [
                    sum(
                        abs(C1[i, i2] - C2[j, j2]) ** 2 * T[i2, j2]
                        for i2 in range(5)
                        for j2 in range(3)
                    )
                    for j in range(3)
                ]
                for i in range(5)
            ]
        )
        assert np.allclose(gw_gradient(T, C1, C2, q=2.0), direct, atol=1e-10)


class TestFgwObjective:
    def test_alpha_extremes(self):
        rng = np.random.default_rng(7)
        prob1, M = random_problem(rng, 4, 5, alpha=1.0)
        T = oracles.ipf_coupling(prob1.a, prob1.b, rng)
        assert fgw_objective(T, prob1, M) == pytest.approx(
            gw_value(T, prob1.C1, prob1.C2), abs=1e-12
        )
        prob0 = FgwProblem(
            C1=prob1.C1, C2=prob1.C2, alpha=0.0, q=2.0,
            a=prob1.a, b=prob1.b,
        )
        assert fgw_objective(T, prob0, M) == pytest.approx(
            float((M * T).sum()), abs=1e-12
        )

    def test_composition(self):
        rng = np.random.default_rng(8)
        prob, M = random_problem(rng, 3, 4, alpha=0.3)
        T = oracles.ipf_coupling(prob.a, prob.b, rng)
        feature = float((M * T).sum())
        structure = gw_value(T, prob.C1, prob.C2)
        assert fgw_objective(T, prob, M) == pytest.approx(
            0.7 * feature + 0.3 * structure, abs=1e-12
        )

    def test_problem_validation(self):
        with pytest.raises(ShapeMismatch):
            solve_fgw(
                FgwProblem(
                    C1=np.zeros((3, 3)), C2=np.zeros((2, 2)),
                    alpha=0.5, q=2.0, a=np.full(3, 1 / 3), b=np.full(2, 0.5),
                ),
                np.zeros((2, 2)),
            )
        with pytest.raises(InvalidConfig):
            FgwProblem(
                C1=np.zeros((2, 2)), C2=np.zeros((2, 2)),
                alpha=1.5, q=2.0, a=np.full(2, 0.5), b=np.full(2, 0.5),
            )

    @pytest.mark.parametrize("q", [np.nan, np.inf, 0.5])
    def test_q_must_be_finite_and_at_least_one(self, q):
        C, a, T = np.array([[0.0, 1.0], [1.0, 0.0]]), np.full(2, 0.5), np.eye(2) / 2
        with pytest.raises(InvalidConfig, match="q must be finite and >= 1"):
            FgwProblem(C1=C, C2=C, alpha=0.5, q=q, a=a, b=a)
        for apply in (gw_value, gw_gradient):
            with pytest.raises(InvalidConfig, match="q must be finite and >= 1"):
                apply(T, C, C, q)


class TestSolveFgw:
    def test_identical_objects_reach_zero(self):
        rng = np.random.default_rng(9)
        obj = StructuredObject(
            C=oracles.random_structure(rng, 4),
            a=np.full(4, 0.25),
            X=rng.normal(size=(4, 3)),
        )
        stack = feature_cost_stack(obj, obj)
        prob = FgwProblem(
            C1=obj.C, C2=obj.C, alpha=0.5, q=2.0,
            a=obj.a, b=obj.a,
        )
        assert solve_fgw(prob, stack.sum(axis=0)).objective <= 1e-8

    def test_alpha_one_ignores_features(self):
        rng = np.random.default_rng(10)
        base, M = random_problem(rng, 4, 4, alpha=1.0)
        other = FgwProblem(
            C1=base.C1, C2=base.C2,
            alpha=1.0, q=2.0, a=base.a, b=base.b,
        )
        s1 = solve_fgw(base, M)
        s2 = solve_fgw(other, rng.uniform(5.0, 9.0, (4, 4)))
        assert s1.objective == s2.objective
        assert np.array_equal(s1.T, s2.T)

    def test_beats_grid_on_two_by_two(self):
        """U(a, b) for n=m=2 is the segment T(t) = [[t, a1-t], [b1-t, ...]]
        with t in [max(0, a1+b1-1), min(a1, b1)]; sample it densely."""
        rng = np.random.default_rng(11)
        for _ in range(10):
            prob, M = random_problem(rng, 2, 2, alpha=float(rng.uniform(0.1, 0.9)))
            sol = solve_fgw(prob, M)
            a1, b1 = prob.a[0], prob.b[0]
            lo, hi = max(0.0, a1 + b1 - 1.0), min(a1, b1)
            best = np.inf
            for t in np.linspace(lo, hi, 2500):
                T = np.array([[t, a1 - t], [b1 - t, 1.0 - a1 - b1 + t]])
                best = min(best, fgw_objective(T, prob, M))
            assert sol.objective <= best + 1e-6

    def test_warm_start_of_converged_plan_is_identity(self):
        rng = np.random.default_rng(12)
        prob, M = random_problem(rng, 5, 4)
        first = solve_fgw(prob, M)
        again = solve_fgw(prob, M, init=first.T)
        assert np.array_equal(again.T, first.T)
        assert again.objective <= first.objective + 1e-12

    def test_trace_is_non_increasing(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            prob, M = random_problem(rng, 6, 5, alpha=float(rng.uniform(0.2, 0.8)))
            sol = solve_fgw(prob, M)
            oracles.assert_coupling(sol.T, prob.a, prob.b)
            trace = sol.trace
            assert len(trace) >= 1
            assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_armijo_route_for_general_exponent(self):
        rng = np.random.default_rng(14)
        prob, M = random_problem(rng, 4, 4, q=1.5)
        sol = solve_fgw(prob, M)
        init_obj = fgw_objective(np.outer(prob.a, prob.b), prob, M)
        assert sol.objective <= init_obj + 1e-12

    def test_bad_warm_start_shape(self):
        rng = np.random.default_rng(15)
        prob, M = random_problem(rng, 3, 3)
        with pytest.raises(ShapeMismatch):
            solve_fgw(prob, M, init=np.full((2, 2), 0.25))

    def test_lp_pivots_sum_the_lp_iterations(self, monkeypatch):
        pivots = []
        real = fsfgw.fgw.solve_emd

        def counting(*args, **kwargs):
            sol = real(*args, **kwargs)
            pivots.append(sol.iterations)
            return sol

        monkeypatch.setattr(fsfgw.fgw, "solve_emd", counting)
        sol = solve_fgw(*random_problem(np.random.default_rng(16), 9, 7))
        assert sol.lp_pivots == sum(pivots) > 0
        assert sol.basis is not None

    def test_warm_basis_saves_pivots_on_an_outer_step(self):
        # An outer step of the alternating solve changes only the feature
        # cost, so the last LP basis stays feasible for the next solve.
        rng = np.random.default_rng(17)
        prob, M = random_problem(rng, 20, 24)
        first = solve_fgw(prob, M)
        shrink = rng.uniform(0.5, 1.0, M.shape)
        step = M * shrink
        cold = solve_fgw(prob, step, first.T)
        warm = solve_fgw(prob, step, first.T, basis=first.basis)
        assert warm.lp_pivots < cold.lp_pivots
        oracles.assert_coupling(warm.T, prob.a, prob.b)
        start = fgw_objective(first.T, prob, step)
        assert max(warm.objective, cold.objective) <= start + 1e-12


class TestLinearOperator:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(1, 7),
        m=st.integers(1, 7),
        q=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        gamma=st.floats(0.0, 1.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_objective_is_exactly_quadratic_along_a_step(self, seed, n, m, q, gamma):
        # GW is the quadratic form of a linear operator with a symmetric
        # kernel, so the objective along T + gamma D has no cubic or
        # higher term, whatever q is.
        rng = np.random.default_rng(seed)
        prob, M = random_problem(rng, n, m, alpha=float(rng.uniform()), q=q)
        T = oracles.ipf_coupling(prob.a, prob.b, rng)
        D = oracles.ipf_coupling(prob.a, prob.b, rng) - T
        grad = (1.0 - prob.alpha) * M + prob.alpha * gw_gradient(
            T, prob.C1, prob.C2, q
        )
        quad = 0.5 * prob.alpha * float(np.sum(gw_gradient(D, prob.C1, prob.C2, q) * D))
        expected = fgw_objective(T, prob, M) + gamma * float(np.sum(grad * D)) + gamma**2 * quad
        assert fgw_objective(T + gamma * D, prob, M) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("q", [1.0, 2.0])
    def test_one_operator_call_per_line_search(self, monkeypatch, q):
        # K is applied to a dense plan once, for the starting gradient, and
        # once per reached line search: to the direction D through
        # gw_gradient at q = 2, to the LP vertex otherwise.  gw_gradient
        # applies K through _k too.
        calls = {"gw_gradient": 0, "gw_value": 0, "_k": 0}
        lps = []
        for name in calls:
            real = getattr(fsfgw.fgw, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(fsfgw.fgw, name, counting)
        real_emd = fsfgw.fgw.solve_emd

        def recording(cost, *args, **kwargs):
            sol = real_emd(cost, *args, **kwargs)
            lps.append((cost, sol.T))
            return sol

        monkeypatch.setattr(fsfgw.fgw, "solve_emd", recording)
        prob, M = random_problem(np.random.default_rng(20), 8, 7, alpha=0.8, q=q)
        sol = solve_fgw(prob, M)
        counted = dict(calls)
        assert sol.cg_iters >= 3 and len(lps) < 200
        # Every LP but the last led to an accepted step; the last reached
        # the line search unless its vertex was stationary.
        cost, vertex = lps[-1]
        reached = len(lps) - 1 + (float(np.sum(cost * (vertex - sol.T))) < 0.0)
        if q == 2.0:
            assert counted == {"gw_gradient": 1 + reached, "gw_value": 0, "_k": 1 + reached}
        else:
            assert counted == {"gw_gradient": 1, "gw_value": 0, "_k": 1 + reached}
        assert sol.objective == pytest.approx(fgw_objective(sol.T, prob, M), rel=1e-12)
        assert all(b < a for a, b in zip(sol.trace, sol.trace[1:]))

    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0])
    def test_carried_gradient_continues_the_solve(self, monkeypatch, q):
        # FgwSolve.G is 2 K(T) up to rounding, and passing it back with its
        # plan and basis starts the next solve without a dense evaluation.
        prob, M = random_problem(np.random.default_rng(24), 9, 8, q=q)
        first = solve_fgw(prob, M)
        assert first.stop in ("stationary", "no step", "tol")
        fresh = gw_gradient(first.T, prob.C1, prob.C2, q)
        np.testing.assert_allclose(first.G, fresh, rtol=0.0, atol=1e-12)
        assert not first.G.flags.writeable
        calls = []
        real = fsfgw.fgw.gw_gradient
        monkeypatch.setattr(fsfgw.fgw, "gw_gradient",
                            lambda *args: calls.append(1) or real(*args))
        again = solve_fgw(prob, M, first.T, first.basis, first.G)
        assert np.array_equal(again.T, first.T) and again.cg_iters == 0
        assert np.array_equal(again.G, first.G) and again.stop == first.stop
        assert calls == []
        with pytest.raises(ShapeMismatch):
            solve_fgw(prob, M, first.T, first.basis, first.G.T)

    def test_iteration_cap_is_a_stop_reason(self, monkeypatch):
        monkeypatch.setattr(fsfgw.fgw, "_CG_MAX_ITER", 2)
        sol = solve_fgw(*random_problem(np.random.default_rng(20), 8, 7, alpha=0.8, q=1.0))
        assert (sol.stop, sol.cg_iters, len(sol.trace)) == ("cap", 2, 3)


def point_cloud(rng, n, d=3):
    return StructuredObject(
        C=oracles.random_structure(rng, n), a=oracles.random_measure(rng, n),
        X=rng.normal(size=(n, d)),
    )


class TestStructureOperator:
    """K for fixed (C1, C2, q), dense and on a plan's nonzeros."""

    @pytest.mark.parametrize("q", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("n, m", [(24, 24), (32, 28), (32, 32), (50, 45)])
    def test_equals_the_blocked_contraction(self, n, m, q):
        # K works in 1 MiB pieces; every cell is the same einsum
        # reduction as over the whole (n, m, n, m) block.
        rng = np.random.default_rng(n * m)
        C1 = oracles.random_structure(rng, n)
        C2 = oracles.random_structure(rng, m)
        T = rng.normal(size=(n, m))  # any real matrix, as a CG direction
        block = np.abs(C1[:, None, :, None] - C2[None, :, None, :]) ** q
        assert np.array_equal(gw_gradient(T, C1, C2, q) / 2.0,
                              np.einsum("bjkl,kl->bj", block, T))

    @pytest.mark.parametrize("q", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("n, m", [(60, 70), (2, 300)])
    def test_column_blocked_contraction_equals_whole_rows(self, n, m, q):
        # One row of the block holds n * m * m > 2**17 doubles, so K is
        # also applied over pieces of C2's columns, filled from
        # tiles; each output row is the same einsum reduction as over that
        # whole row of the (n, m, n, m) block.
        assert n * m * m > 2**17
        rng = np.random.default_rng(n + m)
        C1 = oracles.random_structure(rng, n)
        C2 = oracles.random_structure(rng, m)
        T = rng.normal(size=(n, m))
        K = gw_gradient(T, C1, C2, q) / 2.0
        for i in range(n):
            row = np.abs(C1[i, None, None, :, None] - C2[None, :, None, :]) ** q
            assert np.array_equal(K[i], np.einsum("bjkl,kl->bj", row, T)[0])

    @pytest.mark.parametrize("q", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("route", ["simplex", "assignment"])
    def test_sparse_equals_dense_on_an_lp_vertex(self, q, route):
        # On an LP vertex K is the einsum over the whole support block
        # |C1[:, rows] - C2[:, cols]|^q, gathered C-contiguous, bit for bit,
        # and the dense definition up to rounding.
        rng = np.random.default_rng(25)
        n = m = 9
        if route == "simplex":
            a, b = oracles.random_measure(rng, n), oracles.random_measure(rng, m)
        else:
            a, b = np.full(n, 1.0 / n), np.full(m, 1.0 / m)
        lp = solve_emd(rng.uniform(size=(n, m)), a, b)
        assert (lp.basis is None) == (route == "assignment")
        rows, cols = np.nonzero(lp.T)
        C1, C2 = oracles.random_structure(rng, n), oracles.random_structure(rng, m)
        K = _k(lp.T, C1, C2, q)
        block = np.abs(np.take(C1, rows, axis=1)[:, None, :]
                       - np.take(C2, cols, axis=1)[None, :, :]) ** q
        assert block.flags.c_contiguous
        assert np.array_equal(K, np.einsum("ijs,s->ij", block, lp.T[rows, cols]))
        dense = oracles.gw_gradient_quadruple(lp.T, C1, C2, q=q) / 2.0
        np.testing.assert_allclose(K, dense, rtol=0.0, atol=1e-12)

    def test_sparse_memory_is_bounded(self):
        # K's 1 MiB pieces, each filled from tiles of at most 1 MiB, keep
        # each call under 4 MB.  At n = 2, m = 2000 the 2001 entries of a
        # vertex would take an (n, m, 2001) support block of 64 MB.
        n, m = 2, 2000
        rng = np.random.default_rng(26)
        a, b = oracles.random_measure(rng, n), oracles.random_measure(rng, m)
        lp = solve_emd(np.zeros((n, m)), a, b)
        rows, cols = np.nonzero(lp.T)
        C1, C2 = oracles.random_structure(rng, n), oracles.random_structure(rng, m)
        tracemalloc.start()
        try:
            K = _k(lp.T, C1, C2, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        # Each row of K is the same einsum reduction as over that whole
        # row of the support block.
        for i in range(n):
            row = np.abs(C1[i, rows] - np.take(C2, cols, axis=1))
            assert np.array_equal(K[i], np.einsum("js,s->j", row, lp.T[rows, cols]))
        # gw_value of a dense 100 x 100 plan at q = 1 applies K to all
        # 10,000 entries, whose support block would take 800 MB.
        n = 100
        C1, C2 = oracles.random_structure(rng, n), oracles.random_structure(rng, n)
        T = rng.uniform(0.5, 1.0, (n, n))
        T /= T.sum()
        tracemalloc.start()
        try:
            value = gw_value(T, C1, C2, q=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6
        # <K(T), T>, summed one row of the (n, m, n, m) block at a time.
        K = [np.einsum("jkl,kl->j", np.abs(C1[i, None, :, None] - C2[:, None, :]), T)
             for i in range(n)]
        assert value == pytest.approx(float(np.sum(np.array(K) * T)), rel=1e-12)

    def test_alternating_solve_memory_is_bounded(self):
        # At n = m = 45 and q = 1 the whole difference block would be
        # 45**4 doubles (32.8 MB); no solve keeps one, and K's 1 MiB
        # pieces keep the solve, across outer iterations and restarts,
        # under 4 MB.
        rng = np.random.default_rng(23)
        x, y = point_cloud(rng, 45), point_cloud(rng, 45)
        config = FsFgwConfig(mode="simplex", q=1.0, restarts=1, seed=5)
        tracemalloc.start()
        try:
            res = solve_fsfgw(x, y, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.outer_iters >= 1
        assert peak < 4e6
