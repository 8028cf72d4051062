"""Exact transportation LP, quadratic line search, and coupling sampler."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsfgw.transport
import oracles
from fsfgw.core import FsfgwError, ShapeMismatch
from fsfgw.transport import (
    Infeasible,
    InvalidBasis,
    NumericalFailure,
    line_search_quadratic,
    random_coupling,
    solve_emd,
)


class TestSolveEmd:
    def test_single_cell(self):
        sol = solve_emd(np.array([[3.0]]), [1.0], [1.0])
        assert np.array_equal(sol.T, [[1.0]])
        assert sol.value == pytest.approx(3.0)

    def test_identity_favoring_cost(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        sol = solve_emd(cost, [0.5, 0.5], [0.5, 0.5])
        assert sol.value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sol.T, np.diag([0.5, 0.5]))

    def test_matches_lp_reference(self):
        rng = np.random.default_rng(17)
        a = np.array([1, 2, 3, 4], dtype=float)
        a /= a.sum()
        b = np.array([2, 2, 1, 3, 2], dtype=float)
        b /= b.sum()
        for _ in range(20):
            cost = rng.uniform(0.0, 5.0, (4, 5))
            sol = solve_emd(cost, a, b)
            ref_value, _ = oracles.emd_lp(cost, a, b)
            assert sol.value == pytest.approx(ref_value, abs=1e-8)

    def test_dominates_random_feasible_plans(self):
        rng = np.random.default_rng(18)
        a = oracles.random_measure(rng, 5)
        b = oracles.random_measure(rng, 4)
        cost = rng.uniform(0.0, 1.0, (5, 4))
        sol = solve_emd(cost, a, b)
        for _ in range(50):
            T = oracles.ipf_coupling(a, b, rng)
            assert sol.value <= float((cost * T).sum()) + 1e-10

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(19)
        a = oracles.random_measure(rng, 4)
        b = oracles.random_measure(rng, 5)
        cost = rng.uniform(0.0, 1.0, (4, 5))
        base = solve_emd(cost, a, b)
        perm = rng.permutation(4)
        permuted = solve_emd(cost[perm], a[perm], b)
        assert permuted.value == pytest.approx(base.value, abs=1e-12)
        assert np.allclose(permuted.T, base.T[perm], atol=1e-12)

    def test_constant_shift_moves_value_only(self):
        rng = np.random.default_rng(20)
        a = oracles.random_measure(rng, 3)
        b = oracles.random_measure(rng, 6)
        cost = rng.uniform(0.0, 1.0, (3, 6))
        base = solve_emd(cost, a, b)
        shifted = solve_emd(cost + 2.5, a, b)
        assert shifted.value == pytest.approx(base.value + 2.5, abs=1e-10)

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=60, deadline=None)
    def test_solutions_are_vertices(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 8)), int(rng.integers(1, 8))
        sol = solve_emd(
            rng.uniform(0.0, 1.0, (n, m)),
            oracles.random_measure(rng, n),
            oracles.random_measure(rng, m),
        )
        assert np.count_nonzero(sol.T) <= n + m - 1

    def test_imbalanced_sums_rejected(self):
        cost = np.zeros((2, 2))
        with pytest.raises(Infeasible):
            solve_emd(cost, [0.6, 0.5], [0.5, 0.5])

    def test_negative_marginal_rejected(self):
        with pytest.raises(Infeasible):
            solve_emd(np.zeros((2, 2)), [-0.1, 1.1], [0.5, 0.5])

    def test_zero_mass_rejected(self):
        with pytest.raises(Infeasible):
            solve_emd(np.zeros((2, 2)), [0.0, 0.0], [0.0, 0.0])

    def test_non_finite_cost_rejected(self):
        with pytest.raises(Infeasible):
            solve_emd(np.array([[np.inf, 0.0], [0.0, 0.0]]), [0.5, 0.5], [0.5, 0.5])

    def test_bad_shapes_rejected(self):
        with pytest.raises(ShapeMismatch):
            solve_emd(np.zeros(4), [1.0], [1.0])
        with pytest.raises(ShapeMismatch):
            solve_emd(np.zeros((2, 2)), [0.5, 0.5], [1.0])

    def test_tiny_imbalance_absorbed(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([0.5, 0.5 + 1e-9])
        sol = solve_emd(cost, np.array([0.5, 0.5]), b)
        assert sol.value == pytest.approx(0.0, abs=1e-8)
        assert sol.T.sum() == pytest.approx(1.0, abs=1e-8)

    def test_pivot_budget_enforced(self, monkeypatch):
        # Non-uniform marginals keep this on the network simplex.  The
        # least-cost start fills (0, 0), then (1, 0), then must put 0.4 on
        # the cell of cost 10, so one pivot is needed and a zero budget
        # must trip the guard.
        cost = np.array([[1.0, 2.0], [1.0, 10.0]])
        assert solve_emd(cost, [0.4, 0.6], [0.6, 0.4]).iterations == 1
        monkeypatch.setattr(fsfgw.transport, "_PIVOTS_PER_NODE", 0)
        with pytest.raises(NumericalFailure, match="exceeded 0 pivots"):
            solve_emd(cost, [0.4, 0.6], [0.6, 0.4])


class TestAssignmentRoute:
    """Uniform square marginals are solved as an assignment problem."""

    @given(n=st.integers(1, 12), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_tied_costs_match_lp(self, n, data):
        # Integer costs in {0, ..., 3} make many optimal vertices tie.
        cells = data.draw(st.lists(st.integers(0, 3), min_size=n * n, max_size=n * n))
        cost = np.array(cells, dtype=float).reshape(n, n)
        a = np.full(n, 1.0 / n)
        sol = solve_emd(cost, a, a)
        ref_value, _ = oracles.emd_lp(cost, a, a)
        assert sol.value == pytest.approx(ref_value, abs=1e-12)
        assert sol.iterations == 0
        T = sol.T
        # A permutation matrix divided by n: one cell of mass 1/n per row
        # and column, which is a vertex (n <= n + m - 1 nonzeros).
        assert np.count_nonzero(T) == n
        assert np.array_equal(np.sort(np.flatnonzero(T) % n), np.arange(n))
        assert np.all(T[T > 0] == 1.0 / n)
        oracles.assert_coupling(T, a, a)

    @given(seed=st.integers(0, 5_000), n=st.integers(2, 12))
    @settings(max_examples=40, deadline=None)
    def test_nonuniform_column_measure_matches_lp(self, seed, n):
        # A uniform a alone does not select the assignment route; this
        # instance goes through the network simplex.
        rng = np.random.default_rng(seed)
        cost = rng.integers(0, 4, (n, n)).astype(float)
        a = np.full(n, 1.0 / n)
        b = oracles.random_measure(rng, n)
        sol = solve_emd(cost, a, b)
        ref_value, _ = oracles.emd_lp(cost, a, b)
        assert sol.value == pytest.approx(ref_value, abs=1e-12)
        assert np.count_nonzero(sol.T) <= 2 * n - 1
        oracles.assert_coupling(sol.T, a, b)


def masses_with_zeros(rng, k):
    """A measure on k nodes with integer weights in 0..3, about a quarter
    of them zero, and at least one positive."""

    w = rng.integers(0, 4, k).astype(float)
    if w.sum() == 0.0:
        w[0] = 1.0
    return w / w.sum()


class TestColdStart:
    """The least-cost start is a spanning tree, whatever the ties and zeros."""

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 10), m=st.integers(1, 10))
    @settings(max_examples=200, deadline=None)
    def test_tied_costs_and_zero_masses(self, seed, n, m):
        # Costs in {0, ..., 3} tie often, and about a quarter of the masses
        # are zero; an invalid start would raise InvalidBasis when hung.
        rng = np.random.default_rng(seed)
        a = masses_with_zeros(rng, n)
        b = masses_with_zeros(rng, m)
        cost = rng.integers(0, 4, (n, m)).astype(float)
        sol = solve_emd(cost, a, b)
        ref_value, _ = oracles.emd_lp(cost, a, b)
        assert sol.value == pytest.approx(ref_value, abs=1e-12)
        assert np.count_nonzero(sol.T) <= n + m - 1
        oracles.assert_coupling(sol.T, a, b)
        again = solve_emd(cost, a, b)
        assert np.array_equal(sol.T, again.T) and sol.value == again.value
        assert sol.iterations == again.iterations
        if sol.basis is not None:
            assert all(np.array_equal(p, q) for p, q in zip(sol.basis, again.basis))

    def test_cost_ties_break_on_the_lowest_flat_index(self):
        # On a constant cost every cell ties, so the start visits cells in
        # row-major order, which is the northwest corner, and is optimal.
        # The zero-flow arc (3, 2) keeps the start a spanning tree.
        a = np.array([1, 2, 2, 3]) / 8
        b = np.array([2, 2, 1, 1, 2]) / 8
        sol = solve_emd(np.zeros((4, 5)), a, b)
        assert sol.iterations == 0
        arc_row, arc_col, arc_flow = sol.basis
        assert arc_row.tolist() == [0, 1, 1, 2, 2, 3, 3, 3]
        assert arc_col.tolist() == [0, 0, 1, 1, 2, 2, 3, 4]
        assert arc_flow.tolist() == [1 / 8, 1 / 8, 1 / 8, 1 / 8, 1 / 8, 0.0, 1 / 8, 1 / 4]

    def test_diagonal_instance_needs_no_pivot(self):
        # A northwest-corner start would put 0.4 on the costly cell (0, 0)
        # and need a pivot; filling the zero-cost cells first is optimal.
        cost = np.array([[1.0, 0.0], [0.0, 1.0]])
        sol = solve_emd(cost, [0.4, 0.6], [0.6, 0.4])
        assert sol.iterations == 0
        assert sol.value == 0.0


class TestWarmBasis:
    """A basis returned for one cost warm-starts the LP for another, with
    the same read-only marginal arrays."""

    @staticmethod
    def read_only_measures(rng, n, m):
        a, b = masses_with_zeros(rng, n), masses_with_zeros(rng, m)
        a.setflags(write=False)
        b.setflags(write=False)
        return a, b

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 60), m=st.integers(1, 60))
    @settings(max_examples=60, deadline=None)
    def test_perturbed_tied_costs_match_lp(self, seed, n, m):
        rng = np.random.default_rng(seed)
        a, b = self.read_only_measures(rng, n, m)
        cost = rng.integers(0, 4, (n, m)).astype(float)
        sol = solve_emd(cost, a, b)
        if sol.basis is None:
            # Uniform square marginals: the assignment route keeps no basis.
            assert n == m and np.all(a == a[0]) and np.all(b == b[0])
            return
        for _ in range(2):
            # Move about a third of the cells by one, staying in {0, ..., 3}.
            step = rng.integers(-1, 2, (n, m)) * (rng.random((n, m)) < 0.3)
            cost = np.clip(cost + step, 0.0, 3.0)
            sol = solve_emd(cost, a, b, basis=sol.basis)
            ref_value, _ = oracles.emd_lp(cost, a, b)
            assert sol.value == pytest.approx(ref_value, abs=1e-12)
            T = sol.T
            assert np.count_nonzero(T) <= n + m - 1
            oracles.assert_coupling(T, a, b)

    def test_basis_for_other_marginals_or_shape_rejected(self):
        rng = np.random.default_rng(22)
        a, b = self.read_only_measures(rng, 4, 5)
        cost = rng.uniform(0.0, 1.0, (4, 5))
        basis = solve_emd(cost, a, b).basis
        assert issubclass(InvalidBasis, FsfgwError)
        # Another read-only array with the same masses is not the same array.
        same_masses = np.array(a)
        same_masses.setflags(write=False)
        for args in ((cost, same_masses, b), (cost, oracles.random_measure(rng, 4), b),
                     (cost.T, b, a), (cost[:3], a[:3] / a[:3].sum(), b)):
            with pytest.raises(InvalidBasis, match="returned for these very"):
                solve_emd(*args, basis=basis)

    def test_trusted_basis_gives_the_checked_bits(self):
        # A returned basis keeps its tree from call to call; the reference
        # checks the same arcs and hangs their tree afresh.  Both give the
        # same plans, bases and pivots.
        rng = np.random.default_rng(24)
        for n, m in ((7, 9), (12, 5), (16, 16)):
            a, b = self.read_only_measures(rng, n, m)
            cost = rng.integers(0, 4, (n, m)).astype(float)
            trusted = checked = solve_emd(cost, a, b)
            for _ in range(4):
                cost = cost + rng.normal(0.0, 0.3, (n, m))
                trusted = solve_emd(cost, a, b, basis=trusted.basis)
                checked = solve_emd(cost, a, b, basis=oracles.checked_basis(checked.basis, a, b))
                assert np.array_equal(trusted.T, checked.T)
                assert trusted.iterations == checked.iterations
                assert trusted.value == checked.value
                for p, q in zip(trusted.basis, checked.basis):
                    assert np.array_equal(p, q)

    def test_writable_marginals_are_rejected(self):
        # Writable marginals may have changed since the basis was returned.
        rng = np.random.default_rng(25)
        a, b = masses_with_zeros(rng, 6), masses_with_zeros(rng, 8)
        cost = rng.uniform(size=(6, 8))
        with pytest.raises(InvalidBasis, match="read-only"):
            solve_emd(cost, a, b, basis=solve_emd(cost, a, b).basis)

    def test_a_basis_warm_starts_twice_alike(self):
        rng = np.random.default_rng(26)
        a, b = self.read_only_measures(rng, 10, 13)
        cost = rng.uniform(size=(10, 13))
        basis = solve_emd(cost, a, b).basis
        kept = [np.array(part) for part in basis]
        step = cost + rng.normal(0.0, 0.5, cost.shape)
        first = solve_emd(step, a, b, basis=basis)
        again = solve_emd(step, a, b, basis=basis)
        assert first.iterations > 0
        assert np.array_equal(first.T, again.T) and first.iterations == again.iterations
        assert all(np.array_equal(p, q) for p, q in zip(basis, kept))

    def test_only_a_returned_basis_is_accepted(self):
        # The type is checked, not the content: the arcs of a returned basis
        # as a plain tuple are rejected, and so are four arcs around the
        # cycle r0-c0-r1-c1, which carry the marginals but span no tree.
        rng = np.random.default_rng(27)
        a, b = self.read_only_measures(rng, 5, 6)
        cost = rng.uniform(size=(5, 6))
        arcs = tuple(solve_emd(cost, a, b).basis)
        with pytest.raises(InvalidBasis):
            solve_emd(cost, a, b, basis=arcs)
        cycle = (np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1]), np.full(4, 0.25))
        with pytest.raises(InvalidBasis):
            solve_emd(np.ones((2, 3)), [0.5, 0.5], [0.5, 0.5, 0.0], basis=cycle)

    def test_warm_start_from_the_optimal_basis_takes_no_pivots(self):
        rng = np.random.default_rng(23)
        a, b = oracles.random_measure(rng, 6), oracles.random_measure(rng, 9)
        a.setflags(write=False)
        b.setflags(write=False)
        cost = rng.uniform(0.0, 1.0, (6, 9))
        cold = solve_emd(cost, a, b)
        warm = solve_emd(cost, a, b, basis=cold.basis)
        assert cold.iterations > 0 and warm.iterations == 0
        assert np.array_equal(warm.T, cold.T)


class TestLineSearchQuadratic:
    def test_interior_minimum(self):
        assert line_search_quadratic(1.0, -1.0) == pytest.approx(0.5)

    def test_clamped_to_one(self):
        assert line_search_quadratic(1.0, -4.0) == 1.0

    def test_concave_picks_better_endpoint(self):
        assert line_search_quadratic(-1.0, 0.5) == 1.0
        assert line_search_quadratic(-1.0, 2.0) == 0.0

    def test_linear_cases(self):
        assert line_search_quadratic(0.0, 1.0) == 0.0
        assert line_search_quadratic(0.0, -1.0) == 1.0

    @given(
        quad=st.floats(-10.0, 10.0, allow_nan=False),
        lin=st.floats(-10.0, 10.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_beats_dense_grid(self, quad, lin):
        t = line_search_quadratic(quad, lin)
        assert 0.0 <= t <= 1.0
        grid = np.linspace(0.0, 1.0, 401)
        values = quad * grid**2 + lin * grid
        best = float(values.min())
        assert quad * t**2 + lin * t <= best + 1e-9


class TestRandomCoupling:
    def test_marginals_and_positivity(self):
        rng = np.random.default_rng(21)
        a = oracles.random_measure(rng, 5)
        b = oracles.random_measure(rng, 3)
        T = random_coupling(a, b, rng)
        assert np.abs(T.sum(axis=1) - a).max() < 1e-9
        assert np.abs(T.sum(axis=0) - b).max() < 1e-9
        assert T.min() > 0.0

    def test_reproducible_under_seed(self):
        a = np.full(4, 0.25)
        b = np.full(4, 0.25)
        T1 = random_coupling(a, b, np.random.default_rng(7))
        T2 = random_coupling(a, b, np.random.default_rng(7))
        assert np.array_equal(T1, T2)
