"""Domain types, pair validation, feature cost stacks, and scores."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fsfgw.core import (
    AsymmetricCost,
    DimensionMismatch,
    FsFgwConfig,
    InvalidConfig,
    InvalidMeasure,
    InvalidPartition,
    ShapeMismatch,
    StructuredObject,
    SuppressionWeights,
    TransportPlan,
    check_partition,
    feature_cost_stack,
    feature_scores,
    validate_pair,
)


def make_object(rng, n, d, uniform=False):
    return StructuredObject(
        C=oracles.random_structure(rng, n),
        a=oracles.random_measure(rng, n, uniform=uniform),
        X=rng.normal(0.0, 1.0, (n, d)),
    )


class TestStructuredObject:
    def test_valid_construction(self):
        rng = np.random.default_rng(0)
        obj = make_object(rng, 5, 3)
        assert obj.n == 5 and obj.d == 3
        assert not obj.C.flags.writeable
        assert np.array_equal(obj.C, obj.C.T)
        assert obj.a.sum() == pytest.approx(1.0, abs=1e-15)

    def test_compared_by_identity_and_hashable(self):
        rng = np.random.default_rng(0)
        obj = make_object(rng, 3, 2)
        twin = StructuredObject(C=obj.C, a=obj.a, X=obj.X)
        assert obj == obj and obj != twin  # no array comparison, so no ValueError
        assert {obj: "x", twin: "y"}[obj] == "x"

    def test_near_symmetric_cost_is_symmetrized_exactly(self):
        C = np.array([[0.0, 1.0], [1.0 + 1e-10, 0.0]])
        obj = StructuredObject(C=C, a=[0.5, 0.5], X=np.zeros((2, 1)))
        assert np.array_equal(obj.C, obj.C.T)

    def test_asymmetric_cost_rejected(self):
        C = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(AsymmetricCost):
            StructuredObject(C=C, a=[0.5, 0.5], X=np.zeros((2, 1)))

    def test_nonzero_diagonal_rejected(self):
        C = np.array([[0.1, 1.0], [1.0, 0.0]])
        with pytest.raises(AsymmetricCost):
            StructuredObject(C=C, a=[0.5, 0.5], X=np.zeros((2, 1)))

    def test_negative_cost_rejected(self):
        C = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(AsymmetricCost):
            StructuredObject(C=C, a=[0.5, 0.5], X=np.zeros((2, 1)))

    def test_measure_must_sum_to_one(self):
        with pytest.raises(InvalidMeasure, match=r"^a sums to 1\.1, expected 1 within 1e-09$"):
            StructuredObject(C=np.zeros((2, 2)), a=[0.5, 0.6], X=np.zeros((2, 1)))

    def test_negative_measure_rejected(self):
        with pytest.raises(InvalidMeasure):
            StructuredObject(C=np.zeros((2, 2)), a=[1.2, -0.2], X=np.zeros((2, 1)))

    def test_measure_renormalized_exactly(self):
        a = np.array([0.5, 0.5 + 4e-10])
        obj = StructuredObject(C=np.zeros((2, 2)), a=a, X=np.zeros((2, 1)))
        assert obj.a.sum() == 1.0

    def test_feature_rows_must_match(self):
        with pytest.raises(ShapeMismatch):
            StructuredObject(C=np.zeros((2, 2)), a=[0.5, 0.5], X=np.zeros((3, 1)))

    def test_feature_names_length_checked(self):
        with pytest.raises(DimensionMismatch):
            StructuredObject(
                C=np.zeros((2, 2)), a=[0.5, 0.5], X=np.zeros((2, 2)), feature_names=("x",)
            )

    def test_non_finite_rejected(self):
        with pytest.raises(ShapeMismatch):
            StructuredObject(
                C=np.zeros((2, 2)), a=[0.5, 0.5], X=np.array([[np.nan], [0.0]])
            )


class TestTransportPlan:
    def test_valid_plan(self):
        plan = TransportPlan(
            T=np.full((2, 2), 0.25), row_marginal=[0.5, 0.5], col_marginal=[0.5, 0.5]
        )
        assert plan.shape == (2, 2)

    def test_tiny_negative_entries_snap_to_zero(self):
        T = np.array([[0.5, -1e-13], [0.0, 0.5]])
        plan = TransportPlan(T=T, row_marginal=[0.5, 0.5], col_marginal=[0.5, 0.5])
        assert plan.T.min() == 0.0

    def test_negative_entries_rejected(self):
        T = np.array([[0.6, -0.1], [0.0, 0.5]])
        with pytest.raises(InvalidMeasure):
            TransportPlan(T=T, row_marginal=[0.5, 0.5], col_marginal=[0.5, 0.5])

    def test_marginal_mismatch_rejected(self):
        with pytest.raises(InvalidMeasure):
            TransportPlan(
                T=np.full((2, 2), 0.25), row_marginal=[0.7, 0.3], col_marginal=[0.5, 0.5]
            )


class TestSuppressionWeights:
    def test_lasso_must_be_binary(self):
        SuppressionWeights(w=[1.0, 0.0, 1.0], mode="lasso")
        with pytest.raises(InvalidConfig):
            SuppressionWeights(w=[0.5, 0.0, 1.0], mode="lasso")

    def test_ridge_allows_interior_values(self):
        w = SuppressionWeights(w=[0.25, 1.0, 0.0], mode="ridge")
        assert w.d == 3

    def test_simplex_must_be_one_hot(self):
        SuppressionWeights(w=[0.0, 1.0, 0.0], mode="simplex")
        with pytest.raises(InvalidConfig):
            SuppressionWeights(w=[1.0, 1.0, 0.0], mode="simplex")
        with pytest.raises(InvalidConfig):
            SuppressionWeights(w=[0.0, 0.0, 0.0], mode="simplex")

    def test_group_simplex_single_hot_group(self):
        w = SuppressionWeights(
            w=[1.0, 1.0, 0.0], mode="group_simplex", groups=((0, 1), (2,))
        )
        assert w.groups == ((0, 1), (2,))
        with pytest.raises(InvalidConfig):
            SuppressionWeights(
                w=[1.0, 0.0, 0.0], mode="group_simplex", groups=((0, 1), (2,))
            )
        with pytest.raises(InvalidConfig):
            SuppressionWeights(w=[1.0, 1.0, 0.0], mode="group_simplex")

    def test_group_partition_must_cover(self):
        with pytest.raises(InvalidConfig):
            SuppressionWeights(
                w=[1.0, 1.0, 0.0], mode="group_simplex", groups=((0, 1), (1, 2))
            )

    def test_out_of_range_weights_rejected(self):
        with pytest.raises(InvalidConfig):
            SuppressionWeights(w=[1.5, 0.0], mode="ridge")


class TestFsFgwConfig:
    def test_lasso_needs_exactly_one_level(self):
        FsFgwConfig(mode="lasso", lam=0.5)
        FsFgwConfig(mode="lasso", suppression_fraction=0.3)
        with pytest.raises(InvalidConfig):
            FsFgwConfig(mode="lasso")
        with pytest.raises(InvalidConfig):
            FsFgwConfig(mode="lasso", lam=0.5, suppression_fraction=0.3)

    def test_simplex_forbids_levels(self):
        FsFgwConfig(mode="simplex")
        with pytest.raises(InvalidConfig):
            FsFgwConfig(mode="simplex", lam=1.0)
        with pytest.raises(InvalidConfig):
            FsFgwConfig(mode="simplex", suppression_fraction=0.3)

    def test_group_simplex_requires_groups(self):
        FsFgwConfig(mode="group_simplex", groups=((0, 1), (2,)))
        with pytest.raises(InvalidConfig):
            FsFgwConfig(mode="group_simplex")
        with pytest.raises(InvalidConfig):
            FsFgwConfig(mode="lasso", lam=1.0, groups=((0,),))
        # Groups must partition 0..max index at construction time.
        assert issubclass(InvalidPartition, InvalidConfig)
        for groups in (((0,), (2,)), ((0, 1), ()), ((0, 1), (1,)), ((-1, 0),)):
            with pytest.raises(InvalidPartition):
                FsFgwConfig(mode="group_simplex", groups=groups)

    def test_partition_indices_must_be_integers(self):
        # A float index is rejected, not truncated to a valid partition.
        for groups in ([[0.7], [1.2]], [[0.0], [1.0]], [[0, 1.5]], [0, 1]):
            with pytest.raises(InvalidPartition):
                check_partition(groups)
        numpy_ints = [[np.int64(0), np.int32(2)], [np.uint8(1)]]
        assert check_partition(numpy_ints, 3) == ((0, 2), (1,))
        assert all(type(i) is int for g in check_partition(numpy_ints) for i in g)

    def test_parameter_ranges(self):
        with pytest.raises(InvalidConfig):
            FsFgwConfig(mode="lasso", lam=1.0, alpha=1.5)
        with pytest.raises(InvalidConfig):
            FsFgwConfig(mode="lasso", lam=1.0, q=0.5)
        with pytest.raises(InvalidConfig):
            FsFgwConfig(mode="lasso", lam=-1.0)
        with pytest.raises(InvalidConfig):
            FsFgwConfig(mode="lasso", suppression_fraction=1.0)
        with pytest.raises(InvalidConfig):
            FsFgwConfig(mode="lasso", lam=1.0, restarts=-1)
        with pytest.raises(InvalidConfig):
            FsFgwConfig(mode="lasso", lam=1.0, seed=-1)
        with pytest.raises(InvalidConfig):
            FsFgwConfig(mode="elastic", lam=1.0)
        with pytest.raises(InvalidConfig):
            FsFgwConfig(mode="simplex", alpha=-0.1)

    @pytest.mark.parametrize(
        "field, value",
        [("lam", np.inf), ("lam", np.nan), ("q", np.inf), ("q", np.nan),
         ("alpha", np.nan), ("max_outer_iter", 2.5), ("max_outer_iter", 2.0),
         ("max_outer_iter", True), ("restarts", 1.5), ("restarts", "1"), ("seed", 1.5),
         ("seed", "1"), ("seed", True)],
    )
    def test_non_finite_and_non_integral_values(self, field, value):
        with pytest.raises(InvalidConfig):
            FsFgwConfig(**{"mode": "lasso", "lam": 1.0, field: value})

    def test_integer_counts_become_ints(self):
        config = FsFgwConfig(mode="lasso", lam=1.0, max_outer_iter=np.int64(3),
                             restarts=np.uint8(2), seed=np.int32(7))
        assert (config.max_outer_iter, config.restarts, config.seed) == (3, 2, 7)
        assert all(type(v) is int for v in (config.max_outer_iter, config.restarts, config.seed))


class TestValidatePair:
    def test_matching_dimensions_pass_through(self):
        rng = np.random.default_rng(1)
        x = make_object(rng, 4, 10)
        y = make_object(rng, 6, 10)
        validate_pair(x, y)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(2)
        with pytest.raises(DimensionMismatch):
            validate_pair(make_object(rng, 4, 10), make_object(rng, 4, 9))

    def test_rejects_non_objects(self):
        with pytest.raises(ShapeMismatch):
            validate_pair(np.zeros((2, 2)), np.zeros((2, 2)))


class TestFeatureCostStack:
    def test_direct_evaluation(self):
        x = StructuredObject(C=np.zeros((2, 2)), a=[0.5, 0.5], X=[[0.0], [1.0]])
        y = StructuredObject(C=np.zeros((1, 1)), a=[1.0], X=[[1.0]])
        stack = feature_cost_stack(x, y, q=2.0, norm="none")
        assert stack.shape == (1, 2, 1)
        assert np.array_equal(stack[0], [[1.0], [0.0]])

    @pytest.mark.parametrize("q", [np.nan, np.inf, 0.5])
    def test_q_must_be_finite_and_at_least_one(self, q):
        x = StructuredObject(C=np.zeros((2, 2)), a=[0.5, 0.5], X=[[0.0], [1.0]])
        with pytest.raises(InvalidConfig, match="q must be finite and >= 1"):
            feature_cost_stack(x, x, q=q)

    def test_constant_columns_give_zeros(self):
        X = np.tile([2.0, -1.0], (3, 1))
        x = StructuredObject(C=np.zeros((3, 3)), a=np.full(3, 1 / 3), X=X)
        y = StructuredObject(C=np.zeros((3, 3)), a=np.full(3, 1 / 3), X=X)
        stack = feature_cost_stack(x, y, q=2.0, norm="per_feature")
        assert np.all(stack == 0.0)

    def test_per_feature_rescales_to_unit_max(self):
        """Recompute entries by direct summation, then check the rescale."""
        rng = np.random.default_rng(4)
        x = make_object(rng, 3, 4)
        y = make_object(rng, 2, 4)
        stack = feature_cost_stack(x, y, q=1.0, norm="per_feature")
        for r in range(4):
            raw = np.array(
                [[abs(x.X[i, r] - y.X[j, r]) for j in range(2)] for i in range(3)]
            )
            assert raw.max() > 0
            assert np.allclose(stack[r], raw / raw.max(), atol=1e-15)
            assert stack[r].max() == pytest.approx(1.0, abs=1e-15)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(6)
        x = make_object(rng, 4, 3)
        y = make_object(rng, 5, 3)
        fwd = feature_cost_stack(x, y, q=2.0)
        rev = feature_cost_stack(y, x, q=2.0)
        for r in range(3):
            assert np.array_equal(fwd[r], rev[r].T)

    @pytest.mark.parametrize("norm", ["none", "per_feature"])
    @pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("n, m", [(6, 9), (9, 6), (1, 7), (1, 1)])
    def test_equals_the_per_feature_loop(self, n, m, q, norm):
        # Feature 1 is zero on both objects, so its matrix stays all zero;
        # rounded features tie.
        rng = np.random.default_rng(100 * n + m)
        x, y = make_object(rng, n, 4), make_object(rng, m, 4)
        X, Y = np.round(x.X, 1), np.round(y.X, 1)
        X[:, 1] = Y[:, 1] = 0.0
        x, y = StructuredObject(x.C, x.a, X), StructuredObject(y.C, y.a, Y)
        stack = feature_cost_stack(x, y, q=q, norm=norm)
        ref = oracles.feature_cost_stack_loop(X, Y, q, norm)
        assert stack.tobytes() == ref.tobytes()
        assert stack.shape == (4, n, m) and not stack.flags.writeable
        assert not stack[1].any()

    def test_invalid_norm_and_exponent(self):
        rng = np.random.default_rng(7)
        x = make_object(rng, 3, 2)
        with pytest.raises(InvalidConfig):
            feature_cost_stack(x, x, q=2.0, norm="global")
        with pytest.raises(InvalidConfig):
            feature_cost_stack(x, x, q=2.0, norm="per_pair")
        with pytest.raises(InvalidConfig):
            feature_cost_stack(x, x, q=0.5)


class TestFeatureScores:
    def test_single_cell(self):
        plan = TransportPlan(T=[[1.0]], row_marginal=[1.0], col_marginal=[1.0])
        stack = np.array([[[0.7]]])
        assert feature_scores(plan.T, stack)[0] == pytest.approx(0.7)

    def test_zero_stack_gives_zero_scores(self):
        T = np.full((3, 3), 1 / 9)
        assert np.all(feature_scores(T, np.zeros((4, 3, 3))) == 0.0)

    def test_matches_double_sum(self):
        rng = np.random.default_rng(8)
        T = rng.uniform(0, 1, (3, 3))
        stack = rng.uniform(0, 1, (4, 3, 3))
        scores = feature_scores(T, stack)
        for r in range(4):
            direct = sum(
                T[i, j] * stack[r, i, j] for i in range(3) for j in range(3)
            )
            assert scores[r] == pytest.approx(direct, abs=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            feature_scores(np.zeros((2, 3)), np.zeros((1, 3, 2)))

    @given(beta=st.floats(0.0, 1.0), seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_linear_in_the_plan(self, beta, seed):
        rng = np.random.default_rng(seed)
        stack = rng.uniform(0, 1, (3, 4, 2))
        T1 = rng.uniform(0, 1, (4, 2))
        T2 = rng.uniform(0, 1, (4, 2))
        mixed = feature_scores(beta * T1 + (1 - beta) * T2, stack)
        combined = beta * feature_scores(T1, stack) + (1 - beta) * feature_scores(T2, stack)
        assert np.allclose(mixed, combined, atol=1e-10)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_nonnegative_for_valid_plans(self, seed):
        rng = np.random.default_rng(seed)
        x = make_object(rng, 4, 3)
        y = make_object(rng, 3, 3)
        stack = feature_cost_stack(x, y)
        T = oracles.ipf_coupling(x.a, y.a, rng)
        assert feature_scores(T, stack).min() >= 0.0
