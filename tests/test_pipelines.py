"""Synthetic benchmarks, pairwise matrices, clustering, districts, loaders."""

import hashlib
import json
import logging
import multiprocessing
import os
import re
import time

import numpy as np
import pytest

import fsfgw.pipelines as pipelines
import oracles
from fsfgw.core import (
    FsFgwConfig,
    InvalidConfig,
    ShapeMismatch,
    StructuredObject,
    feature_cost_stack,
    feature_scores,
)
from fsfgw.fgw import FgwProblem, solve_fgw
from fsfgw.pipelines import (
    DisconnectedDistrict,
    DistrictCountMismatch,
    EmptySet,
    InvalidMatrix,
    InvalidObjectFile,
    Merge,
    PairwiseSolveError,
    PrecinctGraph,
    PrecinctUniverseMismatch,
    RedistrictingPlan,
    SyntheticSpec,
    _trapezoid_auc,
    compare_plans,
    complete_linkage_cluster,
    district_object,
    generate_synthetic_pair,
    geodesic_structure,
    load_plan_csv,
    load_precinct_graph,
    load_structured_object,
    match_districts,
    pairwise_distance_matrix,
    roc_sweep,
    separation_metric,
    structured_object_to_dict,
)

QUICK = FsFgwConfig(mode="lasso", lam=0.2)


def _exit_in_helper(parent: int) -> int:
    """A task that kills any helper running it; in the calling process it
    waits until the helper is gone, so the helper claims a task first."""
    if os.getpid() != parent:
        os._exit(7)
    deadline = time.monotonic() + 30.0
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.01)
    return parent


def _mark(directory, i: int) -> int:
    with open(directory / str(i), "x"):
        return i


def _interrupt_in_caller(parent: int) -> None:
    """A task that keeps any helper busy for a minute and interrupts the
    calling process once the helpers have started theirs."""
    time.sleep(60.0 if os.getpid() != parent else 0.2)
    raise KeyboardInterrupt


def make_object(rng, n, d):
    return StructuredObject(
        C=oracles.random_structure(rng, n),
        a=np.full(n, 1.0 / n),
        X=rng.normal(0.0, 1.0, (n, d)),
    )


class TestGeodesicStructure:
    def test_three_node_path(self):
        C = geodesic_structure([(10, 20), (20, 30)], [10, 20, 30])
        assert np.array_equal(
            C, [[0.0, 0.5, 1.0], [0.5, 0.0, 0.5], [1.0, 0.5, 0.0]]
        )

    def test_single_node(self):
        assert np.array_equal(geodesic_structure([], [7]), [[0.0]])

    def test_disconnected_names_components(self):
        with pytest.raises(DisconnectedDistrict) as err:
            geodesic_structure([(0, 1), (2, 3)], [0, 1, 2, 3])
        assert "[0, 1]" in str(err.value)
        assert "[2, 3]" in str(err.value)

    def test_entrywise_triangle_inequality(self):
        rng = np.random.default_rng(0)
        n = 8
        edges = [(i, i + 1) for i in range(n - 1)]
        edges += [tuple(sorted(rng.choice(n, 2, replace=False))) for _ in range(5)]
        C = geodesic_structure(edges, range(n))
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert C[i, j] <= C[i, k] + C[k, j] + 1e-12

    def test_duplicate_nodes_rejected(self):
        with pytest.raises(ShapeMismatch):
            geodesic_structure([(0, 1)], [0, 0])


class TestGenerateSyntheticPair:
    def test_shapes_and_planted_set(self):
        spec = SyntheticSpec(n=20, d=6, k=2, geo_radius=0.45, seed=1)
        x, y, diff = generate_synthetic_pair(spec)
        assert x.n == y.n
        assert x.d == y.d == 6
        assert diff == frozenset({0, 1})
        assert np.allclose(x.a, 1.0 / x.n)
        assert x.feature_names == tuple(f"f{r}" for r in range(6))

    def test_no_differentiating_features(self):
        spec = SyntheticSpec(n=20, k=0, geo_radius=0.45, seed=2)
        _, _, diff = generate_synthetic_pair(spec)
        assert diff == frozenset()

    def test_reproducible(self):
        spec = SyntheticSpec(n=20, geo_radius=0.45, seed=3)
        x1, y1, _ = generate_synthetic_pair(spec)
        x2, y2, _ = generate_synthetic_pair(spec)
        assert np.array_equal(x1.X, x2.X)
        assert np.array_equal(y1.C, y2.C)

    @pytest.mark.parametrize(
        "spec, size, digest",
        [
            (SyntheticSpec(), 40, "a5e6a0a78fc33eb0"),
            (SyntheticSpec(n=50, d=20, k=5, seed=3), 50, "75d69cbe4eb84e3f"),
            (SyntheticSpec(n=12, d=3, k=1, geo_radius=0.5, seed=7), 12, "a74724baf40db99d"),
            # Sparse graphs whose largest component is trimmed below n.
            (SyntheticSpec(n=60, d=3, k=1, geo_radius=0.17, seed=4), 54, "b6918b71ae59dda8"),
            (SyntheticSpec(n=40, d=3, k=1, geo_radius=0.2, seed=3), 36, "aaba5a3134383dbe"),
        ],
    )
    def test_pinned_node_order(self, spec, size, digest):
        """The kept nodes and their order (BFS from the lowest node of the
        first largest component) fix C and the number of rows drawn for X.
        These digests pin both to recorded values, on which the benchmark
        references also depend."""
        x, y, _ = generate_synthetic_pair(spec)
        h = hashlib.sha256()
        for arr in (x.C, x.X, y.C, y.X):
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        assert x.n == size
        assert h.hexdigest()[:16] == digest

    def test_spec_validation(self):
        with pytest.raises(InvalidConfig):
            SyntheticSpec(n=1)
        with pytest.raises(InvalidConfig):
            SyntheticSpec(k=11, d=10)
        with pytest.raises(InvalidConfig):
            SyntheticSpec(delta=-1.0)
        for name, value in [("n", 12.5), ("d", 3.0), ("k", True), ("n", "12"),
                            ("delta", float("nan")), ("delta", float("inf")),
                            ("geo_radius", float("nan")), ("geo_radius", 0.0),
                            ("seed", -1), ("seed", 1.5)]:
            with pytest.raises(InvalidConfig, match=name):
                SyntheticSpec(**{name: value})
        assert type(SyntheticSpec(n=np.int64(12)).n) is int
        assert type(SyntheticSpec(seed=np.int64(3)).seed) is int

    def test_planted_features_dominate_unsuppressed_scores(self):
        """At delta=2 the differentiating features cost several times more
        under the plain transport plan; at delta=0 the gap vanishes."""
        for seed in range(5):
            spec = SyntheticSpec(seed=seed)
            ratio = self._score_ratio(spec)
            assert ratio >= 2.0
        for seed in range(3):
            spec = SyntheticSpec(delta=0.0, seed=seed)
            x, y, diff = generate_synthetic_pair(spec)
            gap = self._score_gap(spec, x, y, diff)
            assert abs(gap) < 0.2

    @staticmethod
    def _unsuppressed_scores(spec, x, y):
        stack = feature_cost_stack(x, y)
        sol = solve_fgw(
            FgwProblem(
                C1=x.C, C2=y.C, alpha=0.5, q=2.0,
                a=x.a, b=y.a,
            ),
            stack.sum(axis=0),
        )
        return feature_scores(sol.T, stack)

    def _score_ratio(self, spec):
        x, y, diff = generate_synthetic_pair(spec)
        s = self._unsuppressed_scores(spec, x, y)
        mask = np.zeros(spec.d, dtype=bool)
        mask[sorted(diff)] = True
        return s[mask].mean() / s[~mask].mean()

    def _score_gap(self, spec, x, y, diff):
        s = self._unsuppressed_scores(spec, x, y)
        mask = np.zeros(spec.d, dtype=bool)
        mask[sorted(diff)] = True
        return s[mask].mean() - s[~mask].mean()


class TestSeparationMetric:
    def test_perfect_recovery(self):
        assert separation_metric([1.0, 1.0, 0.0, 0.0], {0, 1}) == 1.0

    def test_all_zero_weights(self):
        assert separation_metric([0.0, 0.0, 0.0], {1}) == 0.0

    def test_one_hot_within_larger_set(self):
        w = np.zeros(100)
        w[4] = 1.0
        assert separation_metric(w, frozenset(range(10))) == pytest.approx(0.1)

    def test_rejects_empty_and_full_sets(self):
        with pytest.raises(EmptySet):
            separation_metric([1.0, 0.0], frozenset())
        with pytest.raises(EmptySet):
            separation_metric([1.0, 0.0], {0, 1})

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ShapeMismatch):
            separation_metric([1.0, 0.0], {5})


class TestRocSweep:
    def test_trapezoid_unit_cases(self):
        assert _trapezoid_auc([]) == pytest.approx(0.5)
        assert _trapezoid_auc([(0.0, 1.0)]) == pytest.approx(1.0)
        assert _trapezoid_auc([(0.5, 0.5)]) == pytest.approx(0.5)

    def test_supported_modes_only(self):
        spec = SyntheticSpec(n=12, d=6, k=2, geo_radius=0.45)
        with pytest.raises(InvalidConfig):
            roc_sweep(spec, FsFgwConfig(mode="simplex"), [0.3])
        with pytest.raises(InvalidConfig):
            roc_sweep(spec, FsFgwConfig(mode="lasso", lam=0.1), [0.3])

    def test_needs_a_proper_planted_set(self):
        with pytest.raises(EmptySet):
            roc_sweep(SyntheticSpec(n=12, d=6, k=0, geo_radius=0.45),
                      FsFgwConfig(mode="lasso", suppression_fraction=0.3), [0.3])

    def test_small_sweep(self):
        spec = SyntheticSpec(n=12, d=6, k=2, geo_radius=0.45, seed=3)
        config = FsFgwConfig(mode="lasso", suppression_fraction=0.3, seed=spec.seed)
        sweep = roc_sweep(spec, config, [0.2, 0.5])
        assert [p.fraction for p in sweep.points] == [0.2, 0.5]
        for p in sweep.points:
            assert 0.0 <= p.tpr <= 1.0
            assert 0.0 <= p.fpr <= 1.0
        assert 0.0 <= sweep.auc <= 1.0


class TestPairwiseDistanceMatrix:
    def test_single_object(self):
        rng = np.random.default_rng(4)
        D, records = pairwise_distance_matrix([make_object(rng, 4, 3)], QUICK)
        assert np.array_equal(D, [[0.0]])
        assert records == []

    def test_duplicate_objects_are_close(self):
        rng = np.random.default_rng(5)
        x = make_object(rng, 4, 3)
        D, _ = pairwise_distance_matrix([x, x], QUICK)
        assert D[0, 1] <= 1e-8

    def test_matrix_properties_and_order_invariance(self):
        rng = np.random.default_rng(6)
        objs = [make_object(rng, 4 + i, 3) for i in range(3)]
        D, records = pairwise_distance_matrix(objs, QUICK)
        assert np.array_equal(D, D.T)
        assert np.all(np.diagonal(D) == 0.0)
        assert D.min() >= 0.0
        assert len(records) == 3
        swapped, _ = pairwise_distance_matrix(objs[::-1], QUICK)
        assert np.abs(swapped[::-1, ::-1] - D).max() <= 1e-8

    def test_parallel_matches_serial(self):
        rng = np.random.default_rng(7)
        objs = [make_object(rng, 4, 3) for _ in range(3)]
        serial, _ = pairwise_distance_matrix(objs, QUICK, workers=1)
        parallel, _ = pairwise_distance_matrix(objs, QUICK, workers=2)
        assert np.array_equal(serial, parallel)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_are_rejected(self, workers):
        with pytest.raises(InvalidConfig, match="workers must be >= 1"):
            pairwise_distance_matrix([pytest.fail] * 3, QUICK, workers)

    def test_failures_name_the_pair(self):
        rng = np.random.default_rng(8)
        objs = [make_object(rng, 4, 3), make_object(rng, 4, 2)]
        with pytest.raises(PairwiseSolveError) as err:
            pairwise_distance_matrix(objs, QUICK)
        assert "pair (0, 1)" in str(err.value)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_pool_raises_the_serial_failure(self, usable_cpus, workers):
        usable_cpus(workers)
        # Task 3 of 6 pairs a 3-feature object with a 2-feature one.
        rng = np.random.default_rng(9)
        objs = [make_object(rng, 4, 3) for _ in range(6)]
        tasks = [(k, k + 1, objs[k], objs[k + 1], QUICK) for k in range(5)]
        tasks.insert(3, (7, 8, objs[0], make_object(rng, 4, 2), QUICK))
        with pytest.raises(PairwiseSolveError) as serial:
            pipelines._ordered_map(pipelines._solve_pair, tasks, 1)
        with pytest.raises(PairwiseSolveError) as pooled:
            pipelines._ordered_map(pipelines._solve_pair, tasks, workers)
        assert type(pooled.value) is type(serial.value)
        assert str(pooled.value) == str(serial.value)
        assert "pair (7, 8)" in str(pooled.value)
        assert multiprocessing.active_children() == []

    def test_helper_that_exits_without_reporting_is_named(self, usable_cpus):
        usable_cpus(2)
        with pytest.raises(ChildProcessError, match=r"exit codes \[7\]"):
            pipelines._ordered_map(_exit_in_helper, [(os.getpid(),)] * 4, 2)
        assert multiprocessing.active_children() == []

    def test_more_workers_than_cores_run_each_task_once(self, tmp_path, usable_cpus):
        # A task claimed twice would fail to create its marker file again.
        workers = min((os.cpu_count() or 1) + 1, 16)
        usable_cpus(workers)  # the engine starts no more processes than it sees CPUs
        results = pipelines._ordered_map(_mark, [(tmp_path, i) for i in range(64)], workers)
        assert results == list(range(64))
        assert len(list(tmp_path.iterdir())) == 64
        assert multiprocessing.active_children() == []

    def test_interrupt_terminates_the_helpers(self, usable_cpus):
        usable_cpus(3)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            pipelines._ordered_map(_interrupt_in_caller, [(os.getpid(),)] * 4, 3)
        assert time.monotonic() - start < 30.0
        assert multiprocessing.active_children() == []


class TestCompleteLinkage:
    def test_two_points(self):
        merges = complete_linkage_cluster([[0.0, 0.7], [0.7, 0.0]])
        assert merges == [Merge(0, 1, 0.7)]

    def test_collinear_points(self):
        pts = np.array([1.0, 2.0, 4.0])
        D = np.abs(pts[:, None] - pts[None, :])
        merges = complete_linkage_cluster(D)
        assert merges[0] == Merge(0, 1, 1.0)
        assert merges[1] == Merge(2, 3, 3.0)

    def test_matches_reference_on_random_matrices(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            pts = rng.uniform(0.0, 1.0, (6, 2))
            D = np.linalg.norm(pts[:, None] - pts[None, :], axis=-1)
            merges = complete_linkage_cluster(D)
            ref = oracles.linkage_reference(D)
            assert [(m.a, m.b) for m in merges] == [(a, b) for a, b, _ in ref]
            for m, (_, _, h) in zip(merges, ref):
                assert m.height == pytest.approx(h, abs=1e-12)

    def test_matches_reference_on_tied_integer_matrices(self):
        # Small integer distances tie often, which exercises the
        # lexicographic tie rule; heights are maxima of D, so exact.
        rng = np.random.default_rng(10)
        for _ in range(200):
            N = int(rng.integers(2, 13))
            D = np.triu(rng.integers(0, 4, (N, N)).astype(float), 1)
            D = D + D.T
            merges = complete_linkage_cluster(D)
            assert [tuple(m) for m in merges] == oracles.linkage_reference(D)

    def test_all_equal_distances_merge_in_id_order(self):
        D = np.full((4, 4), 2.0)
        np.fill_diagonal(D, 0.0)
        merges = complete_linkage_cluster(D)
        assert [(m.a, m.b) for m in merges] == [(0, 1), (2, 3), (4, 5)]

    def test_matrix_validation(self):
        with pytest.raises(InvalidMatrix):
            complete_linkage_cluster(np.zeros((2, 3)))
        with pytest.raises(InvalidMatrix):
            complete_linkage_cluster([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(InvalidMatrix):
            complete_linkage_cluster([[1.0, 1.0], [1.0, 0.0]])
        with pytest.raises(InvalidMatrix):
            complete_linkage_cluster([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(InvalidMatrix):
            complete_linkage_cluster([[0.0, np.inf], [np.inf, 0.0]])


def band_fixture():
    ids, edges, features, population, assign_p, assign_q, moved = (
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
    return graph, plan_p, plan_q, moved


class TestDistrictsAndMatching:
    def test_district_object_uses_population_measure(self):
        graph, plan_p, _, _ = band_fixture()
        idx = np.flatnonzero(plan_p.assignment == 1)
        obj = district_object(graph, idx)
        pop = graph.population[idx]
        assert np.allclose(obj.a, pop / pop.sum())
        assert obj.X.shape == (len(idx), graph.d)

    def test_zero_population_falls_back_to_uniform(self):
        graph = PrecinctGraph(
            precinct_ids=("a", "b"),
            adjacency=((0, 1),),
            features=np.zeros((2, 1)),
            population=np.zeros(2),
            feature_names=("v0",),
        )
        obj = district_object(graph, [0, 1])
        assert np.array_equal(obj.a, [0.5, 0.5])

    def test_empty_district_rejected(self):
        graph, _, _, _ = band_fixture()
        with pytest.raises(EmptySet):
            district_object(graph, [])

    def test_disconnected_district_rejected(self):
        graph, _, _, _ = band_fixture()
        # Precincts 0 and 12 sit in different columns of the grid with no
        # shared edge.
        with pytest.raises(DisconnectedDistrict):
            district_object(graph, [0, 12])

    def test_identity_matching(self):
        _, plan_p, _, _ = band_fixture()
        assert match_districts(plan_p, plan_p) == [(1, 1), (2, 2), (3, 3)]

    def test_relabeling_is_recovered_at_zero_cost(self):
        rng = np.random.default_rng(10)
        assignment = rng.integers(1, 5, size=40)
        assignment[:4] = [1, 2, 3, 4]  # every label occupied
        perm = {1: 3, 2: 1, 3: 4, 4: 2}
        relabeled = np.array([perm[v] for v in assignment])
        plan_p = RedistrictingPlan(plan_id="p", assignment=assignment)
        plan_q = RedistrictingPlan(plan_id="q", assignment=relabeled)
        matching = match_districts(plan_p, plan_q)
        assert matching == sorted((p, perm[p]) for p in perm)
        H = oracles.hamming_matrix(assignment, relabeled, 4)
        cost = sum(H[p - 1, q - 1] for p, q in matching)
        assert cost == 0

    def test_matching_cost_is_optimal(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            D = int(rng.integers(2, 6))
            size = int(rng.integers(D * 2, D * 4))
            ap = self._full_assignment(rng, size, D)
            aq = self._full_assignment(rng, size, D)
            matching = match_districts(
                RedistrictingPlan(plan_id="p", assignment=ap),
                RedistrictingPlan(plan_id="q", assignment=aq),
            )
            H = oracles.hamming_matrix(ap, aq, D)
            cost = sum(H[p - 1, q - 1] for p, q in matching)
            assert cost == pytest.approx(oracles.assignment_min_cost(H))

    @staticmethod
    def _full_assignment(rng, size, D):
        labels = rng.integers(1, D + 1, size=size)
        labels[:D] = np.arange(1, D + 1)
        return labels

    def test_mismatched_plans_rejected(self):
        p3 = RedistrictingPlan(plan_id="p", assignment=[1, 2, 3])
        q2 = RedistrictingPlan(plan_id="q", assignment=[1, 2, 2])
        with pytest.raises(DistrictCountMismatch):
            match_districts(p3, q2)
        q4 = RedistrictingPlan(plan_id="q", assignment=[1, 2])
        with pytest.raises(PrecinctUniverseMismatch):
            match_districts(p3, q4)

    def test_plan_labels_must_be_dense_from_one(self):
        with pytest.raises(InvalidObjectFile):
            RedistrictingPlan(plan_id="p", assignment=[1, 3, 3])
        with pytest.raises(InvalidObjectFile):
            RedistrictingPlan(plan_id="p", assignment=[0, 1, 2])


class TestComparePlans:
    def test_identical_plans_have_negligible_distance(self):
        graph, plan_p, _, _ = band_fixture()
        (comparison,) = compare_plans(graph, [plan_p, plan_p], QUICK)
        assert comparison.matching == ((1, 1), (2, 2), (3, 3))
        assert comparison.total_distance <= 3e-8
        assert comparison.weight_matrix.shape == (3, graph.d)
        payload = json.loads(json.dumps(comparison.to_json_dict()))
        assert payload["matching"] == [[1, 1], [2, 2], [3, 3]]
        assert len(payload["per_district"]) == 3

    def test_moved_precinct_shows_up_in_the_matched_pairs(self):
        graph, plan_p, plan_q, moved = band_fixture()
        (comparison,) = compare_plans(graph, [plan_p, plan_q], QUICK)
        assert comparison.matching == ((1, 1), (2, 2), (3, 3))
        assert comparison.total_distance > 1e-6
        per_pair = [r.objective for r in comparison.per_district]
        # District 1 is untouched by the move; 2 and 3 exchange a precinct.
        assert per_pair[0] <= 1e-8
        assert max(per_pair[1], per_pair[2]) > 1e-6

    def test_shared_cache_builds_each_district_and_solves_each_pair_once(
        self, monkeypatch, caplog
    ):
        graph, plan_p, plan_q, _ = band_fixture()
        built, solved = [], []
        build, solve = pipelines.district_object, pipelines.solve_fsfgw
        monkeypatch.setattr(
            pipelines, "district_object", lambda g, idx: built.append(idx) or build(g, idx)
        )
        monkeypatch.setattr(
            pipelines, "solve_fsfgw", lambda x, y, c: solved.append(1) or solve(x, y, c)
        )
        caplog.set_level(logging.INFO, logger="fsfgw")
        # The plan pairs of [p, q, p] are (p, q), (p, p) and (q, p).  District
        # 1 is the same in both plans, so every comparison matches it with
        # itself; (q, p) meets districts 2 and 3 swapped.
        pq, _, qp = compare_plans(graph, [plan_p, plan_q, plan_p], QUICK)
        runs = [(plan_p, plan_q), (plan_p, plan_p), (plan_q, plan_p)]

        def key(plan, label):
            return tuple(np.flatnonzero(plan.assignment == label).tolist())

        districts = {key(plan, label) for plan in (plan_p, plan_q) for label in (1, 2, 3)}
        pairs = {
            frozenset((key(a, lp), key(b, lq)))
            for a, b in runs
            for lp, lq in match_districts(a, b)
        }
        assert (len(districts), len(pairs)) == (5, 5)
        assert sorted(built) == sorted(districts)
        assert len(solved) == len(pairs)
        assert caplog.records[-1].getMessage() == (
            "built 5 of 18 districts and ran 5 of 9 solves"
        )

        x, y = district_object(graph, key(plan_q, 2)), district_object(graph, key(plan_p, 2))
        direct = solve(x, y, QUICK)
        hit, stored = qp.per_district[1], pq.per_district[1]
        assert hit.plan.T.shape == (9, 10)
        assert np.array_equal(hit.plan.T, stored.plan.T.T)
        assert np.array_equal(hit.plan.T, direct.plan.T)
        assert np.array_equal(hit.plan.row_marginal, direct.plan.row_marginal)
        assert np.array_equal(hit.plan.col_marginal, direct.plan.col_marginal)
        for name in ("objective", "feature_term", "gw_term", "reg_term", "lambda_used",
                     "trace", "outer_iters", "converged"):
            assert getattr(hit, name) == getattr(direct, name), name
        assert np.array_equal(hit.weights.w, direct.weights.w)
        assert np.array_equal(hit.scores, direct.scores)

    def test_each_plan_pair_is_matched_once(self, monkeypatch):
        graph, plan_p, plan_q, _ = band_fixture()
        calls = []
        match = pipelines.match_districts
        monkeypatch.setattr(
            pipelines, "match_districts", lambda a, b: calls.append((a, b)) or match(a, b)
        )
        plans = [plan_p, plan_q, plan_p]
        assert len(compare_plans(graph, plans, QUICK)) == 3
        assert [(a.plan_id, b.plan_id) for a, b in calls] == [("p", "q"), ("p", "p"), ("q", "p")]

    def test_plan_must_cover_the_graph(self):
        graph, plan_p, _, _ = band_fixture()
        short = RedistrictingPlan(plan_id="s", assignment=plan_p.assignment[:-1])
        with pytest.raises(PrecinctUniverseMismatch):
            compare_plans(graph, [short, short], QUICK)


class TestObjectFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(12)
        obj = make_object(rng, 5, 3)
        path = tmp_path / "object.json"
        path.write_text(json.dumps(structured_object_to_dict(obj)))
        loaded = load_structured_object(path)
        assert np.allclose(loaded.C, obj.C, atol=1e-15)
        assert np.allclose(loaded.a, obj.a, atol=1e-15)
        assert np.allclose(loaded.X, obj.X, atol=1e-15)

    def test_uniform_measure_shorthand(self):
        doc = {"n": 3, "a": "uniform", "C": np.zeros((3, 3)).tolist(),
               "X": np.zeros((3, 1)).tolist()}
        obj = load_structured_object(doc)
        assert np.allclose(obj.a, 1 / 3)

    def test_edge_list_structure(self):
        doc = {"n": 3, "a": "uniform", "edges": [[0, 1], [1, 2]],
               "structure": "geodesic", "X": np.zeros((3, 1)).tolist()}
        obj = load_structured_object(doc)
        assert np.array_equal(obj.C, geodesic_structure([(0, 1), (1, 2)], range(3)))

    def test_exactly_one_structure_source(self):
        base = {"n": 2, "a": "uniform", "X": [[0.0], [1.0]]}
        with pytest.raises(InvalidObjectFile):
            load_structured_object({**base, "C": [[0, 1], [1, 0]],
                                    "edges": [[0, 1]], "structure": "geodesic"})
        with pytest.raises(InvalidObjectFile):
            load_structured_object(base)

    def test_edge_documents_must_declare_geodesic(self):
        with pytest.raises(InvalidObjectFile):
            load_structured_object(
                {"n": 2, "a": "uniform", "X": [[0.0], [1.0]], "edges": [[0, 1]]}
            )

    def test_edge_endpoints_validated(self):
        with pytest.raises(InvalidObjectFile):
            load_structured_object(
                {"n": 2, "a": "uniform", "X": [[0.0], [1.0]],
                 "edges": [[0, 5]], "structure": "geodesic"}
            )

    @pytest.mark.parametrize("n", [3, 7, 2.5, 5.0, "5", True],
                             ids=["fewer", "more", "fraction", "float", "string", "bool"])
    def test_node_count_must_be_the_integer_size(self, tmp_path, n):
        rng = np.random.default_rng(13)
        doc = structured_object_to_dict(make_object(rng, 5, 2))
        path = tmp_path / "object.json"
        path.write_text(json.dumps({**doc, "n": n}))
        with pytest.raises(InvalidObjectFile, match=re.escape(str(path))):
            load_structured_object(path)

    @pytest.mark.parametrize("key, value", [("a", [0.5, 0.5]), ("X", [[0.0], [1.0]])])
    def test_node_count_checked_against_every_field(self, key, value):
        doc = {"n": 3, "a": "uniform", "C": np.zeros((3, 3)).tolist(),
               "X": np.zeros((3, 1)).tolist(), key: value}
        with pytest.raises(InvalidObjectFile, match=repr(key)):
            load_structured_object(doc)

    def test_edge_list_node_count_is_checked(self):
        doc = {"n": 3, "a": "uniform", "edges": [[0, 1], [1, 2]],
               "structure": "geodesic", "X": np.zeros((4, 1)).tolist()}
        with pytest.raises(InvalidObjectFile, match="'X'"):
            load_structured_object(doc)

    def test_feature_names_must_be_a_list(self):
        doc = {"n": 2, "a": "uniform", "C": np.zeros((2, 2)).tolist(),
               "X": np.zeros((2, 3)).tolist(), "feature_names": "xyz"}
        with pytest.raises(InvalidObjectFile, match="feature_names"):
            load_structured_object(doc)
        names = load_structured_object({**doc, "feature_names": ["x", "y", "z"]}).feature_names
        assert names == ("x", "y", "z")

    def test_missing_keys(self):
        with pytest.raises(InvalidObjectFile):
            load_structured_object({"n": 2, "C": [[0, 0], [0, 0]]})
        with pytest.raises(InvalidObjectFile):
            load_structured_object([1, 2, 3])


def write_band_csvs(tmp_path):
    graph, plan_p, plan_q, _ = band_fixture()
    nodes = tmp_path / "nodes.csv"
    lines = ["precinct_id,population," + ",".join(graph.feature_names)]
    for i, pid in enumerate(graph.precinct_ids):
        feats = ",".join(repr(float(v)) for v in graph.features[i])
        lines.append(f"{pid},{float(graph.population[i])!r},{feats}")
    nodes.write_text("\n".join(lines) + "\n")
    edges = tmp_path / "edges.csv"
    rows = ["precinct_id_a,precinct_id_b"]
    for i, j in graph.adjacency:
        rows.append(f"{graph.precinct_ids[i]},{graph.precinct_ids[j]}")
    edges.write_text("\n".join(rows) + "\n")
    for name, plan in (("plan_p.csv", plan_p), ("plan_q.csv", plan_q)):
        body = ["precinct_id,district"]
        for pid, dist in zip(graph.precinct_ids, plan.assignment):
            body.append(f"{pid},{dist}")
        (tmp_path / name).write_text("\n".join(body) + "\n")
    return graph, plan_p, plan_q


class TestPrecinctCsvs:
    def test_round_trip(self, tmp_path):
        graph, plan_p, _ = write_band_csvs(tmp_path)
        loaded = load_precinct_graph(tmp_path / "nodes.csv", tmp_path / "edges.csv")
        assert loaded.precinct_ids == graph.precinct_ids
        assert loaded.adjacency == graph.adjacency
        assert np.allclose(loaded.features, graph.features, atol=1e-15)
        assert np.allclose(loaded.population, graph.population, atol=1e-15)
        plan = load_plan_csv(tmp_path / "plan_p.csv", loaded)
        assert plan.plan_id == "p"
        assert np.array_equal(plan.assignment, plan_p.assignment)

    def test_plan_id_comes_from_the_stem(self, tmp_path):
        graph = PrecinctGraph(
            precinct_ids=("a", "b"), adjacency=((0, 1),),
            features=np.zeros((2, 1)), population=np.ones(2), feature_names=("v0",),
        )
        for name, expect in (("plan_A.csv", "A"), ("B.csv", "B")):
            path = tmp_path / name
            path.write_text("precinct_id,district\na,1\nb,2\n")
            assert load_plan_csv(path, graph).plan_id == expect
        assert load_plan_csv(path, graph, plan_id="override").plan_id == "override"

    def test_nodes_header_checked(self, tmp_path):
        bad = tmp_path / "nodes.csv"
        bad.write_text("id,population,v0\na,1,0\n")
        (tmp_path / "edges.csv").write_text("precinct_id_a,precinct_id_b\n")
        with pytest.raises(InvalidObjectFile):
            load_precinct_graph(bad, tmp_path / "edges.csv")
        bad.write_text("precinct_id,pop,v0\na,1,0\n")
        with pytest.raises(InvalidObjectFile):
            load_precinct_graph(bad, tmp_path / "edges.csv")

    def test_edges_header_and_ids_checked(self, tmp_path):
        (tmp_path / "nodes.csv").write_text("precinct_id,population,v0\na,1,0\nb,1,0\n")
        edges = tmp_path / "edges.csv"
        edges.write_text("a,b\na,b\n")
        with pytest.raises(InvalidObjectFile):
            load_precinct_graph(tmp_path / "nodes.csv", edges)
        edges.write_text("precinct_id_a,precinct_id_b\na,zzz\n")
        with pytest.raises(InvalidObjectFile):
            load_precinct_graph(tmp_path / "nodes.csv", edges)

    def test_ragged_node_rows_rejected(self, tmp_path):
        (tmp_path / "nodes.csv").write_text("precinct_id,population,v0\na,1\n")
        (tmp_path / "edges.csv").write_text("precinct_id_a,precinct_id_b\n")
        with pytest.raises(InvalidObjectFile):
            load_precinct_graph(tmp_path / "nodes.csv", tmp_path / "edges.csv")

    def test_plan_rows_must_cover_the_universe(self, tmp_path):
        graph = PrecinctGraph(
            precinct_ids=("a", "b"), adjacency=((0, 1),),
            features=np.zeros((2, 1)), population=np.ones(2), feature_names=("v0",),
        )
        plan = tmp_path / "plan.csv"
        plan.write_text("precinct_id,district\na,1\na,1\n")
        with pytest.raises(PrecinctUniverseMismatch):
            load_plan_csv(plan, graph)
        plan.write_text("precinct_id,district\na,1\n")
        with pytest.raises(PrecinctUniverseMismatch):
            load_plan_csv(plan, graph)
        plan.write_text("precinct_id,district\na,1\nb,2\nc,1\n")
        with pytest.raises(PrecinctUniverseMismatch):
            load_plan_csv(plan, graph)
        plan.write_text("district,precinct_id\n1,a\n2,b\n")
        with pytest.raises(InvalidObjectFile):
            load_plan_csv(plan, graph)

    def test_graph_validation(self):
        with pytest.raises(InvalidObjectFile):
            PrecinctGraph(
                precinct_ids=("a", "a"), adjacency=(),
                features=np.zeros((2, 1)), population=np.ones(2), feature_names=("v0",),
            )
        with pytest.raises(InvalidObjectFile):
            PrecinctGraph(
                precinct_ids=("a", "b"), adjacency=((0, 0),),
                features=np.zeros((2, 1)), population=np.ones(2), feature_names=("v0",),
            )
        with pytest.raises(InvalidObjectFile):
            PrecinctGraph(
                precinct_ids=("a", "b"), adjacency=((0, 5),),
                features=np.zeros((2, 1)), population=np.ones(2), feature_names=("v0",),
            )

    def test_duplicate_edges_are_collapsed(self):
        graph = PrecinctGraph(
            precinct_ids=("a", "b"), adjacency=((0, 1), (1, 0), (0, 1)),
            features=np.zeros((2, 1)), population=np.ones(2), feature_names=("v0",),
        )
        assert graph.adjacency == ((0, 1),)
