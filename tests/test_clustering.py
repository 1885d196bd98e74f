"""Tests for adaptive clustering (repro.clustering)."""

import numpy as np
import pytest

from repro.clustering import (
    DEFAULT_THETA_F,
    DEFAULT_THETA_N,
    FEATURE_NAMES,
    NUM_FEATURES,
    adaptive_cluster,
    single_cluster,
)
from repro.statemachines import two_level_machine
from repro.trace import DeviceType, EventType

from conftest import make_trace
from oracle import fit as oracle_fit

E = EventType
P = DeviceType.PHONE


def _segment_features(events, times):
    """Clustering features of one UE's events, as one one-slot segment
    through the fit oracle's per-segment feature pipeline."""
    machine = two_level_machine()
    segment = oracle_fit._Segment(
        ue_id=1,
        slot=0,
        event_types=np.asarray(events),
        times=np.asarray(times, dtype=np.float64),
    )
    oracle_fit._replay_segments([segment], machine, "two_level")
    return oracle_fit._hour_features([segment], [1], machine)[1]


class TestFeatures:
    def test_four_features(self):
        assert NUM_FEATURES == 4
        assert FEATURE_NAMES == (
            "srv_req_count",
            "s1_conn_rel_count",
            "connected_sojourn_std",
            "idle_sojourn_std",
        )

    def test_counts(self):
        events = np.array([int(E.SRV_REQ), int(E.S1_CONN_REL), int(E.SRV_REQ)])
        times = np.array([1.0, 5.0, 10.0])
        f = _segment_features(events, times)
        assert f[0] == 2.0  # SRV_REQ count
        assert f[1] == 1.0  # S1_CONN_REL count

    def test_sojourn_std_zero_with_single_visit(self):
        events = np.array([int(E.SRV_REQ), int(E.S1_CONN_REL)])
        times = np.array([1.0, 5.0])
        f = _segment_features(events, times)
        assert f[2] == 0.0
        assert f[3] == 0.0

    def test_sojourn_std_from_multiple_visits(self):
        # Two CONNECTED visits of durations 4 and 10 -> std 3.
        events = np.array(
            [
                int(E.SRV_REQ), int(E.S1_CONN_REL),
                int(E.SRV_REQ), int(E.S1_CONN_REL),
                int(E.SRV_REQ), int(E.S1_CONN_REL),
            ]
        )
        times = np.array([0.0, 4.0, 10.0, 20.0, 30.0, 31.0])
        f = _segment_features(events, times)
        connected = np.array([4.0, 10.0, 1.0])
        assert f[2] == pytest.approx(connected.std())

    def test_hour_features_all_ues(self, tiny_trace):
        per_ue = dict(tiny_trace.per_ue())
        segments = oracle_fit._build_segments(per_ue, [1, 2], [0])
        machine = two_level_machine()
        oracle_fit._replay_segments(segments, machine, "two_level")
        feats = oracle_fit._hour_features(segments, [1, 2], machine)
        assert set(feats) == {1, 2}
        assert all(v.shape == (4,) for v in feats.values())


class TestAdaptiveCluster:
    def test_defaults_match_paper(self):
        assert DEFAULT_THETA_F == 5.0
        assert DEFAULT_THETA_N == 1000

    def test_empty_input(self):
        result = adaptive_cluster({})
        assert result.num_clusters == 0

    def test_partition_is_exact(self, rng):
        features = {i: rng.uniform(0, 50, 4) for i in range(300)}
        result = adaptive_cluster(features, theta_n=20)
        covered = sorted(
            ue for c in result.clusters for ue in c.ue_ids
        )
        assert covered == sorted(features)
        # Every UE is assigned to exactly one cluster.
        assert set(result.assignment) == set(features)

    def test_similar_ues_stay_together(self, rng):
        features = {i: np.full(4, 10.0) + rng.uniform(0, 1, 4) for i in range(100)}
        result = adaptive_cluster(features, theta_f=5.0, theta_n=10)
        assert result.num_clusters == 1

    def test_dissimilar_ues_split(self, rng):
        features = {}
        for i in range(50):
            features[i] = rng.uniform(0, 1, 4)
        for i in range(50, 100):
            features[i] = rng.uniform(100, 101, 4)
        result = adaptive_cluster(features, theta_f=5.0, theta_n=5)
        assert result.num_clusters >= 2
        # The two groups never share a cluster.
        low = {result.assignment[i] for i in range(50)}
        high = {result.assignment[i] for i in range(50, 100)}
        assert low.isdisjoint(high)

    def test_small_cluster_not_split(self, rng):
        features = {i: rng.uniform(0, 1000, 4) for i in range(30)}
        result = adaptive_cluster(features, theta_n=1000)
        assert result.num_clusters == 1

    def test_theta_f_controls_granularity(self, rng):
        features = {i: rng.uniform(0, 100, 4) for i in range(400)}
        coarse = adaptive_cluster(features, theta_f=200.0, theta_n=10)
        fine = adaptive_cluster(features, theta_f=2.0, theta_n=10)
        assert fine.num_clusters > coarse.num_clusters

    def test_weights_sum_to_one(self, rng):
        features = {i: rng.uniform(0, 100, 4) for i in range(200)}
        result = adaptive_cluster(features, theta_n=20)
        assert result.weights().sum() == pytest.approx(1.0)

    def test_cluster_of(self, rng):
        features = {i: rng.uniform(0, 100, 4) for i in range(100)}
        result = adaptive_cluster(features, theta_n=10)
        for ue in features:
            cluster = result.cluster_of(ue)
            assert ue in cluster.ue_ids

    def test_identical_points_terminate(self):
        features = {i: np.full(4, 7.0) for i in range(100)}
        result = adaptive_cluster(features, theta_f=0.0, theta_n=1)
        assert result.num_clusters == 1

    def test_two_dimensional_quadtree(self, rng):
        """With 2 features the scheme is literally a quadtree."""
        features = {i: rng.uniform(0, 100, 2) for i in range(500)}
        result = adaptive_cluster(features, theta_f=10.0, theta_n=5)
        assert result.num_clusters > 4

    def test_cluster_bounds_contain_members(self, rng):
        features = {i: rng.uniform(0, 100, 4) for i in range(300)}
        result = adaptive_cluster(features, theta_n=20)
        for cluster in result.clusters:
            for ue in cluster.ue_ids:
                f = features[ue]
                assert np.all(f >= cluster.lower - 1e-9)
                assert np.all(f <= cluster.upper + 1e-9)


class TestSingleCluster:
    def test_one_cluster_everything(self):
        result = single_cluster([3, 1, 2], 4)
        assert result.num_clusters == 1
        assert result.clusters[0].ue_ids == (1, 2, 3)
        assert result.assignment == {1: 0, 2: 0, 3: 0}


def _recursive_reference(features, theta_f, theta_n):
    """The pre-iterative recursive formulation, kept as a regression pin.

    Returns (cluster member tuples in DFS order, ue -> cluster id).
    """
    ue_ids = np.asarray(sorted(features), dtype=np.int64)
    matrix = np.vstack([features[int(ue)] for ue in ue_ids])
    dims = matrix.shape[1]
    dim_weights = 1 << np.arange(dims)
    clusters = []
    assignment = {}

    def finalize(rows):
        cluster_id = len(clusters)
        members = tuple(ue_ids[rows].tolist())
        clusters.append(members)
        for ue in members:
            assignment[ue] = cluster_id

    def visit(rows, lower, upper):
        cell = matrix[rows]
        spread = cell.max(axis=0) - cell.min(axis=0)
        if len(rows) < theta_n or bool(np.all(spread < theta_f)):
            return finalize(rows)
        mid = (lower + upper) / 2.0
        bits = (cell >= mid).astype(np.int64)
        child_index = bits @ dim_weights
        children = np.unique(child_index)
        if len(children) == 1:
            return finalize(rows)
        for child in children:
            child_rows = rows[child_index == child]
            child_bits = (int(child) >> np.arange(dims)) & 1
            visit(
                child_rows,
                np.where(child_bits == 1, mid, lower),
                np.where(child_bits == 1, upper, mid),
            )

    visit(np.arange(len(ue_ids)), matrix.min(axis=0), matrix.max(axis=0))
    return clusters, assignment


class TestIterativeQuadtree:
    def test_matches_recursive_formulation(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            features = {ue: rng.uniform(0.0, 50.0, size=4) for ue in range(200)}
            ref_clusters, ref_assignment = _recursive_reference(features, 5.0, 10)
            result = adaptive_cluster(features, theta_f=5.0, theta_n=10)
            assert [c.ue_ids for c in result.clusters] == ref_clusters
            assert result.assignment == ref_assignment

    def test_deep_split_has_no_recursion_limit(self):
        # A geometric ladder of points peels off exactly one UE per
        # midpoint split, driving the tree ~1070 levels deep - far
        # beyond Python's default recursion limit.
        features = {k: np.array([2.0 ** -k]) for k in range(1070)}
        features[1070] = np.array([0.0])
        result = adaptive_cluster(features, theta_f=0.0, theta_n=1)
        assert result.num_clusters == len(features)
        assert all(cluster.size == 1 for cluster in result.clusters)

    @pytest.mark.slow
    def test_million_row_regression(self):
        rng = np.random.default_rng(7)
        n = 1_000_000
        matrix = rng.uniform(0.0, 100.0, size=(n, 2))
        features = {ue: matrix[ue] for ue in range(n)}
        result = adaptive_cluster(features, theta_f=10.0, theta_n=5000)
        assert sum(c.size for c in result.clusters) == n
        assert set(result.assignment) == set(range(n))
        for cluster in result.clusters:
            rows = np.asarray(cluster.ue_ids)
            assert result.cluster_of(int(rows[0])) is cluster
            cell = matrix[rows]
            spread = cell.max(axis=0) - cell.min(axis=0)
            assert cluster.size < 5000 or bool(np.all(spread < 10.0))
