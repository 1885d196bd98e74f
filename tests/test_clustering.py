"""Tests for adaptive clustering (repro.clustering)."""

import numpy as np
import pytest

from repro.clustering import (
    DEFAULT_THETA_F,
    DEFAULT_THETA_N,
    FEATURE_NAMES,
    NUM_FEATURES,
    adaptive_cluster,
)
from repro.statemachines import two_level_machine
from repro.trace import DeviceType, EventType

from conftest import make_trace
from oracle import clustering as oracle_clustering
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


def _matrix(features):
    """Feature dict -> (sorted UE ids, rows in that order)."""
    ues = sorted(features)
    return ues, np.vstack([features[ue] for ue in ues])


class TestAdaptiveCluster:
    def test_defaults_match_paper(self):
        assert DEFAULT_THETA_F == 5.0
        assert DEFAULT_THETA_N == 1000

    def test_empty_input(self):
        codes = adaptive_cluster(np.empty((0, 4)))
        assert codes.dtype == np.int64
        assert codes.shape == (0,)

    def test_rejects_a_vector(self):
        with pytest.raises(ValueError, match=r"\(n, d\) matrix"):
            adaptive_cluster(np.zeros(4))

    def test_partition_is_exact(self, rng):
        matrix = rng.uniform(0, 50, (300, 4))
        codes = adaptive_cluster(matrix, theta_n=20)
        assert codes.dtype == np.int64
        assert codes.shape == (300,)
        # Codes are 0 .. C-1 and every one of them is used.
        assert codes.min() == 0
        assert np.all(np.bincount(codes) > 0)

    def test_similar_ues_stay_together(self, rng):
        matrix = np.full((100, 4), 10.0) + rng.uniform(0, 1, (100, 4))
        codes = adaptive_cluster(matrix, theta_f=5.0, theta_n=10)
        assert np.all(codes == 0)

    def test_dissimilar_ues_split(self, rng):
        matrix = np.vstack(
            [rng.uniform(0, 1, (50, 4)), rng.uniform(100, 101, (50, 4))]
        )
        codes = adaptive_cluster(matrix, theta_f=5.0, theta_n=5)
        assert codes.max() >= 1
        # The two groups never share a cluster.
        assert set(codes[:50].tolist()).isdisjoint(codes[50:].tolist())

    def test_small_cluster_not_split(self, rng):
        codes = adaptive_cluster(rng.uniform(0, 1000, (30, 4)), theta_n=1000)
        assert np.all(codes == 0)

    def test_theta_f_controls_granularity(self, rng):
        matrix = rng.uniform(0, 100, (400, 4))
        coarse = adaptive_cluster(matrix, theta_f=200.0, theta_n=10)
        fine = adaptive_cluster(matrix, theta_f=2.0, theta_n=10)
        assert fine.max() > coarse.max()

    def test_weights_sum_to_one(self, rng):
        """Cluster weights are the code counts over the population, the
        object oracle's ``weights()``."""
        features = {i: rng.uniform(0, 100, 4) for i in range(200)}
        _, matrix = _matrix(features)
        weights = np.bincount(adaptive_cluster(matrix, theta_n=20)) / len(matrix)
        assert weights.sum() == pytest.approx(1.0)
        expected = oracle_clustering.adaptive_cluster(features, theta_n=20)
        assert np.array_equal(weights, expected.weights())

    def test_cluster_of(self, rng):
        features = {i: rng.uniform(0, 100, 4) for i in range(100)}
        ues, matrix = _matrix(features)
        codes = adaptive_cluster(matrix, theta_n=10)
        expected = oracle_clustering.adaptive_cluster(features, theta_n=10)
        for ue, code in zip(ues, codes.tolist()):
            cluster = expected.cluster_of(ue)
            assert cluster.cluster_id == code
            assert ue in cluster.ue_ids

    def test_identical_points_terminate(self):
        codes = adaptive_cluster(np.full((100, 4), 7.0), theta_f=0.0, theta_n=1)
        assert np.all(codes == 0)

    def test_two_dimensional_quadtree(self, rng):
        """With 2 features the scheme is literally a quadtree."""
        codes = adaptive_cluster(rng.uniform(0, 100, (500, 2)), theta_f=10.0, theta_n=5)
        assert codes.max() + 1 > 4

    def test_cluster_bounds_contain_members(self, rng):
        """The object oracle's cells hold their members, and its
        partition is the codes'."""
        features = {i: rng.uniform(0, 100, 4) for i in range(300)}
        ues, matrix = _matrix(features)
        result = oracle_clustering.adaptive_cluster(features, theta_n=20)
        codes = adaptive_cluster(matrix, theta_n=20)
        for cluster in result.clusters:
            assert cluster.ue_ids == tuple(np.asarray(ues)[codes == cluster.cluster_id])
            for ue in cluster.ue_ids:
                f = features[ue]
                assert np.all(f >= cluster.lower - 1e-9)
                assert np.all(f <= cluster.upper + 1e-9)


class TestSingleCluster:
    def test_one_cluster_everything(self):
        result = oracle_clustering.single_cluster([3, 1, 2], 4)
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
            ues, matrix = _matrix(features)
            codes = adaptive_cluster(matrix, theta_f=5.0, theta_n=10)
            assert codes.tolist() == [ref_assignment[ue] for ue in ues]
            assert [
                tuple(np.asarray(ues)[codes == c].tolist())
                for c in range(len(ref_clusters))
            ] == ref_clusters

    def test_deep_split_has_no_recursion_limit(self):
        # A geometric ladder of points peels off exactly one UE per
        # midpoint split, driving the tree ~1070 levels deep - far
        # beyond Python's default recursion limit.
        matrix = np.append(2.0 ** -np.arange(1070.0), 0.0)[:, None]
        codes = adaptive_cluster(matrix, theta_f=0.0, theta_n=1)
        assert sorted(codes.tolist()) == list(range(len(matrix)))

    @pytest.mark.slow
    def test_million_row_regression(self):
        rng = np.random.default_rng(7)
        n = 1_000_000
        matrix = rng.uniform(0.0, 100.0, size=(n, 2))
        codes = adaptive_cluster(matrix, theta_f=10.0, theta_n=5000)
        assert codes.shape == (n,)
        sizes = np.bincount(codes)
        assert np.all(sizes > 0)
        # Per-cluster spread from one sort by code.
        order = np.argsort(codes, kind="stable")
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        cells = matrix[order]
        spread = np.maximum.reduceat(cells, starts) - np.minimum.reduceat(cells, starts)
        assert np.all((sizes < 5000) | np.all(spread < 10.0, axis=1))
