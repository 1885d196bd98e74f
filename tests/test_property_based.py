"""Property-based tests (hypothesis) on core data structures and invariants."""

import itertools
import pathlib
import tempfile
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clustering import adaptive_cluster
from repro.clustering.quadtree import DEFAULT_THETA_F
from repro.distributions import EmpiricalCDF, Exponential, Pareto, Weibull
from repro.generator import TrafficGenerator, traffgen
from repro.generator.compiled import CompiledPopulation
from repro.stats import ecdf, kolmogorov_sf, ks_distance_to, max_y_distance
from repro.statemachines import replay_trace, two_level_machine
from repro.trace import DeviceType, EventType, Trace

from conftest import TRACE_START_HOUR
from oracle import clustering as oracle_clustering

SETTINGS = settings(
    max_examples=50, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

positive_floats = st.floats(
    min_value=1e-3, max_value=1e6, allow_nan=False, allow_infinity=False
)
sample_lists = st.lists(positive_floats, min_size=2, max_size=200)


class TestDistributionInvariants:
    @SETTINGS
    @given(sample_lists)
    def test_exponential_mean_matches_samples(self, samples):
        dist = Exponential.fit(samples)
        assert abs(dist.mean() - float(np.mean(samples))) < 1e-6 * max(samples)

    @SETTINGS
    @given(sample_lists)
    def test_empirical_cdf_bounds(self, samples):
        dist = EmpiricalCDF.fit(samples)
        lo, hi = dist.support
        assert lo == min(samples)
        assert hi == max(samples)
        qs = dist.ppf(np.linspace(0, 1, 21))
        assert np.all(qs >= lo - 1e-12)
        assert np.all(qs <= hi + 1e-12)
        assert np.all(np.diff(qs) >= -1e-12)

    @SETTINGS
    @given(sample_lists)
    def test_empirical_roundtrip_preserves_quantiles(self, samples):
        dist = EmpiricalCDF.fit(samples)
        back = EmpiricalCDF.from_list(dist.to_list())
        assert np.allclose(back.quantiles, dist.quantiles)

    @SETTINGS
    @given(sample_lists, st.integers(min_value=0, max_value=2**31 - 1))
    def test_samples_stay_in_support(self, samples, seed):
        dist = EmpiricalCDF.fit(samples)
        rng = np.random.default_rng(seed)
        out = dist.sample(rng, 50)
        lo, hi = dist.support
        assert np.all((out >= lo - 1e-9) & (out <= hi + 1e-9))

    @SETTINGS
    @given(sample_lists)
    def test_ks_distance_bounded(self, samples):
        dist = Exponential.fit(samples)
        d = ks_distance_to(dist, samples)
        assert 0.0 <= d <= 1.0

    @SETTINGS
    @given(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.01, max_value=100.0),
    )
    def test_pareto_ppf_cdf_inverse(self, alpha, x_m):
        dist = Pareto(alpha=alpha, x_m=x_m)
        qs = np.array([0.01, 0.5, 0.99])
        assert np.allclose(dist.cdf(dist.ppf(qs)), qs, atol=1e-9)

    @SETTINGS
    @given(
        st.floats(min_value=0.2, max_value=10.0),
        st.floats(min_value=0.01, max_value=1000.0),
    )
    def test_weibull_ppf_cdf_inverse(self, k, lam):
        dist = Weibull(k=k, lam=lam)
        qs = np.array([0.05, 0.5, 0.95])
        assert np.allclose(dist.cdf(dist.ppf(qs)), qs, atol=1e-9)


class TestStatsInvariants:
    @SETTINGS
    @given(sample_lists)
    def test_ecdf_is_nondecreasing_and_hits_one(self, samples):
        xs, ps = ecdf(samples)
        assert np.all(np.diff(ps) >= 0)
        assert ps[-1] == 1.0

    @SETTINGS
    @given(sample_lists, sample_lists)
    def test_max_y_distance_is_metric_like(self, a, b):
        d = max_y_distance(a, b)
        assert 0.0 <= d <= 1.0
        assert d == max_y_distance(b, a)
        assert max_y_distance(a, a) == 0.0

    @SETTINGS
    @given(
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=60),
        st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=60),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    def test_max_y_distance_equals_union_grid(self, a, b, scale):
        """The merged, undeduplicated grid gives the same double as the
        union formula, with ties inside and across the samples."""
        a = np.sort(np.asarray(a, dtype=np.float64) * scale)
        b = np.sort(np.asarray(b, dtype=np.float64) * scale)
        grid = np.union1d(a, b)
        union = float(
            np.max(
                np.abs(
                    np.searchsorted(a, grid, side="right") / a.size
                    - np.searchsorted(b, grid, side="right") / b.size
                )
            )
        )
        assert max_y_distance(a, b) == union
        assert max_y_distance(b[::-1], a[::-1]) == union

    @SETTINGS
    @given(st.floats(min_value=0.0, max_value=10.0))
    def test_kolmogorov_sf_is_probability(self, x):
        q = kolmogorov_sf(x)
        assert 0.0 <= q <= 1.0


cluster_features = st.dictionaries(
    st.integers(min_value=0, max_value=10_000),
    st.lists(
        st.floats(min_value=0, max_value=1e4, allow_nan=False),
        min_size=4,
        max_size=4,
    ),
    min_size=1,
    max_size=60,
)
cluster_theta_n = st.integers(min_value=1, max_value=50)


def _sorted_matrix(raw):
    """Feature dict -> (sorted UE ids, rows in that order)."""
    ues = sorted(raw)
    return ues, np.asarray([raw[ue] for ue in ues], dtype=np.float64)


class TestClusteringInvariants:
    @SETTINGS
    @given(cluster_features, cluster_theta_n)
    def test_partition_properties(self, raw, theta_n):
        _, matrix = _sorted_matrix(raw)
        codes = adaptive_cluster(matrix, theta_n=theta_n)
        # Exact partition: one code per row, codes 0 .. C-1, none unused.
        assert codes.dtype == np.int64
        assert codes.shape == (len(raw),)
        assert codes.min() == 0
        assert np.all(np.bincount(codes) > 0)

    @SETTINGS
    @given(cluster_features, cluster_theta_n)
    def test_matches_object_oracle(self, raw, theta_n):
        """The codes are the object oracle's ``assignment``, taken in
        sorted-UE order."""
        ues, matrix = _sorted_matrix(raw)
        features = {ue: np.asarray(v) for ue, v in raw.items()}
        expected = oracle_clustering.adaptive_cluster(features, theta_n=theta_n)
        codes = adaptive_cluster(matrix, theta_n=theta_n)
        assert codes.tolist() == [expected.assignment[ue] for ue in ues]

    @SETTINGS
    @given(cluster_features, cluster_theta_n)
    def test_members_lie_in_cell_bounds(self, raw, theta_n):
        features = {ue: np.asarray(v) for ue, v in raw.items()}
        result = oracle_clustering.adaptive_cluster(features, theta_n=theta_n)
        for cluster in result.clusters:
            points = np.vstack([features[ue] for ue in cluster.ue_ids])
            assert np.all(points >= cluster.lower - 1e-9)
            assert np.all(points <= cluster.upper + 1e-9)

    @SETTINGS
    @given(cluster_features, cluster_theta_n)
    def test_theta_n_stopping_rule(self, raw, theta_n):
        """A cluster at or above ``theta_n`` only survives unsplit when
        the paper's other stop condition holds (every feature's spread
        below ``theta_f``) or when a midpoint split cannot separate its
        members (degenerate cell)."""
        features = {ue: np.asarray(v) for ue, v in raw.items()}
        result = oracle_clustering.adaptive_cluster(features, theta_n=theta_n)
        for cluster in result.clusters:
            if cluster.size < theta_n:
                continue
            points = np.vstack([features[ue] for ue in cluster.ue_ids])
            spread = points.max(axis=0) - points.min(axis=0)
            if np.all(spread < DEFAULT_THETA_F):
                continue
            mid = (cluster.lower + cluster.upper) / 2.0
            bits = (points >= mid).astype(np.int64)
            child = bits @ (1 << np.arange(points.shape[1]))
            assert len(np.unique(child)) == 1, (
                f"cluster {cluster.cluster_id} has {cluster.size} >= "
                f"{theta_n} UEs, spread {spread}, yet a midpoint split "
                "would have separated it"
            )

    @SETTINGS
    @given(cluster_features, cluster_theta_n, st.randoms())
    def test_permutation_invariance(self, raw, theta_n, rnd):
        """The codes are a function of each row's values: permuting the
        rows permutes the codes the same way."""
        _, matrix = _sorted_matrix(raw)
        perm = list(range(len(matrix)))
        rnd.shuffle(perm)
        baseline = adaptive_cluster(matrix, theta_n=theta_n)
        shuffled = adaptive_cluster(matrix[perm], theta_n=theta_n)
        assert np.array_equal(shuffled, baseline[perm])


valid_event_walks = st.lists(
    st.sampled_from(list(EventType)), min_size=0, max_size=40
)


def _one_ue_trace(events) -> Trace:
    """One UE firing ``events`` one second apart."""
    n = len(events)
    return Trace(
        np.zeros(n, dtype=np.int64),
        np.arange(n, dtype=np.float64),
        np.asarray([int(e) for e in events], dtype=np.int8),
        np.zeros(n, dtype=np.int8),
    )


class TestReplayInvariants:
    @SETTINGS
    @given(valid_event_walks)
    def test_replay_never_crashes_and_counts_records(self, events):
        replay = replay_trace(_one_ue_trace(events))
        assert len(replay) == len(events)
        assert replay.violations >= 0

    @SETTINGS
    @given(valid_event_walks)
    def test_replay_respects_machine_for_unforced_records(self, events):
        machine = two_level_machine()
        replay = replay_trace(_one_ue_trace(events))
        names = replay.table.names
        for src, event, tgt in zip(replay.sources, replay.events, replay.targets):
            assert machine.next_state(names[src], EventType(int(event))) == names[tgt]


class TestTraceInvariants:
    @SETTINGS
    @given(
        st.tuples(
            st.lists(st.sampled_from(list(DeviceType)), min_size=51, max_size=51),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=50),
                    st.floats(min_value=0, max_value=1e5, allow_nan=False),
                    st.sampled_from(list(EventType)),
                ),
                max_size=100,
            ),
        ).map(lambda drawn: [(u, t, e, drawn[0][u]) for u, t, e in drawn[1]])
    )
    def test_trace_always_sorted_and_partitionable(self, rows):
        tr = Trace(
            np.array([r[0] for r in rows], dtype=np.int64),
            np.array([r[1] for r in rows], dtype=np.float64),
            np.array([int(r[2]) for r in rows], dtype=np.int8),
            np.array([int(r[3]) for r in rows], dtype=np.int8),
        )
        assert np.all(np.diff(tr.times) >= 0)
        total = sum(len(sub) for _, sub in tr.per_ue())
        assert total == len(tr)
        if len(tr):
            assert abs(sum(tr.breakdown().values()) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# Checkpoint/resume round-trips under arbitrary interruption points
# ---------------------------------------------------------------------------

CK_POP = 12
CK_RUN = dict(start_hour=TRACE_START_HOUR, num_hours=2)
CK_SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestCheckpointRoundTripProperties:
    """An interrupted checkpointed run, resumed, is bit-identical to an
    uninterrupted run with the same arguments — wherever the interrupt
    lands (hypothesis draws the kill point)."""

    _clean = {}

    def _clean_trace(self, model_set, seed):
        """Uninterrupted serial oracle, cached across examples.  The
        parallel path is specified to be bit-identical to serial, so
        one oracle serves both round-trip properties."""
        if seed not in self._clean:
            self._clean[seed] = TrafficGenerator(model_set).generate(
                CK_POP, seed=seed, **CK_RUN
            )
        return self._clean[seed]

    @CK_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=5),
        kill_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_interrupt_any_hour_resume_bit_identical(
        self, ours_model_set, seed, kill_frac
    ):
        gen = TrafficGenerator(ours_model_set)
        clean = self._clean_trace(ours_model_set, seed)
        # Each chunk of the default serial plan (one per device type
        # here) steps once per hour; kill_frac spans every step of the
        # run, so the kill can land in any hour of any chunk.
        # kill_frac == 1.0 maps past the last step: the run completes
        # and resume-after-completion must still reproduce it.
        counts = gen.resolve_counts(CK_POP)
        num_hours = CK_RUN["num_hours"]
        plan = traffgen._plan_chunks(
            counts, traffgen._chunk_ues(counts, 1, num_hours), 0
        )
        kill_after = int(kill_frac * len(plan) * num_hours)

        original = CompiledPopulation.advance_hour
        calls = itertools.count()

        def dying(self, *args, **kwargs):
            if next(calls) >= kill_after:
                raise KeyboardInterrupt
            return original(self, *args, **kwargs)

        with tempfile.TemporaryDirectory() as tmp:
            path = pathlib.Path(tmp) / "run.npz"
            CompiledPopulation.advance_hour = dying
            try:
                try:
                    gen.generate(
                        CK_POP, seed=seed, checkpoint_path=path, **CK_RUN
                    )
                except KeyboardInterrupt:
                    pass
            finally:
                CompiledPopulation.advance_hour = original
            resumed = gen.generate(
                CK_POP, seed=seed, checkpoint_path=path, resume=True, **CK_RUN
            )
        assert resumed == clean

    @CK_SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=5),
        kill_chunk=st.integers(min_value=0, max_value=3),
    )
    def test_parallel_interrupt_any_chunk_resume_bit_identical(
        self, ours_model_set, seed, kill_chunk
    ):
        """``generate(processes=1)`` killed after an arbitrary number of
        completed chunks resumes to the serial oracle bit-for-bit."""
        clean = self._clean_trace(ours_model_set, seed)
        gen = TrafficGenerator(ours_model_set)
        kwargs = dict(seed=seed, processes=1, **CK_RUN)

        original = traffgen._generate_chunk
        calls = itertools.count()

        def dying(*args):
            # Chunks run in index order inline; >= kill_chunk means
            # exactly kill_chunk chunks have checkpointed results.
            if next(calls) >= kill_chunk:
                raise KeyboardInterrupt
            return original(*args)

        # Four-UE chunks: the 12-UE population (7/3/2 UEs by device)
        # plans four jobs.
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            traffgen, "MAX_CHUNK_UE_HOURS", 4 * CK_RUN["num_hours"]
        ):
            path = pathlib.Path(tmp) / "run.npz"
            try:
                with mock.patch.object(traffgen, "_generate_chunk", dying):
                    gen.generate(CK_POP, checkpoint_path=path, **kwargs)
            except KeyboardInterrupt:
                pass
            resumed = gen.generate(
                CK_POP, checkpoint_path=path, resume=True, **kwargs
            )
        assert resumed == clean
