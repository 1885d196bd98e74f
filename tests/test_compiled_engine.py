"""The generation engine: correctness against the reference oracle.

Three layers of guarantees, mirroring the engine's design:

- the vectorized SplitMix64 counter mix is bit-validated against a
  plain-Python SplitMix64 and checked for uniformity and independence;
- compiled output is *statistically* equivalent to the per-UE reference
  generator in ``oracle.generator`` (two-sample KS on sojourn and
  per-UE volume distributions, alpha=0.01 with fixed seeds, so the
  tests are deterministic);
- compiled output is *bit-identical* across serial, process-parallel and
  streaming production, including the scalar drain path for long-tail
  UEs, and respects the same structural limits (hour boundaries,
  absorbing states, ``MAX_EVENTS_PER_HOUR``).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import repro.generator
from repro.baselines import METHOD_NAMES, fit_method
from repro.generator import (
    TrafficGenerator,
    stream_events,
    traffgen,
)
from repro.generator.compiled import (
    _P_FIRST,
    _P_KEY,
    _P_STEP,
    _interp_knots,
    _poisson_from_uniform,
    _sort_hour,
    _uniforms,
    splitmix64_counter,
)
from repro.model import scale_to_nsa, scale_to_sa
from repro.stats.counter_rng import root_key, to_unit
from repro.trace import DeviceType, EventType, Trace
from repro.trace.events import quantize_times
from repro.trace.trace import _in_time_order

from conftest import TRACE_START_HOUR, make_trace
from oracle import generator as oracle_generator

P = DeviceType.PHONE
E = EventType


_M64 = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64_int(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


class _SplitMix64:
    """Plain-Python SplitMix64 (Steele, Lea & Flood, OOPSLA 2014)."""

    def __init__(self, state):
        self.state = state & _M64

    def next(self):
        self.state = (self.state + _GAMMA) & _M64
        return _mix64_int(self.state)


def _oracle_words(c0, c1, c2, c3, k0, k1):
    """Word ``j`` of counter ``c0`` is output ``4·c0 + j`` of the
    SplitMix64 stream whose state starts at ``base - γ``."""
    inner = (
        k1 + c1 * 0xE220A8397B1DCDAF + c2 * 0x6E789E6AA1B965F5
        + c3 * 0x06C45D188009454F
    ) & _M64
    base = _mix64_int(k0 ^ _mix64_int(inner))
    gen = _SplitMix64(base - _GAMMA)
    for _ in range(4 * c0):
        gen.next()
    return [gen.next() for _ in range(4)]


class TestSplitMix64Counter:
    def test_oracle_is_splitmix64(self):
        """The reference generator's first outputs from state 0."""
        gen = _SplitMix64(0)
        assert [gen.next() for _ in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
        ]

    def test_matches_plain_python_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(50):
            c1, c2, c3, k0, k1 = (
                int(x) for x in rng.integers(0, 2**64, 5, dtype=np.uint64)
            )
            c0 = int(rng.integers(0, 40))
            got = splitmix64_counter(
                np.uint64(c0), c1, c2, c3, np.uint64(k0), np.uint64(k1)
            )
            assert [int(g) for g in got] == _oracle_words(
                c0, c1, c2, c3, k0, k1
            )

    def test_vectorized_lanes_match_scalar_calls(self):
        c0 = np.arange(100, dtype=np.uint64)
        k0 = np.full(100, 7, dtype=np.uint64)
        k1 = np.full(100, 11, dtype=np.uint64)
        batch = splitmix64_counter(c0, 1, 2, 3, k0, k1)
        one = splitmix64_counter(
            np.uint64(42), 1, 2, 3, np.uint64(7), np.uint64(11)
        )
        for lane in range(4):
            assert int(batch[lane][42]) == int(one[lane])

    @pytest.fixture(scope="class")
    def keys(self):
        """Per-UE keys derived as the engine derives them."""
        root = np.random.SeedSequence(2024).generate_state(2, np.uint64)
        idx = np.arange(200_000, dtype=np.uint64)
        k = splitmix64_counter(idx, 0, _P_KEY, 0, root[0], root[1])
        return k[0], k[1]

    def test_uniforms_pass_ks(self, keys):
        k0, k1 = keys
        u = _uniforms(k0, k1, 0, 17, _P_STEP)[0]
        assert u.size == 200_000
        assert u.min() >= 0.0 and u.max() < 1.0
        assert stats.kstest(u, "uniform").pvalue > 0.01

    def test_lanes_purposes_and_neighbours_uncorrelated(self, keys):
        k0, k1 = keys
        lanes = _uniforms(k0, k1, 3, 5, _P_STEP)
        pairs = [(lanes[i], lanes[j]) for i in range(4) for j in range(i)]
        other = _uniforms(k0, k1, 3, 5, _P_FIRST)
        pairs += [(lanes[j], other[j]) for j in range(4)]
        pairs += [(lanes[j][1:], lanes[j][:-1]) for j in range(4)]
        nxt = _uniforms(k0, k1, 4, 5, _P_STEP)
        pairs += [(lanes[j], nxt[j]) for j in range(4)]
        for a, b in pairs:
            assert abs(np.corrcoef(a, b)[0, 1]) < 0.01

    @pytest.mark.parametrize("key", [(0, 0), (1, 2**63), (2**64 - 1, 12345)])
    def test_slot_bases_distinct(self, key):
        """Every (hour < 8760, purpose, event code) slot starts its own
        stream, for each key."""
        hours = np.arange(8760, dtype=np.uint64)[:, None, None]
        purposes = np.arange(7, dtype=np.uint64)[None, :, None]
        events = np.arange(len(EventType), dtype=np.uint64)[None, None, :]
        k0, k1 = (np.uint64(k) for k in key)
        # Word 0 of counter 0 is mix64(base), a bijection of the base.
        first = splitmix64_counter(0, hours, purposes, events, k0, k1)[0]
        assert first.size == 8760 * 7 * len(EventType)
        assert np.unique(first).size == first.size


#: Offsets into the hour that tie after quantization or round up to the
#: hour's end (3599.9995 s and up round to 3600.000 s).
_EDGE_OFFSETS = (0.0, 4e-4, 5e-4, 1e-3, 1.0004, 1.0006, 3599.9995, 3599.9999)


class TestHourSortKey:
    """One ``np.sort`` of the int64 hour key equals the three-key
    ``lexsort`` of the quantized columns it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_lexsort_of_quantized_times(self, data):
        n = data.draw(st.sampled_from([1, 2, 7, 1000, 2**19 - 1, 2**19]))
        hour_idx = data.draw(st.integers(0, 8759))
        hour_start = hour_idx * 3600.0
        size = data.draw(st.integers(1, 80))
        # Small pools of values make tied times, rows and events likely.
        offsets = data.draw(st.lists(
            st.one_of(
                st.sampled_from(_EDGE_OFFSETS),
                st.floats(0.0, 3600.0, exclude_max=True),
            ),
            min_size=1, max_size=6,
        ))
        row_pool = data.draw(st.lists(
            st.integers(0, n - 1), min_size=1, max_size=5
        ))
        pick = st.lists(st.integers(0, 99), min_size=size, max_size=size)
        times = hour_start + np.array(
            [offsets[i % len(offsets)] for i in data.draw(pick)]
        )
        times = np.minimum(times, np.nextafter(hour_start + 3600.0, 0.0))
        rows = np.array(
            [row_pool[i % len(row_pool)] for i in data.draw(pick)],
            dtype=np.int64,
        )
        events = np.array(
            data.draw(st.lists(st.integers(0, 5), min_size=size, max_size=size)),
            dtype=np.int16,
        )
        cut = data.draw(st.integers(0, size))
        got = _sort_hour(
            [rows[:cut], rows[cut:]],
            [times[:cut], times[cut:]],
            [events[:cut], events[cut:]],
            n,
            hour_start,
        )
        quantized = quantize_times(times)
        order = np.lexsort((events, rows, quantized))
        want = (rows[order], quantized[order], events[order])
        for g, w in zip(got, want):
            assert g.dtype == w.dtype
            assert np.array_equal(g, w)

    def test_largest_key_of_a_large_population(self):
        n = 2**19
        hour_start = 8759 * 3600.0
        times = hour_start + np.array([3599.9999, 0.0, 3599.9995])
        rows = np.array([n - 1, n - 1, 0], dtype=np.int64)
        events = np.array([5, 0, 5], dtype=np.int16)
        got_rows, got_times, got_events = _sort_hour(
            [rows], [times], [events], n, hour_start
        )
        assert got_rows.tolist() == [n - 1, 0, n - 1]
        assert got_events.tolist() == [0, 5, 5]
        assert got_times.tolist() == quantize_times(times[[1, 2, 0]]).tolist()
        assert got_times[-1] == quantize_times(hour_start + 3600.0)


def _counter_uniforms(n: int, seed: int) -> np.ndarray:
    """``n`` (a multiple of 4) 53-bit counter uniforms."""
    k0, k1 = root_key(seed)
    words = splitmix64_counter(np.arange(n // 4, dtype=np.uint64), 0, 0, 0, k0, k1)
    return np.concatenate([to_unit(w) for w in words])


class TestPoissonTable:
    """Overlay counts read off a cumulative table equal the term-by-term
    inversion loop (``oracle.generator.poisson_from_uniform``) bit for
    bit, at the ends of ``[0, 1)``, at random uniforms and on the CDF
    values themselves."""

    @pytest.mark.parametrize("lam", [1e-6, 0.5, 3.0, 40.0, 300.0, 699.9, 701.0])
    def test_table_equals_loop(self, lam):
        term = cdf = math.exp(-lam)
        steps = [cdf]
        for k in range(1, int(lam + 12.0 * math.sqrt(lam + 1.0) + 64)):
            term *= lam / k
            cdf += term
            steps.append(cdf)
        steps = np.asarray(steps)
        steps = steps[steps < 1.0]
        u = np.concatenate([
            [0.0, 1.0 - 2.0**-53],
            _counter_uniforms(1 << 14, seed=int(lam * 10) + 1),
            steps,
            np.nextafter(steps, 0.0),
            np.nextafter(steps, 1.0),
        ])
        got = _poisson_from_uniform(u, lam)
        want = oracle_generator.poisson_from_uniform(u, lam)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


class TestKnotIndex:
    """The knot interval computed as ``ceil(u·m − 0.5)`` gives the
    interpolation that a ``searchsorted`` in the composite keys
    ``edge + p`` gives (``oracle.generator.interp_knots_by_search``)."""

    @pytest.fixture(scope="class")
    def hour(self, oracle_ours_model_set):
        return max(
            (hm for hours in oracle_ours_model_set.models.values()
             for hm in hours.values()),
            key=lambda hm: hm.knot_p.size,
        )

    @staticmethod
    def table(hm, which):
        """(segments with knots, ptr, p, v, composite keys) of a table."""
        if which == "sojourn":
            cluster = np.repeat(
                np.arange(hm.state_deg.size), hm.state_deg
            ) // hm.S
            first_edge = np.searchsorted(cluster, cluster)
            ptr, kp, kv = hm.edge_knot_ptr, hm.knot_p, hm.knot_v
            segments = np.flatnonzero(hm.edge_kind == 0)
        else:
            first_edge = np.zeros(hm.num_clusters, dtype=np.int64)
            ptr, kp, kv = hm.foff_ptr, hm.foff_p, hm.foff_v
            segments = np.arange(hm.num_clusters)
        key = oracle_generator.knot_keys(ptr, kp, first_edge)
        return segments, ptr, kp, kv, key

    @pytest.mark.parametrize("which", ["sojourn", "offset"])
    def test_equals_search_on_counter_uniforms(self, hour, which):
        segments, ptr, kp, kv, key = self.table(hour, which)
        assert hour.knot_p.size > 1_000
        n = 1 << 20
        u = _counter_uniforms(n, seed=31)
        pick = _counter_uniforms(n, seed=32)
        kb = segments[(pick * segments.size).astype(np.int64)]
        got = _interp_knots(kb, u, ptr, kp, kv)
        want = oracle_generator.interp_knots_by_search(kb, u, key, ptr, kp, kv)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("which", ["sojourn", "offset"])
    def test_at_knot_probes_agree(self, hour, which):
        segments, ptr, kp, kv, key = self.table(hour, which)
        kb = np.repeat(segments, np.diff(ptr)[segments])
        knots = np.concatenate([np.arange(ptr[s], ptr[s + 1]) for s in segments])
        for u in (kp[knots], np.nextafter(kp[knots], 0), np.nextafter(kp[knots], 1)):
            got = _interp_knots(kb, u, ptr, kp, kv)
            want = oracle_generator.interp_knots_by_search(
                kb, u, key, ptr, kp, kv
            )
            assert np.all(np.abs(got - want) <= 1e-9 * np.abs(want))


class TestChunkMerge:
    """Concatenated chunk columns ordered on the integer key ``ms · span
    + ue`` come out in the order of ``Trace``'s stable lexsort, so the
    trace never sorts them."""

    def test_equals_lexsort(self, base_model_set):
        counts = {
            DeviceType.PHONE: 30,
            DeviceType.CONNECTED_CAR: 12,
            DeviceType.TABLET: 9,
        }
        chunks = traffgen._plan_chunks(
            counts, {dt.name: 5 for dt in counts}, first_ue_id=100
        )
        assert len(chunks) > 6
        parts = [
            traffgen._generate_chunk(
                {"model": base_model_set}, *chunk, 9, TRACE_START_HOUR, 2
            )
            for chunk in chunks
        ]
        columns = [np.concatenate(column) for column in zip(*parts)]
        assert len(np.unique(columns[3])) == 3
        assert np.ptp(columns[1]) > 3600.0
        merged = traffgen._merged(parts, 100, sum(counts.values()))
        assert parts == []
        order = np.lexsort((columns[0], columns[1]))
        assert not np.array_equal(order, np.arange(order.size))
        for got, column in zip(merged, columns):
            assert np.array_equal(got, column[order])
        assert _in_time_order(merged[0], merged[1])


class TestStatisticalEquivalence:
    """Compiled vs reference: same fitted model, different RNG streams.

    The model is fitted on the oracle simulator's trace.  On the
    lockstep engine's trace of the same seed, the single-seed pooled-gap
    KS gate failed (p <= 0.01) for the reference generator against
    itself on 8 of 12 seeds: the pooled gaps follow which personas are
    drawn.
    """

    #: Generation seeds; the single-seed tests read the first.
    SEEDS = (5, 6, 7)

    @pytest.fixture(scope="class")
    def seed_traces(self, oracle_ours_model_set):
        """(compiled, reference) traces of 300 UEs over 2 h, per seed."""
        model_set = oracle_ours_model_set
        pairs = []
        for seed in self.SEEDS:
            kwargs = dict(start_hour=TRACE_START_HOUR, num_hours=2, seed=seed)
            pairs.append((
                TrafficGenerator(model_set).generate(300, **kwargs),
                oracle_generator.generate(model_set, 300, **kwargs),
            ))
        return pairs

    @pytest.fixture(scope="class")
    def traces(self, seed_traces):
        return seed_traces[0]

    def test_volume_is_comparable(self, traces):
        compiled, reference = traces
        assert 0.8 < len(compiled) / len(reference) < 1.25

    def test_per_ue_event_counts_ks(self, traces):
        compiled, reference = traces

        def counts(trace):
            _, c = np.unique(trace.ue_ids, return_counts=True)
            return c

        result = stats.ks_2samp(counts(compiled), counts(reference))
        assert result.pvalue > 0.01

    def test_sojourn_distribution_ks(self, seed_traces):
        """Within-UE inter-event times are the chains' dwell draws.

        The gate is the median over three generation seeds of the pooled
        gaps' KS p-value, bound p > 0.01.  On one seed the gate follows
        which personas are drawn.  Measured over generation seeds 1-60
        (each engine's seed ``s`` against the reference's ``s`` or
        ``s + 1000``), one seed failed for the reference against itself
        on 6 of 60 seeds and for compiled against reference on 14 of 60
        (4 of the first 20).  The median of three (seeds 1-3, 4-6, ...)
        failed 0 of 20 and 2 of 20.  Pooled over 20 seeds (373k gaps a
        side) compiled and reference agree (p = 0.67).  With one knot
        per CDF in the engine, the gate fails (median p = 0.0).  It
        cannot see the interpolation reversed inside each knot interval
        or an interval off by one knot: a uniform ``u`` inside an
        interval keeps the first mapping's distribution, and the second
        moves draws by one of up to 512 knots.  ``TestKnotIndex`` and
        ``GENERATOR_HASHES`` fail on both.
        """

        def gaps(trace):
            order = np.lexsort((trace.times, trace.ue_ids))
            ue = trace.ue_ids[order]
            t = trace.times[order]
            same = ue[1:] == ue[:-1]
            return np.diff(t)[same]

        pvalues = [
            stats.ks_2samp(gaps(compiled), gaps(reference)).pvalue
            for compiled, reference in seed_traces
        ]
        assert np.median(pvalues) > 0.01

    def test_event_type_mix_is_comparable(self, traces):
        compiled, reference = traces

        def mix(trace):
            share = np.zeros(max(int(e) for e in EventType) + 1)
            codes, counts = np.unique(trace.event_types, return_counts=True)
            share[codes] = counts / len(trace)
            return share

        assert np.abs(mix(compiled) - mix(reference)).max() < 0.05


class TestBitIdentity:
    """Serial, parallel and streaming compiled output must be identical."""

    KWARGS = dict(start_hour=TRACE_START_HOUR, num_hours=2, seed=11)

    @pytest.fixture(scope="class")
    def serial(self, ours_model_set):
        return TrafficGenerator(ours_model_set).generate(150, **self.KWARGS)

    def test_generation_is_deterministic(self, ours_model_set, serial):
        again = TrafficGenerator(ours_model_set).generate(150, **self.KWARGS)
        assert serial == again

    def test_parallel_single_process_small_chunks(
        self, ours_model_set, serial, monkeypatch
    ):
        # Chunks below the drain threshold force every chunk through the
        # scalar path, proving it bit-matches vectorized stepping.
        monkeypatch.setattr(
            traffgen, "MAX_CHUNK_UE_HOURS", 7 * self.KWARGS["num_hours"]
        )
        par = TrafficGenerator(ours_model_set).generate(
            150, processes=1, **self.KWARGS
        )
        assert serial == par

    def test_parallel_multiprocess(self, ours_model_set, serial, monkeypatch):
        monkeypatch.setattr(
            traffgen, "MAX_CHUNK_UE_HOURS", 64 * self.KWARGS["num_hours"]
        )
        par = TrafficGenerator(ours_model_set).generate(
            150, processes=2, **self.KWARGS
        )
        assert serial == par

    def test_streaming_matches_batch(self, ours_model_set, serial):
        streamed = Trace.from_events(
            stream_events(ours_model_set, 150, **self.KWARGS)
        )
        assert serial == streamed

    def test_order_independence(self, ours_model_set):
        gen = TrafficGenerator(ours_model_set)
        small = gen.generate({P: 20}, start_hour=TRACE_START_HOUR, seed=6)
        large = gen.generate({P: 60}, start_hour=TRACE_START_HOUR, seed=6)
        for ue in small.unique_ues():
            assert small.ue_trace(int(ue)) == large.ue_trace(int(ue))


class TestEngineSelection:
    """Generation has one engine: no switch, no constant to pick one."""

    def test_engines_tuple(self):
        assert not hasattr(repro.generator, "ENGINES")

    def test_unknown_engine_rejected(self, ours_model_set):
        with pytest.raises(TypeError, match="engine"):
            TrafficGenerator(ours_model_set, engine="compiled")
        with pytest.raises(TypeError, match="engine"):
            TrafficGenerator(ours_model_set).generate(10, engine="compiled")
        with pytest.raises(TypeError, match="engine"):
            stream_events(ours_model_set, 10, engine="compiled")

    def test_non_positive_hours_rejected(self, ours_model_set):
        with pytest.raises(ValueError, match="num_hours"):
            TrafficGenerator(ours_model_set).generate(10, num_hours=0)


class TestStructuralLimits:
    def test_events_stay_inside_generated_hours(self, ours_model_set):
        trace = TrafficGenerator(ours_model_set).generate(
            100, start_hour=TRACE_START_HOUR, num_hours=3, seed=2
        )
        assert trace.times.min() >= 0.0
        assert trace.times.max() < 3 * 3600.0

    def test_times_are_quantized_and_sorted(self, ours_model_set):
        trace = TrafficGenerator(ours_model_set).generate(
            100, start_hour=TRACE_START_HOUR, num_hours=2, seed=2
        )
        assert np.all(np.diff(trace.times) >= 0.0)
        ms = np.round(trace.times / 1e-3) * 1e-3
        assert np.array_equal(ms, trace.times)

    def test_max_events_per_hour_cap(self, ours_model_set, monkeypatch):
        # The engine reads the cap at every step (as does the oracle).
        from repro.generator import compiled

        monkeypatch.setattr(compiled, "MAX_EVENTS_PER_HOUR", 3)
        trace = TrafficGenerator(ours_model_set).generate(
            100, start_hour=TRACE_START_HOUR, num_hours=2, seed=9
        )
        assert len(trace) > 0
        for hour in (0, 1):
            hour_trace = trace.window(hour * 3600.0, (hour + 1) * 3600.0)
            if len(hour_trace) == 0:
                continue
            _, per_ue = np.unique(hour_trace.ue_ids, return_counts=True)
            # at most: one first event + the capped chain steps
            assert per_ue.max() <= 4

    def test_max_events_per_hour_caps_overlays(self, monkeypatch):
        """Two same-millisecond HOs fit a Base overlay rate of 1000/s;
        the cap bounds its draw as it bounds chain steps."""
        from repro.generator import compiled

        monkeypatch.setattr(compiled, "MAX_EVENTS_PER_HOUR", 50)
        trace = make_trace([(0, 0.0, E.HO, P), (0, 0.0, E.HO, P)])
        ms = fit_method("base", trace, theta_n=5, trace_start_hour=0)
        synthesized = TrafficGenerator(ms).generate({P: 3}, seed=1)
        _, per_ue = np.unique(synthesized.ue_ids, return_counts=True)
        assert per_ue.tolist() == [50, 50, 50]

    def test_degenerate_fit_still_bit_identical(self, tiny_trace, monkeypatch):
        """A tiny fit exercises absorbing states and silent hours; the
        three production modes must still agree event for event."""
        from repro.baselines import fit_method

        ms = fit_method("ours", tiny_trace, theta_n=5, trace_start_hour=0)
        kwargs = dict(start_hour=0, num_hours=3, seed=4)
        serial = TrafficGenerator(ms).generate({P: 50}, **kwargs)
        monkeypatch.setattr(
            traffgen, "MAX_CHUNK_UE_HOURS", 9 * kwargs["num_hours"]
        )
        par = TrafficGenerator(ms).generate({P: 50}, processes=1, **kwargs)
        streamed = Trace.from_events(stream_events(ms, {P: 50}, **kwargs))
        assert serial == par
        assert serial == streamed

    def test_absorbing_ue_parks_until_model_offers_exit(self, tiny_trace):
        """UEs whose state has no outgoing edges stop emitting chain
        events but are not dropped from the population."""
        ms = fit_method("ours", tiny_trace, theta_n=5, trace_start_hour=0)
        trace = TrafficGenerator(ms).generate(
            {P: 50}, start_hour=0, num_hours=3, seed=4
        )
        # bounded output is the observable effect of parking: no UE can
        # emit unboundedly from a chain this small
        if len(trace):
            _, per_ue = np.unique(trace.ue_ids, return_counts=True)
            assert per_ue.max() < 10_000


# ---------------------------------------------------------------------------
# Differential sweep: every method x RAT x device type
# ---------------------------------------------------------------------------

#: Radio access technologies the sweep covers.  LTE is the fitted model;
#: NSA/SA are derived with the paper's §6 parameter scaling.
RATS = ("lte", "nsa", "sa")

_SWEEP_POP = {
    DeviceType.PHONE: 50,
    DeviceType.CONNECTED_CAR: 25,
    DeviceType.TABLET: 15,
}
_SWEEP_KWARGS = dict(start_hour=TRACE_START_HOUR, num_hours=2, seed=13)

#: §6 parameter scaling is defined on the paper's two-level machine, so
#: only V2/Ours have NSA/SA variants; Base/V1 (flat EMM/ECM machine)
#: participate as LTE only.
def _rats_for(method: str):
    return RATS if method in ("v2", "ours") else ("lte",)


_SWEEP_COMBOS = [
    (method, rat) for method in METHOD_NAMES for rat in _rats_for(method)
]


@pytest.fixture(scope="session")
def sweep_model_sets(ground_truth_trace):
    """``(method, rat) -> ModelSet``: all four methods, every valid RAT."""
    sets = {}
    for method in METHOD_NAMES:
        lte = fit_method(
            method,
            ground_truth_trace,
            theta_n=25,
            trace_start_hour=TRACE_START_HOUR,
        )
        sets[(method, "lte")] = lte
        if "nsa" in _rats_for(method):
            sets[(method, "nsa")] = scale_to_nsa(lte)
            sets[(method, "sa")] = scale_to_sa(lte)
    return sets


@pytest.fixture(scope="session")
def sweep_traces(sweep_model_sets):
    """``(method, rat) -> (compiled_trace, reference_trace)``."""
    traces = {}
    for combo, model_set in sweep_model_sets.items():
        traces[combo] = (
            TrafficGenerator(model_set).generate(_SWEEP_POP, **_SWEEP_KWARGS),
            oracle_generator.generate(model_set, _SWEEP_POP, **_SWEEP_KWARGS),
        )
    return traces


def _per_transition_gaps(trace, cap=20, min_group=4):
    """Within-UE inter-event gaps keyed by the transition's destination
    event code — the observable footprint of each chain transition's
    dwell distribution.

    The raw gap populations are dominated by heavy-tail noise: baseline
    fits produce near-singleton clusters whose overlay rates reach
    hundreds of events per UE-hour, so a single UE landing in such a
    cluster (engine and oracle draw personas from independent streams)
    swings a transition's sample by thousands of points.  Two
    robustness measures make the statistic compare dwell *shapes*
    instead of which UE drew which persona: each (UE, transition)
    contributes at most ``cap`` gaps, and each contribution is
    normalized by its own mean (cancelling per-UE rate scale).  Groups
    smaller than ``min_group`` carry no shape signal and are dropped.
    """
    order = np.lexsort((trace.times, trace.ue_ids))
    ue = trace.ue_ids[order]
    t = trace.times[order]
    ev = trace.event_types[order]
    same = ue[1:] == ue[:-1]
    gaps = np.diff(t)[same]
    dest = ev[1:][same].astype(np.int64)
    ue_g = ue[1:][same].astype(np.int64)

    key = ue_g * 64 + dest  # event codes are tiny; 64 keeps keys unique
    order2 = np.argsort(key, kind="stable")
    keys = key[order2]
    gaps2 = gaps[order2]
    dest2 = dest[order2]
    starts = np.r_[0, np.flatnonzero(np.diff(keys)) + 1]
    counts = np.diff(np.r_[starts, keys.size])

    out = {}
    for start, n in zip(starts, counts):
        if n < min_group:
            continue
        segment = gaps2[start : start + min(n, cap)]
        mean = segment.mean()
        if mean <= 0:
            continue
        out.setdefault(int(dest2[start]), []).append(segment / mean)
    return {code: np.concatenate(parts) for code, parts in out.items()}


def _per_ue_counts(trace):
    """Events per UE, for every UE that emitted at least one event."""
    _, counts = np.unique(trace.ue_ids, return_counts=True)
    return counts


@pytest.mark.slow
class TestDifferentialSweep:
    """Compiled vs reference across method x RAT x device type.

    The engine and the oracle share the fitted model but draw from
    different RNG streams, so equivalence is statistical: for every combination the
    per-transition dwell distributions must agree under two-sample KS
    on the capped, mean-normalized gap statistic (see
    :func:`_per_transition_gaps`).  Seeds are fixed, so every assertion
    is deterministic.  KS p-values are aggregated per combination (most
    transitions must clear alpha=0.01 and none may collapse outright)
    because a sweep this wide makes isolated small p-values expected
    under the null, and KS groups sharing UEs are not independent —
    combinations where overlay events concentrate in a handful of
    heavy-persona UEs (e.g. NSA-scaled handover on small device
    populations) legitimately sit in the 1e-5 range without any
    per-gap distributional divergence.
    """

    @pytest.mark.parametrize("method,rat", _SWEEP_COMBOS)
    @pytest.mark.parametrize("device", list(DeviceType))
    def test_per_transition_ks(self, sweep_traces, method, rat, device):
        compiled, reference = sweep_traces[(method, rat)]
        compiled = compiled.filter_device(device)
        reference = reference.filter_device(device)
        assert len(compiled) > 0 and len(reference) > 0

        compiled_gaps = _per_transition_gaps(compiled)
        reference_gaps = _per_transition_gaps(reference)
        pvalues = []
        for code, gaps_c in compiled_gaps.items():
            gaps_r = reference_gaps.get(code)
            if gaps_r is None or len(gaps_c) < 30 or len(gaps_r) < 30:
                continue  # too sparse for a meaningful KS decision
            pvalues.append(float(stats.ks_2samp(gaps_c, gaps_r).pvalue))
        assert pvalues, (
            f"{method}/{rat}/{device.name}: no transition had enough "
            "samples for a KS comparison"
        )
        pvalues = np.asarray(pvalues)
        assert (pvalues > 0.01).mean() >= 0.5, pvalues
        assert pvalues.min() > 1e-7, pvalues

    @pytest.mark.parametrize("method,rat", _SWEEP_COMBOS)
    def test_volume_is_comparable(self, sweep_traces, method, rat):
        """The typical UE emits a comparable number of events from the
        engine and the oracle.  The *median* per-UE count is the right
        volume statistic: raw totals are swung by single UEs landing in
        extreme-rate overlay clusters (different persona RNG streams),
        which is rate noise, not an engine divergence."""
        compiled, reference = sweep_traces[(method, rat)]
        assert len(reference) > 0
        median_c = float(np.median(_per_ue_counts(compiled)))
        median_r = float(np.median(_per_ue_counts(reference)))
        assert median_r > 0
        assert 0.5 < median_c / median_r < 2.0

    @pytest.mark.parametrize("method,rat", _SWEEP_COMBOS)
    def test_event_totals_identical_per_seed(
        self, sweep_model_sets, sweep_traces, method, rat
    ):
        """Same seed, same generator => identical traces (hence identical
        per-device event-count totals), for every combination."""
        compiled, reference = sweep_traces[(method, rat)]
        model_set = sweep_model_sets[(method, rat)]
        assert compiled == TrafficGenerator(model_set).generate(
            _SWEEP_POP, **_SWEEP_KWARGS
        )
        assert reference == oracle_generator.generate(
            model_set, _SWEEP_POP, **_SWEEP_KWARGS
        )

    @pytest.mark.parametrize("device", list(DeviceType))
    def test_sa_emits_only_nr_event_codes(self, sweep_traces, device):
        """SA has no tracking-area-update procedure: every emitted code
        must be a valid :class:`NrEventType` member (which has no TAU),
        for any device type, from the engine and the oracle alike."""
        from repro.trace import NrEventType

        valid = {int(code) for code in NrEventType}
        compiled, reference = sweep_traces[("ours", "sa")]
        for trace in (compiled, reference):
            codes = set(
                np.unique(trace.filter_device(device).event_types).tolist()
            )
            assert codes <= valid
