"""The per-UE row index every stage reads (``Trace.ue_index``).

The index must equal the derivations each stage used to make for
itself -- ``np.unique`` for the distinct UEs, a stable argsort for the
``(ue, time)`` row order, and first-row flags at UE boundaries -- and
each trace must build it at most once.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.burstiness import quantity_samples
from repro.groundtruth import simulate_ground_truth
from repro.model.compiled_fit import fit_arrays
from repro.statemachines import replay_trace
from repro.statemachines.compiled_replay import classify_category2_events
from repro.trace import (
    DeviceType,
    EventType,
    Trace,
    events_per_device_hour,
    extract_sessions,
    remap_ue_ids,
    session_stats,
)
from repro.trace.trace import COLUMNS, UEIndex, stable_order
from repro.validation import summarize

from oracle import groundtruth as oracle_groundtruth

SETTINGS = settings(
    max_examples=60, suppress_health_check=[HealthCheck.too_slow], deadline=None
)

#: Rows of (ue_id, time, event code, device code).  Few distinct UE ids,
#: each with one device type drawn per UE (``Trace`` rejects a UE whose
#: rows carry several).
rows_strategy = st.tuples(
    st.lists(
        st.sampled_from([int(d) for d in DeviceType]), min_size=13, max_size=13
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=0, max_value=50).map(float),
            st.sampled_from([int(e) for e in EventType]),
        ),
        max_size=60,
    ),
).map(lambda drawn: [(u, t, e, drawn[0][u]) for u, t, e in drawn[1]])


def _trace(rows):
    if not rows:
        return Trace.empty()
    ue, t, ev, dev = (np.asarray(c) for c in zip(*rows))
    return Trace(ue, t, ev, dev)


def _reference(trace):
    """The grouping each stage derived for itself before the index."""
    order = np.argsort(trace.ue_ids, kind="stable")
    ue = trace.ue_ids[order]
    first = np.zeros(len(ue), dtype=bool)
    if len(ue):
        first[0] = True
        first[1:] = ue[1:] != ue[:-1]
    return order, np.unique(trace.ue_ids), first, np.cumsum(first) - 1


def _check_index(trace):
    order, ues, first, codes = _reference(trace)
    index = trace.ue_index()
    np.testing.assert_array_equal(index.order, order)
    np.testing.assert_array_equal(index.ues, ues)
    np.testing.assert_array_equal(index.firsts(), first)
    np.testing.assert_array_equal(index.codes(), codes)
    bounds = np.append(np.flatnonzero(first), len(trace))
    np.testing.assert_array_equal(index.bounds, bounds)
    assert trace.num_ues == len(ues)
    for i, (ue, sub) in enumerate(trace.per_ue()):
        assert ue == ues[i]
        np.testing.assert_array_equal(sub.ue_ids, np.full(len(sub), ue))
        assert sub == trace.ue_trace(ue)


class TestIndexMatchesDerivations:
    @SETTINGS
    @given(rows_strategy)
    def test_hypothesis_traces(self, rows):
        _check_index(_trace(rows))

    def test_empty_trace(self):
        trace = Trace.empty()
        _check_index(trace)
        assert trace.device_of() == {}
        assert trace.events_per_ue() == {}
        assert len(trace.ue_trace(3)) == 0

    def test_single_row(self):
        trace = _trace([(7, 1.0, int(EventType.ATCH), int(DeviceType.TABLET))])
        _check_index(trace)
        assert trace.device_of() == {7: DeviceType.TABLET}
        assert trace.events_per_ue(EventType.HO) == {7: 0}
        assert len(trace.ue_trace(6)) == 0

    def test_mixed_device_ue(self):
        """A UE with rows of two device types is rejected, naming it: it
        would otherwise belong to both device cohorts of a fit."""
        P, C = int(DeviceType.PHONE), int(DeviceType.CONNECTED_CAR)
        rows = [(9, 1.5, 2, P), (9, 3.0, 3, P), (4, 1.0, 2, C), (4, 2.0, 3, P)]
        with pytest.raises(ValueError, match="'device_types'.* UE 4 "):
            _trace(rows)
        trace = _trace([r[:3] + (P,) for r in rows])
        _check_index(trace)
        phones = fit_arrays(trace, total_slots=1, device_type=DeviceType.PHONE)
        assert phones.ues[phones.device_ues[0]].tolist() == [4, 9]

    @SETTINGS
    @given(rows_strategy)
    def test_per_ue_helpers_match_unique(self, rows):
        trace = _trace(rows)
        ues, first_row = np.unique(trace.ue_ids, return_index=True)
        assert trace.device_of() == {
            int(u): DeviceType(int(trace.device_types[i]))
            for u, i in zip(ues, first_row)
        }
        for event_type in (None, EventType.SRV_REQ):
            ids = trace.ue_ids
            if event_type is not None:
                ids = ids[trace.event_types == int(event_type)]
            expected = {int(u): 0 for u in ues}
            for ue, n in zip(*np.unique(ids, return_counts=True)):
                expected[int(ue)] = int(n)
            assert trace.events_per_ue(event_type) == expected


class TestStableOrder:
    """``stable_order`` (the index's row sort, and the fitter's) is a
    stable argsort, on both sides of its int64 overflow guard."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(min_value=0, max_value=40), data=st.data())
    def test_equals_stable_argsort(self, n, data):
        guard = np.iinfo(np.int64).max // max(n, 1) - 1
        key = st.sampled_from(
            [0, 1, 2, -1, guard - 2, guard - 1, guard, guard + 1]
        ) | st.integers(min_value=0, max_value=5)
        keys = np.asarray(
            data.draw(st.lists(key, min_size=n, max_size=n)), dtype=np.int64
        )
        assert np.array_equal(stable_order(keys), np.argsort(keys, kind="stable"))


class TestIndexIsReadOnly:
    def test_arrays_reject_writes(self, ground_truth_trace):
        index = ground_truth_trace.ue_index()
        for array in (index.order, index.ues, index.bounds):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            ground_truth_trace.unique_ues()[0] = 1

    def test_about_eight_bytes_per_row(self, ground_truth_trace):
        index = ground_truth_trace.ue_index()
        held = index.order.nbytes + index.ues.nbytes + index.bounds.nbytes
        assert held <= 8 * len(ground_truth_trace) + 16 * (len(index.ues) + 1)


@pytest.fixture()
def builds(monkeypatch):
    """Count ``UEIndex.build`` calls, by the trace columns they index."""
    calls = []
    real = UEIndex.build.__func__

    def counting(cls, ue_ids):
        calls.append(ue_ids)
        return real(cls, ue_ids)

    monkeypatch.setattr(UEIndex, "build", classmethod(counting))
    return calls


class TestBuiltOnce:
    def test_every_reader_shares_one_index(self, builds):
        trace = simulate_ground_truth(
            {DeviceType.PHONE: 6, DeviceType.TABLET: 4}, 3600.0, seed=1
        )
        trace.num_ues
        trace.unique_ues()
        list(trace.per_ue())
        trace.ue_trace(0)
        trace.events_per_ue(EventType.HO)
        trace.device_of()
        trace.device_mix()
        replay_trace(trace)
        classify_category2_events(trace)
        fit_arrays(trace, total_slots=1)
        assert len(builds) == 1

    def test_summarize_sorts_its_cohort_once(self, builds, monkeypatch):
        simulated = simulate_ground_truth({DeviceType.PHONE: 12}, 2 * 3600.0, seed=4)
        builds.clear()
        sorts = []

        def counting(real):
            def sort(a, *args, **kwargs):
                sorts.append(len(a))
                return real(a, *args, **kwargs)

            return sort

        monkeypatch.setattr(np, "argsort", counting(np.argsort))
        monkeypatch.setattr(np, "sort", counting(np.sort))
        # The constructor builds the index (its one-device check reads
        # it), so the count starts there.
        trace = Trace(*(getattr(simulated, c) for c in COLUMNS))
        summarize(trace, DeviceType.PHONE)
        assert len(builds) == 1
        # The index's sort (``stable_order``) is the only one over the
        # cohort's rows; the sojourn group-by sorts the (fewer) complete
        # intervals.
        assert sorts.count(len(trace)) == 1


class TestLoopReferences:
    """Vectorized per-UE code against the per-UE loops it replaced."""

    @pytest.fixture(scope="class")
    def late_trace(self):
        # Starts 20 h in and spans two days, so some events fall on a
        # day past the ``ceil(duration / day)`` samples per UE.
        trace = simulate_ground_truth(30, 30 * 3600.0, start_hour=6, seed=9)
        return trace.window(20 * 3600.0, 50 * 3600.0)

    def test_events_per_device_hour(self, ground_truth_trace, late_trace):
        for trace in (ground_truth_trace, late_trace, Trace.empty()):
            for event in (EventType.SRV_REQ, EventType.HO):
                sub = trace.filter_device(DeviceType.PHONE)
                mask = sub.event_types == int(event)
                hours = (sub.times[mask] // 3600.0).astype(np.int64)
                num_days = max(1, int(np.ceil((trace.duration + 1e-9) / 86400.0)))
                expected = {}
                for h in range(24):
                    counts = {}
                    sel = hours % 24 == h
                    for ue, d in zip(sub.ue_ids[mask][sel], hours[sel] // 24):
                        counts[(int(ue), int(d))] = counts.get((int(ue), int(d)), 0) + 1
                    expected[h] = [
                        counts.get((int(ue), d), 0)
                        for ue in np.unique(sub.ue_ids)
                        for d in range(num_days)
                    ]
                got = events_per_device_hour(trace, DeviceType.PHONE, event)
                assert got == expected

    def test_quantity_samples(self, ground_truth_trace):
        sub = ground_truth_trace.filter_device(DeviceType.PHONE)
        for event in (EventType.SRV_REQ, EventType.TAU):
            durations, arrivals = [], []
            for _, ue_sub in sub.per_ue():
                times = ue_sub.times[ue_sub.event_types == int(event)]
                arrivals.extend(times.tolist())
                durations.extend(np.diff(times).tolist())
            got = quantity_samples(ground_truth_trace, DeviceType.PHONE, event.name)
            assert got[0].tolist() == durations
            assert got[1].tolist() == arrivals

    def test_remap_ue_ids(self, ground_truth_trace):
        remapped, mapping = remap_ue_ids(ground_truth_trace, seed=5, start_id=40)
        tr = ground_truth_trace
        expected = Trace(
            np.asarray([mapping[int(u)] for u in tr.ue_ids]),
            tr.times,
            tr.event_types,
            tr.device_types,
        )
        assert remapped == expected

    def test_intersession_gaps(self, ground_truth_trace):
        by_ue = {}
        for session in extract_sessions(ground_truth_trace):
            by_ue.setdefault(session.ue_id, []).append(session)
        gaps = [
            nxt.start - prev.end
            for sessions in by_ue.values()
            for prev, nxt in zip(sessions, sessions[1:])
        ]
        stats = session_stats(ground_truth_trace)
        assert stats.mean_intersession_gap == float(np.mean(gaps))


#: ``Trace.content_hash`` of the oracle simulator's
#: ``simulate_ground_truth(population, duration, start_hour=18,
#: seed=seed)`` -- per device type alone (12 UEs) and for the paper's
#: mix (30 UEs).  They pin the scalar ``Generator``-method oracle that
#: the statistical checks compare the engine with.
GROUND_TRUTH_HASHES = {
    ("PHONE", 12, 3600.0, 0): "4e4585873be0451add688009732ddd423fe89fe82e0a63eb1065a6442887f7e8",
    ("PHONE", 12, 3600.0, 1): "70c4ed98aff92065670664868c31dfdd6d2810eee6713c984ffe785e3b6c257e",
    ("CONNECTED_CAR", 12, 3600.0, 0): "862564bdc6a4a2f77fbcd0cbb20f4e4979257e85797757fdb01561651684832d",
    ("CONNECTED_CAR", 12, 3600.0, 1): "b3522afcf9ecd5df40d96ab4949a30b5488245e4dbc937c1114001bafd31956d",
    ("TABLET", 12, 3600.0, 0): "fafac605f513c411657da41ec68c2518fd1a06bead30792eeb7cf198fde31dd0",
    ("TABLET", 12, 3600.0, 1): "4999936842097cdb2539c1618aed8ae713708e0744e3d99525ad648fd7677443",
    ("MIXED", 30, 7200.0, 0): "c522de6fb1e8ac8723233edbd1cb7bc2b4fa87bd2bcc5675aafaa85acc1ada04",
    ("MIXED", 30, 7200.0, 5): "67c64155ccb02054728ecb0f57fc49bc4267e43b96abe481728b5a0b3142bfce",
}

#: The same cases through the lockstep engine
#: (``repro.groundtruth.simulate_ground_truth``): any change to its
#: counter streams, its phase arithmetic or its row order moves these.
ENGINE_HASHES = {
    ("PHONE", 12, 3600.0, 0): "3a05332fac872169e499421c0f18a11aef23924d36235324c5f4b82eae25df05",
    ("PHONE", 12, 3600.0, 1): "778397cb9480644b36104ad8711e13c8ddb4c87ab02ac349f767b0ef93a19ace",
    ("CONNECTED_CAR", 12, 3600.0, 0): "6106dfa0e38def110ce9384dbb04fdc709ebd171b819f45f7f243cdfd9cd7d4f",
    ("CONNECTED_CAR", 12, 3600.0, 1): "5a9c400cd308a2e0c4d0909b5bd869c0d632da12a2e8de0099307f025c9b9753",
    ("TABLET", 12, 3600.0, 0): "4afe20da61a1649428e79466a567d061ec6d28bfd57ea2e5f5520303d1c9d23a",
    ("TABLET", 12, 3600.0, 1): "c59b3b8524585a8532cccb92258a9bce63d702a8d34fd5a5dacc5727f6e4e622",
    ("MIXED", 30, 7200.0, 0): "fe055330d75c45806afe8cdbef2a70329aedabfbeea8c3784b4d6335453b85c4",
    ("MIXED", 30, 7200.0, 5): "f82934a8ccc0dde634cf285b75f177f4c6d096fe45cf08b5d7b45f017e3d6545",
}


def _pinned_case(simulate, case):
    device, num_ues, duration, seed = case
    population = num_ues if device == "MIXED" else {DeviceType[device]: num_ues}
    return simulate(population, duration, start_hour=18, seed=seed)


@pytest.mark.parametrize("case", sorted(GROUND_TRUTH_HASHES))
def test_ground_truth_content_hash_pinned(case):
    trace = _pinned_case(oracle_groundtruth.simulate_ground_truth, case)
    assert trace.content_hash() == GROUND_TRUTH_HASHES[case]


@pytest.mark.parametrize("case", sorted(ENGINE_HASHES))
def test_engine_content_hash_pinned(case):
    trace = _pinned_case(simulate_ground_truth, case)
    assert trace.content_hash() == ENGINE_HASHES[case]
