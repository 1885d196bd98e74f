"""Tests for the Trace container (repro.trace.trace)."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import DeviceType, Event, EventType, Trace
from repro.trace.trace import COLUMNS

from conftest import make_trace

P = DeviceType.PHONE
CC = DeviceType.CONNECTED_CAR
E = EventType


#: (UE, half-second time, event) rows with many ties.
_ROWS = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 5), st.integers(0, 5)),
    max_size=40,
)


class TestConstruction:
    def test_sorts_by_time(self):
        tr = make_trace(
            [(1, 5.0, E.SRV_REQ, P), (2, 1.0, E.ATCH, P), (1, 3.0, E.TAU, P)]
        )
        assert list(tr.times) == [1.0, 3.0, 5.0]

    def test_ties_broken_by_ue_id(self):
        tr = make_trace([(5, 1.0, E.HO, P), (2, 1.0, E.TAU, P)])
        assert list(tr.ue_ids) == [2, 5]

    @settings(max_examples=200, deadline=None)
    @given(rows=_ROWS)
    def test_rows_in_lexsort_order_and_sorted_input_kept(self, rows):
        """Any rows, tied times and ids included, come out in the stable
        ``(time, ue_id)`` order; rows already in it are kept, not copied."""
        ue = np.array([r[0] for r in rows], dtype=np.int64)
        columns = {
            "ue_ids": ue,
            "times": np.array([r[1] * 0.5 for r in rows], dtype=np.float64),
            "event_types": np.array([r[2] for r in rows], dtype=np.int8),
            "device_types": (ue % 3).astype(np.int8),
        }
        tr = Trace(*columns.values())
        order = np.lexsort((ue, columns["times"]))
        for name, column in columns.items():
            assert np.array_equal(getattr(tr, name), column[order])
        again = Trace(*(getattr(tr, name) for name in COLUMNS))
        for name in COLUMNS:
            kept = getattr(again, name)
            assert np.shares_memory(kept, getattr(tr, name)) or not rows

    @settings(max_examples=100, deadline=None)
    @given(rows=_ROWS)
    def test_row_subsets_equal_a_checked_build(self, rows):
        """Filters, windows and per-UE views skip the constructor's
        checks and order; each gives what the constructor gives."""
        ue = np.array([r[0] for r in rows], dtype=np.int64)
        tr = Trace(
            ue,
            np.array([r[1] * 0.5 for r in rows], dtype=np.float64),
            np.array([r[2] for r in rows], dtype=np.int8),
            (ue % 3).astype(np.int8),
        )
        subsets = [
            tr.filter_device(P),
            tr.filter_event(E.HO),
            tr.filter_ues([1, 3]),
            tr.window(0.5, 2.0),
            tr.ue_trace(2),
            *(sub for _, sub in tr.per_ue()),
        ]
        for sub in subsets:
            assert sub == Trace(*(getattr(sub, name) for name in COLUMNS))

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError, match="lengths differ"):
            Trace(
                np.array([1]),
                np.array([1.0, 2.0]),
                np.array([0]),
                np.array([0]),
            )

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            make_trace([(1, -1.0, E.ATCH, P)])

    def test_unknown_event_rejected(self):
        with pytest.raises(ValueError, match="unknown event"):
            Trace(
                np.array([1]),
                np.array([1.0]),
                np.array([99], dtype=np.int8),
                np.array([0], dtype=np.int8),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_rejected(self, bad):
        with pytest.raises(ValueError, match="'times'.*non-finite"):
            Trace(
                np.array([1, 2]),
                np.array([1.0, bad]),
                np.array([0, 0]),
                np.array([0, 0]),
            )

    @pytest.mark.parametrize(
        "column,value",
        [
            ("event_types", 258),     # would wrap to the valid code 2
            ("device_types", 256),    # would wrap to the valid code 0
            ("event_types", np.nan),
        ],
    )
    def test_bad_code_rejected_before_cast(self, column, value):
        columns = {"event_types": np.array([0]), "device_types": np.array([0])}
        columns[column] = np.array([value])
        with pytest.raises(ValueError, match=f"'{column}'"):
            Trace(np.array([1]), np.array([1.0]), **columns)

    @pytest.mark.parametrize(
        "column,value",
        [
            ("ue_ids", 1.7),          # would truncate to UE 1
            ("ue_ids", np.nan),
            ("ue_ids", np.inf),
            ("event_types", 2.5),     # would truncate to the valid code 2
            ("device_types", 0.5),    # would truncate to PHONE
        ],
    )
    def test_non_integral_value_rejected(self, column, value):
        columns = {
            "ue_ids": np.array([1]),
            "event_types": np.array([0]),
            "device_types": np.array([0]),
        }
        columns[column] = np.array([value])
        with pytest.raises(ValueError, match=f"'{column}'.*non-integer"):
            Trace(times=np.array([1.0]), **columns)

    def test_integral_floats_accepted(self):
        tr = Trace(np.array([3.0]), np.array([1.0]), np.array([2.0]), np.array([1.0]))
        assert tr[0] == Event(3, 1.0, E.SRV_REQ, CC)

    def test_negative_ue_id_rejected(self):
        with pytest.raises(ValueError, match="'ue_ids'.*negative"):
            make_trace([(-1, 1.0, E.ATCH, P)])

    def test_ue_with_two_device_types_rejected(self):
        """The first such UE (by id) is named, with the column."""
        with pytest.raises(ValueError, match="'device_types'.* UE 5 more than one"):
            make_trace(
                [
                    (9, 1.0, E.ATCH, P),
                    (9, 2.0, E.SRV_REQ, CC),
                    (5, 3.0, E.ATCH, CC),
                    (5, 0.5, E.HO, P),
                ]
            )
        one_each = make_trace([(5, 0.5, E.ATCH, CC), (9, 1.0, E.ATCH, P)])
        assert one_each.device_of() == {5: CC, 9: P}
        with pytest.raises(ValueError, match="'device_types'.* UE 3 "):
            Trace.from_events(
                [Event(3, 1.0, E.ATCH, P), Event(3, 2.0, E.SRV_REQ, CC)]
            )

    def test_from_events_roundtrip(self):
        events = [
            Event(1, 2.0, E.SRV_REQ, P),
            Event(1, 1.0, E.ATCH, P),
        ]
        tr = Trace.from_events(events)
        assert len(tr) == 2
        assert tr[0].event_type == E.ATCH

    @pytest.mark.parametrize("time", [np.nan, np.inf, -np.inf, -1.0])
    def test_event_rejects_non_finite_or_negative_time(self, time):
        with pytest.raises(ValueError, match=f"got {time}"):
            Event(1, time, E.ATCH, P)

    def test_empty(self):
        tr = Trace.empty()
        assert len(tr) == 0
        assert tr.num_ues == 0
        assert tr.duration == 0.0

    def test_concatenate_resorts(self):
        a = make_trace([(1, 10.0, E.SRV_REQ, P)])
        b = make_trace([(2, 5.0, E.ATCH, CC)])
        merged = Trace.concatenate([a, b])
        assert list(merged.times) == [5.0, 10.0]
        assert merged.num_ues == 2

    def test_concatenate_rejects_a_ue_with_two_devices(self):
        phone = make_trace([(0, 1.0, E.ATCH, P)])
        tablet = make_trace([(0, 2.0, E.ATCH, DeviceType.TABLET)])
        with pytest.raises(ValueError, match="'device_types'.* UE 0 more than one"):
            Trace.concatenate([phone, tablet])

    def test_concatenate_empty_list(self):
        assert len(Trace.concatenate([])) == 0


class TestReadOnlyColumns:
    """The columns are read-only views, so nothing derived from them (the
    UE index, the content hash, the memos) can go stale."""

    def _columns(self):
        return (
            np.array([2, 1, 2], dtype=np.int64),
            np.array([1.0, 2.0, 3.0]),
            np.array([int(E.ATCH), int(E.SRV_REQ), int(E.HO)], dtype=np.int8),
            np.array([int(P)] * 3, dtype=np.int8),
        )

    def test_writes_raise_caller_arrays_stay_writable(self):
        columns = self._columns()
        trace = Trace(*columns)
        for name, column in zip(COLUMNS, columns):
            view = getattr(trace, name)
            assert np.shares_memory(view, column)  # sorted input: no copy
            with pytest.raises(ValueError, match="read-only"):
                view[0] = view[1]
            assert column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            trace.times += 1.0
        columns[1][0] = 0.5  # the caller's own array, still writable
        assert trace.times[0] == 0.5

    def test_reordered_and_cast_columns_read_only(self):
        ue, t, ev, dev = self._columns()
        trace = Trace(ue[::-1], t[::-1].tolist(), ev[::-1], dev[::-1])
        assert list(trace.times) == [1.0, 2.0, 3.0]
        for name in COLUMNS:
            assert not getattr(trace, name).flags.writeable

    def test_slices_read_only(self):
        trace = Trace(*self._columns())
        for sub in (trace.window(0.0, 2.5), trace.filter_device(P), trace.shift(1.0)):
            assert not sub.times.flags.writeable

    def test_memo_builds_once_per_key(self):
        trace = Trace(*self._columns())
        calls = []

        def build():
            calls.append(1)
            return len(calls)

        assert trace.memo(("a", 1), build) == 1
        assert trace.memo(("a", 1), build) == 1
        assert trace.memo(("a", 2), build) == 2
        assert len(calls) == 2
        assert Trace(*self._columns()).memo(("a", 1), build) == 3

    def test_pickle_rebuilds_through_the_constructor(self):
        """A pickled trace comes back read-only, equal, with the same
        content hash, and without the original's memos."""
        trace = Trace(*self._columns())
        trace.ue_index()
        digest = trace.content_hash()
        trace.memo("probe", lambda: 42)
        back = pickle.loads(pickle.dumps(trace))
        for name in COLUMNS:
            assert not getattr(back, name).flags.writeable
        assert back == trace
        assert back.content_hash() == digest
        assert back.memo("probe", lambda: None) is None


class TestAccess:
    def test_len_and_iter(self, tiny_trace):
        assert len(tiny_trace) == 12
        events = list(tiny_trace)
        assert len(events) == 12
        assert all(isinstance(e, Event) for e in events)

    def test_getitem(self, tiny_trace):
        first = tiny_trace[0]
        assert first.ue_id == 1
        assert first.event_type == E.ATCH

    def test_equality(self, tiny_trace):
        clone = make_trace(
            [(e.ue_id, e.time, e.event_type, e.device_type) for e in tiny_trace]
        )
        assert clone == tiny_trace
        assert tiny_trace != Trace.empty()

    def test_repr_mentions_counts(self, tiny_trace):
        text = repr(tiny_trace)
        assert "12 events" in text
        assert "2 UEs" in text

    def test_num_ues(self, tiny_trace):
        assert tiny_trace.num_ues == 2

    def test_duration(self, tiny_trace):
        assert tiny_trace.duration == pytest.approx(129.5)

    def test_device_of(self, tiny_trace):
        mapping = tiny_trace.device_of()
        assert mapping == {1: P, 2: P}


class TestSlicing:
    def test_filter_device(self):
        tr = make_trace([(1, 1.0, E.HO, P), (2, 2.0, E.HO, CC)])
        assert len(tr.filter_device(P)) == 1
        assert len(tr.filter_device(CC)) == 1
        assert len(tr.filter_device(DeviceType.TABLET)) == 0

    def test_filter_event(self, tiny_trace):
        srv = tiny_trace.filter_event(E.SRV_REQ)
        assert len(srv) == 3
        assert set(srv.event_types.tolist()) == {int(E.SRV_REQ)}

    def test_filter_ues(self, tiny_trace):
        only_two = tiny_trace.filter_ues([2])
        assert only_two.num_ues == 1
        assert len(only_two) == 4

    def test_window_half_open(self):
        tr = make_trace(
            [(1, 0.0, E.HO, P), (1, 10.0, E.HO, P), (1, 20.0, E.HO, P)]
        )
        win = tr.window(0.0, 20.0)
        assert list(win.times) == [0.0, 10.0]

    def test_window_rejects_inverted(self, tiny_trace):
        with pytest.raises(ValueError, match="precedes"):
            tiny_trace.window(10.0, 5.0)

    def test_hour_window(self):
        tr = make_trace(
            [(1, 100.0, E.HO, P), (1, 3700.0, E.HO, P), (1, 7300.0, E.HO, P)]
        )
        assert len(tr.hour_window(0)) == 1
        assert len(tr.hour_window(1)) == 1
        assert len(tr.hour_window(2)) == 1
        assert len(tr.hour_window(3)) == 0

    def test_shift(self, tiny_trace):
        shifted = tiny_trace.shift(100.0)
        assert shifted.times[0] == tiny_trace.times[0] + 100.0
        assert len(shifted) == len(tiny_trace)


class TestPerUe:
    def test_per_ue_order_and_partition(self, tiny_trace):
        parts = dict(tiny_trace.per_ue())
        assert sorted(parts) == [1, 2]
        assert sum(len(p) for p in parts.values()) == len(tiny_trace)

    def test_per_ue_preserves_time_order(self, tiny_trace):
        for _, sub in tiny_trace.per_ue():
            assert np.all(np.diff(sub.times) >= 0)

    def test_ue_trace_missing_ue(self, tiny_trace):
        assert len(tiny_trace.ue_trace(99)) == 0

    def test_events_per_ue_total(self, tiny_trace):
        counts = tiny_trace.events_per_ue()
        assert counts == {1: 8, 2: 4}

    def test_events_per_ue_filtered_includes_zero(self, tiny_trace):
        counts = tiny_trace.events_per_ue(E.HO)
        assert counts == {1: 1, 2: 0}

    def test_breakdown_sums_to_one(self, tiny_trace):
        assert sum(tiny_trace.breakdown().values()) == pytest.approx(1.0)

    def test_breakdown_empty_trace_all_zero(self):
        assert all(v == 0.0 for v in Trace.empty().breakdown().values())

    def test_device_mix(self, tiny_trace):
        mix = tiny_trace.device_mix()
        assert mix[P] == 2
        assert mix[CC] == 0
