"""Tests for trace replay: the per-event oracle walk (``oracle.replay``)
and the whole-trace array replay (``repro.statemachines.replay_trace``)."""

import numpy as np
import pytest

from repro.statemachines import (
    CONNECTED,
    DEREGISTERED,
    IDLE,
    classify_category2_events,
    emm_ecm_machine,
    replay_trace,
    two_level_machine,
)
from repro.trace import DeviceType, EventType

from conftest import make_trace
from oracle.replay import decode, replay_ue, top_level_intervals

E = EventType
P = DeviceType.PHONE


class TestReplayUe:
    def test_valid_sequence_no_violations(self):
        events = [E.ATCH, E.HO, E.TAU, E.S1_CONN_REL, E.SRV_REQ, E.DTCH]
        times = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        result = replay_ue(events, times)
        assert result.violations == 0
        assert result.final_state == DEREGISTERED

    def test_first_record_has_unknown_enter_time(self):
        result = replay_ue([E.ATCH], [1.0])
        assert result.records[0].enter_time is None
        assert result.records[0].sojourn is None

    def test_sojourn_computed_from_second_record(self):
        result = replay_ue([E.ATCH, E.S1_CONN_REL], [1.0, 11.0])
        assert result.records[1].sojourn == pytest.approx(10.0)

    def test_violation_forces_state(self):
        # HO while (inferred) IDLE is invalid in the two-level machine.
        result = replay_ue([E.SRV_REQ, E.S1_CONN_REL, E.HO], [1.0, 2.0, 3.0])
        assert result.violations == 1
        assert result.records[2].forced

    def test_initial_state_supplied(self):
        result = replay_ue([E.SRV_REQ], [5.0], initial_state="S1_REL_S_1")
        assert result.violations == 0
        assert not result.records[0].forced

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            replay_ue([E.ATCH], [1.0, 2.0])

    def test_first_event_inference(self):
        # A first SRV_REQ implies the UE was idle in S1_REL_S_1.
        result = replay_ue([E.SRV_REQ], [1.0])
        assert result.records[0].source == "S1_REL_S_1"
        assert result.violations == 0

    def test_emm_ecm_machine_replay(self):
        m = emm_ecm_machine()
        result = replay_ue(
            [E.ATCH, E.S1_CONN_REL, E.SRV_REQ, E.DTCH],
            [1.0, 2.0, 3.0, 4.0],
            m,
        )
        assert result.violations == 0
        assert result.final_state == DEREGISTERED


class TestDerivedQuantities:
    @pytest.fixture()
    def replay(self, tiny_trace):
        return replay_trace(tiny_trace)

    @pytest.fixture()
    def results(self, replay):
        return decode(replay)

    def test_replay_trace_covers_all_ues(self, replay, results, tiny_trace):
        assert set(results) == {1, 2}
        assert replay.num_ues == 2
        total_records = sum(len(r.records) for r in results.values())
        assert total_records == len(replay) == len(tiny_trace)

    def test_sojourn_samples_grouped(self, replay):
        samples = replay.sojourn_samples()
        # UE1: HO fired 9.5s after entering SRV_REQ_S via ATCH.
        assert ("SRV_REQ_S", E.HO) in samples
        assert samples[("SRV_REQ_S", E.HO)][0] == pytest.approx(9.5)

    def test_transition_counts(self, replay):
        counts = replay.transition_counts()
        # UE2 fires SRV_REQ twice, UE1 once: but UE2's first SRV_REQ and
        # second both come from S1_REL_S_1; UE1's once.
        assert counts[("S1_REL_S_1", E.SRV_REQ, "SRV_REQ_S")] >= 2

    def test_top_level_intervals_structure(self, results):
        intervals = top_level_intervals(results[1].records, end_time=200.0)
        states = [i.state for i in intervals]
        assert states == [DEREGISTERED, CONNECTED, IDLE, CONNECTED, DEREGISTERED]
        # First interval start is unknown, last ends at the given time.
        assert intervals[0].start is None
        assert intervals[-1].end == 200.0

    def test_top_state_sojourns(self, replay):
        sojourns = replay.top_state_sojourns()
        # UE1 CONNECTED from 0.5 (ATCH) to 30.0 (S1_CONN_REL).
        assert CONNECTED in sojourns
        assert 29.5 in [pytest.approx(v) for v in sojourns[CONNECTED]]

    def test_interval_complete_flag(self):
        result = replay_ue([E.ATCH, E.S1_CONN_REL], [1.0, 5.0])
        intervals = top_level_intervals(result.records)
        assert not intervals[0].complete   # DEREGISTERED since unknown
        assert intervals[1].complete       # CONNECTED [1, 5]
        assert not intervals[-1].complete  # IDLE, trace ends


class TestClassifyCategory2:
    def test_ho_classified_connected(self):
        tr = make_trace(
            [(1, 1.0, E.SRV_REQ, P), (1, 2.0, E.HO, P), (1, 3.0, E.S1_CONN_REL, P)]
        )
        counts = classify_category2_events(tr)
        assert counts[(E.HO, CONNECTED)] == 1
        assert counts[(E.HO, IDLE)] == 0

    def test_ho_in_idle_detected(self):
        """A baseline-style trace placing HO after release must count it."""
        tr = make_trace(
            [(1, 1.0, E.SRV_REQ, P), (1, 2.0, E.S1_CONN_REL, P), (1, 3.0, E.HO, P)]
        )
        counts = classify_category2_events(tr)
        assert counts[(E.HO, IDLE)] == 1

    def test_tau_split_by_state(self):
        tr = make_trace(
            [
                (1, 1.0, E.SRV_REQ, P),
                (1, 2.0, E.TAU, P),          # connected
                (1, 3.0, E.S1_CONN_REL, P),
                (1, 4.0, E.TAU, P),          # idle
            ]
        )
        counts = classify_category2_events(tr)
        assert counts[(E.TAU, CONNECTED)] == 1
        assert counts[(E.TAU, IDLE)] == 1

    def test_initial_state_inferred_from_later_event(self):
        # First event TAU, then S1_CONN_REL -> UE was CONNECTED.
        tr = make_trace([(1, 1.0, E.TAU, P), (1, 2.0, E.S1_CONN_REL, P)])
        counts = classify_category2_events(tr)
        assert counts[(E.TAU, CONNECTED)] == 1

    def test_ground_truth_has_no_idle_ho(self, ground_truth_trace):
        counts = classify_category2_events(ground_truth_trace)
        assert counts[(E.HO, IDLE)] == 0
        assert counts[(E.HO, CONNECTED)] > 0

    def test_ground_truth_replay_is_violation_free(self, ground_truth_trace):
        assert replay_trace(ground_truth_trace).violations == 0
