"""Whole-trace replay: exact equivalence with the reference oracle.

The evaluation guarantee mirrors the fitting one: ``replay_trace``
must produce *identical* outputs to the per-event walk in
``oracle.replay`` — same decoded records, same
sojourn samples in the same order, same transition counts, same
top-level intervals, same Category-2 classification — for every
machine kind and device cohort, including traces that violate the
machine (forced transitions).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.statemachines
from repro.statemachines import (
    TraceReplay,
    classify_category2_events,
    replay_trace,
)
from repro.statemachines.compiled_replay import (
    _WALK_PASSES,
    _replay_codes,
    table_for,
)
from repro.statemachines.lte import emm_ecm_machine, two_level_machine
from repro.statemachines.nr import nr_sa_machine
from repro.trace import DeviceType, EventType, Trace

from conftest import make_trace
from oracle import replay as oracle
from oracle.replay import decode, replay_ue, top_level_intervals

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: machine builder + the event codes that machine can replay.
MACHINES = {
    "two_level": (two_level_machine, [0, 1, 2, 3, 4, 5]),
    "emm_ecm": (emm_ecm_machine, [0, 1, 2, 3]),
    "nr_sa": (nr_sa_machine, [0, 1, 2, 3, 4]),
}

P = DeviceType.PHONE
E = EventType


def _filter_events(trace, codes):
    mask = np.isin(trace.event_types, np.asarray(codes))
    return Trace(
        trace.ue_ids[mask],
        trace.times[mask],
        trace.event_types[mask],
        trace.device_types[mask],
    )


def assert_replays_equal(trace, machine):
    """Pin replay == oracle for one (trace, machine) pair."""
    ref = oracle.replay_trace(trace, machine)
    comp = replay_trace(trace, machine)
    assert isinstance(comp, TraceReplay)
    decoded = decode(comp)
    assert set(decoded) == set(ref)
    for ue in ref:
        assert decoded[ue].records == ref[ue].records
        assert decoded[ue].violations == ref[ue].violations
        assert decoded[ue].final_state == ref[ue].final_state
    ref_soj, comp_soj = oracle.sojourn_samples(ref), comp.sojourn_samples()
    assert set(ref_soj) == set(comp_soj)
    for key in ref_soj:
        assert np.array_equal(ref_soj[key], comp_soj[key])
    assert oracle.transition_counts(ref) == comp.transition_counts()
    ref_top = oracle.top_state_sojourns(ref, machine)
    comp_top = comp.top_state_sojourns()
    assert set(ref_top) == set(comp_top)
    for state in ref_top:
        assert np.array_equal(ref_top[state], comp_top[state])
        durations, starts = comp.state_visits(state)
        assert np.array_equal(durations, ref_top[state])
        ref_starts = [
            interval.start
            for result in ref.values()
            for interval in top_level_intervals(result.records, machine)
            if interval.complete and interval.state == state
        ]
        assert np.array_equal(starts, np.asarray(ref_starts))


class TestEngineDispatch:
    """Replay has one engine: no switch, no constant to pick one."""

    def test_engines_listed(self):
        assert not hasattr(repro.statemachines, "REPLAY_ENGINES")
        assert not hasattr(repro.statemachines, "replay_trace_compiled")

    def test_unknown_engine_rejected(self, tiny_trace):
        with pytest.raises(TypeError, match="engine"):
            replay_trace(tiny_trace, engine="compiled")
        with pytest.raises(TypeError, match="engine"):
            classify_category2_events(tiny_trace, engine="compiled")

    def test_compiled_returns_trace_replay(self, tiny_trace):
        result = replay_trace(tiny_trace)
        assert isinstance(result, TraceReplay)
        assert result.num_ues == tiny_trace.num_ues
        assert len(result) == len(tiny_trace)

    def test_empty_trace(self):
        empty = Trace.empty()
        assert oracle.replay_trace(empty) == {}
        comp = replay_trace(empty)
        assert decode(comp) == {}
        assert comp.sojourn_samples() == {}
        assert comp.transition_counts() == {}
        assert comp.top_state_sojourns() == {}
        assert all(part.size == 0 for part in comp.state_visits("IDLE"))


class TestMachineDeviceEquality:
    """The pinned machine × device equality grid."""

    @pytest.mark.parametrize("kind", sorted(MACHINES))
    @pytest.mark.parametrize("device_type", list(DeviceType))
    def test_ground_truth_cohorts(self, kind, device_type, ground_truth_trace):
        builder, codes = MACHINES[kind]
        cohort = _filter_events(
            ground_truth_trace.filter_device(device_type), codes
        )
        assert len(cohort) > 0
        assert_replays_equal(cohort, builder())

    @pytest.mark.parametrize("kind", sorted(MACHINES))
    def test_tiny_trace(self, kind, tiny_trace):
        builder, codes = MACHINES[kind]
        assert_replays_equal(_filter_events(tiny_trace, codes), builder())


class TestForcedViolations:
    """Traces that violate the machine exercise the forced-repair path."""

    #: Every row deliberately out of order for the two-level machine:
    #: HO before any attach, double SRV_REQ, S1_CONN_REL from DEREGISTERED.
    VIOLATING_ROWS = [
        (1, 1.0, E.HO, P),           # first event, invalid anywhere cold
        (1, 2.0, E.SRV_REQ, P),      # SRV_REQ while CONNECTED
        (1, 3.0, E.SRV_REQ, P),      # and again
        (1, 4.0, E.DTCH, P),
        (1, 5.0, E.S1_CONN_REL, P),  # release while DEREGISTERED
        (2, 0.5, E.TAU, P),
        (2, 1.5, E.ATCH, P),
        (2, 2.5, E.ATCH, P),         # double attach
        (2, 3.5, E.HO, P),
        (2, 4.5, E.HO, P),
        (3, 9.0, E.S1_CONN_REL, P),  # lone release
    ]

    @pytest.mark.parametrize("kind", sorted(MACHINES))
    def test_violating_trace_equality(self, kind):
        builder, codes = MACHINES[kind]
        trace = _filter_events(make_trace(self.VIOLATING_ROWS), codes)
        assert_replays_equal(trace, builder())

    def test_violations_counted(self):
        trace = make_trace(self.VIOLATING_ROWS)
        ref = oracle.replay_trace(trace)
        comp = decode(replay_trace(trace))
        assert sum(r.violations for r in ref.values()) > 0
        for ue in ref:
            assert comp[ue].violations == ref[ue].violations


class TestHypothesisEquality:
    @pytest.mark.parametrize("kind", sorted(MACHINES))
    @SETTINGS
    @given(data=st.data())
    def test_matches_replay_ue_per_ue(self, kind, data):
        """Compiled whole-trace replay == replay_ue on every UE."""
        builder, codes = MACHINES[kind]
        machine = builder()
        num_ues = data.draw(st.integers(min_value=1, max_value=4))
        rows = []
        per_ue = {}
        for ue in range(num_ues):
            events = data.draw(
                st.lists(st.sampled_from(codes), min_size=1, max_size=15)
            )
            deltas = data.draw(
                st.lists(
                    st.floats(min_value=1e-3, max_value=600.0, allow_nan=False),
                    min_size=len(events),
                    max_size=len(events),
                )
            )
            times = np.cumsum(np.asarray(deltas, dtype=np.float64))
            per_ue[ue] = (events, times)
            rows.extend((ue, t, e, 0) for t, e in zip(times, events))
        trace = make_trace(rows)
        decoded = decode(replay_trace(trace, machine))
        assert set(decoded) == set(per_ue)
        for ue, (events, times) in per_ue.items():
            ref = replay_ue(events, times, machine)
            assert decoded[ue].records == ref.records
            assert decoded[ue].violations == ref.violations
            assert decoded[ue].final_state == ref.final_state


class TestLongRuns:
    """Runs of source-dependent events longer than the frontier walk's
    passes reach the doubling fallback of the replay kernel."""

    @staticmethod
    def _longest_run(trace, machine):
        """Longest run of rows whose state depends on the previous row's."""
        table = table_for(machine)
        index = trace.ue_index()
        events = trace.event_types[index.order].astype(np.int64)
        barrier = index.firsts() | (table.const_target[events] >= 0)
        starts = np.append(np.flatnonzero(barrier), len(events))
        return int((np.diff(starts) - 1).max())

    def _check(self, kind, rows):
        builder, codes = MACHINES[kind]
        machine = builder()
        trace = _filter_events(make_trace(rows), codes)
        assert_replays_equal(trace, machine)
        if kind == "two_level":
            assert self._longest_run(trace, machine) > _WALK_PASSES
        return trace

    @pytest.mark.parametrize("kind", sorted(MACHINES))
    def test_one_long_alternating_ue(self, kind):
        rows = [(7, 0.5, E.SRV_REQ, P)] + [
            (7, 1.0 + i, E.S1_CONN_REL if i % 2 == 0 else E.TAU, P)
            for i in range(10_000)
        ]
        self._check(kind, rows)

    @pytest.mark.parametrize("kind", sorted(MACHINES))
    def test_long_tau_runs_in_both_states(self, kind):
        """A TAU run keeps the state it starts in (TAU_S_CONN after a
        SRV_REQ, TAU_S_IDLE after a release), so only a correct
        composition gets both blocks right."""
        events = []
        for opener, length in ((E.SRV_REQ, 700), (E.S1_CONN_REL, 300), (E.HO, 50)):
            events += [opener] + [E.TAU] * length
        rows = [(3, 1.0 + i, e, P) for i, e in enumerate(events)]
        self._check(kind, rows)

    @pytest.mark.parametrize("kind", sorted(MACHINES))
    def test_short_segments_with_a_few_long_ones(self, kind):
        rng = np.random.default_rng(3)
        dependent = [int(E.S1_CONN_REL), int(E.TAU)]
        rows = []
        for ue in range(300):
            if ue % 60 == 5:  # a few long source-dependent runs
                events = [int(rng.integers(0, 6))]
                events += rng.choice(dependent, size=int(rng.integers(20, 400))).tolist()
                events += [int(E.SRV_REQ)] + [int(E.TAU)] * int(rng.integers(8, 100))
                events += rng.integers(0, 6, size=5).tolist()
            else:
                events = rng.integers(0, 6, size=int(rng.integers(1, 12))).tolist()
            times = np.cumsum(rng.uniform(0.01, 60.0, size=len(events)))
            rows.extend((ue, float(t), e, P) for t, e in zip(times, events))
        trace = self._check(kind, rows)
        assert trace.num_ues > 1

    @pytest.mark.parametrize("kind", sorted(MACHINES))
    @SETTINGS
    @given(data=st.data())
    def test_long_runs_match_replay_ue(self, kind, data):
        """Per-UE equality with ``replay_ue`` on UEs made of long runs:
        blocks of any event, a mixed run of source-dependent events,
        then a run of one of them."""
        builder, codes = MACHINES[kind]
        machine = builder()
        run_events = [c for c in codes if c in (int(E.S1_CONN_REL), int(E.TAU))]
        rows = []
        per_ue = {}
        for ue in range(data.draw(st.integers(min_value=1, max_value=3))):
            events = []
            for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
                events.append(data.draw(st.sampled_from(codes)))
                events += data.draw(
                    st.lists(st.sampled_from(run_events), min_size=0, max_size=12)
                )
                events += [data.draw(st.sampled_from(run_events))] * data.draw(
                    st.integers(min_value=0, max_value=40)
                )
            times = np.arange(1, len(events) + 1, dtype=np.float64)
            per_ue[ue] = (events, times)
            rows.extend((ue, t, e, 0) for t, e in zip(times, events))
        decoded = decode(replay_trace(make_trace(rows), machine))
        for ue, (events, times) in per_ue.items():
            ref = replay_ue(events, times, machine)
            assert decoded[ue].records == ref.records
            assert decoded[ue].violations == ref.violations
            assert decoded[ue].final_state == ref.final_state

    def test_first_row_must_start_a_segment(self):
        table = table_for(two_level_machine())
        events = np.asarray([int(E.TAU), int(E.TAU)], dtype=np.int64)
        with pytest.raises(ValueError, match="first row"):
            _replay_codes(events, np.zeros(2, dtype=bool), table)


class TestCategory2Classification:
    def test_ground_truth_equality(self, ground_truth_trace):
        ref = oracle.classify_category2_events(ground_truth_trace)
        comp = classify_category2_events(ground_truth_trace)
        assert ref == comp
        assert sum(ref.values()) > 0

    def test_empty_trace(self):
        counts = classify_category2_events(Trace.empty())
        assert set(counts.values()) == {0}

    def test_all_tau_and_lone_ho_ues(self):
        # An all-TAU UE back-infers IDLE; a UE with any HO infers CONNECTED.
        trace = make_trace(
            [
                (1, 1.0, E.TAU, P),
                (1, 2.0, E.TAU, P),
                (2, 1.0, E.TAU, P),
                (2, 2.0, E.HO, P),
            ]
        )
        ref = oracle.classify_category2_events(trace)
        comp = classify_category2_events(trace)
        assert ref == comp

    @SETTINGS
    @given(data=st.data())
    def test_random_traces_equal(self, data):
        num_ues = data.draw(st.integers(min_value=1, max_value=5))
        rows = []
        for ue in range(num_ues):
            events = data.draw(
                st.lists(st.sampled_from(list(range(6))), max_size=20)
            )
            for i, event in enumerate(events):
                rows.append((ue, float(i + 1), event, 0))
        if not rows:
            return
        trace = make_trace(rows)
        assert oracle.classify_category2_events(
            trace
        ) == classify_category2_events(trace)


class TestTableCache:
    def test_cached_by_machine_name(self):
        machine = two_level_machine()
        assert table_for(machine) is table_for(two_level_machine())
        assert table_for(machine).machine_name == machine.name
