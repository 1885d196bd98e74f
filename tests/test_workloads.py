"""Tests for workload scenarios (repro.workloads)."""

import numpy as np
import pytest

from repro.statemachines import replay_trace
from repro.trace import DeviceType, EventType, Trace
from repro.workloads import (
    busy_hour_workload,
    full_day_workload,
    future_year_workload,
    inject_reattach_storm,
    storm_peak_rate,
)

from conftest import TRACE_START_HOUR, make_trace

E = EventType
P = DeviceType.PHONE


class TestGenerationWrappers:
    def test_busy_hour(self, ours_model_set):
        trace = busy_hour_workload(
            ours_model_set, 50, hour=TRACE_START_HOUR + 1, seed=1
        )
        assert len(trace) > 0
        assert trace.times.max() < 3600.0

    def test_full_day_spans_hours(self, ours_model_set):
        trace = full_day_workload(
            ours_model_set, 40, start_hour=TRACE_START_HOUR, seed=1
        )
        # Only the 4 fitted evening hours produce traffic, but the
        # horizon is a day.
        assert trace.times.max() < 24 * 3600.0
        hours = set((trace.times // 3600).astype(int).tolist())
        assert len(hours) >= 2

    def test_future_year_grows_population(self, ours_model_set):
        base = {DeviceType.PHONE: 40}
        now = future_year_workload(
            ours_model_set, base, 0, hour=TRACE_START_HOUR + 1, seed=1
        )
        later = future_year_workload(
            ours_model_set, base, 10, scenario="baseline",
            hour=TRACE_START_HOUR + 1, seed=1,
        )
        assert later.num_ues > now.num_ues


class TestReattachStorm:
    @pytest.fixture()
    def base_trace(self, ground_truth_trace):
        return ground_truth_trace.window(0, 7200.0)

    def test_storm_validity(self, base_trace):
        storm = inject_reattach_storm(
            base_trace, at=3600.0, fraction=0.5, seed=2
        )
        assert replay_trace(storm).violations == 0

    def test_atch_wave_present(self, base_trace):
        storm = inject_reattach_storm(
            base_trace, at=3600.0, fraction=0.5,
            outage_duration=60.0, reattach_spread=10.0, seed=2,
        )
        window = storm.window(3660.0, 3670.0)
        n_atch = int(np.count_nonzero(window.event_types == int(E.ATCH)))
        affected = int(round(0.5 * base_trace.num_ues))
        assert n_atch >= 0.9 * affected

    def test_affected_events_dropped_after_outage(self, base_trace):
        storm = inject_reattach_storm(
            base_trace, at=1800.0, fraction=1.0,
            outage_duration=300.0, reattach_spread=5.0, seed=2,
        )
        during = storm.window(1800.0 + 1e-3, 2100.0)
        # During the outage, nothing but the initial DTCHes at t=1800.
        assert len(during) == 0

    def test_storm_raises_peak_rate(self, base_trace):
        storm = inject_reattach_storm(
            base_trace, at=3600.0, fraction=0.8, reattach_spread=5.0, seed=2
        )
        assert storm_peak_rate(storm, event=E.ATCH) > storm_peak_rate(
            base_trace, event=E.ATCH
        )

    def test_unaffected_ues_untouched(self, base_trace):
        storm = inject_reattach_storm(
            base_trace, at=3600.0, fraction=0.3, seed=2
        )
        atch_added = set(
            storm.ue_ids[
                (storm.event_types == int(E.ATCH)) & (storm.times > 3600.0)
            ].tolist()
        )
        untouched = set(base_trace.unique_ues()) - atch_added
        some = list(untouched)[:5]
        for ue in some:
            assert storm.ue_trace(ue) == base_trace.ue_trace(ue)

    def test_parameter_validation(self, base_trace):
        with pytest.raises(ValueError):
            inject_reattach_storm(base_trace, at=10.0, fraction=0.0)
        with pytest.raises(ValueError):
            inject_reattach_storm(base_trace, at=-1.0)
        with pytest.raises(ValueError):
            inject_reattach_storm(Trace.empty(), at=1.0)

    def test_storm_stresses_mme(self, base_trace):
        """The point of the scenario: storms dominate tail latency."""
        from repro.mcn import MmeSimulator

        storm = inject_reattach_storm(
            base_trace, at=3600.0, fraction=0.9,
            outage_duration=60.0, reattach_spread=2.0, seed=2,
        )
        calm_report = MmeSimulator(num_workers=1).process(base_trace)
        storm_report = MmeSimulator(num_workers=1).process(storm)
        assert storm_report.max_wait > calm_report.max_wait
