"""Tests for workload scenarios (repro.workloads)."""

import numpy as np
import pytest

from repro.generator import TrafficGenerator
from repro.groundtruth import project_population
from repro.statemachines import replay_trace
from repro.trace import DeviceType, EventType, Trace
from repro.workloads import inject_reattach_storm, storm_peak_rate

from conftest import TRACE_START_HOUR, make_trace

E = EventType
P = DeviceType.PHONE


class TestGenerationWrappers:
    """The plain workloads named in ``repro.workloads.scenarios``'
    docstring: one generator call each."""

    def test_busy_hour(self, ours_model_set):
        trace = TrafficGenerator(ours_model_set).generate(
            50, start_hour=TRACE_START_HOUR + 1, seed=1
        )
        assert len(trace) > 0
        assert trace.times.max() < 3600.0

    def test_full_day_spans_hours(self, ours_model_set):
        trace = TrafficGenerator(ours_model_set).generate(
            40, start_hour=TRACE_START_HOUR, num_hours=24, seed=1
        )
        # Only the 4 fitted evening hours produce traffic, but the
        # horizon is a day.
        assert trace.times.max() < 24 * 3600.0
        hours = set((trace.times // 3600).astype(int).tolist())
        assert len(hours) >= 2

    def test_future_year_grows_population(self, ours_model_set):
        base = {DeviceType.PHONE: 40}
        generator = TrafficGenerator(ours_model_set)
        now, later = (
            generator.generate(
                project_population(base, years, scenario="baseline"),
                start_hour=TRACE_START_HOUR + 1,
                seed=1,
            )
            for years in (0, 10)
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

    #: ``Trace.content_hash`` of the storm for pinned arguments, so its
    #: output cannot drift.  ``at=0.0`` and ``at=60.0`` cover affected
    #: UEs with no event before the outage (assumed registered).
    PINNED = (
        (
            dict(at=3600.0, fraction=0.5, seed=2),
            "ce15722398af5854243f7d1c5a96d1d43dbbc72cbdb2c9a2f5dcdc39ece7906f",
        ),
        (
            dict(at=1800.0, fraction=1.0, seed=7),
            "2189b405136c7e77ba7bd7d55ff4de95685ee0a0b99874a48382df846ff4a296",
        ),
        (
            dict(at=0.0, fraction=0.3, seed=1),
            "74edcc46be5df74357e5116981e3310af598b24de4a6e518a9228d05dd848af9",
        ),
        (
            dict(at=60.0, fraction=1.0, seed=3),
            "53cc25c7fd55d5d3c1acf47ec476fc49ffe2a479cffa00619feb21efab560a07",
        ),
        (
            dict(
                at=5000.0, fraction=0.25, seed=11,
                outage_duration=30.0, reattach_spread=0.0,
            ),
            "123867027bcf9f63d07e8b264ce53930f0c6d2d9698534ae634f9c373a1d18bb",
        ),
    )

    @pytest.mark.parametrize("kwargs,digest", PINNED)
    def test_pinned_content_hash(self, base_trace, kwargs, digest):
        assert inject_reattach_storm(base_trace, **kwargs).content_hash() == digest

    def test_parameter_validation(self, base_trace):
        with pytest.raises(ValueError):
            inject_reattach_storm(base_trace, at=10.0, fraction=0.0)
        with pytest.raises(ValueError):
            inject_reattach_storm(base_trace, at=-1.0)
        with pytest.raises(ValueError):
            inject_reattach_storm(Trace.empty(), at=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["at", "outage_duration", "reattach_spread"])
    def test_non_finite_parameters_are_named(self, base_trace, name, bad):
        """A non-finite outage time, length or spread would give the
        grafted DTCH/ATCH rows non-finite timestamps."""
        kwargs = {"at": 3600.0, name: bad}
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            inject_reattach_storm(base_trace, **kwargs)

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
