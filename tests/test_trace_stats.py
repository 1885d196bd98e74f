"""Tests for descriptive trace statistics (repro.trace.stats)."""

import math

import pytest

from repro.trace import (
    BoxStats,
    DeviceType,
    EventType,
    breakdown_table,
    busiest_hour,
    diurnal_box_stats,
    event_breakdown,
    events_per_device_hour,
    hourly_event_counts,
    peak_to_trough_ratio,
)

from conftest import make_trace

P = DeviceType.PHONE
E = EventType


class TestBoxStats:
    def test_five_number_summary(self):
        stats = BoxStats.from_samples([1, 2, 3, 4, 5])
        assert stats.minimum == 1
        assert stats.median == 3
        assert stats.maximum == 5
        assert stats.mean == 3
        assert stats.count == 5

    def test_quartiles(self):
        stats = BoxStats.from_samples(list(range(101)))
        assert stats.lower_quartile == pytest.approx(25.0)
        assert stats.upper_quartile == pytest.approx(75.0)

    def test_empty_samples_give_nan(self):
        stats = BoxStats.from_samples([])
        assert math.isnan(stats.median)
        assert stats.count == 0


class TestBreakdown:
    def test_fractions(self):
        tr = make_trace(
            [(1, 1.0, E.HO, P), (1, 2.0, E.HO, P), (1, 3.0, E.TAU, P)]
        )
        bd = event_breakdown(tr)
        assert bd[E.HO] == pytest.approx(2 / 3)
        assert bd[E.TAU] == pytest.approx(1 / 3)
        assert bd[E.ATCH] == 0.0

    def test_per_device_isolation(self):
        tr = make_trace(
            [(1, 1.0, E.HO, P), (2, 2.0, E.TAU, DeviceType.TABLET)]
        )
        assert event_breakdown(tr, P)[E.HO] == 1.0
        assert event_breakdown(tr, DeviceType.TABLET)[E.TAU] == 1.0

    def test_breakdown_table_has_all_devices(self, ground_truth_trace):
        table = breakdown_table(ground_truth_trace)
        assert set(table) == set(DeviceType)
        for bd in table.values():
            assert sum(bd.values()) == pytest.approx(1.0)

    def test_ground_truth_matches_table1_shape(self, ground_truth_trace):
        """Dominant events carry the bulk of traffic, like Table 1."""
        for dt in DeviceType:
            bd = breakdown_table(ground_truth_trace)[dt]
            dominant = bd[E.SRV_REQ] + bd[E.S1_CONN_REL]
            assert dominant > 0.75
        # Connected cars have the highest TAU share (mobility).
        tau = {dt: breakdown_table(ground_truth_trace)[dt][E.TAU] for dt in DeviceType}
        assert tau[DeviceType.CONNECTED_CAR] > tau[DeviceType.PHONE]


class TestDiurnal:
    def test_counts_include_zero_samples(self):
        tr = make_trace([(1, 30.0, E.HO, P), (2, 40.0, E.TAU, P)])
        samples = events_per_device_hour(tr, P, E.HO)
        # Two UEs, one day: UE 1 has one HO in hour 0, UE 2 has zero.
        assert sorted(samples[0]) == [0, 1]
        assert sorted(samples[5]) == [0, 0]

    def test_multi_day_pooling(self):
        day = 86400.0
        tr = make_trace(
            [(1, 30.0, E.HO, P), (1, day + 30.0, E.HO, P), (1, day + 40.0, E.HO, P)]
        )
        samples = events_per_device_hour(tr, P, E.HO)
        assert sorted(samples[0]) == [1, 2]

    def test_diurnal_box_stats_has_24_hours(self, ground_truth_trace):
        stats = diurnal_box_stats(ground_truth_trace, P, E.SRV_REQ)
        assert set(stats) == set(range(24))

    def test_peak_to_trough_exceeds_one(self, ground_truth_trace):
        ratio = peak_to_trough_ratio(ground_truth_trace, P, E.SRV_REQ)
        assert ratio > 1.0

    def test_peak_to_trough_nan_when_no_events(self):
        tr = make_trace([(1, 1.0, E.HO, P)])
        assert math.isnan(peak_to_trough_ratio(tr, P, E.TAU))


class TestHourly:
    def test_hourly_event_counts(self):
        tr = make_trace(
            [(1, 100.0, E.HO, P), (1, 200.0, E.HO, P), (1, 3700.0, E.HO, P)]
        )
        counts = hourly_event_counts(tr)
        assert counts[0] == 2
        assert counts[1] == 1

    def test_hourly_empty(self):
        from repro.trace import Trace

        assert len(hourly_event_counts(Trace.empty())) == 0

    def test_busiest_hour(self):
        rows = [(1, float(i), E.HO, P) for i in range(5)]  # hour 0
        rows += [(1, 3600.0 + float(i), E.HO, P) for i in range(2)]
        assert busiest_hour(make_trace(rows)) == 0

    def test_busiest_hour_wraps_hour_of_day(self):
        # Events 25 hours in land on hour-of-day 1.
        rows = [(1, 25 * 3600.0 + float(i), E.HO, P) for i in range(5)]
        assert busiest_hour(make_trace(rows)) == 1

    def test_busiest_hour_empty_raises(self):
        from repro.trace import Trace

        with pytest.raises(ValueError):
            busiest_hour(Trace.empty())

