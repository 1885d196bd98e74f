"""Tests for aggregate validation and DOT export."""

import numpy as np
import pytest

from repro.statemachines import (
    emm_ecm_machine,
    machine_to_dot,
    nr_sa_machine,
    two_level_machine,
)
from repro.trace import DeviceType, EventType, Trace
from repro.validation import compare_aggregate, rate_curve

from conftest import make_trace

E = EventType
P = DeviceType.PHONE


class TestRateCurve:
    def test_binning(self):
        tr = make_trace(
            [(1, 10.0, E.HO, P), (1, 30.0, E.HO, P), (1, 70.0, E.HO, P)]
        )
        curve = rate_curve(tr, bin_seconds=60.0, duration=120.0)
        assert list(curve) == [2, 1]

    def test_event_filter(self):
        tr = make_trace([(1, 10.0, E.HO, P), (1, 20.0, E.TAU, P)])
        curve = rate_curve(tr, bin_seconds=60.0, duration=60.0, event_type=E.HO)
        assert list(curve) == [1]

    def test_rejects_bad_bin(self, tiny_trace):
        with pytest.raises(ValueError):
            rate_curve(tiny_trace, bin_seconds=0.0)

    def test_empty_trace(self):
        curve = rate_curve(Trace.empty(), bin_seconds=60.0, duration=120.0)
        assert list(curve) == [0, 0]


class TestCompareAggregate:
    def test_identical_traces(self, ground_truth_trace):
        cmp = compare_aggregate(ground_truth_trace, ground_truth_trace)
        assert cmp.volume_ratio == 1.0
        assert cmp.rate_curve_correlation == pytest.approx(1.0)
        assert cmp.rate_distribution_ydistance == 0.0
        assert cmp.burstiness_gap_mean == pytest.approx(0.0)

    def test_synthesized_volume_close(self, ground_truth_trace, synthesized_trace):
        real_hour = ground_truth_trace.window(3600.0, 7200.0).shift(-3600.0)
        cmp = compare_aggregate(real_hour, synthesized_trace)
        assert 0.4 < cmp.volume_ratio < 2.5

    def test_rejects_empty(self, ground_truth_trace):
        with pytest.raises(ValueError):
            compare_aggregate(ground_truth_trace, Trace.empty())


class TestDotExport:
    def test_two_level_renders_clusters(self):
        dot = machine_to_dot(two_level_machine())
        assert dot.startswith('digraph "LTE-two-level"')
        assert 'label="CONNECTED"' in dot
        assert 'label="IDLE"' in dot
        assert dot.rstrip().endswith("}")

    def test_all_transitions_present(self):
        machine = two_level_machine()
        dot = machine_to_dot(machine)
        assert dot.count("->") == len(machine.transitions()) + 1  # +start edge

    def test_flat_machine(self):
        dot = machine_to_dot(emm_ecm_machine())
        assert "subgraph" not in dot
        assert '"DEREGISTERED" -> "CONNECTED" [label="ATCH"]' in dot

    def test_event_renaming(self):
        from repro.trace import LTE_TO_NR_EVENT

        names = {int(lte): nr.name for lte, nr in LTE_TO_NR_EVENT.items()}
        dot = machine_to_dot(nr_sa_machine(), event_names=names)
        assert 'label="REGISTER"' in dot
        assert 'label="AN_REL"' in dot
        assert 'label="ATCH"' not in dot

    def test_initial_state_marked(self):
        dot = machine_to_dot(two_level_machine())
        assert '__start -> "DEREGISTERED"' in dot
