"""Tests for the validation metrics (repro.validation)."""

import math

import numpy as np
import pytest

from repro.statemachines import lte
from repro.trace import DeviceType, EventType
from repro.validation import breakdown, microscopic
from repro.validation import (
    BREAKDOWN_ROWS,
    activity_split_ydistance,
    breakdown_difference,
    breakdown_with_states,
    count_ydistance,
    format_percent,
    format_ratio,
    format_table,
    macro_comparison,
    max_abs_breakdown_difference,
    micro_comparison,
    micro_comparison_partial,
    per_ue_counts,
    sojourn_ydistance,
)

from conftest import make_trace
from oracle import replay as oracle_replay

E = EventType
P = DeviceType.PHONE


class TestBreakdownWithStates:
    def test_eight_rows(self):
        assert len(BREAKDOWN_ROWS) == 8

    def test_fractions_sum_to_one(self, ground_truth_trace):
        for dt in DeviceType:
            bd = breakdown_with_states(ground_truth_trace, dt)
            assert sum(bd.values()) == pytest.approx(1.0)

    def test_ho_rows_split_by_state(self):
        tr = make_trace(
            [
                (1, 1.0, E.SRV_REQ, P),
                (1, 2.0, E.HO, P),
                (1, 3.0, E.S1_CONN_REL, P),
                (1, 4.0, E.HO, P),  # invalid but must be *counted* as IDLE
            ]
        )
        bd = breakdown_with_states(tr, P)
        assert bd["HO (CONN.)"] == pytest.approx(0.25)
        assert bd["HO (IDLE)"] == pytest.approx(0.25)

    def test_empty_device(self, tiny_trace):
        bd = breakdown_with_states(tiny_trace, DeviceType.TABLET)
        assert all(v == 0.0 for v in bd.values())

    def test_difference_is_signed(self, ground_truth_trace, synthesized_trace):
        diff = breakdown_difference(ground_truth_trace, synthesized_trace, P)
        assert set(diff) == set(BREAKDOWN_ROWS)
        # Differences must cancel: both breakdowns sum to 1.
        assert sum(diff.values()) == pytest.approx(0.0, abs=1e-9)

    def test_max_abs_difference(self, ground_truth_trace, synthesized_trace):
        value = max_abs_breakdown_difference(
            ground_truth_trace, synthesized_trace, P
        )
        diffs = breakdown_difference(ground_truth_trace, synthesized_trace, P)
        assert value == max(abs(v) for v in diffs.values())

    def test_macro_comparison_structure(self, ground_truth_trace, synthesized_trace):
        table = macro_comparison(
            ground_truth_trace, {"ours": synthesized_trace}, [P]
        )
        assert set(table) == {P}
        assert set(table[P]) == {"real", "ours"}


class TestPerUeCounts:
    def test_zero_padding(self):
        tr = make_trace([(1, 1.0, E.SRV_REQ, P)])
        counts = per_ue_counts(tr, P, E.SRV_REQ, num_ues=4)
        assert list(counts) == [0.0, 0.0, 0.0, 1.0]

    def test_padding_smaller_than_present_rejected(self):
        tr = make_trace([(1, 1.0, E.SRV_REQ, P), (2, 2.0, E.SRV_REQ, P)])
        with pytest.raises(ValueError, match="smaller"):
            per_ue_counts(tr, P, E.SRV_REQ, num_ues=1)


class TestYdistances:
    def test_identical_traces_zero_distance(self, ground_truth_trace):
        assert (
            count_ydistance(
                ground_truth_trace, ground_truth_trace, P, E.SRV_REQ
            )
            == 0.0
        )

    def test_count_ydistance_range(self, ground_truth_trace, synthesized_trace):
        d = count_ydistance(
            ground_truth_trace.window(3600.0, 7200.0),
            synthesized_trace,
            P,
            E.SRV_REQ,
        )
        assert 0.0 <= d <= 1.0

    def test_sojourn_ydistance_identical(self, ground_truth_trace):
        assert (
            sojourn_ydistance(
                ground_truth_trace, ground_truth_trace, P, lte.CONNECTED
            )
            == 0.0
        )

    def test_sojourn_ydistance_missing_state(self, tiny_trace):
        silent = make_trace([(9, 1.0, E.ATCH, P)])
        with pytest.raises(ValueError, match="sojourns"):
            sojourn_ydistance(tiny_trace, silent, P, lte.CONNECTED)

    def test_activity_split(self, ground_truth_trace, synthesized_trace):
        inactive, active = activity_split_ydistance(
            ground_truth_trace.window(3600.0, 7200.0),
            synthesized_trace,
            P,
            E.SRV_REQ,
        )
        for v in (inactive, active):
            assert math.isnan(v) or 0.0 <= v <= 1.0

    def test_micro_comparison_keys(self, ground_truth_trace, synthesized_trace):
        metrics = micro_comparison(
            ground_truth_trace.window(3600.0, 7200.0), synthesized_trace, P
        )
        assert set(metrics) == {"SRV_REQ", "S1_CONN_REL", "CONNECTED", "IDLE"}

    def test_count_padding_changes_distance(self):
        # Regression (Scenario 2 bias): without population padding two
        # cohorts of different sizes but identical per-active-UE counts
        # look indistinguishable; the zero-event UEs are the difference.
        real = make_trace([(1, 1.0, E.SRV_REQ, P), (2, 2.0, E.SRV_REQ, P)])
        syn = make_trace([(7, 1.5, E.SRV_REQ, P)])
        assert count_ydistance(real, syn, P, E.SRV_REQ) == 0.0
        assert (
            count_ydistance(real, syn, P, E.SRV_REQ, syn_num_ues=2) == 0.5
        )


#: Each UE closes an IDLE sojourn (release -> service request) but its
#: CONNECTED interval never closes: first interval has no start, last
#: has no end.
_NO_CONNECTED_ROWS = [
    (1, 10.0, E.S1_CONN_REL, P),
    (1, 20.0, E.SRV_REQ, P),
    (2, 5.0, E.S1_CONN_REL, P),
    (2, 50.0, E.SRV_REQ, P),
]


class TestMicroComparisonPartial:
    def test_partial_reports_computable_quantities(self, ground_truth_trace):
        # Regression: the harness used to wrap all four quantities in a
        # single try/except, so one missing sojourn discarded every
        # micro-metric for the device.
        real = make_trace(_NO_CONNECTED_ROWS)
        syn = ground_truth_trace.window(3600.0, 7200.0)
        values, skipped = micro_comparison_partial(real, syn, P)
        assert set(values) == {"SRV_REQ", "S1_CONN_REL", "IDLE"}
        assert set(skipped) == {"CONNECTED"}
        assert "CONNECTED" in skipped["CONNECTED"]
        assert "PHONE" in skipped["CONNECTED"]

    def test_strict_comparison_raises(self, ground_truth_trace):
        real = make_trace(_NO_CONNECTED_ROWS)
        syn = ground_truth_trace.window(3600.0, 7200.0)
        with pytest.raises(ValueError, match="CONNECTED"):
            micro_comparison(real, syn, P)

    def test_engines_agree(self, ground_truth_trace, synthesized_trace, monkeypatch):
        """Macro and micro metrics equal those computed with the
        per-event reference replay swapped in."""
        real = ground_truth_trace.window(3600.0, 7200.0)
        comp_micro = micro_comparison_partial(real, synthesized_trace, P)
        comp_macro = breakdown_difference(real, synthesized_trace, P)
        monkeypatch.setattr(
            microscopic, "device_sojourns", oracle_replay.device_sojourns
        )
        monkeypatch.setattr(
            breakdown,
            "classify_category2_events",
            oracle_replay.classify_category2_events,
        )
        assert micro_comparison_partial(real, synthesized_trace, P) == comp_micro
        assert breakdown_difference(real, synthesized_trace, P) == comp_macro


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [["a", 1], ["long-name", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2]
        assert all(len(line) > 0 for line in lines)

    def test_format_percent(self):
        assert format_percent(0.123) == "12.3%"
        assert format_percent(-0.05, signed=True) == "-5.0%"
        assert format_percent(0.05, signed=True) == "+5.0%"

    def test_format_ratio(self):
        assert format_ratio(4.768) == "4.77x"
