"""Tests for the validation metrics (repro.validation)."""

import math

import numpy as np
import pytest

from repro.statemachines import lte
from repro.statemachines.compiled_replay import replay_trace
from repro.stats.ecdf import max_y_distance
from repro.trace import DeviceType, EventType
from repro.validation import summary
from repro.validation import (
    BREAKDOWN_ROWS,
    MICRO_QUANTITIES,
    activity_split_ydistance,
    breakdown_with_states,
    compare,
    format_percent,
    format_ratio,
    format_table,
    per_ue_counts,
    summarize,
)

from conftest import fresh_copy, make_trace
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
        diff = _compare(ground_truth_trace, synthesized_trace).macro_diff
        assert list(diff) == list(BREAKDOWN_ROWS)
        # Differences must cancel: both breakdowns sum to 1.
        assert sum(diff.values()) == pytest.approx(0.0, abs=1e-9)

    def test_max_abs_difference(self, ground_truth_trace, synthesized_trace):
        result = _compare(ground_truth_trace, synthesized_trace)
        assert result.macro_max_error == max(
            abs(v) for v in result.macro_diff.values()
        )

    def test_macro_comparison_structure(self, ground_truth_trace):
        real = summarize(ground_truth_trace, P)
        assert real.device_type == P
        assert real.breakdown == breakdown_with_states(ground_truth_trace, P)
        assert list(real.breakdown) == list(BREAKDOWN_ROWS)
        assert list(real.samples) == list(MICRO_QUANTITIES)


def _compare(real, synthesized, device_type=P, *, syn_num_ues=None):
    return compare(
        summarize(real, device_type),
        summarize(synthesized, device_type, num_ues=syn_num_ues),
    )


class TestPerUeCounts:
    def test_zero_padding(self):
        tr = make_trace([(1, 1.0, E.SRV_REQ, P)])
        counts = per_ue_counts(tr, P, E.SRV_REQ, num_ues=4)
        assert list(counts) == [0.0, 0.0, 0.0, 1.0]

    def test_padding_smaller_than_present_rejected(self):
        tr = make_trace([(1, 1.0, E.SRV_REQ, P), (2, 2.0, E.SRV_REQ, P)])
        with pytest.raises(ValueError, match="smaller"):
            per_ue_counts(tr, P, E.SRV_REQ, num_ues=1)
        with pytest.raises(ValueError, match="smaller"):
            summarize(tr, P, num_ues=1)

    def test_includes_zero_count_ues(self):
        tr = make_trace([(1, 1.0, E.SRV_REQ, P), (2, 2.0, E.HO, P)])
        counts = per_ue_counts(tr, P, E.SRV_REQ)
        assert list(counts) == [0.0, 1.0]

    def test_sorted_output(self, ground_truth_trace):
        counts = per_ue_counts(ground_truth_trace, P, E.SRV_REQ)
        assert np.all(np.diff(counts) >= 0)


class TestYdistances:
    def test_identical_traces_zero_distance(self, ground_truth_trace):
        micro = _compare(ground_truth_trace, ground_truth_trace).micro
        assert micro["SRV_REQ"] == 0.0

    def test_count_ydistance_range(self, ground_truth_trace, synthesized_trace):
        d = _compare(
            ground_truth_trace.window(3600.0, 7200.0), synthesized_trace
        ).micro["SRV_REQ"]
        assert 0.0 <= d <= 1.0

    def test_sojourn_ydistance_identical(self, ground_truth_trace):
        micro = _compare(ground_truth_trace, ground_truth_trace).micro
        assert micro[lte.CONNECTED] == 0.0

    def test_sojourn_ydistance_missing_state(self, tiny_trace):
        silent = make_trace([(9, 1.0, E.ATCH, P)])
        skipped = _compare(tiny_trace, silent).micro_skipped
        assert "sojourns" in skipped[lte.CONNECTED]

    def test_activity_split(self, ground_truth_trace, synthesized_trace):
        inactive, active = activity_split_ydistance(
            summarize(ground_truth_trace.window(3600.0, 7200.0), P),
            summarize(synthesized_trace, P),
            E.SRV_REQ,
        )
        for v in (inactive, active):
            assert math.isnan(v) or 0.0 <= v <= 1.0

    def test_micro_comparison_keys(self, ground_truth_trace, synthesized_trace):
        result = _compare(
            ground_truth_trace.window(3600.0, 7200.0), synthesized_trace
        )
        assert list(result.micro) == list(MICRO_QUANTITIES)
        assert result.micro_skipped == {}

    def test_count_padding_changes_distance(self):
        # Regression (Scenario 2 bias): without population padding two
        # cohorts of different sizes but identical per-active-UE counts
        # look indistinguishable; the zero-event UEs are the difference.
        real = make_trace([(1, 1.0, E.SRV_REQ, P), (2, 2.0, E.SRV_REQ, P)])
        syn = make_trace([(7, 1.5, E.SRV_REQ, P)])
        assert _compare(real, syn).micro["SRV_REQ"] == 0.0
        assert _compare(real, syn, syn_num_ues=2).micro["SRV_REQ"] == 0.5


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
        result = _compare(real, syn)
        assert list(result.micro) == ["SRV_REQ", "S1_CONN_REL", "IDLE"]
        assert set(result.micro_skipped) == {"CONNECTED"}
        assert "CONNECTED" in result.micro_skipped["CONNECTED"]
        assert "PHONE" in result.micro_skipped["CONNECTED"]

    def test_strict_comparison_raises(self, ground_truth_trace):
        """Summaries of different device types are not comparable."""
        with pytest.raises(ValueError, match="CONNECTED_CAR"):
            compare(
                summarize(ground_truth_trace, P),
                summarize(ground_truth_trace, DeviceType.CONNECTED_CAR),
            )

    def test_engines_agree(self, ground_truth_trace, synthesized_trace, monkeypatch):
        """Macro and micro metrics equal those computed with the
        per-event reference replay swapped in (on fresh trace objects,
        so no summary held by the first call is reused)."""
        real = ground_truth_trace.window(3600.0, 7200.0)
        compiled = _compare(real, synthesized_trace)
        monkeypatch.setattr(summary, "replay_trace", oracle_replay.ReferenceReplay)
        monkeypatch.setattr(
            summary,
            "classify_category2_by_device",
            oracle_replay.classify_category2_by_device,
        )
        assert _compare(fresh_copy(real), fresh_copy(synthesized_trace)) == compiled


class TestSummaryComparison:
    @pytest.mark.parametrize("padded", [False, True])
    @pytest.mark.parametrize("device_type", list(DeviceType), ids=lambda dt: dt.name)
    def test_compare_equals_primitives(
        self, ground_truth_trace, synthesized_trace, device_type, padded
    ):
        """``compare`` of two summaries equals the Table 4/5 numbers
        built directly from the primitives, key order included."""
        real = ground_truth_trace.window(3600.0, 7200.0)
        syn_n = None
        if padded:
            syn_n = synthesized_trace.filter_device(device_type).num_ues + 7
        result = compare(
            summarize(real, device_type),
            summarize(synthesized_trace, device_type, num_ues=syn_n),
        )

        real_bd = breakdown_with_states(real, device_type)
        syn_bd = breakdown_with_states(synthesized_trace, device_type)
        diff = {row: syn_bd[row] - real_bd[row] for row in BREAKDOWN_ROWS}
        samples = []
        for trace, n in ((real, None), (synthesized_trace, syn_n)):
            sojourns = replay_trace(
                trace.filter_device(device_type)
            ).top_state_sojourns()
            samples.append(
                {
                    "SRV_REQ": per_ue_counts(trace, device_type, E.SRV_REQ, num_ues=n),
                    "S1_CONN_REL": per_ue_counts(
                        trace, device_type, E.S1_CONN_REL, num_ues=n
                    ),
                    "CONNECTED": sojourns[lte.CONNECTED],
                    "IDLE": sojourns[lte.IDLE],
                }
            )
        micro = {
            q: max_y_distance(samples[0][q], samples[1][q])
            for q in MICRO_QUANTITIES
        }

        assert list(result.macro_diff.items()) == list(diff.items())
        assert result.macro_max_error == max(abs(v) for v in diff.values())
        assert list(result.micro.items()) == list(micro.items())
        assert result.micro_skipped == {}


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
