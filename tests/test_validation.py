"""Tests for the validation metrics (repro.validation)."""

import math

import numpy as np
import pytest

from repro.statemachines import lte
from repro.statemachines.compiled_replay import replay_trace
from repro.stats.ecdf import max_y_distance
from repro.generator import TrafficGenerator
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
    summarize,
)

from conftest import TRACE_START_HOUR, fresh_copy, make_trace
from oracle import replay as oracle_replay

E = EventType
P = DeviceType.PHONE


@pytest.fixture(scope="module")
def base_synthesized_trace(base_model_set):
    """One Base-synthesized busy hour: its overlay hands over in IDLE."""
    return TrafficGenerator(base_model_set).generate(
        150, start_hour=TRACE_START_HOUR + 1, num_hours=1, seed=7
    )


def _expected_breakdown(trace, device_type):
    """The eight-row breakdown of the device's own cut, with the HO/TAU
    rows split by the oracle's per-event walk."""
    sub = trace.filter_device(device_type)
    if len(sub) == 0:
        return {row: 0.0 for row in BREAKDOWN_ROWS}
    cat2 = oracle_replay.classify_category2_events(sub)
    counts = {
        name: int(np.count_nonzero(sub.event_types == int(E[name])))
        for name in ("ATCH", "DTCH", "SRV_REQ", "S1_CONN_REL")
    }
    counts.update(
        {
            "HO (CONN.)": cat2[(E.HO, lte.CONNECTED)],
            "HO (IDLE)": cat2[(E.HO, lte.IDLE)],
            "TAU (CONN.)": cat2[(E.TAU, lte.CONNECTED)],
            "TAU (IDLE)": cat2[(E.TAU, lte.IDLE)],
        }
    )
    return {row: counts[row] / len(sub) for row in BREAKDOWN_ROWS}


def _expected_counts(trace, device_type, event_type, num_ues=None):
    """Sorted per-UE counts of one event type on the device's own cut,
    zero-padded to ``num_ues``."""
    sub = trace.filter_device(device_type)
    ues, codes = np.unique(sub.ue_ids, return_inverse=True)
    counts = np.bincount(
        codes[sub.event_types == int(event_type)],
        minlength=len(ues) if num_ues is None else num_ues,
    )
    return np.sort(counts.astype(np.float64))


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

    @pytest.mark.parametrize("source", ["ground_truth", "base_synthesized"])
    @pytest.mark.parametrize("device_type", list(DeviceType), ids=lambda dt: dt.name)
    def test_macro_comparison_structure(self, request, source, device_type):
        trace = request.getfixturevalue(f"{source}_trace")
        real = summarize(trace, device_type)
        assert real.device_type == device_type
        assert real.breakdown == _expected_breakdown(trace, device_type)
        assert breakdown_with_states(trace, device_type) == real.breakdown
        assert list(real.breakdown) == list(BREAKDOWN_ROWS)
        assert list(real.samples) == list(MICRO_QUANTITIES)

    def test_base_traffic_hands_over_in_idle(self, base_synthesized_trace):
        """The Base case of the structure test exercises a nonzero
        ``HO (IDLE)`` row."""
        assert breakdown_with_states(base_synthesized_trace, P)["HO (IDLE)"] > 0.0


def _compare(real, synthesized, device_type=P, *, syn_num_ues=None):
    return compare(
        summarize(real, device_type),
        summarize(synthesized, device_type, num_ues=syn_num_ues),
    )


class TestPerUeCounts:
    """The per-UE count samples of :func:`summarize`."""

    def test_zero_padding(self):
        tr = make_trace([(1, 1.0, E.SRV_REQ, P)])
        counts = summarize(tr, P, num_ues=4).samples["SRV_REQ"]
        assert list(counts) == [0.0, 0.0, 0.0, 1.0]

    def test_padding_smaller_than_present_rejected(self):
        tr = make_trace([(1, 1.0, E.SRV_REQ, P), (2, 2.0, E.SRV_REQ, P)])
        with pytest.raises(ValueError, match="smaller"):
            summarize(tr, P, num_ues=1)

    def test_includes_zero_count_ues(self):
        tr = make_trace([(1, 1.0, E.SRV_REQ, P), (2, 2.0, E.HO, P)])
        counts = summarize(tr, P).samples["SRV_REQ"]
        assert list(counts) == [0.0, 1.0]

    def test_sorted_output(self, ground_truth_trace):
        counts = summarize(ground_truth_trace, P).samples["SRV_REQ"]
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
        built from each device's own cut: the oracle's Category-2 walk,
        a local ``bincount`` and a replay of the cut, key order
        included."""
        real = ground_truth_trace.window(3600.0, 7200.0)
        syn_n = None
        if padded:
            syn_n = synthesized_trace.filter_device(device_type).num_ues + 7
        result = compare(
            summarize(real, device_type),
            summarize(synthesized_trace, device_type, num_ues=syn_n),
        )

        real_bd = _expected_breakdown(real, device_type)
        syn_bd = _expected_breakdown(synthesized_trace, device_type)
        diff = {row: syn_bd[row] - real_bd[row] for row in BREAKDOWN_ROWS}
        samples = []
        for trace, n in ((real, None), (synthesized_trace, syn_n)):
            sojourns = replay_trace(
                trace.filter_device(device_type)
            ).top_state_sojourns()
            samples.append(
                {
                    "SRV_REQ": _expected_counts(trace, device_type, E.SRV_REQ, n),
                    "S1_CONN_REL": _expected_counts(
                        trace, device_type, E.S1_CONN_REL, n
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
