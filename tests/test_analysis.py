"""Tests for the §4 study pipelines (repro.analysis)."""

import numpy as np
import pytest

from repro.analysis import (
    EMM_ECM_STATES,
    FIG34_QUANTITIES,
    TESTS,
    burstiness_analysis,
    gof_study,
    quantity_samples,
    tail_analysis,
)
from repro.groundtruth import simulate_ground_truth
from repro.trace import DeviceType, EventType

from conftest import TRACE_START_HOUR, make_trace
from oracle import gof as oracle_gof

P = DeviceType.PHONE
E = EventType

#: (clustered, quantities) of Tables 8, 9 and 10.
GOF_TABLES = (
    (False, "events_and_states"),
    (True, "events_and_states"),
    (True, "transitions"),
)


class TestGofStudy:
    def test_structure(self, ground_truth_trace):
        result = gof_study(
            ground_truth_trace,
            P,
            clustered=False,
            trace_start_hour=TRACE_START_HOUR,
        )
        assert set(result.rates) == set(TESTS)
        assert result.combos  # at least some testable combinations

    def test_classic_families_mostly_fail(self, ground_truth_trace):
        """The paper's core negative result (§4.1.2, Tables 8/9)."""
        result = gof_study(
            ground_truth_trace,
            P,
            clustered=False,
            trace_start_hour=TRACE_START_HOUR,
        )
        # Average pass rate over all testable quantities stays low for
        # the Poisson model on bursty lognormal-mixture traffic.
        poisson_rates = list(result.rates["poisson_ks"].values())
        assert np.mean(poisson_rates) < 0.35

    def test_state_quantities_present(self, ground_truth_trace):
        result = gof_study(
            ground_truth_trace,
            P,
            clustered=False,
            trace_start_hour=TRACE_START_HOUR,
        )
        assert "CONNECTED" in result.combos
        assert "IDLE" in result.combos

    def test_transitions_mode(self, ground_truth_trace):
        result = gof_study(
            ground_truth_trace,
            P,
            clustered=True,
            theta_n=30,
            trace_start_hour=TRACE_START_HOUR,
            quantities="transitions",
        )
        # Quantity keys look like "SRV_REQ_S-HO".
        assert all("-" in q for q in result.combos)

    def test_unknown_quantities_rejected(self, ground_truth_trace):
        with pytest.raises(ValueError, match="quantities"):
            gof_study(ground_truth_trace, P, clustered=False, quantities="x")

    def test_empty_device_rejected(self, tiny_trace):
        with pytest.raises(ValueError, match="no"):
            gof_study(tiny_trace, DeviceType.TABLET, clustered=False)


def assert_gof_matches_oracle(trace, device_type, **kwargs):
    """Pin gof_study == the per-segment oracle for one configuration."""
    result = gof_study(trace, device_type, **kwargs)
    reference = oracle_gof.gof_study(trace, device_type, **kwargs)
    assert result.device_type == reference.device_type
    assert result.combos == reference.combos
    assert result.rates == reference.rates


class TestGofOracleEquality:
    """The array study pools exactly the oracle's samples, so every
    pass rate and testable-combination count is equal."""

    @pytest.mark.parametrize("min_samples", [50, 2])
    @pytest.mark.parametrize("quantities", ["events_and_states", "transitions"])
    @pytest.mark.parametrize("clustered", [False, True])
    @pytest.mark.parametrize("device_type", list(DeviceType), ids=lambda d: d.name)
    def test_ground_truth(
        self, ground_truth_trace, device_type, clustered, quantities, min_samples
    ):
        assert_gof_matches_oracle(
            ground_truth_trace,
            device_type,
            clustered=clustered,
            theta_n=5,
            trace_start_hour=TRACE_START_HOUR,
            quantities=quantities,
            min_samples=min_samples,
        )

    @pytest.fixture(scope="class")
    def bench_trace(self):
        """The Table 8-10 benchmark's collection trace (2 days)."""
        return simulate_ground_truth(
            {
                DeviceType.PHONE: 234,
                DeviceType.CONNECTED_CAR: 93,
                DeviceType.TABLET: 46,
            },
            duration=2 * 86400.0,
            seed=1000,
            start_hour=0,
        )

    @pytest.mark.slow
    @pytest.mark.parametrize("min_samples", [50, 2])
    @pytest.mark.parametrize(
        "table", GOF_TABLES, ids=["table8", "table9", "table10"]
    )
    @pytest.mark.parametrize("device_type", list(DeviceType), ids=lambda d: d.name)
    def test_bench_scale(self, bench_trace, device_type, table, min_samples):
        clustered, quantities = table
        assert_gof_matches_oracle(
            bench_trace,
            device_type,
            clustered=clustered,
            theta_n=15,
            quantities=quantities,
            min_samples=min_samples,
        )


class TestRegisteredSojourns:
    """A REGISTERED sample needs the run's start: a run that begins
    with the segment's leading interval started at an unknown time."""

    @pytest.fixture(params=["array", "oracle"])
    def study(self, request):
        run = gof_study if request.param == "array" else oracle_gof.gof_study

        def _study(rows):
            trace = make_trace([(1, t, event, P) for t, event in rows])
            return run(trace, P, clustered=False, min_samples=1)

        return _study

    def test_run_of_unknown_start_dropped(self, study):
        result = study([(100.0, E.S1_CONN_REL), (300.0, E.DTCH), (400.0, E.ATCH)])
        assert "REGISTERED" not in result.combos
        assert result.combos["IDLE"] == 1
        assert result.combos["DEREGISTERED"] == 1

    def test_observed_run_counted(self, study):
        result = study([(50.0, E.ATCH), (100.0, E.S1_CONN_REL), (300.0, E.DTCH)])
        assert result.combos["REGISTERED"] == 1


class TestQuantitySamples:
    def test_state_quantities(self, ground_truth_trace):
        durations, entries = quantity_samples(ground_truth_trace, P, "CONNECTED")
        assert durations.size > 0
        assert entries.size > 0
        assert np.all(durations > 0)

    def test_event_quantities(self, ground_truth_trace):
        durations, arrivals = quantity_samples(ground_truth_trace, P, "HO")
        assert arrivals.size > 0
        # inter-arrivals only from UEs with >= 2 HOs.
        assert durations.size <= arrivals.size

    def test_all_fig34_quantities_defined(self):
        assert FIG34_QUANTITIES == ("CONNECTED", "IDLE", "HO", "TAU")


class TestBurstiness:
    def test_real_traffic_burstier_than_poisson(self, ground_truth_trace):
        """Fig. 3: the observed curve sits above the fitted Poisson."""
        report = burstiness_analysis(ground_truth_trace, P, "CONNECTED", seed=1)
        # Positive gap at the larger scales.
        assert report.log_gap[-3:].mean() > 0.0

    def test_too_few_occurrences_rejected(self, tiny_trace):
        with pytest.raises(ValueError, match="too few"):
            burstiness_analysis(tiny_trace, P, "HO")


class TestTails:
    def test_observed_max_exceeds_fitted(self, ground_truth_trace):
        """Fig. 4: heavy upper tails the exponential fit cannot reach."""
        report = tail_analysis(ground_truth_trace, P, "CONNECTED", seed=2)
        assert report.observed_max > report.fitted_max

    def test_report_fields_consistent(self, ground_truth_trace):
        report = tail_analysis(ground_truth_trace, P, "IDLE")
        assert report.observed_min <= report.observed_max
        assert report.fitted_min <= report.fitted_max
        assert report.fitted_rate > 0
        assert report.upper_tail_ratio > 0

    def test_too_few_samples_rejected(self, tiny_trace):
        with pytest.raises(ValueError, match="too few"):
            tail_analysis(tiny_trace, P, "TAU")
