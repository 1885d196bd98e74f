"""Tests for the fitting pipeline (repro.model.fitting)."""

import numpy as np
import pytest

from repro.model import fit_model_set
from repro.statemachines import lte
from repro.telemetry import RunTelemetry
from repro.trace import DeviceType, EventType, Trace

from conftest import TRACE_START_HOUR, make_trace
from oracle.objects import cluster_view

E = EventType
P = DeviceType.PHONE


class TestValidation:
    def test_rejects_empty_trace(self):
        with pytest.raises(ValueError, match="empty"):
            fit_model_set(Trace.empty())

    def test_rejects_unknown_machine(self, tiny_trace):
        with pytest.raises(ValueError, match="machine_kind"):
            fit_model_set(tiny_trace, machine_kind="mealy")

    def test_rejects_unknown_family(self, tiny_trace):
        with pytest.raises(ValueError, match="family"):
            fit_model_set(tiny_trace, family="gamma")


class TestStructure:
    def test_devices_present(self, ours_model_set, ground_truth_trace):
        assert set(ours_model_set.models) == set(DeviceType)
        for dt in DeviceType:
            n_train = len(ours_model_set.device_ues[dt])
            assert n_train == ground_truth_trace.filter_device(dt).num_ues

    def test_hours_match_trace_span(self, ours_model_set):
        # 4-hour trace starting at TRACE_START_HOUR.
        expected = {(TRACE_START_HOUR + i) % 24 for i in range(4)}
        for dt in DeviceType:
            assert set(ours_model_set.hours(dt)) == expected

    def test_num_models_counts_clusters(self, ours_model_set):
        total = sum(
            ours_model_set.models[dt][h].num_clusters
            for dt in ours_model_set.models
            for h in ours_model_set.models[dt]
        )
        assert ours_model_set.num_models == total
        assert total >= 12  # at least one per (device, hour)

    def test_clustered_flag(self, ours_model_set, base_model_set):
        assert ours_model_set.clustered
        assert not base_model_set.clustered
        for dt in DeviceType:
            for h in base_model_set.hours(dt):
                assert base_model_set.models[dt][h].num_clusters == 1

    def test_assignment_covers_training_ues(self, ours_model_set):
        for dt in DeviceType:
            ues = set(ours_model_set.device_ues[dt])
            for h in ours_model_set.hours(dt):
                hm = ours_model_set.models[dt][h]
                assert set(hm.assignment) == ues


class TestChainContents:
    def test_transition_probs_sum_to_one(self, ours_model_set):
        for dt in DeviceType:
            for h in ours_model_set.hours(dt):
                for cm in cluster_view(ours_model_set.models[dt][h]):
                    for state, model in cm.chain.states.items():
                        if model.edges:
                            total = sum(e.probability for e in model.edges)
                            assert total == pytest.approx(1.0)

    def test_chain_edges_are_valid_machine_edges(self, ours_model_set):
        machine = ours_model_set.machine()
        for dt in DeviceType:
            for h in ours_model_set.hours(dt):
                for cm in cluster_view(ours_model_set.models[dt][h]):
                    for state, model in cm.chain.states.items():
                        for edge in model.edges:
                            assert machine.can_fire(state, edge.event)
                            assert machine.next_state(state, edge.event) == edge.target

    def test_empirical_family_used(self, ours_model_set):
        from repro.distributions import EmpiricalCDF

        found_empirical = False
        for dt in DeviceType:
            for h in ours_model_set.hours(dt):
                for cm in cluster_view(ours_model_set.models[dt][h]):
                    for model in cm.chain.states.values():
                        for edge in model.edges:
                            if isinstance(edge.sojourn, EmpiricalCDF):
                                found_empirical = True
        assert found_empirical

    def test_poisson_family_used_by_base(self, base_model_set):
        from repro.distributions import Exponential

        for dt in DeviceType:
            for h in base_model_set.hours(dt):
                for cm in cluster_view(base_model_set.models[dt][h]):
                    for model in cm.chain.states.values():
                        for edge in model.edges:
                            assert isinstance(edge.sojourn, Exponential)

    def test_overlay_only_for_emm_ecm(self, ours_model_set, base_model_set):
        for dt in DeviceType:
            for h in ours_model_set.hours(dt):
                for cm in cluster_view(ours_model_set.models[dt][h]):
                    assert cm.overlay_rates == {}
        found_rate = False
        for dt in DeviceType:
            for h in base_model_set.hours(dt):
                for cm in cluster_view(base_model_set.models[dt][h]):
                    assert set(cm.overlay_rates) == {E.HO, E.TAU}
                    if cm.overlay_rates[E.HO] > 0:
                        found_rate = True
        assert found_rate


class TestSojournFidelity:
    def test_fitted_cdf_reproduces_observed_sojourns(self, ground_truth_trace):
        """The fitted F_xy spans the observed sojourn range (§4.2's gap
        between data and Poisson fits is what the empirical CDF fixes)."""
        from repro.statemachines import replay_trace

        ms = fit_model_set(
            ground_truth_trace,
            theta_n=10_000,  # one cluster: pool everything
            trace_start_hour=TRACE_START_HOUR,
        )
        hour = TRACE_START_HOUR
        sub = ground_truth_trace.filter_device(P).window(0.0, 3600.0)
        samples = replay_trace(sub).sojourn_samples()
        key = (lte.SRV_REQ_S, E.S1_CONN_REL)
        if key not in samples or len(samples[key]) < 30:
            pytest.skip("not enough sojourn samples in this window")
        observed = samples[key]
        cm = cluster_view(ms.models[P][hour])[0]
        edge = next(
            e
            for e in cm.chain.states[lte.SRV_REQ_S].edges
            if e.event == E.S1_CONN_REL
        )
        lo, hi = edge.sojourn.support
        assert lo <= np.percentile(observed, 5)
        assert hi >= np.percentile(observed, 95)


class TestHourSlicing:
    def test_single_hour_trace(self):
        rows = [
            (1, 10.0, E.SRV_REQ, P),
            (1, 20.0, E.S1_CONN_REL, P),
            (2, 30.0, E.SRV_REQ, P),
            (2, 45.0, E.S1_CONN_REL, P),
        ]
        ms = fit_model_set(make_trace(rows), trace_start_hour=5)
        assert ms.hours(P) == [5]

    def test_multi_day_pooling_same_hour(self):
        day = 86400.0
        rows = []
        for d in range(2):
            rows += [
                (1, d * day + 10.0, E.SRV_REQ, P),
                (1, d * day + 20.0, E.S1_CONN_REL, P),
            ]
        ms = fit_model_set(make_trace(rows), trace_start_hour=0)
        hm = ms.models[P][0]
        # Both days' transitions pooled into hour 0.
        cm = cluster_view(hm)[0]
        edges = cm.chain.states["SRV_REQ_S"].edges
        assert any(e.event == E.S1_CONN_REL for e in edges)
        # first-event model saw 2 active segments out of 2 (UE active
        # both days) -> p_active reflects slot accounting.
        assert 0.0 < cm.first_event.p_active <= 1.0


class TestFitSpans:
    def test_child_spans_cover_fit(self, ground_truth_trace):
        """``fit``'s children -- ``fit-arrays`` (the fit's arrays, hour
        rows, filtered stream), ``fit-replay``,
        ``fit-cluster`` and ``fit-models`` -- cover its wall time in a
        serial run."""
        tele = RunTelemetry()
        fit_model_set(
            ground_truth_trace,
            theta_n=25,
            trace_start_hour=TRACE_START_HOUR,
            telemetry=tele,
        )
        spans = tele.spans
        children = sum(
            spans[name]["wall_s"]
            for name in ("fit-arrays", "fit-replay", "fit-cluster", "fit-models")
        )
        assert children >= 0.95 * spans["fit"]["wall_s"]
