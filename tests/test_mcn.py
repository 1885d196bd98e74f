"""Tests for the MME queueing consumer (repro.mcn)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mcn import DEFAULT_SERVICE_MEANS, MmeReport, MmeSimulator, network
from repro.trace import DeviceType, EventType, Trace

from conftest import (
    burst_trace,
    make_trace,
    mcn_bursts,
    mcn_window_events,
    served_windows,
)
from oracle.mcn import mme_report

E = EventType
P = DeviceType.PHONE


def poisson_trace(rate: float, duration: float, seed: int = 0) -> Trace:
    rng = np.random.default_rng(seed)
    n = rng.poisson(rate * duration)
    times = np.sort(rng.uniform(0, duration, n))
    return make_trace([(i % 10, float(t), E.SRV_REQ, P) for i, t in enumerate(times)])


class TestConstruction:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            MmeSimulator(num_workers=0)

    def test_rejects_bad_jitter(self):
        with pytest.raises(ValueError):
            MmeSimulator(service_jitter=1.5)

    def test_accepts_numpy_integer_workers(self):
        sim = MmeSimulator(np.int64(2))
        assert sim.num_workers == 2 and type(sim.num_workers) is int

    @pytest.mark.parametrize("workers", [2.5, True, -3, None])
    def test_rejects_non_integer_workers(self, workers):
        with pytest.raises(ValueError, match="num_workers must be a positive integer"):
            MmeSimulator(workers)

    @pytest.mark.parametrize("mean", [np.nan, np.inf, -0.004])
    def test_rejects_bad_service_means(self, mean):
        with pytest.raises(
            ValueError, match=r"service_means\[SRV_REQ\] must be finite"
        ):
            MmeSimulator(service_means={E.SRV_REQ: mean})

    def test_default_service_covers_all_events(self):
        assert set(DEFAULT_SERVICE_MEANS) == set(EventType)

    def test_service_means_overlay_the_defaults(self):
        """A partial mapping changes only the events it names."""
        sim = MmeSimulator(service_means={E.SRV_REQ: 0.001})
        assert sim.service_means == {**DEFAULT_SERVICE_MEANS, E.SRV_REQ: 0.001}
        assert sim.service_means[E.ATCH] == 0.020

    @pytest.mark.parametrize("key", ["SRV_REQ", 2, None])
    def test_rejects_keys_that_are_not_event_types(self, key):
        with pytest.raises(ValueError, match=f"service_means keys .* got {key!r}"):
            MmeSimulator(service_means={key: 0.1})


class TestProcessing:
    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            MmeSimulator().process(Trace.empty())

    def test_report_fields(self, ground_truth_trace):
        report = MmeSimulator(num_workers=4).process(
            ground_truth_trace.window(0, 1800.0)
        )
        assert isinstance(report, MmeReport)
        assert report.num_events > 0
        assert report.mean_wait >= 0
        assert report.p50_wait <= report.p95_wait <= report.p99_wait <= report.max_wait
        assert 0 <= report.utilization <= 1
        assert report.throughput > 0

    def test_events_by_type_totals(self, ground_truth_trace):
        window = ground_truth_trace.window(0, 1800.0)
        report = MmeSimulator().process(window)
        assert sum(report.events_by_type.values()) == len(window)

    def test_light_load_has_no_waits(self):
        tr = poisson_trace(rate=0.5, duration=600.0)
        report = MmeSimulator(num_workers=8).process(tr)
        assert report.p95_wait == pytest.approx(0.0, abs=1e-6)

    def test_overload_queues(self):
        # 1 worker at 4ms/event with 500 events/s -> heavy overload.
        tr = poisson_trace(rate=500.0, duration=20.0)
        report = MmeSimulator(num_workers=1).process(tr)
        assert report.mean_wait > 0.1
        assert report.utilization > 0.9

    def test_more_workers_reduce_wait(self):
        tr = poisson_trace(rate=400.0, duration=30.0)
        slow = MmeSimulator(num_workers=1).process(tr)
        fast = MmeSimulator(num_workers=8).process(tr)
        assert fast.mean_wait < slow.mean_wait

    def test_deterministic_given_seed(self, ground_truth_trace):
        window = ground_truth_trace.window(0, 900.0)
        a = MmeSimulator(seed=5).process(window)
        b = MmeSimulator(seed=5).process(window)
        assert a.mean_wait == b.mean_wait

    def test_valid_trace_has_no_violations(self, ground_truth_trace):
        report = MmeSimulator().process(ground_truth_trace.window(0, 1800.0))
        assert report.protocol_violations == 0

    def test_invalid_trace_flagged(self):
        # HO right after release: a protocol violation an MME would reject.
        tr = make_trace(
            [
                (1, 1.0, E.SRV_REQ, P),
                (1, 2.0, E.S1_CONN_REL, P),
                (1, 3.0, E.HO, P),
            ]
        )
        report = MmeSimulator().process(tr)
        assert report.protocol_violations == 1

    def test_base_traffic_triggers_violations(self, base_model_set):
        """The Base baseline's overlay HO/TAU violate the protocol."""
        from repro.generator import TrafficGenerator

        tr = TrafficGenerator(base_model_set).generate(60, start_hour=18, seed=4)
        report = MmeSimulator().process(tr)
        assert report.protocol_violations > 0


class TestWindows:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        bursts=mcn_bursts,
        workers=st.integers(1, 3),
        jitter=st.sampled_from([0.0, 0.3]),
        zero_mean=st.sampled_from([None, E.SRV_REQ, E.HO]),
        seed=st.integers(0, 2**16),
        window_events=mcn_window_events,
    )
    def test_bursts_equal_oracle(self, bursts, workers, jitter, zero_mean, seed, window_events):
        """Bursts that queue at one or two workers, split into windows;
        a service mean of 0 s gives zero-length services."""
        means = None if zero_mean is None else {zero_mean: 0.0}
        sim = MmeSimulator(workers, service_means=means, service_jitter=jitter, seed=seed)
        trace = burst_trace(bursts)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(network, "WINDOW_EVENTS", window_events)
            report = sim.process(trace)
        assert dataclasses.asdict(report) == dataclasses.asdict(mme_report(sim, trace))

    def test_partial_service_means_equal_oracle(self, ground_truth_trace):
        sim = MmeSimulator(2, service_means={E.SRV_REQ: 0.004, E.HO: 0.0}, seed=1)
        report, (windows, queued) = served_windows(sim, ground_truth_trace)
        assert windows >= 1
        assert dataclasses.asdict(report) == dataclasses.asdict(
            mme_report(sim, ground_truth_trace)
        )
