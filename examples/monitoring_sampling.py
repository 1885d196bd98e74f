#!/usr/bin/env python3
"""Telemetry design: choosing a control-plane sampling rate (§3.1).

The paper's second use case: accurate traffic models help design
monitoring — e.g. pick the lowest event-sampling rate that still
estimates per-event-type volumes within a target error.  Because
control traffic is bursty and heavy-tailed across UEs, the needed rate
is higher than a Poisson intuition suggests; the traffic model lets an
operator find that out *before* deploying a collector.

This script synthesizes a busy hour, samples it at various rates, and
reports the relative error of (a) total volume and (b) per-event-type
shares, plus the error of top-talker (heavy UE) detection.

Run:  python examples/monitoring_sampling.py
"""

import numpy as np

import repro
from repro.trace import DeviceType, EventType, Trace

START_HOUR = 18
POPULATION = 600
SAMPLING_RATES = (0.5, 0.2, 0.1, 0.05, 0.02, 0.01)
TOP_TALKER_K = 20

TRAIN_UES = {
    DeviceType.PHONE: 110,
    DeviceType.CONNECTED_CAR: 40,
    DeviceType.TABLET: 30,
}


def sample_trace(trace: Trace, rate: float, rng: np.random.Generator) -> Trace:
    """Uniform per-event sampling at the given rate."""
    mask = rng.random(len(trace)) < rate
    return Trace(
        trace.ue_ids[mask],
        trace.times[mask],
        trace.event_types[mask],
        trace.device_types[mask],
    )


def top_talkers(trace: Trace, k: int) -> set:
    counts = trace.events_per_ue()
    return set(sorted(counts, key=counts.get, reverse=True)[:k])


def main() -> None:
    print("== synthesizing the busy-hour workload ==")
    real = repro.simulate_ground_truth(
        TRAIN_UES, duration=3 * 3600.0, seed=21, start_hour=START_HOUR
    )
    model = repro.fit_model_set(real, theta_n=40, trace_start_hour=START_HOUR)
    trace = repro.TrafficGenerator(model).generate(
        POPULATION, start_hour=START_HOUR + 1, num_hours=1, seed=2
    )
    true_breakdown = trace.breakdown()
    true_top = top_talkers(trace, TOP_TALKER_K)
    print(f"   {len(trace):,} events, {trace.num_ues} active UEs")

    print(f"\n{'rate':>6s} {'volume err':>11s} {'worst share err':>16s} "
          f"{'top-{k} recall':>14s}".format(k=TOP_TALKER_K))
    rng = np.random.default_rng(5)
    for rate in SAMPLING_RATES:
        sampled = sample_trace(trace, rate, rng)
        est_volume = len(sampled) / rate
        volume_err = abs(est_volume - len(trace)) / len(trace)
        sampled_breakdown = sampled.breakdown()
        share_err = max(
            abs(sampled_breakdown[e] - true_breakdown[e]) for e in EventType
        )
        recall = (
            len(top_talkers(sampled, TOP_TALKER_K) & true_top) / len(true_top)
            if len(sampled)
            else 0.0
        )
        print(f"{rate:6.2f} {volume_err:10.2%} {share_err:15.2%} {recall:13.0%}")

    print("\n   A rate that nails aggregate volume can still miss rare but\n"
          "   operationally-critical event types (ATCH/DTCH are <1% of\n"
          "   events) and mis-rank heavy UEs - the per-UE diversity the\n"
          "   model captures is what surfaces this before deployment.")


if __name__ == "__main__":
    main()
