"""Signaling-storm workloads for MCN studies.

The generator's purpose is driving core-network evaluations (§3.1).
The paper notes control events also arise from "power outages of base
stations": when coverage returns, every affected UE re-attaches nearly
at once, producing the ATCH storm that stresses an MME/AMF far beyond
steady state.  ``inject_reattach_storm`` grafts such a storm onto any
trace while keeping every UE's event sequence valid under the
two-level machine, and ``storm_peak_rate`` measures its peak.

Plain workloads are one generator call: a busy hour is
``TrafficGenerator(model_set).generate(num_ues, start_hour=19)``, a
full day passes ``num_hours=24``, and a future year generates
``project_population(counts, years)`` UEs
(:func:`repro.groundtruth.forecast.project_population`).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..statemachines import lte
from ..statemachines.compiled_replay import replay_trace
from ..trace.events import EventType, quantize_timestamp, quantize_times
from ..trace.trace import Trace


def inject_reattach_storm(
    trace: Trace,
    *,
    at: float,
    fraction: float = 0.3,
    outage_duration: float = 120.0,
    reattach_spread: float = 30.0,
    seed: int = 0,
) -> Trace:
    """Graft a coverage-outage re-attach storm onto a trace.

    A random ``fraction`` of the trace's UEs loses coverage at time
    ``at``: each affected UE's events from ``at`` onward are dropped, a
    ``DTCH`` (network-observed detach) is recorded at ``at`` for UEs
    that were registered, and after ``outage_duration`` the UEs
    re-attach in a wave — one ``ATCH`` each, spread over
    ``reattach_spread`` seconds.  Every per-UE sequence remains valid
    under the two-level machine.

    Parameters
    ----------
    at:
        Outage time (seconds from trace start).
    fraction:
        Share of UEs affected, in (0, 1].
    outage_duration:
        Coverage gap length, seconds.
    reattach_spread:
        The re-attach wave's width, seconds — small values make the
        storm sharper.
    """
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    for name, value in (
        ("at", at),
        ("outage_duration", outage_duration),
        ("reattach_spread", reattach_spread),
    ):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if at < 0 or outage_duration < 0 or reattach_spread < 0:
        raise ValueError("times must be non-negative")
    if len(trace) == 0:
        raise ValueError("cannot inject a storm into an empty trace")

    rng = np.random.default_rng(seed)
    ues = trace.unique_ues()
    num_affected = max(1, int(round(fraction * len(ues))))
    affected = np.sort(rng.choice(ues, size=num_affected, replace=False))
    keep = ~np.isin(trace.ue_ids, affected) | (trace.times < at)

    # Was each affected UE registered when coverage dropped?  Its state
    # is the target of its last pre-outage event; a UE with no events
    # before the outage is assumed registered-idle (the overwhelmingly
    # common steady state).
    pre = replay_trace(trace.window(0.0, at).filter_ues(affected))
    registered = np.ones(num_affected, dtype=bool)
    if len(pre):
        last = np.append(np.flatnonzero(pre.first)[1:], len(pre)) - 1
        deregistered = pre.table.names.index(lte.DEREGISTERED)
        registered[np.searchsorted(affected, pre.ues)] = (
            pre.targets[last] != deregistered
        )
    reattach_at = at + outage_duration + rng.uniform(
        0.0, max(reattach_spread, 1e-3), size=num_affected
    )
    device_of = trace.device_of()
    devices = np.asarray([int(device_of[int(u)]) for u in affected], dtype=np.int8)
    num_detached = int(np.count_nonzero(registered))

    return Trace(
        np.concatenate([trace.ue_ids[keep], affected[registered], affected]),
        np.concatenate(
            [
                trace.times[keep],
                np.full(num_detached, quantize_timestamp(at)),
                quantize_times(reattach_at),
            ]
        ),
        np.concatenate(
            [
                trace.event_types[keep],
                np.full(num_detached, int(EventType.DTCH), dtype=np.int8),
                np.full(num_affected, int(EventType.ATCH), dtype=np.int8),
            ]
        ),
        np.concatenate([trace.device_types[keep], devices[registered], devices]),
    )


def storm_peak_rate(
    trace: Trace, *, bin_seconds: float = 1.0, event: Optional[EventType] = None
) -> float:
    """Peak events-per-second of a trace (for storm magnitude checks)."""
    from ..validation.aggregate import rate_curve

    curve = rate_curve(trace, bin_seconds=bin_seconds, event_type=event)
    if curve.size == 0:
        return 0.0
    return float(curve.max()) / bin_seconds
