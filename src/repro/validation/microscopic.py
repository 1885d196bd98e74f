"""Microscopic validation: per-UE CDF comparisons (Tables 5 & 6, Fig. 7).

Two per-UE quantities are compared between a synthesized and a real
trace via the **maximum y-distance** of their CDFs:

* the number of ``SRV_REQ`` / ``S1_CONN_REL`` events per UE, and
* the sojourn time per CONNECTED / IDLE visit.

Traces only contain UEs that emitted at least one event, so the count
CDFs take the nominal population size and pad zero-count UEs — both
sides are treated identically.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..stats.ecdf import max_y_distance
from ..statemachines.compiled_replay import replay_trace
from ..trace.events import DeviceType, EventType
from ..trace.trace import Trace


def per_ue_counts(
    trace: Trace,
    device_type: DeviceType,
    event_type: EventType,
    *,
    num_ues: Optional[int] = None,
) -> np.ndarray:
    """Per-UE counts of one event type, zero-padded to ``num_ues``.

    ``num_ues`` is the nominal population of that device type (UEs with
    no events at all are invisible in the trace but still part of the
    population the CDF describes).  Computed with one ``bincount`` over
    UE codes instead of materializing a per-UE dict — at million-UE
    scale the dict path dominated the whole Table-5 computation.
    """
    sub = trace.filter_device(device_type)
    ues = sub.unique_ues()
    present = len(ues)
    if num_ues is not None and num_ues < present:
        raise ValueError(
            f"num_ues={num_ues} smaller than UEs present ({present})"
        )
    mask = sub.event_types == int(event_type)
    counts = np.bincount(
        np.searchsorted(ues, sub.ue_ids[mask]),
        minlength=num_ues if num_ues is not None else present,
    )
    return np.sort(counts.astype(np.float64))


def count_ydistance(
    real: Trace,
    synthesized: Trace,
    device_type: DeviceType,
    event_type: EventType,
    *,
    real_num_ues: Optional[int] = None,
    syn_num_ues: Optional[int] = None,
) -> float:
    """Max y-distance between per-UE count CDFs (Table 5, top half)."""
    real_counts = per_ue_counts(real, device_type, event_type, num_ues=real_num_ues)
    syn_counts = per_ue_counts(
        synthesized, device_type, event_type, num_ues=syn_num_ues
    )
    if real_counts.size == 0 or syn_counts.size == 0:
        raise ValueError("one of the traces has no UEs of this device type")
    return max_y_distance(real_counts, syn_counts)


def device_sojourns(
    trace: Trace,
    device_type: DeviceType,
) -> Dict[str, np.ndarray]:
    """Complete top-level sojourns of one device cohort, by state.

    One replay serves every state — callers comparing both CONNECTED
    and IDLE should use this instead of calling :func:`state_sojourns`
    per state, which replays the cohort each time.
    """
    return replay_trace(trace.filter_device(device_type)).top_state_sojourns()


def state_sojourns(
    trace: Trace,
    device_type: DeviceType,
    state: str,
) -> np.ndarray:
    """All complete sojourn durations in a top-level state, across UEs."""
    return device_sojourns(trace, device_type).get(state, np.empty(0))


def sojourn_ydistance(
    real: Trace,
    synthesized: Trace,
    device_type: DeviceType,
    state: str,
) -> float:
    """Max y-distance between sojourn CDFs (Table 5, bottom half)."""
    real_s = state_sojourns(real, device_type, state)
    syn_s = state_sojourns(synthesized, device_type, state)
    if real_s.size == 0 or syn_s.size == 0:
        raise ValueError(
            f"no complete {state} sojourns for {device_type.name} "
            "in one of the traces"
        )
    return max_y_distance(real_s, syn_s)


#: Table 6's activity threshold: inactive UEs emit <= 2 events per hour.
ACTIVITY_THRESHOLD = 2


def activity_split_ydistance(
    real: Trace,
    synthesized: Trace,
    device_type: DeviceType,
    event_type: EventType,
    *,
    threshold: int = ACTIVITY_THRESHOLD,
    real_num_ues: Optional[int] = None,
    syn_num_ues: Optional[int] = None,
) -> Tuple[float, float]:
    """Y-distances for (inactive, active) UE groups (Table 6).

    Each trace's UEs are split by their own counts; the CDFs of the two
    groups are compared separately.
    """
    real_counts = per_ue_counts(real, device_type, event_type, num_ues=real_num_ues)
    syn_counts = per_ue_counts(
        synthesized, device_type, event_type, num_ues=syn_num_ues
    )
    out = []
    for selector in (
        lambda c: c[c <= threshold],
        lambda c: c[c > threshold],
    ):
        r = selector(real_counts)
        s = selector(syn_counts)
        if r.size == 0 or s.size == 0:
            out.append(float("nan"))
        else:
            out.append(max_y_distance(r, s))
    return out[0], out[1]


#: Table-5 rows, in presentation order: per-UE event-count CDFs first,
#: then top-level sojourn CDFs.
MICRO_QUANTITIES = ("SRV_REQ", "S1_CONN_REL", "CONNECTED", "IDLE")

_COUNT_QUANTITIES = {
    "SRV_REQ": EventType.SRV_REQ,
    "S1_CONN_REL": EventType.S1_CONN_REL,
}


def micro_comparison_partial(
    real: Trace,
    synthesized: Trace,
    device_type: DeviceType,
    *,
    real_num_ues: Optional[int] = None,
    syn_num_ues: Optional[int] = None,
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """One Table-5 column, reporting every computable quantity.

    Returns ``(values, skipped)``: each of :data:`MICRO_QUANTITIES`
    lands in exactly one of the two dicts — ``values`` with its
    y-distance, or ``skipped`` with the reason it could not be measured
    (e.g. no complete IDLE sojourn in a short trace).  Quantities are
    independent: one failing never discards the others.

    Both traces' cohorts are replayed once each, serving the CONNECTED
    and IDLE rows together.
    """
    from ..statemachines import lte

    values: Dict[str, float] = {}
    skipped: Dict[str, str] = {}
    for name, event_type in _COUNT_QUANTITIES.items():
        try:
            values[name] = count_ydistance(
                real,
                synthesized,
                device_type,
                event_type,
                real_num_ues=real_num_ues,
                syn_num_ues=syn_num_ues,
            )
        except ValueError as exc:
            skipped[name] = str(exc)
    real_soj = device_sojourns(real, device_type)
    syn_soj = device_sojourns(synthesized, device_type)
    for state in (lte.CONNECTED, lte.IDLE):
        real_s = real_soj.get(state, np.empty(0))
        syn_s = syn_soj.get(state, np.empty(0))
        if real_s.size == 0 or syn_s.size == 0:
            skipped[state] = (
                f"no complete {state} sojourns for {device_type.name} "
                "in one of the traces"
            )
        else:
            values[state] = max_y_distance(real_s, syn_s)
    return values, skipped


def micro_comparison(
    real: Trace,
    synthesized: Trace,
    device_type: DeviceType,
    *,
    real_num_ues: Optional[int] = None,
    syn_num_ues: Optional[int] = None,
) -> Dict[str, float]:
    """One Table-5 column: count and sojourn y-distances for a method.

    Raises :class:`ValueError` if any quantity cannot be measured; use
    :func:`micro_comparison_partial` to keep the computable ones.
    """
    values, skipped = micro_comparison_partial(
        real,
        synthesized,
        device_type,
        real_num_ues=real_num_ues,
        syn_num_ues=syn_num_ues,
    )
    for name in MICRO_QUANTITIES:
        if name in skipped:
            raise ValueError(skipped[name])
    return values
