"""4G ↔ 5G event mapping and trace relabelling (Table 2, §6).

Internally the library encodes 5G events with the same integer codes as
their LTE counterparts (the mapping is one-to-one except ``TAU``, which
has no 5G SA equivalent), so fitted LTE machinery applies unchanged.
This module provides the protocol-name view and trace conversion
helpers.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..trace.events import (
    LTE_TO_NR_EVENT,
    NR_TO_LTE_EVENT,
    DeviceType,
    EventType,
    NrEventType,
)
from ..trace.trace import Trace


def nr_event_name(event: EventType) -> str:
    """The 5G protocol name of an LTE-coded event (Table 2).

    Raises ``KeyError`` for ``TAU``, which does not exist in 5G SA.
    """
    return LTE_TO_NR_EVENT[event].name


def event_label(event: EventType, *, generation: str = "lte") -> str:
    """Human-readable event name for the given generation.

    ``generation``: ``"lte"``, ``"nsa"`` (5G NSA keeps LTE's event set),
    or ``"sa"``.
    """
    if generation in ("lte", "nsa"):
        return event.name
    if generation == "sa":
        return nr_event_name(event)
    raise ValueError(f"unknown generation {generation!r}")


def to_sa_trace(trace: Trace) -> Trace:
    """Project an LTE-coded trace onto 5G SA's event set.

    Removes ``TAU`` events (no SA counterpart).  The remaining events
    keep their integer codes; render names with
    ``event_label(..., generation="sa")``.
    """
    mask = trace.event_types != int(EventType.TAU)
    return Trace(
        trace.ue_ids[mask],
        trace.times[mask],
        trace.event_types[mask],
        trace.device_types[mask],
    )


def sa_breakdown(trace: Trace, device_type: DeviceType) -> Dict[str, float]:
    """Event breakdown of a 5G SA trace with 5G protocol names."""
    sub = to_sa_trace(trace).filter_device(device_type)
    total = len(sub)
    out: Dict[str, float] = {}
    for nr_event in NrEventType:
        lte_event = NR_TO_LTE_EVENT[nr_event]
        n = int(np.count_nonzero(sub.event_types == int(lte_event)))
        out[nr_event.name] = n / total if total else 0.0
    return out


def nsa_breakdown(trace: Trace, device_type: DeviceType) -> Dict[str, float]:
    """Event breakdown of a 5G NSA trace (LTE event names, TAU included)."""
    sub = trace.filter_device(device_type)
    return {e.name: f for e, f in sub.breakdown().items()}
