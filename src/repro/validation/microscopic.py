"""Microscopic validation: per-UE CDF samples (Tables 5 & 6, Fig. 7).

Two per-UE quantities are compared between a synthesized and a real
trace via the **maximum y-distance** of their CDFs:

* the number of ``SRV_REQ`` / ``S1_CONN_REL`` events per UE, and
* the sojourn time per CONNECTED / IDLE visit.

Both are read from one :class:`~repro.validation.summary.DeviceSummary`
per (trace, device).  Traces only contain UEs that emitted at least one
event, so the count CDFs take the nominal population size and pad
zero-count UEs — both sides are treated identically.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

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
    population the CDF describes).  One ``bincount`` over the cohort's
    UE codes (:meth:`~repro.trace.trace.Trace.ue_index`).
    """
    sub = trace.filter_device(device_type)
    index = sub.ue_index()
    present = len(index.ues)
    if num_ues is not None and num_ues < present:
        raise ValueError(
            f"num_ues={num_ues} smaller than UEs present ({present})"
        )
    rows = sub.event_types[index.order] == int(event_type)
    counts = np.bincount(
        index.codes()[rows],
        minlength=num_ues if num_ues is not None else present,
    )
    return np.sort(counts.astype(np.float64))


#: Table-5 rows, in presentation order: per-UE event-count CDFs first,
#: then top-level sojourn CDFs.
MICRO_QUANTITIES = ("SRV_REQ", "S1_CONN_REL", "CONNECTED", "IDLE")

#: The count rows of :data:`MICRO_QUANTITIES` and their event types.
_COUNT_QUANTITIES = {
    "SRV_REQ": EventType.SRV_REQ,
    "S1_CONN_REL": EventType.S1_CONN_REL,
}
