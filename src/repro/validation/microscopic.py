"""Microscopic validation: per-UE CDF samples (Tables 5 & 6, Fig. 7).

Two per-UE quantities are compared between a synthesized and a real
trace via the **maximum y-distance** of their CDFs:

* the number of ``SRV_REQ`` / ``S1_CONN_REL`` events per UE, and
* the sojourn time per CONNECTED / IDLE visit.

Both are read from one :class:`~repro.validation.summary.DeviceSummary`
per (trace, device): ``summarize(trace, dt, num_ues=n).samples[q]`` for
each ``q`` in :data:`MICRO_QUANTITIES`.  Traces only contain UEs that
emitted at least one event, so the count CDFs take the nominal
population size and pad zero-count UEs — both sides are treated
identically.
"""

from __future__ import annotations

from ..trace.events import EventType

#: Table-5 rows, in presentation order: per-UE event-count CDFs first,
#: then top-level sojourn CDFs.
MICRO_QUANTITIES = ("SRV_REQ", "S1_CONN_REL", "CONNECTED", "IDLE")

#: The count rows of :data:`MICRO_QUANTITIES` and their event types.
_COUNT_QUANTITIES = {
    "SRV_REQ": EventType.SRV_REQ,
    "S1_CONN_REL": EventType.S1_CONN_REL,
}
