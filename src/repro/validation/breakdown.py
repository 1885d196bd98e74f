"""Macroscopic validation: event-breakdown comparisons (Tables 4 & 11).

The paper's macroscopic metric splits ``HO``/``TAU`` by the top-level
state they occur in, giving eight rows:

``ATCH, DTCH, SRV_REQ, S1_CONN_REL, HO (CONN.), HO (IDLE), TAU (CONN.),
TAU (IDLE)``

each as a percentage of all events of that device type.  A method's
error is the signed difference between its synthesized percentages and
the real trace's (:func:`repro.validation.summary.compare`).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from ..statemachines import lte
from ..statemachines.compiled_replay import classify_category2_events
from ..trace.events import DeviceType, EventType
from ..trace.trace import Trace

#: Row labels in the paper's table order.
BREAKDOWN_ROWS: Tuple[str, ...] = (
    "ATCH",
    "DTCH",
    "SRV_REQ",
    "S1_CONN_REL",
    "HO (CONN.)",
    "HO (IDLE)",
    "TAU (CONN.)",
    "TAU (IDLE)",
)


def breakdown_with_states(
    trace: Trace,
    device_type: DeviceType,
) -> Dict[str, float]:
    """Eight-row event breakdown (fractions of all events) for one device.

    Built from the device's own cut of ``trace``; :func:`repro.validation.summarize`
    gives the same numbers from its one replay of the whole trace.
    """
    sub = trace.filter_device(device_type)
    total = len(sub)
    if total == 0:
        return {row: 0.0 for row in BREAKDOWN_ROWS}
    cat2 = classify_category2_events(sub)
    counts = {
        "ATCH": int(np.count_nonzero(sub.event_types == int(EventType.ATCH))),
        "DTCH": int(np.count_nonzero(sub.event_types == int(EventType.DTCH))),
        "SRV_REQ": int(np.count_nonzero(sub.event_types == int(EventType.SRV_REQ))),
        "S1_CONN_REL": int(
            np.count_nonzero(sub.event_types == int(EventType.S1_CONN_REL))
        ),
        "HO (CONN.)": cat2[(EventType.HO, lte.CONNECTED)],
        "HO (IDLE)": cat2[(EventType.HO, lte.IDLE)],
        "TAU (CONN.)": cat2[(EventType.TAU, lte.CONNECTED)],
        "TAU (IDLE)": cat2[(EventType.TAU, lte.IDLE)],
    }
    return {row: counts[row] / total for row in BREAKDOWN_ROWS}
