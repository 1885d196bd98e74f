"""Macroscopic validation: event-breakdown comparisons (Tables 4 & 11).

The paper's macroscopic metric splits ``HO``/``TAU`` by the top-level
state they occur in, giving eight rows:

``ATCH, DTCH, SRV_REQ, S1_CONN_REL, HO (CONN.), HO (IDLE), TAU (CONN.),
TAU (IDLE)``

each as a percentage of all events of that device type.  A method's
error is the signed difference between its synthesized percentages and
the real trace's.
"""

from __future__ import annotations

from typing import Dict, Mapping, Sequence, Tuple

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
    """Eight-row event breakdown (fractions of all events) for one device."""
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


def breakdown_difference(
    real: Trace,
    synthesized: Trace,
    device_type: DeviceType,
) -> Dict[str, float]:
    """Signed per-row difference (synthesized - real), in fractions."""
    rb = breakdown_with_states(real, device_type)
    sb = breakdown_with_states(synthesized, device_type)
    return {row: sb[row] - rb[row] for row in BREAKDOWN_ROWS}


def max_abs_breakdown_difference(
    real: Trace,
    synthesized: Trace,
    device_type: DeviceType,
) -> float:
    """The largest |row difference| — the headline number of §8.1.1."""
    diffs = breakdown_difference(real, synthesized, device_type)
    return max(abs(v) for v in diffs.values())


def macro_comparison(
    real: Trace,
    synthesized_by_method: Mapping[str, Trace],
    device_types: Sequence[DeviceType] = tuple(DeviceType),
) -> Dict[DeviceType, Dict[str, Dict[str, float]]]:
    """Full Table 4/11 structure.

    Returns ``{device: {"real": breakdown, method: differences...}}``
    with every value a fraction (multiply by 100 for the paper's
    percentage view).
    """
    out: Dict[DeviceType, Dict[str, Dict[str, float]]] = {}
    for device_type in device_types:
        per_device: Dict[str, Dict[str, float]] = {
            "real": breakdown_with_states(real, device_type)
        }
        for method, trace in synthesized_by_method.items():
            per_device[method] = breakdown_difference(real, trace, device_type)
        out[device_type] = per_device
    return out
