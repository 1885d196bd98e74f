"""Macroscopic validation: event-breakdown comparisons (Tables 4 & 11).

The paper's macroscopic metric splits ``HO``/``TAU`` by the top-level
state they occur in, giving eight rows (:data:`BREAKDOWN_ROWS`):

``ATCH, DTCH, SRV_REQ, S1_CONN_REL, HO (CONN.), HO (IDLE), TAU (CONN.),
TAU (IDLE)``

each as a percentage of all events of that device type.  The breakdown
is a field of :func:`repro.validation.summary.summarize`'s summary,
built from its one replay of the whole trace; :func:`breakdown_with_states`
reads it from there.  A method's error is the signed difference between
its synthesized percentages and the real trace's
(:func:`repro.validation.summary.compare`).
"""

from __future__ import annotations

from typing import Dict

from ..trace.events import DeviceType
from ..trace.trace import Trace
from .summary import BREAKDOWN_ROWS, summarize

__all__ = ["BREAKDOWN_ROWS", "breakdown_with_states"]


def breakdown_with_states(
    trace: Trace,
    device_type: DeviceType,
) -> Dict[str, float]:
    """Eight-row event breakdown (fractions of all events) for one device.

    The breakdown of ``summarize(trace, device_type)``: a trace already
    summarized is not replayed again.
    """
    return summarize(trace, device_type).breakdown
