"""One §8 summary per (trace, device), and the comparisons of Tables 4-6.

:func:`summarize` cuts one device cohort out of a trace once and
replays it once; the :class:`DeviceSummary` it returns holds everything
Tables 4, 5 and 6 read from that cohort.  :func:`compare` scores a
synthesized summary against the real one, so a real trace compared
with several methods is summarized once per device, not once per
method.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

from ..statemachines import lte
from ..statemachines.compiled_replay import replay_trace
from ..stats.ecdf import max_y_distance
from ..trace.events import DeviceType, EventType
from ..trace.trace import Trace
from .breakdown import BREAKDOWN_ROWS, _cohort_breakdown
from .microscopic import MICRO_QUANTITIES, _COUNT_QUANTITIES, _cohort_counts


@dataclasses.dataclass(frozen=True)
class DeviceSummary:
    """Everything Tables 4-6 read from one device cohort of one trace."""

    device_type: DeviceType
    #: Eight-row event breakdown, as fractions, in ``BREAKDOWN_ROWS`` order.
    breakdown: Dict[str, float]
    #: One CDF sample per :data:`MICRO_QUANTITIES` entry: the sorted
    #: per-UE ``SRV_REQ`` / ``S1_CONN_REL`` counts and the complete
    #: CONNECTED / IDLE sojourns (empty when there are none).
    samples: Dict[str, np.ndarray]


def summarize(
    trace: Trace,
    device_type: DeviceType,
    *,
    num_ues: Optional[int] = None,
) -> DeviceSummary:
    """Summarize the ``device_type`` cohort of ``trace``.

    ``num_ues`` is the cohort's nominal population: the per-UE counts
    are zero-padded to it (``None`` keeps only the UEs present, which is
    also the right padding for a real trace).  Raises
    :class:`ValueError` if it is smaller than the UEs present.
    """
    sub = trace.filter_device(device_type)
    samples = {
        name: _cohort_counts(sub, event_type, num_ues)
        for name, event_type in _COUNT_QUANTITIES.items()
    }
    sojourns = replay_trace(sub).top_state_sojourns()
    for state in (lte.CONNECTED, lte.IDLE):
        samples[state] = sojourns.get(state, np.empty(0))
    return DeviceSummary(device_type, _cohort_breakdown(sub), samples)


@dataclasses.dataclass(frozen=True)
class Comparison:
    """A synthesized cohort scored against the real one (Tables 4/5)."""

    macro_diff: Dict[str, float]   #: synthesized - real, per breakdown row
    macro_max_error: float         #: largest |row difference|, §8.1.1's headline
    micro: Dict[str, float]        #: max y-distance per measurable quantity
    #: Quantities that could not be measured, with the reason — always
    #: disjoint from ``micro``'s keys.
    micro_skipped: Dict[str, str]


def compare(real: DeviceSummary, synthesized: DeviceSummary) -> Comparison:
    """Score ``synthesized`` against ``real``: one Table 4 and Table 5 cell.

    Each of :data:`MICRO_QUANTITIES` is measured on its own: a quantity
    with an empty sample on either side lands in ``micro_skipped`` with
    the reason and never discards the others.
    """
    device_type = real.device_type
    if synthesized.device_type != device_type:
        raise ValueError(
            f"cannot compare a {synthesized.device_type.name} summary "
            f"with a {device_type.name} one"
        )
    macro_diff = {
        row: synthesized.breakdown[row] - real.breakdown[row]
        for row in BREAKDOWN_ROWS
    }
    micro: Dict[str, float] = {}
    skipped: Dict[str, str] = {}
    for name in MICRO_QUANTITIES:
        real_s, syn_s = real.samples[name], synthesized.samples[name]
        if real_s.size and syn_s.size:
            micro[name] = max_y_distance(real_s, syn_s)
        elif name in _COUNT_QUANTITIES:
            skipped[name] = "one of the traces has no UEs of this device type"
        else:
            skipped[name] = (
                f"no complete {name} sojourns for {device_type.name} "
                "in one of the traces"
            )
    return Comparison(
        macro_diff=macro_diff,
        macro_max_error=max(abs(v) for v in macro_diff.values()),
        micro=micro,
        micro_skipped=skipped,
    )


#: Table 6's activity threshold: inactive UEs emit <= 2 events per hour.
ACTIVITY_THRESHOLD = 2


def activity_split_ydistance(
    real: DeviceSummary,
    synthesized: DeviceSummary,
    event_type: EventType,
    *,
    threshold: int = ACTIVITY_THRESHOLD,
) -> Tuple[float, float]:
    """Y-distances for (inactive, active) UE groups (Table 6).

    Each summary's UEs are split by their own per-UE counts of
    ``event_type`` (``SRV_REQ`` or ``S1_CONN_REL``); the CDFs of the two
    groups are compared separately, NaN where a group is empty.
    """
    real_c = real.samples[event_type.name]
    syn_c = synthesized.samples[event_type.name]
    out = []
    for keep in (lambda c: c <= threshold, lambda c: c > threshold):
        r, s = real_c[keep(real_c)], syn_c[keep(syn_c)]
        out.append(max_y_distance(r, s) if r.size and s.size else float("nan"))
    return out[0], out[1]
