"""One §8 summary per (trace, device), and the comparisons of Tables 4-6.

:func:`summarize` returns a :class:`DeviceSummary`: everything Tables
4, 5 and 6 read from one device cohort of a trace.  The first call on
a trace replays the whole trace once and summarizes every device type
in it, reading each cohort's rows through the trace's per-UE index (a
UE has one device type), with no per-device copy.  The summaries are
held on the trace (:meth:`~repro.trace.trace.Trace.memo`), so a trace
summarized again, for another device or in another evaluation, is not
replayed again.  :func:`compare` scores a synthesized summary against
the real one.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

import numpy as np

from ..statemachines import lte
from ..statemachines.compiled_replay import classify_category2_by_device, replay_trace
from ..stats.ecdf import max_y_distance
from ..trace.events import DeviceType, EventType
from ..trace.trace import Trace
from .microscopic import MICRO_QUANTITIES, _COUNT_QUANTITIES

_NUM_EVENTS = int(max(EventType)) + 1

#: Breakdown rows that count one event type outright.
_PLAIN_ROWS = ("ATCH", "DTCH", "SRV_REQ", "S1_CONN_REL")

#: Breakdown rows split by the top-level state the event occurs in.
_STATE_ROWS = {
    "HO (CONN.)": (EventType.HO, lte.CONNECTED),
    "HO (IDLE)": (EventType.HO, lte.IDLE),
    "TAU (CONN.)": (EventType.TAU, lte.CONNECTED),
    "TAU (IDLE)": (EventType.TAU, lte.IDLE),
}

#: The macroscopic breakdown's row labels, in the paper's table order.
BREAKDOWN_ROWS: Tuple[str, ...] = _PLAIN_ROWS + tuple(_STATE_ROWS)


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
    :class:`ValueError` if it is smaller than the UEs present.  The
    sample arrays are shared with the trace's held summary and are
    read-only.
    """
    device_type = DeviceType(device_type)
    held = trace.memo("validation.summaries", lambda: _device_summaries(trace))
    cohort = held.get(device_type) or _absent(device_type)
    samples = dict(cohort.samples)
    present = samples["SRV_REQ"].size
    if num_ues is not None:
        if num_ues < present:
            raise ValueError(
                f"num_ues={num_ues} smaller than UEs present ({present})"
            )
        # Counts are non-negative, so the padding zeros sort first.
        pad = np.zeros(num_ues - present)
        for name in _COUNT_QUANTITIES:
            samples[name] = np.concatenate([pad, samples[name]])
    return DeviceSummary(device_type, dict(cohort.breakdown), samples)


def _device_summaries(trace: Trace) -> Dict[DeviceType, DeviceSummary]:
    """The unpadded summary of every device type in ``trace``, from one
    replay of the whole trace."""
    index = trace.ue_index()
    num_ues = len(index.ues)
    ue_device = trace.device_types[index.order[index.bounds[:-1]]]
    per_ue = np.bincount(
        index.codes() * _NUM_EVENTS + trace.event_types[index.order],
        minlength=num_ues * _NUM_EVENTS,
    ).reshape(num_ues, _NUM_EVENTS)
    sojourns = replay_trace(trace).device_top_state_sojourns()
    category2 = classify_category2_by_device(trace)
    out: Dict[DeviceType, DeviceSummary] = {}
    for device_type, by_state in sojourns.items():
        counts = per_ue[ue_device == device_type]
        samples = {
            name: np.sort(counts[:, int(event)].astype(np.float64))
            for name, event in _COUNT_QUANTITIES.items()
        }
        for state in (lte.CONNECTED, lte.IDLE):
            samples[state] = by_state.get(state, np.empty(0))
        for array in samples.values():
            array.flags.writeable = False
        totals = counts.sum(axis=0)
        rows = {name: int(totals[int(EventType[name])]) for name in _PLAIN_ROWS}
        cat2 = category2[device_type]
        rows.update({name: cat2[key] for name, key in _STATE_ROWS.items()})
        total = int(totals.sum())
        breakdown = {row: rows[row] / total for row in BREAKDOWN_ROWS}
        out[device_type] = DeviceSummary(device_type, breakdown, samples)
    return out


def _absent(device_type: DeviceType) -> DeviceSummary:
    """The summary of a device type with no events in the trace."""
    empty = np.empty(0)
    empty.flags.writeable = False
    return DeviceSummary(
        device_type,
        {row: 0.0 for row in BREAKDOWN_ROWS},
        {name: empty for name in MICRO_QUANTITIES},
    )


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
