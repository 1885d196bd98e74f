"""The goodness-of-fit study of §4 / Appendix A (Tables 8, 9, 10).

For every (device type, hour, UE cluster) combination the study pools

* per-UE **inter-arrival times** of each of the six event types,
* **sojourn times** in the four EMM/ECM states
  (REGISTERED / DEREGISTERED / CONNECTED / IDLE), and
* sojourn times of the nine **second-level transitions** of the
  two-level machine (Table 10),

fits each candidate family by MLE, and runs the K–S test (plus the
Anderson–Darling test for the Poisson/exponential case).  The reported
number is the percentage of (hour, cluster) combinations whose samples
pass at the 5% significance level — the paper finds close to 0% nearly
everywhere, which is the motivation for the empirical-CDF model.

Each (device, hour) is replayed with the fitter's array replay and
clustered by the fitter's own clustering code
(:func:`repro.model.compiled_fit._cluster_codes`), so the study's
clusters are the fitted model's by construction.  That gives one
cluster code per UE; indexing it with each event's UE gives each
sample its cluster, and samples are pooled per cluster with stable
group-bys, in the per-segment ``(ue, slot, time)`` order.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, Sequence, Tuple

import numpy as np

from ..clustering.quadtree import DEFAULT_THETA_F, DEFAULT_THETA_N
from ..distributions import CLASSIC_FAMILIES
from ..distributions.base import FitError
from ..model.compiled_fit import _cluster_codes, fit_arrays
from ..model.fitting import plan_hour_slots
from ..statemachines.compiled_replay import (
    MachineTable,
    _group_arrays,
    _interval_bounds,
    _replay_codes,
    table_for,
)
from ..statemachines.lte import SECOND_LEVEL_TRANSITIONS, two_level_machine
from ..stats.anderson import anderson_exponential
from ..stats.ks import fit_and_ks_test
from ..trace.events import DeviceType, EventType
from ..trace.trace import Trace

#: The four EMM/ECM states whose sojourn the paper fits (§4.1.1).
EMM_ECM_STATES = ("REGISTERED", "DEREGISTERED", "CONNECTED", "IDLE")

#: Test names reported in the tables.
TESTS = ("poisson_ks", "poisson_ad", "pareto_ks", "weibull_ks", "tcplib_ks")

#: Minimum pooled samples for a (hour, cluster, quantity) to be testable.
#: Below this the K-S/A² tests have almost no power and "pass" rates are
#: meaningless (the paper's trace gives every combination thousands of
#: samples).
MIN_SAMPLES = 50

#: One quantity's samples of one hour: (name, per-sample cluster, values).
_Samples = Tuple[str, np.ndarray, np.ndarray]


@dataclasses.dataclass
class GofResult:
    """Pass rates of one study: ``rates[test][quantity] = fraction``.

    ``combos[quantity]`` counts how many (hour, cluster) combinations
    were testable for that quantity.
    """

    device_type: DeviceType
    rates: Dict[str, Dict[str, float]]
    combos: Dict[str, int]


def _event_and_state_samples(
    table: MachineTable,
    cid: np.ndarray,
    events: np.ndarray,
    t: np.ndarray,
    seg_key: np.ndarray,
    first: np.ndarray,
    src: np.ndarray,
    tgt: np.ndarray,
) -> Iterator[_Samples]:
    """Inter-arrivals of the six events, then the four state sojourns."""
    # Within-segment inter-arrival times per event type (§4.1.1).
    for event in EventType:
        idx = np.flatnonzero(events == int(event))
        same = seg_key[idx[1:]] == seg_key[idx[:-1]]
        later = idx[1:][same]
        yield event.name, cid[later], t[later] - t[idx[:-1][same]]

    parent_src = table.parent_code[src]
    parent_tgt = table.parent_code[tgt]
    in_registered = np.isin(
        np.arange(len(table.parent_names)), [table.connected_code, table.idle_code]
    )

    # REGISTERED spans maximal runs of CONNECTED+IDLE intervals.  Lay
    # out every segment's intervals in order: its leading interval (the
    # first row's source state, entered at an unknown time), then one
    # interval per boundary row.  A run is complete when a DEREGISTERED
    # interval of the same segment ends it and it did not begin with the
    # leading interval.
    firsts = np.flatnonzero(first)
    bounds = np.flatnonzero(parent_src != parent_tgt)
    order = np.argsort(np.concatenate([2 * firsts, 2 * bounds + 1]), kind="stable")
    row = np.concatenate([firsts, bounds])[order]
    lead = (np.arange(len(row)) < len(firsts))[order]
    registered = in_registered[np.where(lead, parent_src[row], parent_tgt[row])]
    after_registered = np.zeros(len(row), dtype=bool)
    after_registered[1:] = registered[:-1] & ~lead[1:]
    run_start = np.maximum.accumulate(
        np.where(registered & ~after_registered, np.arange(len(row)), -1)
    )
    close = np.flatnonzero(~registered & after_registered)
    opened = run_start[close - 1]
    known = ~lead[opened]
    close_row, open_row = row[close[known]], row[opened[known]]
    yield "REGISTERED", cid[close_row], t[close_row] - t[open_row]

    # DEREGISTERED / CONNECTED / IDLE: complete top-level intervals.
    open_b, close_b = _interval_bounds(table, src, tgt, seg_key)
    state = parent_tgt[open_b]
    durations = t[close_b] - t[open_b]
    for name in EMM_ECM_STATES[1:]:
        keep = state == table.parent_names.index(name)
        yield name, cid[open_b[keep]], durations[keep]


def _transition_samples(
    table: MachineTable,
    cid: np.ndarray,
    events: np.ndarray,
    t: np.ndarray,
    forced: np.ndarray,
    src: np.ndarray,
) -> Iterator[_Samples]:
    """Sojourns of the nine second-level transitions (Table 10)."""
    valid = np.flatnonzero(~forced)
    sojourns = t[valid] - t[valid - 1]
    for source, event in SECOND_LEVEL_TRANSITIONS:
        keep = (src[valid] == table.names.index(source)) & (
            events[valid] == int(event)
        )
        yield f"{source}-{event.name}", cid[valid[keep]], sojourns[keep]


def _run_tests(samples: Sequence[float]) -> Dict[str, bool]:
    """All five test outcomes (pass = null retained at 5%)."""
    arr = np.asarray(samples, dtype=np.float64)
    out: Dict[str, bool] = {}
    for test in TESTS:
        family = test.split("_")[0]
        try:
            if test == "poisson_ad":
                out[test] = anderson_exponential(arr).passes()
            else:
                out[test] = fit_and_ks_test(CLASSIC_FAMILIES[family], arr).passes()
        except (FitError, ValueError):
            out[test] = False
    return out


def gof_study(
    trace: Trace,
    device_type: DeviceType,
    *,
    clustered: bool,
    theta_f: float = DEFAULT_THETA_F,
    theta_n: int = DEFAULT_THETA_N,
    trace_start_hour: int = 0,
    quantities: str = "events_and_states",
    min_samples: int = MIN_SAMPLES,
) -> GofResult:
    """Run the §4 study for one device type.

    Parameters
    ----------
    clustered:
        ``False`` reproduces Table 8 (per-device pooling), ``True``
        Tables 9/10 (per adaptive cluster).
    quantities:
        ``"events_and_states"`` (Tables 8/9: six event inter-arrivals +
        four state sojourns) or ``"transitions"`` (Table 10: the nine
        second-level transition sojourns).
    """
    if quantities not in ("events_and_states", "transitions"):
        raise ValueError(f"unknown quantities {quantities!r}")
    total_slots, hour_plan = plan_hour_slots(trace, trace_start_hour)
    arrays = fit_arrays(trace, total_slots, device_type)
    if not arrays.devices:
        raise ValueError(f"trace has no {device_type.name} events")
    table = table_for(two_level_machine())

    passes: Dict[str, Dict[str, int]] = {t: {} for t in TESTS}
    combos: Dict[str, int] = {}

    for _, slots in hour_plan:
        rows = arrays.hour_rows(slots)
        ue_code, events, t_rel, seg_key, first = rows
        if len(events) == 0:
            continue
        src, tgt, forced = _replay_codes(events, first, table)
        (codes,) = _cluster_codes(
            arrays,
            table,
            slots,
            rows,
            rows,
            src,
            tgt,
            clustered=clustered,
            theta_f=theta_f,
            theta_n=theta_n,
        )
        cid = codes[np.searchsorted(arrays.device_ues[0], ue_code)]
        if quantities == "events_and_states":
            samples = _event_and_state_samples(
                table, cid, events, t_rel, seg_key, first, src, tgt
            )
        else:
            samples = _transition_samples(table, cid, events, t_rel, forced, src)
        by_cluster = [
            (quantity, dict(zip(*_group_arrays(keys, values))))
            for quantity, keys, values in samples
        ]
        empty = np.empty(0, dtype=np.float64)

        # Clusters with events this hour, in code order.
        for cluster in np.unique(cid).tolist():
            for quantity, groups in by_cluster:
                values = groups.get(cluster, empty)
                if len(values) < min_samples:
                    continue
                combos[quantity] = combos.get(quantity, 0) + 1
                for test, ok in _run_tests(values).items():
                    if ok:
                        passes[test][quantity] = passes[test].get(quantity, 0) + 1

    rates = {
        test: {
            quantity: passes[test].get(quantity, 0) / n
            for quantity, n in combos.items()
        }
        for test in TESTS
    }
    return GofResult(device_type=device_type, rates=rates, combos=combos)
