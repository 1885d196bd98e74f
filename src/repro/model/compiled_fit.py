"""The fitting engine: array-at-a-time replay and model fitting.

Walking every (UE, hour-slot) segment event by event, building one
Python record per transition, would dominate the paper's whole loop at
"millions of UEs" scale.  This module replays entire device cohorts as
flat arrays through each state machine's integer lookup tables
(:func:`repro.statemachines.compiled_replay.table_for`):

* events are taken in ``(ue, time)`` order from the trace's one per-UE
  index and bucketed into hour slots with one ``searchsorted``;
* state reconstruction runs as a segmented Hillis–Steele scan over
  per-event *state-transformation* rows, so the whole cohort's state
  trajectory falls out in ``O(log n)`` vectorized passes;
* ``p_xy`` counts come from one ``bincount`` over
  ``(cluster, source, event)`` keys, sojourn samples from grouped
  diffs, and the first-event / overlay models from boundary masks.

The fitter is **exactly** equivalent to the per-segment reference
pipeline kept as a test oracle (``tests/oracle/fit.py``) — same
transition probabilities, same CDF knots, same cluster assignment —
because every reduction preserves the reference's sample *order*
(``np.mean``/``np.std`` are order-dependent in floating point) and
performs divisions on Python ints exactly as the reference does.

Each (device, hour) fit is one :func:`fit_job` of
:func:`repro.jobs.run_jobs`, which runs the jobs inline or fans them
across worker processes that memory-map the training trace.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..clustering.features import NUM_FEATURES
from ..clustering.quadtree import ClusteringResult, adaptive_cluster, single_cluster
from ..distributions.base import FitError
from ..distributions.empirical import EmpiricalCDF
from ..distributions.exponential import Exponential
from ..statemachines.compiled_replay import (
    MachineTable,
    _interval_bounds,
    _replay_codes,
    table_for,
)
from ..telemetry import get_telemetry
from ..trace.events import SECONDS_PER_HOUR, DeviceType, EventType
from ..trace.trace import Trace
from .first_event import FirstEventModel
from .model_set import ClusterModel, HourModel, build_machine
from .semi_markov import Edge, SemiMarkovChain, StateModel

#: Fallback sojourn when a transition was observed but never with a
#: known entry time (e.g. always the first event of a segment).
_FALLBACK_MEAN_SOJOURN = 60.0

_CATEGORY1_CODES = np.asarray(
    sorted(
        int(e)
        for e in (
            EventType.ATCH,
            EventType.DTCH,
            EventType.SRV_REQ,
            EventType.S1_CONN_REL,
        )
    ),
    dtype=np.int64,
)
_OVERLAY_EVENTS = (EventType.HO, EventType.TAU)

_NUM_EVENTS = int(max(EventType)) + 1


# ---------------------------------------------------------------------------
# Device cohorts as flat arrays
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class DeviceArrays:
    """One device type's events, sorted by ``(ue, time)`` and slot-bucketed."""

    ues: np.ndarray       #: sorted distinct UE ids
    ue_code: np.ndarray   #: per-row index into ``ues``
    events: np.ndarray    #: per-row event codes (int64)
    slots: np.ndarray     #: per-row hour-slot index
    t_rel: np.ndarray     #: per-row slot-relative time, in [0, 3600)
    total_slots: int

    def hour_rows(
        self, hour_slots: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One hour's rows as ``(ue_code, events, t_rel, seg_key, first)``.

        Rows keep the ``(ue, slot, time)`` order; ``seg_key`` names each
        row's (UE, slot) segment and ``first`` flags every segment's
        first row.
        """
        mask = np.isin(self.slots, np.asarray(hour_slots, dtype=np.int64))
        ue_code = self.ue_code[mask]
        seg_key = ue_code * self.total_slots + self.slots[mask]
        return (
            ue_code,
            self.events[mask],
            self.t_rel[mask],
            seg_key,
            _segment_firsts(seg_key),
        )


def device_arrays(
    trace: Trace, device_type: DeviceType, total_slots: int
) -> Optional[DeviceArrays]:
    """Extract one device's cohort as flat arrays (None if absent)."""
    # A stable sort of the device's rows keeps their whole-trace order.
    index = trace.ue_index()
    keep = trace.device_types[index.order] == int(device_type)
    if not keep.any():
        return None
    rows = index.order[keep]
    t = trace.times[rows]
    codes = index.codes()[keep]
    first = _segment_firsts(codes)
    # Slot membership matches the reference's half-open searchsorted
    # windows exactly (an event at exactly k*3600.0 belongs to slot k);
    # floor division would be a float-rounding hazard here.
    boundaries = np.arange(1, total_slots) * SECONDS_PER_HOUR
    slots = np.searchsorted(boundaries, t, side="right")
    return DeviceArrays(
        ues=index.ues[codes[first]],
        ue_code=np.cumsum(first) - 1,
        events=trace.event_types[rows].astype(np.int64),
        slots=slots,
        t_rel=t - slots * SECONDS_PER_HOUR,
        total_slots=total_slots,
    )


# ---------------------------------------------------------------------------
# Per-(device, hour) fitting
# ---------------------------------------------------------------------------

def _segment_firsts(seg_key: np.ndarray) -> np.ndarray:
    first = np.empty(len(seg_key), dtype=bool)
    if len(seg_key):
        first[0] = True
        first[1:] = seg_key[1:] != seg_key[:-1]
    return first


def _group_slices(
    sorted_keys: np.ndarray, key: int
) -> slice:
    lo = int(np.searchsorted(sorted_keys, key, side="left"))
    hi = int(np.searchsorted(sorted_keys, key, side="right"))
    return slice(lo, hi)


def _group_std(codes: np.ndarray, values: np.ndarray, num_ues: int) -> np.ndarray:
    """Per-UE ``np.std`` over grouped values (0.0 below two samples).

    ``codes`` must be non-decreasing with ``values`` in the reference's
    append order, so each group's ``np.std`` sees bit-identical input.
    Groups are batched by size into one ``np.std(..., axis=1)`` call
    each: reducing the contiguous last axis applies the same pairwise
    summation per row as a 1-D reduction, so the batch is bit-identical
    to per-group calls while skipping numpy's per-call dispatch.
    """
    out = np.zeros(num_ues, dtype=np.float64)
    if codes.size == 0:
        return out
    starts = np.flatnonzero(_segment_firsts(codes))
    present = codes[starts]
    lengths = np.diff(np.append(starts, codes.size))
    for size in np.unique(lengths).tolist():
        if size < 2:
            continue
        sel = np.flatnonzero(lengths == size)
        rows = values[starts[sel][:, None] + np.arange(size)]
        out[present[sel]] = np.std(rows, axis=1)
    return out


def _fit_sojourn_arrays(
    samples: np.ndarray,
    event_pool: np.ndarray,
    family: str,
    max_cdf_points: int,
):
    """Fit one F_xy, falling back through pooled samples to a default."""
    source = samples if samples.size else event_pool
    if source.size == 0:
        return Exponential(rate=1.0 / _FALLBACK_MEAN_SOJOURN)
    if family == "empirical":
        return EmpiricalCDF.fit(source, max_points=max_cdf_points)
    try:
        return Exponential.fit(source)
    except FitError:
        return Exponential(rate=1.0 / _FALLBACK_MEAN_SOJOURN)


def fit_device_hour(
    dev: DeviceArrays,
    hour_slots: Sequence[int],
    *,
    table: MachineTable,
    machine_kind: str,
    family: str,
    clustered: bool,
    theta_f: float,
    theta_n: int,
    max_cdf_points: int,
) -> HourModel:
    """Fit one (device, hour-of-day) :class:`HourModel` from flat arrays.

    Exactly equivalent to the per-segment oracle fit
    (``tests/oracle/fit.py``) of the same ``hour_slots``.
    """
    tele = get_telemetry()
    num_slots = len(hour_slots)
    num_ues = len(dev.ues)
    with tele.span("fit-arrays"):
        ue_code, events, t_rel, seg_key, first_raw = dev.hour_rows(hour_slots)
        # Filtered stream: the EMM-ECM machine only replays Category-1.
        if machine_kind == "emm_ecm":
            fmask = np.isin(events, _CATEGORY1_CODES)
            f_ue = ue_code[fmask]
            f_ev = events[fmask]
            f_t = t_rel[fmask]
            f_seg = seg_key[fmask]
        else:
            f_ue, f_ev, f_t, f_seg = ue_code, events, t_rel, seg_key
        f_first = _segment_firsts(f_seg)
    tele.count("segments_replayed", int(np.count_nonzero(first_raw)))
    tele.count("transitions_counted", len(f_ev))

    with tele.span("fit-replay"):
        src, tgt, forced = _replay_codes(f_ev, f_first, table)

    with tele.span("fit-cluster"):
        clustering = _cluster_device_hour(
            dev,
            table,
            clustered=clustered,
            theta_f=theta_f,
            theta_n=theta_n,
            ue_code=ue_code,
            events=events,
            first_raw=first_raw,
            f_ue=f_ue,
            f_t=f_t,
            f_seg=f_seg,
            src=src,
            tgt=tgt,
        )

    with tele.span("fit-models"):
        num_clusters = len(clustering.clusters)
        cl_of_ue = np.zeros(num_ues, dtype=np.int64)
        for i, ue in enumerate(dev.ues.tolist()):
            cl_of_ue[i] = clustering.assignment[int(ue)]
        cid_f = cl_of_ue[f_ue]

        num_states = table.num_states
        num_events = table.num_events
        src64 = src.astype(np.int64)
        combined = (cid_f * num_states + src64) * num_events + f_ev
        counts = np.bincount(
            combined, minlength=num_clusters * num_states * num_events
        ).reshape(num_clusters, num_states, num_events)

        # Sojourn samples: non-forced records only; value is the
        # slot-relative diff to the previous record of the segment, in
        # the reference's global (ue, slot, time) append order — the
        # stable argsorts below preserve it within every group.
        nf = np.flatnonzero(~forced)
        sojourns = f_t[nf] - f_t[nf - 1]
        edge_keys = (cid_f[nf] * num_states + src64[nf]) * num_events + f_ev[nf]
        edge_order = np.argsort(edge_keys, kind="stable")
        edge_sorted_keys = edge_keys[edge_order]
        edge_sorted_vals = sojourns[edge_order]
        pool_keys = cid_f[nf] * num_events + f_ev[nf]
        pool_order = np.argsort(pool_keys, kind="stable")
        pool_sorted_keys = pool_keys[pool_order]
        pool_sorted_vals = sojourns[pool_order]

        first_pos = np.flatnonzero(f_first)
        cid_first = cid_f[first_pos] if first_pos.size else first_pos

        cluster_models = []
        for cluster in clustering.clusters:
            cid = cluster.cluster_id
            chain = _cluster_chain(
                counts[cid],
                table,
                family=family,
                max_cdf_points=max_cdf_points,
                cid=cid,
                edge_sorted_keys=edge_sorted_keys,
                edge_sorted_vals=edge_sorted_vals,
                pool_sorted_keys=pool_sorted_keys,
                pool_sorted_vals=pool_sorted_vals,
            )
            sel = first_pos[cid_first == cid]
            first_events = [
                (EventType(int(f_ev[p])), float(f_t[p])) for p in sel.tolist()
            ]
            num_segments = cluster.size * num_slots
            first_event = FirstEventModel.fit(
                first_events,
                max(num_segments, len(first_events)),
                max_cdf_points=max_cdf_points,
            )
            if machine_kind == "emm_ecm":
                overlay = _cluster_overlay(
                    cl_of_ue[ue_code] == cid,
                    events,
                    t_rel,
                    seg_key,
                    num_segments,
                )
            else:
                overlay = {}
            cluster_models.append(
                ClusterModel(
                    chain=chain,
                    first_event=first_event,
                    overlay_rates=overlay,
                    num_ues=cluster.size,
                    num_segments=num_segments,
                )
            )
        return HourModel(
            clusters=cluster_models, assignment=dict(clustering.assignment)
        )


def _cluster_device_hour(
    dev: DeviceArrays,
    table: MachineTable,
    *,
    clustered: bool,
    theta_f: float,
    theta_n: int,
    ue_code: np.ndarray,
    events: np.ndarray,
    first_raw: np.ndarray,
    f_ue: np.ndarray,
    f_t: np.ndarray,
    f_seg: np.ndarray,
    src: np.ndarray,
    tgt: np.ndarray,
) -> ClusteringResult:
    """Cluster one device-hour's UEs on their pooled §5.3 features."""
    ues_list = [int(u) for u in dev.ues.tolist()]
    if not clustered:
        return single_cluster(ues_list, NUM_FEATURES)
    num_ues = len(ues_list)
    srv = np.bincount(
        ue_code[events == int(EventType.SRV_REQ)], minlength=num_ues
    )
    rel = np.bincount(
        ue_code[events == int(EventType.S1_CONN_REL)], minlength=num_ues
    )
    slots_seen = np.bincount(ue_code[first_raw], minlength=num_ues)

    open_b, close_b = _interval_bounds(table, src, tgt, f_seg)
    durations = f_t[close_b] - f_t[open_b]
    interval_state = table.parent_code[tgt[open_b]]
    interval_ue = f_ue[open_b]
    conn = interval_state == table.connected_code
    idle = interval_state == table.idle_code
    std_conn = _group_std(interval_ue[conn], durations[conn], num_ues)
    std_idle = _group_std(interval_ue[idle], durations[idle], num_ues)

    features: Dict[int, np.ndarray] = {}
    for i, ue in enumerate(ues_list):
        slots = max(1, int(slots_seen[i]))
        features[ue] = np.asarray(
            [
                int(srv[i]) / slots,
                int(rel[i]) / slots,
                std_conn[i],
                std_idle[i],
            ],
            dtype=np.float64,
        )
    return adaptive_cluster(features, theta_f=theta_f, theta_n=theta_n)


def _cluster_chain(
    counts: np.ndarray,
    table: MachineTable,
    *,
    family: str,
    max_cdf_points: int,
    cid: int,
    edge_sorted_keys: np.ndarray,
    edge_sorted_vals: np.ndarray,
    pool_sorted_keys: np.ndarray,
    pool_sorted_vals: np.ndarray,
) -> SemiMarkovChain:
    """Build one cluster's chain from its (S, E) count matrix."""
    num_states = table.num_states
    num_events = table.num_events
    row_totals = counts.sum(axis=1)
    states: Dict[str, StateModel] = {}
    for s in range(num_states):
        total = int(row_totals[s])
        if total == 0:
            continue
        edges = []
        for e in range(num_events):
            n = int(counts[s, e])
            if n == 0:
                continue
            samples = edge_sorted_vals[
                _group_slices(
                    edge_sorted_keys, (cid * num_states + s) * num_events + e
                )
            ]
            pool = pool_sorted_vals[
                _group_slices(pool_sorted_keys, cid * num_events + e)
            ]
            edges.append(
                Edge(
                    event=EventType(e),
                    target=table.names[int(table.next_state[s, e])],
                    probability=n / total,
                    sojourn=_fit_sojourn_arrays(
                        samples, pool, family, max_cdf_points
                    ),
                )
            )
        states[table.names[s]] = StateModel(edges=tuple(edges))
    return SemiMarkovChain(states)


def _cluster_overlay(
    in_cluster: np.ndarray,
    events: np.ndarray,
    t_rel: np.ndarray,
    seg_key: np.ndarray,
    num_segments: int,
) -> Dict[EventType, float]:
    """One cluster's Poisson HO/TAU overlay rates (EMM–ECM baselines)."""
    rates: Dict[EventType, float] = {}
    for event in _OVERLAY_EVENTS:
        rows = np.flatnonzero(in_cluster & (events == int(event)))
        count = int(rows.size)
        if rows.size >= 2:
            same = seg_key[rows[1:]] == seg_key[rows[:-1]]
            interarrivals = (t_rel[rows[1:]] - t_rel[rows[:-1]])[same]
        else:
            interarrivals = np.empty(0, dtype=np.float64)
        if interarrivals.size:
            mean = float(np.mean(interarrivals))
            rates[event] = 1.0 / max(mean, 1e-3)
        elif count > 0 and num_segments > 0:
            rates[event] = count / (num_segments * SECONDS_PER_HOUR)
        else:
            rates[event] = 0.0
    return rates


# ---------------------------------------------------------------------------
# The fit job
# ---------------------------------------------------------------------------

def fit_job(ctx: dict, device_code: int, slots: Tuple[int, ...]) -> HourModel:
    """Fit one (device, hour) job for :func:`repro.jobs.run_jobs`.

    ``ctx`` carries the training ``trace``, its ``total_slots`` and the
    :func:`fit_device_hour` keywords under ``fit``.  Jobs arrive
    device-major, so the device's arrays are memoized in ``ctx`` until
    the next device comes up.
    """
    memo = ctx.get("device_arrays")
    if memo is None or memo[0] != device_code:
        with get_telemetry().span("fit-arrays"):
            arrays = device_arrays(
                ctx["trace"], DeviceType(device_code), ctx["total_slots"]
            )
        memo = ctx["device_arrays"] = (device_code, arrays)
    fit = ctx["fit"]
    return fit_device_hour(
        memo[1], slots, table=table_for(build_machine(fit["machine_kind"])), **fit
    )
