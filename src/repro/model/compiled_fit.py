"""The fitting engine: array-at-a-time replay and model fitting.

Walking every (UE, hour-slot) segment event by event, building one
Python record per transition, would dominate the paper's whole loop at
"millions of UEs" scale.  This module replays entire device cohorts as
flat arrays through each state machine's integer lookup tables
(:func:`repro.statemachines.compiled_replay.table_for`):

* events are taken in ``(ue, time)`` order from the trace's one per-UE
  index and bucketed into hour slots with one ``searchsorted``;
* state reconstruction seeds the state after every barrier row
  (segment firsts, source-independent events) and walks the short
  runs between barriers forward
  (:func:`~repro.statemachines.compiled_replay._replay_codes`);
* the §5.3 clustering features are one ``(n, 4)`` matrix in the
  device's sorted-UE order, and
  :func:`~repro.clustering.adaptive_cluster` returns one cluster code
  per UE, which the per-event arrays index directly; the codes are
  held on the trace, so a second fit that clusters the same hour alike
  reuses them;
* ``p_xy`` counts come from one ``bincount`` over
  ``(cluster, source, event)`` keys, sojourn samples from grouped
  diffs, and the first-event / overlay models from boundary masks;
* every cluster's results go straight into the hour's generator tables
  (:class:`~repro.model.model_set.HourModel`): sojourn CDF knots from
  one group-by sort and one grouped linear quantile
  (:mod:`repro.model.grouped`), with no per-cluster or per-edge loop.

The fitter is **exactly** equivalent to the per-segment reference
pipeline kept as a test oracle (``tests/oracle/fit.py``) — same
transition probabilities, same CDF knots, same cluster assignment —
because every reduction preserves the reference's sample *order*
(``np.mean``/``np.std`` are order-dependent in floating point) and
divides integer counts, which rounds exactly like the reference's
Python ``int / int``.

Each (device, hour) fit is one :func:`fit_job` of
:func:`repro.jobs.run_jobs`, which runs the jobs inline or fans them
across worker processes; forked workers read the caller's training
trace and the cluster codes it already holds.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from ..clustering.quadtree import adaptive_cluster
from ..statemachines.compiled_replay import (
    MachineTable,
    _interval_bounds,
    _replay_codes,
    table_for,
)
from ..telemetry import get_telemetry
from ..trace.events import SECONDS_PER_HOUR, DeviceType, EventType
from ..trace.trace import Trace
from .grouped import group_means, group_starts, grouped_knots, stable_order
from .model_set import HourModel, build_machine

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

    trace: Trace          #: the trace the rows come from
    device_type: DeviceType
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
        trace=trace,
        device_type=device_type,
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


def fit_device_hour(
    dev: DeviceArrays,
    hour_slots: Sequence[int],
    phase: Callable[[str], None],
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
    (``tests/oracle/fit.py``) of the same ``hour_slots``.  ``phase`` is
    the job's :meth:`~repro.telemetry.RunTelemetry.phases` recorder, in
    its ``fit-arrays`` phase; the fit moves it through ``fit-replay``,
    ``fit-cluster`` and ``fit-models``.
    """
    tele = get_telemetry()
    num_slots = len(hour_slots)
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

    phase("fit-replay")
    src, tgt, forced = _replay_codes(f_ev, f_first, table)

    phase("fit-cluster")
    cl_of_ue = _cluster_device_hour(
        dev,
        table,
        hour_slots,
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

    phase("fit-models")
    C = int(cl_of_ue.max()) + 1
    sizes = np.bincount(cl_of_ue, minlength=C)
    S = table.num_states
    E = table.num_events
    cid_f = cl_of_ue[f_ue]
    src64 = src.astype(np.int64)

    # -- transitions: p_xy = n / total per (cluster, state) ---------
    counts = np.bincount((cid_f * S + src64) * E + f_ev, minlength=C * S * E)
    edge_key = np.flatnonzero(counts)
    state_key = edge_key // E
    totals = counts.reshape(C * S, E).sum(axis=1)
    edge_prob = counts[edge_key] / totals[state_key]
    edge_event = edge_key % E
    edge_cluster = state_key // S
    edge_state = state_key % S

    # -- sojourns: each edge's own samples, else its (cluster,
    # event) pool, else the Exponential(1/60) fallback --------------
    # Non-forced records only; the value is the slot-relative diff to
    # the previous record of the segment.
    nf = np.flatnonzero(~forced)
    sojourns = f_t[nf] - f_t[nf - 1]
    own_keys = (cid_f[nf] * S + src64[nf]) * E + f_ev[nf]
    empirical = family == "empirical"
    values, starts, lengths = _group_values(
        own_keys, sojourns, edge_key, empirical
    )
    pooled = lengths == 0
    if pooled.any():
        pool, pool_starts, pool_lengths = _group_values(
            cid_f[nf] * E + f_ev[nf], sojourns, edge_cluster * E + edge_event,
            empirical,
        )
        starts = np.where(pooled, values.size + pool_starts, starts)
        lengths = np.where(pooled, pool_lengths, lengths)
        values = np.concatenate([values, pool])
    if empirical:
        edge_rate = np.ones(edge_key.size)  # read on unsampled edges only
        sojourn_ptr, sojourn_values = grouped_knots(
            values, starts, lengths, max_cdf_points
        )
    else:
        means = group_means(values, starts, lengths)  # NaN without samples
        with np.errstate(invalid="ignore", divide="ignore"):
            edge_rate = np.where(means > 0, 1.0 / means, np.nan)
        sojourn_ptr = np.zeros(edge_key.size + 1, dtype=np.int64)
        sojourn_values = np.empty(0)
    fallback = np.isnan(edge_rate) | (lengths == 0)
    edge_rate[fallback] = 1.0 / _FALLBACK_MEAN_SOJOURN

    # -- first events (§5.4) ---------------------------------------
    first_pos = np.flatnonzero(f_first)
    fe_cl = cid_f[first_pos]
    num_first = np.bincount(fe_cl, minlength=C)
    num_segments = sizes * num_slots
    fe_counts = np.bincount(fe_cl * E + f_ev[first_pos], minlength=C * E)
    fe_key = np.flatnonzero(fe_counts)
    fe_cluster = fe_key // E
    offsets, off_starts, off_lengths = _group_values(
        fe_cl, f_t[first_pos], np.arange(C), True
    )
    # A cluster with no first event gets the one-knot CDF at 0.0.
    silent = off_lengths == 0
    offset_ptr, offset_values = grouped_knots(
        np.append(offsets, 0.0),
        np.where(silent, offsets.size, off_starts),
        np.where(silent, 1, off_lengths),
        max_cdf_points,
    )

    # -- Poisson HO/TAU overlays (EMM-ECM baselines) ---------------
    overlay_events = (
        np.asarray(sorted(int(e) for e in _OVERLAY_EVENTS), dtype=np.int64)
        if machine_kind == "emm_ecm"
        else np.empty(0, dtype=np.int64)
    )
    overlay_rates = np.zeros((C, overlay_events.size))
    for k, event in enumerate(overlay_events.tolist()):
        overlay_rates[:, k] = _overlay_rates(
            event, cl_of_ue, ue_code, events, t_rel, seg_key, num_segments
        )

    return HourModel.from_columns(
        machine_kind,
        num_ues=sizes,
        num_segments=num_segments,
        assign_keys=dev.ues,
        assign_vals=cl_of_ue,
        edge_cluster=edge_cluster,
        edge_state=edge_state,
        edge_event=edge_event,
        edge_target=table.next_state[edge_state, edge_event],
        edge_prob=edge_prob,
        edge_rate=edge_rate,
        sojourn_ptr=sojourn_ptr,
        sojourn_values=sojourn_values,
        p_active=num_first / np.maximum(num_segments, num_first),
        fe_cluster=fe_cluster,
        fe_event=fe_key % E,
        fe_prob=fe_counts[fe_key] / num_first[fe_cluster],
        offset_ptr=offset_ptr,
        offset_values=offset_values,
        overlay_events=overlay_events,
        overlay_rates=overlay_rates,
    )


def _cluster_device_hour(
    dev: DeviceArrays,
    table: MachineTable,
    hour_slots: Sequence[int],
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
) -> np.ndarray:
    """Cluster codes of one device-hour's UEs, in ``dev.ues`` order.

    The §5.3 features are pooled over the hour's slots: SRV_REQ and
    S1_CONN_REL counts per slot the UE was seen in, and the standard
    deviations of its CONNECTED and IDLE sojourns.  Unclustered fits
    put every UE in cluster 0.

    The codes are held on the trace (:meth:`~repro.trace.trace.Trace.memo`)
    under everything they depend on besides its rows, so fits that
    cluster the same hour alike (``v2`` and ``ours``, or a sweep
    refitting one training trace) compute them once; the array is
    read-only.
    """
    if not clustered:
        return np.zeros(len(dev.ues), dtype=np.int64)
    key = (
        "compiled_fit.cluster_codes",
        dev.device_type,
        dev.total_slots,
        tuple(int(slot) for slot in hour_slots),
        table.machine_name,
        float(theta_f),
        int(theta_n),
    )

    def cluster() -> np.ndarray:
        num_ues = len(dev.ues)
        srv = np.bincount(
            ue_code[events == int(EventType.SRV_REQ)], minlength=num_ues
        )
        rel = np.bincount(
            ue_code[events == int(EventType.S1_CONN_REL)], minlength=num_ues
        )
        slots = np.maximum(np.bincount(ue_code[first_raw], minlength=num_ues), 1)

        open_b, close_b = _interval_bounds(table, src, tgt, f_seg)
        durations = f_t[close_b] - f_t[open_b]
        interval_state = table.parent_code[tgt[open_b]]
        interval_ue = f_ue[open_b]
        conn = interval_state == table.connected_code
        idle = interval_state == table.idle_code
        std_conn = _group_std(interval_ue[conn], durations[conn], num_ues)
        std_idle = _group_std(interval_ue[idle], durations[idle], num_ues)

        features = np.column_stack([srv / slots, rel / slots, std_conn, std_idle])
        codes = adaptive_cluster(features, theta_f=theta_f, theta_n=theta_n)
        codes.flags.writeable = False
        return codes

    return dev.trace.memo(key, cluster)


def _group_values(
    keys: np.ndarray, values: np.ndarray, wanted: np.ndarray, by_value: bool
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group ``values`` by ``keys``; ``(grouped, starts, lengths)`` with
    ``grouped[starts[i]:starts[i] + lengths[i]]`` the values of key
    ``wanted[i]`` (length 0 if it has none).

    ``by_value`` sorts each group's values ascending (for CDF knots);
    otherwise they keep their order (for means, which are
    order-dependent in floating point).
    """
    if by_value:
        order = np.argsort(values)
        order = order[stable_order(keys[order])]
    else:
        order = stable_order(keys)
    sorted_keys = keys[order]
    first = group_starts(sorted_keys)
    group_keys = sorted_keys[first]
    sizes = np.diff(np.append(first, sorted_keys.size))
    starts = np.zeros(wanted.size, dtype=np.int64)
    lengths = np.zeros(wanted.size, dtype=np.int64)
    if group_keys.size:
        pos = np.minimum(np.searchsorted(group_keys, wanted), group_keys.size - 1)
        hit = group_keys[pos] == wanted
        starts[hit] = first[pos[hit]]
        lengths[hit] = sizes[pos[hit]]
    return values[order], starts, lengths


def _overlay_rates(
    event: int,
    cl_of_ue: np.ndarray,
    ue_code: np.ndarray,
    events: np.ndarray,
    t_rel: np.ndarray,
    seg_key: np.ndarray,
    num_segments: np.ndarray,
) -> np.ndarray:
    """Every cluster's Poisson rate of one overlay event.

    The rate is ``1 / mean`` of the cluster's within-segment
    interarrivals, else the event count over the cluster's segment
    time, else 0.  A segment's rows are contiguous and belong to one UE,
    so a cluster's consecutive same-segment pairs are exactly the
    consecutive same-segment pairs of all the event's rows.
    """
    rows = np.flatnonzero(events == event)
    cluster = cl_of_ue[ue_code[rows]]
    count = np.bincount(cluster, minlength=num_segments.size)
    same = seg_key[rows[1:]] == seg_key[rows[:-1]]
    gaps = (t_rel[rows[1:]] - t_rel[rows[:-1]])[same]
    mean = group_means(
        *_group_values(cluster[1:][same], gaps, np.arange(count.size), False)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        by_count = count / (num_segments * SECONDS_PER_HOUR)
        return np.where(
            ~np.isnan(mean),
            1.0 / np.maximum(mean, 1e-3),
            np.where((count > 0) & (num_segments > 0), by_count, 0.0),
        )


# ---------------------------------------------------------------------------
# The fit job
# ---------------------------------------------------------------------------

def fit_job(ctx: dict, device_code: int, slots: Tuple[int, ...]) -> HourModel:
    """Fit one (device, hour) job for :func:`repro.jobs.run_jobs`.

    ``ctx`` carries the training ``trace``, its ``total_slots`` and the
    :func:`fit_device_hour` keywords under ``fit``.  Jobs arrive
    device-major, so the device's arrays are memoized in ``ctx`` until
    the next device comes up; the machine's table is memoized there for
    all jobs.
    """
    fit = ctx["fit"]
    # The job's spans run back to back, so its own bookkeeping (and the
    # teardown of the fit's arrays) is counted in them.
    with get_telemetry().phases() as phase:
        phase("fit-arrays")
        memo = ctx.get("device_arrays")
        if memo is None or memo[0] != device_code:
            arrays = device_arrays(
                ctx["trace"], DeviceType(device_code), ctx["total_slots"]
            )
            if "table" not in ctx:
                ctx["table"] = table_for(build_machine(fit["machine_kind"]))
            memo = ctx["device_arrays"] = (device_code, arrays)
        return fit_device_hour(memo[1], slots, phase, table=ctx["table"], **fit)
