"""The fitting engine: array-at-a-time replay and model fitting.

Walking every (UE, hour-slot) segment event by event, building one
Python record per transition, would dominate the paper's whole loop at
"millions of UEs" scale.  This module replays a whole hour of day —
every device type at once — as flat arrays through the state machine's
integer lookup tables
(:func:`repro.statemachines.compiled_replay.table_for`):

* the trace's rows are taken once per fit in ``(ue, time)`` order from
  its one per-UE index (:func:`fit_arrays`), with global UE codes, and
  bucketed into hour slots with one ``searchsorted``; an hour's rows
  are picked by a lookup table over slots;
* state reconstruction seeds the state after every barrier row
  (segment firsts, source-independent events) and walks the short
  runs between barriers forward
  (:func:`~repro.statemachines.compiled_replay._replay_codes`);
* the §5.3 clustering features are one ``(U, 4)`` matrix over the
  hour's UEs of every device, and
  :func:`~repro.clustering.adaptive_cluster` runs on each device's
  rows of it, returning one cluster code per UE of the device; the
  codes are held on the trace, so a second fit that clusters the same
  hour alike reuses them;
* each device's cluster codes are offset device-major into global
  cluster IDs, so ``p_xy`` counts come from one ``bincount`` over
  ``(cluster, source, event)`` keys, sojourn samples from grouped
  diffs, and the first-event / overlay models from boundary masks, for
  every device at once;
* every cluster's results go straight into the hour's generator tables
  (:class:`~repro.model.model_set.HourModel`), one per device, each
  built from its device's slice of the columns: sojourn CDF knots from
  one group-by sort and one grouped linear quantile
  (:mod:`repro.model.grouped`), with no per-cluster or per-edge loop.

The fitter is **exactly** equivalent to the per-(device, hour)
reference pipeline kept as a test oracle (``tests/oracle/fit.py``) —
same transition probabilities, same CDF knots, same cluster assignment
— because every reduction preserves the reference's sample *order*
(``np.mean``/``np.std`` are order-dependent in floating point) and
divides integer counts, which rounds exactly like the reference's
Python ``int / int``.  A group (a UE, a cluster, an edge) never spans
two devices, and a device's rows keep their relative order among all
the hour's rows, so pooling the devices changes no group's samples.

Each hour of day is one :func:`fit_job` of :func:`repro.jobs.run_jobs`,
which runs the jobs inline or fans them across worker processes;
forked workers read the caller's arrays, training trace and the
cluster codes it already holds.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..clustering.quadtree import adaptive_cluster
from ..statemachines.compiled_replay import (
    MachineTable,
    _interval_bounds,
    _replay_codes,
)
from ..telemetry import get_telemetry
from ..trace.events import SECONDS_PER_HOUR, DeviceType, EventType
from ..trace.trace import Trace
from .grouped import group_means, group_starts, grouped_knots, stable_order
from .model_set import HourModel

#: Fallback sojourn when a transition was observed but never with a
#: known entry time (e.g. always the first event of a segment).
_FALLBACK_MEAN_SOJOURN = 60.0

_NUM_EVENTS = int(max(EventType)) + 1

#: ``True`` at the Category-1 event codes, the EMM-ECM machine's stream.
_CATEGORY1 = np.isin(
    np.arange(_NUM_EVENTS),
    [EventType.ATCH, EventType.DTCH, EventType.SRV_REQ, EventType.S1_CONN_REL],
)
_OVERLAY_EVENTS = (EventType.HO, EventType.TAU)


# ---------------------------------------------------------------------------
# The trace as flat arrays
# ---------------------------------------------------------------------------

class HourRows(NamedTuple):
    """One hour's rows in ``(ue, slot, time)`` order."""

    ue_code: np.ndarray  #: per-row index into ``FitArrays.ues``
    events: np.ndarray   #: per-row event codes (int64)
    t_rel: np.ndarray    #: per-row slot-relative time, in [0, 3600)
    seg_key: np.ndarray  #: per-row (UE, slot) segment key
    first: np.ndarray    #: ``True`` at every segment's first row

    def where(self, mask: np.ndarray) -> "HourRows":
        """The rows at ``mask``, with their segment firsts recomputed."""
        seg_key = self.seg_key[mask]
        return HourRows(
            self.ue_code[mask],
            self.events[mask],
            self.t_rel[mask],
            seg_key,
            _segment_firsts(seg_key),
        )


@dataclasses.dataclass
class FitArrays:
    """A trace's events, sorted by ``(ue, time)`` and slot-bucketed."""

    trace: Trace          #: the trace the rows come from
    devices: Tuple[DeviceType, ...]  #: the device types present, by code
    device_ues: Tuple[np.ndarray, ...]  #: each device's UE codes, ascending
    ues: np.ndarray       #: sorted distinct UE ids of the trace
    ue_code: np.ndarray   #: per-row index into ``ues``
    events: np.ndarray    #: per-row event codes (int64)
    slots: np.ndarray     #: per-row hour-slot index
    t_rel: np.ndarray     #: per-row slot-relative time, in [0, 3600)
    total_slots: int

    def hour_rows(self, hour_slots: Sequence[int]) -> HourRows:
        """The rows of one hour of day, in ``(ue, slot, time)`` order."""
        in_hour = np.zeros(self.total_slots, dtype=bool)
        in_hour[np.asarray(hour_slots, dtype=np.int64)] = True
        mask = in_hour[self.slots]
        ue_code = self.ue_code[mask]
        seg_key = ue_code * self.total_slots + self.slots[mask]
        return HourRows(
            ue_code,
            self.events[mask],
            self.t_rel[mask],
            seg_key,
            _segment_firsts(seg_key),
        )


def fit_arrays(
    trace: Trace, total_slots: int, device_type: Optional[DeviceType] = None
) -> FitArrays:
    """The trace's rows as flat arrays: all of them, or one device's.

    UE codes index the whole trace's sorted UE ids either way, so a
    device's UEs keep their codes, and their order, among all UEs.
    """
    index = trace.ue_index()
    ue_device = trace.device_types[index.order[index.bounds[:-1]]]
    rows, codes = index.order, index.codes()
    if device_type is not None:
        # A stable pick of the device's rows keeps their whole-trace order.
        keep = ue_device[codes] == int(device_type)
        rows, codes = rows[keep], codes[keep]
    wanted = DeviceType if device_type is None else (device_type,)
    devices = tuple(dt for dt in wanted if (ue_device == int(dt)).any())
    t = trace.times[rows]
    # Slot membership matches the reference's half-open searchsorted
    # windows exactly (an event at exactly k*3600.0 belongs to slot k);
    # floor division would be a float-rounding hazard here.
    boundaries = np.arange(1, total_slots) * SECONDS_PER_HOUR
    slots = np.searchsorted(boundaries, t, side="right")
    return FitArrays(
        trace=trace,
        devices=devices,
        device_ues=tuple(np.flatnonzero(ue_device == int(dt)) for dt in devices),
        ues=index.ues,
        ue_code=codes,
        events=trace.event_types[rows].astype(np.int64),
        slots=slots,
        t_rel=t - slots * SECONDS_PER_HOUR,
        total_slots=total_slots,
    )


# ---------------------------------------------------------------------------
# Per-hour fitting
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


def fit_hour(
    arrays: FitArrays,
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
) -> List[HourModel]:
    """Fit one hour of day: an :class:`HourModel` per ``arrays.devices``.

    Each model is exactly the per-(device, hour) oracle fit
    (``tests/oracle/fit.py``) of the same ``hour_slots``.  ``phase`` is
    the job's :meth:`~repro.telemetry.RunTelemetry.phases` recorder, in
    its ``fit-arrays`` phase; the fit moves it through ``fit-replay``,
    ``fit-cluster`` and ``fit-models``.
    """
    tele = get_telemetry()
    num_slots = len(hour_slots)
    rows = arrays.hour_rows(hour_slots)
    # Filtered stream: the EMM-ECM machine only replays Category-1.
    f = rows.where(_CATEGORY1[rows.events]) if machine_kind == "emm_ecm" else rows
    tele.count("segments_replayed", int(np.count_nonzero(rows.first)))
    tele.count("transitions_counted", len(f.events))

    phase("fit-replay")
    src, tgt, forced = _replay_codes(f.events, f.first, table)

    phase("fit-cluster")
    codes = _cluster_codes(
        arrays,
        table,
        hour_slots,
        rows,
        f,
        src,
        tgt,
        clustered=clustered,
        theta_f=theta_f,
        theta_n=theta_n,
    )

    phase("fit-models")
    # Global cluster IDs: each device's codes, offset device-major.
    first_cluster = np.zeros(len(codes) + 1, dtype=np.int64)
    np.cumsum([int(c.max()) + 1 for c in codes], out=first_cluster[1:])
    cl_of_ue = np.empty(len(arrays.ues), dtype=np.int64)
    for ues, c, offset in zip(arrays.device_ues, codes, first_cluster.tolist()):
        cl_of_ue[ues] = c + offset
    C = int(first_cluster[-1])
    sizes = np.bincount(cl_of_ue, minlength=C)
    S = table.num_states
    E = table.num_events
    f_ev, f_t = f.events, f.t_rel
    cid_f = cl_of_ue[f.ue_code]
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
    first_pos = np.flatnonzero(f.first)
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
        overlay_rates[:, k] = _overlay_rates(event, cl_of_ue, rows, num_segments)

    # -- one HourModel per device, from its slice of the columns ----
    # Edges and first events are sorted by global cluster, so each
    # device's are one contiguous run.
    edge_bounds = np.searchsorted(edge_cluster, first_cluster).tolist()
    fe_bounds = np.searchsorted(fe_cluster, first_cluster).tolist()
    bounds = first_cluster.tolist()
    edge_target = table.next_state[edge_state, edge_event]
    p_active = num_first / np.maximum(num_segments, num_first)
    fe_prob = fe_counts[fe_key] / num_first[fe_cluster]
    models = []
    for d, (ues, c) in enumerate(zip(arrays.device_ues, codes)):
        c0, c1 = bounds[d], bounds[d + 1]
        e0, e1 = edge_bounds[d], edge_bounds[d + 1]
        q0, q1 = fe_bounds[d], fe_bounds[d + 1]
        soj_ptr, soj_values = _csr_slice(sojourn_ptr, sojourn_values, e0, e1)
        off_ptr, off_values = _csr_slice(offset_ptr, offset_values, c0, c1)
        models.append(
            HourModel.from_columns(
                machine_kind,
                num_ues=sizes[c0:c1],
                num_segments=num_segments[c0:c1],
                assign_keys=arrays.ues[ues],
                assign_vals=c,
                edge_cluster=edge_cluster[e0:e1] - c0,
                edge_state=edge_state[e0:e1],
                edge_event=edge_event[e0:e1],
                edge_target=edge_target[e0:e1],
                edge_prob=edge_prob[e0:e1],
                edge_rate=edge_rate[e0:e1],
                sojourn_ptr=soj_ptr,
                sojourn_values=soj_values,
                p_active=p_active[c0:c1],
                fe_cluster=fe_cluster[q0:q1] - c0,
                fe_event=fe_key[q0:q1] % E,
                fe_prob=fe_prob[q0:q1],
                offset_ptr=off_ptr,
                offset_values=off_values,
                overlay_events=overlay_events,
                overlay_rates=overlay_rates[c0:c1],
            )
        )
    return models


def _csr_slice(
    ptr: np.ndarray, values: np.ndarray, lo: int, hi: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Groups ``lo..hi-1`` of a ``(ptr, values)`` pair, re-based to 0."""
    return ptr[lo: hi + 1] - ptr[lo], values[ptr[lo]: ptr[hi]]


def _cluster_codes(
    arrays: FitArrays,
    table: MachineTable,
    hour_slots: Sequence[int],
    rows: HourRows,
    f: HourRows,
    src: np.ndarray,
    tgt: np.ndarray,
    *,
    clustered: bool,
    theta_f: float,
    theta_n: int,
) -> List[np.ndarray]:
    """Each device's cluster codes for one hour, in its UEs' order.

    ``rows`` are the hour's rows and ``f`` the replayed ones (the same
    rows, or their Category-1 subset), with the replay's ``src`` and
    ``tgt`` states.  The §5.3 features are pooled over the hour's
    slots: SRV_REQ and S1_CONN_REL counts per slot the UE was seen in,
    and the standard deviations of its CONNECTED and IDLE sojourns.
    They are computed once for every UE, and each device clusters its
    own UEs' rows.  Unclustered fits put every UE in cluster 0.

    Each device's codes are held on the trace
    (:meth:`~repro.trace.trace.Trace.memo`) under everything they
    depend on besides its rows, so fits that cluster the same hour
    alike (``v2`` and ``ours``, a sweep refitting one training trace,
    or the §4 study) compute them once; the arrays are read-only.
    """
    if not clustered:
        return [np.zeros(ues.size, dtype=np.int64) for ues in arrays.device_ues]
    features: List[np.ndarray] = []

    def cluster(ues: np.ndarray) -> np.ndarray:
        if not features:
            features.append(_hour_features(len(arrays.ues), table, rows, f, src, tgt))
        codes = adaptive_cluster(features[0][ues], theta_f=theta_f, theta_n=theta_n)
        codes.flags.writeable = False
        return codes

    slots = tuple(int(slot) for slot in hour_slots)
    return [
        arrays.trace.memo(
            (
                "compiled_fit.cluster_codes",
                dt,
                arrays.total_slots,
                slots,
                table.machine_name,
                float(theta_f),
                int(theta_n),
            ),
            lambda ues=ues: cluster(ues),
        )
        for dt, ues in zip(arrays.devices, arrays.device_ues)
    ]


def _hour_features(
    num_ues: int,
    table: MachineTable,
    rows: HourRows,
    f: HourRows,
    src: np.ndarray,
    tgt: np.ndarray,
) -> np.ndarray:
    """The ``(num_ues, 4)`` §5.3 feature matrix of one hour's rows."""
    ue_code, events = rows.ue_code, rows.events
    srv = np.bincount(ue_code[events == int(EventType.SRV_REQ)], minlength=num_ues)
    rel = np.bincount(ue_code[events == int(EventType.S1_CONN_REL)], minlength=num_ues)
    slots = np.maximum(np.bincount(ue_code[rows.first], minlength=num_ues), 1)

    open_b, close_b = _interval_bounds(table, src, tgt, f.seg_key)
    durations = f.t_rel[close_b] - f.t_rel[open_b]
    interval_state = table.parent_code[tgt[open_b]]
    interval_ue = f.ue_code[open_b]
    conn = interval_state == table.connected_code
    idle = interval_state == table.idle_code
    std_conn = _group_std(interval_ue[conn], durations[conn], num_ues)
    std_idle = _group_std(interval_ue[idle], durations[idle], num_ues)
    return np.column_stack([srv / slots, rel / slots, std_conn, std_idle])


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
    rows: HourRows,
    num_segments: np.ndarray,
) -> np.ndarray:
    """Every cluster's Poisson rate of one overlay event.

    The rate is ``1 / mean`` of the cluster's within-segment
    interarrivals, else the event count over the cluster's segment
    time, else 0.  A segment's rows are contiguous and belong to one UE,
    so a cluster's consecutive same-segment pairs are exactly the
    consecutive same-segment pairs of all the event's rows.
    """
    at = np.flatnonzero(rows.events == event)
    cluster = cl_of_ue[rows.ue_code[at]]
    count = np.bincount(cluster, minlength=num_segments.size)
    same = rows.seg_key[at[1:]] == rows.seg_key[at[:-1]]
    gaps = (rows.t_rel[at[1:]] - rows.t_rel[at[:-1]])[same]
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

def fit_job(ctx: dict, slots: Tuple[int, ...]) -> List[HourModel]:
    """Fit one hour of day for :func:`repro.jobs.run_jobs`.

    ``ctx`` carries the fit's :class:`FitArrays` under ``arrays``, the
    machine's ``table`` and the :func:`fit_hour` keywords under
    ``fit``.  Returns the hour's models in ``arrays.devices`` order.
    """
    # The job's spans run back to back, so its own bookkeeping (and the
    # teardown of the fit's arrays) is counted in them.
    with get_telemetry().phases() as phase:
        phase("fit-arrays")
        return fit_hour(ctx["arrays"], slots, phase, table=ctx["table"], **ctx["fit"])
