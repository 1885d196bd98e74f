"""The generation engine: whole cohorts stepped through flat array tables.

A per-UE generator would walk one Python-level chain step per event:
re-read the edge list, draw the edge with ``rng`` calls and the dwell
with a scalar ``np.interp`` — tens of microseconds of interpreter work
per event.  This module steps the flat tables every (device, hour)
:class:`~repro.model.model_set.HourModel` already is — the fitter writes
them, there is no lowering step — and advances *all active UEs of a
device-hour together*, so the per-event cost is a few vectorized array
operations shared by the whole cohort:

- **Merged edge table (CSR)** — all clusters of an hour model share one
  flat table: cluster ``c``'s state ``s`` has merged code ``c * S + s``
  (``S`` = number of machine states), so UEs in *different
  clusters and different states* advance in a single batch.  Edge choice
  is one ``searchsorted`` over the composite keys ``merged_code +
  cum_prob`` queried at ``merged_code + u``.
- **Quantile knots by arithmetic** — every empirical edge's sojourn CDF
  is a run of ``m`` inverse-CDF knots at ``(j + 0.5) / m`` in one flat
  array, so the interval that holds ``u`` is computed, not searched:
  its upper knot is ``ceil(u·m − 0.5)`` clipped to ``[1, m − 1]``.
  Linear interpolation between the two knots reproduces
  ``EmpiricalCDF.ppf``, and exponential edges use the closed-form
  inverse transform.  First-event offsets use the same knots per
  cluster; first-event types use the composite ``searchsorted`` keyed
  by cluster index.
- **Counter-based randomness** — every uniform is a pure function of
  ``(seed, ue_index, hour, purpose, step)``: the slot ``(UE key, hour,
  purpose)`` picks the start of a SplitMix64 stream and the step counter
  indexes into it (:func:`~repro.stats.counter_rng.splitmix64_counter`,
  a few wrapping ``uint64`` multiplies per word; the ground-truth
  simulator draws from the same module).  Step uniforms are drawn in blocks of
  ``_STEP_BLOCK`` rounds — one counter yields four words, i.e. two
  (edge, dwell) rounds — so the fixed cost of a call is amortized over
  the whole block.  Because no draw depends on cohort
  composition, serial, process-parallel and streaming production are
  bit-identical by construction, and per-worker setup is O(chunk), not
  O(population).

Each UE follows the paper's per-UE generator (§7): the first hour's
event comes from the first-event model, then the cluster's semi-Markov
chain runs hour after hour.  At every hour boundary the pending event is
dropped and the dwell re-sampled from the new hour's model; a UE whose
chain parks in a state with no fitted transitions stays silent until a
later hour's model moves it again.  EMM–ECM baselines additionally
overlay state-oblivious Poisson ``HO``/``TAU`` events, one pass per
event type over every UE whose cluster overlays it.
"""

from __future__ import annotations

import math
import weakref
from bisect import bisect_right
from typing import Dict, List, Tuple

import numpy as np

from ..model.model_set import HourModel, ModelSet, state_space
from ..stats.counter_rng import (
    P_CLUSTER as _P_CLUSTER,
    P_FIRST as _P_FIRST,
    P_KEY as _P_KEY,
    P_OVERLAY_N as _P_OVERLAY_N,
    P_OVERLAY_T as _P_OVERLAY_T,
    P_PERSONA as _P_PERSONA,
    P_STEP as _P_STEP,
    norm_ppf,
    root_key,
    splitmix64_counter,
    to_unit,
)
from ..trace.events import (
    SECONDS_PER_HOUR,
    TIMESTAMP_GRANULARITY,
    DeviceType,
    EventType,
)

__all__ = [
    "CompiledPopulation",
    "check_model_set",
    "splitmix64_counter",
]

#: Durations are clamped below by the trace granularity so that a chain
#: with self-loops can never make zero time progress.
MIN_SOJOURN = 1e-3

#: Hard per-UE-per-hour event cap; a guard against degenerate fitted
#: chains (e.g. a self-loop with near-zero sojourn) and overlay rates
#: (two same-millisecond events fit a rate of 1000/s), far above any
#: realistic per-UE volume.  Read at every step and overlay draw, so
#: tests may lower it.
MAX_EVENTS_PER_HOUR = 100_000

#: Rounds of step uniforms drawn per block.  Each counter yields four
#: words = two (edge, dwell) rounds, so a block is one
#: :func:`splitmix64_counter` call over ``_STEP_BLOCK / 2`` counters per
#: UE.  The (UE, round) → uniform mapping is fixed (counter
#: ``round >> 1``, word pair by round parity), so outputs do not depend
#: on how the population is partitioned.
_STEP_BLOCK = 32

#: When a cohort shrinks to this many UEs at a block boundary, the
#: survivors are finished one at a time in a scalar loop (see
#: :meth:`CompiledPopulation._drain_ue`): a handful of long-running UEs
#: would otherwise keep paying whole-cohort vector overhead per round.
#: The scalar path evaluates the same IEEE-754 expressions on the same
#: uniforms, so its events are bit-identical to the vector path's — the
#: threshold affects speed only, never output.
_DRAIN_THRESHOLD = 16

#: Rounds of step uniforms drawn per call while draining one UE.
_DRAIN_BLOCK = 256


def _uniforms(
    k0: np.ndarray,
    k1: np.ndarray,
    c0,
    c1,
    purpose: np.uint64,
    c3=np.uint64(0),
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Four independent uniforms per lane for one (purpose, step) slot."""
    x0, x1, x2, x3 = splitmix64_counter(c0, c1, purpose, c3, k0, k1)
    return to_unit(x0), to_unit(x1), to_unit(x2), to_unit(x3)


#: Past this rate the leading CDF term ``exp(-lam)`` underflows float64
#: (at lam ~ 745) and term-by-term inversion is both impossible and
#: pointlessly slow; counts switch to the normal approximation.
_POISSON_INVERT_MAX = 700.0


def _poisson_from_uniform(u: np.ndarray, lam: float) -> np.ndarray:
    """Poisson counts by CDF inversion of pre-drawn uniforms.

    The count is how many of the CDF values ``P(N <= k)``, ``k < cap``,
    lie at or below ``u``: one ``searchsorted`` in the table
    ``cumsum(cumprod([e^-lam, lam/1, ..., lam/(cap-1)]))``.  Both
    accumulations run left to right in float64, so every entry is the
    double that adding the terms one at a time reaches.  Above
    :data:`_POISSON_INVERT_MAX` the count comes from the normal
    approximation ``N(lam, lam)`` (continuity-corrected) of the same
    uniform — at such rates the two are statistically indistinguishable,
    and exact inversion is numerically impossible.
    """
    if lam > _POISSON_INVERT_MAX:
        counts = np.rint(lam + math.sqrt(lam) * norm_ppf(u) - 0.5)
        return np.maximum(counts, 0.0).astype(np.int64)
    cap = int(lam + 12.0 * math.sqrt(lam + 1.0) + 64)
    terms = np.empty(cap)
    terms[0] = math.exp(-lam)
    terms[1:] = lam / np.arange(1, cap)
    cdf = np.cumsum(np.cumprod(terms))
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def _interp_knots(
    kb: np.ndarray,
    u: np.ndarray,
    ptr: np.ndarray,
    kp: np.ndarray,
    kv: np.ndarray,
) -> np.ndarray:
    """Batched ``np.interp(u, probs, values)`` over heterogeneous segments.

    ``kb`` selects each element's knot segment (``ptr[kb]:ptr[kb+1]`` in
    the flat ``kp``/``kv`` arrays).  A segment's ``m`` knots sit at
    ``(j + 0.5) / m``, so the first knot at or above ``u`` is
    ``ceil(u·m − 0.5)``; clipped to ``[1, m − 1]`` it is the upper end of
    the interval to interpolate in.  Clamps at segment ends reproduce
    ``np.interp``'s behaviour outside the knot range.  Every segment must
    have at least two knots (see :class:`~repro.model.model_set.HourModel`).
    """
    lo = ptr[kb]
    m = ptr[kb + 1] - lo
    j = np.ceil(u * m - 0.5).astype(np.int64)
    pc = lo + np.minimum(np.maximum(j, 1), m - 1)
    p0 = kp[pc - 1]
    p1 = kp[pc]
    v0 = kv[pc - 1]
    v1 = kv[pc]
    uu = np.minimum(np.maximum(u, p0), p1)
    return v0 + (uu - p0) * (v1 - v0) / (p1 - p0)


def _sort_hour(
    out_rows: List[np.ndarray],
    out_times: List[np.ndarray],
    out_events: List[np.ndarray],
    n: int,
    hour_start: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One hour's events, quantized and sorted by ``(time, row, event)``.

    One ``np.sort`` of the int64 key ``(ms · n + row) · 16 + event``
    gives the order of a three-key ``lexsort`` of the quantized columns
    (equal keys are equal rows).  ``ms`` is quantize_times' integer
    ``np.round(t / 1e-3)`` less the hour's own, so ``(base + ms) · 1e-3``
    decodes the same double.
    """
    # Bound: times lie in [hour_start, hour_start + 3600) and rounding
    # is monotone, so 0 <= ms <= 3_600_000 < 2^22.  Rows are below
    # n < 2^37 (2^37 UEs would need 128 GiB of device codes alone) and
    # event codes below 16, so every key is below 2^22·2^37·2^4 = 2^63.
    base = np.round(hour_start / TIMESTAMP_GRANULARITY)
    ms = np.round(np.concatenate(out_times) / TIMESTAMP_GRANULARITY)
    key = (ms - base).astype(np.int64) * n
    key += np.concatenate(out_rows)
    key <<= 4
    key += np.concatenate(out_events)
    key.sort()
    ms_sorted, rows = np.divmod(key >> 4, n)
    times = (ms_sorted + base) * TIMESTAMP_GRANULARITY
    return rows, times, (key & 15).astype(np.int16)


# ---------------------------------------------------------------------------
# Model tables
# ---------------------------------------------------------------------------


def check_model_set(model_set: ModelSet) -> None:
    """Raise :class:`ValueError` if the model set's first-event types
    cannot start in its machine (say, a two-level fit relabelled as 5G
    SA): the generator could not place those UEs in a state."""
    canonical = state_space(model_set.machine_kind).canonical_next
    for hours in model_set.models.values():
        for hm in hours.values():
            bad = hm.fe_event[canonical[hm.fe_event] < 0]
            if bad.size:
                names = sorted({EventType(int(e)).name for e in bad})
                raise ValueError(
                    f"first-event types {names} have no canonical source state"
                )


#: The scalar drain's lists, per hour model (see :func:`_drain_lists`).
_DRAIN_LISTS: "weakref.WeakKeyDictionary[HourModel, tuple]" = (
    weakref.WeakKeyDictionary()
)


def _drain_lists(hm: HourModel) -> tuple:
    """The edge and knot columns of ``hm`` as Python lists, for scalar
    stepping; built once per hour model and process.

    ``bisect`` on a list plus plain float arithmetic is several times
    faster per element than NumPy calls on singleton arrays.
    """
    if hm not in _DRAIN_LISTS:
        _DRAIN_LISTS[hm] = (
            hm.sel_key.tolist(),
            hm.state_deg.tolist(),
            hm.edge_event.tolist(),
            hm.edge_target.tolist(),
            hm.edge_kind.tolist(),
            hm.edge_rate.tolist(),
            hm.edge_knot_ptr.tolist(),
            hm.knot_p.tolist(),
            hm.knot_v.tolist(),
            hm.has_exp,
        )
    return _DRAIN_LISTS[hm]


def _clusters_for(
    hm: HourModel,
    personas: np.ndarray,
    k0: np.ndarray,
    k1: np.ndarray,
    hour_idx: int,
    population: "CompiledPopulation",
) -> np.ndarray:
    """Cluster code per UE: assignment lookup, weighted draw if unknown."""
    if hm.assign_keys.size:
        pos = np.searchsorted(hm.assign_keys, personas)
        pos_c = np.minimum(pos, hm.assign_keys.size - 1)
        known = hm.assign_keys[pos_c] == personas
        cl = np.where(known, hm.assign_vals[pos_c], -1).astype(np.int64)
    else:
        cl = np.full(personas.shape, -1, dtype=np.int64)
    unknown = cl < 0
    if unknown.any():
        population.rng_draws += int(np.count_nonzero(unknown))
        u = _uniforms(
            k0[unknown], k1[unknown], 0, hour_idx, _P_CLUSTER
        )[0]
        draw = np.searchsorted(hm.weights_cum, u, side="right")
        cl[unknown] = np.minimum(draw, hm.num_clusters - 1)
    return cl


# ---------------------------------------------------------------------------
# Batched population stepping
# ---------------------------------------------------------------------------


class CompiledPopulation:
    """A batch of UEs advanced one hour at a time, whole cohorts at once.

    ``ue_indices`` are the UEs' positions in the whole generation order —
    they parameterize each UE's random substream, so any partition of the
    population (serial, per-chunk parallel, streaming) produces exactly
    the same events for a given UE.
    """

    def __init__(
        self,
        model_set: ModelSet,
        device_codes: np.ndarray,
        ue_indices: np.ndarray,
        *,
        seed: int,
        start_hour: int,
    ) -> None:
        check_model_set(model_set)
        self.model_set = model_set
        self.device_codes = np.asarray(device_codes, dtype=np.int8)
        self.start_hour = int(start_hour)
        n = len(self.device_codes)

        k0, k1 = root_key(seed)
        idx = np.asarray(ue_indices, dtype=np.uint64)
        k = splitmix64_counter(idx, 0, _P_KEY, 0, k0, k1)
        self.k0, self.k1 = k[0], k[1]

        self.persona = np.zeros(n, dtype=np.int64)
        self._device_rows: Dict[int, np.ndarray] = {}
        u_persona = _uniforms(self.k0, self.k1, 0, 0, _P_PERSONA)[0]
        for code in np.unique(self.device_codes):
            rows = np.flatnonzero(self.device_codes == code)
            self._device_rows[int(code)] = rows
            personas = np.asarray(
                model_set.device_ues.get(DeviceType(int(code)), ()),
                dtype=np.int64,
            )
            if personas.size == 0:
                raise ValueError(
                    f"no fitted model for device type {DeviceType(int(code)).name}"
                )
            pick = np.minimum(
                (u_persona[rows] * personas.size).astype(np.int64),
                personas.size - 1,
            )
            self.persona[rows] = personas[pick]

        #: Chain state code per UE; -1 = no state yet (first-event model).
        self.state = np.full(n, -1, dtype=np.int32)
        self._next_hour_idx = 0
        #: Uniform variates consumed so far (persona, first-event,
        #: chain-step, and overlay draws) — exact for this engine, read
        #: by the telemetry layer as the ``rng_draws`` counter.
        self.rng_draws = n

    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[np.ndarray, int]:
        """Carryover state for checkpoint/resume: (chain codes, next hour).

        Personas and per-UE keys are pure functions of the seed
        and are replayed by ``__init__``; the chain-state array plus the
        hour counter are the only mutable state, so restoring them via
        :meth:`restore` makes the continuation bit-identical.
        """
        return self.state.copy(), int(self._next_hour_idx)

    def restore(self, state: np.ndarray, next_hour_idx: int) -> None:
        """Install carryover state captured by :meth:`snapshot`."""
        state = np.asarray(state, dtype=np.int32)
        if state.shape != self.state.shape:
            raise ValueError(
                f"carryover state has {state.shape[0] if state.ndim else 0} "
                f"entries, population has {self.state.shape[0]}"
            )
        self.state = state.copy()
        self._next_hour_idx = int(next_hour_idx)

    # ------------------------------------------------------------------
    def advance_hour(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Generate the next hour for all UEs.

        Returns ``(rows, times, events)`` sorted by ``(time, row,
        event)``, where ``rows`` index into this population.
        """
        hour_idx = self._next_hour_idx
        self._next_hour_idx += 1
        hour = (self.start_hour + hour_idx) % 24
        hour_start = hour_idx * SECONDS_PER_HOUR

        out_rows: List[np.ndarray] = []
        out_times: List[np.ndarray] = []
        out_events: List[np.ndarray] = []
        for code, rows in self._device_rows.items():
            hm = self.model_set.models.get(DeviceType(code), {}).get(hour)
            if hm is None:
                continue  # unfitted hour-of-day: silent, state kept
            self._advance_device(
                hm, rows, hour_idx, hour_start, out_rows, out_times, out_events
            )

        if not out_rows:
            empty = np.empty(0)
            return empty.astype(np.int64), empty, empty.astype(np.int16)
        return _sort_hour(
            out_rows, out_times, out_events, len(self.device_codes), hour_start
        )

    # ------------------------------------------------------------------
    def _advance_device(
        self,
        hm: HourModel,
        rows: np.ndarray,
        hour_idx: int,
        hour_start: float,
        out_rows: List[np.ndarray],
        out_times: List[np.ndarray],
        out_events: List[np.ndarray],
    ) -> None:
        """Advance every UE of one device-hour together (all clusters)."""
        S = hm.S
        n = rows.size
        k0 = self.k0[rows]
        k1 = self.k1[rows]
        cl = _clusters_for(hm, self.persona[rows], k0, k1, hour_idx, self)
        stl = self.state[rows].astype(np.int64)
        t = np.full(n, float(hour_start))
        live = stl >= 0

        # -- first event (UEs with no chain state yet) ------------------
        fresh = np.flatnonzero(~live)
        if fresh.size:
            self.rng_draws += 3 * int(fresh.size)
            u0, u1, u2, _ = _uniforms(
                k0[fresh], k1[fresh], 0, hour_idx, _P_FIRST
            )
            awake_m = u0 < hm.p_active[cl[fresh]]
            aw = fresh[awake_m]
            if aw.size:
                claw = cl[aw]
                fi = np.searchsorted(
                    hm.fe_key, claw + u1[awake_m], side="right"
                )
                offset = _interp_knots(
                    claw, u2[awake_m], hm.foff_ptr, hm.foff_p, hm.foff_v
                )
                offset = np.clip(offset, 0.0, SECONDS_PER_HOUR - 1e-3)
                t0 = hour_start + offset
                out_rows.append(rows[aw])
                out_times.append(t0)
                out_events.append(hm.fe_event[fi])
                stl[aw] = hm.fe_state[fi]
                t[aw] = t0
                live[aw] = True

        # -- batched chain stepping over the merged code space ----------
        work = np.flatnonzero(live)
        acoh = rows[work]
        ast = stl[work] + cl[work] * S
        at = t[work]
        ak0 = k0[work]
        ak1 = k1[work]
        aemit = np.zeros(work.size, dtype=np.int64)

        deg0 = hm.state_deg[ast] == 0
        if deg0.any():
            self.state[acoh[deg0]] = ast[deg0] % S  # absorbing on entry
            keep = ~deg0
            acoh, ast, at = acoh[keep], ast[keep], at[keep]
            ak0, ak1, aemit = ak0[keep], ak1[keep], aemit[keep]

        max_events = MAX_EVENTS_PER_HOUR
        hour_end = hour_start + SECONDS_PER_HOUR
        r = 0
        abr = ue_blk = ud_blk = None
        while acoh.size:
            col = r & (_STEP_BLOCK - 1)
            if col == 0:
                if acoh.size <= _DRAIN_THRESHOLD:
                    for i in range(acoh.size):
                        self._drain_ue(
                            hm,
                            int(acoh[i]),
                            int(ast[i]),
                            float(at[i]),
                            int(aemit[i]),
                            ak0[i],
                            ak1[i],
                            hour_idx,
                            hour_end,
                            max_events,
                            r,
                            out_rows,
                            out_times,
                            out_events,
                        )
                    break
                c0 = np.uint64(r >> 1) + np.arange(
                    _STEP_BLOCK >> 1, dtype=np.uint64
                )
                x0, x1, x2, x3 = splitmix64_counter(
                    c0[None, :], hour_idx, _P_STEP, 0,
                    ak0[:, None], ak1[:, None],
                )
                ue_blk = np.empty((acoh.size, _STEP_BLOCK))
                ud_blk = np.empty((acoh.size, _STEP_BLOCK))
                ue_blk[:, 0::2] = to_unit(x0)
                ud_blk[:, 0::2] = to_unit(x1)
                ue_blk[:, 1::2] = to_unit(x2)
                ud_blk[:, 1::2] = to_unit(x3)
                abr = np.arange(acoh.size)
            u_edge = ue_blk[abr, col]
            u_dwell = ud_blk[abr, col]
            self.rng_draws += 2 * int(acoh.size)

            e = np.searchsorted(hm.sel_key, ast + u_edge, side="right")
            if hm.has_exp:
                dwell = np.empty(e.size)
                emp = hm.edge_kind[e] == 0
                if emp.any():
                    dwell[emp] = _interp_knots(
                        e[emp], u_dwell[emp],
                        hm.edge_knot_ptr, hm.knot_p, hm.knot_v,
                    )
                ex = ~emp
                if ex.any():
                    dwell[ex] = -np.log1p(-u_dwell[ex]) / hm.edge_rate[e[ex]]
            else:
                dwell = _interp_knots(
                    e, u_dwell, hm.edge_knot_ptr, hm.knot_p, hm.knot_v
                )
            t_next = at + np.maximum(dwell, MIN_SOJOURN)

            cross = t_next >= hour_end
            go = ~cross
            tgt = hm.edge_target[e]
            if cross.any():
                # hour boundary: the pending event is dropped, the UE
                # keeps its pre-step state for the next hour.
                self.state[acoh[cross]] = ast[cross] % S
                out_rows.append(acoh[go])
                out_times.append(t_next[go])
                out_events.append(hm.edge_event[e[go]])
            else:
                out_rows.append(acoh)
                out_times.append(t_next)
                out_events.append(hm.edge_event[e])
            aemit += 1
            # retire emitters whose new state is absorbing or who hit
            # the per-hour safety cap; both keep the post-step state.
            done = (hm.state_deg[tgt] == 0) | (aemit >= max_events)
            done_go = done & go
            if done_go.any():
                self.state[acoh[done_go]] = tgt[done_go] % S
            keep = go & ~done
            if keep.all():
                ast = tgt
                at = t_next
            else:
                acoh, ast, at = acoh[keep], tgt[keep], t_next[keep]
                ak0, ak1 = ak0[keep], ak1[keep]
                aemit, abr = aemit[keep], abr[keep]
            r += 1

        # -- state-oblivious Poisson overlays (baseline models) ---------
        self._emit_overlays(
            hm, rows, cl, k0, k1, hour_idx, hour_start,
            out_rows, out_times, out_events,
        )

    # ------------------------------------------------------------------
    def _drain_ue(
        self,
        hm: HourModel,
        row: int,
        st: int,
        tt: float,
        em: int,
        k0: np.uint64,
        k1: np.uint64,
        hour_idx: int,
        hour_end: float,
        max_events: int,
        r: int,
        out_rows: List[np.ndarray],
        out_times: List[np.ndarray],
        out_events: List[np.ndarray],
    ) -> None:
        """Finish one UE's hour in a scalar loop (long-tail UEs).

        Consumes exactly the same ``(counter, word)`` uniforms as
        the vector loop would at each round and evaluates the same
        IEEE-754 expressions, so the emitted events are bit-identical to
        batch stepping — only cheaper for a near-empty cohort.
        """
        (
            sel_key,
            state_deg,
            edge_event,
            edge_target,
            edge_kind,
            edge_rate,
            kptr,
            kp,
            kv,
            has_exp,
        ) = _drain_lists(hm)
        min_sojourn = float(MIN_SOJOURN)
        times: List[float] = []
        evs: List[int] = []
        final_state = None
        while final_state is None:
            c0 = np.uint64(r >> 1) + np.arange(
                _DRAIN_BLOCK >> 1, dtype=np.uint64
            )
            x0, x1, x2, x3 = splitmix64_counter(
                c0, hour_idx, _P_STEP, 0, k0, k1
            )
            u_edge = np.empty(_DRAIN_BLOCK)
            u_dwell = np.empty(_DRAIN_BLOCK)
            u_edge[0::2] = to_unit(x0)
            u_dwell[0::2] = to_unit(x1)
            u_edge[1::2] = to_unit(x2)
            u_dwell[1::2] = to_unit(x3)
            uel = u_edge.tolist()
            udl = u_dwell.tolist()
            for j in range(_DRAIN_BLOCK):
                e = bisect_right(sel_key, st + uel[j])
                u = udl[j]
                if has_exp and edge_kind[e] != 0:
                    dwell = -float(np.log1p(-u)) / edge_rate[e]
                else:
                    lo = kptr[e]
                    m = kptr[e + 1] - lo
                    pc = math.ceil(u * m - 0.5)
                    pc = lo + (1 if pc < 1 else (m - 1 if pc > m - 1 else pc))
                    p0 = kp[pc - 1]
                    p1 = kp[pc]
                    uu = p0 if u < p0 else (p1 if u > p1 else u)
                    v0 = kv[pc - 1]
                    dwell = v0 + (uu - p0) * (kv[pc] - v0) / (p1 - p0)
                if dwell < min_sojourn:
                    dwell = min_sojourn
                t_next = tt + dwell
                if t_next >= hour_end:
                    final_state = st  # pending event dropped at boundary
                    break
                times.append(t_next)
                evs.append(edge_event[e])
                st = edge_target[e]
                tt = t_next
                em += 1
                if state_deg[st] == 0 or em >= max_events:
                    final_state = st
                    break
            self.rng_draws += 2 * (j + 1)
            r += _DRAIN_BLOCK
        self.state[row] = final_state % hm.S
        if times:
            out_rows.append(np.full(len(times), row, dtype=np.int64))
            out_times.append(np.asarray(times, dtype=np.float64))
            out_events.append(np.asarray(evs, dtype=np.int16))

    # ------------------------------------------------------------------
    def _emit_overlays(
        self,
        hm: HourModel,
        rows: np.ndarray,
        cl: np.ndarray,
        k0: np.ndarray,
        k1: np.ndarray,
        hour_idx: int,
        hour_start: float,
        out_rows: List[np.ndarray],
        out_times: List[np.ndarray],
        out_events: List[np.ndarray],
    ) -> None:
        """One pass per overlay event over every UE whose cluster has a
        rate for it.  A UE's count draw is keyed by (UE, hour, event) and
        its time draws by the slot as well, so the pass emits what a
        pass per cluster would; ``_sort_hour`` orders the hour."""
        if not hm.overlay_clusters:
            return
        for k, event_code in enumerate(hm.overlay_events.tolist()):
            rate = hm.overlay_rates[cl, k]
            ues = np.flatnonzero(rate > 0)
            if ues.size == 0:
                continue
            event = np.uint64(event_code)
            k0e, k1e = k0[ues], k1[ues]
            self.rng_draws += int(ues.size)
            u_n = _uniforms(k0e, k1e, 0, hour_idx, _P_OVERLAY_N, event)[0]
            lam = rate[ues] * SECONDS_PER_HOUR
            counts = np.empty(ues.size, dtype=np.int64)
            for value in np.unique(lam).tolist():
                same = lam == value
                counts[same] = _poisson_from_uniform(u_n[same], value)
            np.minimum(counts, MAX_EVENTS_PER_HOUR, out=counts)
            total = int(counts.sum())
            if total == 0:
                continue
            rep = np.repeat(np.arange(ues.size), counts)
            slot = np.arange(total) - np.repeat(
                np.cumsum(counts) - counts, counts
            )
            self.rng_draws += total
            u_t = _uniforms(
                k0e[rep], k1e[rep], slot, hour_idx, _P_OVERLAY_T, event
            )[0]
            out_rows.append(rows[ues[rep]])
            out_times.append(hour_start + u_t * SECONDS_PER_HOUR)
            out_events.append(np.full(total, event_code, dtype=np.int16))


# ---------------------------------------------------------------------------
# Whole-trace production helpers (used by traffgen / streaming)
# ---------------------------------------------------------------------------


def population_for_counts(
    model_set: ModelSet,
    counts: Dict[DeviceType, int],
    *,
    seed: int,
    start_hour: int,
) -> CompiledPopulation:
    """Build the population for a device-count split, in generation order."""
    device_codes = np.concatenate(
        [
            np.full(counts[dt], int(dt), dtype=np.int8)
            for dt in sorted(counts, key=int)
        ]
        or [np.empty(0, dtype=np.int8)]
    )
    total = len(device_codes)
    return CompiledPopulation(
        model_set,
        device_codes,
        np.arange(total, dtype=np.int64),
        seed=seed,
        start_hour=start_hour,
    )


def generate_columns(
    population: CompiledPopulation,
    num_hours: int,
    first_ue_id: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Run ``num_hours`` and return (ue, time, event, device) columns."""
    from ..telemetry import get_telemetry

    tele = get_telemetry()
    num_ues = len(population.device_codes)
    draws_before = population.rng_draws
    ue_col, time_col, event_col, device_col = [], [], [], []
    for _ in range(num_hours):
        rows, times, events = population.advance_hour()
        tele.count("ue_hours", num_ues)
        if len(rows) == 0:
            continue
        ue_col.append(first_ue_id + rows)
        time_col.append(times)
        event_col.append(events.astype(np.int8))
        device_col.append(population.device_codes[rows])
    tele.count("rng_draws", population.rng_draws - draws_before)
    if not ue_col:
        empty = np.empty(0)
        return (
            empty.astype(np.int64),
            empty,
            empty.astype(np.int8),
            empty.astype(np.int8),
        )
    return (
        np.concatenate(ue_col),
        np.concatenate(time_col),
        np.concatenate(event_col),
        np.concatenate(device_col),
    )
