"""Behaviour-driven ground-truth trace simulator.

Stands in for the paper's proprietary carrier trace (37,325 UEs, one
week, 196.8M events).  Each UE is an *agent*: it runs app sessions,
moves through cells and tracking areas, and power-cycles.  Control
events are a by-product of that behaviour and always conform to the
two-level state machine of Fig. 5 — the simulator walks the machine
explicitly, so ``replay`` recovers the trajectory exactly.

The statistics of the output are intentionally outside every candidate
family the paper tests: sojourns are lognormal mixtures, idle gaps are
burst-modulated, activity is lognormally skewed across UEs, and rates
swing with the hour of day.

**The UE model.**  A UE's life is a run of *phases*: OFF (powered off
until its ATCH), CONNECTED (a dwell from the connected-sojourn mixture,
closed by an S1 release, or by a DTCH when the power-off timer fires
first) and IDLE (a burst gap, or a long gap divided by ``activity ·
diurnal``, closed by a service request or a DTCH).  Inside a phase,
below its cutoff (the phase end, the power-off time or the trace end,
whichever comes first):

- CONNECTED: a moving UE (probability: its mobility) hands over on a
  lognormal renewal process; a HO crosses a tracking area with the
  profile's probability, and a TAU follows after a lognormal delay.
  The periodic TAU timer fires too.  Every TAU may be followed by rapid
  retries (a geometric chain, ``tau_burst_probability``).
- IDLE: periodic TAUs and mobility TAUs (a bursty lognormal renewal
  process at ``idle_mobility_tau_rate_scale · mobility · diurnal`` per
  hour) each open a signalling connection that an S1 release closes,
  again with retries; a pair that would overrun the next TAU or the
  cutoff is dropped.

``tests/oracle/groundtruth.py`` keeps this model as a scalar per-UE
simulator on NumPy ``Generator`` draws, the statistical oracle.

**Lockstep engine.**  :class:`_Range` steps every UE at once, in two passes.

1. *Phases.*  Each round advances every live UE by one phase with a
   fixed set of array operations: one uniform picks the phase's
   lognormal (sojourn component, burst gap or long gap) and one normal
   draws it; the power-off timer, the periodic TAU timer and the
   phase's closing event (ATCH, DTCH, S1 release or service request)
   follow.  The draws of ``_BLOCK`` rounds come in one block.  The
   round leaves one *record* per UE-phase.
2. *Events inside phases.*  Nothing a phase's HO/TAU activity does
   feeds back into the phases — an idle power-off lands after every
   release of its phase, because each release lands before the cutoff
   — so once ``_RECORD_CHUNK`` records are held, the activity inside
   all of them is drawn in flat arrays (renewals as cumulative sums of
   blocks of gaps, chains one link per pass) and they become rows.  The
   working arrays are bounded by the chunk and by lanes × ``_BLOCK``;
   only the rows grow with the trace.

**Counter-based draws.**  Every draw is a word of a slot ``(seed, UE,
purpose, c3)`` of :mod:`repro.stats.counter_rng`: round ``r``'s pair
is words ``2r`` and ``2r + 1`` of ``(UE, P_GT_PHASE, 0)``; the
activity inside a phase reads slots keyed by the round (and a chain's
index within it).  A UE's events thus depend on the seed and its index
alone.
"""

from __future__ import annotations

import math
from numbers import Integral
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..stats.counter_rng import (
    P_GT_BURST,
    P_GT_GAMMA,
    P_GT_HO,
    P_GT_HO_TAU,
    P_GT_IDLE_TAU,
    P_GT_INIT,
    P_GT_PAIR,
    P_GT_PHASE,
    norm_ppf,
    root_key,
    slot_base,
    slot_words,
    to_unit,
)
from ..telemetry import get_telemetry
from ..trace.events import (
    SECONDS_PER_HOUR,
    TIMESTAMP_GRANULARITY,
    DeviceCounts,
    DeviceType,
    EventType,
    check_counts,
)
from ..trace.trace import Trace, stable_order
from .profiles import (
    DEFAULT_PROFILES,
    PAPER_DEVICE_MIX,
    DeviceProfile,
    LognormalSpec,
)

_ATCH = int(EventType.ATCH)
_DTCH = int(EventType.DTCH)
_SRV_REQ = int(EventType.SRV_REQ)
_S1_CONN_REL = int(EventType.S1_CONN_REL)
_HO = int(EventType.HO)
_TAU = int(EventType.TAU)

#: Phase states.
_OFF, _CONNECTED, _IDLE = 0, 1, 2
#: A phase's closing event and next state, by ``[powered off, state]``.
_CLOSE = np.array([[_ATCH, _S1_CONN_REL, _SRV_REQ], [-1, _DTCH, _DTCH]], np.int8)
_NEXT = np.array([[_CONNECTED, _IDLE, _CONNECTED], [-1, _OFF, _OFF]], np.int8)

#: Duration codes: the lognormal a phase's normal draw feeds.  Code
#: ``_D_CONNECTED + k`` is the k-th connected-sojourn component.
_D_OFF, _D_BURST, _D_LONG, _D_CONNECTED = 0, 1, 2, 3

#: Rounds of phase draws per block (two words per round).
_BLOCK = 32
#: Renewal gaps drawn per pass over the phases still inside their cutoff.
_GAP_BLOCK = 8
#: Phase records held before the activity inside them is drawn and they
#: become rows.
_RECORD_CHUNK = 1 << 16

#: Beta(4m, 4(1 - m)) mobility around the profile's (clamped) mean m.
_MOBILITY_CONCENTRATION = 4.0
#: Standard deviation of a UE's diurnal phase shift, hours.
_JITTER_SIGMA = 0.7
#: Lognormal shape of idle mobility-TAU gaps.
_IDLE_TAU_SIGMA = 1.2
#: A power-off that falls before the idle phase's start is pushed this
#: many seconds after it.
_POWER_OFF_PUSH = 0.5


def _c3(rounds: np.ndarray, index=0, kind: int = 0) -> np.ndarray:
    """The ``c3`` slot word of chain ``index`` of kind ``kind`` (0 or 1)
    in round ``rounds``."""
    return (
        (np.asarray(rounds, dtype=np.uint64) << np.uint64(33))
        | np.uint64(kind << 32)
        | np.asarray(index, dtype=np.uint64)
    )


def _units(base: np.ndarray, words) -> np.ndarray:
    """Uniforms at ``words`` of the slots at ``base`` (broadcast)."""
    return to_unit(slot_words(base, words))


def _lognormal(spec: LognormalSpec, z: np.ndarray) -> np.ndarray:
    return np.exp(spec.mu + spec.sigma * z)


class _PhaseTables:
    """What a round reads of the profiles, by device code ``d``: the
    lognormal of duration code ``c`` at ``mu[d * codes + c]`` (and
    ``sigma``), the connected-sojourn cdf (``cdf[d]``, padded with
    ``inf``; ``cuts[k][d]`` is its entry ``k``), the burst probability
    and the diurnal curve (``curve[24 * d + hour]``)."""

    def __init__(self, profiles: Mapping[DeviceType, DeviceProfile]) -> None:
        size = max(int(dt) for dt in profiles) + 1
        width = max(len(p.connected_sojourn.weights) for p in profiles.values())
        self.codes = _D_CONNECTED + width
        mu = np.zeros((size, self.codes))
        sigma = np.zeros((size, self.codes))
        self.cdf = np.full((size, width), np.inf)
        self.burst = np.zeros(size)
        curve = np.ones((size, 24))
        for dt, p in profiles.items():
            d = int(dt)
            specs = (p.off_duration, p.idle_burst_gap, p.idle_long_gap)
            specs += p.connected_sojourn.components
            mu[d, : len(specs)] = [s.mu for s in specs]
            sigma[d, : len(specs)] = [s.sigma for s in specs]
            self.cdf[d, : len(p.connected_sojourn.cdf)] = p.connected_sojourn.cdf
            self.burst[d] = p.burst_probability
            curve[d] = p.diurnal
        self.mu, self.sigma, self.curve = mu.ravel(), sigma.ravel(), curve.ravel()
        # The last entry is 1.0 or inf: no uniform reaches it.
        self.cuts = [self.cdf[:, k].copy() for k in range(width - 1)]


def _gamma(ues: np.ndarray, shape: float, c3: int, key) -> np.ndarray:
    """Gamma(shape, 1) per UE by Marsaglia & Tsang (2000).

    Attempt ``k`` reads words ``2k`` (normal) and ``2k + 1`` (uniform)
    of slot ``(UE, P_GT_GAMMA, c3)``; a rejected UE retries at the next
    attempt.  A shape below 1 draws Gamma(shape + 1) and scales it by
    ``U^(1 / shape)``, U from word 0 of slot ``c3 + 2``.
    """
    d = (shape + 1.0 if shape < 1.0 else shape) - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    base = slot_base(ues, P_GT_GAMMA, c3, *key)
    out = np.empty(ues.size)
    todo = np.arange(ues.size)
    k = 0
    while todo.size:
        w = _units(base[todo, None], np.array([2 * k, 2 * k + 1], np.uint64))
        x = norm_ppf(w[:, 0])
        v = (1.0 + c * x) ** 3
        with np.errstate(divide="ignore", invalid="ignore"):
            ok = (v > 0) & (np.log(w[:, 1]) < 0.5 * x * x + d - d * v + d * np.log(v))
        out[todo[ok]] = d * v[ok]
        todo = todo[~ok]
        k += 1
    if shape < 1.0:
        out *= _units(slot_base(ues, P_GT_GAMMA, c3 + 2, *key), 0) ** (1.0 / shape)
    return out


def _diurnal(curve: np.ndarray, offset, hour: np.ndarray) -> np.ndarray:
    """``curve[offset + h]`` is the activity at hour ``h``; interpolate
    it at ``hour`` in ``[0, 24]``."""
    whole = hour.astype(np.int64)
    frac = hour - whole
    return (
        curve[offset + whole % 24] * (1 - frac)
        + curve[offset + (whole + 1) % 24] * frac
    )


class _Range:
    """The lockstep simulation of a range of UEs.

    Pass 1 (:meth:`_phases`) leaves one *record* per UE-phase: the UE's
    lane, round, state, start time, cutoff and closing event (code -1:
    none), and the periodic TAU times by record.  Each full chunk of
    records goes through :meth:`_flush`: pass 2 (:meth:`_inner_events`)
    draws the activity inside them, and their rows join ``self.rows``.
    """

    def __init__(
        self,
        profiles: Mapping[DeviceType, DeviceProfile],
        ues: np.ndarray,
        dev: np.ndarray,
        duration: float,
        start_hour: float,
        key,
    ) -> None:
        self.profiles = profiles
        self.tables = _PhaseTables(profiles)
        self.ues = ues
        self.dev = dev.astype(np.int64)
        self.duration = duration
        # The last millisecond before the duration: a row time just under
        # it must not round onto it, out of the simulated window.
        self.last_ms = math.ceil(duration / TIMESTAMP_GRANULARITY)
        while self.last_ms * TIMESTAMP_GRANULARITY >= duration:
            self.last_ms -= 1
        self.start_hour = start_hour
        self.key = key
        self.phase_base = slot_base(ues, P_GT_PHASE, 0, *key)
        self.rounds = 0
        #: Parts of the lane, millisecond and event columns, in emission
        #: order per UE.
        self.rows: Tuple[list, list, list] = ([], [], [])
        self._archetypes()

    # -- per-UE parameters ----------------------------------------------
    def _archetypes(self) -> None:
        """Activity, mobility, TAU and power periods, diurnal shift, and
        the starting state, from slot ``(UE, P_GT_INIT, 0)``: normals at
        words 0-4, uniforms at words 5-8."""
        n = self.ues.size
        w = _units(
            slot_base(self.ues, P_GT_INIT, 0, *self.key)[:, None],
            np.arange(9, dtype=np.uint64),
        )
        z = norm_ppf(w[:, :5])
        self.act, self.mob, self.tp, self.pp, self.jit = (np.empty(n) for _ in range(5))
        self.t0, self.npt0, self.npo0 = np.empty(n), np.empty(n), np.empty(n)
        self.st0 = np.empty(n, dtype=np.int8)
        for dt, p in self.profiles.items():
            rows = np.flatnonzero(self.dev == int(dt))
            if not rows.size:
                continue
            zr, ur = z[rows], w[rows, 5:]
            self.act[rows] = np.exp(p.activity_sigma * zr[:, 0])
            self.tp[rows] = _lognormal(p.periodic_tau_period, zr[:, 1])
            self.pp[rows] = _lognormal(p.power_cycle_period, zr[:, 2])
            self.jit[rows] = _JITTER_SIGMA * zr[:, 3]
            # Stagger the periodic-TAU and power-cycle timers.
            self.npt0[rows] = self.tp[rows] * ur[:, 0]
            self.npo0[rows] = self.pp[rows] * (0.2 + 0.8 * ur[:, 1])
            off = ur[:, 2] < p.start_off_probability
            self.st0[rows] = np.where(off, _OFF, _IDLE)
            # Burn a random fraction of an idle gap so UEs desynchronize.
            self.t0[rows] = np.where(
                off, 0.0, _lognormal(p.idle_long_gap, zr[:, 4]) * ur[:, 3]
            )
            mean = min(max(p.mobility_mean, 0.02), 0.98)
            x = _gamma(self.ues[rows], mean * _MOBILITY_CONCENTRATION, 0, self.key)
            y = _gamma(
                self.ues[rows], (1.0 - mean) * _MOBILITY_CONCENTRATION, 1, self.key
            )
            self.mob[rows] = x / (x + y)

    # -- pass 1: phases --------------------------------------------------
    def _phases(self) -> None:
        tb = self.tables
        D = self.duration
        lane = np.arange(self.ues.size, dtype=np.int32)
        t, st = self.t0, self.st0
        npo, npt = self.npo0, self.npt0
        # A round adds at most one record per lane.
        recs = _Records(_RECORD_CHUNK + lane.size)
        terms: List[tuple] = []
        r = 0
        while lane.size:
            col = r % _BLOCK
            if col == 0:
                w = slot_words(
                    self.phase_base[lane, None],
                    np.arange(2 * r, 2 * (r + _BLOCK), dtype=np.uint64),
                )
                u_blk = to_unit(w[:, 0::2])
                z_blk = norm_ppf(to_unit(w[:, 1::2]))
                row = np.arange(lane.size)
            u = u_blk[row, col]
            z = z_blk[row, col]
            dev = self.dev[lane]
            off = st == _OFF
            conn = st == _CONNECTED
            comp = _D_CONNECTED
            for cut_k in tb.cuts:
                comp = comp + (u >= cut_k[dev])
            code = np.where(
                off, _D_OFF, np.where(conn, comp, _D_BURST + (u >= tb.burst[dev]))
            )
            k = code + dev * tb.codes
            x = np.exp(tb.mu[k] + tb.sigma[k] * z)
            li = np.flatnonzero(code == _D_LONG)
            if li.size:
                ll = lane[li]
                h = (self.start_hour + self.jit[ll] + t[li] / SECONDS_PER_HOUR) % 24
                diurnal = _diurnal(tb.curve, 24 * dev[li], h)
                x[li] = x[li] / np.maximum(self.act[ll] * diurnal, 1e-3)
            nt = t + x
            pw = ~off & (npo < nt) & (npo < D)
            ev_t = np.where(
                pw, np.where(conn | (npo > t), npo, t + _POWER_OFF_PUSH), nt
            )
            alive = ev_t < D
            cut = np.where(off, t, np.minimum(np.minimum(nt, npo), D))
            # The periodic TAU timer: skip what fell before the phase,
            # record what fires inside it.
            tp = self.tp[lane]
            late = npt < t
            while late.any():
                npt = np.where(late, npt + tp, npt)
                late = npt < t
            due = npt < cut
            while due.any():
                i = np.flatnonzero(due)
                terms.append((recs.size + i, npt[i]))
                npt = np.where(due, npt + tp, npt)
                due = npt < cut
            pwi = pw.astype(np.int8)
            recs.extend(lane, r, st, t, cut, ev_t, np.where(alive, _CLOSE[pwi, st], -1))
            npo = np.where(off, nt + self.pp[lane] * (0.5 + u), npo)
            t = ev_t
            st = _NEXT[pwi, st]
            if not alive.all():
                lane, t, st = lane[alive], t[alive], st[alive]
                npo, npt, row = npo[alive], npt[alive], row[alive]
            r += 1
            if recs.size >= _RECORD_CHUNK or not lane.size:
                self._flush(recs, terms)
        self.rounds = r

    def _flush(self, recs: "_Records", terms: List[tuple]) -> None:
        """Draw the activity inside the held records, append their rows
        to ``self.rows`` and empty ``recs`` and ``terms``."""
        # Views of the records, read by pass 2.
        self.lane, self.rnd, self.st, self.t, self.cut, ev_t, ev = recs.columns()
        term_rec = np.concatenate([np.empty(0, np.int64)] + [a for a, _ in terms])
        term_t = np.concatenate([np.empty(0)] + [b for _, b in terms])
        rec_in, t_in, ev_in = self._inner_events(term_rec, term_t)
        closing = np.flatnonzero(ev >= 0)
        # Per record: its inner events (already in time order), then its
        # closing event.
        order = stable_order(np.concatenate([2 * rec_in, 2 * closing + 1]))
        lane, times, events = (
            np.concatenate(pair)[order]
            for pair in (
                (self.lane[rec_in], self.lane[closing]),
                (t_in, ev_t[closing]),
                (ev_in, ev[closing]),
            )
        )
        self.rows[0].append(lane)
        # Milliseconds, as quantize_times rounds them, inside the duration.
        ms = np.round(times / TIMESTAMP_GRANULARITY).astype(np.int64)
        self.rows[1].append(np.minimum(ms, self.last_ms, out=ms))
        self.rows[2].append(events)
        recs.size = 0
        terms.clear()

    # -- pass 2: activity inside the phases ------------------------------
    def _inner_events(
        self, term_rec: np.ndarray, term_t: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(record, time, event)`` of every HO, TAU and idle release
        of the held records, in record and time order; ``term_rec`` and
        ``term_t`` are the periodic TAUs."""
        dev, st = self.dev[self.lane], self.st
        term_dev, term_st = dev[term_rec], st[term_rec]
        parts: List[tuple] = []
        for dt, p in self.profiles.items():
            d = int(dt)
            for state, fn in ((_CONNECTED, self._connected), (_IDLE, self._idle)):
                recs = np.flatnonzero((dev == d) & (st == state))
                if not recs.size:
                    continue
                tsel = (term_dev == d) & (term_st == state)
                parts.extend(fn(p, recs, term_rec[tsel], term_t[tsel]))
        if not parts:
            return np.empty(0, np.int64), np.empty(0), np.empty(0, np.int8)
        rec, times, ev = (np.concatenate(c) for c in zip(*parts))
        order = np.lexsort((times, rec))
        return rec[order], times[order], ev[order]

    def _slot(self, recs: np.ndarray, purpose, c3) -> np.ndarray:
        return slot_base(self.ues[self.lane[recs]], purpose, c3, *self.key)

    def _connected(self, p: DeviceProfile, recs, term_rec, term_t):
        """HOs, TAUs after HOs and TAU chains of CONNECTED records."""
        rnd, t, cut = self.rnd[recs], self.t[recs], self.cut[recs]
        base = self._slot(recs, P_GT_HO, rnd)
        move = np.flatnonzero(_units(base, 0) < self.mob[self.lane[recs]])
        item, ho_t, k = _renewal(
            base[move], t[move], cut[move], p.ho_interarrival.mu, p.ho_interarrival.sigma
        )
        ho = move[item]  # positions in recs
        j = k - 1
        out = [(recs[ho], ho_t, np.full(ho.size, _HO, np.int8))]
        w = _units(
            self._slot(recs[ho], P_GT_HO_TAU, rnd[ho])[:, None],
            np.stack([2 * j, 2 * j + 1], axis=1).astype(np.uint64),
        )
        cross = w[:, 0] < p.tau_after_ho_probability
        starts = ho_t[cross] + _lognormal(p.tau_after_ho_delay, norm_ppf(w[cross, 1]))
        # Periodic TAUs start chains too: chain k of kind 1 in the record.
        pos, per_k, term_t = _rank(np.searchsorted(recs, term_rec), term_t)
        chain_rec = np.concatenate([ho[cross], pos])
        chain_c3 = np.concatenate(
            [_c3(rnd[ho[cross]], j[cross]), _c3(rnd[pos], per_k, 1)]
        )
        first = np.concatenate([starts, term_t])
        item, tau_t = _tau_chain(
            slot_base(self.ues[self.lane[recs[chain_rec]]], P_GT_BURST, chain_c3, *self.key),
            first,
            cut[chain_rec],
            p.tau_burst_probability,
            p.tau_burst_delay,
        )
        out.append((recs[chain_rec[item]], tau_t, np.full(item.size, _TAU, np.int8)))
        return out

    def _idle(self, p: DeviceProfile, recs, term_rec, term_t):
        """TAU / S1-release pairs of IDLE records."""
        rnd, t, cut = self.rnd[recs], self.t[recs], self.cut[recs]
        lane = self.lane[recs]
        # Mobility-triggered idle TAUs (tracking-area reselection): a
        # bursty lognormal renewal process, not a Poisson one.
        h = (self.start_hour + self.jit[lane] + t / SECONDS_PER_HOUR) % 24
        diurnal = _diurnal(np.asarray(p.diurnal), 0, h)
        rate = p.idle_mobility_tau_rate_scale * self.mob[lane] * diurnal / SECONDS_PER_HOUR
        on = np.flatnonzero((rate > 0) & (cut > t))
        sigma = _IDLE_TAU_SIGMA
        mu = np.log((1.0 / rate[on]) / math.exp(sigma * sigma / 2.0))
        base = self._slot(recs[on], P_GT_IDLE_TAU, rnd[on])
        item, mob_t, _ = _renewal(
            base, t[on], cut[on], mu, sigma, first_scale=_units(base, 0)
        )
        # Every TAU of a record, in time order, with its rank.
        pos = np.concatenate([on[item], np.searchsorted(recs, term_rec)])
        pos, rank, tau = _rank(pos, np.concatenate([mob_t, term_t]))
        nxt = np.append(tau[1:], 0.0)
        last = np.append(pos[1:] != pos[:-1], True)
        limit = np.where(last, cut[pos], nxt)
        prev = t.copy()  # the last release of each record so far
        out = []
        for i in range(int(rank.max()) + 1 if rank.size else 0):
            sel = np.flatnonzero(rank == i)
            sel = sel[tau[sel] > prev[pos[sel]]]
            if not sel.size:
                continue
            tau_i, lim, at = tau[sel], limit[sel], pos[sel]
            base = self._slot(recs[at], P_GT_PAIR, _c3(rnd[at], i))
            k = 0
            while at.size:
                w = _units(base[:, None], np.arange(3 * k, 3 * k + 3, dtype=np.uint64))
                release = tau_i + _lognormal(p.idle_tau_release_delay, norm_ppf(w[:, 0]))
                ok = release < lim
                tau_i, release, lim, at, w, base = (
                    a[ok] for a in (tau_i, release, lim, at, w, base)
                )
                out.append((recs[at], tau_i, np.full(at.size, _TAU, np.int8)))
                out.append((recs[at], release, np.full(at.size, _S1_CONN_REL, np.int8)))
                prev[at] = release
                # Rapid retry/follow-up TAU (same signalling burst).
                tau_i = release + _lognormal(p.tau_burst_delay, norm_ppf(w[:, 2]))
                go = (w[:, 1] < p.tau_burst_probability) & (tau_i < lim)
                tau_i, lim, at, base = (a[go] for a in (tau_i, lim, at, base))
                k += 1
        return out

    # -- the range's columns -----------------------------------------------
    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The range's trace columns in trace order, ``(time, UE)`` with
        ties in emission order."""
        self._phases()
        lane, ms, events = (np.concatenate(parts) for parts in self.rows)
        self.rows = ([], [], [])
        order = stable_order(ms * self.ues.size + lane)
        lane, ms, events = lane[order], ms[order], events[order]
        del order
        return (
            self.ues[lane],
            ms * TIMESTAMP_GRANULARITY,
            events,
            self.dev[lane].astype(np.int8),
        )


class _Records:
    """Phase records in fixed columns: lane, round, state, start,
    cutoff, closing time and closing event (-1: none)."""

    DTYPES = (np.int32, np.int32, np.int8, np.float64, np.float64, np.float64, np.int8)

    def __init__(self, capacity: int) -> None:
        self.size = 0
        self._columns = [np.empty(capacity, dtype) for dtype in self.DTYPES]

    def extend(self, *values) -> None:
        end = self.size + len(values[0])
        for column, value in zip(self._columns, values):
            column[self.size : end] = value
        self.size = end

    def columns(self) -> List[np.ndarray]:
        return [column[: self.size] for column in self._columns]


def _renewal(base, start, cutoff, mu, sigma, first_scale=None):
    """Points of a lognormal renewal process in ``[start, cutoff)`` per item.

    Gap ``k >= 1`` is ``exp(mu + sigma · z)``, ``z`` the normal at word
    ``k`` of the item's slot; the first gap is scaled by ``first_scale``.
    Returns ``(item, time, k)`` of every point, ``k`` its gap number.
    """
    mu = np.broadcast_to(mu, np.shape(start))
    items = np.arange(np.size(start))
    s = np.asarray(start, dtype=np.float64)
    out_item, out_t, out_k = [np.empty(0, np.int64)], [np.empty(0)], [np.empty(0, np.int64)]
    k0, width = 1, 1  # most phases see no point: try the first gap alone
    while items.size:
        w = np.arange(k0, k0 + width, dtype=np.uint64)
        gaps = np.exp(mu[items, None] + sigma * norm_ppf(_units(base[items, None], w)))
        if first_scale is not None and k0 == 1:
            gaps[:, 0] *= first_scale
        pts = np.cumsum(np.column_stack([s, gaps]), axis=1)[:, 1:]
        inside = pts < cutoff[items, None]
        row, col = np.nonzero(inside)
        out_item.append(items[row])
        out_t.append(pts[row, col])
        out_k.append(k0 + col)
        more = inside[:, -1]
        items, s = items[more], pts[more, -1]
        k0, width = k0 + width, _GAP_BLOCK
    return (
        np.concatenate(out_item),
        np.concatenate(out_t),
        np.concatenate(out_k),
    )


def _tau_chain(base, first, cutoff, p_burst, delay):
    """TAU times of chains that start at ``first``: a TAU is emitted
    while below the cutoff, and followed by another after a lognormal
    delay with probability ``p_burst`` (link ``i`` reads the uniform at
    word ``2i`` and the normal at ``2i + 1``).  Returns ``(item, time)``."""
    items = np.flatnonzero(first < cutoff)
    tau = first[items]
    out_item, out_t = [items], [tau]
    i = 0
    while items.size:
        w = _units(base[items, None], np.array([2 * i, 2 * i + 1], np.uint64))
        go = w[:, 0] < p_burst
        items = items[go]
        tau = tau[go] + _lognormal(delay, norm_ppf(w[go, 1]))
        keep = tau < cutoff[items]
        items, tau = items[keep], tau[keep]
        out_item.append(items)
        out_t.append(tau)
        i += 1
    return np.concatenate(out_item), np.concatenate(out_t)


def _rank(group: np.ndarray, times: np.ndarray):
    """Sort rows by ``(group, times)``: the groups, each row's rank in
    its group, and the times."""
    order = np.lexsort((times, group))
    group = group[order]
    n = group.size
    starts = np.flatnonzero(np.append(True, group[1:] != group[:-1])) if n else group
    rank = np.arange(n) - np.repeat(starts, np.diff(np.append(starts, n)))
    return group, rank, times[order]


def resolve_device_counts(num_ues: DeviceCounts) -> Dict[DeviceType, int]:
    """Expand a total UE count into per-device counts via the paper's mix.

    Every count must be a whole, non-negative number; anything else
    raises ``ValueError`` naming ``num_ues``.
    """
    total = check_counts(num_ues)
    if isinstance(total, dict):
        return total
    counts = {
        dt: int(round(total * frac)) for dt, frac in PAPER_DEVICE_MIX.items()
    }
    # Fix rounding drift on the dominant type.
    counts[DeviceType.PHONE] += total - sum(counts.values())
    return counts


def simulate_ground_truth(
    num_ues: DeviceCounts,
    duration: float,
    *,
    start_hour: float = 0.0,
    seed: int = 0,
    profiles: Optional[Mapping[DeviceType, DeviceProfile]] = None,
) -> Trace:
    """Simulate a full "real" trace for a UE population.

    Parameters
    ----------
    num_ues:
        Either a whole total (split by the paper's device mix) or
        explicit whole per-device counts.
    duration:
        Trace length in seconds (the paper's collection: 7 days).
    start_hour:
        Hour-of-day at ``t = 0`` (affects diurnal behaviour).
    seed:
        A non-negative integer keying every draw: UE ``i``'s events
        depend on ``seed`` and ``i`` alone.
    profiles:
        Behaviour per device type (default :data:`DEFAULT_PROFILES`);
        it must cover every device type with UEs.

    The ambient telemetry collector gets a ``simulate`` span and the
    counters ``ue_hours`` (UEs × started hours), ``events_emitted``
    and ``simulate_rounds`` (lockstep rounds).
    """
    if not (math.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be finite and > 0, got {duration!r}")
    if not math.isfinite(start_hour):
        raise ValueError(f"start_hour must be finite, got {start_hour!r}")
    if not isinstance(seed, Integral):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    if profiles is None:
        profiles = DEFAULT_PROFILES
    counts = resolve_device_counts(num_ues)
    population = [(dt, counts[dt]) for dt in sorted(counts, key=int) if counts[dt]]
    missing = [dt.name for dt, _ in population if dt not in profiles]
    if missing:
        raise ValueError(f"profiles has no profile for device types {missing}")
    dev = np.repeat(
        np.array([int(dt) for dt, _ in population], np.int8),
        [n for _, n in population],
    )
    tele = get_telemetry()
    with tele.span("simulate"):
        if not dev.size:
            return Trace.empty()
        sim = _Range(
            {dt: profiles[dt] for dt, _ in population},
            np.arange(dev.size, dtype=np.int64),
            dev,
            float(duration),
            float(start_hour),
            root_key(int(seed)),
        )
        trace = Trace(*sim.columns())
    tele.count("ue_hours", dev.size * math.ceil(duration / SECONDS_PER_HOUR))
    tele.count("events_emitted", len(trace))
    tele.count("simulate_rounds", sim.rounds)
    return trace
