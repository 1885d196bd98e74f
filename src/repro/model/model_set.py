"""Containers for fitted models and their persistence.

A :class:`ModelSet` holds one :class:`HourModel` per (device type,
hour-of-day).  An hour model stores all of its (device, hour, cluster)
models — the paper instantiates 20,216 of these for its carrier trace —
as the flat tables the generator steps, plus the cluster assignment of
every training UE, which the generator uses to give each synthetic UE a
coherent "persona" across hours (§7: per-UE generators are distributed
over clusters "according to the distribution of the UEs in the modeled
trace").

The tables are the one representation of a fitted model.  The fitter
writes them directly; the v1 JSON format (:meth:`HourModel.to_dict` /
:meth:`HourModel.from_dict`), 5G scaling (:mod:`.scaling`), the audit
(:meth:`HourModel.problems`) and inspection (:mod:`.inspect`) read and
write the same columns.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import hashlib
import json
import os
import types
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..statemachines.compiled_replay import table_for
from ..statemachines.fsm import StateMachine
from ..statemachines.lte import emm_ecm_machine, two_level_machine
from ..statemachines.nr import nr_sa_machine
from ..trace.events import DeviceType, EventType
from .grouped import group_starts, grouped_cumsum

PathLike = Union[str, "os.PathLike[str]"]

#: Tolerance on a probability row summing to one.
_PROB_TOL = 1e-6


def build_machine(machine_kind: str) -> StateMachine:
    """Instantiate the state machine for a model-set kind."""
    if machine_kind == "two_level":
        return two_level_machine()
    if machine_kind == "emm_ecm":
        return emm_ecm_machine()
    if machine_kind == "nr_sa":
        return nr_sa_machine()
    raise ValueError(f"unknown machine_kind {machine_kind!r}")


@dataclasses.dataclass(frozen=True)
class StateSpace:
    """A machine's state codes: its sorted state names, in code order."""

    names: Tuple[str, ...]
    code: Mapping[str, int]
    #: Per event code, the state a first event of that type enters (the
    #: target from the machine's canonical source), or -1 if none.
    canonical_next: np.ndarray


@functools.lru_cache(maxsize=None)
def state_space(machine_kind: str) -> StateSpace:
    """The (memoized) state codes of a model-set kind's machine."""
    table = table_for(build_machine(machine_kind))
    canonical_next = table.fallback_next.astype(np.int32)
    canonical_next.flags.writeable = False  # shared by every caller
    return StateSpace(
        names=table.names,
        code=types.MappingProxyType(
            {name: i for i, name in enumerate(table.names)}
        ),
        canonical_next=canonical_next,
    )


#: The columns of an :class:`HourModel`.  With ``C`` clusters and ``S``
#: machine states, cluster ``c``'s state ``s`` has merged code
#: ``c * S + s``; edges are laid out CSR-style by merged source code and,
#: within a state, in the chain's edge order (event-code order when
#: fitted).  The generator steps the first block; the second holds what
#: the v1 JSON, 5G scaling and inspection read beyond it.
GENERATOR_COLUMNS = (
    "state_deg",      #: (C*S,) out-degree per merged state (0 = absorbing)
    "sel_key",        #: (E,) merged source code + cumulative probability
    "edge_event",     #: (E,) int16 event code
    "edge_target",    #: (E,) merged target code
    "edge_kind",      #: (E,) int8: 0 empirical sojourn, 1 exponential
    "edge_rate",      #: (E,) exponential rate (1.0 on empirical edges)
    "edge_knot_ptr",  #: (E+1,) knot slice of every edge
    "knot_p",         #: inverse-CDF knot probabilities, (j + 0.5) / m
    "knot_v",         #: inverse-CDF knot values (sorted per edge)
    "p_active",       #: (C,) P(first event this hour), 0 with no events
    "fe_key",         #: cluster + cumulative first-event probability
    "fe_event",       #: int16 first-event type, event-code order
    "fe_state",       #: int32 state a first event enters
    "foff_ptr",       #: (C+1,) first-offset knot slice of every cluster
    "foff_p",         #: first-offset knot probabilities
    "foff_v",         #: first-offset knot values
    "overlay_events", #: (K,) overlay event codes, ascending
    "overlay_rates",  #: (C, K) per-UE overlay Poisson rates
    "assign_keys",    #: sorted training UE ids
    "assign_vals",    #: int32 cluster of each training UE
    "weights_cum",    #: (C,) cumulative UE share, last forced to 1.0
)
VIEW_COLUMNS = (
    "edge_prob",      #: (E,) transition probability
    "edge_single",    #: (E,) one-sample CDF, padded to two equal knots
    "fe_ptr",         #: (C+1,) first-event slice of every cluster
    "fe_prob",        #: first-event type probability
    "foff_single",    #: (C,) one-sample offset CDF, padded likewise
    "num_ues",        #: (C,) training UEs per cluster
    "num_segments",   #: (C,) (UE, day) segments per cluster
)


def _offsets(lengths) -> np.ndarray:
    """Slice pointers ``[0, cumsum(lengths)...]`` of consecutive runs."""
    out = np.zeros(len(lengths) + 1, dtype=np.int64)
    np.cumsum(np.asarray(lengths, dtype=np.int64), out=out[1:])
    return out


def _weights(num_ues: np.ndarray) -> np.ndarray:
    """UE-count share of each cluster (uniform if no cluster has UEs)."""
    counts = np.maximum(num_ues, 0).astype(float)
    total = counts.sum()
    if total <= 0:
        return np.full(counts.size, 1.0 / max(counts.size, 1))
    return counts / total


#: Event names by code, for the v1 JSON.
_EVENT_NAMES = {int(e): e.name for e in EventType}


def _number(value, where: str) -> float:
    """``value`` as a float, or a :class:`ValueError` naming ``where``."""
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None


def _integer(value, where: str) -> int:
    """``value`` as an int, rejected if it is not integral."""
    try:
        number = int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where}: {exc}") from None
    if isinstance(value, float) and number != value:
        raise ValueError(f"{where}: {value!r} is not an integer")
    return number


def _probability(value, where: str) -> float:
    """``value`` as a float, rejected unless finite and non-negative."""
    prob = _number(value, where)
    if not (np.isfinite(prob) and prob >= 0.0):
        raise ValueError(f"{where} has probability {prob}")
    return prob


def _knots(values, where: str) -> np.ndarray:
    """A stored CDF's knots, sorted; rejected unless there is at least
    one and all are finite and non-negative."""
    try:
        knots = np.sort(np.asarray(values, dtype=np.float64).ravel())
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: {exc}") from None
    if knots.size == 0:
        raise ValueError(f"{where}: an empirical CDF needs at least one sample")
    if not np.isfinite(knots).all():
        raise ValueError(f"{where}: samples contain non-finite values")
    if knots[0] < 0:
        raise ValueError(f"{where}: samples contain negative durations")
    return knots


def _gather(
    starts: np.ndarray, lengths: np.ndarray, values: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The slices ``values[starts[i]:starts[i] + lengths[i]]`` laid end to
    end, as ``(ptr, values)``."""
    ptr = _offsets(lengths)
    within = np.arange(ptr[-1]) - np.repeat(ptr[:-1], lengths)
    return ptr, values[np.repeat(starts, lengths) + within]


def _padded(ptr: np.ndarray, values: np.ndarray) -> Tuple[np.ndarray, ...]:
    """Inverse-CDF knots of consecutive sorted-sample slices.

    Slice ``i`` (``values[ptr[i]:ptr[i+1]]``, ``n`` samples) gets knot
    probabilities ``(j + 0.5) / n`` — ``EmpiricalCDF.ppf``'s plotting
    positions.  A one-sample slice becomes two equal knots at 0.25 and
    0.75, which interpolate to the same constant, so the generator may
    assume every non-empty slice has an interior.  Either way a slice of
    ``m`` knots has them at ``(j + 0.5) / m``, which lets the generator
    compute a knot's index instead of searching for it.  Returns
    ``(knot_ptr, p, v, single)``.
    """
    n = np.diff(ptr)
    single = n == 1
    size = np.where(single, 2, n)
    knot_ptr = _offsets(size)
    owner = np.repeat(np.arange(n.size), size)
    j = np.arange(knot_ptr[-1]) - knot_ptr[:-1][owner]
    p = (j + 0.5) / n[owner]
    one = single[owner]
    p[one] = np.where(j[one] == 0, 0.25, 0.75)
    v = values[ptr[:-1][owner] + np.where(one, 0, j)]
    return knot_ptr, p, v, single


class HourModel:
    """All cluster models of one (device, hour), as flat tables.

    The attributes named in :data:`GENERATOR_COLUMNS` and
    :data:`VIEW_COLUMNS` are NumPy arrays; build them with
    :meth:`from_columns` (the fitter, 5G scaling) or :meth:`from_dict`
    (v1 JSON).  ``assignment`` is a dict built per call.
    """

    def __init__(
        self, machine_kind: str, columns: Mapping[str, np.ndarray]
    ) -> None:
        self.machine_kind = machine_kind
        self.__dict__.update(columns)
        self.S = len(state_space(machine_kind).names)
        self.num_clusters = int(self.num_ues.size)
        self.has_exp = bool((self.edge_kind == 1).any())
        self.overlay_clusters = np.flatnonzero(
            (self.overlay_rates > 0).any(axis=1)
        ).tolist()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_columns(
        cls,
        machine_kind: str,
        *,
        num_ues,
        num_segments,
        assign_keys,
        assign_vals,
        edge_cluster,
        edge_state,
        edge_event,
        edge_target,
        edge_prob,
        edge_rate,
        sojourn_ptr,
        sojourn_values,
        p_active,
        fe_cluster,
        fe_event,
        fe_prob,
        offset_ptr,
        offset_values,
        overlay_events,
        overlay_rates,
    ) -> "HourModel":
        """Assemble the tables from per-edge and per-cluster columns.

        Edges come sorted by (cluster, state code), each with its source
        ``edge_state`` and ``edge_target`` as machine state codes; edge
        ``i``'s sojourn is the sorted sample slice
        ``sojourn_values[sojourn_ptr[i]:sojourn_ptr[i+1]]``, or, when that
        slice is empty, exponential at ``edge_rate[i]``.  First events
        come sorted by (cluster, event code); every cluster has a
        non-empty offset slice in ``offset_values``.
        """
        space = state_space(machine_kind)
        S = len(space.names)
        num_ues = np.asarray(num_ues, dtype=np.int64)
        C = num_ues.size
        edge_cluster = np.asarray(edge_cluster, dtype=np.int64)
        edge_state = np.asarray(edge_state, dtype=np.int64)
        edge_prob = np.asarray(edge_prob, dtype=np.float64)
        base = edge_cluster * S
        src = base + edge_state
        starts = group_starts(src)
        cum = grouped_cumsum(edge_prob, starts)
        if cum.size:
            cum[np.append(starts[1:], cum.size) - 1] = 1.0
        edge_kind = (np.diff(sojourn_ptr) == 0).astype(np.int8)
        knot_ptr, knot_p, knot_v, edge_single = _padded(
            np.asarray(sojourn_ptr, dtype=np.int64),
            np.asarray(sojourn_values, dtype=np.float64),
        )

        fe_cluster = np.asarray(fe_cluster, dtype=np.int64)
        fe_event = np.asarray(fe_event, dtype=np.int16)
        fe_state = space.canonical_next[fe_event]
        if (fe_state < 0).any():
            c = int(fe_cluster[fe_state < 0][0])
            bad = sorted({EventType(int(e)).name for e in fe_event[fe_state < 0]})
            raise ValueError(
                f"c{c}: fe_event: first-event types {bad} have no canonical "
                f"source state in {machine_kind}"
            )
        fe_ptr = _offsets(np.bincount(fe_cluster, minlength=C))
        has_fe = np.diff(fe_ptr) > 0
        fe_cum = grouped_cumsum(fe_prob, fe_ptr[:-1][has_fe])
        fe_cum[fe_ptr[1:][has_fe] - 1] = 1.0
        foff_ptr, foff_p, foff_v, foff_single = _padded(
            np.asarray(offset_ptr, dtype=np.int64),
            np.asarray(offset_values, dtype=np.float64),
        )

        weights_cum = np.cumsum(_weights(num_ues))
        if weights_cum.size:
            weights_cum[-1] = 1.0

        return cls(
            machine_kind,
            {
                "state_deg": np.bincount(src, minlength=C * S).astype(np.int64),
                "sel_key": (edge_state + cum) + base,
                "edge_event": np.asarray(edge_event, dtype=np.int16),
                "edge_target": np.asarray(edge_target, dtype=np.int64) + base,
                "edge_kind": edge_kind,
                "edge_rate": np.where(edge_kind == 1, edge_rate, 1.0),
                "edge_knot_ptr": knot_ptr,
                "knot_p": knot_p,
                "knot_v": knot_v,
                "p_active": np.where(has_fe, p_active, 0.0),
                "fe_key": fe_cluster + fe_cum,
                "fe_event": fe_event,
                "fe_state": fe_state,
                "foff_ptr": foff_ptr,
                "foff_p": foff_p,
                "foff_v": foff_v,
                "overlay_events": np.asarray(overlay_events, dtype=np.int64),
                "overlay_rates": np.asarray(overlay_rates, dtype=np.float64),
                "assign_keys": np.asarray(assign_keys, dtype=np.int64),
                "assign_vals": np.asarray(assign_vals, dtype=np.int32),
                "weights_cum": weights_cum,
                "edge_prob": edge_prob,
                "edge_single": edge_single,
                "fe_ptr": fe_ptr,
                "fe_prob": np.asarray(fe_prob, dtype=np.float64),
                "foff_single": foff_single,
                "num_ues": num_ues,
                "num_segments": np.asarray(num_segments, dtype=np.int64),
            },
        )

    def columns(self) -> Dict[str, np.ndarray]:
        """The :meth:`from_columns` arguments that rebuild these tables.

        Sojourn and offset knots come un-padded: a one-sample CDF is its
        one sample again.
        """
        S = self.S
        edge_cluster, edge_state = np.divmod(
            np.repeat(np.arange(self.state_deg.size), self.state_deg), S
        )
        sojourn_ptr, sojourn_values = _gather(
            self.edge_knot_ptr[:-1],
            np.diff(self.edge_knot_ptr) - self.edge_single,
            self.knot_v,
        )
        offset_ptr, offset_values = _gather(
            self.foff_ptr[:-1], np.diff(self.foff_ptr) - self.foff_single, self.foff_v
        )
        return dict(
            num_ues=self.num_ues,
            num_segments=self.num_segments,
            assign_keys=self.assign_keys,
            assign_vals=self.assign_vals,
            edge_cluster=edge_cluster,
            edge_state=edge_state,
            edge_event=self.edge_event,
            edge_target=self.edge_target - edge_cluster * S,
            edge_prob=self.edge_prob,
            edge_rate=self.edge_rate,
            sojourn_ptr=sojourn_ptr,
            sojourn_values=sojourn_values,
            p_active=self.p_active,
            fe_cluster=np.repeat(
                np.arange(self.num_clusters), np.diff(self.fe_ptr)
            ),
            fe_event=self.fe_event,
            fe_prob=self.fe_prob,
            offset_ptr=offset_ptr,
            offset_values=offset_values,
            overlay_events=self.overlay_events,
            overlay_rates=self.overlay_rates,
        )

    @property
    def assignment(self) -> Dict[int, int]:
        """Training UE id -> cluster index."""
        return dict(zip(self.assign_keys.tolist(), self.assign_vals.tolist()))

    # ------------------------------------------------------------------
    def weights(self) -> np.ndarray:
        """UE-count share of each cluster."""
        return _weights(self.num_ues)

    def problems(self) -> List[str]:
        """The audit of one hour's tables, each problem as
        ``"c<cluster>: <field>: <what>"`` (first offending cluster).

        Besides the array checks (pointers, probabilities summing to 1,
        knots, rates, ``p_active``, assignment ids), every edge must be
        one the machine allows, into the state the machine enters.
        """
        C, S = self.num_clusters, self.S
        if C == 0:
            return ["c0: num_ues: no clusters"]
        for field, ptr, size in (
            ("edge_knot_ptr", self.edge_knot_ptr, self.knot_v.size),
            ("foff_ptr", self.foff_ptr, self.foff_v.size),
            ("fe_ptr", self.fe_ptr, self.fe_event.size),
        ):
            if ptr[0] != 0 or ptr[-1] != size or (np.diff(ptr) < 0).any():
                return [f"c0: {field}: pointers not monotone within [0, {size}]"]
        found: List[str] = []

        def flag(bad, cluster, field, what):
            hit = np.flatnonzero(bad)
            if hit.size:
                found.append(f"c{int(cluster[hit[0]])}: {field}: {what}")

        def not_finite(x, positive=False):
            return ~(np.isfinite(x) & ((x > 0) if positive else (x >= 0)))

        cl = np.arange(C)
        state_c = np.arange(C * S) // S
        src = np.repeat(np.arange(C * S), self.state_deg)
        edge_c = src // S
        state_sum = np.bincount(src, weights=self.edge_prob, minlength=C * S)
        fe_c = np.repeat(cl, np.diff(self.fe_ptr))
        fe_sum = np.bincount(fe_c, weights=self.fe_prob, minlength=C)
        flag((self.edge_target < 0) | (self.edge_target >= C * S), edge_c,
             "edge_target", "code out of range")
        table = table_for(build_machine(self.machine_kind))
        state, target = src % S, self.edge_target % S
        nxt = table.next_state[state, self.edge_event]
        for bad, field, what in (
            (nxt < 0, "edge_event", "forbidden edge {s} --{e}-->"),
            ((nxt >= 0) & (nxt != target), "edge_target",
             "edge {s} --{e}--> {t} disagrees with the machine"),
        ):
            hit = np.flatnonzero(bad)
            if hit.size:
                i = hit[0]
                found.append(f"c{int(edge_c[i])}: {field}: " + what.format(
                    s=table.names[state[i]], t=table.names[target[i]],
                    e=_EVENT_NAMES[int(self.edge_event[i])],
                ))
        flag(not_finite(self.edge_prob), edge_c, "edge_prob",
             "probability negative or not finite")
        flag((self.state_deg > 0) & ~(np.abs(state_sum - 1.0) <= _PROB_TOL),
             state_c, "edge_prob", "a state's probabilities do not sum to 1")
        flag(not_finite(self.fe_prob), fe_c, "fe_prob",
             "probability negative or not finite")
        flag((np.diff(self.fe_ptr) > 0) & ~(np.abs(fe_sum - 1.0) <= _PROB_TOL),
             cl, "fe_prob", "probabilities do not sum to 1")
        for field, values, ptr, owner in (
            ("knot_v", self.knot_v, self.edge_knot_ptr, edge_c),
            ("foff_v", self.foff_v, self.foff_ptr, cl),
        ):
            slice_of = np.repeat(np.arange(ptr.size - 1), np.diff(ptr))
            owner = owner[slice_of]
            flag(not_finite(values), owner, field, "knot negative or not finite")
            same_slice = slice_of[1:] == slice_of[:-1]
            flag(same_slice & (np.diff(values) < 0), owner[1:], field,
                 "knots not sorted")
        flag(not_finite(self.edge_rate, positive=True), edge_c, "edge_rate",
             "rate not finite and positive")
        flag(not_finite(self.overlay_rates).any(axis=1), cl, "overlay_rates",
             "rate negative or not finite")
        flag(~((self.p_active >= 0) & (self.p_active <= 1)), cl, "p_active",
             "outside [0, 1]")
        flag((self.assign_vals < 0) | (self.assign_vals >= C), self.assign_vals,
             "assign_vals", f"cluster id out of range for {C} clusters")
        return found

    # ------------------------------------------------------------------
    # v1 JSON
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """This hour as ``repro-model-set-v1`` JSON.

        Each cluster lists the states that have edges, in state-code
        order, with their edges in table order; first events in
        event-code order; every overlay event, zeros included; and each
        CDF's knots as stored.
        """
        names = state_space(self.machine_kind).names
        cols = self.columns()
        kptr = cols["sojourn_ptr"].tolist()
        knots = cols["sojourn_values"].tolist()
        chains: List[Dict[str, list]] = [{} for _ in range(self.num_clusters)]
        for e, (c, s, event, target, prob, kind, rate) in enumerate(
            zip(
                cols["edge_cluster"].tolist(),
                cols["edge_state"].tolist(),
                self.edge_event.tolist(),
                cols["edge_target"].tolist(),
                self.edge_prob.tolist(),
                self.edge_kind.tolist(),
                self.edge_rate.tolist(),
            )
        ):
            chains[c].setdefault(names[s], []).append(
                {
                    "event": _EVENT_NAMES[event],
                    "target": names[target],
                    "probability": prob,
                    "sojourn": (
                        {"family": "poisson", "rate": rate}
                        if kind
                        else {"family": "empirical", "quantiles": knots[kptr[e]:kptr[e + 1]]}
                    ),
                }
            )
        fe_names = [_EVENT_NAMES[e] for e in self.fe_event.tolist()]
        fe_prob = self.fe_prob.tolist()
        fe_ptr = self.fe_ptr.tolist()
        optr = cols["offset_ptr"].tolist()
        offsets = cols["offset_values"].tolist()
        overlay_names = [_EVENT_NAMES[e] for e in self.overlay_events.tolist()]
        overlay = self.overlay_rates.tolist()
        p_active = self.p_active.tolist()
        num_ues = self.num_ues.tolist()
        num_segments = self.num_segments.tolist()
        clusters = []
        for c, chain in enumerate(chains):
            lo, hi = fe_ptr[c], fe_ptr[c + 1]
            clusters.append(
                {
                    "chain": chain,
                    "first_event": {
                        "p_active": p_active[c],
                        "event_probs": dict(zip(fe_names[lo:hi], fe_prob[lo:hi])),
                        "offset": offsets[optr[c]:optr[c + 1]],
                    },
                    "overlay_rates": dict(zip(overlay_names, overlay[c])),
                    "num_ues": num_ues[c],
                    "num_segments": num_segments[c],
                }
            )
        return {
            "clusters": clusters,
            "assignment": {
                str(ue): cid
                for ue, cid in zip(
                    self.assign_keys.tolist(), self.assign_vals.tolist()
                )
            },
        }

    @classmethod
    def from_dict(cls, data: dict, machine_kind: str) -> "HourModel":
        """Build the tables of one hour of :meth:`to_dict` output.

        Knot lists are sorted, and zero-probability edges left out, as
        they can never be drawn.  Raises :class:`ValueError` naming the
        cluster and field of the first value that cannot be tabled: a
        state or target outside the machine, a number that does not
        parse, a negative or non-finite probability, a state whose
        probabilities do not sum to 1, ``p_active`` outside [0, 1], an
        empty, negative or non-finite knot list, a bad rate or sojourn
        family, or a first event no state of the machine can emit.  A
        missing key or an unknown event name is a :class:`KeyError`.
        """
        code = state_space(machine_kind).code
        edges: List[tuple] = []  # (cluster, state, event, target, p, rate)
        sojourns: List[np.ndarray] = []
        firsts: List[tuple] = []  # (cluster, event, p)
        offsets: List[np.ndarray] = []
        overlays: List[Dict[int, float]] = []
        counts: List[Tuple[int, int]] = []  # (num_ues, num_segments)
        p_active: List[float] = []
        for c, cluster in enumerate(data["clusters"]):
            chain = cluster["chain"]
            for name in sorted(chain, key=lambda s: code.get(s, -1)):
                if name not in code:
                    raise ValueError(f"c{c}: chain: state {name!r} unknown to {machine_kind}")
                total = 0.0
                for edge in chain[name]:
                    event = EventType[edge["event"]]
                    arrow = f"{name} --{event.name}-->"
                    prob = _probability(edge["probability"], f"c{c}: edge_prob: {arrow}")
                    total += prob
                    target = edge["target"]
                    if target not in code:
                        raise ValueError(f"c{c}: chain: target {target!r} unknown to {machine_kind}")
                    sojourn = edge["sojourn"]
                    where = f"c{c}: chain: {arrow} sojourn"
                    if sojourn["family"] == "empirical":
                        rate, knots = 1.0, _knots(sojourn["quantiles"], where)
                    elif sojourn["family"] == "poisson":
                        rate, knots = _number(sojourn["rate"], where), np.empty(0)
                        if not (rate > 0 and np.isfinite(rate)):
                            raise ValueError(f"{where}: rate must be positive and finite, got {rate}")
                    else:
                        raise ValueError(f"{where}: unknown family {sojourn['family']!r}")
                    if prob > 0.0:
                        edges.append(
                            (c, code[name], int(event), code[target], prob, rate)
                        )
                        sojourns.append(knots)
                if chain[name] and abs(total - 1.0) > _PROB_TOL:
                    raise ValueError(
                        f"c{c}: edge_prob: probabilities from {name} sum to {total:.6f}"
                    )
            first = cluster["first_event"]
            active = _number(first["p_active"], f"c{c}: p_active")
            if not 0.0 <= active <= 1.0:
                raise ValueError(f"c{c}: p_active: must be in [0, 1], got {active}")
            p_active.append(active)
            probs = {int(EventType[e]): p for e, p in first["event_probs"].items()}
            for event in sorted(probs):
                where = f"c{c}: fe_prob: first event {_EVENT_NAMES[event]}"
                firsts.append((c, event, _probability(probs[event], where)))
            offsets.append(_knots(first["offset"], f"c{c}: first_event: offset"))
            overlays.append(
                {
                    int(EventType[e]): _number(r, f"c{c}: overlay_rates: {e}")
                    for e, r in cluster["overlay_rates"].items()
                }
            )
            counts.append(
                (
                    _integer(cluster["num_ues"], f"c{c}: num_ues"),
                    _integer(cluster["num_segments"], f"c{c}: num_segments"),
                )
            )

        overlay_events = sorted({e for rates in overlays for e in rates})
        overlay_rates = np.zeros((len(overlays), len(overlay_events)))
        for c, rates in enumerate(overlays):
            overlay_rates[c] = [rates.get(e, 0.0) for e in overlay_events]
        assignment = sorted(
            (_integer(ue, f"assign_keys: UE {ue!r}"), _integer(cid, f"assign_vals: UE {ue}"))
            for ue, cid in data["assignment"].items()
        )
        e_cl, e_st, e_ev, e_tg, e_p, e_rate = zip(*edges) if edges else ((),) * 6
        f_cl, f_ev, f_p = zip(*firsts) if firsts else ((),) * 3
        return cls.from_columns(
            machine_kind,
            num_ues=[n for n, _ in counts],
            num_segments=[n for _, n in counts],
            assign_keys=[u for u, _ in assignment],
            assign_vals=[c for _, c in assignment],
            edge_cluster=e_cl,
            edge_state=e_st,
            edge_event=e_ev,
            edge_target=e_tg,
            edge_prob=e_p,
            edge_rate=np.asarray(e_rate, dtype=np.float64),
            sojourn_ptr=_offsets([k.size for k in sojourns]),
            sojourn_values=np.concatenate(sojourns) if sojourns else np.empty(0),
            p_active=p_active,
            fe_cluster=f_cl,
            fe_event=f_ev,
            fe_prob=f_p,
            offset_ptr=_offsets([o.size for o in offsets]),
            offset_values=np.concatenate(offsets) if offsets else np.empty(0),
            overlay_events=overlay_events,
            overlay_rates=overlay_rates,
        )


@dataclasses.dataclass
class ModelSet:
    """The complete fitted traffic model (every device, hour, cluster)."""

    machine_kind: str                    #: "two_level" | "emm_ecm" | "nr_sa"
    family: str                          #: "empirical" | "poisson"
    clustered: bool
    models: Dict[DeviceType, Dict[int, HourModel]]
    device_ues: Dict[DeviceType, List[int]]  #: training UEs per device
    theta_f: float
    theta_n: int

    # ------------------------------------------------------------------
    @property
    def num_models(self) -> int:
        """Total number of (device, hour, cluster) models."""
        return sum(
            hm.num_clusters
            for hours in self.models.values()
            for hm in hours.values()
        )

    @property
    def device_types(self) -> List[DeviceType]:
        return sorted(self.models, key=int)

    def hours(self, device_type: DeviceType) -> List[int]:
        """Hours-of-day with a fitted model for ``device_type``."""
        return sorted(self.models[device_type])

    def hour_model(self, device_type: DeviceType, hour: int) -> Optional[HourModel]:
        """The models of one hour-of-day, or ``None`` if not fitted."""
        return self.models.get(device_type, {}).get(hour % 24)

    def machine(self) -> StateMachine:
        return build_machine(self.machine_kind)

    def content_hash(self) -> str:
        """SHA-256 over the canonical JSON serialization of this model set.

        Generation checkpoints (:mod:`repro.generator.checkpoint`) embed
        this hash so a resumed run can prove it is using byte-identical
        model content — resuming against a different (or re-fitted)
        model set would silently break the bit-identity guarantee.
        Memoized per instance; mutating a model set after hashing it is
        not supported.
        """
        cached = getattr(self, "_content_hash_cache", None)
        if cached is None:
            payload = json.dumps(
                self.to_dict(), sort_keys=True, separators=(",", ":")
            )
            cached = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            self._content_hash_cache = cached
        return cached

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": "repro-model-set-v1",
            "machine_kind": self.machine_kind,
            "family": self.family,
            "clustered": self.clustered,
            "theta_f": self.theta_f,
            "theta_n": self.theta_n,
            "models": {
                dt.name: {str(h): hm.to_dict() for h, hm in hours.items()}
                for dt, hours in self.models.items()
            },
            "device_ues": {
                dt.name: list(ues) for dt, ues in self.device_ues.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ModelSet":
        """Build a model set from :meth:`to_dict` output, checked.

        Raises :class:`ValueError` naming the device, hour, cluster and
        field of the first value an hour's tables cannot be built from
        (:meth:`HourModel.from_dict`), then of every problem
        :func:`repro.model.checks.validate_model_set` reports.
        """
        from .checks import validate_model_set

        if data.get("format") != "repro-model-set-v1":
            raise ValueError(f"unknown model-set format {data.get('format')!r}")
        machine_kind = data["machine_kind"]
        build_machine(machine_kind)
        models: Dict[DeviceType, Dict[int, HourModel]] = {}
        for name, hours in data["models"].items():
            device_models = models.setdefault(DeviceType[name], {})
            for h, hm in hours.items():
                try:
                    device_models[int(h)] = HourModel.from_dict(hm, machine_kind)
                except ValueError as exc:
                    raise ValueError(f"{name}/h{h}/{exc}") from None
        model_set = cls(
            machine_kind=machine_kind,
            family=data["family"],
            clustered=bool(data["clustered"]),
            theta_f=float(data["theta_f"]),
            theta_n=int(data["theta_n"]),
            models=models,
            device_ues={
                DeviceType[name]: [int(u) for u in ues]
                for name, ues in data["device_ues"].items()
            },
        )
        problems = validate_model_set(model_set)
        if problems:
            raise ValueError(
                "invalid model set: " + "; ".join(problems)
            )
        return model_set

    def save(self, path: PathLike) -> None:
        """Write the model set as (gzipped, if ``.gz``) JSON."""
        payload = json.dumps(self.to_dict())
        if str(path).endswith(".gz"):
            with gzip.open(path, "wt") as fh:
                fh.write(payload)
        else:
            with open(path, "w") as fh:
                fh.write(payload)

    @classmethod
    def load(cls, path: PathLike) -> "ModelSet":
        """Read a model set written by :meth:`save`, checked as in
        :meth:`from_dict`; errors name the file."""
        if str(path).endswith(".gz"):
            with gzip.open(path, "rt") as fh:
                data = json.load(fh)
        else:
            with open(path) as fh:
                data = json.load(fh)
        try:
            return cls.from_dict(data)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
