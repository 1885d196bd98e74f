"""Per-UE reference generator (§7), one Python-level chain step per event.

Each synthetic UE runs its own instance: the first hour's event is
placed by the first-event model, after which the semi-Markov chain of
the UE's cluster is driven hour after hour.  At every hour boundary the
pending event is dropped and the dwell re-sampled from the new hour's
model (the paper's timer-reset-on-model-switch semantics); UEs whose
chain parks in a state with no fitted transitions stay silent until a
later hour's model moves them again.

For EMM–ECM baselines the cluster model additionally carries per-UE
Poisson rates for ``HO``/``TAU``; those are overlaid uniformly over the
hour, oblivious to the UE state — faithfully reproducing the baseline's
"HO in IDLE" artifact the paper quantifies in Tables 4/11.

The production engine (:mod:`repro.generator.compiled`) steps whole
cohorts with counter-based SplitMix64 draws; this walk draws from a
stateful PCG64 stream per UE, so the two are only *statistically*
equivalent (the differential tests compare them with two-sample KS).

The module also keeps the searched and looped forms of three pieces of
the engine's arithmetic, which the engine must equal exactly: the
term-by-term Poisson inversion, and the knot interval found by a
composite-key ``searchsorted``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.generator import TrafficGenerator, compiled
from repro.generator.traffgen import DeviceCounts, validate_run_args
from repro.model.model_set import ModelSet
from repro.stats.counter_rng import norm_ppf
from repro.statemachines.fsm import StateMachine
from repro.statemachines.compiled_replay import _canonical_source_for
from repro.trace.events import (
    SECONDS_PER_HOUR,
    DeviceType,
    quantize_times,
    quantize_timestamp,
)
from repro.trace.trace import Trace

from .objects import cluster_for_ue, cluster_view


class UeSession:
    """One UE's generation state, advanced one hour at a time."""

    def __init__(
        self,
        model_set: ModelSet,
        device_type: DeviceType,
        persona: int,
        *,
        start_hour: int,
        rng: np.random.Generator,
        machine: Optional[StateMachine] = None,
    ) -> None:
        self.model_set = model_set
        self.device_type = device_type
        self.persona = persona
        self.start_hour = start_hour
        self.rng = rng
        self.machine = machine if machine is not None else model_set.machine()
        self.state: Optional[str] = None
        self._next_hour_idx = 0

    def advance_hour(self) -> Tuple[List[float], List[int]]:
        """Generate the next hour's events (times relative to t=0)."""
        hour_idx = self._next_hour_idx
        self._next_hour_idx += 1
        hour = (self.start_hour + hour_idx) % 24
        hour_model = self.model_set.hour_model(self.device_type, hour)
        if hour_model is None:
            return [], []  # no model for this hour-of-day; keep the state

        rng = self.rng
        machine = self.machine
        cluster = cluster_view(hour_model)[
            cluster_for_ue(hour_model, self.persona, rng)
        ]
        hour_start = hour_idx * SECONDS_PER_HOUR
        hour_end = hour_start + SECONDS_PER_HOUR

        times: List[float] = []
        events: List[int] = []
        t = hour_start
        if self.state is None:
            first = cluster.first_event.sample(rng)
            if first is None:
                _overlay_events(cluster, hour_start, hour_end, rng, times, events)
                return times, events
            event, offset = first
            t = hour_start + offset
            times.append(quantize_timestamp(t))
            events.append(int(event))
            self.state = machine.next_state(
                _canonical_source_for(machine, event), event
            )

        emitted = 0
        while emitted < compiled.MAX_EVENTS_PER_HOUR:
            step = cluster.chain.step(self.state, rng)
            if step is None:
                break  # absorbing under this hour's model; park
            dwell, event, target = step
            t_next = t + dwell
            if t_next >= hour_end:
                break  # hour boundary: drop the pending event
            times.append(quantize_timestamp(t_next))
            events.append(int(event))
            self.state = target
            t = t_next
            emitted += 1

        _overlay_events(cluster, hour_start, hour_end, rng, times, events)
        return times, events


def generate_ue_events(
    model_set: ModelSet,
    device_type: DeviceType,
    persona: int,
    *,
    start_hour: int,
    num_hours: int,
    rng: np.random.Generator,
    machine: Optional[StateMachine] = None,
) -> Tuple[List[float], List[int]]:
    """Generate one UE's events over ``num_hours`` hours.

    ``persona`` is a training-trace UE id; each hour the synthetic UE
    uses the cluster this persona belonged to.  Returns ``(times,
    events)`` with times in seconds from generation start.
    """
    if num_hours <= 0:
        raise ValueError(f"num_hours must be positive, got {num_hours}")
    session = UeSession(
        model_set,
        device_type,
        persona,
        start_hour=start_hour,
        rng=rng,
        machine=machine,
    )
    times: List[float] = []
    events: List[int] = []
    for _ in range(num_hours):
        hour_times, hour_events = session.advance_hour()
        times.extend(hour_times)
        events.extend(hour_events)
    return times, events


def generate(
    model_set: ModelSet,
    num_ues: DeviceCounts,
    *,
    start_hour: int = 0,
    num_hours: int = 1,
    seed: int = 0,
    first_ue_id: int = 0,
) -> Trace:
    """The reference counterpart of ``TrafficGenerator.generate``.

    UE ``i`` (in device-code order) draws its persona and every later
    decision from ``SeedSequence(seed, spawn_key=(i,))``, so the output
    is invariant to generation order.
    """
    validate_run_args(
        start_hour=start_hour,
        num_hours=num_hours,
        seed=seed,
        first_ue_id=first_ue_id,
    )
    counts = TrafficGenerator(model_set).resolve_counts(num_ues)
    machine = model_set.machine()
    ue_col, time_col, event_col, device_col = [], [], [], []
    ue_id = first_ue_id
    stream_idx = 0
    for device_type in sorted(counts, key=int):
        personas = np.asarray(
            model_set.device_ues.get(device_type, []), dtype=np.int64
        )
        for _ in range(counts[device_type]):
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(stream_idx,))
            )
            stream_idx += 1
            persona = int(personas[rng.integers(personas.size)])
            times, events = generate_ue_events(
                model_set,
                device_type,
                persona,
                start_hour=start_hour,
                num_hours=num_hours,
                rng=rng,
                machine=machine,
            )
            n = len(times)
            if n:
                ue_col.append(np.full(n, ue_id, dtype=np.int64))
                time_col.append(np.asarray(times, dtype=np.float64))
                event_col.append(np.asarray(events, dtype=np.int8))
                device_col.append(np.full(n, int(device_type), dtype=np.int8))
            ue_id += 1
    if not ue_col:
        return Trace.empty()
    return Trace(
        np.concatenate(ue_col),
        np.concatenate(time_col),
        np.concatenate(event_col),
        np.concatenate(device_col),
    )


def _overlay_events(
    cluster,
    hour_start: float,
    hour_end: float,
    rng: np.random.Generator,
    times: List[float],
    events: List[int],
) -> None:
    """Add the baseline's state-oblivious Poisson HO/TAU events."""
    for event, rate in cluster.overlay_rates.items():
        if rate <= 0:
            continue
        n = min(
            rng.poisson(rate * (hour_end - hour_start)), compiled.MAX_EVENTS_PER_HOUR
        )
        if n == 0:
            continue
        ts = np.sort(rng.uniform(hour_start, hour_end, size=n))
        times.extend(quantize_times(ts).tolist())
        events.extend([int(event)] * int(n))


# ---------------------------------------------------------------------------
# Searched and looped forms of the engine's arithmetic
# ---------------------------------------------------------------------------


def poisson_from_uniform(u: np.ndarray, lam: float) -> np.ndarray:
    """Poisson counts by term-by-term CDF inversion of ``u``: the loop
    that ``compiled._poisson_from_uniform``'s table must equal bit for
    bit (the normal branch above ``compiled._POISSON_INVERT_MAX`` is the
    engine's own)."""
    if lam > compiled._POISSON_INVERT_MAX:
        counts = np.rint(lam + math.sqrt(lam) * norm_ppf(u) - 0.5)
        return np.maximum(counts, 0.0).astype(np.int64)
    term = math.exp(-lam)
    n = np.zeros(u.shape, dtype=np.int64)
    terms = np.full(u.shape, term)
    cdf = terms.copy()
    cap = int(lam + 12.0 * math.sqrt(lam + 1.0) + 64)
    for k in range(1, cap + 1):
        active = u >= cdf
        if not active.any():
            break
        terms *= lam / k
        cdf += terms
        n[active] += 1
    return n


def knot_keys(ptr: np.ndarray, kp: np.ndarray, owner_base: np.ndarray) -> np.ndarray:
    """Composite search keys ``segment + p`` of a knot table, summed as
    ``((i - owner_base[i]) + p) + owner_base[i]`` (edges are numbered
    from their cluster's first edge, then offset by it)."""
    owner = np.repeat(np.arange(ptr.size - 1), np.diff(ptr))
    base = owner_base[owner]
    return ((owner - base) + kp) + base


def interp_knots_by_search(
    kb: np.ndarray,
    u: np.ndarray,
    key: np.ndarray,
    ptr: np.ndarray,
    kp: np.ndarray,
    kv: np.ndarray,
) -> np.ndarray:
    """``compiled._interp_knots`` with the interval found by a
    ``searchsorted`` of ``kb + u`` in the composite keys ``key``."""
    lo = ptr[kb]
    hi = ptr[kb + 1]
    pos = np.searchsorted(key, kb + u)
    pc = np.minimum(np.maximum(pos, lo + 1), hi - 1)
    p0 = kp[pc - 1]
    p1 = kp[pc]
    v0 = kv[pc - 1]
    v1 = kv[pc]
    uu = np.minimum(np.maximum(u, p0), p1)
    return v0 + (uu - p0) * (v1 - v0) / (p1 - p0)
