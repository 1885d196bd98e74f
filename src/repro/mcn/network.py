"""Discrete-event simulation of a mobile core's control plane.

Drives a full core network — MME/HSS/SGW/PGW for LTE, AMF/UDM/SMF/UPF
for 5G SA — with a control-plane trace.  Every UE event launches its
3GPP procedure (:mod:`repro.mcn.procedures`); each step queues at its
network function (a FIFO worker pool), is serviced, and hands off to
the next step after an inter-NF link delay.

The procedure map is lowered once per simulator to flat per-step
tables.  A run (:func:`_serve`) splits the events into *clusters*: an
event heads a new one when it arrives after every earlier procedure
could have finished without waiting.  Runs of whole clusters form
windows of a few thousand events, which never interact.  Each window
is served in NumPy array passes as a free-flow schedule, in which
every step starts when it arrives.  Step ``s`` of the ``i``-th handled
event is message ``base[i] + s`` (its *identity*), and takes that
factor of the service-time jitter stream, so a window's service times
are known before any schedule.  The schedule stands when a per-NF
check proves that no message waits.  Otherwise the heap loop over
messages serves the window, with the same jitter, and goes on into
the next window while messages still queue.  Both keep per-message
outputs in identity order and latencies in event order, and give the
same numbers.  :class:`~repro.mcn.mme.MmeSimulator` runs on the same
engine, lowered as a one-function core.

Outputs answer the questions the paper's generator exists to answer:
which function saturates first, what the end-to-end procedure latencies
look like under realistic bursty load, and how the 4G and 5G cores
compare under the same UE behaviour.
"""

from __future__ import annotations

import dataclasses
import heapq
import math
import numbers
from array import array
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..telemetry import RunTelemetry, get_telemetry
from ..trace.events import EventType
from ..trace.trace import Trace
from .procedures import Procedure, functions_for, procedures_for


@dataclasses.dataclass(frozen=True)
class FunctionReport:
    """Load statistics of one network function."""

    name: str
    messages: int
    utilization: float
    mean_wait: float
    p95_wait: float
    max_wait: float


@dataclasses.dataclass(frozen=True)
class ProcedureReport:
    """End-to-end latency statistics of one procedure type."""

    name: str
    count: int
    mean_latency: float
    p95_latency: float
    p99_latency: float
    max_latency: float


@dataclasses.dataclass(frozen=True)
class CoreReport:
    """Outcome of driving the core with one trace."""

    core: str
    num_events: int
    num_messages: int
    span: float
    functions: Dict[str, FunctionReport]
    procedures: Dict[str, ProcedureReport]

    def bottleneck(self) -> Optional[str]:
        """The most utilized network function, or ``None`` if no messages flowed."""
        if self.num_messages == 0:
            return None
        return max(self.functions.values(), key=lambda f: f.utilization).name


class _LoweredCore(NamedTuple):
    """A procedure map lowered to flat per-step tables.

    Steps of every distinct procedure are numbered consecutively; a
    step is identified by one integer ``g`` for the whole core.
    """

    proc_of_event: np.ndarray       #: (len(EventType),) procedure index, -1 if unhandled
    first_step: np.ndarray          #: (P,) ``g`` of each procedure's first step
    step_counts: np.ndarray         #: (P,) steps per procedure
    proc_messages: np.ndarray       #: (P, NF) messages each procedure sends to each NF
    proc_latency: np.ndarray        #: (P,) latency bucket (procedure name)
    step_nf: np.ndarray             #: NF index of step ``g``
    step_mean: np.ndarray           #: mean service time of step ``g``
    step_last: np.ndarray           #: whether step ``g`` ends its procedure
    step_latency: np.ndarray        #: latency bucket of step ``g``
    latency_names: Tuple[str, ...]  #: procedure names, in procedure-map order


def _lower(
    procedures: Mapping[EventType, Procedure], function_names: Tuple[str, ...]
) -> _LoweredCore:
    nf_index = {nf: i for i, nf in enumerate(function_names)}
    distinct = list(dict.fromkeys(procedures.values()))
    names = tuple(dict.fromkeys(p.name for p in distinct))
    proc_of_event = np.full(len(EventType), -1, dtype=np.int8)
    for event, procedure in procedures.items():
        proc_of_event[int(event)] = distinct.index(procedure)
    step_counts = np.array([len(p.steps) for p in distinct], dtype=np.int8)
    first_step = np.concatenate(([0], np.cumsum(step_counts)[:-1])).astype(np.int32)
    proc_messages = np.zeros((len(distinct), len(function_names)), dtype=np.int64)
    proc_latency = np.array([names.index(p.name) for p in distinct], dtype=np.int8)
    step_nf: List[int] = []
    step_mean: List[float] = []
    step_last: List[bool] = []
    step_latency: List[int] = []
    for p, procedure in enumerate(distinct):
        for k, step in enumerate(procedure.steps):
            proc_messages[p, nf_index[step.nf]] += 1
            step_nf.append(nf_index[step.nf])
            step_mean.append(float(step.service_mean))
            step_last.append(k == len(procedure.steps) - 1)
            step_latency.append(int(proc_latency[p]))
    return _LoweredCore(
        proc_of_event=proc_of_event,
        first_step=first_step,
        step_counts=step_counts,
        proc_messages=proc_messages,
        proc_latency=proc_latency,
        step_nf=np.array(step_nf, dtype=np.int8),
        step_mean=np.array(step_mean),
        step_last=np.array(step_last),
        step_latency=np.array(step_latency, dtype=np.int8),
        latency_names=names,
    )


def _check_workers(name: str, value: object) -> int:
    """``value`` as a positive worker count (an ``int`` or NumPy integer,
    not a bool); ``ValueError`` naming ``name`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value <= 0:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _check_seconds(name: str, value: float) -> float:
    """``value`` as a finite, non-negative time in seconds; ``ValueError``
    naming ``name`` otherwise."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")
    return float(value)


def _check_seed(value: int) -> int:
    """``value`` as a jitter seed: ``TypeError`` for a non-integer and
    ``ValueError`` for a negative one, each naming ``seed``."""
    if not isinstance(value, numbers.Integral):
        raise TypeError(f"seed must be an integer, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"seed must be non-negative, got {value}")
    return value


def _check_jitter(value: float) -> float:
    if not 0.0 <= value < 1.0:
        raise ValueError(f"service_jitter must be in [0, 1), got {value!r}")
    return float(value)


#: A window grows to this many handled events, then ends at the last
#: cluster boundary before that point (or the first one after it).
WINDOW_EVENTS = 4096

#: Seconds added to each procedure's latest free-flow end when events
#: are split into clusters, so that rounding never makes two touch.
_CUT_SLACK = 1e-6


class _Served(NamedTuple):
    """What one run of :func:`_serve` measured.  Per-message values are
    in identity order, latencies in event order (see :func:`_serve`)."""

    num_events: int                 #: events that launched a procedure
    num_messages: int               #: messages served
    waits: List[np.ndarray]         #: per NF: each message's queueing delay
    busy: List[float]               #: per NF: sequential sum of service times
    latencies: List[np.ndarray]     #: per bucket: event time to last step's finish
    services: List[np.ndarray]      #: per NF: each message's service time
    windows: int                    #: windows the events were split into
    queued_windows: int             #: windows the heap loop served


class _Window(NamedTuple):
    """What one window measured: per message in identity order, per
    event in event order."""

    services: np.ndarray          #: each message's service time
    nfs: np.ndarray               #: each message's NF index
    waits: Optional[np.ndarray]   #: each message's wait; ``None`` when nothing waited
    latencies: np.ndarray         #: each event's latency (empty when not kept)


class _Tally:
    """The outputs of :func:`_serve`, filled one window at a time.

    ``waits`` start as ``np.zeros`` and are written only for windows in
    which something waited.  ``busy`` goes on as one sequential sum per
    NF across windows.  Latencies are kept in event order, and split by
    bucket at the end; with ``services``, per-NF service times are kept
    instead.
    """

    def __init__(self, per_nf: np.ndarray, num_events: int, services: bool) -> None:
        self.waits = [np.zeros(int(k)) for k in per_nf]
        self.busy = np.zeros(len(per_nf))
        self.services = [np.empty(int(k)) for k in per_nf] if services else []
        self.latencies = np.empty(0 if services else num_events)
        self._nf_at = np.zeros(len(per_nf), dtype=np.int64)
        self._event_at = 0

    def add(self, window: _Window) -> None:
        num_nfs = self.busy.size
        # ``bincount`` adds each bin's weights one by one in input order:
        # led by the carried sums, it goes on with each NF's sequence.
        self.busy = np.bincount(
            np.concatenate((np.arange(num_nfs), window.nfs)),
            weights=np.concatenate((self.busy, window.services)),
            minlength=num_nfs,
        )
        ends = self._nf_at + np.bincount(window.nfs, minlength=num_nfs)
        if self.services or window.waits is not None:
            for nf, (at, end) in enumerate(zip(self._nf_at.tolist(), ends.tolist())):
                mine = window.nfs == nf
                if self.services:
                    self.services[nf][at:end] = window.services[mine]
                if window.waits is not None:
                    self.waits[nf][at:end] = window.waits[mine]
        self._nf_at = ends
        if self.latencies.size:
            at, end = self._event_at, self._event_at + window.latencies.size
            self.latencies[at:end] = window.latencies
            self._event_at = end

    def by_bucket(self, buckets: np.ndarray, num_buckets: int) -> List[np.ndarray]:
        """The latencies of each bucket (given per event), in event order."""
        grouped = self.latencies[np.argsort(buckets, kind="stable")]
        ends = np.cumsum(np.bincount(buckets, minlength=num_buckets))
        return np.split(grouped, ends[:-1])


def _plan_windows(
    low: _LoweredCore, proc: np.ndarray, arrivals: np.ndarray, link_delay: float, jitter: float
) -> Tuple[List[int], np.ndarray]:
    """Where the windows start, and which events head a cluster.

    An event heads a cluster when it arrives after every earlier
    procedure's latest possible free-flow end: its arrival plus the sum
    of ``mean * (1 + jitter)`` over its steps and its link delays.  A
    window is a run of whole clusters of about ``WINDOW_EVENTS`` events.
    Returns the event index each window starts at, then the event
    count, and the head flags (true for the first event).
    """
    horizon = np.array(
        [
            float(low.step_mean[first : first + count].sum()) * (1.0 + jitter)
            + (count - 1) * link_delay
            + _CUT_SLACK
            for first, count in zip(low.first_step.tolist(), low.step_counts.tolist())
        ]
    )
    ends = arrivals + horizon[proc]
    np.maximum.accumulate(ends, out=ends)
    heads = np.empty(arrivals.size, dtype=bool)
    heads[0] = True
    np.greater(arrivals[1:], ends[:-1], out=heads[1:])
    cuts = np.flatnonzero(heads)
    starts = [0]
    while starts[-1] + WINDOW_EVENTS < arrivals.size:
        k = int(np.searchsorted(cuts, starts[-1] + WINDOW_EVENTS, side="right"))
        if cuts[k - 1] > starts[-1]:
            starts.append(int(cuts[k - 1]))
        elif k < cuts.size:
            starts.append(int(cuts[k]))
        else:
            break
    starts.append(arrivals.size)
    return starts, heads


def _messages(
    low: _LoweredCore, proc: np.ndarray, counts: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Each event's first message identity, counted from the first
    event's, and each message's step ``g``, in identity order."""
    base = np.cumsum(counts) - counts
    num_messages = int(base[-1] + counts[-1])
    return base, np.repeat(low.first_step[proc] - base, counts) + np.arange(num_messages)


def _free_flow(
    service: np.ndarray,
    base: np.ndarray,
    counts: np.ndarray,
    arrivals: np.ndarray,
    link_delay: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Free-flow start and finish of each message, in identity order:
    an event's first step starts at its arrival, a step finishes
    ``service`` after it starts, and its successor starts ``link_delay``
    after that.  These are the loop's own sums when nothing waits."""
    longest = int(counts.max())
    if longest == 1:
        return arrivals, arrivals + service
    starts = np.empty(service.size)
    finish = np.empty(service.size)
    # Longest procedures first: the events with more than ``s`` steps
    # are a prefix.
    order = np.argsort(-counts, kind="stable")
    more = (order.size - np.cumsum(np.bincount(counts)))[:longest].tolist()
    first, t = base[order], arrivals[order]
    for s, size in enumerate(more):
        ids = first[:size] + s
        starts[ids] = t[:size]
        t = t[:size] + service[ids]
        finish[ids] = t
        t += link_delay
    return starts, finish


def _flow(
    low: _LoweredCore,
    workers: Sequence[int],
    arrivals: np.ndarray,
    proc: np.ndarray,
    counts: np.ndarray,
    heads: np.ndarray,
    factors: Optional[np.ndarray],
    link_delay: float,
    next_arrival: float,
    latencies: bool,
) -> Optional[_Window]:
    """Serve one window wait-free in array passes.

    ``None`` when a message might wait, or when a cluster runs into the
    next one; the heap loop serves the window then.
    """
    base, step_at = _messages(low, proc, counts)
    service = low.step_mean[step_at]
    if factors is not None:
        service *= factors
    starts, finish = _free_flow(service, base, counts, arrivals, link_delay)
    last_finish = finish[base + counts - 1]
    nfs = low.step_nf[step_at]

    # Clusters must not meet: each starts after every earlier message
    # finished (so also after it arrived).  Then a message can wait only
    # for its own cluster's, and none of a one-event cluster waits.
    latest = np.maximum.accumulate(last_finish)
    later = np.flatnonzero(heads[1:])
    if latest[-1] >= next_arrival or (arrivals[later + 1] <= latest[later]).any():
        return None
    # In a cluster of several events, no message waits if each arrives
    # no earlier than the latest finish among all but the last
    # ``workers - 1`` messages before it at its NF: one of the NF's
    # workers is free by then.  Messages are taken by arrival, a time
    # tie longest finish first, which bounds every order of the tie.
    bounds = np.append(heads, True)
    shared = np.repeat(~(bounds[:-1] & bounds[1:]), counts)
    if shared.any():
        nf, t, done = nfs[shared], starts[shared], finish[shared]
        by_nf = np.lexsort((-done, t, nf))
        t, done = t[by_nf], done[by_nf]
        lo = 0
        for size, hi in zip(workers, np.cumsum(np.bincount(nf, minlength=len(workers))).tolist()):
            if hi - lo > size and (
                t[lo + size : hi] < np.maximum.accumulate(done[lo : hi - size])
            ).any():
                return None
            lo = hi
    values = last_finish - arrivals if latencies else np.empty(0)
    return _Window(service, nfs, None, values)


class _Loop:
    """The FIFO heap loop over handled events, from the first of
    ``arrivals`` and ``first_steps`` on.

    :meth:`serve` pops messages in time order; on a time tie an initial
    step goes first, then follow-ups in launch order.  Message ``m``,
    counted from the loop's first, takes the ``m``-th factor
    :meth:`add` was given and writes its outputs at ``m``; an event's
    latency goes at the event.  The state carries over, so a run that
    has not settled by the next window's first arrival goes on into
    that window.
    """

    def __init__(
        self,
        low: _LoweredCore,
        workers: Sequence[int],
        arrivals: memoryview,
        first_steps: memoryview,
        link_delay: float,
    ) -> None:
        self.arrivals = arrivals
        self.first_steps = first_steps
        self.i = 0
        self.link_delay = link_delay
        self.pools = [[arrivals[0]] * size for size in workers]
        # In-flight follow-up steps: (time, counter, step, message, event).
        # An initial step wins a time tie: its counter would be smaller.
        self.pending: List[Tuple[float, int, int, int, int]] = []
        self.counter = 0
        self.first_message = array("q")
        self.factors = array("d")
        self.waits = array("d")
        self.services = array("d")
        self.latencies = array("d")
        self.step_mean = low.step_mean.tolist()
        self.next_step = [
            -1 if last else g + 1 for g, last in enumerate(low.step_last.tolist())
        ]
        self.pool_of = [self.pools[nf] for nf in low.step_nf.tolist()]

    def add(self, factors: Optional[np.ndarray], counts: np.ndarray) -> None:
        """Take on the next window: events of ``counts`` steps, whose
        messages take ``factors`` (ones if ``None``)."""
        base = np.cumsum(counts, dtype=np.int64) - counts
        messages = int(base[-1] + counts[-1])
        self.first_message.frombytes((base + len(self.factors)).tobytes())
        self.factors.frombytes((factors if factors is not None else np.ones(messages)).tobytes())
        self.waits.frombytes(bytes(8 * messages))
        self.services.frombytes(bytes(8 * messages))
        self.latencies.frombytes(bytes(8 * counts.size))

    def serve(self, end: int) -> None:
        """Pop messages until the next one would be event ``end``'s
        first step, or none is left."""
        arrivals, first_steps, first_message = self.arrivals, self.first_steps, self.first_message
        factors, waits, services = self.factors, self.waits, self.services
        step_mean, next_step, pool_of = self.step_mean, self.next_step, self.pool_of
        latencies, link_delay = self.latencies, self.link_delay
        pending, i, counter = self.pending, self.i, self.counter
        next_arrival = arrivals[end] if end < len(arrivals) else math.inf
        while True:
            if i < end and (not pending or arrivals[i] <= pending[0][0]):
                t = arrivals[i]
                g = first_steps[i]
                m = first_message[i]
                e = i
                i += 1
            elif pending and pending[0][0] < next_arrival:
                t, _, g, m, e = heapq.heappop(pending)
            else:
                break
            service = step_mean[g] * factors[m]
            pool = pool_of[g]
            free = pool[0]
            begin = t if t >= free else free
            finish = begin + service
            heapq.heapreplace(pool, finish)
            waits[m] = begin - t
            services[m] = service
            following = next_step[g]
            if following >= 0:
                heapq.heappush(pending, (finish + link_delay, counter, following, m + 1, e))
                counter += 1
            else:
                latencies[e] = finish - arrivals[e]
        self.i, self.counter = i, counter

    def settled(self, end: int) -> bool:
        """Whether every message so far was served before the event at
        ``end`` arrives, and every worker is free by then."""
        if self.pending:
            return False
        arrival = self.arrivals[end]
        return all(max(pool) <= arrival for pool in self.pools)

    def window(self, nfs: np.ndarray) -> _Window:
        """What the loop measured, its messages at NFs ``nfs``."""
        return _Window(
            np.frombuffer(self.services),
            nfs,
            np.frombuffer(self.waits),
            np.frombuffer(self.latencies),
        )


def _serve(
    low: _LoweredCore,
    workers: Sequence[int],
    trace: Trace,
    *,
    link_delay: float,
    service_jitter: float,
    seed: int,
    services: bool = False,
) -> _Served:
    """Serve every message the non-empty ``trace`` launches, in time
    order, through FIFO pools of ``workers[nf]`` workers per NF.

    A step's successor arrives ``link_delay`` after it finishes.  On a
    time tie an initial step goes first, then follow-ups in launch
    order.  Step ``s`` of the ``i``-th handled event is message
    ``base[i] + s``, ``base`` the running sum of step counts: its
    *identity*.  Message ``m`` takes the ``m``-th factor of one
    ``default_rng(seed).uniform(1 - j, 1 + j)`` stream (ones when
    ``j == 0``), and per-message outputs are kept in identity order,
    per-event ones in event order, however the messages were served.

    The events are split into windows that cannot interact
    (:func:`_plan_windows`).  A window is served in array passes
    (:func:`_flow`) unless a message in it might wait; then the heap
    loop (:class:`_Loop`) serves it with the same factors.  With
    ``services``, per-NF service times are kept and per-procedure
    latencies are not.
    """
    proc = low.proc_of_event[trace.event_types]
    arrivals = trace.times
    if (proc < 0).any():
        handled = proc >= 0
        proc, arrivals = proc[handled], arrivals[handled]
    per_nf = np.bincount(proc, minlength=len(low.step_counts)) @ low.proc_messages
    tally = _Tally(per_nf, proc.size, services)
    windows = queued = 0
    if proc.size:
        windows, queued = _serve_windows(
            low, workers, arrivals, proc, tally, link_delay, service_jitter, seed, not services
        )
    return _Served(
        num_events=proc.size,
        num_messages=int(per_nf.sum()),
        waits=tally.waits,
        busy=tally.busy.tolist(),
        latencies=(
            [] if services
            else tally.by_bucket(low.proc_latency[proc], len(low.latency_names))
        ),
        services=tally.services,
        windows=windows,
        queued_windows=queued,
    )


def _serve_windows(
    low: _LoweredCore,
    workers: Sequence[int],
    arrivals: np.ndarray,
    proc: np.ndarray,
    tally: _Tally,
    link_delay: float,
    service_jitter: float,
    seed: int,
    latencies: bool,
) -> Tuple[int, int]:
    """Serve the handled events window by window into ``tally``; return
    the number of windows and of those the heap loop served."""
    starts, heads = _plan_windows(low, proc, arrivals, link_delay, service_jitter)
    counts = low.step_counts[proc]
    messages = np.add.reduceat(counts, starts[:-1], dtype=np.int64).tolist()
    rng = np.random.default_rng(seed)

    def draw(w: int) -> Optional[np.ndarray]:
        # Consecutive draws hold the same doubles as one batch.
        if service_jitter == 0:
            return None
        return rng.uniform(1.0 - service_jitter, 1.0 + service_jitter, messages[w])

    first_steps = None
    queued = w = 0
    while w < len(messages):
        a, b = starts[w], starts[w + 1]
        factors = draw(w)
        window = _flow(
            low,
            workers,
            arrivals[a:b],
            proc[a:b],
            counts[a:b],
            heads[a:b],
            factors,
            link_delay,
            arrivals[b] if b < arrivals.size else math.inf,
            latencies,
        )
        if window is not None:
            tally.add(window)
            w += 1
            continue
        if first_steps is None:
            first_steps = memoryview(low.first_step[proc])
        loop = _Loop(low, workers, memoryview(arrivals)[a:], first_steps[a:], link_delay)
        while True:
            loop.add(factors, counts[starts[w] : starts[w + 1]])
            loop.serve(starts[w + 1] - a)
            queued += 1
            w += 1
            if w == len(messages) or loop.settled(starts[w] - a):
                break
            factors = draw(w)
        b = starts[w]
        tally.add(loop.window(low.step_nf[_messages(low, proc[a:b], counts[a:b])[1]]))
    return len(messages), queued


class CoreNetworkSimulator:
    """Simulates one core generation under a control-plane trace.

    Parameters
    ----------
    core:
        ``"epc"`` (LTE) or ``"5gc"`` (5G SA).
    workers:
        Worker pool size per network function; either one integer for
        all functions or a mapping from some of the core's functions
        (the rest get 4).  A name the core lacks raises ``ValueError``.
    link_delay:
        One-way inter-NF message delay, seconds (same-datacenter scale).
    service_jitter:
        Uniform +/- fraction applied to each step's mean service time.
    seed:
        Non-negative integer seed of the jitter stream: step ``s`` of
        the ``i``-th handled event takes the stream's ``base[i] + s``-th
        factor, ``base`` the running sum of step counts.
    """

    def __init__(
        self,
        core: str = "epc",
        *,
        workers: "int | Mapping[str, int]" = 4,
        link_delay: float = 0.0005,
        service_jitter: float = 0.3,
        seed: int = 0,
    ) -> None:
        self.core = core
        self.procedures = procedures_for(core)
        self.function_names = functions_for(core)
        if isinstance(workers, Mapping):
            unknown = sorted(set(workers) - set(self.function_names))
            if unknown:
                raise ValueError(
                    f"unknown network functions {unknown} for core {core!r}; "
                    f"its functions are {list(self.function_names)}"
                )
            self.workers = {
                nf: _check_workers(f"workers[{nf!r}]", workers.get(nf, 4))
                for nf in self.function_names
            }
        else:
            count = _check_workers("workers", workers)
            self.workers = {nf: count for nf in self.function_names}
        self.link_delay = _check_seconds("link_delay", link_delay)
        self.service_jitter = _check_jitter(service_jitter)
        self.seed = _check_seed(seed)
        self._lowered = _lower(self.procedures, self.function_names)

    # ------------------------------------------------------------------
    def process(
        self, trace: Trace, *, telemetry: Optional[RunTelemetry] = None
    ) -> CoreReport:
        """Run the trace through the core and report per-NF/per-procedure stats.

        A zero-event trace yields an empty report (``num_events == 0``,
        no function or procedure entries, ``bottleneck() is None``)
        rather than raising.  The run is timed under the ``mcn-drive``
        span and counts ``mcn_events`` / ``mcn_messages``, and the
        windows it served (``mcn_windows``) and those of them the heap
        loop served (``mcn_windows_queued``), on ``telemetry``
        (default: the ambient collector).
        """
        tele = telemetry if telemetry is not None else get_telemetry()
        with tele.span("mcn-drive"):
            report = self._process(trace, tele)
        tele.count("mcn_events", report.num_events)
        tele.count("mcn_messages", report.num_messages)
        return report

    def _process(self, trace: Trace, tele: RunTelemetry) -> CoreReport:
        if len(trace) == 0:
            return CoreReport(
                core=self.core,
                num_events=0,
                num_messages=0,
                span=0.0,
                functions={},
                procedures={},
            )
        served = _serve(
            self._lowered,
            [self.workers[nf] for nf in self.function_names],
            trace,
            link_delay=self.link_delay,
            service_jitter=self.service_jitter,
            seed=self.seed,
        )
        tele.count("mcn_windows", served.windows)
        tele.count("mcn_windows_queued", served.queued_windows)
        span = float(trace.times[-1] - trace.times[0])
        functions = {}
        for nf, name in enumerate(self.function_names):
            waits = served.waits[nf]
            # Waits are all zero unless the heap loop served a window.
            values = waits if waits.size and served.queued_windows else np.zeros(1)
            capacity = self.workers[name] * max(span, 1e-9)
            functions[name] = FunctionReport(
                name=name,
                messages=waits.size,
                utilization=min(1.0, served.busy[nf] / capacity),
                mean_wait=float(values.mean()),
                p95_wait=float(np.percentile(values, 95.0)),
                max_wait=float(values.max()),
            )
        procedures = {}
        for name, arr in zip(self._lowered.latency_names, served.latencies):
            if not arr.size:
                continue
            p95, p99 = np.percentile(arr, [95.0, 99.0])
            procedures[name] = ProcedureReport(
                name=name,
                count=arr.size,
                mean_latency=float(arr.mean()),
                p95_latency=float(p95),
                p99_latency=float(p99),
                max_latency=float(arr.max()),
            )
        return CoreReport(
            core=self.core,
            num_events=served.num_events,
            num_messages=served.num_messages,
            span=span,
            functions=functions,
            procedures=procedures,
        )
