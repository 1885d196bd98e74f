"""Discrete-event simulation of a mobile core's control plane.

Drives a full core network — MME/HSS/SGW/PGW for LTE, AMF/UDM/SMF/UPF
for 5G SA — with a control-plane trace.  Every UE event launches its
3GPP procedure (:mod:`repro.mcn.procedures`); each step queues at its
network function (a FIFO worker pool), is serviced, and hands off to
the next step after an inter-NF link delay.

The procedure map is lowered once per simulator to flat per-step
tables, and all service-time jitter is drawn in one batch, so a run is
a single loop over messages (:func:`_serve`) with heaps only for the
worker pools and the in-flight follow-up steps.  The same loop runs
:class:`~repro.mcn.mme.MmeSimulator`, lowered as a one-function core.

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
        if not self.functions:
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
    step_nf: List[int]              #: NF index of step ``g``
    step_mean: List[float]          #: mean service time of step ``g``
    next_step: List[int]            #: ``g + 1`` inside a procedure, -1 after its last step
    step_latency: List[int]         #: latency bucket (procedure name) of step ``g``
    latency_names: Tuple[str, ...]  #: procedure names, in procedure-map order


def _lower(
    procedures: Mapping[EventType, Procedure], function_names: Tuple[str, ...]
) -> _LoweredCore:
    nf_index = {nf: i for i, nf in enumerate(function_names)}
    distinct = list(dict.fromkeys(procedures.values()))
    names = tuple(dict.fromkeys(p.name for p in distinct))
    proc_of_event = np.full(len(EventType), -1, dtype=np.int64)
    for event, procedure in procedures.items():
        proc_of_event[int(event)] = distinct.index(procedure)
    step_counts = np.array([len(p.steps) for p in distinct], dtype=np.int64)
    first_step = np.concatenate(([0], np.cumsum(step_counts)[:-1])).astype(np.int64)
    step_nf: List[int] = []
    step_mean: List[float] = []
    next_step: List[int] = []
    step_latency: List[int] = []
    for procedure in distinct:
        last = len(step_nf) + len(procedure.steps) - 1
        for step in procedure.steps:
            step_nf.append(nf_index[step.nf])
            step_mean.append(float(step.service_mean))
            next_step.append(len(next_step) + 1 if len(next_step) < last else -1)
            step_latency.append(names.index(procedure.name))
    return _LoweredCore(
        proc_of_event=proc_of_event,
        first_step=first_step,
        step_counts=step_counts,
        step_nf=step_nf,
        step_mean=step_mean,
        next_step=next_step,
        step_latency=step_latency,
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


def _check_jitter(value: float) -> float:
    if not 0.0 <= value < 1.0:
        raise ValueError(f"service_jitter must be in [0, 1), got {value!r}")
    return float(value)


class _Served(NamedTuple):
    """What one run of :func:`_serve` measured.  Per-message values are
    in service order."""

    num_events: int                 #: events that launched a procedure
    factors: np.ndarray             #: each message's jitter factor
    waits: List[np.ndarray]         #: per NF: each message's queueing delay
    busy: List[float]               #: per NF: sequential sum of service times
    latencies: List[np.ndarray]     #: per bucket: event time to last step's finish


def _serve(
    low: _LoweredCore,
    workers: Sequence[int],
    trace: Trace,
    *,
    link_delay: float,
    service_jitter: float,
    seed: int,
) -> _Served:
    """Serve every message the non-empty ``trace`` launches, in time
    order, through FIFO pools of ``workers[nf]`` workers per NF.

    A step's successor arrives ``link_delay`` after it finishes.  On a
    time tie an initial step goes first, then follow-ups in launch
    order.  The ``k``-th message served takes the ``k``-th factor of
    one ``default_rng(seed).uniform(1 - j, 1 + j)`` batch (ones when
    ``j == 0``).
    """
    proc = low.proc_of_event[trace.event_types]
    # Initial steps stream in trace order, which is time order: exactly
    # the order a heap keyed (time, push counter) pops them in.
    order = np.flatnonzero(proc >= 0)
    num_events = len(order)
    num_messages = int(low.step_counts[proc[order]].sum())
    arrivals = memoryview(trace.times[order])
    first_steps = memoryview(low.first_step[proc[order]])
    # The batch holds the same doubles as one scalar draw per message.
    if service_jitter == 0:
        factors = np.ones(num_messages)
    else:
        factors = np.random.default_rng(seed).uniform(
            1.0 - service_jitter, 1.0 + service_jitter, num_messages
        )

    t0 = float(trace.times[0])
    pools = [[t0] * size for size in workers]
    busy = [0.0] * len(pools)
    waits = [array("d") for _ in pools]
    latencies = [array("d") for _ in low.latency_names]
    step_nf, step_mean, next_step = low.step_nf, low.step_mean, low.next_step
    wait_of = [waits[nf].append for nf in step_nf]
    pool_of = [pools[nf] for nf in step_nf]
    latency_of = [latencies[b].append for b in low.step_latency]

    # In-flight follow-up steps: (time, counter, step, event time).
    # An initial step wins a time tie: its counter would be smaller.
    pending: List[Tuple[float, int, int, float]] = []
    counter = 0
    i = 0
    for factor in memoryview(factors):
        if i < num_events and (not pending or arrivals[i] <= pending[0][0]):
            t = started = arrivals[i]
            g = first_steps[i]
            i += 1
        else:
            t, _, g, started = heapq.heappop(pending)
        service = step_mean[g] * factor
        pool = pool_of[g]
        free = pool[0]
        start = t if t >= free else free
        finish = start + service
        heapq.heapreplace(pool, finish)
        wait_of[g](start - t)
        busy[step_nf[g]] += service
        following = next_step[g]
        if following >= 0:
            heapq.heappush(pending, (finish + link_delay, counter, following, started))
            counter += 1
        else:
            latency_of[g](finish - started)
    return _Served(
        num_events=num_events,
        factors=factors,
        waits=[np.frombuffer(w) for w in waits],
        busy=busy,
        latencies=[np.frombuffer(values) for values in latencies],
    )


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
        self.seed = seed
        self._lowered = _lower(self.procedures, self.function_names)

    # ------------------------------------------------------------------
    def process(
        self, trace: Trace, *, telemetry: Optional[RunTelemetry] = None
    ) -> CoreReport:
        """Run the trace through the core and report per-NF/per-procedure stats.

        A zero-event trace yields an empty report (``num_events == 0``,
        no function or procedure entries, ``bottleneck() is None``)
        rather than raising.  The run is timed under the ``mcn-drive``
        span and counts ``mcn_events`` / ``mcn_messages`` on
        ``telemetry`` (default: the ambient collector).
        """
        tele = telemetry if telemetry is not None else get_telemetry()
        with tele.span("mcn-drive"):
            report = self._process(trace)
        tele.count("mcn_events", report.num_events)
        tele.count("mcn_messages", report.num_messages)
        return report

    def _process(self, trace: Trace) -> CoreReport:
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
        span = float(trace.times[-1] - trace.times[0])
        functions = {}
        for nf, name in enumerate(self.function_names):
            waits = served.waits[nf]
            values = waits if waits.size else np.zeros(1)
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
            procedures[name] = ProcedureReport(
                name=name,
                count=arr.size,
                mean_latency=float(arr.mean()),
                p95_latency=float(np.percentile(arr, 95.0)),
                p99_latency=float(np.percentile(arr, 99.0)),
                max_latency=float(arr.max()),
            )
        return CoreReport(
            core=self.core,
            num_events=served.num_events,
            num_messages=served.factors.size,
            span=span,
            functions=functions,
            procedures=procedures,
        )
