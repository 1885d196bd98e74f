"""Per-message reference walks of the MCN simulators.

These are the original event-heap implementations of
``CoreNetworkSimulator`` and ``MmeSimulator``: one ``heapq`` entry per
message, one scalar ``rng.uniform`` call per service time, and a
per-UE dict walk of the two-level machine for MME protocol checks.
Both walks give step ``s`` of the ``i``-th handled event the message
identity ``base[i] + s`` (``base`` the running sum of step counts);
``core_report`` gives each message its identity's jitter factor and
keeps waits, busy time and latencies in identity (and event) order.
The MME's one-step procedures are served in identity order anyway.
The production engine in :mod:`repro.mcn` lowers the same simulation
to per-step tables and draws the jitter in batches.  It serves each
window of quiet traffic as a free-flow schedule in array passes, and
runs a heap loop only over windows in which messages queue.  Its
reports must equal these exactly, whichever way a window was served.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mcn.mme import MmeReport, MmeSimulator
from repro.mcn.network import (
    CoreNetworkSimulator,
    CoreReport,
    FunctionReport,
    ProcedureReport,
)
from repro.mcn.procedures import Procedure
from repro.statemachines.lte import two_level_machine
from repro.statemachines.compiled_replay import _canonical_source_for
from repro.trace.events import EventType
from repro.trace.trace import Trace


class _FunctionQueue:
    """A FIFO pool of ``workers`` servers for one network function; it
    records each message's wait and service time under its identity."""

    __slots__ = ("name", "free_at", "services", "waits")

    def __init__(self, name: str, workers: int, start: float) -> None:
        self.name = name
        self.free_at = [start] * workers
        heapq.heapify(self.free_at)
        self.services: Dict[int, float] = {}
        self.waits: Dict[int, float] = {}

    def serve(self, arrival: float, service: float, message: int) -> float:
        """Admit a message; return its completion time."""
        free = heapq.heappop(self.free_at)
        start = max(arrival, free)
        finish = start + service
        heapq.heappush(self.free_at, finish)
        self.waits[message] = start - arrival
        self.services[message] = service
        return finish

    @property
    def busy(self) -> float:
        """The sequential sum of service times, in identity order."""
        busy = 0.0
        for message in sorted(self.services):
            busy += self.services[message]
        return busy


def core_report(sim: CoreNetworkSimulator, trace: Trace) -> CoreReport:
    """Drive ``trace`` through ``sim``'s core one heap step per message.

    Step ``s`` of the ``i``-th handled event is message ``base[i] + s``
    (``base`` the running sum of step counts), its identity: it takes
    the identity's factor, drawn one per message in identity order
    before the walk, and waits, busy time and latencies are recorded
    and reduced in identity (and event) order, not in service order.
    """
    rng = np.random.default_rng(sim.seed)

    if len(trace) == 0:
        return CoreReport(
            core=sim.core,
            num_events=0,
            num_messages=0,
            span=0.0,
            functions={},
            procedures={},
        )
    t0 = float(trace.times[0])
    queues = {
        nf: _FunctionQueue(nf, sim.workers[nf], t0) for nf in sim.function_names
    }
    latencies: Dict[str, List[float]] = {p.name: [] for p in sim.procedures.values()}
    skipped = 0

    # Event heap entries: (time, tiebreak, procedure, step_idx, event_t0,
    # message identity, event index)
    counter = itertools.count()
    heap: List[Tuple[float, int, Procedure, int, float, int, int]] = []
    handled: List[Procedure] = []
    num_messages = 0
    for i in range(len(trace)):
        event = EventType(int(trace.event_types[i]))
        procedure = sim.procedures.get(event)
        if procedure is None:
            skipped += 1  # e.g. TAU driven into a 5GC
            continue
        t = float(trace.times[i])
        heapq.heappush(heap, (t, next(counter), procedure, 0, t, num_messages, len(handled)))
        handled.append(procedure)
        num_messages += len(procedure.steps)

    j = sim.service_jitter
    factors = [rng.uniform(1.0 - j, 1.0 + j) if j else 1.0 for _ in range(num_messages)]
    event_latency: List[float] = [0.0] * len(handled)
    while heap:
        t, _, procedure, step_idx, started, message, index = heapq.heappop(heap)
        step = procedure.steps[step_idx]
        service = step.service_mean * factors[message]
        finish = queues[step.nf].serve(t, service, message)
        if step_idx + 1 < len(procedure.steps):
            heapq.heappush(
                heap,
                (finish + sim.link_delay, next(counter), procedure, step_idx + 1, started,
                 message + 1, index),
            )
        else:
            event_latency[index] = finish - started
    for procedure, latency in zip(handled, event_latency):
        latencies[procedure.name].append(latency)

    span = float(trace.times[-1] - trace.times[0])
    capacity = {nf: sim.workers[nf] * max(span, 1e-9) for nf in queues}
    functions = {}
    for nf, queue in queues.items():
        waits = np.asarray([queue.waits[m] for m in sorted(queue.waits)] or [0.0])
        functions[nf] = FunctionReport(
            name=nf,
            messages=len(queue.waits),
            utilization=min(1.0, queue.busy / capacity[nf]),
            mean_wait=float(waits.mean()),
            p95_wait=float(np.percentile(waits, 95.0)),
            max_wait=float(waits.max()),
        )
    procedures = {}
    for name, values in latencies.items():
        if not values:
            continue
        arr = np.asarray(values)
        procedures[name] = ProcedureReport(
            name=name,
            count=arr.size,
            mean_latency=float(arr.mean()),
            p95_latency=float(np.percentile(arr, 95.0)),
            p99_latency=float(np.percentile(arr, 99.0)),
            max_latency=float(arr.max()),
        )
    return CoreReport(
        core=sim.core,
        num_events=len(trace) - skipped,
        num_messages=num_messages,
        span=span,
        functions=functions,
        procedures=procedures,
    )


def mme_report(sim: MmeSimulator, trace: Trace) -> MmeReport:
    """Drive ``trace`` through ``sim``'s worker pool one event at a time."""
    n = len(trace)
    if n == 0:
        raise ValueError("cannot process an empty trace")
    rng = np.random.default_rng(sim.seed)
    machine = two_level_machine()

    def service_time(event: EventType) -> float:
        mean = sim.service_means[event]
        if sim.service_jitter == 0:
            return mean
        return mean * rng.uniform(1.0 - sim.service_jitter, 1.0 + sim.service_jitter)

    workers: List[float] = [float(trace.times[0])] * sim.num_workers
    heapq.heapify(workers)

    waits = np.empty(n, dtype=np.float64)
    latencies = np.empty(n, dtype=np.float64)
    busy = 0.0
    violations = 0
    ue_state: Dict[int, Optional[str]] = {}
    events_by_type: Dict[EventType, int] = {e: 0 for e in EventType}

    for i in range(n):
        arrival = float(trace.times[i])
        event = EventType(int(trace.event_types[i]))
        ue = int(trace.ue_ids[i])
        events_by_type[event] += 1

        # Per-UE protocol check (lenient: unknown start state).
        state = ue_state.get(ue)
        if state is None:
            state = _canonical_source_for(machine, event)
        if machine.can_fire(state, event):
            state = machine.next_state(state, event)
        else:
            violations += 1
            state = machine.next_state(_canonical_source_for(machine, event), event)
        ue_state[ue] = state

        free = heapq.heappop(workers)
        start = max(arrival, free)
        service = service_time(event)
        heapq.heappush(workers, start + service)
        waits[i] = start - arrival
        latencies[i] = waits[i] + service
        busy += service

    span = float(trace.times[-1] - trace.times[0])
    capacity = sim.num_workers * max(span, 1e-9)
    p50, p95, p99 = np.percentile(waits, [50.0, 95.0, 99.0])
    return MmeReport(
        num_events=n,
        span=span,
        mean_wait=float(waits.mean()),
        p50_wait=float(p50),
        p95_wait=float(p95),
        p99_wait=float(p99),
        max_wait=float(waits.max()),
        mean_latency=float(latencies.mean()),
        utilization=min(1.0, busy / capacity),
        throughput=n / max(span, 1e-9),
        protocol_violations=violations,
        events_by_type=events_by_type,
    )
