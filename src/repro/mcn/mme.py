"""A minimal MME (mobile core control-plane) queueing model.

The paper's motivation is driving MCN designs with realistic control
traffic.  This module provides a downstream consumer: a discrete-event
MME with a worker pool that processes control events in arrival order,
tracks each UE's state against the two-level machine (events a real MME
would reject are counted as protocol violations), and reports queueing
statistics.

It is intentionally simple — an M/G/c-style worker pool — but it is
enough to expose the difference between workloads: bursty, realistic
traffic produces markedly worse tail latency than a Poisson stream of
the same volume, and baseline-synthesized traffic triggers protocol
violations (``HO`` in IDLE) that the proposed model's traffic does not.
The pool runs on :class:`~repro.mcn.network.CoreNetworkSimulator`'s
engine: the MME is lowered once as a one-function core in which every
event type is a one-step procedure at ``MME``.  The ``i``-th event is
then message ``i`` and takes the ``i``-th factor of the jitter stream;
with no follow-up in flight, events are also served in that order.
Windows in which no event can wait are served in array passes; only
windows in which events queue run the heap loop.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional

import numpy as np

from ..statemachines.compiled_replay import replay_trace
from ..telemetry import RunTelemetry, get_telemetry
from ..trace.events import EventType
from ..trace.trace import Trace
from .network import (
    _check_jitter,
    _check_seconds,
    _check_seed,
    _check_workers,
    _lower,
    _serve,
)
from .procedures import MME, Procedure, Step

#: Default mean service time per event type, seconds.  Attach/detach do
#: the most signaling work (HSS, session setup); handovers are mid;
#: connection management is cheap.  Values are representative, not
#: vendor-measured.
DEFAULT_SERVICE_MEANS: Dict[EventType, float] = {
    EventType.ATCH: 0.020,
    EventType.DTCH: 0.010,
    EventType.SRV_REQ: 0.004,
    EventType.S1_CONN_REL: 0.003,
    EventType.HO: 0.008,
    EventType.TAU: 0.005,
}


@dataclasses.dataclass(frozen=True)
class MmeReport:
    """Outcome of processing one trace through the MME model."""

    num_events: int
    span: float                      #: first-to-last arrival, seconds
    mean_wait: float                 #: queueing delay, seconds
    p50_wait: float
    p95_wait: float
    p99_wait: float
    max_wait: float
    mean_latency: float              #: wait + service
    utilization: float               #: busy worker-seconds / capacity
    throughput: float                #: events per second over the span
    protocol_violations: int         #: events invalid for the UE's state
    events_by_type: Dict[EventType, int]


class MmeSimulator:
    """A ``num_workers``-wide control-plane processor."""

    def __init__(
        self,
        num_workers: int = 4,
        *,
        service_means: Optional[Dict[EventType, float]] = None,
        service_jitter: float = 0.3,
        seed: int = 0,
    ) -> None:
        self.num_workers = _check_workers("num_workers", num_workers)
        unknown = [key for key in service_means or {} if not isinstance(key, EventType)]
        if unknown:
            raise ValueError(
                f"service_means keys must be EventType members, got {unknown[0]!r}"
            )
        # The given means overlay the defaults event by event.
        merged = {**DEFAULT_SERVICE_MEANS, **(service_means or {})}
        self.service_means = {
            e: _check_seconds(f"service_means[{e.name}]", merged[e]) for e in EventType
        }
        self.service_jitter = _check_jitter(service_jitter)
        self.seed = _check_seed(seed)
        self._lowered = _lower(
            {
                e: Procedure(e.name, (Step(MME, e.name, mean),))
                for e, mean in self.service_means.items()
            },
            (MME,),
        )

    def process(
        self, trace: Trace, *, telemetry: Optional[RunTelemetry] = None
    ) -> MmeReport:
        """Run the trace through the worker pool and report statistics.

        Events are served in trace order.  The run is timed under the
        ``mme-drive`` span and counts ``mme_events``, and the windows it
        served (``mcn_windows``) and those of them the heap loop served
        (``mcn_windows_queued``), on ``telemetry`` (default: the ambient
        collector).
        """
        tele = telemetry if telemetry is not None else get_telemetry()
        with tele.span("mme-drive"):
            report = self._process(trace, tele)
        tele.count("mme_events", report.num_events)
        return report

    def _process(self, trace: Trace, tele: RunTelemetry) -> MmeReport:
        n = len(trace)
        if n == 0:
            raise ValueError("cannot process an empty trace")
        served = _serve(
            self._lowered,
            (self.num_workers,),
            trace,
            link_delay=0.0,
            service_jitter=self.service_jitter,
            seed=self.seed,
            services=True,
        )
        tele.count("mcn_windows", served.windows)
        tele.count("mcn_windows_queued", served.queued_windows)
        # One-step procedures put no follow-up in flight, so messages are
        # served in trace order: ``wait`` and ``latency`` line up with
        # the trace's events.  Waits are all zero unless the heap loop
        # served a window.
        queued = served.queued_windows > 0
        wait = served.waits[0] if queued else np.zeros(1)
        p50, p95, p99 = np.percentile(wait, [50.0, 95.0, 99.0])
        latency = served.services[0]
        if queued:
            latency += wait

        # Lenient per-UE protocol check: a UE's first event starts from
        # its canonical source; every later forced step is a violation.
        violations = replay_trace(trace).violations
        counts = np.bincount(trace.event_types, minlength=len(EventType))

        span = float(trace.times[-1] - trace.times[0])
        capacity = self.num_workers * max(span, 1e-9)
        return MmeReport(
            num_events=n,
            span=span,
            mean_wait=float(wait.mean()),
            p50_wait=float(p50),
            p95_wait=float(p95),
            p99_wait=float(p99),
            max_wait=float(wait.max()),
            mean_latency=float(latency.mean()),
            utilization=min(1.0, served.busy[0] / capacity),
            throughput=n / max(span, 1e-9),
            protocol_violations=violations,
            events_by_type={e: int(counts[e]) for e in EventType},
        )
