"""Streaming generation: events in global time order, bounded memory.

Driving a live MCN (or a real-time monitoring pipeline) needs events in
timestamp order as they "happen", not a materialized trace.  The
streaming generator produces exactly the same events as
:meth:`TrafficGenerator.generate` with the same arguments, but yields
them one at a time in global time order, holding one hour of the
population's traffic (plus one light per-UE state record) in memory.

The whole population advances through
:class:`~repro.generator.compiled.CompiledPopulation` in vectorized
cohort batches; its per-UE randomness matches batch generation, so
stream and batch outputs match event for event
(:meth:`~repro.trace.trace.Trace.from_events` materializes a stream).

**Checkpointing.**  With ``checkpoint_path`` the stream snapshots its
carryover state when it starts and after each fully yielded hour;
``resume=True`` restarts from the last completed hour and yields the
remaining events.  Delivery is *at least once* with an exact replay
boundary: the checkpoint's ``events_emitted`` counts the events yielded
up to the snapshot, so a consumer that kept the first
``events_emitted`` events of the interrupted stream and then
concatenates the resumed stream gets the uninterrupted stream event for
event (see :mod:`repro.generator.checkpoint`).
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, Optional

from ..model.model_set import ModelSet
from ..telemetry import RunTelemetry, get_telemetry
from ..trace.events import DeviceType, EventType
from ..trace.trace import Event
from .checkpoint import CheckpointError, open_run
from .compiled import CompiledPopulation, population_for_counts
from .traffgen import DeviceCounts, TrafficGenerator, validate_run_args


def stream_events(
    model_set: ModelSet,
    num_ues: DeviceCounts,
    *,
    start_hour: int = 0,
    num_hours: int = 1,
    seed: int = 0,
    first_ue_id: int = 0,
    checkpoint_path: "Optional[str | os.PathLike[str]]" = None,
    resume: bool = False,
    telemetry: Optional[RunTelemetry] = None,
) -> Iterator[Event]:
    """Yield the population's events in global time order.

    Equivalent to iterating the trace from
    ``TrafficGenerator(model_set).generate(...)`` with
    identical arguments, hour by hour.  Arguments are validated, and a
    checkpoint to resume from is loaded, eagerly (before the first
    event is requested).  ``telemetry`` is captured here (not at first
    ``next()``), so the stream reports to the collector that was
    ambient at call time unless one is passed explicitly.
    """
    validate_run_args(
        start_hour=start_hour,
        num_hours=num_hours,
        seed=seed,
        first_ue_id=first_ue_id,
    )
    counts = TrafficGenerator(model_set).resolve_counts(num_ues)
    tele = telemetry if telemetry is not None else get_telemetry()
    resumed, save = open_run(
        checkpoint_path,
        model_set,
        counts,
        kind="stream",
        resume=resume,
        telemetry=tele,
        seed=seed,
        start_hour=start_hour,
        num_hours=num_hours,
        first_ue_id=first_ue_id,
    )
    population = population_for_counts(
        model_set, counts, seed=seed, start_hour=start_hour
    )
    hours_done = events_emitted = 0
    if resumed is None:
        save(population_state=population.snapshot()[0])
    elif resumed.population_state is None:
        raise CheckpointError(
            f"{checkpoint_path}: checkpoint is missing the population "
            "carryover state"
        )
    else:
        hours_done = resumed.hours_done
        events_emitted = resumed.events_emitted
        population.restore(resumed.population_state, hours_done)
    return _stream(
        population, hours_done, events_emitted, num_hours, first_ue_id,
        save, tele,
    )


def _stream(
    population: CompiledPopulation,
    hours_done: int,
    events_emitted: int,
    num_hours: int,
    first_ue_id: int,
    save: Callable[..., None],
    tele: RunTelemetry,
) -> Iterator[Event]:
    total_ues = len(population.device_codes)
    draws_before = population.rng_draws
    for _ in range(hours_done, num_hours):
        with tele.span("stream"):
            rows, times, events = population.advance_hour()
            devices = population.device_codes[rows]
        for row, t, ev, dev in zip(rows, times, events, devices):
            yield Event(
                ue_id=first_ue_id + int(row),
                time=float(t),
                event_type=EventType(int(ev)),
                device_type=DeviceType(int(dev)),
            )
        hours_done += 1
        events_emitted += len(rows)
        tele.count("events_emitted", len(rows))
        tele.count("ue_hours", total_ues)
        tele.count("rng_draws", population.rng_draws - draws_before)
        draws_before = population.rng_draws
        tele.progress("stream", hours_done, num_hours)
        save(
            hours_done=hours_done,
            events_emitted=events_emitted,
            population_state=population.snapshot()[0],
        )
