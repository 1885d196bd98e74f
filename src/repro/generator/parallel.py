"""Parallel trace generation across processes, with fault tolerance.

The paper ran 38K/380K per-UE generator instances across 12 CPUs with
GNU ``parallel``.  Here the UE population is split into contiguous
chunks, each chunk is one job of :func:`repro.jobs.run_jobs`, and the
chunks are merged in plan order.  Every chunk generates its UEs with
the *same* per-UE random substreams the serial path would use, so the
output is bit-identical to :meth:`TrafficGenerator.generate` with the
same arguments.

Per-UE substreams are Philox counters keyed on the UE's position in the
generation order, so per-chunk setup is O(chunk), not O(population).

Chunks are pure functions of the run parameters, so the job runner's
retry policy masks worker failure invisibly; a chunk that keeps failing
raises :class:`repro.jobs.JobFailedError` (stage ``"generate"``) whose
labels name the device, UE range and hour range.  With
``checkpoint_path`` every finished chunk's columns are snapshotted
(atomically) so an interrupted run can ``resume=True`` and regenerate
only the missing chunks.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..jobs import Job, check_processes, run_jobs
from ..model.model_set import ModelSet
from ..telemetry import RunTelemetry, get_telemetry, use_telemetry
from ..trace.events import DeviceType
from ..trace.trace import Trace
from .compiled import CompiledPopulation, generate_columns
from .traffgen import DeviceCounts, TrafficGenerator, validate_run_args


def _plan_chunks(
    counts: Dict[DeviceType, int], chunk_size: int, first_ue_id: int
) -> List[Tuple[int, int, int, int]]:
    """Split the population into (device, start_idx, n, first_ue_id) chunks.

    ``start_idx`` is the UE's position in the whole generation order,
    which indexes the seed substream — this is what keeps parallel
    output identical to serial output.
    """
    chunks = []
    position = 0
    ue_id = first_ue_id
    for device_type in sorted(counts, key=int):
        remaining = counts[device_type]
        while remaining > 0:
            n = min(chunk_size, remaining)
            chunks.append((int(device_type), position, n, ue_id))
            position += n
            ue_id += n
            remaining -= n
    return chunks


def _generate_chunk(
    ctx: dict,
    device_code: int,
    start_idx: int,
    n: int,
    first_ue_id: int,
    seed: int,
    start_hour: int,
    num_hours: int,
) -> tuple:
    """One chunk job: the four trace columns of ``n`` UEs of one device."""
    population = CompiledPopulation(
        ctx["model"],
        np.full(n, device_code, dtype=np.int8),
        start_idx + np.arange(n, dtype=np.int64),
        seed=seed,
        start_hour=start_hour,
    )
    return generate_columns(population, num_hours, first_ue_id)


def generate_parallel(
    model_set: ModelSet,
    num_ues: DeviceCounts,
    *,
    start_hour: int = 0,
    num_hours: int = 1,
    seed: int = 0,
    first_ue_id: int = 0,
    processes: Optional[int] = 0,
    chunk_size: int = 500,
    checkpoint_path: "Optional[str | os.PathLike[str]]" = None,
    resume: bool = False,
    telemetry: Optional[RunTelemetry] = None,
) -> Trace:
    """Generate a trace using a process pool.

    Produces output identical to ``TrafficGenerator(model_set).generate``
    with the same parameters.  ``processes=0`` (the default) uses all
    CPUs; ``processes=1`` runs the chunked path in-process (useful for
    tests and debugging).

    Chunks run through :func:`repro.jobs.run_jobs`: a crashed or
    raising chunk is retried with capped exponential backoff, and one
    that keeps failing raises :class:`repro.jobs.JobFailedError`.  With
    ``checkpoint_path`` each finished chunk is snapshotted so
    ``resume=True`` regenerates only the missing ones.

    Chunk telemetry (UE-hours, RNG draws, compile spans) lands in
    ``telemetry`` (default: the ambient collector); retries bump
    ``chunk_retries`` and chunks restored from a checkpoint bump
    ``chunks_resumed``.
    """
    validate_run_args(
        start_hour=start_hour,
        num_hours=num_hours,
        seed=seed,
        first_ue_id=first_ue_id,
    )
    check_processes(processes)
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if resume and checkpoint_path is None:
        raise ValueError("resume=True requires checkpoint_path")

    tele = telemetry if telemetry is not None else get_telemetry()
    with use_telemetry(tele), tele.span("generate-parallel"):
        trace = _run_parallel(
            model_set,
            num_ues,
            start_hour=start_hour,
            num_hours=num_hours,
            seed=seed,
            first_ue_id=first_ue_id,
            processes=processes,
            chunk_size=chunk_size,
            checkpoint_path=checkpoint_path,
            resume=resume,
        )
    tele.count("events_emitted", len(trace))
    tele.record_peak_rss()
    return trace


def _run_parallel(
    model_set: ModelSet,
    num_ues: DeviceCounts,
    *,
    start_hour: int,
    num_hours: int,
    seed: int,
    first_ue_id: int,
    processes: Optional[int],
    chunk_size: int,
    checkpoint_path: "Optional[str | os.PathLike[str]]",
    resume: bool,
) -> Trace:
    from .checkpoint import GenerationCheckpoint, RunKey, _rng_provenance

    tele = get_telemetry()
    generator = TrafficGenerator(model_set)
    counts = generator.resolve_counts(num_ues)
    chunks = _plan_chunks(counts, chunk_size, first_ue_id)

    key = None
    results: Dict[int, tuple] = {}
    if checkpoint_path is not None:
        key = RunKey.for_run(
            model_set,
            counts,
            kind="parallel",
            seed=seed,
            start_hour=start_hour,
            num_hours=num_hours,
            first_ue_id=first_ue_id,
            chunk_size=chunk_size,
        )
        if resume:
            checkpoint = GenerationCheckpoint.load_for_run(checkpoint_path, key)
            results = dict(checkpoint.chunk_columns)
            tele.count("chunks_resumed", len(results))

    def _save() -> None:
        if checkpoint_path is None:
            return
        GenerationCheckpoint(
            key=key,
            chunk_columns=results,
            provenance=_rng_provenance(),
        ).save(checkpoint_path)

    if checkpoint_path is not None and not resume:
        _save()

    pending = [i for i in range(len(chunks)) if i not in results]
    jobs = []
    for i in pending:
        device, start_idx, n, ue0 = chunks[i]
        jobs.append(
            Job(
                (device, start_idx, n, ue0, seed, start_hour, num_hours),
                {
                    "device": DeviceType(device).name,
                    "UEs": (ue0, ue0 + n),
                    "hours": (start_hour, start_hour + num_hours),
                },
            )
        )
    for pos, columns in run_jobs(
        _generate_chunk,
        jobs,
        shared={"model": model_set},
        processes=processes,
        stage="generate",
    ):
        results[pending[pos]] = columns
        _save()

    ue_col, time_col, event_col, device_col = [], [], [], []
    for i in range(len(chunks)):
        ue, times, events, devices = results[i]
        if ue is None or len(ue) == 0:
            continue
        ue_col.append(ue)
        time_col.append(times)
        event_col.append(events)
        device_col.append(devices)
    if not ue_col:
        return Trace.empty()
    return Trace(
        np.concatenate(ue_col),
        np.concatenate(time_col),
        np.concatenate(event_col),
        np.concatenate(device_col),
        validate=False,
    )
