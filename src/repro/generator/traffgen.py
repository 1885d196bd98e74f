"""The main traffic generator: arbitrary populations, any start hour.

``TrafficGenerator`` runs one per-UE generator instance per synthetic
UE (§7).  Each synthetic UE draws a *persona* — a training-trace UE of
the same device type — and follows that persona's cluster in every
hour, so the synthetic population reproduces the cluster mix of the
modeled trace ("if 33% of the UEs belong to Cluster X, then 33% of the
per-UE traffic generators will be running the state machine for
Cluster X").

Population sizes are unconstrained: scaling past the training
population (the paper's 380K-UE Scenario 2) simply samples personas
with replacement.

:meth:`TrafficGenerator.generate` is the one driver that materializes a
trace.  The paper ran its per-UE generator instances across 12 CPUs
with GNU ``parallel``; here each device type's UEs are split into
contiguous chunks, each chunk is one job of :func:`repro.jobs.run_jobs`
(inline or on a process pool), and the chunks are merged on one integer
key, milliseconds then UE.
Every UE draws from SplitMix64 counter streams keyed on its position in
the whole generation order, so any chunk plan and any ``processes`` give
the same bits.  A chunk that keeps failing raises
:class:`repro.jobs.JobFailedError` (stage ``"generate"``) whose labels
name the device, UE range and hour range.
"""

from __future__ import annotations

import os
from numbers import Integral
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..jobs import Job, check_processes, run_jobs
from ..model.model_set import ModelSet
from ..telemetry import RunTelemetry, get_telemetry, use_telemetry
from ..trace.events import (
    TIMESTAMP_GRANULARITY, DeviceCounts, DeviceType, check_counts,
)
from ..trace.trace import Trace, stable_order
from .checkpoint import CheckpointError, open_run
from .compiled import CompiledPopulation, check_model_set, generate_columns

#: Seeds parameterize ``SeedSequence`` entropy, which derives the root
#: key of the counter mix; both are specified for unsigned 64-bit words.
MAX_SEED = 2 ** 64

#: Most UE-hours one generation chunk holds.  A chunk is the unit of
#: pool jobs, checkpoint snapshots and progress ticks, so this bounds
#: the work a crash can lose however long the run (5-25 s of serial
#: generation on a 2-vCPU VM, busy hours costing the most).  Cohort
#: stepping costs the same per UE-hour from about 4,000 UEs per chunk
#: up and more below (+10% at 2,000, +17% at 1,000 UEs), so the budget
#: leaves one-hour runs unchunked up to 524,288 UEs per device type and
#: still gives a week-long run chunks of 3,120 UEs.
MAX_CHUNK_UE_HOURS = 2 ** 19


def validate_run_args(
    *,
    start_hour: int = 0,
    num_hours: int = 1,
    seed: int = 0,
    first_ue_id: int = 0,
) -> None:
    """Validate the parameter quartet shared by every generation entry.

    ``TrafficGenerator.generate`` and :func:`~repro.generator.streaming.
    stream_events` accept the same run parameters; this is the single
    place their domains are enforced, so both entry points reject the
    same bad inputs with the same message.
    """
    for name, value in (
        ("start_hour", start_hour),
        ("num_hours", num_hours),
        ("seed", seed),
        ("first_ue_id", first_ue_id),
    ):
        if not isinstance(value, Integral):
            raise TypeError(
                f"{name} must be an integer, got {type(value).__name__}"
            )
    if num_hours <= 0:
        raise ValueError(f"num_hours must be positive, got {num_hours}")
    if start_hour < 0:
        raise ValueError(f"start_hour must be non-negative, got {start_hour}")
    if first_ue_id < 0:
        raise ValueError(
            f"first_ue_id must be non-negative, got {first_ue_id}"
        )
    if not 0 <= seed < MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")


def _chunk_ues(
    counts: Dict[DeviceType, int], workers: int, num_hours: int
) -> Dict[str, int]:
    """UEs per chunk, by device name: each device type's ``n`` UEs are
    spread over ``workers`` chunks, each at most ``MAX_CHUNK_UE_HOURS``
    UE-hours (and at least one UE)."""
    cap = max(1, MAX_CHUNK_UE_HOURS // num_hours)
    return {
        dt.name: min(-(-n // workers), cap)
        for dt, n in counts.items()
        if n > 0
    }


def _plan_chunks(
    counts: Dict[DeviceType, int], chunk_ues: Dict[str, int], first_ue_id: int
) -> List[Tuple[int, int, int, int]]:
    """Split the population into (device, start_idx, n, first_ue_id) chunks.

    ``chunk_ues`` maps each device name to its UEs per chunk.
    ``start_idx`` is the UE's position in the whole generation order,
    which indexes the seed substream — this is what keeps any chunk plan
    bit-identical to any other.
    """
    chunks = []
    position = 0
    for device_type in sorted(counts, key=int):
        end = position + counts[device_type]
        if end > position:
            size = chunk_ues[device_type.name]
            for start in range(position, end, size):
                n = min(size, end - start)
                chunks.append(
                    (int(device_type), start, n, first_ue_id + start)
                )
        position = end
    return chunks


def _merged(parts: List[tuple], first_ue_id: int, span: int) -> list:
    """Chunk columns concatenated in ``(time, ue)`` order; empties ``parts``
    once they are copied, so peak memory stays at two copies.

    Every chunk's rows are already in that order and its times are whole
    milliseconds, so one stable sort of the integer key ``ms · span +
    (ue − first_ue_id)`` gives the permutation of ``Trace``'s stable
    lexsort, and the trace then finds its columns in order.  A key past
    2^63 (a year of a 300-million-UE run) would wrap; the trace's own
    order check would then sort the rows.
    """
    columns = [np.concatenate(column) for column in zip(*parts)]
    parts.clear()
    ms = np.round(columns[1] / TIMESTAMP_GRANULARITY).astype(np.int64)
    order = stable_order(ms * span + (columns[0] - first_ue_id))
    return [column[order] for column in columns]


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


class TrafficGenerator:
    """Synthesizes control-plane traces from a fitted :class:`ModelSet`."""

    def __init__(self, model_set: ModelSet) -> None:
        if not model_set.models:
            raise ValueError("model set contains no fitted models")
        self.model_set = model_set

    # ------------------------------------------------------------------
    def resolve_counts(self, num_ues: DeviceCounts) -> Dict[DeviceType, int]:
        """Split a total UE count by the training trace's device mix.

        This is where every entry point checks its population: a count
        that is not whole, a negative count, a zero total, or a device
        type the model set has no fitted UEs for, raises ``ValueError``
        before any job runs.
        """
        device_ues = self.model_set.device_ues
        counts = check_counts(num_ues)
        if not isinstance(counts, dict):
            total = counts
            if total == 0:
                raise ValueError("num_ues must be positive, got 0")
            training = {dt: len(ues) for dt, ues in device_ues.items()}
            training_total = sum(training.values())
            counts = {
                dt: int(round(total * n / training_total))
                for dt, n in training.items()
            }
            drift = total - sum(counts.values())
            largest = max(counts, key=lambda d: counts[d])
            counts[largest] += drift
        unfitted = sorted(
            dt.name
            for dt, n in counts.items()
            if dt not in device_ues or (n > 0 and not device_ues[dt])
        )
        if unfitted:
            raise ValueError(f"no fitted model for device types {unfitted}")
        return counts

    # ------------------------------------------------------------------
    def generate(
        self,
        num_ues: DeviceCounts,
        *,
        start_hour: int = 0,
        num_hours: int = 1,
        seed: int = 0,
        first_ue_id: int = 0,
        processes: Optional[int] = 1,
        checkpoint_path: "Optional[str | os.PathLike[str]]" = None,
        resume: bool = False,
        telemetry: Optional[RunTelemetry] = None,
    ) -> Trace:
        """Synthesize a trace for ``num_ues`` UEs over ``num_hours`` hours.

        Every UE gets an independent, reproducible random substream, so
        the output is the same bits for every ``processes``: ``None`` or
        ``1`` runs the chunks in this process, ``0`` uses all CPUs and
        ``>= 2`` that many worker processes (see :mod:`repro.jobs` for
        the retry policy).

        With ``checkpoint_path`` the run snapshots its chunk plan before
        the first chunk and every finished chunk after it (atomically —
        see :mod:`repro.generator.checkpoint`); ``resume=True`` reruns
        the saved plan's missing chunks, under any ``processes``, and
        returns the *complete* trace, bit-identical to an uninterrupted
        run with the same arguments.

        ``telemetry`` selects the collector the run reports to (spans,
        counters, progress — see :mod:`repro.telemetry`); by default the
        ambient collector is used, so counters are always on.  Retries
        bump ``chunk_retries`` and chunks restored from a checkpoint bump
        ``chunks_resumed``.
        """
        validate_run_args(
            start_hour=start_hour,
            num_hours=num_hours,
            seed=seed,
            first_ue_id=first_ue_id,
        )
        workers = check_processes(processes)
        counts = self.resolve_counts(num_ues)
        tele = telemetry if telemetry is not None else get_telemetry()
        with use_telemetry(tele), tele.span("generate"):
            # A model its machine cannot run is the caller's error: raise
            # it here, not as a retried job failure.
            check_model_set(self.model_set)
            resumed, save = open_run(
                checkpoint_path,
                self.model_set,
                counts,
                kind="generate",
                resume=resume,
                telemetry=tele,
                seed=seed,
                start_hour=start_hour,
                num_hours=num_hours,
                first_ue_id=first_ue_id,
            )
            fresh = _chunk_ues(counts, workers, num_hours)
            if resumed is None:
                chunk_ues, results = fresh, {}
                save(chunk_ues=chunk_ues)
            else:
                chunk_ues = resumed.chunk_ues
                results = dict(resumed.chunk_columns)
                if set(chunk_ues) != set(fresh) or min(
                    chunk_ues.values(), default=1
                ) < 1:
                    raise CheckpointError(
                        f"{checkpoint_path}: chunk plan {chunk_ues} does "
                        "not fit this run's population"
                    )
                tele.count("chunks_resumed", len(results))

            chunks = _plan_chunks(counts, chunk_ues, first_ue_id)
            pending = [i for i in range(len(chunks)) if i not in results]
            jobs = [
                Job(
                    chunks[i] + (seed, start_hour, num_hours),
                    {
                        "device": DeviceType(chunks[i][0]).name,
                        "UEs": (chunks[i][3], chunks[i][3] + chunks[i][2]),
                        "hours": (start_hour, start_hour + num_hours),
                    },
                )
                for i in pending
            ]
            for pos, columns in run_jobs(
                _generate_chunk,
                jobs,
                shared={"model": self.model_set},
                processes=processes,
                stage="generate",
            ):
                results[pending[pos]] = columns
                save(chunk_ues=chunk_ues, chunk_columns=results)

            parts = [results.pop(i) for i in range(len(chunks))]
            parts = [part for part in parts if len(part[0])]
            if not parts:
                trace = Trace.empty()
            elif len(parts) == 1:
                trace = Trace(*parts.pop())
            else:
                span = sum(counts.values())
                trace = Trace(*_merged(parts, first_ue_id, span))
        tele.count("events_emitted", len(trace))
        tele.record_peak_rss()
        return trace
