"""Parallel trace generation across processes, with fault tolerance.

The paper ran 38K/380K per-UE generator instances across 12 CPUs with
GNU ``parallel``.  Here the same fan-out uses a
``concurrent.futures.ProcessPoolExecutor``: the UE population is split
into contiguous chunks, each worker generates its chunk with the *same*
per-UE random substreams the serial path would use, and the chunks are
merged in plan order.  The output is bit-identical to
:meth:`TrafficGenerator.generate` with the same arguments.

Per-UE substreams are Philox counters keyed on the UE's position in the
generation order, so per-worker setup is O(chunk), not O(population).

**Fault tolerance.**  Chunks are pure functions of the run parameters,
which makes worker failure cheap to mask:

- a worker that *raises* marks its chunk failed and the chunk is
  retried on a fresh pool;
- a worker that *dies* (OOM-kill, segfault, ``kill -9``) breaks the
  whole pool; the survivors' finished chunks are kept, the crash is
  attributed via per-chunk started-markers, and the unfinished chunks
  are resubmitted to a new pool after capped exponential backoff;
- a chunk that keeps failing is eventually run alone in a single-worker
  pool so blame is unambiguous, and once it exhausts ``max_retries``
  the run fails with a structured :class:`ChunkFailedError` naming the
  exact device, UE range, and hour range — never a bare
  ``BrokenProcessPool``.

Because retried chunks recompute exactly the same events, recovery is
invisible in the output.  With ``checkpoint_path`` every finished
chunk's columns are snapshotted (atomically) so an interrupted run can
``resume=True`` and regenerate only the missing chunks.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from ..model.model_set import ModelSet
from ..telemetry import RunTelemetry, get_telemetry, use_telemetry
from ..trace.events import DeviceType
from ..trace.trace import Trace
from .compiled import CompiledPopulation, generate_columns
from .traffgen import DeviceCounts, TrafficGenerator, validate_run_args

#: Environment knob for fault-injection tests (see
#: :func:`_maybe_inject_fault`).  Format:
#: ``"chunk=<idx>;fails=<k>;mode=<exit|raise>;dir=<path>"`` — the worker
#: handling chunk ``idx`` fails its first ``k`` attempts (counted via
#: marker files under ``dir``), either by dying (``exit``, simulating a
#: crash/OOM-kill) or by raising (``raise``).  Subsequent attempts run
#: normally, so tests can assert transparent recovery and bit-identical
#: output.
FAULT_ENV = "REPRO_TEST_FAULT"

# Worker-global model set and scratch dir, installed once per process by
# _init_worker so each task message carries only the chunk bounds.
_WORKER_MODEL: Optional[ModelSet] = None
_WORKER_SCRATCH: Optional[str] = None


class ChunkFailedError(RuntimeError):
    """A generation chunk failed deterministically after all retries.

    Attributes
    ----------
    device_type:
        The chunk's :class:`DeviceType`.
    ue_range:
        ``(first_ue_id, first_ue_id + n)`` of the failed chunk.
    hour_range:
        ``(start_hour, start_hour + num_hours)`` of the run.
    attempts:
        Number of failed attempts, including the first.
    """

    def __init__(
        self,
        device_type: DeviceType,
        ue_range: Tuple[int, int],
        hour_range: Tuple[int, int],
        attempts: int,
        reason: str,
    ) -> None:
        self.device_type = device_type
        self.ue_range = ue_range
        self.hour_range = hour_range
        self.attempts = attempts
        super().__init__(
            f"chunk for device {device_type.name}, "
            f"UEs [{ue_range[0]}, {ue_range[1]}), "
            f"hours [{hour_range[0]}, {hour_range[1]}) "
            f"failed after {attempts} attempt(s): {reason}"
        )


def _init_worker(model_payload: dict, scratch_dir: Optional[str] = None) -> None:
    global _WORKER_MODEL, _WORKER_SCRATCH
    _WORKER_MODEL = ModelSet.from_dict(model_payload)
    _WORKER_SCRATCH = scratch_dir


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


def _maybe_inject_fault(chunk_idx: int) -> None:
    """Fail this chunk attempt if the :data:`FAULT_ENV` knob says so."""
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return
    fields = dict(part.split("=", 1) for part in spec.split(";") if part)
    if int(fields.get("chunk", -1)) != chunk_idx:
        return
    fails = int(fields.get("fails", 1))
    mode = fields.get("mode", "raise")
    directory = fields["dir"]
    for attempt in range(fails):
        marker = os.path.join(directory, f"fault-{chunk_idx}-{attempt}")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue  # this attempt already spent; try the next slot
        os.close(fd)
        if mode == "exit":
            os._exit(17)  # hard death: no cleanup, pool breaks
        raise RuntimeError(
            f"injected fault on chunk {chunk_idx} (attempt {attempt})"
        )


def _generate_chunk(
    args: Tuple[int, int, int, int, int, int, int, int]
) -> Tuple[tuple, dict]:
    """Generate one chunk inside a worker process.

    Returns ``(columns, telemetry_record)``: the four trace columns plus
    a chunk-local :meth:`RunTelemetry.child_record` the parent merges
    into the run's collector.  Checkpoints store columns only, so the
    record shape never touches the checkpoint format.
    """
    tele = RunTelemetry()
    with use_telemetry(tele):
        columns = _generate_chunk_columns(*args)
    return columns, tele.child_record()


def _generate_chunk_columns(
    chunk_idx: int,
    device_code: int,
    start_idx: int,
    n: int,
    first_ue_id: int,
    seed: int,
    start_hour: int,
    num_hours: int,
) -> tuple:
    assert _WORKER_MODEL is not None, "worker not initialized"
    if _WORKER_SCRATCH is not None:
        # Started-marker: lets the parent attribute a pool crash to the
        # chunks that were actually in flight (see _run_chunks_pool).
        try:
            with open(
                os.path.join(_WORKER_SCRATCH, f"started-{chunk_idx}"), "w"
            ):
                pass
        except OSError:
            pass
    _maybe_inject_fault(chunk_idx)
    population = CompiledPopulation(
        _WORKER_MODEL,
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
    processes: Optional[int] = None,
    chunk_size: int = 500,
    checkpoint_path: "Optional[str | os.PathLike[str]]" = None,
    resume: bool = False,
    max_retries: int = 2,
    retry_backoff: float = 0.5,
    max_backoff: float = 30.0,
    fault_hook: Optional[Callable[[int, int], None]] = None,
    telemetry: Optional[RunTelemetry] = None,
) -> Trace:
    """Generate a trace using a process pool.

    Produces output identical to ``TrafficGenerator(model_set).generate``
    with the same parameters.
    ``processes=None`` uses all CPUs; pass ``processes=1`` to run the
    chunked path in-process (useful for tests and debugging).

    A crashed or raising chunk worker is retried up to ``max_retries``
    times on a fresh process with capped exponential backoff
    (``retry_backoff * 2**k`` seconds, capped at ``max_backoff``); a
    chunk that still fails raises :class:`ChunkFailedError`.  With
    ``checkpoint_path`` each finished chunk is snapshotted so
    ``resume=True`` regenerates only the missing ones.  ``fault_hook``
    is a test-only in-process injection point called as
    ``fault_hook(chunk_idx, attempt)`` before each in-process chunk
    (``processes=1`` only).

    Workers collect chunk-local telemetry (UE-hours, RNG draws, compile
    spans) that is merged into ``telemetry`` (default: the ambient
    collector) as chunks finish; retries bump ``chunk_retries`` and
    chunks restored from a checkpoint bump ``chunks_resumed``.
    """
    validate_run_args(
        start_hour=start_hour,
        num_hours=num_hours,
        seed=seed,
        first_ue_id=first_ue_id,
    )
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be positive, got {chunk_size}")
    if max_retries < 0:
        raise ValueError(f"max_retries must be non-negative, got {max_retries}")
    if retry_backoff < 0:
        raise ValueError(
            f"retry_backoff must be non-negative, got {retry_backoff}"
        )
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
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            max_backoff=max_backoff,
            fault_hook=fault_hook,
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
    max_retries: int,
    retry_backoff: float,
    max_backoff: float,
    fault_hook: Optional[Callable[[int, int], None]],
) -> Trace:
    from .checkpoint import GenerationCheckpoint, RunKey, _rng_provenance

    tele = get_telemetry()
    generator = TrafficGenerator(model_set)
    counts = generator.resolve_counts(num_ues)
    chunks = _plan_chunks(counts, chunk_size, first_ue_id)
    tasks = {
        i: (i, device, start_idx, n, ue0, seed, start_hour, num_hours)
        for i, (device, start_idx, n, ue0) in enumerate(chunks)
    }

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

    pending = sorted(i for i in tasks if i not in results)
    if checkpoint_path is not None and not resume:
        _save()

    def _chunk_failed(idx: int, attempts: int, reason: str) -> ChunkFailedError:
        device, _, n, ue0 = chunks[idx]
        return ChunkFailedError(
            DeviceType(device),
            (ue0, ue0 + n),
            (start_hour, start_hour + num_hours),
            attempts,
            reason,
        )

    if pending:
        backoff = _Backoff(retry_backoff, max_backoff)
        if processes == 1:
            _run_chunks_inline(
                model_set,
                tasks,
                pending,
                results,
                max_retries=max_retries,
                backoff=backoff,
                fault_hook=fault_hook,
                chunk_failed=_chunk_failed,
                save=_save,
            )
        else:
            run_tasks_pool(
                _generate_chunk,
                model_set.to_dict(),
                _init_worker,
                tasks,
                pending,
                results,
                processes=processes,
                max_retries=max_retries,
                backoff=backoff,
                task_failed=_chunk_failed,
                save=_save,
                phase="generate-parallel",
            )

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


class _Backoff:
    """Capped exponential backoff between retry rounds."""

    def __init__(self, base: float, cap: float) -> None:
        self.base = base
        self.cap = cap
        self.failures = 0

    def sleep(self) -> None:
        self.failures += 1
        delay = min(self.base * (2 ** (self.failures - 1)), self.cap)
        if delay > 0:
            time.sleep(delay)


def _run_chunks_inline(
    model_set: ModelSet,
    tasks: Dict[int, tuple],
    pending: List[int],
    results: Dict[int, tuple],
    *,
    max_retries: int,
    backoff: _Backoff,
    fault_hook: Optional[Callable[[int, int], None]],
    chunk_failed: Callable[[int, int, str], ChunkFailedError],
    save: Callable[[], None],
) -> None:
    """Run the chunks in-process (``processes=1``), with the retry policy."""
    tele = get_telemetry()
    tele.max_gauge("active_workers", 1)
    _init_worker(model_set.to_dict())
    for i in pending:
        attempt = 0
        while True:
            try:
                if fault_hook is not None:
                    fault_hook(i, attempt)
                columns, record = _generate_chunk(tasks[i])
            except Exception as exc:
                attempt += 1
                tele.count("chunk_retries")
                if attempt > max_retries:
                    raise chunk_failed(i, attempt, repr(exc)) from exc
                backoff.sleep()
            else:
                results[i] = columns
                tele.merge_child(record)
                tele.progress("generate-parallel", len(results), len(tasks))
                save()
                break


def run_tasks_pool(
    worker: Callable[[tuple], Tuple[Any, dict]],
    payload: Any,
    initializer: Callable[..., None],
    tasks: Dict[int, tuple],
    pending: List[int],
    results: Dict[int, Any],
    *,
    processes: Optional[int],
    max_retries: int,
    backoff: _Backoff,
    task_failed: Callable[[int, int, str], Exception],
    save: Optional[Callable[[], None]] = None,
    phase: str = "parallel-tasks",
    retry_counter: str = "chunk_retries",
) -> None:
    """Drive a set of pure tasks through process pools until done or failed.

    This is the fault-tolerant pool loop shared by parallel generation
    and parallel fitting.  The contract:

    - ``tasks[i]`` is the picklable argument tuple for task ``i``; its
      first element must be ``i`` itself, and ``worker(tasks[i])`` must
      write a ``started-<i>`` marker file into the scratch directory its
      initializer received before doing real work (that is what lets a
      pool crash be attributed to the tasks actually in flight).
    - ``initializer(payload, scratch_dir)`` installs per-process state.
    - ``worker`` returns ``(result, telemetry_child_record)``; results
      land in ``results[i]`` and records are merged into the ambient
      collector.

    Worker exceptions are attributed to their task directly.  A pool
    break (worker death) is attributed to the started-but-unfinished
    tasks; a task suspected in two consecutive broken rounds is rerun
    *alone* in a single-worker pool, where a crash is unambiguous and
    counts as a confirmed failure.  Confirmed failures beyond
    ``max_retries`` raise the exception built by ``task_failed(idx,
    attempts, reason)``.
    """
    tele = get_telemetry()
    confirmed: Dict[int, int] = {}
    streak: Dict[int, int] = {}
    causes: Dict[int, str] = {}
    todo: Set[int] = set(pending)
    while todo:
        isolated = sorted(i for i in todo if streak.get(i, 0) >= 2)
        single = bool(isolated)
        batch = isolated[:1] if single else sorted(todo)
        workers = 1 if single else (processes or os.cpu_count() or 1)
        tele.max_gauge("active_workers", min(len(batch), workers))
        scratch = tempfile.mkdtemp(prefix="repro-tasks-")
        broken = False
        failed_this_round = False
        try:
            with ProcessPoolExecutor(
                max_workers=1 if single else processes,
                initializer=initializer,
                initargs=(payload, scratch),
            ) as executor:
                futures = {}
                try:
                    for i in batch:
                        futures[executor.submit(worker, tasks[i])] = i
                except BrokenProcessPool:
                    broken = True
                for future in as_completed(futures):
                    i = futures[future]
                    try:
                        result, record = future.result()
                    except BrokenProcessPool:
                        broken = True
                    except Exception as exc:
                        failed_this_round = True
                        confirmed[i] = confirmed.get(i, 0) + 1
                        causes[i] = repr(exc)
                        tele.count(retry_counter)
                        if confirmed[i] > max_retries:
                            raise task_failed(
                                i, confirmed[i], causes[i]
                            ) from exc
                    else:
                        results[i] = result
                        tele.merge_child(record)
                        todo.discard(i)
                        streak.pop(i, None)
                        tele.progress(phase, len(results), len(tasks))
                        if save is not None:
                            save()
            if broken:
                failed_this_round = True
                started = {
                    int(name.split("-", 1)[1])
                    for name in os.listdir(scratch)
                    if name.startswith("started-")
                }
                suspects = sorted(todo & started) or sorted(
                    set(batch) & todo
                )
                for i in suspects:
                    causes[i] = "worker process died (pool broken)"
                    tele.count(retry_counter)
                    if single:
                        # Alone in the pool: the crash is this task's.
                        confirmed[i] = confirmed.get(i, 0) + 1
                        if confirmed[i] > max_retries:
                            raise task_failed(i, confirmed[i], causes[i])
                    else:
                        streak[i] = streak.get(i, 0) + 1
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        if todo and failed_this_round:
            backoff.sleep()
