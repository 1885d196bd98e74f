"""One fault-tolerant job runner for every fan-out stage.

The paper fans its per-UE generator instances over 12 CPUs with one
tool, GNU ``parallel`` (§8.1).  Here the stages that build models and
synthetic traffic — generation chunks and per-(device, hour) fit jobs —
fan out through one function, :func:`run_jobs`, and fail with one
error, :class:`JobFailedError`.

A stage hands :func:`run_jobs` a job function ``fn``, its :class:`Job`
list and the values every job reads (``shared``).  Each call is
``fn(ctx, *job.args)``, where ``ctx`` is a dict per process seeded from
``shared``; a job may memoize derived data in it (a fit job keeps its
device's arrays there).

``processes`` resolves in one place (:func:`check_processes`):
``None`` or ``1`` runs the jobs inline, ``0`` means all CPUs, and the
worker count is capped at the number of jobs.  When it comes out as 1
the jobs run in this process, under the active telemetry collector,
with nothing pickled.  Otherwise they run on a ``ProcessPoolExecutor``
whose initializer receives ``shared`` as it is.  A forked worker
inherits the caller's objects, so a shared
:class:`~repro.trace.trace.Trace` arrives with its per-UE index,
content hash and :meth:`~repro.trace.trace.Trace.memo` values, and no
copy.  Under the ``spawn`` and ``forkserver`` start methods ``shared``
is pickled once per worker, and a Trace rebuilds through its checked
constructor, without memos.  Each job's worker-local telemetry is
merged back as it finishes.

**Failure policy.**  Jobs are pure, so failures are retried, inline and
pooled alike:

- a job that *raises* is retried in the next round;
- a worker that *dies* (OOM-kill, segfault, ``kill -9``) breaks the
  whole pool; finished results are kept, the death is attributed to the
  jobs that wrote a started-marker but never finished, and the rest are
  resubmitted to a new pool;
- a job suspected in two broken rounds runs *alone* in a single-worker
  pool, where a death is unambiguously its own;
- rounds with a failure are followed by capped exponential backoff
  (:data:`BACKOFF`);
- a job with more than :data:`RETRIES` confirmed failures raises
  :class:`JobFailedError` naming the stage and the job's labels,
  chained ``from`` the job's own exception when it raised one.

Retried jobs recompute exactly the same result, so recovery never
shows in the output.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from numbers import Integral
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from .telemetry import RunTelemetry, get_telemetry, use_telemetry

__all__ = [
    "BACKOFF",
    "FAULT_ENV",
    "Job",
    "JobFailedError",
    "RETRIES",
    "check_processes",
    "run_jobs",
]

#: Confirmed failures a job may have before :class:`JobFailedError`.
RETRIES = 2

#: ``(base, cap)`` seconds: the k-th failed round sleeps
#: ``min(base * 2**(k-1), cap)``.
BACKOFF = (0.5, 30.0)

#: Environment knob for fault-injection tests.  Format:
#: ``"stage=<stage>;job=<idx>;fails=<k>;mode=<exit|raise>;dir=<path>"``
#: — the first ``k`` attempts of job ``idx`` (its position in the
#: ``jobs`` list) of that stage fail, counted through marker files
#: ``fault-<idx>-<attempt>`` under ``dir``, either by killing the worker
#: (``exit``; pooled runs only) or by raising (``raise``).
FAULT_ENV = "REPRO_TEST_FAULT"

#: stage -> (progress phase, retry counter).
_STAGES = {
    "generate": ("generate", "chunk_retries"),
    "fit": ("fit", "fit_retries"),
}


class Job(NamedTuple):
    """One job: the arguments ``fn`` receives after ``ctx``, and the
    labels that name the job in a :class:`JobFailedError`."""

    args: tuple
    labels: Mapping[str, Any]


class JobFailedError(RuntimeError):
    """A job failed after all retries.

    Attributes
    ----------
    stage:
        The stage that ran it (``"generate"`` or ``"fit"``).
    labels:
        The job's labels, e.g. ``{"device": "PHONE", "hour": 17}``; a
        ``(lo, hi)`` pair is a half-open range.
    attempts:
        Number of failed attempts, including the first.
    reason:
        ``repr`` of the last exception, or why the worker died.
    """

    def __init__(
        self, stage: str, labels: Mapping[str, Any], attempts: int, reason: str
    ) -> None:
        self.stage = stage
        self.labels = dict(labels)
        self.attempts = attempts
        self.reason = reason
        named = ", ".join(
            f"{key} [{value[0]}, {value[1]})" if isinstance(value, tuple)
            else f"{key} {value}"
            for key, value in self.labels.items()
        )
        super().__init__(
            f"{stage} job ({named}) failed after {attempts} attempt(s): {reason}"
        )


def check_processes(processes: Optional[int]) -> int:
    """The worker count ``processes`` asks for: ``None``/``1`` inline,
    ``0`` all CPUs.  A count that is not an integer raises ``TypeError``
    and a negative one ``ValueError``, each naming ``processes``."""
    if processes is None:
        return 1
    if not isinstance(processes, Integral):
        raise TypeError(
            f"processes must be an integer, got {type(processes).__name__}"
        )
    if processes < 0:
        raise ValueError(
            f"processes must be non-negative (0 = all CPUs), got {processes}"
        )
    return int(processes) or os.cpu_count() or 1


def run_jobs(
    fn: Callable[..., Any],
    jobs: Sequence[Job],
    *,
    shared: Optional[Mapping[str, Any]] = None,
    processes: Optional[int] = None,
    stage: str,
) -> Iterator[Tuple[int, Any]]:
    """Run ``fn(ctx, *job.args)`` for every job; yield ``(index, result)``.

    Results arrive in completion order; ``index`` is the job's position
    in ``jobs``.  ``fn`` must be a module-level function (pooled runs
    pickle it by name).  A worker's ``ctx`` starts as a copy of
    ``shared``: of the caller's own objects where workers fork, of
    unpickled ones otherwise.  See the module docstring for
    ``processes`` and the failure policy; ``stage`` names the progress
    phase, the retry counter and the stage in :class:`JobFailedError`.
    """
    phase, retry_counter = _STAGES[stage]
    jobs = list(jobs)
    shared = dict(shared or {})
    workers = max(1, min(check_processes(processes), len(jobs)))
    tele = get_telemetry()
    if jobs:
        tele.max_gauge("active_workers", workers)

    confirmed: Counter = Counter()
    streak: Counter = Counter()
    todo = list(range(len(jobs)))
    failed_rounds = 0
    while todo:
        isolated = [i for i in todo if streak[i] >= 2]
        batch = isolated[:1] or list(todo)
        if workers == 1:
            outcomes = _inline_round(fn, shared, stage, jobs, batch)
        else:
            outcomes = _pool_round(
                fn, shared, stage, jobs, batch, 1 if isolated else workers
            )
        failed = False
        with contextlib.closing(outcomes):
            for i, kind, value in outcomes:
                if kind == "done":
                    result, record = value
                    if record is not None:
                        tele.merge_child(record)
                    todo.remove(i)
                    streak.pop(i, None)
                    tele.progress(phase, len(jobs) - len(todo), len(jobs))
                    yield i, result
                    continue
                failed = True
                tele.count(retry_counter)
                if kind == "died" and not isolated:
                    streak[i] += 1
                    continue
                confirmed[i] += 1
                if confirmed[i] > RETRIES:
                    reason = (
                        "worker process died (pool broken)"
                        if kind == "died" else repr(value)
                    )
                    error = JobFailedError(
                        stage, jobs[i].labels, confirmed[i], reason
                    )
                    if kind == "raised":
                        raise error from value
                    raise error
        if todo and failed:
            failed_rounds += 1
            base, cap = BACKOFF
            delay = min(base * 2 ** (failed_rounds - 1), cap)
            if delay > 0:
                time.sleep(delay)


# ---------------------------------------------------------------------------
# Rounds.  Each yields (index, kind, value): ("done", (result, record)),
# ("raised", exception) or ("died", None).
# ---------------------------------------------------------------------------

def _inline_round(
    fn: Callable[..., Any],
    ctx: Dict[str, Any],
    stage: str,
    jobs: List[Job],
    batch: List[int],
) -> Iterator[Tuple[int, str, Any]]:
    for i in batch:
        try:
            _inject_fault(stage, i)
            outcome = (i, "done", (fn(ctx, *jobs[i].args), None))
        except Exception as exc:
            outcome = (i, "raised", exc)
        yield outcome


def _pool_round(
    fn: Callable[..., Any],
    shared: Dict[str, Any],
    stage: str,
    jobs: List[Job],
    batch: List[int],
    workers: int,
) -> Iterator[Tuple[int, str, Any]]:
    scratch = tempfile.mkdtemp(prefix=f"repro-{stage}-round-")
    unresolved = set(batch)
    broken = False
    pool = ProcessPoolExecutor(
        max_workers=workers,
        initializer=_start_worker,
        initargs=(shared, scratch),
    )
    try:
        futures = {}
        try:
            for i in batch:
                futures[pool.submit(_worker_call, fn, stage, i, jobs[i].args)] = i
        except BrokenProcessPool:
            broken = True
        for future in as_completed(futures):
            i = futures[future]
            try:
                outcome = (i, "done", future.result())
            except BrokenProcessPool:
                broken = True
                continue
            except Exception as exc:
                outcome = (i, "raised", exc)
            unresolved.discard(i)
            yield outcome
        if broken:
            # Blame the jobs a worker had started; if none had, the pool
            # broke before any started and every unresolved job is suspect.
            started = {
                int(name.split("-", 1)[1])
                for name in os.listdir(scratch)
                if name.startswith("started-")
            }
            for i in sorted(unresolved & started) or sorted(unresolved):
                yield i, "died", None
    finally:
        # A caller that stops early (a job out of retries) cancels the
        # jobs still queued instead of waiting for them.
        pool.shutdown(wait=True, cancel_futures=True)
        shutil.rmtree(scratch, ignore_errors=True)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: This worker process's context and scratch directory (set by
#: :func:`_start_worker`; empty in the parent).
_PROCESS: Dict[str, Any] = {}


def _start_worker(shared: Dict[str, Any], scratch: str) -> None:
    _PROCESS["ctx"] = dict(shared)
    _PROCESS["scratch"] = scratch


def _worker_call(
    fn: Callable[..., Any], stage: str, index: int, args: tuple
) -> Tuple[Any, dict]:
    """Run one job in a worker; returns ``(result, telemetry_record)``."""
    try:
        # The started-marker lets the parent attribute a pool break to
        # the jobs that were actually in flight.
        with open(os.path.join(_PROCESS["scratch"], f"started-{index}"), "w"):
            pass
    except OSError:
        pass
    _inject_fault(stage, index)
    tele = RunTelemetry()
    with use_telemetry(tele):
        result = fn(_PROCESS["ctx"], *args)
    return result, tele.child_record()


def _inject_fault(stage: str, index: int) -> None:
    """Fail this attempt if the :data:`FAULT_ENV` knob says so."""
    spec = os.environ.get(FAULT_ENV)
    if not spec:
        return
    fields = dict(part.split("=", 1) for part in spec.split(";") if part)
    if fields.get("stage") != stage or int(fields.get("job", -1)) != index:
        return
    for attempt in range(int(fields.get("fails", 1))):
        marker = os.path.join(fields["dir"], f"fault-{index}-{attempt}")
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            continue  # this attempt already spent; try the next slot
        os.close(fd)
        if fields.get("mode", "raise") == "exit":
            os._exit(17)  # hard death: no cleanup, the pool breaks
        raise RuntimeError(
            f"injected fault in {stage} job {index} (attempt {attempt})"
        )
