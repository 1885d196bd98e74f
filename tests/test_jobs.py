"""The job runner (:mod:`repro.jobs`) behind generation, fitting and
evaluation.

All three entry points share one ``processes`` contract, and the two
job stages (generate, fit) one failure policy.  These tests pin the
contract on every entry point and drive the retry paths with real
worker deaths and poisoned jobs; an evaluation's fit and generate jobs
are those stages' jobs.  The generation stage's crash and resume tests
live in ``test_checkpoint.py``.
"""

import multiprocessing
import os
import subprocess
import sys

import pytest

from repro import jobs
from repro.generator import TrafficGenerator, traffgen
from repro.harness import evaluate_methods
from repro.jobs import FAULT_ENV, JobFailedError
from repro.model import compiled_fit, fit_model_set
from repro.telemetry import RunTelemetry

from conftest import TRACE_START_HOUR, fresh_copy

FIT = dict(theta_n=25, trace_start_hour=TRACE_START_HOUR)
EVAL = dict(
    methods=("base", "ours"),
    theta_n=25,
    trace_start_hour=TRACE_START_HOUR,
    generation_hour=TRACE_START_HOUR + 1,
    seed=5,
)
GENERATE = dict(start_hour=TRACE_START_HOUR, num_hours=2, seed=3)


def inject_fault(monkeypatch, tmp_path, stage, job, fails, mode):
    monkeypatch.setenv(
        FAULT_ENV,
        f"stage={stage};job={job};fails={fails};mode={mode};dir={tmp_path}",
    )


@pytest.fixture(autouse=True)
def _short_backoff(monkeypatch):
    monkeypatch.setattr(jobs, "BACKOFF", (0.01, 30.0))


@pytest.fixture(autouse=True)
def _small_chunks(monkeypatch):
    """Seven-UE generation chunks, so 40 UEs make several jobs."""
    monkeypatch.setattr(
        traffgen, "MAX_CHUNK_UE_HOURS", 7 * GENERATE["num_hours"]
    )


@pytest.fixture
def run_stage(ground_truth_trace, holdout_trace, ours_model_set):
    """``run_stage(stage, processes, telemetry=None)`` -> a comparable result."""

    def run(stage, processes, telemetry=None):
        if stage == "generate":
            return TrafficGenerator(ours_model_set).generate(
                40,
                processes=processes,
                telemetry=telemetry,
                **GENERATE,
            )
        if stage == "fit":
            return fit_model_set(
                ground_truth_trace,
                processes=processes,
                telemetry=telemetry,
                **FIT,
            ).to_dict()
        return evaluate_methods(
            ground_truth_trace,
            holdout_trace,
            processes=processes,
            telemetry=telemetry,
            **EVAL,
        ).to_dict()

    return run


@pytest.fixture(scope="module")
def serial_results(ground_truth_trace, holdout_trace, ours_model_set):
    return {
        "generate": TrafficGenerator(ours_model_set).generate(
            40, **GENERATE
        ),
        "fit": fit_model_set(ground_truth_trace, **FIT).to_dict(),
        "eval": evaluate_methods(
            ground_truth_trace, holdout_trace, **EVAL
        ).to_dict(),
    }


@pytest.mark.slow
@pytest.mark.parametrize("stage", ("generate", "fit", "eval"))
def test_all_cpus_equals_serial_and_negative_rejected(
    stage, run_stage, serial_results
):
    """``processes=0`` means all CPUs on every entry point (generation
    used to hand 0 to the pool and crash); a negative count is an error
    that names ``processes``."""
    assert run_stage(stage, 0) == serial_results[stage]
    with pytest.raises(ValueError, match="processes"):
        run_stage(stage, -1)


@pytest.mark.parametrize("processes", (1.5, float("nan")))
@pytest.mark.parametrize("stage", ("generate", "fit", "eval"))
def test_non_integral_processes_rejected(stage, processes, run_stage):
    """A worker count that is not an integer is an error naming
    ``processes`` before any job runs (1.5 used to reach the pool, NaN
    to run inline)."""
    with pytest.raises(TypeError, match="processes"):
        run_stage(stage, processes)


@pytest.mark.slow
@pytest.mark.parametrize(
    "stage, counter",
    [("fit", "fit_retries")],
)
def test_killed_worker_recovers_exactly(
    stage, counter, run_stage, serial_results, tmp_path, monkeypatch
):
    inject_fault(monkeypatch, tmp_path, stage, job=1, fails=1, mode="exit")
    tele = RunTelemetry()
    assert run_stage(stage, 2, telemetry=tele) == serial_results[stage]
    # Exactly one injected death, counted as a retry of that stage.
    assert os.listdir(tmp_path) == ["fault-1-0"]
    assert tele.counters[counter] >= 1


#: Job 1 of each stage: the second 7-UE phone chunk; the phone fit of
#: the second hour.
POISONED_LABELS = {
    "generate": {
        "device": "PHONE",
        "UEs": (7, 14),
        "hours": (TRACE_START_HOUR, TRACE_START_HOUR + 2),
    },
    "fit": {"device": "PHONE", "hour": TRACE_START_HOUR + 1},
}


@pytest.mark.slow
@pytest.mark.parametrize("stage", POISONED_LABELS)
def test_poisoned_job_names_stage_and_labels(
    stage, run_stage, tmp_path, monkeypatch
):
    inject_fault(monkeypatch, tmp_path, stage, job=1, fails=99, mode="raise")
    monkeypatch.setattr(jobs, "RETRIES", 1)
    with pytest.raises(JobFailedError) as excinfo:
        run_stage(stage, 2)
    err = excinfo.value
    assert err.stage == stage
    assert err.labels == POISONED_LABELS[stage]
    assert err.attempts == 2
    assert "injected fault" in str(err.__cause__)


def _caller_memo_job(ctx, _):
    """A job that reports what its shared trace brought along."""
    trace = ctx["trace"]
    return trace.memo("probe", lambda: None), trace.content_hash()


@pytest.mark.slow
def test_pooled_job_sees_the_callers_trace(ground_truth_trace, monkeypatch):
    """Workers get ``shared`` as it is: forked ones the caller's own
    Trace, memos included; others an unpickled copy with its hash.  A
    pooled fit of a trace the caller has clustered does not cluster it
    again where workers fork."""
    forked = multiprocessing.get_start_method() == "fork"
    trace = fresh_copy(ground_truth_trace)
    trace.memo("probe", lambda: 42)
    results = dict(
        jobs.run_jobs(
            _caller_memo_job,
            [jobs.Job((i,), {"job": i}) for i in range(2)],
            shared={"trace": trace},
            processes=2,
            stage="fit",
        )
    )
    expected = (42 if forked else None, trace.content_hash())
    assert results == {0: expected, 1: expected}
    if not forked:
        return

    serial = fit_model_set(trace, **FIT)

    def clustered_again(*args, **kwargs):
        raise RuntimeError("clustered again")

    monkeypatch.setattr(compiled_fit, "adaptive_cluster", clustered_again)
    pooled = fit_model_set(trace, processes=2, **FIT)
    assert pooled.to_dict() == serial.to_dict()


#: Run in a child interpreter under the start method in ``argv[1]``:
#: pooled fit and generation of a serially simulated trace, each
#: checked against its serial run by content hash.
_START_METHOD_CHILD = """
import multiprocessing
import sys

from repro.generator import TrafficGenerator
from repro.groundtruth import simulate_ground_truth
from repro.model import fit_model_set
from repro.trace import DeviceType

multiprocessing.set_start_method(sys.argv[1])
ues = {DeviceType.PHONE: 20, DeviceType.CONNECTED_CAR: 8, DeviceType.TABLET: 6}
trace = simulate_ground_truth(ues, 3600.0, start_hour=17, seed=6)
runs = {
    "fit": lambda p: fit_model_set(
        trace, theta_n=5, trace_start_hour=17, processes=p
    ),
}
model = runs["fit"](1)
runs["generate"] = lambda p: TrafficGenerator(model).generate(
    ues, start_hour=17, seed=3, processes=p
)
for stage, run in runs.items():
    serial, pooled = run(1).content_hash(), run(2).content_hash()
    assert pooled == serial, (stage, pooled, serial)
print("equal")
"""


@pytest.mark.slow
@pytest.mark.parametrize("method", ("spawn", "forkserver"))
def test_pooled_stages_equal_serial_under_start_method(method):
    """Workers that do not fork unpickle ``shared``, a Trace through its
    checked constructor; every pooled stage still equals its serial run.
    The start method is set only in the child interpreter."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method on this platform")
    src = os.path.dirname(os.path.dirname(jobs.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    child = subprocess.run(
        [sys.executable, "-c", _START_METHOD_CHILD, method],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["equal"]
