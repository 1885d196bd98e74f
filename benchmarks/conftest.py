"""Shared benchmark fixtures: the scaled-down paper setup.

The paper trains on 37,325 UEs over 7 days and validates against 38K
(Scenario 1) and 380K (Scenario 2) UE traces.  The default benchmark
scale is 1/100 of that — it keeps every experiment's *shape* while
running on a laptop in minutes.  Set ``REPRO_BENCH_SCALE`` to scale up
(e.g. ``REPRO_BENCH_SCALE=10`` multiplies every population by 10;
``100`` restores the paper's sizes).

Every bench writes its regenerated table/figure data to
``benchmarks/results/<name>.txt`` and prints it, so running
``pytest benchmarks/ --benchmark-only -s`` reproduces the paper's
artifacts end to end.
"""

import os
import sys
from pathlib import Path

import pytest

from repro.baselines import fit_method
from repro.generator import TrafficGenerator
from repro.groundtruth import simulate_ground_truth
from repro.telemetry import RunTelemetry, get_telemetry, use_telemetry
from repro.trace import DeviceType, Trace, busiest_hour

# The speed benches time the test-only reference implementations
# (``tests/oracle``) as their baseline arm.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Hour-of-day at which the collection trace starts.
START_HOUR = 0

#: Training population (paper: 23,388 / 9,308 / 4,629 over 7 days).
TRAIN_UES = {
    DeviceType.PHONE: max(20, int(234 * SCALE)),
    DeviceType.CONNECTED_CAR: max(10, int(93 * SCALE)),
    DeviceType.TABLET: max(8, int(46 * SCALE)),
}
TRAIN_DAYS = 2 if SCALE <= 2 else 7

#: Validation scenarios (paper: 38,000 and 380,000).
SCENARIO1_UES = max(50, int(380 * SCALE))
SCENARIO2_UES = max(500, int(3800 * SCALE))

#: Clustering size threshold, scaled like the population (paper: 1000).
THETA_N = max(15, int(10 * SCALE))

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(autouse=True)
def bench_telemetry(request):
    """A fresh ambient collector per bench, so each result artifact's
    telemetry JSON covers exactly that bench's generation work.
    (Session-scoped fixtures run before this installs, so their one-off
    fitting cost stays out of the per-bench counters.)"""
    tele = RunTelemetry({"bench": request.node.name, "scale": SCALE})
    with use_telemetry(tele):
        yield tele


def fresh_trace(trace: Trace) -> Trace:
    """The same events in a new Trace (whose constructor builds the
    per-UE index for its one-device check).

    A trace holds the summaries and cluster codes computed from it
    (``Trace.memo``); a speed bench times each run on a fresh copy so
    every run does that work again, as a first call does.
    """
    return Trace(trace.ue_ids, trace.times, trace.event_types, trace.device_types)


def write_result(name: str, text: str) -> None:
    """Write one bench's regenerated artifact and echo it.

    The ambient collector's telemetry report lands next to the text
    artifact (``<name>.telemetry.json``) so the perf trajectory and the
    counter trajectory (events, UE-hours, RNG draws per bench) can be
    tracked together across commits.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    telemetry_path = RESULTS_DIR / f"{name}.telemetry.json"
    get_telemetry().write_report(telemetry_path)
    print(f"\n{text}\n[written to {path}; telemetry in {telemetry_path}]")


@pytest.fixture(scope="session")
def collection_trace() -> Trace:
    """The multi-day "collected" trace (stands in for the carrier data)."""
    return simulate_ground_truth(
        TRAIN_UES,
        duration=TRAIN_DAYS * 86400.0,
        seed=1000,
        start_hour=START_HOUR,
    )


@pytest.fixture(scope="session")
def busy_hour(collection_trace) -> int:
    return busiest_hour(collection_trace)


@pytest.fixture(scope="session")
def method_models(collection_trace):
    """All four methods fitted on the collection trace."""
    return {
        method: fit_method(
            method,
            collection_trace,
            theta_n=THETA_N,
            trace_start_hour=START_HOUR,
        )
        for method in ("base", "v1", "v2", "ours")
    }


def _scenario_traces(num_ues: int, busy_hour: int, seed: int):
    """A held-out real trace and the four synthesized traces."""
    real = simulate_ground_truth(
        {dt: int(round(num_ues * n / sum(TRAIN_UES.values())))
         for dt, n in TRAIN_UES.items()},
        duration=3600.0,
        seed=seed,
        start_hour=busy_hour,
    )
    return real


@pytest.fixture(scope="session")
def scenario1(method_models, busy_hour):
    """Scenario 1: real + synthesized traces at the small population."""
    real = _scenario_traces(SCENARIO1_UES, busy_hour, seed=4321)
    synthesized = {
        method: TrafficGenerator(ms).generate(
            SCENARIO1_UES, start_hour=busy_hour, num_hours=1, seed=77
        )
        for method, ms in method_models.items()
    }
    return {"real": real, "synthesized": synthesized, "num_ues": SCENARIO1_UES}


@pytest.fixture(scope="session")
def scenario2(method_models, busy_hour):
    """Scenario 2: 10x Scenario 1."""
    real = _scenario_traces(SCENARIO2_UES, busy_hour, seed=8765)
    synthesized = {
        method: TrafficGenerator(ms).generate(
            SCENARIO2_UES, start_hour=busy_hour, num_hours=1, seed=78
        )
        for method, ms in method_models.items()
    }
    return {"real": real, "synthesized": synthesized, "num_ues": SCENARIO2_UES}
