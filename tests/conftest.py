"""Shared fixtures: small ground-truth traces and fitted model sets.

Expensive artifacts are session-scoped; tests must treat them as
read-only.
"""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.baselines import fit_method
from repro.generator import TrafficGenerator
from repro.groundtruth import simulate_ground_truth
from repro.mcn import network
from repro.telemetry import RunTelemetry
from repro.trace import DeviceType, EventType, Trace

from oracle import groundtruth as oracle_groundtruth

#: Hour-of-day at which the shared traces start.
TRACE_START_HOUR = 17

#: ``--hypothesis-profile=fuzz-campaign`` runs the raw-column fuzz of
#: ``test_trace_fuzz.py`` at campaign size (1,500 examples, about 40 s
#: on a 2-vCPU VM).  The profile sets nothing itself, so every other
#: hypothesis test keeps its own settings.
settings.register_profile("fuzz-campaign")


@pytest.fixture(scope="session")
def ground_truth_trace() -> Trace:
    """A 4-hour, ~150-UE ground-truth trace starting in the evening."""
    return simulate_ground_truth(
        {
            DeviceType.PHONE: 90,
            DeviceType.CONNECTED_CAR: 35,
            DeviceType.TABLET: 25,
        },
        duration=4 * 3600.0,
        seed=42,
        start_hour=TRACE_START_HOUR,
    )


@pytest.fixture(scope="session")
def oracle_ground_truth_trace() -> Trace:
    """:func:`ground_truth_trace` as the oracle simulator draws it.

    Tests that pin or gate fitting and generation on a fixed trace read
    this one, so that their input does not move with the ground-truth
    engine's random streams.
    """
    return oracle_groundtruth.simulate_ground_truth(
        {
            DeviceType.PHONE: 90,
            DeviceType.CONNECTED_CAR: 35,
            DeviceType.TABLET: 25,
        },
        duration=4 * 3600.0,
        seed=42,
        start_hour=TRACE_START_HOUR,
    )


@pytest.fixture(scope="session")
def oracle_ours_model_set(oracle_ground_truth_trace):
    """The proposed model fitted on the oracle's ground-truth trace."""
    return fit_method(
        "ours",
        oracle_ground_truth_trace,
        theta_n=25,
        trace_start_hour=TRACE_START_HOUR,
    )


@pytest.fixture(scope="session")
def oracle_base_model_set(oracle_ground_truth_trace):
    """The Base baseline fitted on the oracle's ground-truth trace."""
    return fit_method(
        "base",
        oracle_ground_truth_trace,
        trace_start_hour=TRACE_START_HOUR,
    )


@pytest.fixture(scope="session")
def holdout_trace() -> Trace:
    """A held-out "real" trace (fresh seed) for validation comparisons."""
    return simulate_ground_truth(
        {
            DeviceType.PHONE: 90,
            DeviceType.CONNECTED_CAR: 35,
            DeviceType.TABLET: 25,
        },
        duration=2 * 3600.0,
        seed=123,
        start_hour=TRACE_START_HOUR + 1,
    )


@pytest.fixture(scope="session")
def ours_model_set(ground_truth_trace):
    """The proposed model fitted on the shared ground-truth trace."""
    return fit_method(
        "ours",
        ground_truth_trace,
        theta_n=25,
        trace_start_hour=TRACE_START_HOUR,
    )


@pytest.fixture(scope="session")
def base_model_set(ground_truth_trace):
    """The Base baseline fitted on the shared ground-truth trace."""
    return fit_method(
        "base",
        ground_truth_trace,
        trace_start_hour=TRACE_START_HOUR,
    )


@pytest.fixture(scope="session")
def synthesized_trace(ours_model_set) -> Trace:
    """One synthesized busy hour from the proposed model."""
    return TrafficGenerator(ours_model_set).generate(
        150, start_hour=TRACE_START_HOUR + 1, num_hours=1, seed=7
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture(autouse=True)
def _isolated_model_cache(tmp_path, monkeypatch):
    """Keep the fit cache out of the real user cache dir during tests."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


def make_trace(rows):
    """Build a Trace from (ue, time, event, device) tuples."""
    return Trace(
        np.array([r[0] for r in rows], dtype=np.int64),
        np.array([r[1] for r in rows], dtype=np.float64),
        np.array([int(r[2]) for r in rows], dtype=np.int8),
        np.array([int(r[3]) for r in rows], dtype=np.int8),
    )


def fresh_copy(trace):
    """The same events in a new Trace, which holds none of ``trace``'s
    memoized summaries or cluster codes."""
    return Trace(trace.ue_ids, trace.times, trace.event_types, trace.device_types)


#: For the MCN simulators: bursts of rows on a 0.5 ms grid, each after
#: a quiet gap of 0.1 s or 2 s.  A burst of many rows queues at one or
#: two workers; the gaps split the events into clusters and, with small
#: windows, into windows.
mcn_bursts = st.lists(
    st.tuples(
        st.sampled_from([0.1, 2.0]),
        st.lists(
            st.tuples(
                st.integers(0, 5),                   # UE
                st.integers(0, 8),                   # grid step in the burst
                st.integers(0, len(EventType) - 1),
            ),
            min_size=1,
            max_size=25,
        ),
    ),
    min_size=1,
    max_size=8,
)
#: Handled events per MCN window (``repro.mcn.network.WINDOW_EVENTS``):
#: one window per cluster, a few clusters per window, or all in one.
mcn_window_events = st.sampled_from([1, 3, 16, network.WINDOW_EVENTS])


def burst_trace(bursts):
    """A phone trace of ``mcn_bursts``: each burst starts its gap after
    the previous burst's start."""
    rows = []
    start = 0.0
    for gap, burst in bursts:
        start += gap
        rows += [(ue, start + k * 0.0005, code, DeviceType.PHONE) for ue, k, code in burst]
    return make_trace(rows)


def served_windows(sim, trace):
    """``sim``'s report on ``trace`` and its (windows, queued windows)."""
    tele = RunTelemetry()
    report = sim.process(trace, telemetry=tele)
    counters = tele.counters
    return report, (counters["mcn_windows"], counters["mcn_windows_queued"])


@pytest.fixture()
def tiny_trace() -> Trace:
    """A deliberately small, hand-written valid two-level trace."""
    P = DeviceType.PHONE
    E = EventType
    return make_trace(
        [
            (1, 0.5, E.ATCH, P),
            (1, 10.0, E.HO, P),
            (1, 12.0, E.TAU, P),
            (1, 30.0, E.S1_CONN_REL, P),
            (1, 40.0, E.TAU, P),
            (1, 41.0, E.S1_CONN_REL, P),
            (1, 100.0, E.SRV_REQ, P),
            (1, 130.0, E.DTCH, P),
            (2, 5.0, E.SRV_REQ, P),
            (2, 25.0, E.S1_CONN_REL, P),
            (2, 60.0, E.SRV_REQ, P),
            (2, 90.0, E.S1_CONN_REL, P),
        ]
    )


def v1_edge(event, target, probability, *, rate=None, quantiles=None) -> dict:
    """One edge of a ``repro-model-set-v1`` chain: exponential at
    ``rate``, or empirical with knots ``quantiles``."""
    sojourn = (
        {"family": "poisson", "rate": rate}
        if quantiles is None
        else {"family": "empirical", "quantiles": list(quantiles)}
    )
    return {
        "event": event.name,
        "target": target,
        "probability": probability,
        "sojourn": sojourn,
    }


def v1_hour(chain) -> dict:
    """One hour of a v1 model set: one cluster with ``chain`` (state
    name -> list of :func:`v1_edge`), holding training UE 1."""
    return {
        "clusters": [
            {
                "chain": chain,
                "first_event": {
                    "p_active": 1.0,
                    "event_probs": {"SRV_REQ": 1.0},
                    "offset": [5.0],
                },
                "overlay_rates": {},
                "num_ues": 1,
                "num_segments": 1,
            }
        ],
        "assignment": {"1": 0},
    }


def v1_model_set(chain, machine_kind="two_level") -> dict:
    """A v1 model set of one phone hour (hour 0) built by :func:`v1_hour`."""
    return {
        "format": "repro-model-set-v1",
        "machine_kind": machine_kind,
        "family": "empirical",
        "clustered": False,
        "theta_f": 5.0,
        "theta_n": 1000,
        "models": {"PHONE": {"0": v1_hour(chain)}},
        "device_ues": {"PHONE": [1]},
    }
