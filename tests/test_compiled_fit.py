"""The fitting engine: exact equivalence, cache, parallel jobs.

The central guarantee is *exact* equality — the fitter must produce a
ModelSet whose ``to_dict()`` compares equal (bit-identical floats) to
the per-segment reference fit in ``oracle.fit``, for every machine
kind, sojourn family, and clustering mode.  The fast sweep runs on the
hand-written tiny trace in tier-1; the slow sweep repeats it on the
shared ground-truth trace.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.model
from repro.baselines import METHOD_NAMES, fit_method
from repro.groundtruth import simulate_ground_truth
from repro.model import build_machine, fit_cache_key, fit_model_set
from repro import jobs
from repro.jobs import JobFailedError
from repro.model.fit_cache import CACHE_DIR_ENV, default_cache_dir
from repro.statemachines import replay_trace
from repro.statemachines.compiled_replay import table_for
from repro.statemachines.lte import emm_ecm_machine, two_level_machine
from repro.statemachines.nr import nr_sa_machine
from repro.telemetry import RunTelemetry
from repro.trace import SECONDS_PER_HOUR, DeviceType, EventType, Trace

from conftest import TRACE_START_HOUR, fresh_copy
from oracle import fit as oracle_fit
from oracle.replay import ReplayResult, decode, replay_ue

SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: machine builder + the event codes that machine can replay.
MACHINES = {
    "two_level": (two_level_machine, [0, 1, 2, 3, 4, 5]),
    "emm_ecm": (emm_ecm_machine, [0, 1, 2, 3]),
    "nr_sa": (nr_sa_machine, [0, 1, 2, 3, 4]),
}

FIT_KWARGS = dict(theta_n=2, trace_start_hour=TRACE_START_HOUR)


def assert_model_sets_equal(a, b):
    """Strict equality: identical structure and bit-identical floats."""
    assert a.to_dict() == b.to_dict()


# ---------------------------------------------------------------------------
# Array replay of one-UE traces vs replay_ue
# ---------------------------------------------------------------------------


def one_ue_trace(events, times):
    """A trace of one UE (id 0) firing ``events`` at ``times``."""
    n = len(events)
    return Trace(
        np.zeros(n, dtype=np.int64),
        np.asarray(times, dtype=np.float64),
        np.asarray([int(e) for e in events], dtype=np.int8),
        np.zeros(n, dtype=np.int8),
    )


def replay_one_ue(events, times, machine=None):
    """``replay_trace`` of a one-UE trace, decoded to a ``ReplayResult``."""
    decoded = decode(replay_trace(one_ue_trace(events, times), machine))
    return decoded.get(0, ReplayResult(records=[], violations=0, final_state=None))


class TestVectorizedReplay:
    @pytest.mark.parametrize("kind", sorted(MACHINES))
    @SETTINGS
    @given(data=st.data())
    def test_matches_replay_ue(self, kind, data):
        builder, codes = MACHINES[kind]
        machine = builder()
        events = data.draw(st.lists(st.sampled_from(codes), max_size=40))
        deltas = data.draw(
            st.lists(
                st.floats(min_value=1e-3, max_value=3600.0, allow_nan=False),
                min_size=len(events),
                max_size=len(events),
            )
        )
        times = np.cumsum(np.asarray(deltas, dtype=np.float64))
        assert replay_one_ue(events, times, machine) == replay_ue(
            events, times, machine
        )

    def test_default_machine_is_two_level(self):
        events = [EventType.ATCH, EventType.SRV_REQ, EventType.S1_CONN_REL]
        times = [1.0, 5.0, 9.0]
        assert replay_one_ue(events, times) == replay_ue(events, times)

    def test_nr_sa_rejects_tau_with_reference_message(self):
        machine = nr_sa_machine()
        with pytest.raises(ValueError) as ref_err:
            replay_ue([EventType.TAU], [1.0], machine)
        with pytest.raises(ValueError) as vec_err:
            replay_trace(one_ue_trace([EventType.TAU], [1.0]), machine)
        assert str(vec_err.value) == str(ref_err.value)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="column lengths differ"):
            replay_trace(
                Trace(
                    np.zeros(1, dtype=np.int64),
                    np.asarray([1.0, 2.0]),
                    np.asarray([int(EventType.ATCH)], dtype=np.int8),
                    np.zeros(1, dtype=np.int8),
                )
            )

    def test_empty_sequence(self):
        replay = replay_trace(Trace.empty())
        assert len(replay) == 0
        assert replay.violations == 0
        assert decode(replay) == {}

    def test_machine_table_cached(self):
        """The fitter lowers each machine kind through the one shared
        ``table_for`` cache."""
        for kind in MACHINES:
            assert table_for(build_machine(kind)) is table_for(build_machine(kind))


# ---------------------------------------------------------------------------
# Exact ModelSet equality, fitter vs reference oracle
# ---------------------------------------------------------------------------


SWEEP = [
    (machine_kind, family, clustered)
    for machine_kind in ("two_level", "emm_ecm")
    for family in ("empirical", "poisson")
    for clustered in (True, False)
]


@pytest.fixture(scope="module")
def silent_hour_trace():
    """A mixed 2-hour trace whose tablets fire in the first hour only."""
    trace = simulate_ground_truth(
        {DeviceType.PHONE: 12, DeviceType.CONNECTED_CAR: 6, DeviceType.TABLET: 5},
        2 * SECONDS_PER_HOUR,
        start_hour=TRACE_START_HOUR,
        seed=3,
    )
    keep = (trace.device_types != int(DeviceType.TABLET)) | (
        trace.times < SECONDS_PER_HOUR
    )
    return Trace(
        trace.ue_ids[keep],
        trace.times[keep],
        trace.event_types[keep],
        trace.device_types[keep],
    )


class TestExactEquivalence:
    @pytest.mark.parametrize("machine_kind,family,clustered", SWEEP)
    def test_tiny_trace_sweep(self, tiny_trace, machine_kind, family, clustered):
        kwargs = dict(
            machine_kind=machine_kind,
            family=family,
            clustered=clustered,
            **FIT_KWARGS,
        )
        ref = oracle_fit.fit_model_set(tiny_trace, **kwargs)
        fast = fit_model_set(tiny_trace, **kwargs)
        assert_model_sets_equal(fast, ref)

    @pytest.mark.parametrize("machine_kind,family,clustered", SWEEP)
    def test_device_silent_in_one_hour_sweep(
        self, silent_hour_trace, machine_kind, family, clustered
    ):
        """An hour's fit job covers every device type; one that has no
        rows in the hour still gets the oracle's model of it."""
        kwargs = dict(
            machine_kind=machine_kind,
            family=family,
            clustered=clustered,
            **FIT_KWARGS,
        )
        ref = oracle_fit.fit_model_set(silent_hour_trace, **kwargs)
        fast = fit_model_set(silent_hour_trace, **kwargs)
        assert sorted(fast.models[DeviceType.TABLET]) == [
            TRACE_START_HOUR,
            TRACE_START_HOUR + 1,
        ]
        assert_model_sets_equal(fast, ref)

    @pytest.mark.slow
    @pytest.mark.parametrize("machine_kind,family,clustered", SWEEP)
    def test_ground_truth_sweep(
        self, ground_truth_trace, machine_kind, family, clustered
    ):
        kwargs = dict(
            machine_kind=machine_kind,
            family=family,
            clustered=clustered,
            theta_n=25,
            trace_start_hour=TRACE_START_HOUR,
        )
        ref = oracle_fit.fit_model_set(ground_truth_trace, **kwargs)
        fast = fit_model_set(ground_truth_trace, **kwargs)
        assert_model_sets_equal(fast, ref)

    def test_nr_sa_raises_identically_on_lte_trace(self, tiny_trace):
        # The tiny trace carries TAU events, which NR-SA cannot source;
        # the machine kind is rejected before any job runs.
        with pytest.raises(ValueError) as ref_err:
            oracle_fit.fit_model_set(
                tiny_trace, machine_kind="nr_sa", **FIT_KWARGS
            )
        for processes in (1, 2):
            with pytest.raises(ValueError) as fast_err:
                fit_model_set(
                    tiny_trace,
                    machine_kind="nr_sa",
                    processes=processes,
                    **FIT_KWARGS,
                )
            assert str(fast_err.value) == str(ref_err.value)

    @pytest.mark.slow
    def test_failing_job_raises_identically_inline_and_pooled(
        self, tiny_trace, monkeypatch, tmp_path
    ):
        """A job's own error surfaces the same way serial and pooled:
        a fit-stage JobFailedError chained from the job's exception."""
        monkeypatch.setattr(jobs, "BACKOFF", (0.0, 0.0))
        causes = []
        for processes in (1, 2):
            faults = tmp_path / f"faults-{processes}"
            faults.mkdir()
            monkeypatch.setenv(
                jobs.FAULT_ENV,
                f"stage=fit;job=0;fails={jobs.RETRIES + 1};mode=raise;dir={faults}",
            )
            with pytest.raises(JobFailedError) as err:
                fit_model_set(tiny_trace, processes=processes, **FIT_KWARGS)
            assert err.value.stage == "fit"
            assert err.value.attempts == jobs.RETRIES + 1
            assert "injected fault in fit job 0" in str(err.value.__cause__)
            assert sorted(p.name for p in faults.iterdir()) == [
                f"fault-0-{attempt}" for attempt in range(jobs.RETRIES + 1)
            ]
            causes.append(type(err.value.__cause__))
        assert causes[0] is causes[1]


class TestDeviceIndependence:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    def test_mixed_fit_equals_each_device_alone(self, ground_truth_trace, method):
        """An hour's job fits every device type in one pass; each
        device's models still equal a fit of its own rows alone, so no
        count, sample or cluster leaks between devices."""
        kwargs = dict(theta_n=25, trace_start_hour=TRACE_START_HOUR)
        mixed = fit_method(method, fresh_copy(ground_truth_trace), **kwargs)
        assert len(mixed.models) == 3
        for dt, hours in mixed.models.items():
            alone = fit_method(method, ground_truth_trace.filter_device(dt), **kwargs)
            assert list(alone.models) == [dt]
            assert sorted(alone.models[dt]) == sorted(hours)
            for hour, model in hours.items():
                assert model.to_dict() == alone.models[dt][hour].to_dict()

    def test_one_job_per_hour(self, ground_truth_trace, monkeypatch):
        planned = []
        run_jobs = repro.model.fitting.run_jobs

        def recording(fn, job_list, **kwargs):
            planned.extend(job.labels for job in job_list)
            return run_jobs(fn, job_list, **kwargs)

        monkeypatch.setattr(repro.model.fitting, "run_jobs", recording)
        fit_model_set(ground_truth_trace, **FIT_KWARGS)
        assert planned == [{"hour": TRACE_START_HOUR + k} for k in range(4)]


# ---------------------------------------------------------------------------
# Argument validation
# ---------------------------------------------------------------------------


class TestValidation:
    def test_engines_tuple(self):
        """Fitting has one engine: no constant to pick one."""
        assert not hasattr(repro.model, "FIT_ENGINES")

    def test_unknown_engine_rejected(self, tiny_trace):
        with pytest.raises(TypeError, match="engine"):
            fit_model_set(tiny_trace, engine="compiled")

    def test_negative_processes_rejected(self, tiny_trace):
        with pytest.raises(ValueError, match="processes"):
            fit_model_set(tiny_trace, processes=-1)

    def test_max_cdf_points_checked_before_any_job(self, tiny_trace, monkeypatch):
        def no_jobs(*args, **kwargs):
            raise AssertionError("a fit job ran")

        monkeypatch.setattr(repro.model.fitting, "run_jobs", no_jobs)
        for bad in (0, -3, 2.5, "512"):
            with pytest.raises(ValueError, match="max_cdf_points"):
                fit_model_set(tiny_trace, max_cdf_points=bad, **FIT_KWARGS)

    def test_fit_job_failed_error_attributes(self):
        err = JobFailedError(
            "fit", {"device": DeviceType.PHONE.name, "hour": 17}, 3, "boom"
        )
        assert err.stage == "fit"
        assert err.labels == {"device": "PHONE", "hour": 17}
        assert err.attempts == 3
        assert err.reason == "boom"
        assert str(err) == (
            "fit job (device PHONE, hour 17) failed after 3 attempt(s): boom"
        )


# ---------------------------------------------------------------------------
# Parallel fitting
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestParallelFit:
    def test_parallel_compiled_matches_serial(self, ground_truth_trace):
        kwargs = dict(theta_n=25, trace_start_hour=TRACE_START_HOUR)
        serial = fit_model_set(ground_truth_trace, **kwargs)
        par = fit_model_set(ground_truth_trace, processes=2, **kwargs)
        assert_model_sets_equal(par, serial)

    def test_parallel_reference_matches_compiled(self, ground_truth_trace):
        """Pooled fit jobs equal the per-segment reference fit."""
        kwargs = dict(theta_n=25, trace_start_hour=TRACE_START_HOUR)
        reference = oracle_fit.fit_model_set(ground_truth_trace, **kwargs)
        par = fit_model_set(ground_truth_trace, processes=2, **kwargs)
        assert_model_sets_equal(par, reference)


# ---------------------------------------------------------------------------
# Model cache
# ---------------------------------------------------------------------------


class TestModelCache:
    def test_cold_then_warm(self, tiny_trace, tmp_path):
        cold_tele = RunTelemetry()
        cold = fit_model_set(
            tiny_trace, cache_dir=tmp_path, telemetry=cold_tele, **FIT_KWARGS
        )
        assert cold_tele.counters.get("cache_misses") == 1
        assert not cold_tele.counters.get("cache_hits")

        warm_tele = RunTelemetry()
        warm = fit_model_set(
            tiny_trace, cache_dir=tmp_path, telemetry=warm_tele, **FIT_KWARGS
        )
        assert warm_tele.counters.get("cache_hits") == 1
        assert_model_sets_equal(warm, cold)

    def test_corrupt_entry_is_a_miss(self, tiny_trace, tmp_path):
        fit_model_set(tiny_trace, cache_dir=tmp_path, **FIT_KWARGS)
        entry = next(tmp_path.glob("modelset-*.pkl"))
        entry.write_bytes(b"definitely not a pickle")
        tele = RunTelemetry()
        fit_model_set(
            tiny_trace, cache_dir=tmp_path, telemetry=tele, **FIT_KWARGS
        )
        assert tele.counters.get("cache_misses") == 1

    def test_key_is_deterministic_and_param_sensitive(self, tiny_trace):
        params = dict(
            machine_kind="two_level",
            family="empirical",
            clustered=True,
            theta_f=5.0,
            theta_n=25,
            trace_start_hour=TRACE_START_HOUR,
            max_cdf_points=200,
        )
        key = fit_cache_key(tiny_trace, **params)
        assert key == fit_cache_key(tiny_trace, **params)
        for name, other in [
            ("family", "poisson"),
            ("theta_n", 99),
            ("trace_start_hour", 0),
            ("max_cdf_points", 10),
        ]:
            assert fit_cache_key(tiny_trace, **{**params, name: other}) != key

    def test_key_tracks_trace_content(self, tiny_trace):
        params = dict(
            machine_kind="two_level",
            family="empirical",
            clustered=True,
            theta_f=5.0,
            theta_n=25,
            trace_start_hour=TRACE_START_HOUR,
            max_cdf_points=200,
        )
        shifted = Trace(
            tiny_trace.ue_ids,
            tiny_trace.times + 1.0,
            tiny_trace.event_types,
            tiny_trace.device_types,
        )
        assert fit_cache_key(shifted, **params) != fit_cache_key(
            tiny_trace, **params
        )

    def test_default_cache_dir_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        assert default_cache_dir() == tmp_path
        monkeypatch.delenv(CACHE_DIR_ENV)
        assert default_cache_dir().name == "repro"

    def test_no_cache_dir_means_no_cache_io(self, tiny_trace):
        tele = RunTelemetry()
        fit_model_set(tiny_trace, telemetry=tele, **FIT_KWARGS)
        assert "cache_hits" not in tele.counters
        assert "cache_misses" not in tele.counters


# ---------------------------------------------------------------------------
# Telemetry
# ---------------------------------------------------------------------------


class TestFitTelemetry:
    def test_counters(self, tiny_trace):
        tele = RunTelemetry()
        fit_model_set(tiny_trace, telemetry=tele, **FIT_KWARGS)
        # Two UEs, one hour slot: two raw segments; the two-level
        # machine replays every event.
        assert tele.counters["segments_replayed"] == 2
        assert tele.counters["transitions_counted"] == tiny_trace.times.size

    def test_emm_ecm_counts_filtered_transitions(self, tiny_trace):
        tele = RunTelemetry()
        fit_model_set(
            tiny_trace, machine_kind="emm_ecm", telemetry=tele, **FIT_KWARGS
        )
        category1 = np.isin(
            tiny_trace.event_types,
            [int(e) for e in (EventType.ATCH, EventType.DTCH,
                              EventType.SRV_REQ, EventType.S1_CONN_REL)],
        )
        assert tele.counters["segments_replayed"] == 2
        assert tele.counters["transitions_counted"] == int(category1.sum())
