"""Tests for the procedure-level core simulator (repro.mcn.network)."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.fiveg import to_sa_trace
from repro.groundtruth import simulate_ground_truth
from repro.mcn import (
    EPC_FUNCTIONS,
    EPC_PROCEDURES,
    EPC_TO_5GC,
    FIVEGC_FUNCTIONS,
    FIVEGC_PROCEDURES,
    CoreNetworkSimulator,
    MmeSimulator,
    ProcedureReport,
    functions_for,
    procedures_for,
)
from repro.mcn import network
from repro.trace import DeviceType, EventType, Trace

from conftest import (
    burst_trace,
    make_trace,
    mcn_bursts,
    mcn_window_events,
    served_windows,
)
from oracle.mcn import core_report, mme_report

E = EventType
P = DeviceType.PHONE


class TestProcedures:
    def test_every_lte_event_has_a_procedure(self):
        assert set(EPC_PROCEDURES) == set(EventType)

    def test_5gc_has_no_tau(self):
        assert E.TAU not in FIVEGC_PROCEDURES
        assert set(FIVEGC_PROCEDURES) == set(EventType) - {E.TAU}

    def test_procedures_use_declared_functions(self):
        for proc in EPC_PROCEDURES.values():
            assert set(proc.functions()) <= set(EPC_FUNCTIONS)
        for proc in FIVEGC_PROCEDURES.values():
            assert set(proc.functions()) <= set(FIVEGC_FUNCTIONS)

    def test_attach_is_heaviest_procedure(self):
        attach = EPC_PROCEDURES[E.ATCH].total_service
        for event, proc in EPC_PROCEDURES.items():
            if event != E.ATCH:
                assert attach >= proc.total_service

    def test_attach_touches_hss(self):
        assert "HSS" in EPC_PROCEDURES[E.ATCH].functions()

    def test_role_mapping_complete(self):
        assert set(EPC_TO_5GC) == set(EPC_FUNCTIONS)
        assert set(EPC_TO_5GC.values()) == set(FIVEGC_FUNCTIONS)

    def test_registry_accessors(self):
        assert procedures_for("epc") is EPC_PROCEDURES
        assert functions_for("5gc") == FIVEGC_FUNCTIONS
        with pytest.raises(ValueError):
            procedures_for("6gc")
        with pytest.raises(ValueError):
            functions_for("6gc")


class TestSimulatorConstruction:
    def test_rejects_bad_workers(self):
        """Counts must be positive integers; the message names the
        parameter (a bool or ``2.5`` is not a worker count)."""
        for workers, name in [
            (0, "workers"),
            (2.5, "workers"),
            (True, "workers"),
            (np.bool_(True), "workers"),
            ("4", "workers"),
            ({"MME": 0}, "workers['MME']"),
            ({"MME": 2.5}, "workers['MME']"),
            ({"SGW": False}, "workers['SGW']"),
        ]:
            message = re.escape(f"{name} must be a positive integer")
            with pytest.raises(ValueError, match=message):
                CoreNetworkSimulator(workers=workers)

    def test_rejects_bad_link_delay(self):
        """A NaN delay would make every latency negative."""
        for delay in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="link_delay must be finite"):
                CoreNetworkSimulator(link_delay=delay)

    def test_per_function_workers(self):
        sim = CoreNetworkSimulator(workers={"MME": 8})
        assert sim.workers["MME"] == 8
        assert sim.workers["HSS"] == 4  # default

    def test_accepts_numpy_integer_workers(self):
        sim = CoreNetworkSimulator(workers=np.int64(2))
        assert sim.workers == {nf: 2 for nf in EPC_FUNCTIONS}
        sim = CoreNetworkSimulator("5gc", workers={"AMF": np.int32(3)})
        assert sim.workers["AMF"] == 3
        assert all(type(w) is int for w in sim.workers.values())

    @pytest.mark.parametrize("simulator", [CoreNetworkSimulator, MmeSimulator])
    @pytest.mark.parametrize(
        "seed,error,message",
        [
            (-1, ValueError, "seed must be non-negative, got -1"),
            (1.5, TypeError, "seed must be an integer, got float"),
            ("3", TypeError, "seed must be an integer, got str"),
        ],
    )
    def test_rejects_bad_seed(self, simulator, seed, error, message):
        """A bad seed fails at construction, naming ``seed``, not later
        inside NumPy and only when jitter is drawn."""
        with pytest.raises(error, match=re.escape(message)):
            simulator(seed=seed)

    @pytest.mark.parametrize("simulator", [CoreNetworkSimulator, MmeSimulator])
    def test_accepts_numpy_integer_seed(self, simulator):
        assert simulator(seed=np.int64(7)).seed == 7

    @pytest.mark.parametrize("jitter", [np.nan, -0.1, 1.0])
    def test_rejects_bad_jitter(self, jitter):
        with pytest.raises(ValueError, match="service_jitter"):
            CoreNetworkSimulator(service_jitter=jitter)

    @pytest.mark.parametrize(
        "core,workers,unknown",
        [
            ("epc", {"MMe": 8, "AMF": 16}, "['AMF', 'MMe']"),
            ("5gc", {"AMF": 8, "MME": 2}, "['MME']"),
        ],
    )
    def test_rejects_unknown_function_names(self, core, workers, unknown):
        with pytest.raises(ValueError) as excinfo:
            CoreNetworkSimulator(core, workers=workers)
        message = str(excinfo.value)
        assert unknown in message
        assert str(list(functions_for(core))) in message


class TestProcessing:
    def test_empty_trace_yields_empty_report(self):
        report = CoreNetworkSimulator().process(Trace.empty())
        assert report.num_events == 0
        assert report.bottleneck() is None

    def test_message_count(self):
        tr = make_trace([(1, 0.0, E.SRV_REQ, P), (1, 10.0, E.S1_CONN_REL, P)])
        report = CoreNetworkSimulator(seed=1).process(tr)
        expected = len(EPC_PROCEDURES[E.SRV_REQ].steps) + len(
            EPC_PROCEDURES[E.S1_CONN_REL].steps
        )
        assert report.num_messages == expected
        assert report.num_events == 2

    def test_procedure_latency_exceeds_service_floor(self):
        tr = make_trace([(1, 0.0, E.ATCH, P)])
        sim = CoreNetworkSimulator(seed=0, service_jitter=0.0)
        report = sim.process(tr)
        attach = report.procedures["attach"]
        proc = EPC_PROCEDURES[E.ATCH]
        floor = proc.total_service + sim.link_delay * (len(proc.steps) - 1)
        assert attach.mean_latency == pytest.approx(floor, rel=1e-6)

    def test_function_reports_cover_all_nfs(self, ground_truth_trace):
        report = CoreNetworkSimulator(seed=2).process(
            ground_truth_trace.window(0, 900.0)
        )
        assert set(report.functions) == set(EPC_FUNCTIONS)
        mme = report.functions["MME"]
        assert mme.messages > 0
        assert 0.0 <= mme.utilization <= 1.0

    def test_mme_is_bottleneck_under_lte(self, ground_truth_trace):
        """The MME fronts every procedure, so it carries the most load."""
        report = CoreNetworkSimulator(seed=2).process(
            ground_truth_trace.window(0, 1800.0)
        )
        assert report.bottleneck() == "MME"

    def test_overload_produces_waits(self):
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0, 5.0, 3000))
        tr = make_trace([(i % 40, float(t), E.SRV_REQ, P) for i, t in enumerate(times)])
        report = CoreNetworkSimulator(workers=1, seed=1).process(tr)
        assert report.functions["MME"].mean_wait > 0.01
        assert report.functions["MME"].utilization > 0.9

    def test_more_workers_help(self):
        rng = np.random.default_rng(3)
        times = np.sort(rng.uniform(0, 10.0, 2000))
        tr = make_trace([(i % 40, float(t), E.SRV_REQ, P) for i, t in enumerate(times)])
        small = CoreNetworkSimulator(workers=1, seed=1).process(tr)
        big = CoreNetworkSimulator(workers=8, seed=1).process(tr)
        assert big.functions["MME"].mean_wait < small.functions["MME"].mean_wait

    def test_deterministic(self, ground_truth_trace):
        window = ground_truth_trace.window(0, 600.0)
        a = CoreNetworkSimulator(seed=9).process(window)
        b = CoreNetworkSimulator(seed=9).process(window)
        assert a.functions["MME"].mean_wait == b.functions["MME"].mean_wait

    def test_5gc_skips_tau(self):
        tr = make_trace([(1, 0.0, E.SRV_REQ, P), (1, 5.0, E.TAU, P)])
        report = CoreNetworkSimulator(core="5gc", seed=1).process(tr)
        assert report.num_events == 1  # the TAU is not a 5GC procedure
        assert set(report.functions) == set(FIVEGC_FUNCTIONS)

    @pytest.mark.parametrize("link_delay", [0.0, 0.0005])
    def test_jitter_goes_by_message_identity(self, link_delay):
        """Step ``s`` of the ``i``-th handled event takes factor
        ``base[i] + s`` of ``default_rng(seed)``, whichever order the
        messages are served in.  With a worker per message, nothing
        waits, so each latency is the closed form: the steps' service
        times and link delays added to the arrival, in step order."""
        codes = [E.ATCH, E.SRV_REQ, E.HO, E.TAU, E.DTCH, E.S1_CONN_REL] * 4
        rows = [(ue, 0.0007 * ue, code, P) for ue, code in enumerate(codes)]
        trace = make_trace(rows)
        sim = CoreNetworkSimulator(
            workers=64, link_delay=link_delay, service_jitter=0.3, seed=11
        )
        procedures = [EPC_PROCEDURES[E(int(code))] for code in trace.event_types]
        num_messages = sum(len(p.steps) for p in procedures)
        factors = np.random.default_rng(11).uniform(0.7, 1.3, num_messages)
        latencies = {}
        m = 0
        for arrival, procedure in zip(trace.times.tolist(), procedures):
            t = arrival
            for s, step in enumerate(procedure.steps):
                if s:
                    t += link_delay
                t += step.service_mean * factors[m]
                m += 1
            latencies.setdefault(procedure.name, []).append(t - arrival)
        report = sim.process(trace)
        assert all(f.max_wait == 0.0 for f in report.functions.values())
        for name, values in latencies.items():
            arr = np.array(values)
            p95, p99 = np.percentile(arr, [95.0, 99.0])
            assert report.procedures[name] == ProcedureReport(
                name, arr.size, float(arr.mean()), float(p95), float(p99), float(arr.max())
            )

    def test_5gc_procedure_names(self, ground_truth_trace):
        report = CoreNetworkSimulator(core="5gc", seed=1).process(
            ground_truth_trace.window(0, 900.0)
        )
        assert "registration" in report.procedures or "service_request" in report.procedures


#: The CLI command that drives each MCN simulator with a trace file.
_COMMANDS = {
    "epc": ["core", "--core", "epc"],
    "5gc": ["core", "--core", "5gc"],
    "mme": ["mme"],
}


class TestInputValidation:
    """A bad trace never reaches a simulator, which does not re-check
    its input: the reader's ``Trace`` rejects the column, and each
    simulator's command reports it as a usage error (exit status 2)."""

    def _assert_rejected(self, simulator, times, codes, column, tmp_path, capsys):
        path = tmp_path / "bad.npz"
        np.savez(
            path,
            ue_ids=np.arange(3),
            times=np.asarray(times, dtype=np.float64),
            event_types=np.asarray(codes),
            device_types=np.zeros(3, dtype=np.int8),
        )
        with pytest.raises(SystemExit) as excinfo:
            main(_COMMANDS[simulator] + ["--trace", str(path)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"repro: error: {path}: trace column '{column}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("simulator", sorted(_COMMANDS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_times_name_the_column(self, simulator, bad, tmp_path, capsys):
        self._assert_rejected(
            simulator, [0.0, bad, 2.0], [E.SRV_REQ] * 3, "times", tmp_path, capsys
        )

    @pytest.mark.parametrize("simulator", sorted(_COMMANDS))
    @pytest.mark.parametrize("code", [-1, 6, 127])
    def test_unknown_event_codes_name_the_column(self, simulator, code, tmp_path, capsys):
        self._assert_rejected(
            simulator, [0.0, 1.0, 2.0], [E.SRV_REQ, code, E.HO], "event_types",
            tmp_path, capsys,
        )


# ----------------------------------------------------------------------
# Exact equality with the per-message reference walks (tests/oracle)
# ----------------------------------------------------------------------
def _assert_core_equal(sim, trace):
    assert dataclasses.asdict(sim.process(trace)) == dataclasses.asdict(
        core_report(sim, trace)
    )


def _assert_mme_equal(sim, trace):
    report = sim.process(trace)
    assert dataclasses.asdict(report) == dataclasses.asdict(mme_report(sim, trace))
    return report


#: Few distinct times on a 0.5 ms grid, so arrivals tie with each other
#: and with follow-up steps (service means and link delays sit on the
#: same grid).
_rows = st.lists(
    st.tuples(
        st.integers(0, 5),                       # UE
        st.integers(0, 12).map(lambda k: k * 0.0005),
        st.integers(0, len(EventType) - 1),
    ),
    min_size=1,
    max_size=60,
)
#: A core and a worker count for all its functions or some of them.
_core_workers = st.sampled_from(["epc", "5gc"]).flatmap(
    lambda core: st.tuples(
        st.just(core),
        st.one_of(
            st.integers(1, 3),
            st.dictionaries(st.sampled_from(functions_for(core)), st.integers(1, 3)),
        ),
    )
)
_jitter = st.sampled_from([0.0, 0.3])


def _phone_trace(rows):
    """A phone trace of ``_rows``' (UE, time, event code) rows."""
    return make_trace([(ue, t, code, DeviceType.PHONE) for ue, t, code in rows])


class TestOracleEquality:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        rows=_rows,
        core_workers=_core_workers,
        jitter=_jitter,
        link_delay=st.sampled_from([0.0, 0.0005]),
        seed=st.integers(0, 2**16),
    )
    def test_core_equals_oracle(self, rows, core_workers, jitter, link_delay, seed):
        core, workers = core_workers
        sim = CoreNetworkSimulator(
            core, workers=workers, link_delay=link_delay, service_jitter=jitter, seed=seed
        )
        _assert_core_equal(sim, _phone_trace(rows))

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        rows=_rows,
        workers=st.integers(1, 3),
        jitter=_jitter,
        seed=st.integers(0, 2**16),
    )
    def test_mme_equals_oracle(self, rows, workers, jitter, seed):
        sim = MmeSimulator(workers, service_jitter=jitter, seed=seed)
        _assert_mme_equal(sim, _phone_trace(rows))

    @pytest.mark.parametrize("core", ["epc", "5gc"])
    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    def test_core_ground_truth(self, ground_truth_trace, core, workers, jitter):
        sim = CoreNetworkSimulator(core, workers=workers, service_jitter=jitter, seed=3)
        _assert_core_equal(sim, ground_truth_trace)

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    def test_mme_ground_truth(self, ground_truth_trace, workers, jitter):
        sim = MmeSimulator(workers, service_jitter=jitter, seed=3)
        assert _assert_mme_equal(sim, ground_truth_trace).protocol_violations == 0

    def test_base_traffic_with_violations(self, base_model_set):
        from repro.generator import TrafficGenerator

        tr = TrafficGenerator(base_model_set).generate(60, start_hour=18, seed=4)
        assert _assert_mme_equal(MmeSimulator(seed=2), tr).protocol_violations > 0
        for core in ("epc", "5gc"):
            _assert_core_equal(CoreNetworkSimulator(core, seed=2), tr)


# ----------------------------------------------------------------------
# Windows: quiet traffic in array passes, queues on the heap loop
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def busy_hour():
    """A ground-truth busy hour of 1,000 UEs: about 28,000 events, so
    several windows."""
    return simulate_ground_truth(1000, 3600.0, start_hour=19, seed=5)


class TestWindows:
    @pytest.mark.parametrize("simulator", ["epc", "5gc", "mme"])
    def test_quiet_hour_is_served_in_array_passes(self, busy_hour, simulator):
        """At the default parameters and 4 workers, nothing queues in a
        busy hour: every window is served in array passes, and the
        report still equals the oracle's."""
        if simulator == "mme":
            sim, trace, oracle = MmeSimulator(4, seed=5), busy_hour, mme_report
        else:
            sim = CoreNetworkSimulator(simulator, workers=4, seed=5)
            trace = to_sa_trace(busy_hour) if simulator == "5gc" else busy_hour
            oracle = core_report
        report, (windows, queued) = served_windows(sim, trace)
        assert windows > 1 and queued == 0
        assert dataclasses.asdict(report) == dataclasses.asdict(oracle(sim, trace))

    @pytest.mark.parametrize("simulator", ["epc", "mme"])
    def test_overload_queues_some_windows(self, busy_hour, simulator):
        """At one worker some windows queue and go to the heap loop;
        the report still equals the oracle's."""
        if simulator == "mme":
            sim, oracle = MmeSimulator(1, seed=5), mme_report
        else:
            sim, oracle = CoreNetworkSimulator(workers=1, seed=5), core_report
        report, (windows, queued) = served_windows(sim, busy_hour)
        assert 0 < queued
        assert dataclasses.asdict(report) == dataclasses.asdict(oracle(sim, busy_hour))

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        bursts=mcn_bursts,
        core_workers=_core_workers,
        jitter=_jitter,
        link_delay=st.sampled_from([0.0, 0.0005]),
        seed=st.integers(0, 2**16),
        window_events=mcn_window_events,
    )
    def test_bursts_equal_oracle(
        self, bursts, core_workers, jitter, link_delay, seed, window_events
    ):
        core, workers = core_workers
        sim = CoreNetworkSimulator(
            core, workers=workers, link_delay=link_delay, service_jitter=jitter, seed=seed
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(network, "WINDOW_EVENTS", window_events)
            _assert_core_equal(sim, burst_trace(bursts))

    @pytest.mark.parametrize("link_delay", [0.0, 0.0005])
    def test_tied_follow_ups_stay_in_array_passes(self, link_delay):
        """Without jitter, the follow-ups of events launched together
        tie; the array passes order them by their predecessors' service
        order, as the heap's push counter does, and serve them."""
        rows = [(ue, 1.0, code, P) for ue, code in enumerate([E.SRV_REQ, E.HO, E.SRV_REQ])]
        rows += [(ue, 5.0, code, P) for ue, code in enumerate([E.DTCH, E.S1_CONN_REL, E.TAU])]
        # A service request's third step and a later handover's second
        # arrive together (0.002 + 0.002 == 0.001 + 0.003 without link
        # delay); the handover's step goes first, as its predecessor
        # was served first, though its event came later.
        rows += [(3, 0.0, E.SRV_REQ, P), (4, 0.001, E.HO, P)]
        trace = make_trace(rows)
        for core in ("epc", "5gc"):
            sim = CoreNetworkSimulator(core, link_delay=link_delay, service_jitter=0.0)
            report, (windows, queued) = served_windows(sim, trace)
            assert queued == 0
            assert dataclasses.asdict(report) == dataclasses.asdict(core_report(sim, trace))

    @pytest.mark.parametrize("offset", [2.0**36, 2.0**42])
    def test_coarse_times_equal_oracle(self, offset):
        """Far from zero, time rounding is coarser than the slack added
        where clusters are cut; a cluster that runs into the next is
        caught and served by the heap loop."""
        rng = np.random.default_rng(4)
        rows = [
            (int(ue), offset + float(t), int(code), P)
            for ue, t, code in zip(
                rng.integers(0, 50, 400),
                np.sort(rng.uniform(0.0, 20.0, 400)),
                rng.integers(0, len(EventType), 400),
            )
        ]
        trace = make_trace(rows)
        for workers in (1, 4):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(network, "WINDOW_EVENTS", 16)
                _assert_core_equal(CoreNetworkSimulator(workers=workers, seed=1), trace)
                _assert_mme_equal(MmeSimulator(workers, seed=1), trace)

    def test_meeting_clusters_are_refused(self):
        """The array passes refuse a window whose clusters meet: here
        an attach and a service request 1 ms later are (wrongly) given
        as clusters of their own."""
        sim = CoreNetworkSimulator(service_jitter=0.0)
        low = sim._lowered
        trace = make_trace([(1, 0.0, E.ATCH, P), (2, 0.001, E.SRV_REQ, P)])
        proc = low.proc_of_event[trace.event_types]
        args = (low, [4] * 4, trace.times, proc, low.step_counts[proc])
        rest = (None, sim.link_delay, np.inf, True)
        assert network._flow(*args, np.array([True, False]), *rest) is not None
        assert network._flow(*args, np.array([True, True]), *rest) is None

    @pytest.mark.slow
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("jitter", [0.0, 0.3])
    def test_ground_truth_sweep(self, workers, jitter):
        """A 2,000-UE busy hour through the EPC, the 5GC (after the SA
        projection) and the MME, equal to the oracle at every worker
        count, jitter and link delay."""
        trace = simulate_ground_truth(2000, 3600.0, start_hour=19, seed=workers)
        for link_delay in (0.0, 0.0005):
            for core, driven in (("epc", trace), ("5gc", to_sa_trace(trace))):
                sim = CoreNetworkSimulator(
                    core, workers=workers, link_delay=link_delay, service_jitter=jitter, seed=7
                )
                _assert_core_equal(sim, driven)
        _assert_mme_equal(MmeSimulator(workers, service_jitter=jitter, seed=7), trace)
