"""Cross-cutting edge cases not covered by the per-module suites."""

import math

import numpy as np
import pytest

from repro.distributions import EmpiricalCDF, Exponential
from repro.statemachines import two_level_machine
from repro.trace import DeviceType, EventType, Trace, quantize_timestamp

from conftest import TRACE_START_HOUR, make_trace
from oracle.objects import Edge, SemiMarkovChain, StateModel

E = EventType
P = DeviceType.PHONE


class TestTraceBoundaries:
    def test_window_of_width_zero(self, tiny_trace):
        assert len(tiny_trace.window(5.0, 5.0)) == 0

    def test_window_beyond_trace(self, tiny_trace):
        assert len(tiny_trace.window(10_000.0, 20_000.0)) == 0

    def test_filter_ues_with_duplicates(self, tiny_trace):
        a = tiny_trace.filter_ues([1, 1, 1])
        b = tiny_trace.filter_ues([1])
        assert a == b

    def test_filter_ues_empty_set(self, tiny_trace):
        assert len(tiny_trace.filter_ues([])) == 0

    def test_same_millisecond_events_keep_per_ue_order(self):
        # Two events of one UE on the same quantized millisecond must
        # remain in their original relative order after construction.
        t = quantize_timestamp(10.0001)
        tr = make_trace(
            [(1, t, E.SRV_REQ, P), (1, t, E.S1_CONN_REL, P)]
        )
        assert [int(e) for e in tr.event_types] == [
            int(E.SRV_REQ),
            int(E.S1_CONN_REL),
        ]

    def test_shift_negative_offset_hits_validation(self, tiny_trace):
        with pytest.raises(ValueError, match="negative"):
            tiny_trace.shift(-10_000.0)


class TestDistributionBoundaries:
    def test_exponential_ppf_at_one_is_infinite(self):
        dist = Exponential(rate=1.0)
        assert dist.ppf(np.array([1.0]))[0] == math.inf

    def test_exponential_ppf_at_zero(self):
        dist = Exponential(rate=2.0)
        assert dist.ppf(np.array([0.0]))[0] == 0.0

    def test_empirical_two_points_interpolates_between(self):
        dist = EmpiricalCDF([10.0, 20.0])
        mid = dist.ppf(np.array([0.5]))[0]
        assert 10.0 <= mid <= 20.0

    def test_empirical_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            EmpiricalCDF([-1.0, 2.0])

    def test_empirical_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            EmpiricalCDF([1.0, float("nan")])


class TestChainBoundaries:
    def test_single_edge_state_is_deterministic_in_choice(self, rng):
        chain = SemiMarkovChain(
            {
                "A": StateModel(
                    edges=(Edge(E.HO, "A", 1.0, Exponential(rate=1.0)),)
                )
            }
        )
        # Only the sojourn draw consumes randomness; the edge pick must
        # not (single-edge fast path).
        _, event, target = chain.step("A", rng)
        assert event == E.HO
        assert target == "A"

    def test_machine_walk_from_every_registered_leaf_to_dtch(self):
        machine = two_level_machine()
        for state in machine.states - {"DEREGISTERED"}:
            assert machine.next_state(state, E.DTCH) == "DEREGISTERED"


class TestModelSetBoundaries:
    def test_hour_model_wraps_mod_24(self, ours_model_set):
        hour = ours_model_set.hours(P)[0]
        direct = ours_model_set.hour_model(P, hour)
        wrapped = ours_model_set.hour_model(P, hour + 24)
        assert direct is wrapped

    def test_hour_model_missing_hour_is_none(self, ours_model_set):
        assert ours_model_set.hour_model(P, 3) is None

    def test_generation_is_order_independent(self, ours_model_set):
        """Per-UE substreams: generating more UEs never changes the
        events of the UEs already generated."""
        from repro.generator import TrafficGenerator

        gen = TrafficGenerator(ours_model_set)
        small = gen.generate(
            {P: 10}, start_hour=TRACE_START_HOUR, seed=6
        )
        large = gen.generate(
            {P: 30}, start_hour=TRACE_START_HOUR, seed=6
        )
        for ue in small.unique_ues():
            assert small.ue_trace(int(ue)) == large.ue_trace(int(ue))


class TestValidationBoundaries:
    def test_breakdown_difference_of_trace_with_itself(self, tiny_trace):
        from repro.validation import compare, summarize

        result = compare(summarize(tiny_trace, P), summarize(tiny_trace, P))
        assert all(v == 0.0 for v in result.macro_diff.values())

    def test_max_y_distance_single_samples(self):
        from repro.stats import max_y_distance

        assert max_y_distance([1.0], [1.0]) == 0.0
        assert max_y_distance([1.0], [2.0]) == 1.0

    def test_format_table_no_rows(self):
        from repro.validation import format_table

        text = format_table(["a", "b"], [])
        assert "a" in text


class TestMcnBoundaries:
    def test_mme_single_event(self):
        from repro.mcn import MmeSimulator

        tr = make_trace([(1, 5.0, E.ATCH, P)])
        report = MmeSimulator().process(tr)
        assert report.num_events == 1
        assert report.mean_wait == 0.0

    def test_core_single_event(self):
        from repro.mcn import CoreNetworkSimulator

        tr = make_trace([(1, 5.0, E.ATCH, P)])
        report = CoreNetworkSimulator(seed=0).process(tr)
        assert report.procedures["attach"].count == 1

    def test_mme_zero_jitter_deterministic_service(self):
        from repro.mcn import DEFAULT_SERVICE_MEANS, MmeSimulator

        tr = make_trace([(1, 5.0, E.SRV_REQ, P)])
        report = MmeSimulator(num_workers=1, service_jitter=0.0).process(tr)
        assert report.mean_latency == pytest.approx(
            DEFAULT_SERVICE_MEANS[E.SRV_REQ]
        )

    @pytest.mark.parametrize("core", ["epc", "5gc"])
    def test_core_empty_trace_yields_empty_report(self, core):
        from repro.mcn import CoreNetworkSimulator

        report = CoreNetworkSimulator(core).process(Trace.empty())
        assert report.num_events == 0
        assert report.num_messages == 0
        assert report.span == 0.0
        assert report.functions == {}
        assert report.procedures == {}

    def test_core_empty_report_has_no_bottleneck(self):
        from repro.mcn import CoreNetworkSimulator

        report = CoreNetworkSimulator().process(Trace.empty())
        assert report.bottleneck() is None

    def test_core_report_without_messages_has_no_bottleneck(self, tmp_path, capsys):
        """A TAU-only trace launches no 5GC procedure: no message flows,
        so there is no bottleneck, and ``repro core`` says so."""
        from repro.cli import main
        from repro.mcn import CoreNetworkSimulator
        from repro.trace import write_npz

        tr = make_trace([(1, 5.0, E.TAU, P), (2, 6.0, E.TAU, P)])
        report = CoreNetworkSimulator("5gc").process(tr)
        assert report.num_messages == 0
        assert report.bottleneck() is None
        path = tmp_path / "tau.npz"
        write_npz(tr, path)
        assert main(["core", "--core", "5gc", "--trace", str(path)]) == 0
        assert "bottleneck: (no traffic)" in capsys.readouterr().out

    def test_core_nonempty_report_names_bottleneck(self):
        from repro.mcn import CoreNetworkSimulator

        tr = make_trace([(1, 5.0, E.ATCH, P)])
        report = CoreNetworkSimulator().process(tr)
        assert report.bottleneck() in report.functions


class TestRunArgumentValidation:
    """All generation entry points reject bad run parameters eagerly."""

    @staticmethod
    def entry_points(model_set):
        from repro.generator import TrafficGenerator, stream_events

        gen = TrafficGenerator(model_set)
        return [
            lambda **kw: gen.generate({P: 5}, **kw),
            lambda **kw: gen.generate({P: 5}, processes=2, **kw),
            lambda **kw: stream_events(model_set, {P: 5}, **kw),
        ]

    @pytest.mark.parametrize(
        "bad_args, match",
        [
            (dict(start_hour=-1), "start_hour"),
            (dict(num_hours=0), "num_hours"),
            (dict(num_hours=-3), "num_hours"),
            (dict(first_ue_id=-1), "first_ue_id"),
            (dict(seed=-1), "seed"),
            (dict(seed=2 ** 64), "seed"),
        ],
    )
    def test_value_errors(self, ours_model_set, bad_args, match):
        for entry in self.entry_points(ours_model_set):
            kwargs = dict(start_hour=TRACE_START_HOUR)
            kwargs.update(bad_args)
            with pytest.raises(ValueError, match=match):
                entry(**kwargs)

    @pytest.mark.parametrize(
        "bad_args, match",
        [
            (dict(start_hour=1.5), "start_hour"),
            (dict(num_hours="2"), "num_hours"),
            (dict(seed=0.5), "seed"),
        ],
    )
    def test_type_errors(self, ours_model_set, bad_args, match):
        for entry in self.entry_points(ours_model_set):
            kwargs = dict(start_hour=TRACE_START_HOUR)
            kwargs.update(bad_args)
            with pytest.raises(TypeError, match=match):
                entry(**kwargs)

    def test_negative_device_counts_rejected(self, ours_model_set):
        from repro.generator import TrafficGenerator

        gen = TrafficGenerator(ours_model_set)
        with pytest.raises(ValueError, match="non-negative"):
            gen.generate({P: -5}, start_hour=TRACE_START_HOUR)

    def test_stream_events_validates_before_first_next(self, ours_model_set):
        from repro.generator import stream_events

        # The error must surface at call time, not at first iteration.
        with pytest.raises(ValueError, match="num_hours"):
            stream_events(ours_model_set, {P: 5}, num_hours=0)

    def test_parallel_rejects_bad_chunk_size(self, ours_model_set, tmp_path):
        """The chunk size is derived, never passed: ``generate`` has no
        ``chunk_size`` argument, and a resumed run rejects a saved chunk
        plan whose chunk size is not positive."""
        from repro.generator import CheckpointError, TrafficGenerator
        from repro.generator.checkpoint import GenerationCheckpoint

        gen = TrafficGenerator(ours_model_set)
        with pytest.raises(TypeError, match="chunk_size"):
            gen.generate(
                {P: 5}, start_hour=TRACE_START_HOUR, processes=2, chunk_size=0
            )

        path = tmp_path / "run.npz"
        gen.generate(
            {P: 5}, start_hour=TRACE_START_HOUR, processes=2, checkpoint_path=path
        )
        checkpoint = GenerationCheckpoint.load(path)
        checkpoint.chunk_ues[P.name] = 0
        checkpoint.save(path)
        with pytest.raises(CheckpointError, match="chunk plan"):
            gen.generate(
                {P: 5},
                start_hour=TRACE_START_HOUR,
                processes=2,
                checkpoint_path=path,
                resume=True,
            )

    @pytest.mark.parametrize("processes", [1, 2])
    def test_unfitted_device_rejected_before_any_job(
        self, ours_model_set, monkeypatch, processes
    ):
        """A device type with no fitted UEs, or a model that does not
        compile, is a plain ValueError raised before any job runs: no
        retry, no backoff and no JobFailedError."""
        from repro import jobs
        from repro.generator import TrafficGenerator, stream_events
        from repro.model import ModelSet

        model_set = ModelSet.from_dict(ours_model_set.to_dict())
        model_set.device_ues[DeviceType.TABLET] = []

        def no_backoff(seconds):
            raise AssertionError("generation backed off")

        monkeypatch.setattr(jobs.time, "sleep", no_backoff)
        with pytest.raises(ValueError, match="TABLET") as excinfo:
            TrafficGenerator(model_set).generate(
                {DeviceType.TABLET: 5},
                start_hour=TRACE_START_HOUR,
                processes=processes,
            )
        assert type(excinfo.value) is ValueError
        with pytest.raises(ValueError, match="TABLET"):
            stream_events(model_set, {DeviceType.TABLET: 5})

        # A two-level fit read as a 5G SA model: its first-event types
        # have no source state in that machine.
        mislabeled = ModelSet.from_dict(ours_model_set.to_dict())
        mislabeled.machine_kind = "nr_sa"
        with pytest.raises(ValueError, match="canonical source") as excinfo:
            TrafficGenerator(mislabeled).generate(
                5, start_hour=TRACE_START_HOUR, processes=processes
            )
        assert type(excinfo.value) is ValueError
