"""Tests for the evaluation harness (repro.harness)."""

import pytest

import repro.harness
from repro.generator import TrafficGenerator
from repro.harness import DEFAULT_METHODS, evaluate_methods
from repro.telemetry import RunTelemetry
from repro.trace import DeviceType, EventType
from repro.validation import summary

from conftest import TRACE_START_HOUR, fresh_copy, make_trace
from oracle import replay as oracle_replay

E = EventType
P = DeviceType.PHONE


@pytest.fixture(scope="module")
def report(request):
    ground_truth = request.getfixturevalue("ground_truth_trace")
    holdout = request.getfixturevalue("holdout_trace")
    return evaluate_methods(
        ground_truth,
        holdout,
        methods=("base", "ours"),
        theta_n=25,
        trace_start_hour=TRACE_START_HOUR,
        generation_hour=TRACE_START_HOUR + 1,
        seed=5,
    )


class TestEvaluateMethods:
    def test_default_methods(self):
        assert DEFAULT_METHODS == ("base", "v1", "v2", "ours")

    def test_results_per_method(self, report):
        assert set(report.results) == {"base", "ours"}
        for result in report.results.values():
            assert len(result.synthesized) > 0
            assert result.macro_max_error

    def test_population_defaults_to_real(self, report, holdout_trace):
        assert report.num_ues == holdout_trace.num_ues

    def test_ours_wins_phones(self, report):
        assert report.winner(DeviceType.PHONE) == "ours"

    def test_macro_diffs_cover_rows(self, report):
        from repro.validation import BREAKDOWN_ROWS

        diff = report.results["ours"].macro_diff[DeviceType.PHONE]
        assert set(diff) == set(BREAKDOWN_ROWS)

    def test_micro_metrics_present(self, report):
        micro = report.results["ours"].micro[DeviceType.PHONE]
        assert "CONNECTED" in micro
        assert 0.0 <= micro["CONNECTED"] <= 1.0

    def test_to_text_renders_all_devices(self, report):
        text = report.to_text()
        assert "Macroscopic breakdown - PHONE" in text
        assert "Microscopic max y-distance - PHONE" in text
        assert "Ours" in text

    def test_prefitted_models_reused(
        self, ground_truth_trace, holdout_trace, ours_model_set
    ):
        report = evaluate_methods(
            ground_truth_trace,
            holdout_trace,
            methods=("ours",),
            models={"ours": ours_model_set},
            generation_hour=TRACE_START_HOUR + 1,
        )
        assert report.results["ours"].model is ours_model_set

    def test_explicit_population(self, ground_truth_trace, holdout_trace, ours_model_set):
        report = evaluate_methods(
            ground_truth_trace,
            holdout_trace,
            num_ues=50,
            methods=("ours",),
            models={"ours": ours_model_set},
            generation_hour=TRACE_START_HOUR + 1,
        )
        assert report.num_ues == 50
        assert report.results["ours"].synthesized.num_ues <= 50


class TestEvaluationEngines:
    def test_engines_listed(self):
        """Evaluation has one engine: no constant to pick one."""
        assert not hasattr(repro.harness, "EVAL_ENGINES")

    def test_unknown_engine_rejected(self, ground_truth_trace, holdout_trace):
        with pytest.raises(TypeError, match="engine"):
            evaluate_methods(ground_truth_trace, holdout_trace, engine="compiled")

    def test_negative_processes_rejected(self, ground_truth_trace, holdout_trace):
        with pytest.raises(ValueError, match="non-negative"):
            evaluate_methods(ground_truth_trace, holdout_trace, processes=-1)

    def test_engines_and_parallel_agree(
        self, ground_truth_trace, holdout_trace, ours_model_set, monkeypatch
    ):
        """Serial and pooled reports equal the one computed with the
        per-event reference replay swapped into the metrics.  The pooled
        run generates on the pool too."""
        kwargs = dict(
            methods=("ours",),
            models={"ours": ours_model_set},
            generation_hour=TRACE_START_HOUR + 1,
        )
        compiled = evaluate_methods(ground_truth_trace, holdout_trace, **kwargs)
        generate_processes = []
        generate = TrafficGenerator.generate

        def spy(self, *args, **kw):
            generate_processes.append(kw.get("processes"))
            return generate(self, *args, **kw)

        with monkeypatch.context() as patch:
            patch.setattr(TrafficGenerator, "generate", spy)
            parallel = evaluate_methods(
                ground_truth_trace, holdout_trace, processes=2, **kwargs
            )
        assert generate_processes == [2]
        assert (
            parallel.results["ours"].synthesized
            == compiled.results["ours"].synthesized
        )
        with monkeypatch.context() as patch:
            patch.setattr(
                summary,
                "classify_category2_by_device",
                oracle_replay.classify_category2_by_device,
            )
            patch.setattr(
                summary, "replay_trace", oracle_replay.ReferenceReplay
            )
            # A fresh held-out trace: the one above holds its summaries.
            reference = evaluate_methods(
                ground_truth_trace, fresh_copy(holdout_trace), **kwargs
            )
        assert compiled.to_dict() == reference.to_dict() == parallel.to_dict()
        assert compiled.to_text() == reference.to_text()

    def test_to_dict_shape(self, report):
        data = report.to_dict()
        assert set(data) == {"num_ues", "generation_hour", "methods"}
        assert set(data["methods"]) == {"base", "ours"}
        ours = data["methods"]["ours"]
        assert set(ours) == {
            "macro_diff",
            "macro_max_error",
            "micro",
            "micro_skipped",
        }
        assert "PHONE" in ours["micro"]


#: A phone-only validation trace where every UE closes an IDLE sojourn
#: (release -> service request) but never a CONNECTED one: the first
#: CONNECTED interval has no start and the last has no end.
_NO_CONNECTED_ROWS = [
    (1, 10.0, E.S1_CONN_REL, P),
    (1, 20.0, E.SRV_REQ, P),
    (2, 5.0, E.S1_CONN_REL, P),
    (2, 50.0, E.SRV_REQ, P),
]


class TestBugfixRegressions:
    @pytest.fixture(scope="class")
    def partial_report(self, request):
        ground_truth = request.getfixturevalue("ground_truth_trace")
        ours_model_set = request.getfixturevalue("ours_model_set")
        real = make_trace(
            [(ue, t + 3600.0 * (TRACE_START_HOUR + 1), ev, dt)
             for ue, t, ev, dt in _NO_CONNECTED_ROWS]
        )
        return evaluate_methods(
            ground_truth,
            real,
            num_ues=30,
            methods=("ours",),
            models={"ours": ours_model_set},
            generation_hour=TRACE_START_HOUR + 1,
        )

    def test_partial_micro_reported(self, partial_report):
        # Regression (bug 1): one unmeasurable quantity used to discard
        # every micro-metric of the device; now the computable ones are
        # reported and the skip carries its reason.
        result = partial_report.results["ours"]
        micro = result.micro[P]
        assert {"SRV_REQ", "S1_CONN_REL", "IDLE"} <= set(micro)
        assert "CONNECTED" not in micro
        assert "CONNECTED" in result.micro_skipped[P]
        assert "sojourn" in result.micro_skipped[P]["CONNECTED"]

    def test_to_text_lists_skips(self, partial_report):
        text = partial_report.to_text()
        assert "Skipped quantities - PHONE" in text
        assert "CONNECTED" in text

    def test_winner_unmeasured_device_raises(self, partial_report):
        # Regression (bug 3): an all-inf tie used to crown an arbitrary
        # method for devices absent from the real trace.
        assert partial_report.winner(P) == "ours"
        with pytest.raises(ValueError, match="TABLET"):
            partial_report.winner(DeviceType.TABLET)

    def test_count_cdf_populations_threaded(
        self, monkeypatch, ground_truth_trace, holdout_trace, ours_model_set
    ):
        # Regression (bug 2): the harness used to call count_ydistance
        # without populations, so zero-event UEs were never padded and
        # Table-5 numbers were biased whenever the synthesized
        # population differed from the real one (Scenario 2).  The real
        # side is padded to the UEs present, i.e. not at all.
        from repro.harness import evaluation as ev

        seen = []

        def spy(trace, device_type, *, num_ues=None):
            seen.append((len(trace), device_type, num_ues))
            return summary.summarize(trace, device_type, num_ues=num_ues)

        monkeypatch.setattr(ev, "summarize", spy)
        report = evaluate_methods(
            ground_truth_trace,
            holdout_trace,
            num_ues=60,
            methods=("ours",),
            models={"ours": ours_model_set},
            generation_hour=TRACE_START_HOUR + 1,
        )
        resolved = TrafficGenerator(ours_model_set).resolve_counts(60)
        devices = list(report.real_summary)
        synthesized = report.results["ours"].synthesized
        assert seen == [
            (len(holdout_trace), dt, None) for dt in devices
        ] + [(len(synthesized), dt, resolved[dt]) for dt in devices]


class TestOneSummaryPerTrace:
    def test_replays_each_trace_once_per_device(
        self, monkeypatch, ground_truth_trace, holdout_trace, ours_model_set
    ):
        """Each trace is replayed once, whatever its device count, and
        a held-out trace evaluated again is not replayed again."""
        calls = []
        replay = summary.replay_trace

        def spy(trace, *args, **kwargs):
            calls.append(trace)
            return replay(trace, *args, **kwargs)

        monkeypatch.setattr(summary, "replay_trace", spy)
        methods = ("base", "ours")
        real = fresh_copy(holdout_trace)
        kwargs = dict(
            methods=methods,
            models={"base": ours_model_set, "ours": ours_model_set},
            generation_hour=TRACE_START_HOUR + 1,
        )
        report = evaluate_methods(fresh_copy(ground_truth_trace), real, **kwargs)
        assert len(report.real_summary) == len(DeviceType)
        synthesized = [report.results[m].synthesized for m in methods]
        assert [id(t) for t in calls] == [id(t) for t in [real, *synthesized]]

        calls.clear()
        again = evaluate_methods(fresh_copy(ground_truth_trace), real, **kwargs)
        assert [id(t) for t in calls] == [
            id(again.results[m].synthesized) for m in methods
        ]
        assert again.to_dict() == report.to_dict()

    def test_pooled_evaluation_keeps_the_real_summaries(
        self, monkeypatch, ground_truth_trace, holdout_trace, ours_model_set
    ):
        """With ``processes=2`` the traces are still summarized in the
        calling process: the caller's real trace holds its summaries, a
        second pooled evaluation summarizes only the synthesized traces,
        and the report equals the serial one."""
        methods = ("base", "ours")
        kwargs = dict(
            methods=methods,
            models={m: ours_model_set for m in methods},
            generation_hour=TRACE_START_HOUR + 1,
        )
        serial = evaluate_methods(
            ground_truth_trace, fresh_copy(holdout_trace), **kwargs
        )
        calls = []
        device_summaries = summary._device_summaries

        def spy(trace):
            calls.append(trace)
            return device_summaries(trace)

        monkeypatch.setattr(summary, "_device_summaries", spy)
        real = fresh_copy(holdout_trace)
        pooled = evaluate_methods(ground_truth_trace, real, processes=2, **kwargs)
        assert len(calls) == 1 + len(methods)
        real.memo(
            "validation.summaries",
            lambda: pytest.fail("the real trace holds no summaries"),
        )
        assert pooled.to_dict() == serial.to_dict()
        assert pooled.to_text() == serial.to_text()

        calls.clear()
        evaluate_methods(ground_truth_trace, real, processes=2, **kwargs)
        assert len(calls) == len(methods)

    def test_metric_spans_cover_eval_metrics(
        self, ground_truth_trace, holdout_trace, ours_model_set
    ):
        """``eval-metrics`` splits into ``eval-summarize`` and
        ``eval-compare``, which cover its wall time."""
        tele = RunTelemetry()
        evaluate_methods(
            ground_truth_trace,
            holdout_trace,
            methods=("ours",),
            models={"ours": ours_model_set},
            generation_hour=TRACE_START_HOUR + 1,
            telemetry=tele,
        )
        spans = tele.spans
        children = spans["eval-summarize"]["wall_s"] + spans["eval-compare"]["wall_s"]
        assert children >= 0.95 * spans["eval-metrics"]["wall_s"]
