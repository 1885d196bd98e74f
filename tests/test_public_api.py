"""Guards on the public API surface.

The re-export lists are the library's contract; these tests catch
accidental removals and undocumented additions.
"""

import dataclasses
import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import repro

SUBPACKAGES = (
    "repro.trace",
    "repro.statemachines",
    "repro.distributions",
    "repro.stats",
    "repro.analysis",
    "repro.clustering",
    "repro.groundtruth",
    "repro.model",
    "repro.generator",
    "repro.baselines",
    "repro.fiveg",
    "repro.validation",
    "repro.mcn",
    "repro.harness",
    "repro.cli",
    "repro.jobs",
    "repro.telemetry",
)


class TestExportIntegrity:
    def test_subpackages_cover_the_package(self):
        """Every top-level module of ``repro`` has its exports checked."""
        modules = {"repro." + m.name for m in pkgutil.iter_modules(repro.__path__)}
        assert set(SUBPACKAGES) == modules - {"repro.__main__"}

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_all_exports_resolve(self, name):
        module = importlib.import_module(name)
        assert hasattr(module, "__all__"), f"{name} lacks __all__"
        for symbol in module.__all__:
            assert hasattr(module, symbol), f"{name}.{symbol} missing"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_exports_are_documented(self, name):
        """Every exported class/function carries a docstring."""
        module = importlib.import_module(name)
        for symbol in module.__all__:
            obj = getattr(module, symbol)
            if inspect.isclass(obj) or inspect.isfunction(obj):
                assert inspect.getdoc(obj), f"{name}.{symbol} undocumented"

    @pytest.mark.parametrize("name", SUBPACKAGES)
    def test_no_engine_parameter(self, name):
        """Each stage has one engine: no export takes an ``engine``
        switch (classes are checked through their public methods)."""
        module = importlib.import_module(name)
        for symbol in module.__all__:
            obj = getattr(module, symbol)
            if inspect.isclass(obj):
                callables = [obj] + [
                    member
                    for attr, member in inspect.getmembers(obj, inspect.isfunction)
                    if not attr.startswith("_")
                ]
            elif callable(obj):
                callables = [obj]
            else:
                continue
            for fn in callables:
                try:
                    params = inspect.signature(fn).parameters
                except (TypeError, ValueError):
                    continue  # builtins without a signature
                assert "engine" not in params, f"{name}.{symbol}: {fn}"

    def test_engine_constants_removed(self):
        for name, constant in (
            ("repro.generator", "ENGINES"),
            ("repro.model", "FIT_ENGINES"),
            ("repro.statemachines", "REPLAY_ENGINES"),
            ("repro.harness", "EVAL_ENGINES"),
        ):
            assert not hasattr(importlib.import_module(name), constant)

    def test_unreached_extensions_removed(self):
        """Family ranking, Lognormal, the diversity report, population
        forecasts, the storm workloads and the per-UE ground-truth entry
        points (``simulate_ue``, ``sample_archetype``, ``UEArchetype``)
        were reached only by their own tests and are gone."""
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.workloads")
        for name, old in (
            ("repro.analysis", "rank_families"),
            ("repro.analysis", "score_family"),
            ("repro.analysis", "FamilyScore"),
            ("repro.analysis", "diversity_report"),
            ("repro.analysis", "diversity_table"),
            ("repro.analysis", "justifies_clustering"),
            ("repro.analysis", "DiversityReport"),
            ("repro.analysis", "DOMINANT_FIG2_EVENTS"),
            ("repro.distributions", "Lognormal"),
            ("repro.groundtruth", "project_population"),
            ("repro.groundtruth", "GrowthScenario"),
            ("repro.groundtruth", "SCENARIOS"),
            ("repro.groundtruth", "DEFAULT_ANNUAL_GROWTH"),
            ("repro.groundtruth", "simulate_ue"),
            ("repro.groundtruth", "sample_archetype"),
            ("repro.groundtruth", "UEArchetype"),
            ("repro.groundtruth.simulator", "_UESimulator"),
        ):
            module = importlib.import_module(name)
            assert not hasattr(module, old), f"{name}.{old}"
            assert old not in getattr(module, "__all__", ())

    def test_one_job_failure_error(self):
        """The per-stage failure classes gave way to JobFailedError."""
        for name, old in (
            ("repro.generator", "ChunkFailedError"),
            ("repro.model.compiled_fit", "FitJobFailedError"),
            ("repro.harness", "EvalJobFailedError"),
            ("repro.harness.evaluation", "EvalJobFailedError"),
        ):
            assert not hasattr(importlib.import_module(name), old)
        from repro.jobs import JobFailedError

        assert issubclass(JobFailedError, RuntimeError)

    def test_one_generation_driver(self):
        """``TrafficGenerator.generate(processes=)`` is the one driver
        that materializes a trace: the parallel and hourly-checkpointed
        drivers are gone, and so is the caller-set chunk size."""
        from repro.generator import TrafficGenerator, checkpoint

        for name, old in (
            ("repro.generator", "generate_parallel"),
            ("repro.generator.checkpoint", "generate_checkpointed"),
            ("repro.generator.checkpoint", "_concat_columns"),
        ):
            assert not hasattr(importlib.import_module(name), old)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.generator.parallel")
        assert not hasattr(TrafficGenerator, "_generate_trace")
        fields = {f.name for f in dataclasses.fields(checkpoint.GenerationCheckpoint)}
        assert "columns" not in fields
        assert "chunk_size" not in {
            f.name for f in dataclasses.fields(checkpoint.RunKey)
        }
        params = inspect.signature(TrafficGenerator.generate).parameters
        assert "chunk_size" not in params
        assert params["processes"].default == 1

    def test_one_replay_engine(self):
        """``replay_trace`` is the one replay in the library: the
        per-event walk, its record types, the one-UE array wrapper, the
        per-UE clustering features, the fitter's per-segment helpers and
        the second machine-table cache are gone."""
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.statemachines.replay")
        for name, old in (
            ("repro.statemachines", "replay_ue"),
            ("repro.statemachines", "top_level_intervals"),
            ("repro.statemachines", "TransitionRecord"),
            ("repro.statemachines", "StateInterval"),
            ("repro.statemachines", "ReplayResult"),
            ("repro.statemachines", "VectorizedReplay"),
            ("repro.statemachines", "vectorized_replay"),
            ("repro.statemachines.compiled_replay", "VectorizedReplay"),
            ("repro.statemachines.compiled_replay", "vectorized_replay"),
            ("repro.model", "vectorized_replay"),
            ("repro.clustering", "ue_features"),
            ("repro.clustering", "extract_features"),
            ("repro.clustering.features", "ue_features"),
            ("repro.clustering.features", "extract_features"),
            ("repro.model.fitting", "_Segment"),
            ("repro.model.fitting", "_build_segments"),
            ("repro.model.fitting", "_replay_segments"),
            ("repro.model.fitting", "_hour_features"),
            ("repro.model.fitting", "_CATEGORY1_SET"),
            ("repro.model.compiled_fit", "machine_table"),
        ):
            module = importlib.import_module(name)
            assert not hasattr(module, old), f"{name}.{old}"
            assert old not in getattr(module, "__all__", ())
        from repro.statemachines import TraceReplay

        assert not hasattr(TraceReplay, "to_results")
        params = inspect.signature(TraceReplay.sojourn_samples).parameters
        assert "include_forced" not in params

    def test_one_model_representation(self):
        """A fitted ``HourModel`` is the generator's tables, and the only
        model representation: the lowering step, the per-distribution
        lowering hooks, the compile cache and the object layer (now
        ``tests/oracle/objects.py``) are gone."""
        from repro.distributions import EmpiricalCDF, Exponential
        from repro.model import HourModel, ModelSet

        for name, old in (
            ("repro.generator", "compile_model_set"),
            ("repro.generator", "CompiledModelSet"),
            ("repro.generator.compiled", "compile_model_set"),
            ("repro.generator.compiled", "CompiledModelSet"),
            ("repro.generator.compiled", "CompiledHourModel"),
            ("repro.generator.compiled", "CompiledCluster"),
            ("repro.model", "ClusterModel"),
            ("repro.model", "SemiMarkovChain"),
            ("repro.model", "StateModel"),
            ("repro.model", "Edge"),
            ("repro.model", "FirstEventModel"),
            ("repro.model", "scale_event_frequency"),
            ("repro.model", "drop_event"),
            ("repro.model.model_set", "ClusterModel"),
            ("repro.model.scaling", "scale_event_frequency"),
            ("repro.model.scaling", "drop_event"),
        ):
            module = importlib.import_module(name)
            assert not hasattr(module, old), f"{name}.{old}"
            assert old not in getattr(module, "__all__", ())
        for gone in ("repro.model.semi_markov", "repro.model.first_event"):
            with pytest.raises(ImportError):
                importlib.import_module(gone)
        for cls in (EmpiricalCDF, Exponential):
            assert not hasattr(cls, "compile_sojourn")
        for attr in ("from_clusters", "clusters", "cluster_for_ue"):
            assert not hasattr(HourModel, attr)
        assert "__getstate__" not in vars(ModelSet)

    def test_clustering_is_one_code_array(self):
        """``adaptive_cluster`` maps a feature matrix to one cluster code
        per row; the cluster objects and the single-cluster helper (now
        ``tests/oracle/clustering.py``) are gone."""
        from repro.clustering import adaptive_cluster

        for name in ("repro.clustering", "repro.clustering.quadtree"):
            module = importlib.import_module(name)
            for old in ("Cluster", "ClusteringResult", "single_cluster"):
                assert not hasattr(module, old), f"{name}.{old}"
                assert old not in getattr(module, "__all__", ())
        params = inspect.signature(adaptive_cluster).parameters
        assert list(params) == ["features", "theta_f", "theta_n"]
        codes = adaptive_cluster(np.zeros((3, 4)))
        assert codes.dtype == np.int64 and codes.tolist() == [0, 0, 0]

    def test_one_summary_per_trace(self):
        """Tables 4/5 compare two ``DeviceSummary`` objects: the pairwise
        trace-vs-trace metrics and the duplicate per-UE counters are gone
        (``summarize(...).samples`` holds the per-UE counts)."""
        for name, old in (
            ("repro.validation", "breakdown_difference"),
            ("repro.validation", "max_abs_breakdown_difference"),
            ("repro.validation", "macro_comparison"),
            ("repro.validation", "count_ydistance"),
            ("repro.validation", "sojourn_ydistance"),
            ("repro.validation", "state_sojourns"),
            ("repro.validation", "device_sojourns"),
            ("repro.validation", "micro_comparison"),
            ("repro.validation", "micro_comparison_partial"),
            ("repro.validation.breakdown", "breakdown_difference"),
            ("repro.validation.breakdown", "max_abs_breakdown_difference"),
            ("repro.validation.breakdown", "macro_comparison"),
            ("repro.validation.microscopic", "count_ydistance"),
            ("repro.validation.microscopic", "sojourn_ydistance"),
            ("repro.validation.microscopic", "state_sojourns"),
            ("repro.validation.microscopic", "device_sojourns"),
            ("repro.validation.microscopic", "micro_comparison"),
            ("repro.validation.microscopic", "micro_comparison_partial"),
            ("repro.harness.evaluation", "_device_metrics"),
            ("repro.harness.evaluation", "_metrics_job"),
            ("repro.trace", "events_per_ue_counts"),
            ("repro.trace.stats", "events_per_ue_counts"),
            ("repro.validation", "per_ue_counts"),
            ("repro.validation.microscopic", "per_ue_counts"),
        ):
            module = importlib.import_module(name)
            assert not hasattr(module, old), f"{name}.{old}"
            assert old not in getattr(module, "__all__", ())

    def test_no_trace_order_or_storage_switches(self):
        """A Trace sorts itself only when its rows are out of order and
        NPZ traces are always compressed: no switch picks either."""
        from repro.trace import Trace, io

        assert "sort" not in inspect.signature(Trace).parameters
        assert "mmap" not in inspect.signature(io.read_npz).parameters
        assert "compress" not in inspect.signature(io.write_npz).parameters
        assert not hasattr(io, "_mmap_npz_members")

    def test_generate_parallel_has_no_retry_knobs(self):
        """Retries, backoff and fault injection are repro.jobs constants;
        the pooled driver, ``TrafficGenerator.generate(processes=)``,
        takes none of them."""
        from repro.generator import TrafficGenerator

        params = inspect.signature(TrafficGenerator.generate).parameters
        assert "processes" in params
        for knob in ("max_retries", "retry_backoff", "max_backoff", "fault_hook"):
            assert knob not in params

    def test_top_level_exports(self):
        for symbol in repro.__all__:
            assert hasattr(repro, symbol)

    def test_top_level_highlights_present(self):
        for symbol in (
            "Trace",
            "EventType",
            "DeviceType",
            "TrafficGenerator",
            "fit_model_set",
            "simulate_ground_truth",
            "ModelSet",
            "scale_to_nsa",
            "scale_to_sa",
        ):
            assert symbol in repro.__all__

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(p.isdigit() for p in parts)

    def test_subpackages_have_module_docstrings(self):
        for name in SUBPACKAGES:
            module = importlib.import_module(name)
            assert module.__doc__, f"{name} lacks a module docstring"
