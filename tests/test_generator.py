"""Tests for the traffic generator (repro.generator)."""

import numpy as np
import pytest

from repro.baselines import fit_method
from repro.generator import TrafficGenerator, stream_events, traffgen
from repro.harness import evaluate_methods
from repro.model import ModelSet
from repro.statemachines import replay_trace
from repro.trace import DeviceType, EventType, Trace

from conftest import TRACE_START_HOUR
from oracle.generator import generate_ue_events

E = EventType
P = DeviceType.PHONE


class TestResolveCounts:
    def test_total_split_follows_training_mix(self, ours_model_set):
        gen = TrafficGenerator(ours_model_set)
        counts = gen.resolve_counts(150)
        assert sum(counts.values()) == 150
        # Training mix was ~90/35/25 (UEs that never emitted an event
        # are invisible to the fitter, so allow small drift).
        assert abs(counts[P] - 90) <= 2
        assert abs(counts[DeviceType.CONNECTED_CAR] - 35) <= 2
        assert abs(counts[DeviceType.TABLET] - 25) <= 2

    def test_explicit_mapping(self, ours_model_set):
        gen = TrafficGenerator(ours_model_set)
        counts = gen.resolve_counts({P: 7})
        assert counts == {P: 7}

    def test_rejects_nonpositive(self, ours_model_set):
        with pytest.raises(ValueError):
            TrafficGenerator(ours_model_set).resolve_counts(0)

    @pytest.mark.parametrize(
        "num_ues,message",
        [
            (10.7, r"num_ues must be a whole number, got 10\.7"),
            ({P: 3.9}, r"num_ues\[PHONE\] must be a whole number"),
            (-5, "num_ues must be non-negative"),
            (
                {P: 4, DeviceType.TABLET: -1},
                r"num_ues\[TABLET\] must be non-negative",
            ),
        ],
    )
    def test_counts_must_be_whole_and_non_negative(
        self, ours_model_set, ground_truth_trace, holdout_trace, num_ues, message
    ):
        """Every entry point checks its population the way ground truth
        does, instead of truncating ``10.7`` to 10 UEs."""
        with pytest.raises(ValueError, match=message):
            TrafficGenerator(ours_model_set).generate(num_ues, start_hour=18)
        with pytest.raises(ValueError, match=message):
            stream_events(ours_model_set, num_ues, start_hour=18)
        with pytest.raises(ValueError, match=message):
            evaluate_methods(
                ground_truth_trace,
                holdout_trace,
                num_ues=num_ues,
                models={"ours": ours_model_set},
                methods=("ours",),
            )

    def test_rejects_unfitted_device(self, ground_truth_trace):
        from repro.model import fit_model_set

        phones_only = ground_truth_trace.filter_device(P)
        ms = fit_model_set(phones_only, trace_start_hour=TRACE_START_HOUR, theta_n=25)
        gen = TrafficGenerator(ms)
        with pytest.raises(ValueError, match="device type"):
            gen.resolve_counts({DeviceType.TABLET: 5})


class TestGenerate:
    def test_reproducible(self, ours_model_set):
        gen = TrafficGenerator(ours_model_set)
        a = gen.generate(50, start_hour=18, seed=11)
        b = gen.generate(50, start_hour=18, seed=11)
        assert a == b

    def test_seed_matters(self, ours_model_set):
        gen = TrafficGenerator(ours_model_set)
        assert gen.generate(50, start_hour=18, seed=1) != gen.generate(
            50, start_hour=18, seed=2
        )

    def test_ue_ids_contiguous_from_first(self, ours_model_set):
        gen = TrafficGenerator(ours_model_set)
        tr = gen.generate(40, start_hour=18, seed=3, first_ue_id=100)
        assert tr.unique_ues().min() >= 100
        assert tr.unique_ues().max() < 140

    def test_times_within_horizon(self, ours_model_set):
        gen = TrafficGenerator(ours_model_set)
        tr = gen.generate(40, start_hour=18, num_hours=2, seed=3)
        assert tr.times.max() < 2 * 3600.0
        assert tr.times.min() >= 0.0

    def test_multi_hour_generation(self, ours_model_set):
        gen = TrafficGenerator(ours_model_set)
        tr = gen.generate(60, start_hour=TRACE_START_HOUR, num_hours=3, seed=5)
        hours_with_events = set((tr.times // 3600).astype(int).tolist())
        assert len(hours_with_events) >= 2

    def test_output_respects_state_machine(self, ours_model_set):
        gen = TrafficGenerator(ours_model_set)
        tr = gen.generate(80, start_hour=18, seed=7)
        assert replay_trace(tr).violations == 0

    def test_scales_beyond_training_population(self, ours_model_set):
        """Design goal 3 (scalability): 4x the training population."""
        gen = TrafficGenerator(ours_model_set)
        tr = gen.generate(600, start_hour=18, seed=3)
        assert tr.num_ues > 300

    def test_every_event_labeled_with_owner(self, ours_model_set):
        """Design goal 2 (event-owner labeling)."""
        gen = TrafficGenerator(ours_model_set)
        tr = gen.generate(50, start_hour=18, seed=3)
        assert np.all(tr.ue_ids >= 0)
        # Device type is constant per UE.
        for _, sub in tr.per_ue():
            assert len(set(sub.device_types.tolist())) == 1

    def test_one_hour_by_default(self, ours_model_set):
        gen = TrafficGenerator(ours_model_set)
        a = gen.generate(30, start_hour=18, seed=4)
        b = gen.generate(30, start_hour=18, num_hours=1, seed=4)
        assert a == b

    def test_unfitted_hour_yields_silence(self, ours_model_set):
        gen = TrafficGenerator(ours_model_set)
        # Hour 3 (night) was never fitted from the 4-hour evening trace.
        tr = gen.generate(30, start_hour=3, num_hours=1, seed=4)
        assert len(tr) == 0

    def test_empty_result_is_trace(self, ours_model_set):
        gen = TrafficGenerator(ours_model_set)
        tr = gen.generate(5, start_hour=3, seed=4)
        assert isinstance(tr, Trace)

    def test_rejects_model_set_without_models(self):
        empty = ModelSet(
            machine_kind="two_level",
            family="empirical",
            clustered=True,
            models={},
            device_ues={},
            theta_f=5.0,
            theta_n=1000,
        )
        with pytest.raises(ValueError, match="no fitted models"):
            TrafficGenerator(empty)


class TestGenerateUeEvents:
    def test_rejects_bad_hours(self, ours_model_set, rng):
        with pytest.raises(ValueError):
            generate_ue_events(
                ours_model_set, P, 0, start_hour=18, num_hours=0, rng=rng
            )

    def test_chronological_per_hour(self, ours_model_set, rng):
        persona = ours_model_set.device_ues[P][0]
        times, events = generate_ue_events(
            ours_model_set, P, persona, start_hour=18, num_hours=2, rng=rng
        )
        assert len(times) == len(events)

    def test_base_overlay_produces_category2(self, base_model_set):
        """Base has no HO/TAU edges but must still emit them (overlay)."""
        gen = TrafficGenerator(base_model_set)
        tr = gen.generate(80, start_hour=18, seed=6)
        assert np.any(tr.event_types == int(E.HO))
        assert np.any(tr.event_types == int(E.TAU))


# ---------------------------------------------------------------------------
# Pinned generator output
# ---------------------------------------------------------------------------

#: ``Trace.content_hash`` of each method's generation for a mixed
#: 120-UE population over two hours (start hour 18), per generation
#: seed, fitted on the oracle simulator's trace.  ``"chunked"`` runs
#: with at most 7 UEs per chunk (many parts to merge), ``"stream"``
#: collects :func:`stream_events`; both must give the batch bits.  Any
#: change to the engine's draws, its arithmetic or its row order moves
#: these.
GENERATOR_HASHES = {
    ("base", 3, "batch"): "c8d5f40c091b67d9d47a97e72b9a12aa63ab84b22c76d714bef454c657a43563",
    ("base", 4, "batch"): "d8c6fcd9e26dfa21d72d1674f579c892728388e98808509e0bb7f40e379b3b77",
    ("v1", 3, "batch"): "2c87f2c08779bd03e4a894e68aa27161da2597fced521b8d5dfd84966b253e46",
    ("v1", 4, "batch"): "ed0c1772519de696c1d219fe57feedab12c7c52ad61bb9d0e52152903b14ecf7",
    ("v2", 3, "batch"): "8682983478b396de1efcd4cbc665fc578838498c54824536469b9976a85dd780",
    ("v2", 4, "batch"): "94af21185949dc4798b9afdfded48033a797436a7ccb5642c4c6c8e5be2ad595",
    ("ours", 3, "batch"): "aefd6b515a8e1978cc37b55f08e7c4d81b630fc94fb2b64381ea54e43e5986e9",
    ("ours", 4, "batch"): "6809b708fd019f1b60944f9d28eb23fd6cdc0e149678be4b0c6ee5be8374de53",
    ("v1", 3, "chunked"): "2c87f2c08779bd03e4a894e68aa27161da2597fced521b8d5dfd84966b253e46",
    ("ours", 4, "stream"): "6809b708fd019f1b60944f9d28eb23fd6cdc0e149678be4b0c6ee5be8374de53",
}


@pytest.fixture(scope="module")
def pinned_model_sets(
    oracle_ground_truth_trace, oracle_base_model_set, oracle_ours_model_set
):
    fits = {
        method: fit_method(
            method, oracle_ground_truth_trace, theta_n=25,
            trace_start_hour=TRACE_START_HOUR,
        )
        for method in ("v1", "v2")
    }
    return dict(fits, base=oracle_base_model_set, ours=oracle_ours_model_set)


@pytest.mark.parametrize(
    "case", sorted(GENERATOR_HASHES), ids=lambda k: "-".join(map(str, k))
)
def test_generator_content_hash_pinned(pinned_model_sets, case, monkeypatch):
    method, seed, mode = case
    model_set = pinned_model_sets[method]
    kwargs = dict(start_hour=TRACE_START_HOUR + 1, num_hours=2, seed=seed)
    if mode == "stream":
        trace = Trace.from_events(stream_events(model_set, 120, **kwargs))
    else:
        if mode == "chunked":
            monkeypatch.setattr(traffgen, "MAX_CHUNK_UE_HOURS", 7 * 2)
        trace = TrafficGenerator(model_set).generate(120, **kwargs)
    assert np.unique(trace.device_types).size == 3
    assert trace.content_hash() == GENERATOR_HASHES[case]
