"""Tests for model validation (repro.model.checks) and anonymization."""

import numpy as np
import pytest

from repro.model import HourModel, ModelSet, validate_model_set
from repro.trace import DeviceType, EventType, anonymize, remap_ue_ids, shift_epoch

from conftest import make_trace, v1_edge

E = EventType
P = DeviceType.PHONE


def corrupt(model_set: ModelSet, mutate):
    """``model_set`` with one phone hour's v1 dict mutated by ``mutate``:
    ``(the checked load's error, the hour tables' audit)``."""
    data = model_set.to_dict()
    hour = model_set.hours(P)[0]
    mutate(data["models"][P.name][str(hour)])
    with pytest.raises(ValueError) as excinfo:
        ModelSet.from_dict(data)
    corrupted = ModelSet.from_dict(model_set.to_dict())
    corrupted.models[P][hour] = HourModel.from_dict(
        data["models"][P.name][str(hour)], model_set.machine_kind
    )
    return str(excinfo.value), validate_model_set(corrupted)


class TestValidateModelSet:
    def test_fitted_model_is_clean(self, ours_model_set):
        assert validate_model_set(ours_model_set) == []

    def test_baseline_model_is_clean(self, base_model_set):
        assert validate_model_set(base_model_set) == []

    def test_empty_model_set_flagged(self):
        ms = ModelSet(
            machine_kind="two_level",
            family="empirical",
            clustered=True,
            models={},
            device_ues={},
            theta_f=5.0,
            theta_n=1000,
        )
        problems = validate_model_set(ms)
        assert any("no device types" in p for p in problems)

    def test_forbidden_edge_detected(self, ours_model_set):
        def mutate(hour):
            # Inject an HO edge out of DEREGISTERED — illegal in Fig. 5.
            hour["clusters"][0]["chain"]["DEREGISTERED"] = [
                v1_edge(E.HO, "HO_S", 1.0, rate=1.0)
            ]

        error, problems = corrupt(ours_model_set, mutate)
        assert any("c0: edge_event: forbidden edge" in p for p in problems)
        assert "forbidden edge" in error

    def test_bad_probabilities_detected(self, ours_model_set):
        def mutate(hour):
            chain = hour["clusters"][0]["chain"]
            edges = next(e for e in chain.values() if e)
            for edge in edges:
                edge["probability"] *= 0.5

        with pytest.raises(ValueError, match="c0: edge_prob: .*sum to"):
            corrupt(ours_model_set, mutate)
        # The same corruption in tables the reader did not build.
        corrupted = ModelSet.from_dict(ours_model_set.to_dict())
        hm = corrupted.models[P][corrupted.hours(P)[0]]
        hm.edge_prob = hm.edge_prob * 0.5
        problems = validate_model_set(corrupted)
        assert any("sum to" in p for p in problems)

    def test_wrong_target_detected(self, ours_model_set):
        def mutate(hour):
            hour["clusters"][0]["chain"]["DEREGISTERED"] = [
                v1_edge(E.ATCH, "HO_S", 1.0, rate=1.0)
            ]

        error, problems = corrupt(ours_model_set, mutate)
        assert any("c0: edge_target: " in p and "disagrees" in p for p in problems)
        assert "disagrees" in error


class TestAnonymize:
    @pytest.fixture()
    def sample(self):
        return make_trace(
            [
                (10, 1.0, E.SRV_REQ, P),
                (10, 5.0, E.S1_CONN_REL, P),
                (20, 2.0, E.ATCH, DeviceType.TABLET),
            ]
        )

    def test_remap_preserves_structure(self, sample):
        remapped, mapping = remap_ue_ids(sample, seed=1)
        assert len(remapped) == len(sample)
        assert set(mapping) == {10, 20}
        # Per-UE sequences survive intact under the mapping.
        for old, new in mapping.items():
            before = sample.ue_trace(old)
            after = remapped.ue_trace(new)
            assert np.array_equal(before.times, after.times)
            assert np.array_equal(before.event_types, after.event_types)

    def test_remap_changes_ids(self, sample):
        remapped, mapping = remap_ue_ids(sample, seed=1, start_id=1000)
        assert set(remapped.unique_ues()) == {1000, 1001}

    def test_remap_rejects_negative_ids(self, sample):
        """A negative ``start_id`` would hand out negative UE ids."""
        with pytest.raises(ValueError, match="'ue_ids'"):
            remap_ue_ids(sample, seed=1, start_id=-30)

    def test_remap_deterministic(self, sample):
        a, _ = remap_ue_ids(sample, seed=7)
        b, _ = remap_ue_ids(sample, seed=7)
        assert a == b

    def test_shift_preserves_interarrivals(self, sample):
        shifted = shift_epoch(sample, seed=3)
        assert np.allclose(np.diff(shifted.times), np.diff(sample.times))
        assert shifted.times[0] >= sample.times[0]

    def test_shift_rejects_negative(self, sample):
        with pytest.raises(ValueError):
            shift_epoch(sample, max_shift=-1.0)

    def test_anonymized_trace_fits_identically(self, ground_truth_trace):
        """Anonymization is loss-free for modeling (breakdown identical)."""
        anon = anonymize(ground_truth_trace, seed=5)
        assert anon.breakdown() == ground_truth_trace.breakdown()
        assert anon.num_ues == ground_truth_trace.num_ues
