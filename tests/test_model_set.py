"""Tests for model persistence and containers (repro.model.model_set)."""

import numpy as np
import pytest

from repro.generator import TrafficGenerator
from repro.model import ModelSet, build_machine
from repro.trace import DeviceType

from oracle.objects import cluster_for_ue


class TestBuildMachine:
    def test_known_kinds(self):
        assert len(build_machine("two_level").states) == 7
        assert len(build_machine("emm_ecm").states) == 3
        assert len(build_machine("nr_sa").states) == 4

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="machine_kind"):
            build_machine("pda")


class TestHourModel:
    def test_weights(self, ours_model_set):
        for dt in DeviceType:
            for h in ours_model_set.hours(dt):
                hm = ours_model_set.models[dt][h]
                w = hm.weights()
                assert w.sum() == pytest.approx(1.0)
                assert len(w) == hm.num_clusters

    def test_cluster_for_known_ue(self, ours_model_set, rng):
        dt = DeviceType.PHONE
        h = ours_model_set.hours(dt)[0]
        hm = ours_model_set.models[dt][h]
        ue = next(iter(hm.assignment))
        assert cluster_for_ue(hm, ue, rng) == hm.assignment[ue]

    def test_cluster_for_unknown_ue_weighted_draw(self, ours_model_set, rng):
        dt = DeviceType.PHONE
        h = ours_model_set.hours(dt)[0]
        hm = ours_model_set.models[dt][h]
        cid = cluster_for_ue(hm, 10**9, rng)
        assert 0 <= cid < hm.num_clusters


class TestPersistence:
    def test_dict_roundtrip(self, ours_model_set):
        back = ModelSet.from_dict(ours_model_set.to_dict())
        assert back.machine_kind == ours_model_set.machine_kind
        assert back.family == ours_model_set.family
        assert back.num_models == ours_model_set.num_models
        assert back.device_ues == ours_model_set.device_ues

    def test_file_roundtrip_json(self, ours_model_set, tmp_path):
        path = tmp_path / "model.json"
        ours_model_set.save(path)
        back = ModelSet.load(path)
        assert back.num_models == ours_model_set.num_models

    def test_file_roundtrip_gzip(self, ours_model_set, tmp_path):
        path = tmp_path / "model.json.gz"
        ours_model_set.save(path)
        back = ModelSet.load(path)
        assert back.num_models == ours_model_set.num_models

    def test_gzip_smaller_than_plain(self, ours_model_set, tmp_path):
        plain = tmp_path / "model.json"
        packed = tmp_path / "model.json.gz"
        ours_model_set.save(plain)
        ours_model_set.save(packed)
        assert packed.stat().st_size < plain.stat().st_size

    def test_loaded_model_generates_identical_traces(
        self, ours_model_set, tmp_path
    ):
        path = tmp_path / "model.json.gz"
        ours_model_set.save(path)
        back = ModelSet.load(path)
        a = TrafficGenerator(ours_model_set).generate(40, start_hour=18, seed=5)
        b = TrafficGenerator(back).generate(40, start_hour=18, seed=5)
        assert a == b

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            ModelSet.from_dict({"format": "v999"})
