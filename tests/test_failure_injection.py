"""Failure-injection tests: corrupted files, adversarial inputs.

A production library must fail loudly and legibly on bad inputs rather
than producing silently wrong models or traces.
"""

import gzip
import json

import numpy as np
import pytest

from repro.model import ModelSet, fit_model_set
from repro.trace import (
    DeviceType,
    EventType,
    Trace,
    read_csv,
    read_npz,
    write_npz,
)

from conftest import make_trace

E = EventType
P = DeviceType.PHONE


class TestCorruptTraceFiles:
    def test_truncated_npz(self, tmp_path, tiny_trace):
        path = tmp_path / "trace.npz"
        write_npz(tiny_trace, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(Exception):
            read_npz(path)

    def test_npz_missing_column(self, tmp_path, tiny_trace):
        path = tmp_path / "trace.npz"
        np.savez(path, ue_ids=tiny_trace.ue_ids, times=tiny_trace.times)
        with pytest.raises(ValueError, match="'event_types'"):
            read_npz(path)

    def test_csv_with_garbage_event(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("ue_id,time,event,device\n1,1.0,EXPLODE,PHONE\n")
        with pytest.raises(ValueError, match="'event'.*EXPLODE"):
            read_csv(path)

    def test_csv_with_non_numeric_time(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("ue_id,time,event,device\n1,abc,ATCH,PHONE\n")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_csv_negative_time_rejected_at_construction(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("ue_id,time,event,device\n1,-5.0,ATCH,PHONE\n")
        with pytest.raises(ValueError, match="negative"):
            read_csv(path)


class TestCorruptModelFiles:
    def test_not_json(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("this is not json {")
        with pytest.raises(json.JSONDecodeError):
            ModelSet.load(path)

    def test_wrong_format_marker(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="format"):
            ModelSet.load(path)

    def test_gzip_extension_on_plain_file(self, tmp_path, ours_model_set):
        path = tmp_path / "model.json.gz"
        path.write_text("{}")  # not gzipped
        with pytest.raises(Exception):
            ModelSet.load(path)

    def test_missing_fields(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "repro-model-set-v1"}))
        with pytest.raises(KeyError):
            ModelSet.load(path)

    def test_corrupted_event_name_in_chain(self, tmp_path, ours_model_set):
        payload = ours_model_set.to_dict()
        device = next(iter(payload["models"]))
        hour = next(iter(payload["models"][device]))
        clusters = payload["models"][device][hour]["clusters"]
        chain = clusters[0]["chain"]
        state = next(s for s, edges in chain.items() if edges)
        chain[state][0]["event"] = "NOT_AN_EVENT"
        path = tmp_path / "model.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(KeyError):
            ModelSet.load(path)


class TestAdversarialTraces:
    def test_fit_single_event_trace(self):
        """One lonely event must still produce a usable model."""
        tr = make_trace([(1, 10.0, E.SRV_REQ, P)])
        ms = fit_model_set(tr)
        from repro.generator import TrafficGenerator

        out = TrafficGenerator(ms).generate({P: 5}, start_hour=0, seed=1)
        assert isinstance(out, Trace)

    def test_fit_trace_of_identical_timestamps(self):
        rows = [(1, 5.0, E.SRV_REQ, P), (1, 5.0, E.S1_CONN_REL, P)]
        ms = fit_model_set(make_trace(rows))
        assert ms.num_models >= 1

    def test_fit_protocol_violating_trace(self):
        """HO-in-IDLE inputs must not crash fitting (lenient replay)."""
        rows = [
            (1, 1.0, E.SRV_REQ, P),
            (1, 2.0, E.S1_CONN_REL, P),
            (1, 3.0, E.HO, P),       # invalid
            (1, 4.0, E.HO, P),       # invalid
            (1, 5.0, E.SRV_REQ, P),  # invalid from HO_S
        ]
        ms = fit_model_set(make_trace(rows))
        assert ms.num_models >= 1

    def test_fit_trace_with_one_device_only(self, ground_truth_trace):
        phones = ground_truth_trace.filter_device(P)
        ms = fit_model_set(phones, theta_n=25, trace_start_hour=17)
        assert list(ms.models) == [P]

    def test_generator_with_huge_population_request(self, ours_model_set):
        """A 100x scale-up request must work (design goal 3)."""
        from repro.generator import TrafficGenerator

        trace = TrafficGenerator(ours_model_set).generate(
            5000, start_hour=18, num_hours=1, seed=1
        )
        assert trace.num_ues > 2000

    def test_events_at_hour_boundaries(self):
        """Events exactly on hour edges land in the right segment."""
        rows = [
            (1, 0.0, E.SRV_REQ, P),
            (1, 3599.999, E.S1_CONN_REL, P),
            (1, 3600.0, E.SRV_REQ, P),
            (1, 7199.0, E.S1_CONN_REL, P),
        ]
        ms = fit_model_set(make_trace(rows), trace_start_hour=0)
        assert set(ms.hours(P)) == {0, 1}

    def test_mme_with_simultaneous_arrivals(self):
        from repro.mcn import MmeSimulator

        rows = [(i, 1.0, E.SRV_REQ, P) for i in range(50)]
        report = MmeSimulator(num_workers=2).process(make_trace(rows))
        assert report.num_events == 50
        assert report.max_wait > 0  # they must queue
