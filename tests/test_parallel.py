"""Tests for chunked, pooled generation (``TrafficGenerator.generate``)."""

import pytest

from repro.generator import GenerationCheckpoint, TrafficGenerator, traffgen
from repro.generator.traffgen import _chunk_ues, _plan_chunks
from repro.trace import DeviceType


class TestChunkPlanning:
    def test_contiguous_coverage(self):
        chunks = _plan_chunks(
            {DeviceType.PHONE: 7, DeviceType.TABLET: 3},
            {"PHONE": 3, "TABLET": 3},
            first_ue_id=0,
        )
        total = sum(n for _, _, n, _ in chunks)
        assert total == 10
        # positions are contiguous from zero.
        positions = sorted((start, n) for _, start, n, _ in chunks)
        expected = 0
        for start, n in positions:
            assert start == expected
            expected += n

    def test_ue_ids_contiguous(self):
        chunks = _plan_chunks({DeviceType.PHONE: 5}, {"PHONE": 2}, first_ue_id=100)
        ids = sorted(ue0 for _, _, _, ue0 in chunks)
        assert ids == [100, 102, 104]

    @pytest.mark.parametrize(
        "processes, cap, chunk_ues",
        [
            (1, None, (24, 9, 7)),  # one chunk per device type
            (2, None, (12, 5, 4)),
            (1, 14, (7, 7, 7)),
            (2, 14, (7, 5, 4)),
        ],
    )
    def test_chunk_size_follows_workers_and_cap(
        self, ours_model_set, monkeypatch, tmp_path, processes, cap, chunk_ues
    ):
        """A device type's n UEs go in chunks of ``min(ceil(n / workers),
        MAX_CHUNK_UE_HOURS // num_hours)`` (24/9/7 UEs, 2 hours here)."""
        if cap is not None:
            monkeypatch.setattr(traffgen, "MAX_CHUNK_UE_HOURS", cap)
        path = tmp_path / "run.npz"
        TrafficGenerator(ours_model_set).generate(
            40,
            start_hour=18,
            num_hours=2,
            processes=processes,
            checkpoint_path=path,
        )
        names = ("PHONE", "CONNECTED_CAR", "TABLET")
        assert GenerationCheckpoint.load(path).chunk_ues == dict(
            zip(names, chunk_ues)
        )


    def test_long_runs_get_bounded_chunks(self):
        """The paper's week-long 37K-UE run at ``processes=1`` plans
        chunks of at most ``MAX_CHUNK_UE_HOURS`` UE-hours, so a crash or
        a progress report is never more than one chunk behind; a
        one-hour run of the same population stays one chunk per device."""
        counts = {
            DeviceType.PHONE: 24_000,
            DeviceType.CONNECTED_CAR: 7_000,
            DeviceType.TABLET: 6_000,
        }
        week = _chunk_ues(counts, workers=1, num_hours=168)
        chunks = _plan_chunks(counts, week, first_ue_id=0)
        assert max(n for _, _, n, _ in chunks) * 168 <= (
            traffgen.MAX_CHUNK_UE_HOURS
        )
        assert len(chunks) >= 12
        hour = _chunk_ues(counts, workers=1, num_hours=1)
        assert hour == {"PHONE": 24_000, "CONNECTED_CAR": 7_000, "TABLET": 6_000}

    def test_chunk_holds_at_least_one_ue(self, monkeypatch):
        monkeypatch.setattr(traffgen, "MAX_CHUNK_UE_HOURS", 10)
        assert _chunk_ues({DeviceType.PHONE: 5}, 1, num_hours=24) == {
            "PHONE": 1
        }


class TestGenerateParallel:
    def test_single_process_matches_serial(self, ours_model_set, monkeypatch):
        serial = TrafficGenerator(ours_model_set).generate(
            60, start_hour=18, num_hours=1, seed=9
        )
        # One-hour runs: the UE-hour budget is the UEs per chunk.
        monkeypatch.setattr(traffgen, "MAX_CHUNK_UE_HOURS", 7)
        chunked = TrafficGenerator(ours_model_set).generate(
            60, start_hour=18, num_hours=1, seed=9, processes=1
        )
        assert chunked == serial

    def test_multiprocess_matches_serial(self, ours_model_set, monkeypatch):
        serial = TrafficGenerator(ours_model_set).generate(
            40, start_hour=18, num_hours=1, seed=12
        )
        monkeypatch.setattr(traffgen, "MAX_CHUNK_UE_HOURS", 5)
        parallel = TrafficGenerator(ours_model_set).generate(
            40, start_hour=18, num_hours=1, seed=12, processes=2
        )
        assert parallel == serial

    def test_chunk_size_does_not_change_output(self, ours_model_set, monkeypatch):
        gen = TrafficGenerator(ours_model_set)
        monkeypatch.setattr(traffgen, "MAX_CHUNK_UE_HOURS", 1)
        a = gen.generate(30, start_hour=18, seed=3)
        monkeypatch.setattr(traffgen, "MAX_CHUNK_UE_HOURS", 100)
        b = gen.generate(30, start_hour=18, seed=3)
        assert a == b

    def test_empty_hours_give_empty_trace(self, ours_model_set):
        trace = TrafficGenerator(ours_model_set).generate(
            10, start_hour=3, seed=1, processes=1
        )
        assert len(trace) == 0
