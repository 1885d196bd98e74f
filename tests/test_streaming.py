"""Tests for the streaming generator (repro.generator.streaming)."""

import numpy as np
import pytest

from repro.generator import TrafficGenerator, stream_events
from repro.trace import DeviceType, Event, Trace

from conftest import TRACE_START_HOUR
from oracle.generator import UeSession, generate_ue_events


class TestUeSession:
    def test_session_matches_batch_function(self, ours_model_set):
        persona = ours_model_set.device_ues[DeviceType.PHONE][0]
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        batch = generate_ue_events(
            ours_model_set, DeviceType.PHONE, persona,
            start_hour=TRACE_START_HOUR, num_hours=3, rng=rng_a,
        )
        session = UeSession(
            ours_model_set, DeviceType.PHONE, persona,
            start_hour=TRACE_START_HOUR, rng=rng_b,
        )
        times, events = [], []
        for _ in range(3):
            ht, he = session.advance_hour()
            times.extend(ht)
            events.extend(he)
        assert (times, events) == batch

    def test_state_persists_across_hours(self, ours_model_set):
        persona = ours_model_set.device_ues[DeviceType.PHONE][0]
        session = UeSession(
            ours_model_set, DeviceType.PHONE, persona,
            start_hour=TRACE_START_HOUR, rng=np.random.default_rng(1),
        )
        session.advance_hour()
        state_after_first = session.state
        session.advance_hour()
        # The session either kept or evolved its state, never reset it
        # to the uninitialized None once events were emitted.
        if state_after_first is not None:
            assert session.state is not None


class TestStreamEvents:
    def test_stream_equals_batch(self, ours_model_set):
        batch = TrafficGenerator(ours_model_set).generate(
            80, start_hour=TRACE_START_HOUR, num_hours=2, seed=9
        )
        streamed = Trace.from_events(
            stream_events(
                ours_model_set, 80,
                start_hour=TRACE_START_HOUR, num_hours=2, seed=9,
            )
        )
        assert streamed == batch

    def test_globally_time_ordered(self, ours_model_set):
        prev = -1.0
        for event in stream_events(
            ours_model_set, 50, start_hour=TRACE_START_HOUR, num_hours=2, seed=3
        ):
            assert isinstance(event, Event)
            assert event.time >= prev
            prev = event.time

    def test_first_ue_id_offset(self, ours_model_set):
        ids = {
            e.ue_id
            for e in stream_events(
                ours_model_set, 20,
                start_hour=TRACE_START_HOUR, seed=3, first_ue_id=500,
            )
        }
        assert ids and min(ids) >= 500

    def test_rejects_bad_hours(self, ours_model_set):
        with pytest.raises(ValueError):
            next(stream_events(ours_model_set, 5, num_hours=0))

    def test_silent_hours_stream_nothing(self, ours_model_set):
        events = list(
            stream_events(ours_model_set, 10, start_hour=3, num_hours=1, seed=1)
        )
        assert events == []
