"""Tests for the first-event model objects of the test oracle
(oracle.objects), which the reference fitter and generator use."""

import numpy as np
import pytest

from repro.trace import EventType

from oracle.objects import FirstEventModel

E = EventType


class TestFit:
    def test_p_active_counts_silent_segments(self):
        model = FirstEventModel.fit(
            [(E.SRV_REQ, 10.0), (E.TAU, 20.0)], num_segments=10
        )
        assert model.p_active == pytest.approx(0.2)

    def test_event_probs(self):
        model = FirstEventModel.fit(
            [(E.SRV_REQ, 1.0), (E.SRV_REQ, 2.0), (E.TAU, 3.0)], num_segments=3
        )
        assert model.event_probs[E.SRV_REQ] == pytest.approx(2 / 3)
        assert model.event_probs[E.TAU] == pytest.approx(1 / 3)

    def test_no_events(self):
        model = FirstEventModel.fit([], num_segments=5)
        assert model.p_active == 0.0
        assert model.event_probs == {}

    def test_more_events_than_segments_rejected(self):
        with pytest.raises(ValueError, match="more first events"):
            FirstEventModel.fit([(E.HO, 1.0)] * 3, num_segments=2)

    def test_zero_segments_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            FirstEventModel.fit([], num_segments=0)

    def test_invalid_p_active_rejected(self):
        from repro.distributions import EmpiricalCDF

        with pytest.raises(ValueError, match="p_active"):
            FirstEventModel(
                p_active=1.5, event_probs={}, offset=EmpiricalCDF([1.0])
            )


class TestSample:
    def test_silent_model_always_none(self, rng):
        model = FirstEventModel.fit([], num_segments=5)
        assert all(model.sample(rng) is None for _ in range(20))

    def test_always_active_model(self, rng):
        model = FirstEventModel.fit([(E.SRV_REQ, 100.0)], num_segments=1)
        event, offset = model.sample(rng)
        assert event == E.SRV_REQ
        assert 0 <= offset < 3600.0

    def test_activity_rate_converges(self, rng):
        model = FirstEventModel.fit(
            [(E.SRV_REQ, 5.0)] * 3, num_segments=10
        )
        hits = sum(model.sample(rng) is not None for _ in range(5000))
        assert hits / 5000 == pytest.approx(0.3, abs=0.03)

    def test_offsets_span_observed_range(self, rng):
        model = FirstEventModel.fit(
            [(E.SRV_REQ, 100.0), (E.SRV_REQ, 3000.0)], num_segments=2
        )
        offsets = [model.sample(rng)[1] for _ in range(200)]
        assert min(offsets) >= 100.0 - 1e-9
        assert max(offsets) <= 3000.0 + 1e-9

    def test_offset_clamped_to_hour(self, rng):
        model = FirstEventModel.fit([(E.HO, 3599.999)], num_segments=1)
        _, offset = model.sample(rng)
        assert offset < 3600.0


class TestSerialization:
    def test_roundtrip(self, rng):
        model = FirstEventModel.fit(
            [(E.SRV_REQ, 5.0), (E.TAU, 200.0), (E.ATCH, 12.0)], num_segments=6
        )
        back = FirstEventModel.from_dict(model.to_dict())
        assert back.p_active == model.p_active
        assert back.event_probs == model.event_probs
        r1, r2 = np.random.default_rng(4), np.random.default_rng(4)
        assert model.sample(r1) == back.sample(r2)
