"""Tests for the semi-Markov chain objects of the test oracle
(oracle.objects), which the reference fitter and generator walk."""

import numpy as np
import pytest

from repro.distributions import EmpiricalCDF, Exponential
from repro.trace import EventType

from oracle.objects import Edge, SemiMarkovChain, StateModel

E = EventType


def two_state_chain() -> SemiMarkovChain:
    return SemiMarkovChain(
        {
            "A": StateModel(
                edges=(
                    Edge(E.SRV_REQ, "B", 0.7, Exponential(rate=1.0)),
                    Edge(E.DTCH, "A", 0.3, Exponential(rate=0.1)),
                )
            ),
            "B": StateModel(
                edges=(Edge(E.S1_CONN_REL, "A", 1.0, EmpiricalCDF([2.0, 4.0])),)
            ),
        }
    )


class TestStateModel:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum"):
            StateModel(
                edges=(
                    Edge(E.HO, "x", 0.5, Exponential(1.0)),
                    Edge(E.TAU, "y", 0.3, Exponential(1.0)),
                )
            )

    def test_absorbing(self):
        assert StateModel(edges=()).is_absorbing


class TestStep:
    def test_step_returns_triple(self, rng):
        chain = two_state_chain()
        dwell, event, target = chain.step("B", rng)
        assert event == E.S1_CONN_REL
        assert target == "A"
        assert 2.0 <= dwell <= 4.0

    def test_step_absorbing_returns_none(self, rng):
        chain = SemiMarkovChain({"X": StateModel(edges=())})
        assert chain.step("X", rng) is None

    def test_step_unknown_state_returns_none(self, rng):
        assert two_state_chain().step("missing", rng) is None

    def test_transition_frequencies_converge(self, rng):
        chain = two_state_chain()
        picks = [chain.step("A", rng)[1] for _ in range(5000)]
        frac_srv = sum(1 for e in picks if e == E.SRV_REQ) / len(picks)
        assert frac_srv == pytest.approx(0.7, abs=0.03)

    def test_dwell_never_zero(self, rng):
        # Even a degenerate sojourn cannot stall the clock.
        chain = SemiMarkovChain(
            {"A": StateModel(edges=(Edge(E.HO, "A", 1.0, EmpiricalCDF([0.0])),))}
        )
        dwell, _, _ = chain.step("A", rng)
        assert dwell > 0


class TestIntrospection:
    def test_transition_matrix(self):
        matrix = two_state_chain().transition_matrix()
        assert matrix["A"][(E.SRV_REQ, "B")] == pytest.approx(0.7)
        assert matrix["B"][(E.S1_CONN_REL, "A")] == 1.0

    def test_expected_dwell(self):
        chain = two_state_chain()
        expected = 0.7 * 1.0 + 0.3 * 10.0
        assert chain.expected_dwell("A") == pytest.approx(expected)
        assert chain.expected_dwell("B") == pytest.approx(3.0)

    def test_expected_dwell_absorbing(self):
        chain = SemiMarkovChain({"X": StateModel(edges=())})
        assert chain.expected_dwell("X") is None


class TestSerialization:
    def test_roundtrip(self, rng):
        chain = two_state_chain()
        back = SemiMarkovChain.from_dict(chain.to_dict())
        assert back.transition_matrix() == chain.transition_matrix()
        # Sampling agrees given the same RNG stream.
        r1, r2 = np.random.default_rng(1), np.random.default_rng(1)
        assert chain.step("A", r1) == back.step("A", r2)

    def test_dict_is_json_compatible(self):
        import json

        payload = json.dumps(two_state_chain().to_dict())
        assert "SRV_REQ" in payload
