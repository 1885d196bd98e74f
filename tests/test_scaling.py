"""Tests for 4G -> 5G parameter scaling (repro.model.scaling)."""

import numpy as np
import pytest

from repro.distributions import EmpiricalCDF, Exponential
from repro.generator import TrafficGenerator
from repro.model import (
    NSA_HO_SCALE,
    SA_HO_SCALE,
    Edge,
    SemiMarkovChain,
    StateModel,
    drop_event,
    scale_event_frequency,
    scale_to_nsa,
    scale_to_sa,
)
from repro.statemachines import nr
from repro.trace import DeviceType, EventType

E = EventType


def chain_with_ho() -> SemiMarkovChain:
    return SemiMarkovChain(
        {
            "SRV_REQ_S": StateModel(
                edges=(
                    Edge(E.HO, "HO_S", 0.2, Exponential(rate=0.1)),
                    Edge(E.TAU, "TAU_S_CONN", 0.3, Exponential(rate=0.2)),
                    Edge(E.S1_CONN_REL, "S1_REL_S_1", 0.5, EmpiricalCDF([10.0, 20.0])),
                )
            ),
        }
    )


class TestScaleEventFrequency:
    def test_odds_scaling(self):
        scaled = scale_event_frequency(chain_with_ho(), E.HO, 4.0)
        probs = {
            e.event: e.probability
            for e in scaled.states["SRV_REQ_S"].edges
        }
        # odds: HO 0.2*4=0.8 vs TAU 0.3 vs REL 0.5 -> normalize by 1.6.
        assert probs[E.HO] == pytest.approx(0.8 / 1.6)
        assert probs[E.TAU] == pytest.approx(0.3 / 1.6)
        assert sum(probs.values()) == pytest.approx(1.0)

    def test_sojourn_time_shrinks(self):
        scaled = scale_event_frequency(chain_with_ho(), E.HO, 4.0)
        ho_edge = next(
            e for e in scaled.states["SRV_REQ_S"].edges if e.event == E.HO
        )
        assert ho_edge.sojourn.mean() == pytest.approx(10.0 / 4.0)

    def test_other_sojourns_untouched(self):
        scaled = scale_event_frequency(chain_with_ho(), E.HO, 4.0)
        rel_edge = next(
            e
            for e in scaled.states["SRV_REQ_S"].edges
            if e.event == E.S1_CONN_REL
        )
        assert rel_edge.sojourn.mean() == pytest.approx(15.0)

    def test_identity_scale(self):
        scaled = scale_event_frequency(chain_with_ho(), E.HO, 1.0)
        assert scaled.transition_matrix() == chain_with_ho().transition_matrix()

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            scale_event_frequency(chain_with_ho(), E.HO, 0.0)


class TestDropEvent:
    def test_edges_removed_and_renormalized(self):
        dropped = drop_event(chain_with_ho(), E.TAU)
        probs = {
            e.event: e.probability for e in dropped.states["SRV_REQ_S"].edges
        }
        assert E.TAU not in probs
        assert sum(probs.values()) == pytest.approx(1.0)
        assert probs[E.HO] == pytest.approx(0.2 / 0.7)

    def test_state_with_only_dropped_edges_becomes_absorbing(self):
        chain = SemiMarkovChain(
            {"X": StateModel(edges=(Edge(E.TAU, "X", 1.0, Exponential(1.0)),))}
        )
        dropped = drop_event(chain, E.TAU)
        assert dropped.states["X"].is_absorbing


class TestNsaScaling:
    def test_constants_match_paper(self):
        assert NSA_HO_SCALE == 4.6
        assert SA_HO_SCALE == 3.0

    def test_nsa_keeps_machine_and_tau(self, ours_model_set):
        nsa = scale_to_nsa(ours_model_set)
        assert nsa.machine_kind == "two_level"
        # TAU still generated.
        trace = TrafficGenerator(nsa).generate(60, start_hour=18, seed=2)
        assert np.any(trace.event_types == int(E.TAU))

    def test_nsa_increases_ho_share(self, ours_model_set):
        lte = TrafficGenerator(ours_model_set).generate(100, start_hour=18, seed=2)
        nsa = TrafficGenerator(scale_to_nsa(ours_model_set)).generate(
            100, start_hour=18, seed=2
        )
        lte_ho = lte.breakdown()[E.HO]
        nsa_ho = nsa.breakdown()[E.HO]
        assert nsa_ho > 1.5 * lte_ho

    def test_requires_two_level(self, base_model_set):
        with pytest.raises(ValueError, match="two-level"):
            scale_to_nsa(base_model_set)


class TestSaScaling:
    def test_sa_machine_kind(self, ours_model_set):
        sa = scale_to_sa(ours_model_set)
        assert sa.machine_kind == "nr_sa"

    def test_sa_has_no_tau(self, ours_model_set):
        sa = scale_to_sa(ours_model_set)
        trace = TrafficGenerator(sa).generate(100, start_hour=18, seed=2)
        assert not np.any(trace.event_types == int(E.TAU))

    def test_sa_states_renamed(self, ours_model_set):
        sa = scale_to_sa(ours_model_set)
        dt = DeviceType.PHONE
        h = sa.hours(dt)[0]
        for cm in sa.models[dt][h].clusters:
            for state in cm.chain.states:
                assert state in set(nr.NR_STATES)

    def test_sa_ho_between_lte_and_nsa(self, ours_model_set):
        """Table 7: NSA has more HO than SA, both more than LTE."""
        gen = lambda ms: TrafficGenerator(ms).generate(150, start_hour=18, seed=2)
        lte_ho = gen(ours_model_set).breakdown()[E.HO]
        nsa_ho = gen(scale_to_nsa(ours_model_set)).breakdown()[E.HO]
        sa_ho = gen(scale_to_sa(ours_model_set)).breakdown()[E.HO]
        assert lte_ho < sa_ho < nsa_ho

    def test_sa_traces_valid_for_nr_machine(self, ours_model_set):
        from repro.statemachines import replay_trace

        sa = scale_to_sa(ours_model_set)
        trace = TrafficGenerator(sa).generate(80, start_hour=18, seed=9)
        assert replay_trace(trace, sa.machine()).violations == 0

    def test_first_event_tau_removed(self, ours_model_set):
        sa = scale_to_sa(ours_model_set)
        for dt in sa.models:
            for h in sa.hours(dt):
                for cm in sa.models[dt][h].clusters:
                    assert E.TAU not in cm.first_event.event_probs
