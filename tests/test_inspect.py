"""Tests for model introspection (repro.model.inspect)."""

import numpy as np
import pytest

from repro.model import (
    HourModel,
    describe_model_set,
    expected_event_rates,
    state_occupancy,
    stationary_distribution,
    summarize_cluster,
    summarize_model_set,
)
from repro.trace import DeviceType, EventType

from conftest import v1_edge, v1_hour
from oracle.objects import cluster_view

E = EventType
#: The ping-pong chain's two states.
A, B = "S1_REL_S_1", "SRV_REQ_S"


def one_cluster(chain) -> HourModel:
    """Tables of one cluster with a v1 ``chain``."""
    return HourModel.from_dict(v1_hour(chain), "two_level")


def ping_pong(rate_ab=1.0, rate_ba=0.5) -> HourModel:
    """A <-> B with exponential dwells (mean 1/rate)."""
    return one_cluster(
        {
            A: [v1_edge(E.SRV_REQ, B, 1.0, rate=rate_ab)],
            B: [v1_edge(E.S1_CONN_REL, A, 1.0, rate=rate_ba)],
        }
    )


class TestStationary:
    def test_ping_pong_is_uniform_in_jumps(self):
        pi = stationary_distribution(ping_pong(), 0)
        assert pi[A] == pytest.approx(0.5, abs=1e-6)
        assert pi[B] == pytest.approx(0.5, abs=1e-6)

    def test_biased_three_state(self):
        # X -> Y (prob 1), Y -> X or Z equally, Z -> X.
        X, Y, Z = "DEREGISTERED", "HO_S", "SRV_REQ_S"
        hm = one_cluster(
            {
                X: [v1_edge(E.HO, Y, 1.0, rate=1.0)],
                Y: [
                    v1_edge(E.TAU, X, 0.5, rate=1.0),
                    v1_edge(E.HO, Z, 0.5, rate=1.0),
                ],
                Z: [v1_edge(E.TAU, X, 1.0, rate=1.0)],
            }
        )
        pi = stationary_distribution(hm, 0)
        # pi_X = 0.4, pi_Y = 0.4, pi_Z = 0.2 solves pi P = pi.
        assert pi[X] == pytest.approx(0.4, abs=1e-6)
        assert pi[Y] == pytest.approx(0.4, abs=1e-6)
        assert pi[Z] == pytest.approx(0.2, abs=1e-6)

    def test_sums_to_one(self, ours_model_set):
        hm = ours_model_set.models[DeviceType.PHONE][
            ours_model_set.hours(DeviceType.PHONE)[0]
        ]
        pi = stationary_distribution(hm, 0)
        assert sum(pi.values()) == pytest.approx(1.0)

    def test_mass_into_edgeless_states_is_dropped(self):
        """Only states with out-degree > 0 are in the chain; an edge into
        any other state loses its mass and the row is renormalized."""
        hm = one_cluster(
            {
                A: [
                    v1_edge(E.SRV_REQ, B, 0.5, rate=1.0),
                    v1_edge(E.DTCH, "DEREGISTERED", 0.5, rate=1.0),
                ],
                B: [v1_edge(E.S1_CONN_REL, A, 1.0, rate=1.0)],
            }
        )
        pi = stationary_distribution(hm, 0)
        assert set(pi) == {A, B}
        assert pi[A] == pytest.approx(0.5, abs=1e-6)


class TestOccupancy:
    def test_time_weighting(self):
        # Dwell in A is 1s, in B 2s -> occupancy 1/3 vs 2/3.
        occ = state_occupancy(ping_pong(rate_ab=1.0, rate_ba=0.5), 0)
        assert occ[A] == pytest.approx(1 / 3, abs=1e-6)
        assert occ[B] == pytest.approx(2 / 3, abs=1e-6)

    def test_sums_to_one(self):
        occ = state_occupancy(ping_pong(), 0)
        assert sum(occ.values()) == pytest.approx(1.0)

    def test_empirical_dwell_is_the_knot_mean(self):
        """A one-sample CDF (stored padded) dwells its one sample."""
        hm = one_cluster(
            {
                A: [v1_edge(E.SRV_REQ, B, 1.0, quantiles=[3.0])],
                B: [v1_edge(E.S1_CONN_REL, A, 1.0, quantiles=[0.5, 1.5])],
            }
        )
        occ = state_occupancy(hm, 0)
        assert occ[A] == pytest.approx(3 / 4, abs=1e-6)


class TestEventRates:
    def test_ping_pong_rates(self):
        # One SRV_REQ and one S1_CONN_REL per 3-second cycle.
        rates = expected_event_rates(ping_pong(rate_ab=1.0, rate_ba=0.5), 0)
        assert rates[E.SRV_REQ] == pytest.approx(1 / 3, abs=1e-6)
        assert rates[E.S1_CONN_REL] == pytest.approx(1 / 3, abs=1e-6)
        assert rates[E.HO] == 0.0

    def test_analytic_matches_simulation(self, rng):
        """Monte-Carlo check of the steady-state rate computation."""
        hm = ping_pong(rate_ab=2.0, rate_ba=1.0)
        rates = expected_event_rates(hm, 0)
        chain = cluster_view(hm)[0].chain
        # Simulate the chain for a long horizon.
        state, t, counts = A, 0.0, {E.SRV_REQ: 0, E.S1_CONN_REL: 0}
        horizon = 50_000.0
        while t < horizon:
            dwell, event, target = chain.step(state, rng)
            t += dwell
            if t < horizon:
                counts[event] += 1
            state = target
        for event in (E.SRV_REQ, E.S1_CONN_REL):
            assert counts[event] / horizon == pytest.approx(
                rates[event], rel=0.05
            )


#: ``describe_model_set`` of the shared fixtures' models, fitted on the
#: oracle simulator's trace, as the object-view implementation printed it.
DESCRIBED = {
    "ours": (
        "ModelSet: machine=two_level family=empirical clustered=True\n"
        "  total models: 109\n"
        "  PHONE: hours=4, avg clusters/hour=15.5, mean P(active)=0.99, "
        "predicted events/UE-hour=133.3\n"
        "  CONNECTED_CAR: hours=4, avg clusters/hour=6.2, mean P(active)=0.88, "
        "predicted events/UE-hour=36.5\n"
        "  TABLET: hours=4, avg clusters/hour=5.5, mean P(active)=0.80, "
        "predicted events/UE-hour=196.2"
    ),
    "base": (
        "ModelSet: machine=emm_ecm family=poisson clustered=False\n"
        "  total models: 12\n"
        "  PHONE: hours=4, avg clusters/hour=1.0, mean P(active)=0.99, "
        "predicted events/UE-hour=57.4\n"
        "  CONNECTED_CAR: hours=4, avg clusters/hour=1.0, mean P(active)=0.88, "
        "predicted events/UE-hour=38.8\n"
        "  TABLET: hours=4, avg clusters/hour=1.0, mean P(active)=0.78, "
        "predicted events/UE-hour=230.0"
    ),
}


@pytest.fixture(scope="module")
def oracle_model_sets(oracle_ours_model_set, oracle_base_model_set):
    """``ours`` and ``base`` fitted on the oracle simulator's copy of the
    shared ground-truth trace, so that :data:`DESCRIBED` pins the
    description, not the ground-truth engine's random streams."""
    return {"ours": oracle_ours_model_set, "base": oracle_base_model_set}


class TestSummaries:
    def test_cluster_summary_includes_overlay(self, base_model_set):
        dt = DeviceType.PHONE
        hm = base_model_set.models[dt][base_model_set.hours(dt)[0]]
        summary = summarize_cluster(hm, 0)
        # Overlay HO rate must appear in the per-hour event rates.
        assert summary.event_rates_per_hour[E.HO] > 0.0

    def test_model_set_summary(self, ours_model_set):
        summary = summarize_model_set(ours_model_set)
        assert summary.machine_kind == "two_level"
        assert summary.num_models == ours_model_set.num_models
        for dt in summary.predicted_events_per_ue_hour:
            assert summary.predicted_events_per_ue_hour[dt] >= 0.0
            assert 0.0 <= summary.mean_p_active[dt] <= 1.0

    def test_predicted_rate_is_upper_ballpark(self, ours_model_set):
        """The steady-state prediction brackets the generated volume.

        The analytic rate describes the chain running continuously; the
        generator's per-hour counts sit below it (mid-hour starts,
        hour-boundary drops, and the right-truncation of fitted sojourn
        CDFs all push the steady-state estimate up), so the prediction
        is an order-of-magnitude upper ballpark, not a point estimate.
        """
        from repro.generator import TrafficGenerator

        summary = summarize_model_set(ours_model_set)
        dt = DeviceType.PHONE
        hour = ours_model_set.hours(dt)[0]
        trace = TrafficGenerator(ours_model_set).generate(
            {dt: 300}, start_hour=hour, num_hours=1, seed=8
        )
        actual = len(trace) / 300
        predicted = summary.predicted_events_per_ue_hour[dt]
        assert predicted > 0
        assert actual / 2 < predicted < actual * 10

    def test_describe_is_readable(self, ours_model_set):
        text = describe_model_set(ours_model_set)
        assert "two_level" in text
        assert "PHONE" in text
        assert "predicted events/UE-hour" in text

    def test_describe_unchanged_on_fixtures(self, oracle_model_sets):
        for method, model_set in oracle_model_sets.items():
            assert describe_model_set(model_set) == DESCRIBED[method]

    def test_cluster_without_edges(self):
        """A cluster with no transitions has an empty chain and no rates."""
        hm = one_cluster({})
        assert stationary_distribution(hm, 0) == {}
        summary = summarize_cluster(hm, 0)
        assert summary.occupancy == {}
        assert summary.expected_events_per_active_ue_hour == 0.0
        assert np.isfinite(summary.p_active)
