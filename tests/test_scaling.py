"""Tests for 4G -> 5G parameter scaling (repro.model.scaling)."""

import json
import math

import numpy as np
import pytest

from repro.generator import TrafficGenerator
from repro.model import (
    NSA_HO_SCALE,
    SA_HO_SCALE,
    ModelSet,
    scale_to_nsa,
    scale_to_sa,
)
from repro.model.model_set import GENERATOR_COLUMNS, VIEW_COLUMNS
from repro.statemachines import nr
from repro.trace import DeviceType, EventType

from conftest import v1_edge, v1_model_set
from oracle import objects

E = EventType


def model_with_ho() -> ModelSet:
    """One phone cluster whose SRV_REQ_S has HO, TAU and release edges."""
    return ModelSet.from_dict(
        v1_model_set(
            {
                "SRV_REQ_S": [
                    v1_edge(E.HO, "HO_S", 0.2, rate=0.1),
                    v1_edge(E.TAU, "TAU_S_CONN", 0.3, rate=0.2),
                    v1_edge(E.S1_CONN_REL, "S1_REL_S_1", 0.5, quantiles=[10.0, 20.0]),
                ],
            }
        )
    )


def chain_of(model_set: ModelSet) -> dict:
    """The one cluster's chain, as v1 JSON."""
    return model_set.to_dict()["models"]["PHONE"]["0"]["clusters"][0]["chain"]


def edges_of(model_set: ModelSet, state: str) -> dict:
    """``event -> edge`` of one state of the one cluster."""
    return {E[e["event"]]: e for e in chain_of(model_set)[state]}


def mean_sojourn(edge: dict) -> float:
    sojourn = edge["sojourn"]
    if sojourn["family"] == "poisson":
        return 1.0 / sojourn["rate"]
    return float(np.mean(sojourn["quantiles"]))


class TestScaleEventFrequency:
    def test_odds_scaling(self):
        scaled = scale_to_nsa(model_with_ho(), 4.0)
        probs = {e: d["probability"] for e, d in edges_of(scaled, "SRV_REQ_S").items()}
        # odds: HO 0.2*4=0.8 vs TAU 0.3 vs REL 0.5 -> normalize by 1.6.
        assert probs[E.HO] == pytest.approx(0.8 / 1.6)
        assert probs[E.TAU] == pytest.approx(0.3 / 1.6)
        assert sum(probs.values()) == pytest.approx(1.0)

    def test_sojourn_time_shrinks(self):
        scaled = scale_to_nsa(model_with_ho(), 4.0)
        ho_edge = edges_of(scaled, "SRV_REQ_S")[E.HO]
        assert mean_sojourn(ho_edge) == pytest.approx(10.0 / 4.0)

    def test_other_sojourns_untouched(self):
        scaled = scale_to_nsa(model_with_ho(), 4.0)
        rel_edge = edges_of(scaled, "SRV_REQ_S")[E.S1_CONN_REL]
        assert mean_sojourn(rel_edge) == pytest.approx(15.0)

    def test_identity_scale(self):
        scaled = scale_to_nsa(model_with_ho(), 1.0)
        assert chain_of(scaled) == chain_of(model_with_ho())

    def test_rejects_nonpositive_factor(self):
        with pytest.raises(ValueError):
            scale_to_nsa(model_with_ho(), 0.0)


class TestDropEvent:
    def test_edges_removed_and_renormalized(self):
        dropped = scale_to_sa(model_with_ho(), 1.0)
        probs = {
            e: d["probability"] for e, d in edges_of(dropped, "SRV_REQ_S").items()
        }
        assert E.TAU not in probs
        assert sum(probs.values()) == pytest.approx(1.0)
        assert probs[E.HO] == pytest.approx(0.2 / 0.7)

    def test_state_with_only_dropped_edges_becomes_absorbing(self):
        model = ModelSet.from_dict(
            v1_model_set(
                {"S1_REL_S_1": [v1_edge(E.TAU, "TAU_S_IDLE", 1.0, rate=1.0)]}
            )
        )
        dropped = scale_to_sa(model, 1.0)
        hm = dropped.models[DeviceType.PHONE][0]
        assert hm.state_deg.sum() == 0  # CM_IDLE has no edges left
        assert chain_of(dropped) == {}


class TestHoScaleChecked:
    """``ho_scale`` must be finite and positive; ``None`` is the default."""

    BAD = [0.0, -1.0, math.nan, math.inf]

    @pytest.mark.parametrize("scale", [scale_to_nsa, scale_to_sa])
    @pytest.mark.parametrize("ho_scale", BAD)
    def test_api_rejects(self, scale, ho_scale):
        with pytest.raises(ValueError, match="ho_scale"):
            scale(model_with_ho(), ho_scale)

    @pytest.mark.parametrize("mode", ["nsa", "sa"])
    @pytest.mark.parametrize("ho_scale", ["0", "-1", "nan", "inf"])
    def test_cli_rejects(self, tmp_path, capsys, mode, ho_scale):
        from repro.cli.main import main

        model = tmp_path / "model.json"
        model_with_ho().save(model)
        out = tmp_path / "scaled.json"
        with pytest.raises(SystemExit) as excinfo:
            main(["scale5g", "--model", str(model), "--mode", mode,
                  f"--ho-scale={ho_scale}", "--out", str(out)])
        assert excinfo.value.code == 2
        assert "repro: error: ho_scale must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "scale,default", [(scale_to_nsa, NSA_HO_SCALE), (scale_to_sa, SA_HO_SCALE)]
    )
    def test_none_is_the_default(self, scale, default):
        model = model_with_ho()
        assert scale(model, None).content_hash() == scale(model, default).content_hash()


def bits_equal(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestOracleEquality:
    """The column scaling equals the object path (scale each cluster's
    objects, then table them) bit for bit, and generates the same traces."""

    @pytest.mark.parametrize("mode", ["nsa", "sa"])
    @pytest.mark.parametrize("ho_scale", [None, 2.5])
    def test_tables_and_traces(self, ours_model_set, mode, ho_scale):
        scale = {"nsa": scale_to_nsa, "sa": scale_to_sa}[mode]
        oracle = {"nsa": objects.scale_to_nsa, "sa": objects.scale_to_sa}[mode]
        got = scale(ours_model_set, ho_scale)
        ref = oracle(ours_model_set) if ho_scale is None else oracle(
            ours_model_set, ho_scale
        )
        assert got.machine_kind == ref.machine_kind
        for dt, hours in ref.models.items():
            for hour, hm in hours.items():
                for name in GENERATOR_COLUMNS + VIEW_COLUMNS:
                    assert bits_equal(
                        getattr(got.models[dt][hour], name), getattr(hm, name)
                    ), (dt.name, hour, name)
        run = dict(num_ues=60, start_hour=18, num_hours=2, seed=3)
        assert TrafficGenerator(got).generate(**run) == TrafficGenerator(ref).generate(**run)

    def test_sa_json_lists_no_edgeless_state(self, ours_model_set):
        """States left without edges are not written (they generate
        nothing), and the scaled JSON loads back to the same hash."""
        sa = scale_to_sa(ours_model_set)
        data = json.loads(json.dumps(sa.to_dict()))
        for hours in data["models"].values():
            for hm in hours.values():
                for cluster in hm["clusters"]:
                    assert all(cluster["chain"].values())
        assert ModelSet.from_dict(data).content_hash() == sa.content_hash()


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
        for cluster in sa.to_dict()["models"][dt.name][str(h)]["clusters"]:
            for state, edges in cluster["chain"].items():
                assert state in set(nr.NR_STATES)
                assert {e["target"] for e in edges} <= set(nr.NR_STATES)

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
                hm = sa.models[dt][h]
                assert not (hm.fe_event == int(E.TAU)).any()
                for cm in objects.cluster_view(hm):
                    assert E.TAU not in cm.first_event.event_probs
