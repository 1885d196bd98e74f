"""End-to-end integration tests: the paper's full pipeline.

These tests run the complete loop — simulate "real" traffic, fit all
four methods, synthesize traces, validate — and assert the *relative*
claims of §8: the proposed model beats the baselines macroscopically
and microscopically.
"""

import numpy as np
import pytest

from repro.baselines import fit_method
from repro.generator import TrafficGenerator
from repro.groundtruth import simulate_ground_truth
from repro.statemachines import lte
from repro.trace import DeviceType, EventType
from repro.validation import breakdown_with_states, compare, summarize

E = EventType
P = DeviceType.PHONE
START = 18


def _compare(real, synthesized, device_type=P, *, real_num_ues=None):
    return compare(
        summarize(real, device_type, num_ues=real_num_ues),
        summarize(synthesized, device_type),
    )


@pytest.fixture(scope="module")
def pipeline():
    """Train on 3 evening hours; validate on a fresh 1-hour trace."""
    train = simulate_ground_truth(
        {DeviceType.PHONE: 100, DeviceType.CONNECTED_CAR: 40, DeviceType.TABLET: 30},
        duration=3 * 3600.0,
        seed=2024,
        start_hour=START,
    )
    real = simulate_ground_truth(
        {DeviceType.PHONE: 100, DeviceType.CONNECTED_CAR: 40, DeviceType.TABLET: 30},
        duration=3600.0,
        seed=777,
        start_hour=START + 1,
    )
    synthesized = {}
    for method in ("base", "v2", "ours"):
        ms = fit_method(method, train, theta_n=30, trace_start_hour=START)
        synthesized[method] = TrafficGenerator(ms).generate(
            170, start_hour=START + 1, num_hours=1, seed=5
        )
    return train, real, synthesized


class TestMacroscopic:
    def test_ours_close_to_real(self, pipeline):
        """§8.1.1: our breakdown errors stay small (paper: <~5%)."""
        _, real, syn = pipeline
        for dt in DeviceType:
            err = _compare(real, syn["ours"], dt).macro_max_error
            assert err < 0.10, f"{dt.name}: {err:.3f}"

    def test_ours_beats_base_by_wide_margin(self, pipeline):
        _, real, syn = pipeline
        for dt in (P, DeviceType.CONNECTED_CAR):
            ours = _compare(real, syn["ours"], dt).macro_max_error
            base = _compare(real, syn["base"], dt).macro_max_error
            assert base > 2.0 * ours, f"{dt.name}: base={base:.3f} ours={ours:.3f}"

    def test_base_generates_ho_in_idle_ours_does_not(self, pipeline):
        """Tables 4/11: the EMM-ECM baselines mistakenly emit HO in IDLE."""
        _, _, syn = pipeline
        base_bd = breakdown_with_states(syn["base"], P)
        ours_bd = breakdown_with_states(syn["ours"], P)
        assert base_bd["HO (IDLE)"] > 0.01
        assert ours_bd["HO (IDLE)"] == 0.0

    def test_tau_split_preserved_by_ours(self, pipeline):
        _, real, syn = pipeline
        real_bd = breakdown_with_states(real, P)
        ours_bd = breakdown_with_states(syn["ours"], P)
        for row in ("TAU (CONN.)", "TAU (IDLE)"):
            assert abs(ours_bd[row] - real_bd[row]) < 0.05


class TestMicroscopic:
    def test_ours_beats_v2_on_sojourns(self, pipeline):
        """Table 5: empirical CDFs beat Poisson sojourns for CONNECTED."""
        _, real, syn = pipeline
        ours = _compare(real, syn["ours"]).micro[lte.CONNECTED]
        v2 = _compare(real, syn["v2"]).micro[lte.CONNECTED]
        assert ours < v2, f"ours={ours:.3f} v2={v2:.3f}"

    def test_ours_sojourn_fidelity_absolute(self, pipeline):
        _, real, syn = pipeline
        micro = _compare(real, syn["ours"]).micro
        for state in (lte.CONNECTED, lte.IDLE):
            d = micro[state]
            assert d < 0.20, f"{state}: {d:.3f}"

    def test_count_cdf_fidelity(self, pipeline):
        _, real, syn = pipeline
        d = _compare(real, syn["ours"], real_num_ues=100).micro["SRV_REQ"]
        assert d < 0.30


class TestScalability:
    def test_10x_population_preserves_breakdown(self, pipeline):
        """§8.1 Scenario 2: scaling 10x leaves the mix intact."""
        train, _, _ = pipeline
        ms = fit_method("ours", train, theta_n=30, trace_start_hour=START)
        small = TrafficGenerator(ms).generate(100, start_hour=START + 1, seed=1)
        large = TrafficGenerator(ms).generate(1000, start_hour=START + 1, seed=1)
        small_bd = breakdown_with_states(small, P)
        large_bd = breakdown_with_states(large, P)
        for row in ("SRV_REQ", "S1_CONN_REL"):
            assert abs(small_bd[row] - large_bd[row]) < 0.05

    def test_event_volume_scales_linearly(self, pipeline):
        train, _, _ = pipeline
        ms = fit_method("ours", train, theta_n=30, trace_start_hour=START)
        n_small = len(TrafficGenerator(ms).generate(100, start_hour=START + 1, seed=1))
        n_large = len(TrafficGenerator(ms).generate(800, start_hour=START + 1, seed=1))
        assert 4.0 < n_large / n_small < 16.0


class TestFiveGPipeline:
    def test_nsa_sa_ordering(self, pipeline):
        """Table 7: HO share NSA > SA > LTE; SA lacks TAU entirely."""
        from repro.model import scale_to_nsa, scale_to_sa

        train, _, _ = pipeline
        ms = fit_method("ours", train, theta_n=30, trace_start_hour=START)
        gen = lambda m: TrafficGenerator(m).generate(200, start_hour=START + 1, seed=3)
        lte_tr = gen(ms)
        nsa_tr = gen(scale_to_nsa(ms))
        sa_tr = gen(scale_to_sa(ms))
        assert (
            lte_tr.breakdown()[E.HO]
            < sa_tr.breakdown()[E.HO]
            < nsa_tr.breakdown()[E.HO]
        )
        assert nsa_tr.breakdown()[E.TAU] > 0
        assert sa_tr.breakdown()[E.TAU] == 0.0


class TestMcnConsumption:
    def test_generated_traffic_drives_mme(self, pipeline):
        from repro.mcn import MmeSimulator

        _, _, syn = pipeline
        report = MmeSimulator(num_workers=2).process(syn["ours"])
        assert report.num_events == len(syn["ours"])
        assert report.protocol_violations == 0

    def test_base_traffic_violates_protocol(self, pipeline):
        from repro.mcn import MmeSimulator

        _, _, syn = pipeline
        report = MmeSimulator(num_workers=2).process(syn["base"])
        assert report.protocol_violations > 0


class TestModelStability:
    def test_refit_on_synthesized_traffic_is_stable(self, pipeline):
        """Fit -> generate -> refit: the second-generation model must
        reproduce the same macroscopic mix (the generator is a fixed
        point of the modeling pipeline up to sampling noise)."""
        from repro.baselines import fit_method

        train, _, syn = pipeline
        first_gen = syn["ours"]
        ms2 = fit_method(
            "ours", first_gen, theta_n=30, trace_start_hour=START + 1
        )
        second_gen = TrafficGenerator(ms2).generate(
            170, start_hour=START + 1, num_hours=1, seed=9
        )
        err = _compare(first_gen, second_gen).macro_max_error
        assert err < 0.08, f"refit drift {err:.3f}"

    def test_model_set_audit_clean_for_all_methods(self, pipeline):
        from repro.baselines import fit_method
        from repro.model import validate_model_set

        train, _, _ = pipeline
        for method in ("base", "v1", "v2", "ours"):
            ms = fit_method(method, train, theta_n=30, trace_start_hour=START)
            assert validate_model_set(ms) == [], method

    def test_scaled_5g_models_audit_clean(self, pipeline):
        from repro.baselines import fit_method
        from repro.model import scale_to_nsa, scale_to_sa, validate_model_set

        train, _, _ = pipeline
        ms = fit_method("ours", train, theta_n=30, trace_start_hour=START)
        assert validate_model_set(scale_to_nsa(ms)) == []
        assert validate_model_set(scale_to_sa(ms)) == []
