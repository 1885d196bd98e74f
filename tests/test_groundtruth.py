"""Tests for the ground-truth simulator (repro.groundtruth)."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracle import groundtruth as oracle_groundtruth
from repro.groundtruth import (
    DEFAULT_PROFILES,
    PAPER_DEVICE_MIX,
    LognormalSpec,
    MixtureSpec,
    resolve_device_counts,
    sample_archetype,
    simulate_ground_truth,
    simulate_ue,
)
from repro.statemachines import classify_category2_events, replay_trace
from repro.telemetry import RunTelemetry, use_telemetry
from repro.trace import (
    DeviceType,
    EventType,
    breakdown_table,
    peak_to_trough_ratio,
)

E = EventType


class TestProfiles:
    def test_all_devices_covered(self):
        assert set(DEFAULT_PROFILES) == set(DeviceType)

    def test_diurnal_curves_are_24h(self):
        for profile in DEFAULT_PROFILES.values():
            assert len(profile.diurnal) == 24
            assert all(v > 0 for v in profile.diurnal)

    def test_paper_device_mix_sums_to_one(self):
        assert sum(PAPER_DEVICE_MIX.values()) == pytest.approx(1.0)

    def test_mixture_weights_validated(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MixtureSpec(
                weights=(0.5, 0.2),
                components=(
                    LognormalSpec(1.0, 1.0),
                    LognormalSpec(2.0, 1.0),
                ),
            )

    def test_mixture_length_mismatch(self):
        with pytest.raises(ValueError, match="align"):
            MixtureSpec(weights=(1.0,), components=())

    def test_cars_have_commute_shape(self):
        """Cars: morning and evening peaks, deep night trough (Fig. 2)."""
        curve = DEFAULT_PROFILES[DeviceType.CONNECTED_CAR].diurnal
        night = min(curve[0:5])
        morning = max(curve[6:10])
        assert morning / night > 50

    def test_phones_peak_in_evening(self):
        curve = DEFAULT_PROFILES[DeviceType.PHONE].diurnal
        assert max(curve) == max(curve[18:22])

    def test_cars_most_mobile(self):
        mobility = {
            dt: DEFAULT_PROFILES[dt].mobility_mean for dt in DeviceType
        }
        assert mobility[DeviceType.CONNECTED_CAR] > mobility[DeviceType.PHONE]
        assert mobility[DeviceType.PHONE] > mobility[DeviceType.TABLET]


class TestArchetype:
    def test_sampling_ranges(self, rng):
        profile = DEFAULT_PROFILES[DeviceType.PHONE]
        for _ in range(50):
            arch = sample_archetype(profile, rng)
            assert arch.activity > 0
            assert 0.0 <= arch.mobility <= 1.0
            assert arch.tau_period > 0
            assert arch.power_period > 0

    def test_activity_is_skewed(self, rng):
        profile = DEFAULT_PROFILES[DeviceType.PHONE]
        activities = [sample_archetype(profile, rng).activity for _ in range(2000)]
        arr = np.asarray(activities)
        # Lognormal: mean substantially exceeds median.
        assert arr.mean() > 1.3 * np.median(arr)


class TestResolveCounts:
    def test_total_split_by_paper_mix(self):
        counts = resolve_device_counts(1000)
        assert sum(counts.values()) == 1000
        assert counts[DeviceType.PHONE] > counts[DeviceType.CONNECTED_CAR]
        assert counts[DeviceType.CONNECTED_CAR] > counts[DeviceType.TABLET]

    def test_mapping_passthrough(self):
        counts = resolve_device_counts({DeviceType.TABLET: 7})
        assert counts == {DeviceType.TABLET: 7}

    def test_negative_total_rejected(self):
        with pytest.raises(ValueError, match="num_ues"):
            resolve_device_counts(-10)

    def test_negative_device_count_rejected(self):
        with pytest.raises(ValueError, match="num_ues"):
            resolve_device_counts({DeviceType.PHONE: 3, DeviceType.TABLET: -1})

    @pytest.mark.parametrize("total", [10.7, float("nan"), float("inf"), "ten"])
    def test_non_integral_total_rejected(self, total):
        with pytest.raises(ValueError, match="num_ues must be a whole number"):
            resolve_device_counts(total)

    @pytest.mark.parametrize("count", [2.5, float("nan")])
    def test_non_integral_device_count_rejected(self, count):
        with pytest.raises(ValueError, match=r"num_ues\[TABLET\]"):
            resolve_device_counts({DeviceType.PHONE: 3, DeviceType.TABLET: count})

    def test_integral_values_accepted(self):
        assert resolve_device_counts(np.int64(40)) == resolve_device_counts(40.0)
        assert resolve_device_counts({DeviceType.CONNECTED_CAR: 4.0}) == {
            DeviceType.CONNECTED_CAR: 4
        }


class TestSimulateUe:
    def test_trace_is_single_ue(self, rng):
        tr = simulate_ue(
            5, DEFAULT_PROFILES[DeviceType.PHONE], 3600.0, rng=rng
        )
        assert set(tr.ue_ids.tolist()) <= {5}

    def test_times_within_duration(self, rng):
        tr = simulate_ue(
            0, DEFAULT_PROFILES[DeviceType.PHONE], 1800.0, rng=rng
        )
        if len(tr):
            assert tr.times.max() < 1800.0

    def test_sequence_is_machine_valid(self, rng):
        from repro.statemachines import replay_trace

        tr = simulate_ue(
            0, DEFAULT_PROFILES[DeviceType.CONNECTED_CAR], 6 * 3600.0, rng=rng
        )
        assert replay_trace(tr).violations == 0


class TestSimulateGroundTruth:
    @pytest.mark.parametrize("duration", [float("inf"), float("nan"), -1.0, 0.0])
    def test_bad_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="duration"):
            simulate_ground_truth(1, duration)

    def test_negative_population_rejected(self):
        with pytest.raises(ValueError, match="num_ues"):
            simulate_ground_truth(-5, 3600.0)

    @pytest.mark.parametrize("start_hour", [float("nan"), float("inf"), -math.inf])
    def test_non_finite_start_hour_rejected(self, start_hour):
        with pytest.raises(ValueError, match="start_hour"):
            simulate_ground_truth(3, 3600.0, start_hour=start_hour)

    def test_non_integral_population_rejected(self):
        with pytest.raises(ValueError, match="num_ues"):
            simulate_ground_truth(10.7, 3600.0)

    def test_non_integral_device_count_rejected(self):
        with pytest.raises(ValueError, match=r"num_ues\[PHONE\]"):
            simulate_ground_truth({DeviceType.PHONE: 2.5}, 3600.0)

    def test_profile_missing_for_requested_device_rejected(self):
        profiles = {DeviceType.PHONE: DEFAULT_PROFILES[DeviceType.PHONE]}
        with pytest.raises(ValueError, match=r"profiles.*TABLET"):
            simulate_ground_truth(
                {DeviceType.PHONE: 2, DeviceType.TABLET: 1},
                3600.0,
                profiles=profiles,
            )
        # Device types without UEs need no profile.
        trace = simulate_ground_truth(
            {DeviceType.PHONE: 2, DeviceType.TABLET: 0}, 3600.0, profiles=profiles
        )
        assert set(trace.device_types.tolist()) <= {int(DeviceType.PHONE)}

    def test_negative_processes_rejected(self):
        with pytest.raises(ValueError, match="processes"):
            simulate_ground_truth(3, 3600.0, processes=-1)

    @pytest.mark.parametrize("processes", [1, 2])
    def test_telemetry_counts(self, processes):
        tele = RunTelemetry()
        counts = {DeviceType.PHONE: 9, DeviceType.CONNECTED_CAR: 4, DeviceType.TABLET: 3}
        with use_telemetry(tele):
            trace = simulate_ground_truth(
                counts, 2 * 3600.0, start_hour=7, seed=2, processes=processes
            )
        assert tele.counters["events_emitted"] == len(trace) > 0
        assert tele.counters["ue_hours"] == 16 * 2
        assert tele.spans["simulate"]["count"] == 1

    def test_pooled_equals_serial(self):
        counts = {DeviceType.PHONE: 11, DeviceType.CONNECTED_CAR: 6, DeviceType.TABLET: 5}
        serial = simulate_ground_truth(counts, 5400.0, start_hour=20, seed=8)
        for processes in (2, 3):
            pooled = simulate_ground_truth(
                counts, 5400.0, start_hour=20, seed=8, processes=processes
            )
            assert pooled == serial

    def test_reproducible(self):
        a = simulate_ground_truth(20, 3600.0, seed=3)
        b = simulate_ground_truth(20, 3600.0, seed=3)
        assert a == b

    def test_seed_changes_output(self):
        a = simulate_ground_truth(20, 3600.0, seed=3)
        b = simulate_ground_truth(20, 3600.0, seed=4)
        assert a != b

    def test_device_counts_respected(self, ground_truth_trace):
        # UEs that never emit an event (e.g. powered off throughout)
        # are invisible in the trace, so counts are upper bounds.
        mix = ground_truth_trace.device_mix()
        assert 0.9 * 90 <= mix[DeviceType.PHONE] <= 90
        assert 0.9 * 35 <= mix[DeviceType.CONNECTED_CAR] <= 35
        assert 0.9 * 25 <= mix[DeviceType.TABLET] <= 25

    def test_machine_validity(self, ground_truth_trace):
        assert replay_trace(ground_truth_trace).violations == 0

    def test_no_ho_in_idle(self, ground_truth_trace):
        counts = classify_category2_events(ground_truth_trace)
        assert counts[(E.HO, "IDLE")] == 0

    def test_tau_appears_in_both_states(self, ground_truth_trace):
        counts = classify_category2_events(ground_truth_trace)
        assert counts[(E.TAU, "CONNECTED")] > 0
        assert counts[(E.TAU, "IDLE")] > 0

    def test_breakdown_resembles_table1(self):
        """7-day-style check on a longer trace (device-type ordering)."""
        tr = simulate_ground_truth(
            {
                DeviceType.PHONE: 40,
                DeviceType.CONNECTED_CAR: 20,
                DeviceType.TABLET: 15,
            },
            duration=86400.0,
            seed=17,
        )
        table = breakdown_table(tr)
        # SRV_REQ/S1_CONN_REL dominate every device type.
        for dt in DeviceType:
            assert table[dt][E.SRV_REQ] + table[dt][E.S1_CONN_REL] > 0.70
        # Cars out-HO and out-TAU phones; phones out-HO tablets.
        assert table[DeviceType.CONNECTED_CAR][E.TAU] > table[DeviceType.PHONE][E.TAU]
        assert table[DeviceType.CONNECTED_CAR][E.HO] > table[DeviceType.TABLET][E.HO]

    def test_diurnal_swing_present(self):
        tr = simulate_ground_truth(
            {DeviceType.PHONE: 50}, duration=86400.0, seed=21
        )
        ratio = peak_to_trough_ratio(tr, DeviceType.PHONE, E.SRV_REQ)
        assert ratio > 2.0

    def test_start_hour_shifts_diurnal_phase(self):
        # Starting at the night trough yields a quiet first hour
        # relative to starting at the evening peak.
        night = simulate_ground_truth({DeviceType.PHONE: 60}, 3600.0, seed=5, start_hour=3)
        evening = simulate_ground_truth({DeviceType.PHONE: 60}, 3600.0, seed=5, start_hour=19)
        assert len(evening) > 1.5 * len(night)

    def test_heavy_cross_ue_skew(self, ground_truth_trace):
        counts = np.asarray(
            sorted(ground_truth_trace.events_per_ue().values()), dtype=float
        )
        # Top decile of UEs carries a disproportionate share of events.
        top = counts[int(0.9 * len(counts)):].sum()
        assert top / counts.sum() > 0.2


ORACLE_SETTINGS = settings(
    max_examples=25, suppress_health_check=[HealthCheck.too_slow], deadline=None
)


class TestOracleEquality:
    """The production simulator equals the scalar ``Generator``-method
    oracle (``tests/oracle/groundtruth.py``) row for row: the exact-draw
    identities it relies on still hold for this NumPy."""

    @ORACLE_SETTINGS
    @given(
        counts=st.fixed_dictionaries(
            {dt: st.integers(min_value=0, max_value=6) for dt in DeviceType}
        ),
        hours=st.floats(min_value=0.05, max_value=6.0),
        start_hour=st.floats(min_value=0.0, max_value=23.99),
        seed=st.integers(min_value=0, max_value=2**63),
        processes=st.sampled_from([1, 2]),
    )
    def test_ground_truth_matches_oracle(
        self, counts, hours, start_hour, seed, processes
    ):
        duration = hours * 3600.0
        expected = oracle_groundtruth.simulate_ground_truth(
            counts, duration, start_hour=start_hour, seed=seed
        )
        actual = simulate_ground_truth(
            counts, duration, start_hour=start_hour, seed=seed, processes=processes
        )
        assert actual == expected

    @pytest.mark.parametrize("processes", [1, 2])
    def test_total_population_matches_oracle(self, processes):
        expected = oracle_groundtruth.simulate_ground_truth(
            23, 3 * 3600.0, start_hour=16.5, seed=12
        )
        actual = simulate_ground_truth(
            23, 3 * 3600.0, start_hour=16.5, seed=12, processes=processes
        )
        assert len(actual) > 0
        assert actual == expected

    @ORACLE_SETTINGS
    @given(
        device=st.sampled_from(list(DeviceType)),
        ue_id=st.integers(min_value=0, max_value=10**6),
        hours=st.floats(min_value=0.05, max_value=24.0),
        start_hour=st.floats(min_value=0.0, max_value=23.99),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_simulate_ue_matches_oracle(self, device, ue_id, hours, start_hour, seed):
        profile = DEFAULT_PROFILES[device]
        expected = oracle_groundtruth.simulate_ue(
            ue_id,
            profile,
            hours * 3600.0,
            start_hour=start_hour,
            rng=np.random.default_rng(seed),
        )
        actual = simulate_ue(
            ue_id,
            profile,
            hours * 3600.0,
            start_hour=start_hour,
            rng=np.random.default_rng(seed),
        )
        assert actual == expected
