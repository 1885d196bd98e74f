"""Tests for the ground-truth simulator (repro.groundtruth)."""

import numpy as np
import pytest

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
