"""Tests for the ground-truth simulator (repro.groundtruth)."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from oracle import groundtruth as oracle_groundtruth
from repro.groundtruth import (
    DEFAULT_PROFILES,
    PAPER_DEVICE_MIX,
    LognormalSpec,
    MixtureSpec,
    resolve_device_counts,
    simulate_ground_truth,
    simulator,
)
from repro.stats.counter_rng import (
    P_GT_PHASE,
    root_key,
    slot_base,
    slot_words,
    splitmix64_counter,
)
from repro.statemachines import classify_category2_events, replay_trace
from repro.telemetry import RunTelemetry, use_telemetry
from repro.trace import (
    DeviceType,
    EventType,
    Trace,
    breakdown_table,
    peak_to_trough_ratio,
)
from repro.validation import summarize

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


def engine_archetypes(device, n=2000, seed=0):
    """The lockstep engine's per-UE archetype columns for ``n`` UEs."""
    return simulator._Range(
        DEFAULT_PROFILES,
        np.arange(n, dtype=np.int64),
        np.full(n, int(device), dtype=np.int8),
        3600.0,
        0.0,
        root_key(seed),
    )


class TestArchetype:
    def test_sampling_ranges(self):
        for device in DeviceType:
            arch = engine_archetypes(device)
            assert (arch.act > 0).all()
            assert ((arch.mob >= 0.0) & (arch.mob <= 1.0)).all()
            assert (arch.tp > 0).all()
            assert (arch.pp > 0).all()

    def test_activity_is_skewed(self):
        arr = engine_archetypes(DeviceType.PHONE).act
        # Lognormal: mean substantially exceeds median.
        assert arr.mean() > 1.3 * np.median(arr)

    @pytest.mark.parametrize("device", list(DeviceType), ids=lambda d: d.name)
    def test_archetypes_match_oracle(self, device):
        """Each archetype column follows the oracle's ``sample_archetype``
        draws (KS, 2,000 UEs a side): lognormal activity and periods, the
        Beta mobility from Marsaglia-Tsang gammas, the normal jitter."""
        arch = engine_archetypes(device, seed=3)
        rng = np.random.default_rng(3)
        profile = DEFAULT_PROFILES[device]
        ref = [oracle_groundtruth.sample_archetype(profile, rng) for _ in range(2000)]
        for column, field in (
            ("act", "activity"),
            ("mob", "mobility"),
            ("tp", "tau_period"),
            ("pp", "power_period"),
            ("jit", "phase_jitter"),
        ):
            other = [getattr(a, field) for a in ref]
            assert stats.ks_2samp(getattr(arch, column), other).pvalue > 1e-3, field


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
    """One-UE populations."""

    def test_trace_is_single_ue(self):
        tr = simulate_ground_truth({DeviceType.PHONE: 1}, 3600.0, seed=5)
        assert set(tr.ue_ids.tolist()) <= {0}

    def test_times_within_duration(self):
        for seed in range(5):
            tr = simulate_ground_truth({DeviceType.PHONE: 1}, 1800.0, seed=seed)
            if len(tr):
                assert tr.times.max() < 1800.0

    def test_sequence_is_machine_valid(self):
        tr = simulate_ground_truth(
            {DeviceType.CONNECTED_CAR: 1}, 6 * 3600.0, seed=0
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

    @pytest.mark.parametrize(
        "seed,error", [(-1, ValueError), (1.5, TypeError)], ids=["minus-1", "1.5"]
    )
    def test_bad_seed_rejected(self, seed, error):
        with pytest.raises(error, match="seed"):
            simulate_ground_truth(3, 3600.0, seed=seed)

    def test_seed_beyond_64_bits_accepted(self):
        """``SeedSequence`` keys on the whole integer: no wrap mod 2^64."""
        big = simulate_ground_truth(8, 3600.0, seed=2**64 + 3)
        assert len(big) > 0
        assert big != simulate_ground_truth(8, 3600.0, seed=3)

    @pytest.mark.parametrize("key", ["PHONE", 7])
    def test_unknown_device_key_rejected(self, key):
        with pytest.raises(ValueError, match="num_ues"):
            simulate_ground_truth({key: 3}, 3600.0)

    @pytest.mark.parametrize("num_ues", [0, {DeviceType.PHONE: 0}], ids=["0", "phone-0"])
    def test_empty_population(self, num_ues):
        assert len(simulate_ground_truth(num_ues, 3600.0)) == 0

    def test_telemetry_counts(self):
        tele = RunTelemetry()
        counts = {DeviceType.PHONE: 9, DeviceType.CONNECTED_CAR: 4, DeviceType.TABLET: 3}
        with use_telemetry(tele):
            trace = simulate_ground_truth(counts, 2 * 3600.0, start_hour=7, seed=2)
        assert tele.counters["events_emitted"] == len(trace) > 0
        assert tele.counters["ue_hours"] == 16 * 2
        assert tele.counters["simulate_rounds"] > 0
        assert tele.spans["simulate"]["count"] == 1

    def test_ue_ranges_are_independent(self):
        """UE ``i``'s events depend on the seed and ``i`` alone: the
        engine run on two UE ranges, split inside the car cohort, gives
        the whole population's trace."""
        counts = {DeviceType.PHONE: 11, DeviceType.CONNECTED_CAR: 6, DeviceType.TABLET: 5}
        dev = np.repeat([int(dt) for dt in counts], list(counts.values()))
        profiles = {dt: DEFAULT_PROFILES[dt] for dt in counts}
        parts = [
            simulator._Range(
                profiles, np.arange(lo, hi), dev[lo:hi], 5400.0, 20.0, root_key(8)
            ).columns()
            for lo, hi in ((0, 14), (14, dev.size))
        ]
        joined = Trace(*(np.concatenate(column) for column in zip(*parts)))
        assert joined == simulate_ground_truth(counts, 5400.0, start_hour=20, seed=8)

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


# ---------------------------------------------------------------------------
# The lockstep engine
# ---------------------------------------------------------------------------

SMALL = {DeviceType.PHONE: 24, DeviceType.CONNECTED_CAR: 12, DeviceType.TABLET: 10}


class TestLockstepEngine:
    def test_slot_words_are_counter_words(self):
        """Word ``w`` of a slot is word ``w & 3`` of counter ``w >> 2``."""
        k0, k1 = root_key(7)
        ues = np.arange(5, dtype=np.uint64)
        base = slot_base(ues, P_GT_PHASE, 3, k0, k1)
        for w in range(9):
            words = splitmix64_counter(w >> 2, ues, P_GT_PHASE, 3, k0, k1)
            assert np.array_equal(slot_words(base, w), words[w & 3])

    @settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow], deadline=None)
    @given(
        counts=st.fixed_dictionaries(
            {dt: st.integers(min_value=0, max_value=6) for dt in DeviceType}
        ),
        hours=st.floats(min_value=0.05, max_value=6.0),
        start_hour=st.floats(min_value=0.0, max_value=23.99),
        seed=st.integers(min_value=0, max_value=2**63),
    )
    def test_any_population_is_valid(self, counts, hours, start_hour, seed):
        """Any small population, length, start hour and seed: every row
        inside the duration (up to the millisecond rounding), the right
        device per UE, and no machine violation."""
        duration = hours * 3600.0
        trace = simulate_ground_truth(
            counts, duration, start_hour=start_hour, seed=seed
        )
        if len(trace):
            assert trace.times.min() >= 0.0 and trace.times.max() < duration + 1e-3
        first = 0
        for device in sorted(counts, key=int):
            cohort = (trace.ue_ids >= first) & (trace.ue_ids < first + counts[device])
            assert (trace.device_types[cohort] == int(device)).all()
            first += counts[device]
        assert replay_trace(trace).violations == 0

    @pytest.mark.parametrize(
        "name,value",
        [
            ("_BLOCK", 2),
            ("_GAP_BLOCK", 1),
            ("_RECORD_CHUNK", 997),
            ("_RECORD_CHUNK", 1),
        ],
    )
    def test_block_sizes_change_nothing(self, monkeypatch, name, value):
        """Block and chunk sizes set speed and memory only: odd draw
        blocks and a flush of the records after any number of rounds
        give the same bits."""
        kwargs = dict(start_hour=5.5, seed=9)
        expected = simulate_ground_truth(SMALL, 8 * 3600.0, **kwargs)
        monkeypatch.setattr(simulator, name, value)
        assert simulate_ground_truth(SMALL, 8 * 3600.0, **kwargs) == expected

    def test_rows_reach_trace_in_emission_order(self, monkeypatch):
        """A UE's rows reach ``Trace`` in emission order, so rows that
        share a timestamp keep their machine order.  Ten-second stamps
        make such ties common (a TAU and its release, a release and the
        next service request), and replay still finds no violation."""
        monkeypatch.setattr(simulator, "TIMESTAMP_GRANULARITY", 10.0)
        trace = simulate_ground_truth(SMALL, 6 * 3600.0, start_hour=18, seed=4)
        key = trace.ue_ids * 10**6 + trace.times.astype(np.int64)
        assert np.unique(key).size < len(trace) - 500  # many ties
        assert replay_trace(trace).violations == 0


# ---------------------------------------------------------------------------
# The statistical oracle
# ---------------------------------------------------------------------------

#: Population, length and start of each simulation the checks compare.
ORACLE_POPULATION = {
    DeviceType.PHONE: 60,
    DeviceType.CONNECTED_CAR: 40,
    DeviceType.TABLET: 40,
}
ORACLE_HOURS = 6
ORACLE_START_HOUR = 4.0
#: Seeds per check; each gate reads the median over them.
ORACLE_SEEDS = 3

#: Gate -> bound per device (PHONE, CONNECTED_CAR, TABLET) on the median
#: over seeds: the largest difference of an event type's share
#: ("mix") and of an hour's share of the events ("hourly"), and KS
#: distances of per-UE event counts, complete sojourns, within-UE
#: HO->HO and TAU->TAU gaps, and the delay from a HO to the UE's next TAU.
ORACLE_BOUNDS = {
    "mix": (0.04, 0.09, 0.06),
    "hourly": (0.07, 0.14, 0.13),
    "count_SRV_REQ": (0.35, 0.35, 0.35),
    "count_HO": (0.32, 0.32, 0.32),
    "count_TAU": (0.38, 0.38, 0.38),
    "CONNECTED": (0.06, 0.11, 0.12),
    "IDLE": (0.12, 0.21, 0.19),
    "gap_HO": (0.20, 0.33, 0.75),
    "gap_TAU": (0.25, 0.28, 0.45),
    "ho_to_tau": (0.30, 0.36, 0.85),
}
_KS_GATES = [g for g in ORACLE_BOUNDS if g not in ("mix", "hourly")]


def _oracle_population(simulate, seed):
    return simulate(
        ORACLE_POPULATION,
        ORACLE_HOURS * 3600.0,
        start_hour=ORACLE_START_HOUR,
        seed=seed,
    )


def ground_truth_features(trace):
    """Per device: the samples and shares the gates compare."""
    out = {}
    first = 0
    for device in sorted(ORACLE_POPULATION, key=int):
        n = ORACLE_POPULATION[device]
        cohort = trace.filter_device(device)
        ue = cohort.ue_ids - first
        ev, t = cohort.event_types, cohort.times
        f = {"mix": np.bincount(ev, minlength=len(E)) / max(len(ev), 1)}
        hour = np.minimum((t // 3600).astype(np.int64), ORACLE_HOURS - 1)
        f["hourly"] = np.bincount(hour, minlength=ORACLE_HOURS) / max(len(t), 1)
        by = {}
        for event in (E.SRV_REQ, E.HO, E.TAU):
            sel = ev == int(event)
            f["count_" + event.name] = np.bincount(ue[sel], minlength=n)
            by[event] = (ue[sel], t[sel])  # (time, ue) order
        samples = summarize(cohort, device, num_ues=n).samples
        f["CONNECTED"], f["IDLE"] = samples["CONNECTED"], samples["IDLE"]
        for event in (E.HO, E.TAU):
            u, tt = by[event]
            order = np.lexsort((tt, u))
            u, tt = u[order], tt[order]
            f["gap_" + event.name] = np.diff(tt)[u[1:] == u[:-1]]
        # The delay from each HO to its UE's next TAU.
        tau_key = np.sort(by[E.TAU][0] * 1e6 + by[E.TAU][1])
        ho_key = by[E.HO][0] * 1e6 + by[E.HO][1]
        nxt = np.searchsorted(tau_key, ho_key, side="right")
        ok = nxt < tau_key.size
        delay = tau_key[nxt[ok]] - ho_key[ok]
        f["ho_to_tau"] = delay[delay < ORACLE_HOURS * 3600.0]  # same UE
        out[device] = f
        first += n
    return out


def gate_statistics(a, b):
    """Gate -> device -> the statistic of ``a`` against ``b``."""
    out = {gate: {} for gate in ORACLE_BOUNDS}
    for device in a:
        fa, fb = a[device], b[device]
        for gate in ("mix", "hourly"):
            out[gate][device] = float(np.abs(fa[gate] - fb[gate]).max())
        for gate in _KS_GATES:
            x, y = fa[gate], fb[gate]
            out[gate][device] = (
                float(stats.ks_2samp(x, y).statistic) if x.size and y.size else 0.0
            )
    return out


def failed_gates(pairs):
    """The gates whose median statistic over ``pairs`` (feature pairs,
    one per seed) exceeds its bound, as ``(gate, device, median)``."""
    per_seed = [gate_statistics(a, b) for a, b in pairs]
    failed = []
    for gate, bounds in ORACLE_BOUNDS.items():
        for i, device in enumerate(sorted(ORACLE_POPULATION, key=int)):
            median = float(np.median([s[gate][device] for s in per_seed]))
            if median > bounds[i]:
                failed.append((gate, device.name, round(median, 3)))
    return failed


class TestOracleEquality:
    """The engine against the scalar ``Generator``-method oracle
    (``tests/oracle/groundtruth.py``), which draws different random
    streams, so per device and in distribution.

    Each check simulates :data:`ORACLE_POPULATION` for 6 h from 04:00
    (the morning ramp of the diurnal curves) on :data:`ORACLE_SEEDS`
    seeds with both simulators and gates the median statistic over the
    seeds (:data:`ORACLE_BOUNDS`).  Event counts per UE and pooled gaps
    swing with which UEs draw a heavy activity, so one seed's KS p-value
    says little; the bounds are distances, set from a 60-seed sweep.

    False-failure rate, measured by :meth:`test_false_failure_rate`
    over 20 checks of 3 seeds each (seeds 10-69): the oracle against
    itself failed 0 of 20, the engine against the oracle 0 of 20.

    Mutations of the engine, run on a copy, and the share of those 20
    checks each failed: dropping the TAU-after-HO chain, 19 of 20
    (``ho_to_tau``); dividing idle gaps by the activity alone, without
    the diurnal curve, 20 of 20 (``count_SRV_REQ``, ``hourly``);
    skipping the idle TAU -> S1-release pairs, 20 of 20 (``count_TAU``).
    Mobility fixed at the profile mean fails
    :meth:`TestArchetype.test_archetypes_match_oracle`.
    """

    @pytest.fixture(scope="class")
    def pairs(self):
        return [
            (
                ground_truth_features(_oracle_population(simulate_ground_truth, s)),
                ground_truth_features(
                    _oracle_population(oracle_groundtruth.simulate_ground_truth, s)
                ),
            )
            for s in range(ORACLE_SEEDS)
        ]

    def test_ground_truth_matches_oracle(self, pairs):
        assert failed_gates(pairs) == []

    def test_total_population_matches_oracle(self):
        """A total population splits and numbers its UEs as the oracle
        does, and replays without a violation."""
        expected = oracle_groundtruth.simulate_ground_truth(
            23, 3 * 3600.0, start_hour=16.5, seed=12
        )
        actual = simulate_ground_truth(23, 3 * 3600.0, start_hour=16.5, seed=12)
        assert len(actual) > 0
        devices = dict(zip(expected.ue_ids.tolist(), expected.device_types.tolist()))
        devices.update(zip(actual.ue_ids.tolist(), actual.device_types.tolist()))
        for ue, device in devices.items():
            assert DeviceType(device) == oracle_device(23, ue)
        assert replay_trace(actual).violations == 0

    @pytest.mark.slow
    def test_false_failure_rate(self):
        """20 checks of 3 seeds: the oracle against itself and the
        engine against the oracle each fail at most 1."""
        oo = eo = 0
        for k in range(20):
            oracle_a, oracle_b, engine = [], [], []
            for s in range(10 + ORACLE_SEEDS * k, 10 + ORACLE_SEEDS * (k + 1)):
                oracle_a.append(ground_truth_features(
                    _oracle_population(oracle_groundtruth.simulate_ground_truth, s)
                ))
                oracle_b.append(ground_truth_features(
                    _oracle_population(oracle_groundtruth.simulate_ground_truth, s + 1000)
                ))
                engine.append(ground_truth_features(
                    _oracle_population(simulate_ground_truth, s)
                ))
            oo += bool(failed_gates(list(zip(oracle_a, oracle_b))))
            eo += bool(failed_gates(list(zip(engine, oracle_b))))
        assert oo <= 1 and eo <= 1, (oo, eo)


def oracle_device(total, ue):
    """The device type of UE ``ue`` in a population of ``total``."""
    first = 0
    counts = oracle_groundtruth.resolve_device_counts(total)
    for device in sorted(counts, key=int):
        if ue < first + counts[device]:
            return device
        first += counts[device]
    raise AssertionError(ue)
