"""Tests for the statistical machinery (repro.stats)."""

import math

import numpy as np
import pytest

from repro.distributions import Exponential, Pareto, Tcplib, Weibull
from repro.stats import (
    anderson_exponential,
    burstiness_gap,
    ecdf,
    evaluate_ecdf,
    fit_and_ks_test,
    kolmogorov_sf,
    ks_distance_to,
    ks_test,
    max_y_distance,
    poisson_reference_curve,
    variance_time_curve,
)


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


class TestEcdf:
    def test_ecdf_shape(self):
        xs, ps = ecdf([3.0, 1.0, 2.0])
        assert list(xs) == [1.0, 2.0, 3.0]
        assert list(ps) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_ecdf_empty_rejected(self):
        with pytest.raises(ValueError):
            ecdf([])

    def test_evaluate_ecdf(self):
        values = evaluate_ecdf([1.0, 2.0, 3.0], [0.5, 2.0, 10.0])
        assert list(values) == pytest.approx([0.0, 2 / 3, 1.0])

    def test_evaluate_ecdf_empty_rejected(self):
        # Regression: this used to divide by zero and return NaNs.
        with pytest.raises(ValueError, match="zero samples"):
            evaluate_ecdf([], [1.0, 2.0])

    def test_max_y_distance_identical(self):
        assert max_y_distance([1, 2, 3], [1, 2, 3]) == 0.0

    def test_max_y_distance_disjoint(self):
        assert max_y_distance([1, 2], [10, 20]) == 1.0

    def test_max_y_distance_symmetry(self, rng):
        a = rng.exponential(1.0, 100)
        b = rng.exponential(2.0, 150)
        assert max_y_distance(a, b) == pytest.approx(max_y_distance(b, a))

    def test_max_y_distance_known_value(self):
        # F_a jumps to 1 at 1; F_b is 0 until 2 -> distance 1 at x=1...
        # with partial overlap: a={1,3}, b={2,4}: at x=1, Fa=0.5, Fb=0.
        d = max_y_distance([1.0, 3.0], [2.0, 4.0])
        assert d == pytest.approx(0.5)

    def test_ks_distance_to_uniformity(self, rng):
        data = rng.exponential(2.0, 2_000)
        d = ks_distance_to(Exponential(rate=0.5), data)
        assert d < 0.05

    def test_ks_distance_to_wrong_model(self, rng):
        data = rng.exponential(2.0, 2_000)
        d = ks_distance_to(Exponential(rate=5.0), data)
        assert d > 0.3


class TestKolmogorovSf:
    def test_at_zero(self):
        assert kolmogorov_sf(0.0) == 1.0

    def test_monotone_decreasing(self):
        xs = [0.2, 0.5, 1.0, 1.5, 2.0]
        values = [kolmogorov_sf(x) for x in xs]
        assert values == sorted(values, reverse=True)

    def test_known_critical_value(self):
        # Q(1.36) ~= 0.05 (the classic 5% critical value).
        assert kolmogorov_sf(1.36) == pytest.approx(0.05, abs=0.003)


class TestKsTest:
    def test_retains_true_null(self, rng):
        data = rng.exponential(1.0, 500)
        result = ks_test(Exponential.fit(data), data)
        assert result.passes()
        assert result.n == 500

    def test_rejects_wrong_family(self, rng):
        data = rng.lognormal(0.0, 2.0, 500)
        assert not ks_test(Exponential.fit(data), data).passes()

    def test_fit_and_ks_test(self, rng):
        data = rng.lognormal(0.0, 2.0, 500)
        for cls in (Exponential, Pareto, Weibull, Tcplib):
            assert not fit_and_ks_test(cls, data).passes(), cls.family

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            ks_test(Exponential(rate=1.0), [])

    def test_p_value_range(self, rng):
        result = ks_test(Exponential(rate=1.0), rng.exponential(1.0, 100))
        assert 0.0 <= result.p_value <= 1.0


class TestAndersonDarling:
    def test_retains_exponential(self, rng):
        data = rng.exponential(3.0, 500)
        assert anderson_exponential(data).passes()

    def test_rejects_lognormal(self, rng):
        data = rng.lognormal(0.0, 1.5, 500)
        assert not anderson_exponential(data).passes()

    def test_rejects_heavier_tail_than_ks_would(self, rng):
        """A² gives more weight to tails (§4.1.2)."""
        # Mild contamination in the upper tail.
        data = np.concatenate(
            [rng.exponential(1.0, 950), rng.exponential(12.0, 50)]
        )
        assert not anderson_exponential(data).passes()

    def test_critical_values_monotone(self, rng):
        result = anderson_exponential(rng.exponential(1.0, 100))
        assert list(result.critical_values) == sorted(result.critical_values)

    def test_unknown_significance_rejected(self, rng):
        result = anderson_exponential(rng.exponential(1.0, 100))
        with pytest.raises(ValueError, match="not tabulated"):
            result.passes(0.07)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            anderson_exponential([1.0])

    def test_matches_scipy(self, rng):
        scipy_stats = pytest.importorskip("scipy.stats")
        data = rng.exponential(2.0, 300)
        ours = anderson_exponential(data)
        try:
            # SciPy >= 1.17: method= must be given to silence the
            # critical-value migration FutureWarning.
            theirs = scipy_stats.anderson(data, dist="expon", method="interpolate")
        except TypeError:  # SciPy < 1.17 has no method= parameter
            theirs = scipy_stats.anderson(data, dist="expon")
        # scipy reports the uncorrected statistic; compare loosely.
        assert ours.statistic == pytest.approx(
            theirs.statistic * (1 + 0.6 / len(data)), rel=1e-6
        )


class TestVarianceTime:
    def test_poisson_decays_like_one_over_m(self, rng):
        times = np.sort(rng.uniform(0, 20_000, 60_000))
        curve = variance_time_curve(times, duration=20_000.0)
        # Slope of log-var vs log-M should be ~ -1 for Poisson.
        logs = np.log10(curve.normalized_variance)
        log_m = np.log10(curve.scales)
        slope = np.polyfit(log_m, logs, 1)[0]
        assert slope == pytest.approx(-1.0, abs=0.2)

    def test_bursty_traffic_sits_above_poisson(self, rng):
        # On/off bursts: strongly correlated arrivals.
        bursts = []
        t = 0.0
        while t < 20_000:
            n = rng.integers(50, 150)
            bursts.append(t + np.sort(rng.uniform(0, 10.0, n)))
            t += rng.exponential(400.0)
        times = np.concatenate(bursts)
        observed = variance_time_curve(times, duration=20_000.0)
        rate = len(times) / 20_000.0
        reference = poisson_reference_curve(rate, 20_000.0, rng)
        gap = burstiness_gap(observed, reference)
        # At large scales the burst process is far burstier.
        assert gap[-3:].mean() > 0.5

    def test_requires_events(self):
        with pytest.raises(ValueError):
            variance_time_curve([])

    def test_scales_with_too_few_windows_dropped(self, rng):
        times = rng.uniform(0, 100.0, 1000)
        curve = variance_time_curve(times, duration=100.0, scales=[1.0, 1000.0])
        assert 1000.0 not in curve.scales

    def test_reference_requires_positive_rate(self, rng):
        with pytest.raises(ValueError):
            poisson_reference_curve(0.0, 100.0, rng)

    def test_burstiness_gap_requires_common_scales(self, rng):
        a = variance_time_curve(rng.uniform(0, 1000, 500), scales=[1.0, 10.0])
        b = variance_time_curve(rng.uniform(0, 1000, 500), scales=[5.0])
        with pytest.raises(ValueError, match="common"):
            burstiness_gap(a, b)

    def test_log10_output(self, rng):
        curve = variance_time_curve(rng.uniform(0, 1000, 2000))
        assert np.all(np.isfinite(curve.log10()))
