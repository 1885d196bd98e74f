"""Tests for the probability models (repro.distributions)."""

import math

import numpy as np
import pytest

from repro.distributions import (
    CLASSIC_FAMILIES,
    EmpiricalCDF,
    Exponential,
    FitError,
    Pareto,
    Tcplib,
    Weibull,
    fit_family,
)

ALL_CLASSES = [Exponential, Pareto, Weibull, Tcplib]


@pytest.fixture()
def rng():
    return np.random.default_rng(99)


class TestCommonProtocol:
    """Every family honours the shared Distribution contract."""

    @pytest.mark.parametrize("cls", ALL_CLASSES)
    def test_fit_then_sample_positive(self, cls, rng):
        data = rng.lognormal(1.0, 1.0, 200)
        dist = cls.fit(data)
        samples = dist.sample(rng, 100)
        assert np.all(samples >= 0)

    @pytest.mark.parametrize("cls", ALL_CLASSES)
    def test_cdf_monotone(self, cls, rng):
        dist = cls.fit(rng.lognormal(0.0, 1.0, 200))
        xs = np.linspace(0.0, 50.0, 200)
        cdf = dist.cdf(xs)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert np.all((cdf >= 0) & (cdf <= 1))

    @pytest.mark.parametrize("cls", ALL_CLASSES)
    def test_ppf_cdf_consistency(self, cls, rng):
        dist = cls.fit(rng.lognormal(0.0, 1.0, 500))
        qs = np.array([0.1, 0.25, 0.5, 0.75, 0.9])
        xs = dist.ppf(qs)
        back = dist.cdf(xs)
        assert np.all(np.abs(back - qs) < 0.02)

    @pytest.mark.parametrize("cls", ALL_CLASSES)
    def test_ppf_rejects_out_of_range(self, cls, rng):
        dist = cls.fit(rng.lognormal(0.0, 1.0, 50))
        with pytest.raises(ValueError):
            dist.ppf([1.5])

    @pytest.mark.parametrize("cls", ALL_CLASSES)
    def test_scalar_sample(self, cls, rng):
        dist = cls.fit(rng.lognormal(0.0, 1.0, 50))
        value = dist.sample(rng)
        assert isinstance(value, float)

    @pytest.mark.parametrize("cls", ALL_CLASSES)
    def test_fit_rejects_negative_samples(self, cls):
        with pytest.raises(FitError):
            cls.fit([-1.0, 2.0, 3.0])

    @pytest.mark.parametrize("cls", ALL_CLASSES)
    def test_fit_rejects_nan(self, cls):
        with pytest.raises(FitError):
            cls.fit([1.0, float("nan")])


class TestExponential:
    def test_mle_rate_is_inverse_mean(self):
        dist = Exponential.fit([1.0, 2.0, 3.0])
        assert dist.rate == pytest.approx(0.5)

    def test_parameter_recovery(self, rng):
        data = rng.exponential(scale=4.0, size=20_000)
        dist = Exponential.fit(data)
        assert dist.mean() == pytest.approx(4.0, rel=0.05)

    def test_cdf_formula(self):
        dist = Exponential(rate=1.0)
        assert dist.cdf(1.0) == pytest.approx(1.0 - math.exp(-1.0))

    def test_cdf_zero_below_support(self):
        assert Exponential(rate=1.0).cdf(-5.0) == 0.0

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Exponential(rate=0.0)


class TestPareto:
    def test_mle_scale_is_min(self):
        dist = Pareto.fit([2.0, 4.0, 8.0])
        assert dist.x_m == pytest.approx(2.0)

    def test_parameter_recovery(self, rng):
        true = Pareto(alpha=2.5, x_m=1.0)
        data = true.sample(rng, 20_000)
        fit = Pareto.fit(data)
        assert fit.alpha == pytest.approx(2.5, rel=0.05)

    def test_infinite_mean_when_alpha_below_one(self):
        assert Pareto(alpha=0.8, x_m=1.0).mean() == math.inf

    def test_finite_mean(self):
        assert Pareto(alpha=3.0, x_m=1.0).mean() == pytest.approx(1.5)

    def test_constant_samples_rejected(self):
        with pytest.raises(FitError, match="constant"):
            Pareto.fit([2.0, 2.0, 2.0])

    def test_cdf_zero_below_xm(self):
        assert Pareto(alpha=2.0, x_m=1.0).cdf(0.5) == 0.0


class TestWeibull:
    def test_parameter_recovery(self, rng):
        true = Weibull(k=1.7, lam=3.0)
        data = true.sample(rng, 20_000)
        fit = Weibull.fit(data)
        assert fit.k == pytest.approx(1.7, rel=0.05)
        assert fit.lam == pytest.approx(3.0, rel=0.05)

    def test_exponential_special_case(self, rng):
        data = rng.exponential(2.0, 20_000)
        fit = Weibull.fit(data)
        assert fit.k == pytest.approx(1.0, rel=0.05)

    def test_mean_gamma_formula(self):
        dist = Weibull(k=2.0, lam=1.0)
        assert dist.mean() == pytest.approx(math.gamma(1.5))

    def test_constant_samples_rejected(self):
        with pytest.raises(FitError, match="constant"):
            Weibull.fit([5.0] * 10)


class TestTcplib:
    def test_scale_fit_matches_median(self, rng):
        data = rng.lognormal(3.0, 1.0, 5_000)
        dist = Tcplib.fit(data)
        assert dist.scale == pytest.approx(float(np.median(data)))

    def test_fixed_shape_heavy_tail(self):
        dist = Tcplib(scale=1.0)
        # P99/P50 ratio of the reference shape is large (long tail).
        p99 = dist.ppf(np.array([0.99]))[0]
        p50 = dist.ppf(np.array([0.5]))[0]
        assert p99 / p50 > 100

    def test_mean_positive_finite(self):
        mean = Tcplib(scale=2.0).mean()
        assert 0 < mean < math.inf

    def test_scaling_linearity(self):
        a = Tcplib(scale=1.0).ppf(np.array([0.5, 0.9]))
        b = Tcplib(scale=10.0).ppf(np.array([0.5, 0.9]))
        assert np.allclose(b, 10.0 * a)


class TestEmpiricalCDF:
    def test_ppf_covers_observed_range(self, rng):
        data = rng.lognormal(0.0, 2.0, 1_000)
        dist = EmpiricalCDF.fit(data)
        lo, hi = dist.support
        assert lo == pytest.approx(data.min())
        assert hi == pytest.approx(data.max())

    def test_samples_within_support(self, rng):
        data = rng.lognormal(0.0, 1.5, 500)
        dist = EmpiricalCDF.fit(data)
        samples = dist.sample(rng, 10_000)
        lo, hi = dist.support
        assert samples.min() >= lo - 1e-9
        assert samples.max() <= hi + 1e-9

    def test_reproduces_distribution_shape(self, rng):
        from repro.stats import max_y_distance

        data = rng.lognormal(0.0, 2.0, 2_000)
        dist = EmpiricalCDF.fit(data)
        resampled = dist.sample(rng, 20_000)
        assert max_y_distance(data, resampled) < 0.03

    def test_compression_preserves_quantiles(self, rng):
        data = rng.lognormal(0.0, 1.0, 10_000)
        full = EmpiricalCDF.fit(data)
        small = EmpiricalCDF.fit(data, max_points=64)
        assert len(small) == 64
        for q in (0.1, 0.5, 0.9):
            assert small.ppf(np.array([q]))[0] == pytest.approx(
                full.ppf(np.array([q]))[0], rel=0.1
            )

    def test_single_sample(self):
        dist = EmpiricalCDF([5.0])
        assert dist.mean() == 5.0
        assert dist.ppf(np.array([0.3]))[0] == 5.0

    def test_serialization_roundtrip(self, rng):
        data = rng.lognormal(0.0, 1.0, 100)
        dist = EmpiricalCDF.fit(data)
        back = EmpiricalCDF.from_list(dist.to_list())
        assert np.allclose(back.quantiles, dist.quantiles)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EmpiricalCDF([])

    def test_cdf_step_function(self):
        dist = EmpiricalCDF([1.0, 2.0, 3.0, 4.0])
        assert dist.cdf(np.array([2.0]))[0] == pytest.approx(0.5)
        assert dist.cdf(np.array([0.5]))[0] == 0.0
        assert dist.cdf(np.array([4.0]))[0] == 1.0


class TestRegistry:
    def test_classic_families_complete(self):
        assert set(CLASSIC_FAMILIES) == {"poisson", "pareto", "weibull", "tcplib"}

    def test_fit_family_by_name(self, rng):
        data = rng.exponential(1.0, 100)
        for name in CLASSIC_FAMILIES:
            dist = fit_family(name, data)
            assert dist.family == name

    def test_fit_family_empirical(self, rng):
        dist = fit_family("empirical", rng.exponential(1.0, 50))
        assert isinstance(dist, EmpiricalCDF)

    def test_fit_family_unknown(self):
        with pytest.raises(ValueError, match="unknown family"):
            fit_family("gaussian", [1.0, 2.0])
