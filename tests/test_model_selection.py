"""Tests for likelihood-based family ranking (repro.analysis.model_selection)."""

import numpy as np
import pytest

from repro.analysis import FamilyScore, rank_families, score_family


@pytest.fixture()
def rng():
    return np.random.default_rng(23)


class TestScoreFamily:
    def test_exponential_on_exponential(self, rng):
        data = rng.exponential(2.0, 2000)
        score = score_family("poisson", data)
        assert score.n == 2000
        # AIC/BIC relate to the log-likelihood correctly.
        assert score.aic == pytest.approx(2 - 2 * score.log_likelihood)
        assert score.bic == pytest.approx(
            np.log(2000) - 2 * score.log_likelihood
        )

    def test_unknown_family(self, rng):
        with pytest.raises(ValueError, match="unknown family"):
            score_family("cauchy", rng.exponential(1.0, 10))

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            score_family("poisson", [1.0])

    def test_likelihood_is_finite(self, rng):
        data = rng.lognormal(0, 1.5, 500)
        for family in ("poisson", "pareto", "weibull", "lognormal"):
            assert np.isfinite(score_family(family, data).log_likelihood)


class TestRankFamilies:
    def test_true_family_wins(self, rng):
        cases = {
            "poisson": rng.exponential(3.0, 3000),
            "lognormal": rng.lognormal(1.0, 1.2, 3000),
            "weibull": rng.weibull(1.6, 3000) * 2.0,
        }
        for family, data in cases.items():
            best = rank_families(data)[0]
            assert best.family == family, f"{family} data won by {best.family}"

    def test_ranking_is_sorted(self, rng):
        scores = rank_families(rng.lognormal(0, 2, 1000))
        aics = [s.aic for s in scores]
        assert aics == sorted(aics)

    def test_bic_criterion(self, rng):
        scores = rank_families(rng.exponential(1.0, 1000), criterion="bic")
        bics = [s.bic for s in scores]
        assert bics == sorted(bics)

    def test_log_likelihood_criterion_descending(self, rng):
        scores = rank_families(
            rng.exponential(1.0, 1000), criterion="log_likelihood"
        )
        lls = [s.log_likelihood for s in scores]
        assert lls == sorted(lls, reverse=True)

    def test_unknown_criterion(self, rng):
        with pytest.raises(ValueError, match="criterion"):
            rank_families(rng.exponential(1.0, 100), criterion="magic")

    def test_unfittable_families_skipped(self):
        # Constant samples break Pareto/Weibull MLE but not exponential.
        scores = rank_families([2.0] * 50)
        families = {s.family for s in scores}
        assert "poisson" in families
        assert "pareto" not in families

    def test_sojourn_samples_prefer_heavy_tails(self, ground_truth_trace):
        """On real CONNECTED sojourns, Poisson never ranks first."""
        from repro.statemachines import replay_trace
        from repro.trace import DeviceType

        sub = ground_truth_trace.filter_device(DeviceType.PHONE)
        sojourns = replay_trace(sub).top_state_sojourns()["CONNECTED"]
        best = rank_families(sojourns)[0]
        assert best.family != "poisson"
