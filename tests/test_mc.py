"""Tests for the Monte Carlo engine: simulation, integration, comparison."""
import math

import numpy as np
import pytest

from truthquad import (
    CDEScenario,
    ConfoundingScenario,
    HRScenario,
    MCConfig,
    Normal,
    RMSTScenario,
    ValidationError,
    compare,
    counterfactual_density,
    mc_cde,
    mc_confounding,
    mc_hr_counterfactual,
    mc_hr_mediation,
    mc_marginal_prob,
    mc_odds_ratio,
    mc_rmst_mediation,
    odds_ratio_truth,
    po_odds_ratio,
    potential_outcome_sim,
    rmst_mediation_truth,
)
from truthquad.scenarios import TruthResult


def normal_scenario(beta2=-1.0):
    return ConfoundingScenario(1.0, 1.0, np.array([beta2]), (Normal(0.0, 1.0),))


CFG = MCConfig(n_samples=10**4, n_reps=50, seed_base=314159)


class TestPotentialOutcomeSim:
    def test_fair_bernoulli(self):
        scenario = ConfoundingScenario(0.0, 0.0, np.array([0.0]), (Normal(0.0, 1.0),))
        cfg = MCConfig(n_samples=10**5, n_reps=50, seed_base=9)
        summary = potential_outcome_sim(scenario, 1, cfg)
        theo_sd = math.sqrt(0.25 / cfg.n_samples)
        assert abs(summary.mean - 0.5) < 5 * theo_sd / math.sqrt(cfg.n_reps)
        assert 0.7 * theo_sd < summary.sd < 1.3 * theo_sd

    def test_bit_identical_reruns(self):
        summary_a = potential_outcome_sim(normal_scenario(), 1, CFG)
        summary_b = potential_outcome_sim(normal_scenario(), 1, CFG)
        assert summary_a.same_estimates(summary_b)
        assert summary_a.mean == summary_b.mean
        assert summary_a.interval == summary_b.interval

    def test_arms_share_confounder_draws(self):
        # same seed stream means both arms see identical c and uniforms
        s1 = potential_outcome_sim(normal_scenario(), 1, CFG)
        s0 = potential_outcome_sim(normal_scenario(), 0, CFG)
        # P(Y=1|a=1) > P(Y=1|a=0) pointwise, so with shared draws every rep
        # estimate ordering is deterministic
        assert np.all(s1.estimates >= s0.estimates)

    def test_interval_brackets_mean(self):
        summary = potential_outcome_sim(normal_scenario(), 1, CFG)
        lo, hi = summary.interval
        assert lo <= summary.mean <= hi


class TestSharedPass:
    @pytest.mark.parametrize("simulate", [False, True])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_matches_hand_recomputation(self, simulate, jobs):
        scenario = normal_scenario()
        cfg = MCConfig(n_samples=2000, n_reps=4, seed_base=77)
        summaries = mc_confounding(scenario, cfg, jobs=jobs, simulate=simulate)
        assert list(summaries) == ["p0", "p1", "odds_ratio"]
        for r in range(cfg.n_reps):
            rng = np.random.default_rng(cfg.seed_base + r)
            c = rng.normal(0.0, 1.0, cfg.n_samples)
            u = rng.random(cfg.n_samples)
            probs = [1.0 / (1.0 + np.exp(-(1.0 + a - c))) for a in (0, 1)]
            p0, p1 = ((u < q).mean() if simulate else q.mean() for q in probs)
            np.testing.assert_allclose(summaries["p0"].estimates[r], p0, rtol=1e-13)
            np.testing.assert_allclose(summaries["p1"].estimates[r], p1, rtol=1e-13)
            np.testing.assert_allclose(summaries["odds_ratio"].estimates[r],
                                       (p1 / (1 - p1)) / (p0 / (1 - p0)), rtol=1e-12)

    def test_per_arm_views_are_the_shared_pass(self):
        for simulate, arm, ratio in ((False, mc_marginal_prob, mc_odds_ratio),
                                     (True, potential_outcome_sim, po_odds_ratio)):
            shared = mc_confounding(normal_scenario(), CFG, simulate=simulate)
            assert arm(normal_scenario(), 0, CFG).same_estimates(shared["p0"])
            assert arm(normal_scenario(), 1, CFG).same_estimates(shared["p1"])
            assert ratio(normal_scenario(), CFG).same_estimates(shared["odds_ratio"])
            np.testing.assert_array_equal(arm(normal_scenario(), 1, CFG).within_rep_se,
                                          shared["p1"].within_rep_se)


class TestVarianceOrdering:
    def test_po_sd_exceeds_mci_sd(self):
        po = potential_outcome_sim(normal_scenario(), 1, CFG)
        mci = mc_marginal_prob(normal_scenario(), 1, CFG)
        assert po.sd > mci.sd

    def test_ordering_holds_on_the_odds_ratio_scale(self):
        po = po_odds_ratio(normal_scenario(), CFG)
        mci = mc_odds_ratio(normal_scenario(), CFG)
        assert po.sd > mci.sd
        assert abs(po.mean - mci.mean) < 5 * po.sd

    def test_within_rep_se_ordering(self):
        po = potential_outcome_sim(normal_scenario(), 1, CFG)
        mci = mc_marginal_prob(normal_scenario(), 1, CFG)
        assert po.within_rep_se is not None and mci.within_rep_se is not None
        assert np.all(po.within_rep_se > mci.within_rep_se)


class TestMCIntegration:
    def test_unbiased_against_quadrature(self):
        summary = mc_marginal_prob(normal_scenario(), 1, CFG)
        from truthquad import marginal_prob

        truth = marginal_prob(normal_scenario(), 1, 40)
        assert abs(summary.mean - truth) < 4 * summary.se_of_mean

    def test_se_scaling_with_n(self):
        small = MCConfig(n_samples=2 * 10**4, n_reps=200, seed_base=11)
        large = MCConfig(n_samples=8 * 10**4, n_reps=200, seed_base=11)
        sd_small = mc_marginal_prob(normal_scenario(), 1, small).sd
        sd_large = mc_marginal_prob(normal_scenario(), 1, large).sd
        ratio = sd_small / sd_large
        assert 1.6 < ratio < 2.4  # quadrupling N halves the per-rep sd within 20%

    def test_odds_ratio_is_per_rep_plugin(self):
        or_summary = mc_odds_ratio(normal_scenario(), CFG)
        p1 = mc_marginal_prob(normal_scenario(), 1, CFG).estimates
        p0 = mc_marginal_prob(normal_scenario(), 0, CFG).estimates
        rebuilt = (p1 / (1 - p1)) / (p0 / (1 - p0))
        np.testing.assert_array_equal(or_summary.estimates, rebuilt)

    def test_rmst_null_mediator_gives_zero_each_rep(self):
        scenario = RMSTScenario(beta_m=0.0)
        summaries = mc_rmst_mediation(scenario, MCConfig(1000, 20, 5))
        assert np.all(summaries["NIE"].estimates == 0.0)

    def test_rmst_matches_quadrature(self):
        scenario = RMSTScenario()
        summaries = mc_rmst_mediation(scenario, MCConfig(10**4, 50, 23))
        truth = rmst_mediation_truth(scenario, 30)
        for key in ("TE", "NDE", "NIE"):
            z = (truth[key] - summaries[key].mean) / summaries[key].se_of_mean
            assert abs(z) < 4

    def test_cde_matches_quadrature(self):
        from truthquad import cde_truth

        scenario = CDEScenario(link="logit", beta=(0.1, 0.4, 0.2, 0.1, 0.05, 0.1))
        summaries = mc_cde(scenario, MCConfig(10**4, 40, 8))
        truth = cde_truth(scenario, 20)
        z = (truth["cde"] - summaries["cde"].mean) / summaries["cde"].se_of_mean
        assert abs(z) < 4

    def test_hr_counterfactual_matches_quadrature(self):
        scenario = HRScenario()
        summary = mc_hr_counterfactual(scenario, "density", 1, 0, 1.0, MCConfig(10**4, 40, 13))
        quad = counterfactual_density(scenario, 1, 0, 1.0, 20)
        assert abs(quad - summary.mean) < 4 * summary.se_of_mean

    def test_hr_mediation_keys_and_decomposition(self):
        scenario = HRScenario()
        per_t = mc_hr_mediation(scenario, MCConfig(2000, 25, 3), t_values=[1.0, 2.0])
        assert set(per_t) == {(e, t) for e in ("NDE", "NIE", "TE") for t in (1.0, 2.0)}
        for t in (1.0, 2.0):
            prod = per_t[("NDE", t)].estimates * per_t[("NIE", t)].estimates
            np.testing.assert_allclose(per_t[("TE", t)].estimates, prod, rtol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            MCConfig(0, 10, 1)
        with pytest.raises(ValidationError):
            MCConfig(10, 0, 1)

    def test_jobs_do_not_change_results(self):
        sequential = mc_marginal_prob(normal_scenario(), 1, CFG, jobs=1)
        threaded = mc_marginal_prob(normal_scenario(), 1, CFG, jobs=4)
        assert sequential.same_estimates(threaded)

    def test_normal_theory_interval_flag(self):
        summary = mc_marginal_prob(normal_scenario(), 1, CFG, interval="normal")
        lo, hi = summary.interval
        np.testing.assert_allclose(hi - summary.mean, 1.96 * summary.sd, rtol=1e-12)
        np.testing.assert_allclose(summary.mean - lo, 1.96 * summary.sd, rtol=1e-12)


class TestCompare:
    def test_identical_values(self):
        summary = mc_odds_ratio(normal_scenario(), CFG)
        fake_quad = TruthResult(estimand="odds_ratio", value=summary.mean, method="quadrature",
                                level=20)
        record = compare(fake_quad, summary)
        assert record.abs_diff == 0.0
        assert record.rel_diff == 0.0
        assert record.inside_interval

    def test_real_pair_is_consistent(self):
        summary = mc_odds_ratio(normal_scenario(), CFG)
        quad = odds_ratio_truth(normal_scenario(), 20)
        record = compare(quad, summary)
        assert abs(record.z_score) < 5
        assert record.inside_interval

    def test_corrupted_value_flagged_outside(self):
        summary = mc_odds_ratio(normal_scenario(), CFG)
        shifted = TruthResult(
            estimand="odds_ratio",
            value=summary.mean + 10 * summary.sd,
            method="quadrature", level=20,
        )
        record = compare(shifted, summary)
        assert not record.inside_interval
        assert record.z_score > 3

    def test_estimand_mismatch(self):
        summary = mc_marginal_prob(normal_scenario(), 1, CFG)
        quad = TruthResult(estimand="cde", value={"cde": 1.0}, method="quadrature", level=5)
        with pytest.raises(ValidationError, match="mismatch"):
            compare(quad, summary)


class TestTruthResultContract:
    def test_deterministic_methods_reject_se(self):
        with pytest.raises(ValidationError):
            TruthResult(estimand="x", value=1.0, method="quadrature", level=5, se=0.1)

    def test_mc_methods_require_se(self):
        with pytest.raises(ValidationError):
            TruthResult(estimand="x", value=1.0, method="mc_integration", n_samples=10)
