"""Tests for the Monte Carlo engine: simulation, integration, comparison."""
import math
import tracemalloc

import numpy as np
import pytest

from truthquad import (
    CDEScenario,
    ConfoundingScenario,
    HRScenario,
    MCConfig,
    MVNormal,
    Normal,
    RMSTScenario,
    ValidationError,
    compare,
    mc_cde,
    mc_confounding,
    mc_hr_mediation,
    mc_marginal_prob,
    mc_odds_ratio,
    mc_rmst_mediation,
    odds_ratio_truth,
    po_odds_ratio,
    potential_outcome_sim,
    rmst,
    rmst_mediation_truth,
    weibull_density,
    weibull_survival,
)
from truthquad.mc import BLOCK
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

    def test_hr_mediation_keys_and_decomposition(self):
        scenario = HRScenario()
        per_t = mc_hr_mediation(scenario, MCConfig(2000, 25, 3), t_values=[1.0, 2.0])
        assert set(per_t) == {(e, t) for e in ("NDE", "NIE", "TE") for t in (1.0, 2.0)}
        for t in (1.0, 2.0):
            prod = per_t[("NDE", t)].estimates * per_t[("NIE", t)].estimates
            np.testing.assert_allclose(per_t[("TE", t)].estimates, prod, rtol=1e-12)

    def test_hr_mediation_matches_hand_recomputation(self):
        scenario = HRScenario()
        cfg = MCConfig(5000, 1, 21)
        ts = (0.5, 2.0)
        per_t = mc_hr_mediation(scenario, cfg, t_values=ts)
        assert list(per_t) == [(e, t) for t in ts for e in ("NDE", "NIE", "TE")]
        rng = np.random.default_rng(cfg.seed_base)
        m0 = rng.normal(scenario.mediator_mean(0), 1.0, cfg.n_samples)
        m1 = rng.normal(scenario.mediator_mean(1), 1.0, cfg.n_samples)
        for t in ts:
            haz = {arms: (weibull_density(scenario, t, arms[0], m).mean()
                          / weibull_survival(scenario, t, arms[0], m).mean())
                   for arms, m in (((1, 0), m0), ((0, 0), m0), ((1, 1), m1))}
            expected = {"NDE": haz[1, 0] / haz[0, 0], "NIE": haz[1, 1] / haz[1, 0],
                        "TE": haz[1, 1] / haz[0, 0]}
            for effect, value in expected.items():
                np.testing.assert_allclose(per_t[(effect, t)].estimates, [value], rtol=1e-12)

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


def bivariate_scenario():
    return ConfoundingScenario(1.0, 1.0, np.array([0.3, -0.2]),
                               MVNormal.of([1.0, -2.0], [[1.0, 0.5], [0.5, 2.0]]))


HR_TIMES = (0.5, 1.0, 2.0, 3.5, 5.0)


def unblocked_confounding(scenario, simulate):
    """One rep of the confounding pass on whole arrays; per key (estimate, within-rep SE)."""
    def rep(rng, n):
        if isinstance(scenario.confounders, MVNormal):
            cov = scenario.confounders.cov
            c = rng.multivariate_normal(cov.mean, cov.covariance, size=n, method="cholesky")
        else:
            c = rng.normal(0.0, 1.0, n)
        u = rng.random(n)
        out = {}
        for a in (0, 1):
            q = scenario.prob(a, c)
            if simulate:
                p = (u < q).mean()
                out[f"p{a}"] = (p, math.sqrt(p * (1 - p) / n))
            else:
                out[f"p{a}"] = (q.mean(), q.std(ddof=1) / math.sqrt(n))
        p0, p1 = out["p0"][0], out["p1"][0]
        out["odds_ratio"] = ((p1 / (1 - p1)) / (p0 / (1 - p0)), None)
        return out
    return rep


def unblocked_cde(scenario):
    b0, b1, b2, b3, b4, b5 = scenario.beta
    lm = scenario.l_model

    def rep(rng, n):
        c = rng.normal(scenario.c_dist.mu, math.sqrt(scenario.c_dist.sigma2), n)
        u = rng.normal(scenario.u_dist.mu, math.sqrt(scenario.u_dist.sigma2), n)
        eps = rng.normal(0.0, math.sqrt(lm.sigma2), n)
        means = {}
        for label, a in (("mean_a", scenario.a), ("mean_a_star", scenario.a_star)):
            ell = lm.intercept + lm.a_coef * a + lm.u_coef * u + eps
            lin = b0 + b1 * a + b2 * scenario.m + b3 * c + b4 * ell + b5 * u
            means[label] = scenario.inverse_link(lin).mean()
        means["cde"] = means["mean_a"] - means["mean_a_star"]
        return {k: (v, None) for k, v in means.items()}
    return rep


def unblocked_rmst(scenario):
    def rep(rng, n):
        m1 = rng.normal(scenario.mu1, 1.0, n)
        m0 = rng.normal(scenario.mu0, 1.0, n)
        mu11, mu00, mu10 = (rmst(scenario.tau, np.exp(scenario.log_rate(a, m))).mean()
                            for a, m in ((1, m1), (0, m0), (1, m0)))
        est = {"mu11": mu11, "mu00": mu00, "mu10": mu10,
               "TE": mu11 - mu00, "NDE": mu10 - mu00, "NIE": mu11 - mu10}
        return {k: (v, None) for k, v in est.items()}
    return rep


def unblocked_hr(scenario):
    def rep(rng, n):
        m0 = rng.normal(scenario.mediator_mean(0), 1.0, n)
        m1 = rng.normal(scenario.mediator_mean(1), 1.0, n)
        out = {}
        for t in HR_TIMES:
            haz = {arms: (weibull_density(scenario, t, arms[0], m).mean()
                          / weibull_survival(scenario, t, arms[0], m).mean())
                   for arms, m in (((1, 0), m0), ((0, 0), m0), ((1, 1), m1))}
            out[("NDE", t)] = (haz[1, 0] / haz[0, 0], None)
            out[("NIE", t)] = (haz[1, 1] / haz[1, 0], None)
            out[("TE", t)] = (haz[1, 1] / haz[0, 0], None)
        return out
    return rep


CDE_LOGIT = CDEScenario(link="logit", beta=(0.1, 0.4, 0.2, 0.1, 0.05, 0.1))

#: name -> (blocked pass taking (cfg, jobs), whole-array reference for one rep,
#: draws per sample); every draw is a float64
PASSES = {
    "confounding": (lambda cfg, jobs: mc_confounding(normal_scenario(), cfg, jobs),
                    unblocked_confounding(normal_scenario(), False), 1),
    "confounding_mvnormal": (lambda cfg, jobs: mc_confounding(bivariate_scenario(), cfg, jobs),
                             unblocked_confounding(bivariate_scenario(), False), 2),
    "confounding_simulate": (lambda cfg, jobs: mc_confounding(normal_scenario(), cfg, jobs, simulate=True),
                             unblocked_confounding(normal_scenario(), True), 2),
    "cde": (lambda cfg, jobs: mc_cde(CDE_LOGIT, cfg, jobs), unblocked_cde(CDE_LOGIT), 3),
    "rmst": (lambda cfg, jobs: mc_rmst_mediation(RMSTScenario(), cfg, jobs),
             unblocked_rmst(RMSTScenario()), 2),
    "hr": (lambda cfg, jobs: mc_hr_mediation(HRScenario(), cfg, t_values=HR_TIMES, jobs=jobs),
           unblocked_hr(HRScenario()), 2),
}


class TestBlocks:
    """Blocked passes against whole-array evaluation of the same draws."""

    @pytest.mark.parametrize("n", [2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
    @pytest.mark.parametrize("name", sorted(PASSES))
    def test_matches_unblocked_recomputation(self, name, n):
        run, reference, _ = PASSES[name]
        # at n = 2 a simulated p is 0, 1/2 or 1; this seed gives 1/2 in both arms of both reps
        cfg = MCConfig(n, 2, 1033)
        summaries = run(cfg, 1)
        for r in range(cfg.n_reps):
            expected = reference(np.random.default_rng(cfg.seed_base + r), n)
            assert list(summaries) == list(expected)
            for key, (estimate, se) in expected.items():
                np.testing.assert_allclose(summaries[key].estimates[r], estimate, rtol=1e-13, atol=0.0)
                if se is not None:
                    np.testing.assert_allclose(summaries[key].within_rep_se[r], se, rtol=1e-12)

    @pytest.mark.parametrize("name", sorted(PASSES))
    def test_jobs_do_not_change_blocked_results(self, name):
        run, _, _ = PASSES[name]
        cfg = MCConfig(3 * BLOCK + 7, 3, 99)
        sequential, threaded = run(cfg, 1), run(cfg, 2)
        for key, summary in sequential.items():
            assert summary.same_estimates(threaded[key])
            if summary.within_rep_se is not None:
                np.testing.assert_array_equal(summary.within_rep_se, threaded[key].within_rep_se)

    @pytest.mark.parametrize("name", sorted(PASSES))
    def test_rep_memory_is_about_its_draws(self, name):
        run, _, draws_per_sample = PASSES[name]
        n = 16 * BLOCK + 3
        draw_bytes = 8 * draws_per_sample * n
        tracemalloc.start()
        try:
            run(MCConfig(n, 1, 5), 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * draw_bytes + 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"


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
