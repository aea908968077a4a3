"""Tests for the Monte Carlo engine: simulation, integration, comparison."""
import math
import sys
import threading
import time
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
    expit,
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
from truthquad.distributions import blocks
from truthquad.errors import NumericDomainError
from truthquad.mc import BLOCK, _block_mean, _block_mean_se, _percentiles, _run_reps
from truthquad.scenarios import _odds_ratio


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


# The references below evaluate each block with fresh arrays, written as the
# expressions the passes evaluated before they took workspaces, so a changed
# operation order in a named function shows as changed bits.

def allocating_confounding(scenario, simulate):
    """One rep of the confounding pass, each block evaluated by allocating calls; key -> (estimate, SE)."""
    def prob(a, c):
        if scenario.dim == 1:
            return expit(scenario.beta0 + scenario.beta1 * a + scenario.beta2[0] * c)
        return expit(scenario.beta0 + scenario.beta1 * a + c @ scenario.beta2)

    def rep(rng, n):
        c = scenario.draw_confounders(rng, n)
        u = rng.random(n) if simulate else None
        out = {}
        for a in (0, 1):
            if simulate:
                p = _block_mean(n, lambda rows: u[rows] < prob(a, c[rows]))
                out[f"p{a}"] = (p, np.sqrt(p * (1.0 - p) / n))
            else:
                out[f"p{a}"] = _block_mean_se(n, lambda rows: prob(a, c[rows]))
        out["odds_ratio"] = (_odds_ratio(out["p1"][0], out["p0"][0]), None)
        return out
    return rep


def allocating_cde(scenario):
    b0, b1, b2, b3, b4, b5 = scenario.beta
    lm = scenario.l_model

    def rep(rng, n):
        c = scenario.c_dist.draw(rng, n)
        u = scenario.u_dist.draw(rng, n)
        eps = rng.normal(0.0, np.sqrt(lm.sigma2), n)

        def outcome(rows, a):
            ell = lm.intercept + lm.a_coef * a + lm.u_coef * u[rows] + eps[rows]
            lin = b0 + b1 * a + b2 * scenario.m + b3 * c[rows] + b4 * ell + b5 * u[rows]
            return lin if scenario.link == "identity" else expit(lin)

        out = {label: _block_mean(n, lambda rows: outcome(rows, a))
               for label, a in (("mean_a", scenario.a), ("mean_a_star", scenario.a_star))}
        out["cde"] = out["mean_a"] - out["mean_a_star"]
        return {k: (v, None) for k, v in out.items()}
    return rep


def allocating_rmst(scenario):
    tau = scenario.tau

    def arm_rmst(a, m):
        with np.errstate(over="ignore"):
            lam = np.exp(scenario.beta0 + a * scenario.beta_a + m * scenario.beta_m)
            return np.divide(-np.expm1(-lam * tau), lam, out=np.full_like(lam, tau), where=lam > 0.0)

    def rep(rng, n):
        m1 = rng.normal(scenario.mu1, 1.0, n)
        m0 = rng.normal(scenario.mu0, 1.0, n)
        mu11, mu00, mu10 = (_block_mean(n, lambda rows: arm_rmst(a, m[rows]))
                            for a, m in ((1, m1), (0, m0), (1, m0)))
        est = {"mu11": mu11, "mu00": mu00, "mu10": mu10,
               "TE": mu11 - mu00, "NDE": mu10 - mu00, "NIE": mu11 - mu10}
        return {k: (v, None) for k, v in est.items()}
    return rep


def allocating_hr(scenario):
    ts = np.asarray(HR_TIMES)

    def rep(rng, n):
        m0 = rng.normal(scenario.mediator_mean(0), 1.0, n)
        m1 = rng.normal(scenario.mediator_mean(1), 1.0, n)
        haz = {}
        for arms, m in (((1, 0), m0), ((0, 0), m0), ((1, 1), m1)):
            zs_sum = s_sum = 0.0
            for rows in blocks(n):
                z = np.exp(scenario.beta_a * arms[0] + scenario.beta_m * m[rows])
                s = np.exp(-((ts[:, None] / scenario.lam) ** scenario.gamma) * z)
                zs_sum = zs_sum + s @ z
                s_sum = s_sum + s.sum(axis=1)
            haz[arms] = scenario._baseline_hazard(ts) * zs_sum / s_sum
        out = {}
        for i, t in enumerate(HR_TIMES):
            out[("NDE", t)] = (haz[1, 0][i] / haz[0, 0][i], None)
            out[("NIE", t)] = (haz[1, 1][i] / haz[1, 0][i], None)
            out[("TE", t)] = (haz[1, 1][i] / haz[0, 0][i], None)
        return out
    return rep


#: name -> one rep of the same blocked pass, each block evaluated with fresh arrays
ALLOCATING = {
    "confounding": allocating_confounding(normal_scenario(), False),
    "confounding_mvnormal": allocating_confounding(bivariate_scenario(), False),
    "confounding_simulate": allocating_confounding(normal_scenario(), True),
    "cde": allocating_cde(CDE_LOGIT),
    "rmst": allocating_rmst(RMSTScenario()),
    "hr": allocating_hr(HRScenario()),
}


class TestInPlaceKernels:
    """Workspace evaluation gives the bits of allocating evaluation, block by block."""

    @pytest.mark.parametrize("name", sorted(PASSES))
    def test_same_bits_as_allocating_blocks(self, name):
        run, _, _ = PASSES[name]
        n = 3 * BLOCK + 7
        cfg = MCConfig(n, 2, 2718)
        summaries = run(cfg, 1)
        for r in range(cfg.n_reps):
            expected = ALLOCATING[name](np.random.default_rng(cfg.seed_base + r), n)
            assert list(summaries) == list(expected)
            for key, (estimate, se) in expected.items():
                assert summaries[key].estimates[r] == estimate, key
                if se is not None:
                    assert summaries[key].within_rep_se[r] == se, key

    @pytest.mark.parametrize("name", sorted(set(PASSES) - {"confounding_simulate"}))
    def test_same_bits_as_allocating_values(self, name):
        # with one draw per rep an estimate is one evaluated value, so a changed
        # operation order shows in its last bits instead of averaging away
        run, _, _ = PASSES[name]
        cfg = MCConfig(1, 64, 31)
        summaries = run(cfg, 1)
        for r in range(cfg.n_reps):
            expected = ALLOCATING[name](np.random.default_rng(cfg.seed_base + r), 1)
            for key, (estimate, _) in expected.items():
                assert summaries[key].estimates[r] == estimate, (key, r)

    @pytest.mark.parametrize("name", sorted(PASSES))
    def test_draw_seconds_are_part_of_rep_seconds(self, name):
        run, _, _ = PASSES[name]
        for summary in run(MCConfig(BLOCK + 1, 3, 8), 2).values():
            assert summary.draw_seconds.shape == summary.rep_seconds.shape == (3,)
            assert np.all(summary.draw_seconds > 0.0)
            assert np.all(summary.draw_seconds <= summary.rep_seconds)

    def test_draw_seconds_exclude_evaluation(self):
        def draw(rng):
            time.sleep(0.02)

        def evaluate(draws):
            time.sleep(0.04)
            return {"x": 0.0}

        _, seconds, draw_seconds = _run_reps(draw, evaluate, MCConfig(10, 2, 1), 2)
        assert np.all(draw_seconds >= 0.02)
        assert np.all(seconds - draw_seconds >= 0.04)


def seed_of(rng):
    """A stand-in draw: the seed of the repetition's stream."""
    return rng.bit_generator.seed_seq.entropy


class TestThreadMap:
    def test_jobs_below_one_rejected(self):
        for jobs in (0, -3):
            with pytest.raises(ValidationError, match="jobs must be >= 1"):
                mc_confounding(normal_scenario(), MCConfig(100, 2, 1), jobs=jobs)

    def test_one_thread_per_rep_at_most(self, monkeypatch):
        cfg = MCConfig(1000, 3, 17)
        sequential = mc_confounding(normal_scenario(), cfg, jobs=1)
        created = []

        class CountingThread(threading.Thread):
            def __init__(self, *args, **kwargs):
                created.append(1)
                if len(created) > cfg.n_reps:
                    raise AssertionError("more threads than repetitions")
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(threading, "Thread", CountingThread)
        threaded = mc_confounding(normal_scenario(), cfg, jobs=10**6)
        assert len(created) == cfg.n_reps
        for key, summary in sequential.items():
            assert summary.same_estimates(threaded[key])

    def test_single_job_starts_no_thread(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")
        monkeypatch.setattr(threading, "Thread", refuse)
        mc_confounding(normal_scenario(), MCConfig(100, 3, 1), jobs=1)
        mc_confounding(normal_scenario(), MCConfig(100, 1, 1), jobs=4)

    def test_every_rep_runs_once_under_contention(self):
        cfg = MCConfig(10, 300, 1000)
        seen = []

        def evaluate(seed):
            seen.append(seed)
            return {"x": float(seed)}

        result = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            worker = threading.Thread(target=lambda: result.update(out=_run_reps(seed_of, evaluate, cfg, 8)))
            worker.start()
            worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        expected = cfg.seed_base + np.arange(cfg.n_reps)
        assert sorted(seen) == list(expected)
        np.testing.assert_array_equal(result["out"][0]["x"], expected)

    def test_first_failed_rep_is_reraised(self):
        cfg = MCConfig(10, 6, 100)

        def evaluate(seed):
            rep = seed - cfg.seed_base
            if rep in (1, 2, 4):
                if rep == 1:
                    time.sleep(0.05)  # so that with threads, later reps fail first
                raise NumericDomainError(f"rep {rep} failed")
            return {"x": float(rep)}

        for jobs in (1, 2, 3):
            with pytest.raises(NumericDomainError, match="rep 1 failed"):
                _run_reps(seed_of, evaluate, cfg, jobs)


def _percentile_cases():
    rng = np.random.default_rng(20240611)
    for n in [*range(1, 120), 1000, 4096]:
        for scale in (1e-5, 1.0, 1e5):
            yield rng.normal(size=n) * scale
    inf, nan = np.inf, np.nan
    yield from ([0.3], [inf], [-inf], [nan], [2.0] * 7, np.repeat([1.0, 2.0, 3.0], 40),
                rng.integers(0, 4, 200).astype(float), [0.0, -0.0, 0.0, -0.0], [-inf, inf], [inf] * 3,
                [1.0, 2.0, inf], [-inf, 1.0, 2.0], [-inf] * 2 + [0.5] * 50 + [inf] * 2, [1.0, nan, 2.0],
                [nan, inf, -inf], rng.normal(size=40).tolist() + [nan])


class TestPercentiles:
    def test_same_bits_as_numpy_percentile(self):
        # n = 1, ties, signed zeros, +-inf (inf - inf lerps to NaN) and NaN included
        with np.errstate(invalid="ignore"):
            for x in _percentile_cases():
                x = np.asarray(x, dtype=float)
                expected = np.percentile(x, [2.5, 97.5])
                assert _percentiles(x, [2.5, 97.5]).tobytes() == expected.tobytes(), x

    def test_input_is_not_reordered(self):
        x = np.array([3.0, 1.0, 2.0])
        _percentiles(x, [2.5, 97.5])
        assert x.tolist() == [3.0, 1.0, 2.0]


class TestCompare:
    def test_identical_values(self):
        summary = mc_odds_ratio(normal_scenario(), CFG)
        record = compare(summary.mean, summary)
        assert record.abs_diff == 0.0
        assert record.rel_diff == 0.0
        assert record.inside_interval

    def test_real_pair_is_consistent(self):
        summary = mc_odds_ratio(normal_scenario(), CFG)
        quad = odds_ratio_truth(normal_scenario(), 20)
        record = compare(quad["odds_ratio"], summary)
        assert abs(record.z_score) < 5
        assert record.inside_interval

    def test_corrupted_value_flagged_outside(self):
        summary = mc_odds_ratio(normal_scenario(), CFG)
        record = compare(summary.mean + 10 * summary.sd, summary)
        assert not record.inside_interval
        assert record.z_score > 3
