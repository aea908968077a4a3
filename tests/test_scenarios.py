"""Tests for the four scenarios and their quadrature truth computations."""
import math
from pathlib import Path

import numpy as np
import pytest

from truthquad import (
    CDEScenario,
    ClosedFormCase,
    ConfoundingScenario,
    Decomposition,
    Gamma,
    HRScenario,
    LModel,
    MVNormal,
    NonFiniteEvaluationError,
    Normal,
    NumericDomainError,
    RMSTScenario,
    Uniform,
    ValidationError,
    cde_truth,
    counterfactual_density,
    counterfactual_survival,
    expit,
    hr_mediation_truth,
    marginal_prob,
    odds_ratio_truth,
    rmst,
    rmst_mediation_truth,
    rule_for,
    scenario_for_case,
    weibull_density,
    weibull_hazard,
    weibull_survival,
)

from truthquad.config import load_config
from truthquad.mc import BLOCK
from truthquad.scenarios import rmst_from_log_rate

import oracles


def normal_scenario():
    """beta0 = beta1 = 1, beta2 = -1, C ~ N(0, 1)."""
    return ConfoundingScenario(1.0, 1.0, np.array([-1.0]), (Normal(0.0, 1.0),))


def bivariate_scenario():
    return ConfoundingScenario(
        1.0, 1.0, np.array([0.1, 0.1]),
        MVNormal.of([-5.0, -10.0], [[1.0, 1.0], [1.0, 2.0]]),
    )


class TestMarginalProb:
    def test_exponential_case_appendix_value(self):
        scenario = scenario_for_case(ClosedFormCase.EXPONENTIAL)
        np.testing.assert_allclose(marginal_prob(scenario, 0, 20), 2.0 / 3.0, atol=1e-9)

    def test_constant_integrand_at_k1(self):
        scenario = ConfoundingScenario(0.3, -0.7, np.array([0.0]), (Normal(5.0, 2.0),))
        np.testing.assert_allclose(marginal_prob(scenario, 1, 1), expit(0.3 - 0.7), rtol=1e-15)

    def test_normal_scenario_against_adaptive_oracle(self):
        scenario = normal_scenario()
        np.testing.assert_allclose(marginal_prob(scenario, 1, 20), oracles.P1_NORMAL, atol=1e-9)
        np.testing.assert_allclose(marginal_prob(scenario, 0, 20), oracles.P0_NORMAL, atol=1e-9)

    def test_bivariate_scenario_against_reduced_oracle(self):
        scenario = bivariate_scenario()
        np.testing.assert_allclose(marginal_prob(scenario, 0, 20), oracles.P0_BIVARIATE,
                                   atol=1e-10)
        np.testing.assert_allclose(marginal_prob(scenario, 1, 20), oracles.P1_BIVARIATE,
                                   atol=1e-10)

    def test_values_inside_unit_interval(self):
        for case in ClosedFormCase:
            scenario = scenario_for_case(case)
            for a in (0, 1):
                assert 0.0 < marginal_prob(scenario, a, 10) < 1.0

    def test_beta2_length_checked(self):
        with pytest.raises(ValidationError, match="beta2"):
            ConfoundingScenario(0.0, 1.0, np.array([1.0, 2.0]), (Normal(0, 1),))


class TestDrawConfounders:
    def test_independent_draws_are_the_stacked_draws(self):
        scenario = ConfoundingScenario(0.0, 1.0, np.array([0.5, 0.5, 0.2]),
                                       (Normal(1.0, 2.0), Gamma(4.0, 0.5), Uniform(-1.0, 1.0)))
        n = BLOCK + 1
        got = scenario.draw_confounders(np.random.default_rng(9), n)
        rng = np.random.default_rng(9)
        want = np.column_stack([d.draw(rng, n) for d in scenario.confounders])
        assert got.shape == want.shape == (n, 3)
        assert got.tobytes() == want.tobytes()


class TestOddsRatio:
    def test_no_treatment_effect_gives_one(self):
        scenario = ConfoundingScenario(0.5, 0.0, np.array([0.3]), (Normal(0, 1),))
        result = odds_ratio_truth(scenario, 12)
        np.testing.assert_allclose(result["odds_ratio"], 1.0, atol=1e-12)

    def test_exponential_case_matches_closed_form(self):
        result = odds_ratio_truth(scenario_for_case(ClosedFormCase.EXPONENTIAL), 20)
        np.testing.assert_allclose(result["odds_ratio"], oracles.OR_EXPONENTIAL, atol=1e-8)
        np.testing.assert_allclose(result["p0"], oracles.P0_EXPONENTIAL, atol=1e-9)
        np.testing.assert_allclose(result["p1"], oracles.P1_EXPONENTIAL, atol=1e-8)

    def test_non_collapsibility_of_bivariate_example(self):
        or_normal = odds_ratio_truth(normal_scenario(), 20)["odds_ratio"]
        or_bivariate = odds_ratio_truth(bivariate_scenario(), 20)["odds_ratio"]
        assert abs(or_normal - or_bivariate) > 0.1
        # both marginal values sit below the conditional odds ratio e^beta1
        assert or_normal < math.e and or_bivariate < math.e

    def test_metadata(self):
        result = odds_ratio_truth(normal_scenario(), 8, Decomposition.CHOLESKY)
        assert result.method == "quadrature"
        assert result.level == 8
        assert result.decomposition == "cholesky"


class TestCDE:
    def test_defaults_recover_twelve(self):
        result = cde_truth(CDEScenario(), 5)
        np.testing.assert_allclose(result["cde"], 12.0, atol=1e-10)

    def test_identity_link_closed_form_random_draws(self):
        rng = np.random.default_rng(2024)
        for _ in range(20):
            beta = tuple(rng.normal(scale=3.0, size=6))
            scenario = CDEScenario(link="identity", beta=beta)
            result = cde_truth(scenario, 5)
            expected = beta[1] + beta[4] * scenario.l_model.a_coef
            np.testing.assert_allclose(result["cde"], expected, atol=1e-10)

    def test_identity_link_arm_means(self):
        scenario = CDEScenario()
        result = cde_truth(scenario, 5)
        b = scenario.beta
        for label, a in (("mean_a", 1), ("mean_a_star", 0)):
            expected = (b[0] + b[1] * a + b[2] * scenario.m + b[3] * scenario.c_dist.mu
                        + b[4] * (15.0 + a + 0.1 * scenario.u_dist.mu) + b[5] * scenario.u_dist.mu)
            np.testing.assert_allclose(result[label], expected, atol=1e-10)

    def test_logit_link_null_treatment_paths(self):
        scenario = CDEScenario(link="logit", beta=(0.2, 0.0, 0.8, 0.0, 0.0, 0.0), m=1.5)
        result = cde_truth(scenario, 8)
        np.testing.assert_allclose(result["cde"], 0.0, atol=1e-14)
        np.testing.assert_allclose(result["mean_a"], expit(0.2 + 0.8 * 1.5), atol=1e-12)

    def test_joint_ul_covariance(self):
        scenario = CDEScenario(l_model=LModel(intercept=15.0, a_coef=1.0, u_coef=0.1, sigma2=1.0))
        spec = scenario.joint_ul(1)
        np.testing.assert_allclose(spec.mean, [3.0, 16.3], rtol=1e-15)
        np.testing.assert_allclose(spec.covariance, [[1.0, 0.1], [0.1, 1.01]], rtol=1e-15)

    @pytest.mark.parametrize("link", ["identity", "logit"])
    @pytest.mark.parametrize("in_place", [False, True], ids=["out", "in-place"])
    def test_inverse_link_out_gives_the_same_bytes(self, link, in_place):
        scenario = CDEScenario(link=link)
        lin = np.array([-800.0, -1.5, 0.0, 2.0, 40.0, np.inf])
        expected = scenario.inverse_link(lin.copy()).tobytes()
        buf = lin if in_place else np.full_like(lin, 7.0)
        assert scenario.inverse_link(lin, out=buf) is buf
        assert buf.tobytes() == expected

    def test_same_arms_rejected(self):
        with pytest.raises(ValidationError, match="differ"):
            CDEScenario(a=1, a_star=1)

    def test_bad_link_rejected(self):
        with pytest.raises(ValidationError, match="link"):
            CDEScenario(link="probit")


class TestRMST:
    def test_closed_form_value(self):
        np.testing.assert_allclose(rmst(3.0, 1.0), 1.0 - math.exp(-3.0), rtol=1e-15)

    def test_small_horizon_limit(self):
        tau = 1e-6
        np.testing.assert_allclose(rmst(tau, 0.37), tau, rtol=1e-6)

    def test_large_rate_stable(self):
        assert rmst(3.0, 1e300) == pytest.approx(1e-300, rel=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            rmst(0.0, 1.0)
        with pytest.raises(ValidationError):
            rmst(1.0, -2.0)
        with pytest.raises(ValidationError):
            rmst(1.0, np.array([1.0, np.nan]))

    def test_zero_rate_gives_horizon(self):
        assert rmst(3.0, 0.0) == 3.0
        np.testing.assert_array_equal(rmst(3.0, np.array([0.0, 1.0, 0.0])),
                                      [3.0, -math.expm1(-3.0), 3.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_from_log_rate(self):
        log_rate = np.array([-800.0, -1.0, 0.0, 3.0, 709.0, 710.0, 800.0])
        out = rmst_from_log_rate(3.0, log_rate)
        # exp overflows from the sixth entry on; before it the values are rmst's own
        with np.errstate(over="ignore"):  # 3 * exp(709) overflows; the RMST is 1 / rate
            expected = rmst(3.0, np.exp(log_rate[:5]))
        np.testing.assert_array_equal(out[:5], expected)
        assert out[0] == 3.0 and out[4] > 0.0
        np.testing.assert_array_equal(out[5:], [0.0, 0.0])

    @pytest.mark.parametrize("in_place", [False, True], ids=["out", "in-place"])
    def test_from_log_rate_out_gives_the_same_bytes(self, in_place):
        log_rate = np.array([-np.inf, -800.0, -1.0, 0.0, 3.0, 709.0, 710.0, 750.0, np.inf])
        expected = rmst_from_log_rate(3.0, log_rate).tobytes()
        buf = log_rate.copy() if in_place else np.full_like(log_rate, 7.0)
        assert rmst_from_log_rate(3.0, buf if in_place else log_rate, out=buf) is buf
        assert buf.tobytes() == expected

    @pytest.mark.parametrize("log_rate", [-np.inf, -800.0, 0.0, 750.0, np.inf])
    def test_from_log_rate_scalar_out_gives_the_same_bytes(self, log_rate):
        buf = np.empty(())
        assert rmst_from_log_rate(3.0, log_rate, out=buf) is buf
        assert buf.tobytes() == np.float64(rmst_from_log_rate(3.0, log_rate)).tobytes()

    def test_intermediate_te_rate(self):
        scenario = RMSTScenario()
        lam = math.exp(scenario.beta0 + scenario.beta_a + scenario.mu1 * scenario.beta_m)
        value = rmst(scenario.tau, lam)
        assert 0.0 < value < scenario.tau


class TestRMSTMediation:
    def test_matches_high_precision_oracle(self):
        result = rmst_mediation_truth(RMSTScenario(), 20)
        np.testing.assert_allclose(result["mu11"], oracles.RMST_MU11, atol=1e-12)
        np.testing.assert_allclose(result["mu00"], oracles.RMST_MU00, atol=1e-12)
        np.testing.assert_allclose(result["mu10"], oracles.RMST_MU10, atol=1e-12)
        np.testing.assert_allclose(result["TE"], oracles.RMST_TE, atol=1e-12)
        np.testing.assert_allclose(result["NDE"], oracles.RMST_NDE, atol=1e-12)
        np.testing.assert_allclose(result["NIE"], oracles.RMST_NIE, atol=1e-12)

    def test_null_mediator_effect_forces_nie_zero(self):
        result = rmst_mediation_truth(RMSTScenario(beta_m=0.0), 16)
        assert result["NIE"] == 0.0
        assert result["TE"] == result["NDE"]

    def test_fully_null_scenario(self):
        result = rmst_mediation_truth(RMSTScenario(mu0=-1.0, mu1=-1.0, beta_a=0.0), 16)
        assert result["TE"] == 0.0 and result["NDE"] == 0.0 and result["NIE"] == 0.0

    @pytest.mark.parametrize("params", [
        {},
        {"beta_m": 1.0, "tau": 1.0},
        {"mu1": 2.0, "beta_a": 0.3},
    ])
    def test_te_decomposition(self, params):
        result = rmst_mediation_truth(RMSTScenario(**params), 20)
        assert abs(result["TE"] - (result["NDE"] + result["NIE"])) < 1e-14

    def test_invalid_tau(self):
        with pytest.raises(ValidationError):
            RMSTScenario(tau=-1.0)


class TestWeibull:
    def test_shape_one_is_exponential(self):
        scenario = HRScenario(gamma=1.0, lam=1.0, beta_a=0.0, beta_m=0.0)
        for t in (0.1, 1.0, 2.5):
            np.testing.assert_allclose(weibull_density(scenario, t, 1, 0.0), math.exp(-t),
                                       rtol=1e-14)

    def test_density_vanishes_at_origin_for_shape_above_one(self):
        # f ~ t^{gamma-1} near zero, so values shrink with t
        scenario = HRScenario()
        assert weibull_density(scenario, 1e-10, 1, 0.5) < 1e-4
        assert weibull_density(scenario, 1e-14, 1, 0.5) < weibull_density(scenario, 1e-10, 1, 0.5)

    def test_density_is_hazard_times_survival(self):
        scenario = HRScenario()
        for t in (0.2, 1.0, 4.0):
            f = weibull_density(scenario, t, 1, -0.3)
            np.testing.assert_allclose(
                f, weibull_hazard(scenario, t, 1, -0.3) * weibull_survival(scenario, t, 1, -0.3),
                rtol=1e-14,
            )

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValidationError):
            weibull_density(HRScenario(), 0.0, 1, 0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValidationError):
            HRScenario(gamma=0.0)
        with pytest.raises(ValidationError):
            HRScenario(t_grid=[2.0, 1.0])


class TestCounterfactuals:
    def test_constant_integrand_when_beta_m_zero(self):
        scenario = HRScenario(beta_m=0.0)
        value = counterfactual_density(scenario, 1, 0, 1.0, 12)
        np.testing.assert_allclose(value, weibull_density(scenario, 1.0, 1, 123.0), rtol=1e-12)
        surv = counterfactual_survival(scenario, 1, 0, 2.0, 12)
        expected = math.exp(-((2.0 / scenario.lam) ** scenario.gamma) * math.exp(scenario.beta_a))
        np.testing.assert_allclose(surv, expected, rtol=1e-12)

    def test_survival_near_zero_time(self):
        np.testing.assert_allclose(counterfactual_survival(HRScenario(), 1, 0, 1e-12, 12), 1.0,
                                   atol=1e-10)

    def test_density_normalizes(self):
        # fine trapezoid over t; the counterfactual density must integrate to 1
        scenario = HRScenario()
        rule = rule_for(Normal(scenario.mediator_mean(0), 1.0), 20)
        ts = np.linspace(1e-6, 60.0, 400001)
        dens = np.zeros_like(ts)
        for node, weight in zip(rule.nodes, rule.weights):
            dens += weight * weibull_density(scenario, ts, 1, node)
        np.testing.assert_allclose(np.trapezoid(dens, ts), 1.0, atol=1e-6)

    def test_against_mc_oracle(self):
        scenario = HRScenario()
        rng = np.random.default_rng(55)
        m = rng.normal(scenario.mediator_mean(0), 1.0, 10**5)
        values = weibull_density(scenario, 1.0, 1, m)
        se = values.std() / math.sqrt(values.size)
        quad = counterfactual_density(scenario, 1, 0, 1.0, 20)
        assert abs(quad - values.mean()) < 3.0 * se
        surv_values = weibull_survival(scenario, 1.0, 1, m)
        surv_se = surv_values.std() / math.sqrt(values.size)
        quad_surv = counterfactual_survival(scenario, 1, 0, 1.0, 20)
        assert abs(quad_surv - surv_values.mean()) < 3.0 * surv_se

    def test_survival_decreasing_in_t(self):
        scenario = HRScenario()
        values = [counterfactual_survival(scenario, 1, 0, t, 16) for t in (0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= 1.0 for v in values)


class TestHRMediation:
    def test_null_parameters_give_unit_ratios(self):
        result = hr_mediation_truth(HRScenario(beta_a=0.0, beta_m=0.0), 12)
        for effect in ("NDE", "NIE", "TE"):
            np.testing.assert_allclose(result.series[effect], 1.0, atol=1e-14)
            np.testing.assert_allclose(result[f"{effect}_avg"], 1.0, atol=1e-14)

    def test_equal_mediator_means_kill_nie(self):
        result = hr_mediation_truth(HRScenario(alpha_a=0.0), 12)
        np.testing.assert_allclose(result.series["NIE"], 1.0, atol=1e-14)

    def test_multiplicative_decomposition(self):
        result = hr_mediation_truth(HRScenario(), 20)
        nde, nie, te = (result.series[k] for k in ("NDE", "NIE", "TE"))
        assert np.max(np.abs(te - nde * nie)) < 1e-12

    def test_survival_underflow_guidance(self):
        scenario = HRScenario(t_grid=np.array([1.0, 10000.0]))
        with pytest.raises(NumericDomainError, match="t_grid upper bound"):
            hr_mediation_truth(scenario, 12)

    def test_non_finite_density_raises(self):
        # exp(100 m) overflows at the outer mediator nodes, so the density there is inf * 0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteEvaluationError, match="node index"):
                hr_mediation_truth(HRScenario(beta_m=100.0), 20)

    def test_series_and_averages_reported(self):
        scenario = HRScenario()
        result = hr_mediation_truth(scenario, 12)
        assert set(result.series) == {"t", "NDE", "NIE", "TE"}
        assert result.series["NDE"].shape == scenario.t_grid.shape
        assert set(result.components()) == {"NDE_avg", "NIE_avg", "TE_avg"}


class TestQuadratureConvergence:
    @pytest.mark.parametrize("truth_fn", [
        lambda k: marginal_prob(normal_scenario(), 1, k),
        lambda k: odds_ratio_truth(scenario_for_case(ClosedFormCase.EXPONENTIAL), k)["odds_ratio"],
        lambda k: rmst_mediation_truth(RMSTScenario(), k)["TE"],
        lambda k: hr_mediation_truth(HRScenario(t_grid=np.array([1.0])), k)["NDE_avg"],
    ], ids=["normal-prob", "exp-or", "rmst-te", "hr-nde"])
    def test_error_shrinks_toward_reference(self, truth_fn):
        # strict decrease until the deep-convergence region; past ~1e-9 the
        # sign-alternating quadrature error oscillates mildly (observed ~1.2x
        # upticks around 1e-11), so only systematic growth is ruled out there
        reference = truth_fn(40)
        errors = [abs(truth_fn(k) - reference) for k in range(2, 33, 2)]
        for previous, current in zip(errors, errors[1:]):
            if previous > 1e-9:
                assert current < previous
            else:
                assert current <= 3.0 * previous + 1e-13
        assert errors[-1] < max(errors[0] * 1e-3, 1e-13)
        # superlinear overall: fitted log-error slope is clearly negative
        usable = [(k, e) for k, e in zip(range(2, 33, 2), errors) if e > 0]
        ks = np.array([k for k, _ in usable], dtype=float)
        slope = np.polyfit(ks, np.log([e + 1e-18 for _, e in usable]), 1)[0]
        assert slope < -0.2


# ---------------------------------------------------------------------------
# The process-wide rule cache builds each (kind, level) once
# ---------------------------------------------------------------------------

CONFIG_DIR = Path(__file__).parent.parent / "configs"
SHIPPED = {path.stem: load_config(path) for path in sorted(CONFIG_DIR.glob("*.json"))}


def _builds(scenario):
    """Golub-Welsch builds of a truth call that starts from an empty rule cache.

    One per distinct (kind, level): independent confounders of one family
    share a rule, gamma ones only at one shape; an MVNormal's grid is one
    hermite rule.  The CDE's C rule and (U, L) grid share one hermite rule,
    as do RMST's two mediator arms and every time point of HR.
    """
    if isinstance(scenario, ConfoundingScenario) and not isinstance(scenario.confounders, MVNormal):
        return len({(d.family, getattr(d, "shape", None)) for d in scenario.confounders})
    return 1


#: (label, scenario, Golub-Welsch builds per truth call): every family, shipped and synthetic
BUILDS = [
    *((name, cfg.scenario, _builds(cfg.scenario)) for name, cfg in SHIPPED.items()),
    ("one-normal", normal_scenario(), 1),
    ("two-normal-alike", ConfoundingScenario(0.2, -0.4, np.array([0.3, -0.6]),
                                             (Normal(0.0, 1.0), Normal(0.0, 1.0))), 1),
    ("uniform-gamma", ConfoundingScenario(-0.5, 1.0, np.array([0.4, 0.2]),
                                          (Uniform(-1.0, 2.0), Gamma(2.5, 1.5))), 2),
    ("two-gamma-equal-shapes", ConfoundingScenario(0.3, -0.8, np.array([0.5, -0.2]),
                                                   (Gamma(2.5, 1.5), Gamma(2.5, 0.4))), 1),
    ("mvnormal-2", bivariate_scenario(), 1),
    ("mvnormal-3", ConfoundingScenario(0.0, 1.0, np.array([0.2, -0.1, 0.3]),
                                       MVNormal.of([1.0, 0.0, -1.0], np.eye(3) + 0.3)), 1),
    ("cde-identity", CDEScenario(), 1),
    ("cde-logit", CDEScenario(link="logit", beta=(-2.0, 0.5, 0.1, -0.1, 0.1, 0.2)), 1),
    ("rmst", RMSTScenario(), 1),
    ("rmst-equal-mediator-means", RMSTScenario(mu0=0.5, mu1=0.5), 1),
    ("hr", HRScenario(), 1),
]


CDES = [(label, s) for label, s, _ in BUILDS if isinstance(s, CDEScenario)]


def _truth(scenario, level=20):
    if isinstance(scenario, ConfoundingScenario):
        return odds_ratio_truth(scenario, level)
    if isinstance(scenario, CDEScenario):
        return cde_truth(scenario, level)
    if isinstance(scenario, HRScenario):
        return hr_mediation_truth(scenario, level)
    return rmst_mediation_truth(scenario, level)


@pytest.fixture
def rule_builds(monkeypatch):
    """The level of every Golub-Welsch build, recorded at ``truthquad.rules.eigh_tridiagonal``."""
    import truthquad.rules

    levels = []
    real = truthquad.rules.eigh_tridiagonal
    monkeypatch.setattr(truthquad.rules, "eigh_tridiagonal",
                        lambda diag, off: levels.append(len(diag)) or real(diag, off))
    return levels


class TestRuleBuildsPerProcess:
    @pytest.mark.parametrize("label,scenario,builds", BUILDS, ids=[b[0] for b in BUILDS])
    def test_each_distinct_rule_is_built_once(self, rule_builds, label, scenario, builds):
        _truth(scenario)
        assert rule_builds == [20] * builds

    @pytest.mark.parametrize("label,scenario,builds", BUILDS, ids=[b[0] for b in BUILDS])
    def test_a_repeated_call_builds_nothing(self, rule_builds, label, scenario, builds):
        first = _truth(scenario)
        second = _truth(scenario)
        assert second == first
        assert rule_builds == [20] * builds
        _truth(scenario, 7)  # another level is another key
        assert rule_builds == [20] * builds + [7] * builds

    def test_hr_truth_builds_one_rule_for_its_300_lookups(self, monkeypatch, rule_builds):
        import truthquad.scenarios

        lookups = []
        real = truthquad.scenarios.rule_for
        monkeypatch.setattr(truthquad.scenarios, "rule_for",
                            lambda dist, level: lookups.append(level) or real(dist, level))
        hr_mediation_truth(HRScenario(), 20)  # 3 arms x 50 time points x (density, survival)
        assert len(lookups) == 300
        assert rule_builds == [20]

    @pytest.mark.parametrize("label,scenario", CDES, ids=[c[0] for c in CDES])
    def test_cde_validates_and_factors_the_ul_covariance_once(self, monkeypatch, label, scenario):
        from truthquad.grids import CovSpec

        specs, factorisations = [], []
        post_init, eigh = CovSpec.__post_init__, np.linalg.eigh
        monkeypatch.setattr(CovSpec, "__post_init__", lambda self: specs.append(1) or post_init(self))
        monkeypatch.setattr(np.linalg, "eigh", lambda a: factorisations.append(1) or eigh(a))
        cde_truth(scenario, 20)
        assert (len(specs), len(factorisations)) == (1, 1)


CONFOUNDING = [(label, s) for label, s, _ in BUILDS if isinstance(s, ConfoundingScenario)]


class TestSharedRulesGiveTheSameBits:
    @pytest.mark.parametrize("decomposition", list(Decomposition))
    @pytest.mark.parametrize("label,scenario", CONFOUNDING, ids=[c[0] for c in CONFOUNDING])
    def test_odds_ratio_arms_are_marginal_prob(self, label, scenario, decomposition):
        result = odds_ratio_truth(scenario, 20, decomposition)
        assert result["p0"] == marginal_prob(scenario, 0, 20, decomposition)
        assert result["p1"] == marginal_prob(scenario, 1, 20, decomposition)

    @staticmethod
    def cde_arm(scenario, a, level):
        """E[Y(a, m)] from rules built for this arm alone."""
        b0, b1, b2, b3, b4, b5 = scenario.beta
        c_rule = rule_for(scenario.c_dist, level)
        ul_grid = rule_for(MVNormal(scenario.joint_ul(a)), level)
        u, ell = ul_grid.points[:, 0], ul_grid.points[:, 1]
        ul_part = b0 + b1 * a + b2 * scenario.m + b4 * ell + b5 * u
        inner = scenario.inverse_link(b3 * c_rule.nodes[:, None] + ul_part[None, :]) @ ul_grid.weights
        return float(c_rule.weights @ inner)

    @pytest.mark.parametrize("level", [5, 20])
    @pytest.mark.parametrize("label,scenario",
                             [(label, s) for label, s, _ in BUILDS if isinstance(s, CDEScenario)])
    def test_cde_arms_match_per_arm_rules(self, label, scenario, level):
        result = cde_truth(scenario, level)
        assert result["mean_a"] == self.cde_arm(scenario, scenario.a, level)
        assert result["mean_a_star"] == self.cde_arm(scenario, scenario.a_star, level)

    @pytest.mark.parametrize("level", [5, 20])
    @pytest.mark.parametrize("label,scenario",
                             [(label, s) for label, s, _ in BUILDS if isinstance(s, RMSTScenario)])
    def test_rmst_means_match_per_arm_rules(self, label, scenario, level):
        def mean(a, a_star):
            rule = rule_for(Normal(scenario.mediator_mean(a_star), 1.0), level)
            return float(rule.weights @ rmst_from_log_rate(scenario.tau, scenario.log_rate(a, rule.nodes)))

        result = rmst_mediation_truth(scenario, level)
        assert (result["mu11"], result["mu00"], result["mu10"]) == (mean(1, 1), mean(0, 0), mean(1, 0))
