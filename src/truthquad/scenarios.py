"""The four data-generating scenarios and their quadrature truth computations.

Each scenario packages a data-generating mechanism together with the
integrands needed to marginalize counterfactual quantities over confounder or
mediator distributions:

    ConfoundingScenario  logistic outcome, confounders integrated out,
                         marginal probabilities and the marginal odds ratio
    CDEScenario          controlled direct effect with an intermediate L
                         confounded by U; triple integral over (C, U, L)
    RMSTScenario         restricted mean survival time mediation with an
                         exponential time-to-event; TE / NDE / NIE
    HRScenario           hazard-ratio mediation with a Weibull time-to-event;
                         counterfactual densities and survival via the
                         mediation formula, ratios per time point

Scenario objects are immutable and the truth computations are pure, so they
can run concurrently without coordination.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Union

import numpy as np

from .distributions import MVNormal, Normal, rule_for
from .errors import NumericDomainError, ValidationError
# rotate_grid is not called here; perfbench/tracing.py wraps this name on this module
from .grids import (
    CovSpec,
    Decomposition,
    GridND,
    _sqrt_factor,
    integrate_nd,
    product_grid,
    rotate_grid,
    tensor_grid,
)
from .rules import Rule1D, integrate_1d
from .special import ClosedFormCase, expit

Confounders = Union[tuple, MVNormal]


@dataclass(frozen=True)
class TruthResult:
    """A quadrature truth: named components (e.g. p0/p1/odds_ratio) with method metadata.

    ``series`` holds per-time-point arrays for the HR truth.  Monte Carlo
    results are ``mc.MCSummary`` records, one per estimand.
    """

    value: Mapping[str, float]
    method: str
    level: int | None = None
    decomposition: str | None = None
    series: Mapping[str, np.ndarray] | None = field(default=None, compare=False)

    def components(self) -> dict[str, float]:
        return dict(self.value)

    def __getitem__(self, key: str) -> float:
        return self.value[key]


def _odds_ratio(p1: float, p0: float) -> float:
    for name, p in (("p0", p0), ("p1", p1)):
        if not 0.0 < p < 1.0:
            raise NumericDomainError(f"degenerate probability {name} = {p!r}; odds ratio undefined")
    return (p1 / (1.0 - p1)) / (p0 / (1.0 - p0))


# ---------------------------------------------------------------------------
# Confounding: marginal odds ratio
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfoundingScenario:
    """Logistic outcome P(Y=1 | A, C) = expit(beta0 + beta1 A + beta2' C).

    ``confounders`` is either a tuple of independent univariate distributions
    or a single MVNormal.
    """

    beta0: float
    beta1: float
    beta2: np.ndarray
    confounders: Confounders

    def __post_init__(self) -> None:
        beta2 = np.atleast_1d(np.asarray(self.beta2, dtype=float))
        beta2.setflags(write=False)
        object.__setattr__(self, "beta2", beta2)
        if isinstance(self.confounders, MVNormal):
            dim = self.confounders.dim
        else:
            conf = tuple(self.confounders)
            object.__setattr__(self, "confounders", conf)
            if not conf:
                raise ValidationError("at least one confounder is required")
            if any(isinstance(d, MVNormal) for d in conf):
                raise ValidationError("independent confounders must be univariate; pass one MVNormal instead")
            dim = len(conf)
        if beta2.size != dim:
            raise ValidationError(f"beta2 length {beta2.size} does not match confounder dimension {dim}")

    @property
    def dim(self) -> int:
        return self.beta2.size

    def linear(self, a: int, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """beta0 + beta1 a + beta2' c, into ``out`` when given: the scalar shift is added last."""
        c = np.asarray(c, dtype=float)
        if self.dim == 1 and c.ndim <= 1:
            lin = np.multiply(c, self.beta2[0], out=out)
        else:
            lin = np.matmul(c, self.beta2, out=out)
        lin += self.beta0 + self.beta1 * a
        return lin

    def prob(self, a: int, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Conditional outcome probability expit(beta0 + beta1 a + beta2' c), into ``out`` when given."""
        return expit(self.linear(a, c, out), out=out)

    def draw_confounders(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if isinstance(self.confounders, MVNormal):
            return self.confounders.draw(rng, n)
        if self.dim == 1:
            return self.confounders[0].draw(rng, n)
        c = np.empty((n, self.dim))
        for j, dist in enumerate(self.confounders):
            c[:, j] = dist.draw(rng, n)
        return c


def _confounder_grid(scenario: ConfoundingScenario, level: int, decomposition: Decomposition) -> GridND:
    """The quadrature grid over the confounders: a product of per-confounder rules, or a rotated grid."""
    if isinstance(scenario.confounders, MVNormal):
        return rule_for(scenario.confounders, level, decomposition)
    return product_grid([rule_for(d, level) for d in scenario.confounders])


def marginal_prob(scenario: ConfoundingScenario, a: int, level: int,
                  decomposition: Decomposition = Decomposition.SPECTRAL) -> float:
    """Marginal potential-outcome probability P(Y(a) = 1) by quadrature."""
    grid = _confounder_grid(scenario, level, decomposition)
    return integrate_nd(grid, lambda pts: scenario.prob(a, pts))


def odds_ratio_truth(scenario: ConfoundingScenario, level: int,
                     decomposition: Decomposition = Decomposition.SPECTRAL) -> TruthResult:
    """Marginal odds ratio (and both arm probabilities) by quadrature on one confounder grid."""
    grid = _confounder_grid(scenario, level, decomposition)
    p0 = integrate_nd(grid, lambda pts: scenario.prob(0, pts))
    p1 = integrate_nd(grid, lambda pts: scenario.prob(1, pts))
    value = {"p0": p0, "p1": p1, "odds_ratio": _odds_ratio(p1, p0)}
    return TruthResult(value=value, method="quadrature",
                       level=level, decomposition=Decomposition(decomposition).value)


def scenario_for_case(case: ClosedFormCase) -> ConfoundingScenario:
    """The frozen confounding scenario behind a closed-form case."""
    from .distributions import Exponential, Gamma, Uniform

    case = ClosedFormCase(case)
    if case is ClosedFormCase.UNIFORM:
        confounders = (Uniform(-2.0, 2.0), Uniform(-4.0, 0.0))
    elif case is ClosedFormCase.EXPONENTIAL:
        confounders = (Exponential(1.0), Exponential(2.0))
    else:
        # rate 1/2 (scale 2) so that 0.5 C1 + 0.5 C2 ~ Ga(5, rate 1), which is
        # what the zeta/Li5 closed forms are exact for
        confounders = (Gamma(1.0, 0.5), Gamma(4.0, 0.5))
    return ConfoundingScenario(beta0=0.0, beta1=-1.0, beta2=np.array([0.5, 0.5]),
                               confounders=confounders)


# ---------------------------------------------------------------------------
# Controlled direct effect
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LModel:
    """Structural equation L = intercept + a_coef * a + u_coef * U + eps, eps ~ N(0, sigma2)."""

    intercept: float = 15.0
    a_coef: float = 1.0
    u_coef: float = 0.1
    sigma2: float = 1.0

    def __post_init__(self) -> None:
        if not self.sigma2 > 0.0:
            raise ValidationError(f"residual variance must be positive, got {self.sigma2}")


@dataclass(frozen=True)
class CDEScenario:
    """Controlled direct effect E[Y(a, m)] - E[Y(a*, m)].

    Outcome model E[Y | C, A, L, M, U] = g^{-1}(b0 + b1 A + b2 M + b3 C +
    b4 L + b5 U) with identity or logit link.  C is independent of (U, L);
    U causes L, so (U, L) given a are jointly normal and are marginalized
    with a single spectral-rotated 2-D grid.

    Defaults put b1 + b4 = 12 so the identity-link truth is 12.
    """

    link: str = "identity"
    beta: tuple[float, ...] = (0.0, 8.0, 1.0, 0.5, 4.0, 0.25)
    a: int = 1
    a_star: int = 0
    m: float = 0.0
    c_dist: Normal = Normal(-10.0, 1.0)
    u_dist: Normal = Normal(3.0, 1.0)
    l_model: LModel = LModel()

    def __post_init__(self) -> None:
        if self.link not in ("identity", "logit"):
            raise ValidationError(f"link must be 'identity' or 'logit', got {self.link!r}")
        if len(self.beta) != 6:
            raise ValidationError(f"beta must have six entries b0..b5, got {len(self.beta)}")
        if self.a == self.a_star:
            raise ValidationError("a and a_star must differ")
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))

    def inverse_link(self, lin: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """g^{-1}(lin); with ``out`` (which may be ``lin`` itself) the result is written there."""
        if self.link == "logit":
            return expit(lin, out=out)
        if out is None or out is lin:
            return lin
        np.copyto(out, lin)
        return out

    def ul_mean(self, a: int) -> np.ndarray:
        """Mean of (U, L) given treatment a."""
        lm = self.l_model
        mu_u = self.u_dist.mu
        return np.array([mu_u, lm.intercept + lm.a_coef * a + lm.u_coef * mu_u])

    def joint_ul(self, a: int) -> CovSpec:
        """Mean and covariance of (U, L) given treatment a; the covariance is the same for every a."""
        lm = self.l_model
        s2_u = self.u_dist.sigma2
        cov = np.array([
            [s2_u, lm.u_coef * s2_u],
            [lm.u_coef * s2_u, lm.u_coef**2 * s2_u + lm.sigma2],
        ])
        return CovSpec(self.ul_mean(a), cov)


def cde_arm_mean(scenario: CDEScenario, a: int, c_rule: Rule1D, ul_offsets: np.ndarray,
                 ul_weights: np.ndarray) -> float:
    """E[Y(a, m)]: ``c_rule`` over C times the (U, L) | a grid, whose points are a's mean plus ``ul_offsets``.

    ``ul_offsets`` are the standard 2-D grid's points times the spectral square
    root of the (U, L) covariance, as ``rotate_grid`` forms them.
    """
    b0, b1, b2, b3, b4, b5 = scenario.beta
    points = scenario.ul_mean(a) + ul_offsets
    u = points[:, 0]
    ell = points[:, 1]
    ul_part = b0 + b1 * a + b2 * scenario.m + b4 * ell + b5 * u
    # (K, K^2) linear predictor; inner reduction over the (U, L) grid first
    return integrate_1d(c_rule, lambda c: scenario.inverse_link(b3 * c[:, None] + ul_part[None, :])
                        @ ul_weights)


def cde_truth(scenario: CDEScenario, level: int) -> TruthResult:
    """Controlled direct effect by a K^3-point quadrature.

    Both arms share the C rule and the standard (U, L) grid, and the arm-free
    (U, L) covariance is validated and factored once; each arm adds only its
    own mean.
    """
    c_rule = rule_for(scenario.c_dist, level)
    standard_ul = tensor_grid(level, 2)
    factor = _sqrt_factor(scenario.joint_ul(scenario.a), Decomposition.SPECTRAL)
    ul_offsets = standard_ul.points @ factor.T
    mean_a = cde_arm_mean(scenario, scenario.a, c_rule, ul_offsets, standard_ul.weights)
    mean_a_star = cde_arm_mean(scenario, scenario.a_star, c_rule, ul_offsets, standard_ul.weights)
    value = {"mean_a": mean_a, "mean_a_star": mean_a_star, "cde": mean_a - mean_a_star}
    return TruthResult(value=value, method="quadrature",
                       level=level, decomposition=Decomposition.SPECTRAL.value)


# ---------------------------------------------------------------------------
# RMST mediation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RMSTScenario:
    """Exponential time-to-event with rate exp(beta0 + A beta_a + M beta_m).

    The mediator is M | (A=a) ~ N(mu_a, 1); truth targets are the restricted
    mean survival time contrasts TE / NDE / NIE at horizon tau.
    """

    mu0: float = 0.0
    mu1: float = -1.0
    beta0: float = -1.0
    beta_a: float = -0.5
    beta_m: float = 0.4
    tau: float = 3.0

    def __post_init__(self) -> None:
        if not self.tau > 0.0:
            raise ValidationError(f"tau must be positive, got {self.tau}")

    def mediator_mean(self, a: int) -> float:
        return self.mu1 if a == 1 else self.mu0

    def log_rate(self, a: int, m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """beta0 + a beta_a + m beta_m, into ``out`` when given: the scalar shift is added last."""
        lin = np.multiply(np.asarray(m, dtype=float), self.beta_m, out=out)
        lin += self.beta0 + a * self.beta_a
        return lin


def rmst(tau: float, lam, out: np.ndarray | None = None) -> float | np.ndarray:
    """Restricted mean survival time of an exponential: (1 - exp(-lam*tau)) / lam.

    Uses expm1 so small and large rates both evaluate without cancellation or
    overflow.  A zero rate (e.g. exp of a very negative log-rate) gives the
    limit tau.  With ``out`` the result is written there and ``out`` is
    returned.
    """
    if not tau > 0.0:
        raise ValidationError(f"tau must be positive, got {tau}")
    lam = np.asarray(lam, dtype=float)
    if not np.all(lam >= 0.0):
        raise ValidationError("rate must be non-negative")
    # -expm1(-lam tau) / lam, one buffer updated in place; lam * -tau has the bits of -lam * tau
    res = np.multiply(lam, -tau, out=np.empty_like(lam) if out is None else out)
    np.expm1(res, out=res)
    np.negative(res, out=res)
    positive = lam > 0.0
    np.divide(res, lam, out=res, where=positive)
    np.copyto(res, tau, where=~positive)
    return float(res) if res.ndim == 0 and out is None else res


def rmst_from_log_rate(tau: float, log_rate, out: np.ndarray | None = None) -> float | np.ndarray:
    """``rmst(tau, exp(log_rate))`` without overflow warnings; ``out`` may be ``log_rate`` itself.

    An infinite rate gives the limit 0, and one whose product with tau overflows gives 1 / rate.
    """
    with np.errstate(over="ignore"):
        return rmst(tau, np.exp(log_rate), out=out)


def rmst_arm_mean(scenario: RMSTScenario, a: int, rule: Rule1D) -> float:
    """Counterfactual RMST mean E_{M(a*)}[mu(tau; a, M(a*))], ``rule`` being the rule for M(a*)."""
    return integrate_1d(rule, lambda m: rmst_from_log_rate(scenario.tau, scenario.log_rate(a, m)))


def rmst_mediation_truth(scenario: RMSTScenario, level: int) -> TruthResult:
    """TE / NDE / NIE on the RMST scale; TE = NDE + NIE by construction."""
    rule1 = rule_for(Normal(scenario.mediator_mean(1), 1.0), level)  # M(1); mu00 and mu10 share M(0)'s
    rule0 = rule_for(Normal(scenario.mediator_mean(0), 1.0), level)
    mu11 = rmst_arm_mean(scenario, 1, rule1)
    mu00 = rmst_arm_mean(scenario, 0, rule0)
    mu10 = rmst_arm_mean(scenario, 1, rule0)
    value = {
        "mu11": mu11, "mu00": mu00, "mu10": mu10,
        "TE": mu11 - mu00, "NDE": mu10 - mu00, "NIE": mu11 - mu10,
    }
    return TruthResult(value=value, method="quadrature", level=level)


# ---------------------------------------------------------------------------
# Hazard-ratio mediation
# ---------------------------------------------------------------------------

def _default_t_grid() -> np.ndarray:
    return np.linspace(0.1, 5.0, 50)


@dataclass(frozen=True)
class HRScenario:
    """Weibull time-to-event mediation on the hazard-ratio scale.

    M(a) ~ N(alpha0 - alpha_a * a, 1); T | (a, m) is Weibull with shape gamma,
    scale lam and proportional factor exp(beta_a a + beta_m m).  Effects are
    ratios of counterfactual hazards evaluated across ``t_grid`` and also
    averaged over it (trapezoid weights).
    """

    alpha0: float = 0.0
    alpha_a: float = 1.0
    gamma: float = 1.5
    lam: float = 2.0
    beta_a: float = -0.3
    beta_m: float = 0.5
    t_grid: np.ndarray = field(default_factory=_default_t_grid)

    def __post_init__(self) -> None:
        if not self.gamma > 0.0:
            raise ValidationError(f"gamma must be positive, got {self.gamma}")
        if not self.lam > 0.0:
            raise ValidationError(f"lam must be positive, got {self.lam}")
        t = np.atleast_1d(np.asarray(self.t_grid, dtype=float))
        if t.size == 0 or np.any(t <= 0.0) or np.any(np.diff(t) <= 0.0):
            raise ValidationError("t_grid must be non-empty, positive, strictly increasing")
        t.setflags(write=False)
        object.__setattr__(self, "t_grid", t)

    def mediator_mean(self, a: int) -> float:
        return self.alpha0 - self.alpha_a * a

    def _scale_factor(self, a: int, m, out: np.ndarray | None = None) -> np.ndarray:
        """exp(beta_a a + beta_m m), into ``out`` when given."""
        lin = np.multiply(np.asarray(m, dtype=float), self.beta_m, out=out)
        lin += self.beta_a * a
        return np.exp(lin, out=out)

    def _baseline_hazard(self, t):
        return (self.gamma / self.lam) * (t / self.lam) ** (self.gamma - 1.0)

    def _survival(self, t, z, out: np.ndarray | None = None):
        """exp(-(t / lam)^gamma z), broadcast over t and z, into ``out`` when given."""
        return np.exp(np.multiply(-((t / self.lam) ** self.gamma), z, out=out), out=out)


def _check_t(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0):
        raise ValidationError(f"t must be positive, got {t[t <= 0.0] if t.ndim else t}")
    return t


def weibull_density(scenario: HRScenario, t, a: int, m) -> float | np.ndarray:
    """Conditional density f(t | a, m) = hazard(t) * survival(t); broadcasts over t or m."""
    t = _check_t(t)
    z = scenario._scale_factor(a, m)
    out = scenario._baseline_hazard(t) * z * scenario._survival(t, z)
    return float(out) if out.ndim == 0 else out


def weibull_survival(scenario: HRScenario, t, a: int, m) -> float | np.ndarray:
    """Conditional survival S(t | a, m); broadcasts over t or m."""
    t = _check_t(t)
    out = scenario._survival(t, scenario._scale_factor(a, m))
    return float(out) if out.ndim == 0 else out


def weibull_hazard(scenario: HRScenario, t, a: int, m) -> float | np.ndarray:
    """Conditional hazard lambda(t | a, m); broadcasts over t or m."""
    t = _check_t(t)
    out = scenario._baseline_hazard(t) * scenario._scale_factor(a, m)
    return float(out) if out.ndim == 0 else out


def _mediator_rule(scenario: HRScenario, a_prime: int, level: int) -> Rule1D:
    return rule_for(Normal(scenario.mediator_mean(a_prime), 1.0), level)


def counterfactual_density(scenario: HRScenario, a: int, a_prime: int, t: float, level: int) -> float:
    """Density of T(a, M(a')) at t via the mediation formula (integral over M(a'))."""
    rule = _mediator_rule(scenario, a_prime, level)
    return integrate_1d(rule, lambda m: weibull_density(scenario, t, a, m))


def counterfactual_survival(scenario: HRScenario, a: int, a_prime: int, t: float, level: int) -> float:
    """Survival of T(a, M(a')) at t by iterated expectation."""
    rule = _mediator_rule(scenario, a_prime, level)
    return integrate_1d(rule, lambda m: weibull_survival(scenario, t, a, m))


def counterfactual_hazard(scenario: HRScenario, a: int, a_prime: int, t: float, level: int) -> float:
    """Hazard of the nested counterfactual: density over survival."""
    surv = counterfactual_survival(scenario, a, a_prime, t, level)
    if surv < 1e-300:
        raise NumericDomainError(
            f"counterfactual survival underflowed at t = {t}; use a smaller t_grid upper bound"
        )
    return counterfactual_density(scenario, a, a_prime, t, level) / surv


def hr_mediation_truth(scenario: HRScenario, level: int) -> TruthResult:
    """NDE(t), NIE(t), TE(t) across the time grid plus trapezoid-weighted averages.

    TE(t) = NDE(t) * NIE(t) holds at every t because all three are ratios of
    the same three counterfactual hazards.
    """
    t_grid = scenario.t_grid
    hazards = {}
    for key in ((1, 0), (0, 0), (1, 1)):
        hazards[key] = np.array([counterfactual_hazard(scenario, key[0], key[1], t, level)
                                 for t in t_grid])
    nde = hazards[(1, 0)] / hazards[(0, 0)]
    nie = hazards[(1, 1)] / hazards[(1, 0)]
    te = hazards[(1, 1)] / hazards[(0, 0)]

    def time_average(values: np.ndarray) -> float:
        if t_grid.size == 1:
            return float(values[0])
        return float(np.trapezoid(values, t_grid) / (t_grid[-1] - t_grid[0]))

    value = {
        "NDE_avg": time_average(nde),
        "NIE_avg": time_average(nie),
        "TE_avg": time_average(te),
    }
    series = {"t": t_grid, "NDE": nde, "NIE": nie, "TE": te}
    return TruthResult(value=value, method="quadrature", level=level, series=series)
