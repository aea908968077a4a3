"""Monte Carlo baselines: potential-outcome simulation and MC integration.

Both methods repeat an estimation ``n_reps`` times; repetition r draws from an
independent PCG64 stream seeded with ``seed_base + r``, so a summary is a pure
function of (scenario, config) and is reproducible across worker counts.
Within one repetition both treatment arms share the same confounder draws
(and, for potential-outcome simulation, the same uniforms behind the Bernoulli
draws), which is what keeps the arm contrast tight.  For the confounding
scenario one pass (``mc_confounding``) serves both arms and the odds ratio, so
each repetition's confounders are drawn once.

A repetition makes all of its draws first, with the same generator calls in
the same order as an unblocked pass, and then evaluates its integrand over
blocks of ``BLOCK`` draws, accumulating per-block sums (and, for the
confounding within-rep SE, per-block deviations merged by Chan's formula).
So a repetition's memory is about the size of its draws, and its estimates
match a whole-array evaluation up to summation order (about 1e-14 relative).

Prediction intervals are empirical 2.5/97.5 percentiles of the per-rep
estimates by default; ``interval="normal"`` switches to mean +/- 1.96 sd.
"""
from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .distributions import BLOCK, blocks  # BLOCK is re-exported as these passes' block size
from .errors import ValidationError
from .scenarios import (
    CDEScenario,
    ConfoundingScenario,
    HRScenario,
    RMSTScenario,
    TruthResult,
    _check_t,
    _odds_ratio,
    rmst_from_log_rate,
    weibull_density,  # unused here; perfbench/tracing.py SITES wraps these two names on this module
    weibull_survival,
)


@dataclass(frozen=True)
class MCConfig:
    n_samples: int
    n_reps: int
    seed_base: int

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValidationError(f"n_samples must be >= 1, got {self.n_samples}")
        if self.n_reps < 1:
            raise ValidationError(f"n_reps must be >= 1, got {self.n_reps}")


@dataclass(eq=False)
class MCSummary:
    """Per-repetition estimates of one estimand plus their summary statistics."""

    estimand: str
    estimates: np.ndarray
    mean: float
    sd: float
    se_of_mean: float
    interval: tuple[float, float]
    seconds_per_rep: float
    n_samples: int
    n_reps: int
    seed_base: int
    within_rep_se: np.ndarray | None = None
    rep_seconds: np.ndarray | None = None

    def same_estimates(self, other: "MCSummary") -> bool:
        return self.estimand == other.estimand and np.array_equal(self.estimates, other.estimates)


def _summarize(estimand: str, estimates: np.ndarray, seconds: np.ndarray, cfg: MCConfig,
               within: np.ndarray | None = None, interval: str = "empirical") -> MCSummary:
    estimates = np.asarray(estimates, dtype=float)
    seconds = np.asarray(seconds, dtype=float)
    mean = float(estimates.mean())
    sd = float(estimates.std(ddof=1)) if estimates.size > 1 else 0.0
    if interval == "empirical":
        lo, hi = np.percentile(estimates, [2.5, 97.5])
    elif interval == "normal":
        lo, hi = mean - 1.96 * sd, mean + 1.96 * sd
    else:
        raise ValidationError(f"interval must be 'empirical' or 'normal', got {interval!r}")
    return MCSummary(
        estimand=estimand,
        estimates=estimates,
        mean=mean,
        sd=sd,
        se_of_mean=sd / np.sqrt(estimates.size) if estimates.size > 1 else 0.0,
        interval=(float(lo), float(hi)),
        seconds_per_rep=float(seconds.mean()),
        n_samples=cfg.n_samples,
        n_reps=cfg.n_reps,
        seed_base=cfg.seed_base,
        within_rep_se=within,
        rep_seconds=seconds,
    )


def _run_reps(rep_fn: Callable[[np.random.Generator], Mapping[str, float]],
              cfg: MCConfig, jobs: int = 1) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """Run ``rep_fn`` once per repetition; returns per-key estimate arrays and per-rep seconds."""
    def one(rep: int) -> tuple[Mapping[str, float], float]:
        rng = np.random.default_rng(cfg.seed_base + rep)
        t0 = time.perf_counter()
        result = rep_fn(rng)
        return result, time.perf_counter() - t0

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(one, range(cfg.n_reps)))
    else:
        outcomes = [one(rep) for rep in range(cfg.n_reps)]

    keys = list(outcomes[0][0].keys())
    columns = {k: np.array([out[0][k] for out in outcomes]) for k in keys}
    seconds = np.array([out[1] for out in outcomes])
    return columns, seconds


def _block_mean(n: int, values: Callable[[slice], np.ndarray]) -> float:
    """Mean of ``values(rows)`` over ``blocks(n)``, one block in memory at a time."""
    return sum(float(values(rows).sum()) for rows in blocks(n)) / n


def _block_mean_se(n: int, values: Callable[[slice], np.ndarray]) -> tuple[float, float]:
    """Mean and its standard error std(ddof=1) / sqrt(n) of ``values(rows)`` over ``blocks(n)``.

    Each block's sum of squared deviations from its own mean is merged into
    the running one with Chan, Golub & LeVeque's pairwise update, which keeps
    the variance as accurate as a two-pass computation over the whole array.
    """
    count, total, m2 = 0, 0.0, 0.0
    for rows in blocks(n):
        x = values(rows)
        size, block_total = x.size, float(x.sum())
        dev = x - block_total / size
        m2 += float(dev @ dev)
        if count:
            delta = block_total / size - total / count
            m2 += delta * delta * count * size / (count + size)
        count += size
        total += block_total
    se = math.sqrt(m2 / (n - 1)) / math.sqrt(n) if n > 1 else math.nan
    return total / n, se


# ---------------------------------------------------------------------------
# Confounding scenario
# ---------------------------------------------------------------------------

def mc_confounding(scenario: ConfoundingScenario, cfg: MCConfig, jobs: int = 1,
                   interval: str = "empirical", simulate: bool = False) -> dict[str, MCSummary]:
    """P(Y^0=1), P(Y^1=1) and their plug-in odds ratio from one pass of draws.

    Per repetition the confounders are drawn once and serve both arms and the
    odds ratio.  By default (MC integration) each arm averages the outcome
    probability, with within-rep SE std / sqrt(N); ``simulate=True`` instead
    averages Bernoulli potential outcomes drawn from one shared set of
    uniforms, with the Bernoulli within-rep SE.  Keys: p0, p1, odds_ratio.
    """
    n = cfg.n_samples

    def rep(rng: np.random.Generator) -> dict[str, float]:
        c = scenario.draw_confounders(rng, n)
        out = {}
        if simulate:
            u = rng.random(n)
            for a in (0, 1):
                # a count of successes, so the mean is exact whatever the blocks
                p = _block_mean(n, lambda rows: u[rows] < scenario.prob(a, c[rows]))
                out[f"p{a}"], out[f"p{a}_se"] = p, np.sqrt(p * (1.0 - p) / n)
        else:
            for a in (0, 1):
                out[f"p{a}"], out[f"p{a}_se"] = _block_mean_se(n, lambda rows: scenario.prob(a, c[rows]))
        out["odds_ratio"] = _odds_ratio(out["p1"], out["p0"])
        return out

    cols, seconds = _run_reps(rep, cfg, jobs)
    return {k: _summarize(k, cols[k], seconds, cfg, within=cols.get(f"{k}_se"), interval=interval)
            for k in ("p0", "p1", "odds_ratio")}


def potential_outcome_sim(scenario: ConfoundingScenario, a: int, cfg: MCConfig,
                          jobs: int = 1, interval: str = "empirical") -> MCSummary:
    """Simulated Bernoulli potential outcomes under arm ``a``, averaged per repetition."""
    return mc_confounding(scenario, cfg, jobs, interval, simulate=True)[f"p{a}"]


def po_odds_ratio(scenario: ConfoundingScenario, cfg: MCConfig,
                  jobs: int = 1, interval: str = "empirical") -> MCSummary:
    """Plug-in odds ratio from potential-outcome simulation (shared draws per rep)."""
    return mc_confounding(scenario, cfg, jobs, interval, simulate=True)["odds_ratio"]


def mc_marginal_prob(scenario: ConfoundingScenario, a: int, cfg: MCConfig,
                     jobs: int = 1, interval: str = "empirical") -> MCSummary:
    """MC integration of the marginal probability under arm ``a``."""
    return mc_confounding(scenario, cfg, jobs, interval)[f"p{a}"]


def mc_odds_ratio(scenario: ConfoundingScenario, cfg: MCConfig,
                  jobs: int = 1, interval: str = "empirical") -> MCSummary:
    """Plug-in odds ratio from MC integration; arms share confounder draws."""
    return mc_confounding(scenario, cfg, jobs, interval)["odds_ratio"]


# ---------------------------------------------------------------------------
# CDE scenario
# ---------------------------------------------------------------------------

def mc_cde(scenario: CDEScenario, cfg: MCConfig, jobs: int = 1,
           interval: str = "empirical") -> dict[str, MCSummary]:
    """MC integration of both CDE arm means; exogenous draws shared across arms."""
    b0, b1, b2, b3, b4, b5 = scenario.beta
    lm = scenario.l_model
    n = cfg.n_samples

    def rep(rng: np.random.Generator) -> dict[str, float]:
        c = scenario.c_dist.draw(rng, n)
        u = scenario.u_dist.draw(rng, n)
        eps = rng.normal(0.0, np.sqrt(lm.sigma2), n)

        def outcome(rows: slice, a: int) -> np.ndarray:
            ell = lm.intercept + lm.a_coef * a + lm.u_coef * u[rows] + eps[rows]
            lin = b0 + b1 * a + b2 * scenario.m + b3 * c[rows] + b4 * ell + b5 * u[rows]
            return scenario.inverse_link(lin)

        out = {label: _block_mean(n, lambda rows: outcome(rows, a))
               for label, a in (("mean_a", scenario.a), ("mean_a_star", scenario.a_star))}
        out["cde"] = out["mean_a"] - out["mean_a_star"]
        return out

    cols, seconds = _run_reps(rep, cfg, jobs)
    return {k: _summarize(k, v, seconds, cfg, interval=interval) for k, v in cols.items()}


# ---------------------------------------------------------------------------
# RMST scenario (the pseudocode of the MC-integration algorithm, per repetition)
# ---------------------------------------------------------------------------

def mc_rmst_mediation(scenario: RMSTScenario, cfg: MCConfig, jobs: int = 1,
                      interval: str = "empirical") -> dict[str, MCSummary]:
    """MC integration of the RMST mediation estimands.

    Per repetition: draw N mediators under each arm, evaluate the expected
    RMST under the three (a, M(a*)) combinations, average, and combine into
    TE / NDE / NIE.
    """
    n = cfg.n_samples

    def rep(rng: np.random.Generator) -> dict[str, float]:
        m1 = rng.normal(scenario.mu1, 1.0, n)
        m0 = rng.normal(scenario.mu0, 1.0, n)
        mu11, mu00, mu10 = (
            _block_mean(n, lambda rows: rmst_from_log_rate(scenario.tau, scenario.log_rate(a, m[rows])))
            for a, m in ((1, m1), (0, m0), (1, m0)))
        return {"mu11": mu11, "mu00": mu00, "mu10": mu10,
                "TE": mu11 - mu00, "NDE": mu10 - mu00, "NIE": mu11 - mu10}

    cols, seconds = _run_reps(rep, cfg, jobs)
    return {k: _summarize(k, v, seconds, cfg, interval=interval) for k, v in cols.items()}


# ---------------------------------------------------------------------------
# HR scenario
# ---------------------------------------------------------------------------

def mc_hr_mediation(scenario: HRScenario, cfg: MCConfig,
                    t_values: Sequence[float] | None = None, jobs: int = 1,
                    interval: str = "empirical") -> dict[tuple[str, float], MCSummary]:
    """Per-time-point hazard-ratio effects by MC integration.

    Per repetition the mediator draws are shared across time points and arm
    combinations, and each ratio is formed by plug-in from the rep's own
    density and survival means.  Keys are (effect, t).  Each block evaluates
    the survival at every t at once, so it holds a (len(t), BLOCK) array.
    """
    ts = _check_t(t_values if t_values is not None else scenario.t_grid)
    n = cfg.n_samples

    def rep(rng: np.random.Generator) -> dict[tuple[str, float], float]:
        m0 = rng.normal(scenario.mediator_mean(0), 1.0, n)
        m1 = rng.normal(scenario.mediator_mean(1), 1.0, n)
        haz = {}
        for arms, m in (((1, 0), m0), ((0, 0), m0), ((1, 1), m1)):
            # the hazard is h0(t) * sum(z S) / sum(S), with S of shape (len(t), block)
            zs_sum = s_sum = 0.0
            for rows in blocks(n):
                z = scenario._scale_factor(arms[0], m[rows])
                s = scenario._survival(ts[:, None], z)
                zs_sum = zs_sum + s @ z
                s_sum = s_sum + s.sum(axis=1)
            haz[arms] = scenario._baseline_hazard(ts) * zs_sum / s_sum
        out: dict[tuple[str, float], float] = {}
        for i, t in enumerate(ts):
            out[("NDE", float(t))] = haz[1, 0][i] / haz[0, 0][i]
            out[("NIE", float(t))] = haz[1, 1][i] / haz[1, 0][i]
            out[("TE", float(t))] = haz[1, 1][i] / haz[0, 0][i]
        return out

    cols, seconds = _run_reps(rep, cfg, jobs)
    return {k: _summarize(f"{k[0]}(t={k[1]:g})", v, seconds, cfg, interval=interval)
            for k, v in cols.items()}


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Comparison:
    """Quadrature value against an MC summary for the same estimand."""

    estimand: str
    quad_value: float
    mc_mean: float
    mc_sd: float
    mc_se: float
    interval: tuple[float, float]
    abs_diff: float
    rel_diff: float
    z_score: float
    inside_interval: bool


def compare(quad: TruthResult, mc: MCSummary, key: str | None = None) -> Comparison:
    """Absolute/relative gaps, SE-normalized z-score, and interval membership.

    ``key`` selects a component when the quadrature result is a map; it
    defaults to the MC summary's estimand name.
    """
    components = quad.components()
    key = key if key is not None else mc.estimand
    if key not in components:
        raise ValidationError(
            f"estimand mismatch: quadrature result {quad.estimand!r} has components "
            f"{sorted(components)}, MC summary is for {mc.estimand!r}"
        )
    qv = components[key]
    abs_diff = abs(qv - mc.mean)
    rel_diff = abs_diff / abs(qv) if qv != 0.0 else float("inf") if abs_diff else 0.0
    z = (qv - mc.mean) / mc.se_of_mean if mc.se_of_mean > 0.0 else float("inf") if abs_diff else 0.0
    lo, hi = mc.interval
    return Comparison(
        estimand=key,
        quad_value=qv,
        mc_mean=mc.mean,
        mc_sd=mc.sd,
        mc_se=mc.se_of_mean,
        interval=mc.interval,
        abs_diff=abs_diff,
        rel_diff=rel_diff,
        z_score=float(z),
        inside_interval=bool(lo <= qv <= hi),
    )
