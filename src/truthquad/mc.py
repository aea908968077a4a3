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

Each repetition allocates its workspaces once, at most ``BLOCK`` rows each,
and every block is evaluated into them in place through the scenario's own
functions (``prob``, ``log_rate`` and ``rmst_from_log_rate``,
``_scale_factor`` and ``_survival``) called with ``out=``.  Those keep the
operation order of their allocating forms, so a block's values are the same
bits either way.  ``MCSummary.draw_seconds`` records the part of each
repetition's time spent drawing; the rest is evaluation.

Each estimand's repetitions are summarized in one ``MCSummary``; its
prediction interval is the empirical 2.5/97.5 percentiles of the per-rep
estimates.  ``compare`` sets a quadrature value against a summary.
"""
from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from .distributions import BLOCK, blocks  # BLOCK is re-exported as these passes' block size
from .errors import ValidationError
from .scenarios import (
    CDEScenario,
    ConfoundingScenario,
    HRScenario,
    RMSTScenario,
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
    within_rep_se: np.ndarray | None = None
    rep_seconds: np.ndarray | None = None
    draw_seconds: np.ndarray | None = None  # the part of rep_seconds spent drawing

    def same_estimates(self, other: "MCSummary") -> bool:
        return self.estimand == other.estimand and np.array_equal(self.estimates, other.estimates)


def _percentiles(x: np.ndarray, q: Sequence[float]) -> np.ndarray:
    """The bits of ``np.percentile(x, q)``, by the same steps as numpy's default "linear" method.

    The same partition, numpy's two-sided lerp (from the upper value when the
    fraction is at least 1/2) and NaN propagation.  ``np.percentile`` calls
    ``np.unique``, whose first call in a process imports ``numpy.ma`` (about
    14 ms of every ``mc`` or ``compare`` command).
    """
    arr = np.array(x, dtype=float).ravel()
    n = arr.size
    h = (n - 1) * np.true_divide(q, 100)
    lo = np.floor(h)
    lo[h >= n - 1] = -1  # at or past the last index both neighbours are the last value
    lo = lo.astype(np.intp)
    hi = np.where(lo == -1, -1, lo + 1)
    arr.partition(sorted({0, -1, *lo.tolist(), *hi.tolist()}))
    a, b = arr[lo], arr[hi]
    t = h - lo  # numpy's fraction, h + 1 where lo is -1
    diff = b - a
    out = a + diff * t
    np.subtract(b, diff * (1 - t), out=out, where=t >= 0.5)
    if np.isnan(arr[-1]):  # a NaN sorts last, and then every percentile is NaN
        out[:] = arr[-1]
    return out


def _summarize(estimand: str, estimates: np.ndarray, seconds: np.ndarray, draw_seconds: np.ndarray,
               within: np.ndarray | None = None) -> MCSummary:
    estimates = np.asarray(estimates, dtype=float)
    seconds = np.asarray(seconds, dtype=float)
    mean = float(estimates.mean())
    sd = float(estimates.std(ddof=1)) if estimates.size > 1 else 0.0
    lo, hi = _percentiles(estimates, [2.5, 97.5])
    return MCSummary(
        estimand=estimand,
        estimates=estimates,
        mean=mean,
        sd=sd,
        se_of_mean=sd / np.sqrt(estimates.size) if estimates.size > 1 else 0.0,
        interval=(float(lo), float(hi)),
        seconds_per_rep=float(seconds.mean()),
        within_rep_se=within,
        rep_seconds=seconds,
        draw_seconds=draw_seconds,
    )


def _run_reps(draw: Callable[[np.random.Generator], Any], evaluate: Callable[[Any], Mapping[str, float]],
              cfg: MCConfig, jobs: int = 1) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Draw, then evaluate, once per repetition.

    Returns per-key estimate arrays, per-rep seconds and the part of them
    spent drawing.  With ``jobs`` > 1, min(jobs, n_reps) threads take
    repetition indices in turn.  No thread starts a repetition after one has
    failed, and the failure (the lowest-numbered one, if several) is
    re-raised here.
    """
    if jobs < 1:
        raise ValidationError(f"jobs must be >= 1, got {jobs}")
    outcomes: list = [None] * cfg.n_reps

    def one(rep: int) -> None:
        rng = np.random.default_rng(cfg.seed_base + rep)
        t0 = time.perf_counter()
        draws = draw(rng)
        t1 = time.perf_counter()
        result = evaluate(draws)
        outcomes[rep] = result, time.perf_counter() - t0, t1 - t0

    workers = min(jobs, cfg.n_reps)
    if workers == 1:
        for rep in range(cfg.n_reps):
            one(rep)
    else:
        todo = iter(range(cfg.n_reps))
        lock = threading.Lock()
        errors: dict[int, BaseException] = {}

        def work() -> None:
            while True:
                with lock:  # so that no rep is taken once a failure is recorded
                    rep = None if errors else next(todo, None)
                if rep is None:
                    return
                try:
                    one(rep)
                except BaseException as exc:  # re-raised in the calling thread
                    with lock:
                        errors[rep] = exc

        threads = [threading.Thread(target=work) for _ in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[min(errors)]

    keys = list(outcomes[0][0].keys())
    columns = {k: np.array([out[0][k] for out in outcomes]) for k in keys}
    seconds = np.array([out[1] for out in outcomes])
    draw_seconds = np.array([out[2] for out in outcomes])
    return columns, seconds, draw_seconds


def _fit(workspace: np.ndarray, rows: slice) -> np.ndarray:
    """The leading part of a block-sized workspace, sized for block ``rows``."""
    return workspace[: rows.stop - rows.start]


def _block_mean(n: int, values: Callable[[slice], np.ndarray]) -> float:
    """Mean of ``values(rows)`` over ``blocks(n)``, one block in memory at a time."""
    return sum(float(values(rows).sum()) for rows in blocks(n)) / n


def _block_mean_se(n: int, values: Callable[[slice], np.ndarray]) -> tuple[float, float]:
    """Mean and its standard error std(ddof=1) / sqrt(n) of ``values(rows)`` over ``blocks(n)``.

    Each block's sum of squared deviations from its own mean is merged into
    the running one with Chan, Golub & LeVeque's pairwise update, which keeps
    the variance as accurate as a two-pass computation over the whole array.
    ``values`` returns a workspace, which this overwrites with the deviations.
    """
    count, total, m2 = 0, 0.0, 0.0
    for rows in blocks(n):
        x = values(rows)
        size, block_total = x.size, float(x.sum())
        x -= block_total / size
        m2 += float(x @ x)
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
                   simulate: bool = False) -> dict[str, MCSummary]:
    """P(Y^0=1), P(Y^1=1) and their plug-in odds ratio from one pass of draws.

    Per repetition the confounders are drawn once and serve both arms and the
    odds ratio.  By default (MC integration) each arm averages the outcome
    probability, with within-rep SE std / sqrt(N); ``simulate=True`` instead
    averages Bernoulli potential outcomes drawn from one shared set of
    uniforms, with the Bernoulli within-rep SE.  Keys: p0, p1, odds_ratio.
    """
    n = cfg.n_samples

    def draw(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray | None]:
        return scenario.draw_confounders(rng, n), rng.random(n) if simulate else None

    def evaluate(draws: tuple[np.ndarray, np.ndarray | None]) -> dict[str, float]:
        c, u = draws
        prob_ws = np.empty(min(n, BLOCK))
        out = {}
        if simulate:
            hit_ws = np.empty(prob_ws.size, dtype=bool)
            for a in (0, 1):
                # a count of successes, so the mean is exact whatever the blocks
                p = _block_mean(n, lambda rows: np.less(
                    u[rows], scenario.prob(a, c[rows], out=_fit(prob_ws, rows)), out=_fit(hit_ws, rows)))
                out[f"p{a}"], out[f"p{a}_se"] = p, np.sqrt(p * (1.0 - p) / n)
        else:
            for a in (0, 1):
                out[f"p{a}"], out[f"p{a}_se"] = _block_mean_se(
                    n, lambda rows: scenario.prob(a, c[rows], out=_fit(prob_ws, rows)))
        out["odds_ratio"] = _odds_ratio(out["p1"], out["p0"])
        return out

    cols, seconds, draw_seconds = _run_reps(draw, evaluate, cfg, jobs)
    return {k: _summarize(k, cols[k], seconds, draw_seconds, within=cols.get(f"{k}_se"))
            for k in ("p0", "p1", "odds_ratio")}


def potential_outcome_sim(scenario: ConfoundingScenario, a: int, cfg: MCConfig, jobs: int = 1) -> MCSummary:
    """Simulated Bernoulli potential outcomes under arm ``a``, averaged per repetition."""
    return mc_confounding(scenario, cfg, jobs, simulate=True)[f"p{a}"]


def po_odds_ratio(scenario: ConfoundingScenario, cfg: MCConfig, jobs: int = 1) -> MCSummary:
    """Plug-in odds ratio from potential-outcome simulation (shared draws per rep)."""
    return mc_confounding(scenario, cfg, jobs, simulate=True)["odds_ratio"]


def mc_marginal_prob(scenario: ConfoundingScenario, a: int, cfg: MCConfig, jobs: int = 1) -> MCSummary:
    """MC integration of the marginal probability under arm ``a``."""
    return mc_confounding(scenario, cfg, jobs)[f"p{a}"]


def mc_odds_ratio(scenario: ConfoundingScenario, cfg: MCConfig, jobs: int = 1) -> MCSummary:
    """Plug-in odds ratio from MC integration; arms share confounder draws."""
    return mc_confounding(scenario, cfg, jobs)["odds_ratio"]


# ---------------------------------------------------------------------------
# CDE scenario
# ---------------------------------------------------------------------------

def mc_cde(scenario: CDEScenario, cfg: MCConfig, jobs: int = 1) -> dict[str, MCSummary]:
    """MC integration of both CDE arm means; exogenous draws shared across arms."""
    b0, b1, b2, b3, b4, b5 = scenario.beta
    lm = scenario.l_model
    n = cfg.n_samples

    def draw(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (scenario.c_dist.draw(rng, n), scenario.u_dist.draw(rng, n),
                rng.normal(0.0, np.sqrt(lm.sigma2), n))

    def evaluate(draws: tuple[np.ndarray, np.ndarray, np.ndarray]) -> dict[str, float]:
        c, u, eps = draws
        ell_ws, lin_ws = np.empty(min(n, BLOCK)), np.empty(min(n, BLOCK))

        def outcome(rows: slice, a: int) -> np.ndarray:
            # ell = intercept + a_coef a + u_coef u + eps and
            # lin = b0 + b1 a + b2 m + b3 c + b4 ell + b5 u, each summed left to right
            ell, lin = _fit(ell_ws, rows), _fit(lin_ws, rows)
            np.multiply(u[rows], lm.u_coef, out=ell)
            ell += lm.intercept + lm.a_coef * a
            ell += eps[rows]
            np.multiply(c[rows], b3, out=lin)
            lin += b0 + b1 * a + b2 * scenario.m
            ell *= b4
            lin += ell
            np.multiply(u[rows], b5, out=ell)
            lin += ell
            return scenario.inverse_link(lin, out=lin)

        out = {label: _block_mean(n, lambda rows: outcome(rows, a))
               for label, a in (("mean_a", scenario.a), ("mean_a_star", scenario.a_star))}
        out["cde"] = out["mean_a"] - out["mean_a_star"]
        return out

    cols, seconds, draw_seconds = _run_reps(draw, evaluate, cfg, jobs)
    return {k: _summarize(k, v, seconds, draw_seconds) for k, v in cols.items()}


# ---------------------------------------------------------------------------
# RMST scenario (the pseudocode of the MC-integration algorithm, per repetition)
# ---------------------------------------------------------------------------

def mc_rmst_mediation(scenario: RMSTScenario, cfg: MCConfig, jobs: int = 1) -> dict[str, MCSummary]:
    """MC integration of the RMST mediation estimands.

    Per repetition: draw N mediators under each arm, evaluate the expected
    RMST under the three (a, M(a*)) combinations, average, and combine into
    TE / NDE / NIE.
    """
    n = cfg.n_samples

    def draw(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        return rng.normal(scenario.mu1, 1.0, n), rng.normal(scenario.mu0, 1.0, n)

    def evaluate(draws: tuple[np.ndarray, np.ndarray]) -> dict[str, float]:
        m1, m0 = draws
        rate_ws = np.empty(min(n, BLOCK))

        def arm_rmst(rows: slice, a: int, m: np.ndarray) -> np.ndarray:
            log_rate = scenario.log_rate(a, m[rows], out=_fit(rate_ws, rows))
            return rmst_from_log_rate(scenario.tau, log_rate, out=log_rate)

        mu11, mu00, mu10 = (_block_mean(n, lambda rows: arm_rmst(rows, a, m))
                            for a, m in ((1, m1), (0, m0), (1, m0)))
        return {"mu11": mu11, "mu00": mu00, "mu10": mu10,
                "TE": mu11 - mu00, "NDE": mu10 - mu00, "NIE": mu11 - mu10}

    cols, seconds, draw_seconds = _run_reps(draw, evaluate, cfg, jobs)
    return {k: _summarize(k, v, seconds, draw_seconds) for k, v in cols.items()}


# ---------------------------------------------------------------------------
# HR scenario
# ---------------------------------------------------------------------------

def hr_estimand(effect: str, t: float) -> str:
    """The estimand name of an HR effect at time t, in MC summaries and compare rows."""
    return f"{effect}(t={t:g})"


def mc_hr_mediation(scenario: HRScenario, cfg: MCConfig, t_values: Sequence[float] | None = None,
                    jobs: int = 1) -> dict[tuple[str, float], MCSummary]:
    """Per-time-point hazard-ratio effects by MC integration.

    Per repetition the mediator draws are shared across time points and arm
    combinations, and each ratio is formed by plug-in from the rep's own
    density and survival means.  Keys are (effect, t).  Each block evaluates
    the survival at every t at once, into a (len(t), block) workspace.
    """
    ts = _check_t(t_values if t_values is not None else scenario.t_grid)
    t_col = ts[:, None]
    n = cfg.n_samples

    def draw(rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
        return rng.normal(scenario.mediator_mean(0), 1.0, n), rng.normal(scenario.mediator_mean(1), 1.0, n)

    def evaluate(draws: tuple[np.ndarray, np.ndarray]) -> dict[tuple[str, float], float]:
        m0, m1 = draws
        z_ws, s_ws = np.empty(min(n, BLOCK)), np.empty(ts.size * min(n, BLOCK))
        haz = {}
        for arms, m in (((1, 0), m0), ((0, 0), m0), ((1, 1), m1)):
            # the hazard is h0(t) * sum(z S) / sum(S), with S of shape (len(t), block)
            zs_sum = s_sum = 0.0
            for rows in blocks(n):
                z = scenario._scale_factor(arms[0], m[rows], out=_fit(z_ws, rows))
                s = scenario._survival(t_col, z, out=s_ws[: ts.size * z.size].reshape(ts.size, z.size))
                zs_sum = zs_sum + s @ z
                s_sum = s_sum + s.sum(axis=1)
            haz[arms] = scenario._baseline_hazard(ts) * zs_sum / s_sum
        out: dict[tuple[str, float], float] = {}
        for i, t in enumerate(ts):
            out[("NDE", float(t))] = haz[1, 0][i] / haz[0, 0][i]
            out[("NIE", float(t))] = haz[1, 1][i] / haz[1, 0][i]
            out[("TE", float(t))] = haz[1, 1][i] / haz[0, 0][i]
        return out

    cols, seconds, draw_seconds = _run_reps(draw, evaluate, cfg, jobs)
    return {k: _summarize(hr_estimand(*k), v, seconds, draw_seconds) for k, v in cols.items()}


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Comparison:
    """How far a quadrature value lies from an MC summary of the same estimand."""

    abs_diff: float
    rel_diff: float
    z_score: float
    inside_interval: bool


def compare(quad_value: float, mc: MCSummary) -> Comparison:
    """Absolute/relative gaps, SE-normalized z-score, and prediction-interval membership."""
    abs_diff = abs(quad_value - mc.mean)
    rel_diff = abs_diff / abs(quad_value) if quad_value != 0.0 else float("inf") if abs_diff else 0.0
    z = (quad_value - mc.mean) / mc.se_of_mean if mc.se_of_mean > 0.0 else float("inf") if abs_diff else 0.0
    lo, hi = mc.interval
    return Comparison(abs_diff=abs_diff, rel_diff=rel_diff, z_score=float(z),
                      inside_interval=bool(lo <= quad_value <= hi))
