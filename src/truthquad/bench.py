"""Convergence and runtime studies: bias vs quadrature points, runtime vs dimension.

Timing uses the monotonic clock and reports the median of warm runs; rule and
grid construction is included because that is the user-visible cost, so the
rule cache is cleared, outside the timer, before every run.  Timed sections
run strictly sequentially.  Bias values are reported raw; the plateau
near 1e-14..1e-16 is the machine-accuracy floor and is never clamped.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import MVNormal
from .errors import ValidationError
from .grids import DEFAULT_POINT_BUDGET, Decomposition
from .mc import MCConfig, mc_odds_ratio
from .rules import clear_rule_cache
from .scenarios import ConfoundingScenario, marginal_prob, odds_ratio_truth, scenario_for_case
from .special import ClosedFormCase, closed_form_odds_ratio


@dataclass(frozen=True)
class SweepSpec:
    """Ranges and reference configurations for the convergence/dimension sweeps."""

    case: ClosedFormCase = ClosedFormCase.EXPONENTIAL
    k_values: tuple[int, ...] = tuple(range(1, 51))
    dims: tuple[int, ...] = tuple(range(1, 11))
    dim_level: int = 3
    mc_sizes: tuple[int, ...] = (10**6,)
    mc_reps: int = 100
    timing_reps: int = 20
    seed_base: int = 20_200_501
    point_budget: int = DEFAULT_POINT_BUDGET

    def __post_init__(self) -> None:
        for name, values in (("k_values", self.k_values), ("dims", self.dims)):
            if not values:
                raise ValidationError(f"{name} must be non-empty")
            if any(b <= a for a, b in zip(values, values[1:])):
                raise ValidationError(f"{name} must be strictly ascending")


@dataclass(frozen=True)
class SweepRow:
    """One sweep observation; ``bias`` is None for pure runtime rows."""

    method: str
    k: int | None = None
    dim: int | None = None
    n_samples: int | None = None
    bias: float | None = None
    seconds: float | None = None
    skipped: bool = False


def _median_seconds(fn, reps: int) -> float:
    clear_rule_cache()
    fn()  # warm-up
    times = []
    for _ in range(max(1, reps)):
        clear_rule_cache()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def convergence_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Odds-ratio bias and runtime per quadrature level, with MC reference rows.

    The reference truth is the closed-form odds ratio of the chosen case,
    which is what makes exact bias measurement possible.
    """
    reference = closed_form_odds_ratio(spec.case)
    scenario = scenario_for_case(spec.case)
    rows = []
    for k in spec.k_values:
        result = odds_ratio_truth(scenario, k)
        bias = abs(result["odds_ratio"] - reference)
        seconds = _median_seconds(lambda k=k: odds_ratio_truth(scenario, k), spec.timing_reps)
        rows.append(SweepRow(method="quadrature", k=k, bias=bias, seconds=seconds))
    for n in spec.mc_sizes:
        cfg = MCConfig(n_samples=n, n_reps=spec.mc_reps, seed_base=spec.seed_base)
        summary = mc_odds_ratio(scenario, cfg)
        rows.append(SweepRow(method="mc_integration", n_samples=n,
                             bias=abs(summary.mean - reference),
                             seconds=summary.seconds_per_rep))
    return rows


def _extended_bivariate_scenario(dim: int) -> ConfoundingScenario:
    """D-dimensional extension of the correlated-normal example.

    mean_i = -5 i and cov_ij = min(i, j) reduce to the bivariate example's
    mean (-5, -10) and covariance [[1, 1], [1, 2]] at D = 2, and stay positive
    definite for any D (the covariance of cumulative sums).
    """
    idx = np.arange(1, dim + 1, dtype=float)
    mean = -5.0 * idx
    cov = np.minimum.outer(idx, idx)
    conf = MVNormal.of(mean, cov)
    return ConfoundingScenario(beta0=1.0, beta1=1.0, beta2=np.full(dim, 0.1), confounders=conf)


def dimension_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Runtime of quadrature (level fixed) and MC integration across dimensions.

    A dimension whose K^D grid exceeds the point budget yields a row marked
    skipped instead of failing the sweep.
    """
    rows = []
    for dim in spec.dims:
        scenario = _extended_bivariate_scenario(dim)
        if spec.dim_level**dim > spec.point_budget:
            rows.append(SweepRow(method="quadrature", dim=dim, k=spec.dim_level, skipped=True))
        else:
            seconds = _median_seconds(
                lambda s=scenario: marginal_prob(s, 1, spec.dim_level, Decomposition.SPECTRAL),
                spec.timing_reps,
            )
            rows.append(SweepRow(method="quadrature", dim=dim, k=spec.dim_level, seconds=seconds))
        n = spec.mc_sizes[0]

        def one_mc_rep(s=scenario, n=n, dim=dim):
            rng = np.random.default_rng(spec.seed_base + dim)
            c = s.draw_confounders(rng, n)
            return float(s.prob(1, c).mean())

        seconds = _median_seconds(one_mc_rep, spec.timing_reps)
        rows.append(SweepRow(method="mc_integration", dim=dim, n_samples=n, seconds=seconds))
    return rows


def convergence_csv(rows: Sequence[SweepRow]) -> str:
    lines = ["method,K,n_samples,bias,seconds"]
    for row in rows:
        lines.append(",".join([
            row.method,
            str(row.k) if row.k is not None else "",
            str(row.n_samples) if row.n_samples is not None else "",
            format(row.bias, ".17g") if row.bias is not None else "",
            format(row.seconds, ".17g") if row.seconds is not None else "",
        ]))
    return "\n".join(lines) + "\n"


def dimension_csv(rows: Sequence[SweepRow]) -> str:
    lines = ["D,method,seconds"]
    for row in rows:
        lines.append(",".join([
            str(row.dim),
            row.method,
            format(row.seconds, ".17g") if row.seconds is not None else "skipped",
        ]))
    return "\n".join(lines) + "\n"
