"""Command-line front end.

Subcommands: rule, grid, truth, mc, compare, bench.  Results are emitted as
CSV (17-significant-digit floats, '.' decimal) and JSON; files are written
atomically (temp file + rename).  Exit codes: 0 success, 2 validation
failure, 3 numeric-domain error.

``run`` is the process entry point (the ``truthquad`` script and
``python -m truthquad.cli``); ``main`` is the click group, which tests and
other callers invoke in-process.
"""
from __future__ import annotations

import functools
import gc
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import click
import numpy as np

from .config import ScenarioConfig, load_config
from .distributions import Exponential, Gamma, Normal, Uniform
from .errors import NumericDomainError, ValidationError
from .grids import CovSpec, Decomposition, rotate_grid, tensor_grid
# The four per-arm confounding passes are not called here; perfbench/tracing.py
# traces MC passes by wrapping these names on this module.
from .mc import (
    MCConfig,
    MCSummary,
    compare as compare_results,
    hr_estimand,
    mc_cde,
    mc_confounding,
    mc_hr_mediation,
    mc_marginal_prob,
    mc_odds_ratio,
    mc_rmst_mediation,
    po_odds_ratio,
    potential_outcome_sim,
)
from .rules import RuleKind, compute_rule, rescale_rule
from .scenarios import (
    TruthResult,
    cde_truth,
    hr_mediation_truth,
    odds_ratio_truth,
    rmst_mediation_truth,
)
from .special import ClosedFormCase


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: str, text: str) -> None:
    target = Path(path)
    fd, tmp = tempfile.mkstemp(dir=target.parent or Path("."), prefix=target.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        click.echo(text, nl=False)
    else:
        _atomic_write(out, text)


def _exit_codes(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except NumericDomainError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(3)
        except (ValidationError, ValueError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
    return wrapper


@click.group()
def main() -> None:
    """Exact causal-estimand truth values by Gaussian quadrature, with MC baselines."""


# ---------------------------------------------------------------------------
# rule
# ---------------------------------------------------------------------------

@main.command()
@click.option("--kind", type=click.Choice(["hermite", "legendre", "laguerre", "genlaguerre"]),
              required=True)
@click.option("--k", "level", type=int, required=True, help="Number of quadrature points.")
@click.option("--alpha", type=float, default=None, help="Exponent for genlaguerre (> -1).")
@click.option("--normal", nargs=2, type=float, default=None, help="Rescale to N(MU, SIGMA2).")
@click.option("--uniform", nargs=2, type=float, default=None, help="Rescale to U(A, B).")
@click.option("--exponential", type=float, default=None, help="Rescale to Exp(RATE).")
@click.option("--gamma", nargs=2, type=float, default=None, help="Rescale to Ga(SHAPE, RATE).")
@click.option("--out", default="-", help="Output CSV path ('-' for stdout).")
@_exit_codes
def rule(kind, level, alpha, normal, uniform, exponential, gamma, out):
    """Emit the node/weight table of a univariate rule as CSV."""
    if kind == "genlaguerre" and alpha is None:
        raise ValidationError("genlaguerre requires --alpha")
    if kind != "genlaguerre" and alpha is not None:
        raise ValidationError(f"--alpha only applies to genlaguerre, not {kind}")
    rule_obj = compute_rule(RuleKind(kind, alpha=alpha), level)
    dists = [d for d in (
        Normal(*normal) if normal else None,
        Uniform(*uniform) if uniform else None,
        Exponential(exponential) if exponential is not None else None,
        Gamma(*gamma) if gamma else None,
    ) if d is not None]
    if len(dists) > 1:
        raise ValidationError("give at most one distribution to rescale to")
    if dists:
        rule_obj = rescale_rule(rule_obj, dists[0])
    lines = ["index,node,weight"]
    for i, (x, w) in enumerate(zip(rule_obj.nodes, rule_obj.weights)):
        lines.append(f"{i},{_fmt(x)},{_fmt(w)}")
    _emit("\n".join(lines) + "\n", out)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------

@main.command()
@click.option("--k", "level", type=int, required=True)
@click.option("--dim", type=int, required=True)
@click.option("--mean", default=None, help="JSON list, e.g. '[-5,-10]'.")
@click.option("--cov", default=None, help="JSON matrix, e.g. '[[1,1],[1,2]]'.")
@click.option("--decomposition", type=click.Choice([d.value for d in Decomposition]),
              default="spectral", show_default=True)
@click.option("--out", default="-", help="Output CSV path ('-' for stdout).")
@_exit_codes
def grid(level, dim, mean, cov, decomposition, out):
    """Emit a (possibly rotated) tensor grid's point/weight table as CSV."""
    g = tensor_grid(level, dim)
    if (mean is None) != (cov is None):
        raise ValidationError("--mean and --cov must be given together")
    if mean is not None:
        spec = CovSpec(np.asarray(json.loads(mean), dtype=float),
                       np.asarray(json.loads(cov), dtype=float))
        g = rotate_grid(g, spec, Decomposition(decomposition))
    header = ",".join(f"x{i + 1}" for i in range(g.dim)) + ",weight"
    lines = [header]
    for point, w in zip(g.points, g.weights):
        lines.append(",".join(_fmt(x) for x in point) + f",{_fmt(w)}")
    _emit("\n".join(lines) + "\n", out)


# ---------------------------------------------------------------------------
# truth
# ---------------------------------------------------------------------------

def _compute_truth(config: ScenarioConfig) -> TruthResult:
    method = config.method
    if config.kind == "confounding":
        return odds_ratio_truth(config.scenario, method.level, method.decomposition)
    if config.kind == "cde":
        return cde_truth(config.scenario, method.level)
    if config.kind == "rmst":
        return rmst_mediation_truth(config.scenario, method.level)
    return hr_mediation_truth(config.scenario, method.level)


def _truth_json(config: ScenarioConfig, result: TruthResult) -> str:
    payload = {
        "schema_version": 1,
        "id": config.config_id,
        "kind": config.kind,
        "method": {
            "method": result.method,
            "level": result.level,
            "decomposition": result.decomposition,
        },
        "results": result.components(),
    }
    if result.series is not None:
        payload["series"] = {k: list(v) for k, v in result.series.items()}
    return json.dumps(payload, indent=2, default=float) + "\n"


def _truth_csv(config: ScenarioConfig, result: TruthResult) -> str:
    lines = ["scenario,estimand,method,k_or_n,value,se,t"]
    for name, value in result.components().items():
        lines.append(f"{config.config_id},{name},{result.method},{result.level},{_fmt(value)},,")
    if result.series is not None:
        ts = result.series["t"]
        for effect in ("NDE", "NIE", "TE"):
            for t, v in zip(ts, result.series[effect]):
                lines.append(
                    f"{config.config_id},{effect}(t),{result.method},{result.level},{_fmt(v)},,{_fmt(t)}"
                )
    return "\n".join(lines) + "\n"


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out-json", default="-", help="JSON output path ('-' for stdout).")
@click.option("--out-csv", default=None, help="Optional CSV output path.")
@_exit_codes
def truth(config_path, out_json, out_csv):
    """Compute the scenario's quadrature truth from a JSON config."""
    config = load_config(config_path)
    result = _compute_truth(config)
    _emit(_truth_json(config, result), out_json)
    if out_csv is not None:
        _emit(_truth_csv(config, result), out_csv)


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------

def _hr_t_subset(t_grid: np.ndarray, count: int) -> np.ndarray:
    # at most t_grid.size points over the indices lie at least 1 apart, so they round to distinct indices
    idx = np.round(np.linspace(0, t_grid.size - 1, min(count, t_grid.size))).astype(int)
    return t_grid[idx]


def _at_t_subset(config: ScenarioConfig) -> ScenarioConfig:
    """An HR config cut to the ``hr_t_subset`` time points, the only ones mc and compare report."""
    if config.kind != "hr":
        return config
    ts = _hr_t_subset(config.scenario.t_grid, config.method.hr_t_subset)
    return replace(config, scenario=replace(config.scenario, t_grid=ts))


def _mc_summaries(config: ScenarioConfig, method_name: str, cfg: MCConfig,
                  jobs: int) -> dict[str, MCSummary]:
    scenario = config.scenario
    simulate = method_name == "potential_outcome_sim"
    if simulate and config.kind != "confounding":
        raise ValidationError("potential_outcome_sim applies to the confounding scenario only")
    if config.kind == "confounding":
        return mc_confounding(scenario, cfg, jobs, simulate=simulate)
    if config.kind == "cde":
        return mc_cde(scenario, cfg, jobs)
    if config.kind == "rmst":
        return mc_rmst_mediation(scenario, cfg, jobs)
    per_t = mc_hr_mediation(scenario, cfg, jobs=jobs)
    return {summary.estimand: summary for summary in per_t.values()}


def _mc_csv(config: ScenarioConfig, method_name: str, summaries: dict[str, MCSummary]) -> str:
    lines = ["scenario,method,estimand,rep,estimate,seconds,sd,pi_lower,pi_upper"]
    for name, s in summaries.items():
        for r, est in enumerate(s.estimates):
            sec = _fmt(s.rep_seconds[r]) if s.rep_seconds is not None else ""
            lines.append(f"{config.config_id},{method_name},{name},{r},{_fmt(est)},{sec},,,")
        lines.append(
            f"{config.config_id},{method_name},{name},summary,{_fmt(s.mean)},"
            f"{_fmt(s.seconds_per_rep)},{_fmt(s.sd)},{_fmt(s.interval[0])},{_fmt(s.interval[1])}"
        )
    return "\n".join(lines) + "\n"


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--method", "method_name",
              type=click.Choice(["mc_integration", "potential_outcome_sim"]),
              default="mc_integration", show_default=True)
@click.option("--seed", type=int, default=None, help="Overrides the config's method.seed.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Worker cap for repetitions.")
@click.option("--out", default="-", help="Output CSV path ('-' for stdout).")
@_exit_codes
def mc(config_path, method_name, seed, jobs, out):
    """Run a Monte Carlo baseline; one CSV row per repetition plus a summary row."""
    config = _at_t_subset(load_config(config_path))
    summaries = _mc_summaries(config, method_name, _resolve_mc(config, seed), jobs)
    _emit(_mc_csv(config, method_name, summaries), out)


def _resolve_mc(config: ScenarioConfig, seed_flag: int | None) -> MCConfig:
    method = config.method
    seed = seed_flag if seed_flag is not None else method.seed
    missing = [name for name, v in (("n_samples", method.n_samples),
                                    ("n_reps", method.n_reps)) if v is None]
    if seed is None:
        missing.append("seed (pass --seed or set method.seed)")
    if missing:
        raise ValidationError(
            f"Monte Carlo runs must be fully specified; missing {', '.join(missing)}"
        )
    return MCConfig(n_samples=method.n_samples, n_reps=method.n_reps, seed_base=seed)


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--seed", type=int, default=None, help="Overrides the config's method.seed.")
@click.option("--jobs", type=click.IntRange(min=1), default=1, show_default=True,
              help="Worker cap for repetitions.")
@click.option("--out", default="-", help="Output CSV path ('-' for stdout).")
@_exit_codes
def compare(config_path, seed, jobs, out):
    """Quadrature truth versus MC integration, one CSV row per estimand."""
    config = _at_t_subset(load_config(config_path))
    cfg = _resolve_mc(config, seed)
    result = _compute_truth(config)
    summaries = _mc_summaries(config, "mc_integration", cfg, jobs)

    components = result.components()
    if result.series is not None:
        ts = result.series["t"]
        for effect in ("NDE", "NIE", "TE"):
            for t, v in zip(ts, result.series[effect]):
                components[hr_estimand(effect, t)] = float(v)

    lines = ["scenario,estimand,quad_value,mc_mean,mc_sd,mc_se,pi_lower,pi_upper,"
             "abs_diff,rel_diff,z_score,inside_interval,mc_seconds_per_rep"]
    for name, s in summaries.items():
        quad_value = components[name]
        record = compare_results(quad_value, s)
        lines.append(
            f"{config.config_id},{name},{_fmt(quad_value)},{_fmt(s.mean)},{_fmt(s.sd)},"
            f"{_fmt(s.se_of_mean)},{_fmt(s.interval[0])},{_fmt(s.interval[1])},"
            f"{_fmt(record.abs_diff)},{_fmt(record.rel_diff)},{_fmt(record.z_score)},"
            f"{record.inside_interval},{_fmt(s.seconds_per_rep)}"
        )
    _emit("\n".join(lines) + "\n", out)


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

@main.group()
def bench() -> None:
    """Convergence and runtime sweeps (CSV output)."""


@bench.command()
@click.option("--case", type=click.Choice([c.value for c in ClosedFormCase]),
              default="exponential", show_default=True)
@click.option("--k-min", type=int, default=1, show_default=True)
@click.option("--k-max", type=int, default=50, show_default=True)
@click.option("--mc-n", type=int, multiple=True, default=(10**6,), show_default=True)
@click.option("--mc-reps", type=int, default=100, show_default=True)
@click.option("--timing-reps", type=int, default=20, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--out", default="convergence.csv", show_default=True)
@_exit_codes
def convergence(case, k_min, k_max, mc_n, mc_reps, timing_reps, seed, out):
    """Bias and runtime of the closed-form case as K grows, with MC reference rows."""
    from . import bench as bench_mod  # only the bench commands need it

    spec = bench_mod.SweepSpec(
        case=ClosedFormCase(case),
        k_values=tuple(range(k_min, k_max + 1)),
        mc_sizes=tuple(mc_n),
        mc_reps=mc_reps,
        timing_reps=timing_reps,
        seed_base=seed,
    )
    rows = bench_mod.convergence_sweep(spec)
    _emit(bench_mod.convergence_csv(rows), out)


@bench.command()
@click.option("--d-max", type=int, default=10, show_default=True)
@click.option("--k", "level", type=int, default=3, show_default=True)
@click.option("--mc-n", type=int, default=10**6, show_default=True)
@click.option("--timing-reps", type=int, default=20, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--out", default="dimension.csv", show_default=True)
@_exit_codes
def dimension(d_max, level, mc_n, timing_reps, seed, out):
    """Runtime of quadrature (fixed K) and MC integration across dimensions."""
    from . import bench as bench_mod

    spec = bench_mod.SweepSpec(
        dims=tuple(range(1, d_max + 1)),
        dim_level=level,
        mc_sizes=(mc_n,),
        timing_reps=timing_reps,
        seed_base=seed,
    )
    rows = bench_mod.dimension_sweep(spec)
    _emit(bench_mod.dimension_csv(rows), out)


def run() -> None:
    """Run the CLI as a process: freeze the GC, then dispatch.

    Everything imported so far lives until the process exits.  ``gc.freeze``
    moves it out of the collector's generations, so neither the collections
    during the command nor the final one at exit scan it again.  ``main``
    does not freeze, because tests and other callers run it in-process.
    """
    gc.freeze()
    main()


if __name__ == "__main__":
    run()
