"""Seeded workload inputs.

Every input is a pure function of the workload seed and its position in
the sequence, so the same seed always yields the same inputs, and a run
that needs more inputs simply generates further positions.  Scenarios are
written as the ``scenario`` block of a truthquad config file; the
benchmark builds library objects from that block and the references read
it directly.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

FAMILIES = ("confounding", "cde", "rmst", "hr")
CONFOUNDER_KINDS = ("normal", "uniform", "exponential", "gamma", "mvnormal")
TRUTH_LEVEL = 20
HR_T_POINTS = 50

#: Monte Carlo size of the derived CLI configs.
CLI_SAMPLES = 1_000_000
CLI_REPS = 3


def _rng(seed: int, stream: str, index: int) -> np.random.Generator:
    tag = int.from_bytes(stream.encode(), "little") % (2**63)
    return np.random.default_rng([seed, tag, index])


def _loguniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _random_cov(rng, dim: int, scale: float) -> np.ndarray:
    a = rng.normal(size=(dim, dim))
    cov = a @ a.T / dim + 0.2 * np.eye(dim)
    return scale * cov


def _confounding(rng, kind: str, variant: int) -> dict:
    scen = {"kind": "confounding", "beta0": float(rng.uniform(-2, 2)),
            "beta1": float(rng.uniform(-2, 2))}
    if kind == "normal":
        dim = 1 + variant % 2
        scen["confounders"] = [{"type": "normal", "mu": float(rng.uniform(-2, 2)),
                                "sigma2": _loguniform(rng, 0.25, 4.0)} for _ in range(dim)]
        scen["beta2"] = rng.uniform(-2, 2, dim).tolist()
    elif kind == "mvnormal":
        dim = 2 + variant % 2
        scen["confounders"] = {"type": "mvnormal", "mean": rng.uniform(-6, 2, dim).tolist(),
                               "cov": _random_cov(rng, dim, _loguniform(rng, 0.5, 2.0)).tolist()}
        scen["beta2"] = rng.uniform(-1, 1, dim).tolist()
    elif kind == "uniform":
        lows = rng.uniform(-4, 1, 2)
        widths = rng.uniform(0.5, 6, 2)
        scen["confounders"] = [{"type": "uniform", "a": float(lo), "b": float(lo + w)}
                               for lo, w in zip(lows, widths)]
        scen["beta2"] = rng.uniform(-1.5, 1.5, 2).tolist()
    elif kind == "exponential":
        scen["confounders"] = [{"type": "exponential", "rate": _loguniform(rng, 0.5, 3.0)}
                               for _ in range(2)]
        scen["beta2"] = rng.uniform(-1.5, 1.5, 2).tolist()
    else:
        # continuous shapes: no two calls share a genlaguerre rule
        scen["confounders"] = [{"type": "gamma", "shape": float(rng.uniform(1, 6)),
                                "rate": _loguniform(rng, 0.3, 2.0)} for _ in range(2)]
        scen["beta2"] = rng.uniform(-1, 1, 2).tolist()
    return scen


def _cde(rng, link: str) -> dict:
    c = {"mu": float(rng.uniform(-10, 0)), "sigma2": _loguniform(rng, 0.5, 2.0)}
    u = {"mu": float(rng.uniform(0, 5)), "sigma2": _loguniform(rng, 0.5, 2.0)}
    ell = {"intercept": float(rng.uniform(10, 20)), "a_coef": float(rng.uniform(0.5, 1.5)),
           "u_coef": float(rng.uniform(-0.5, 0.5)), "sigma2": _loguniform(rng, 0.5, 2.0)}
    m = float(rng.uniform(-1, 1))
    if link == "identity":
        beta = rng.normal(scale=4.0, size=6).tolist()
    else:
        # small slopes and an intercept that centres the linear index, so the
        # logistic is not saturated (the default betas give a CDE of exactly 0)
        beta = [0.0] + rng.uniform(-0.5, 0.5, 5).tolist()
        b1, b2, b3, b4, b5 = beta[1:]
        centre = b2 * m + b3 * c["mu"] + b4 * (ell["intercept"] + ell["u_coef"] * u["mu"]) + b5 * u["mu"]
        beta[0] = float(-centre + rng.uniform(-1, 1))
    return {"kind": "cde", "link": link, "beta": beta, "a": 1, "a_star": 0, "m": m,
            "c": c, "u": u, "l": ell}


def _rmst(rng) -> dict:
    return {"kind": "rmst", "mu0": float(rng.uniform(-1, 1)), "mu1": float(rng.uniform(-2, 0)),
            "beta0": float(rng.uniform(-2, 0)), "beta_a": float(rng.uniform(-1, 0.5)),
            "beta_m": float(rng.uniform(-0.8, 0.8)), "tau": float(rng.uniform(1, 10))}


def _hr(rng) -> dict:
    return {"kind": "hr", "alpha0": float(rng.uniform(-0.5, 0.5)),
            "alpha_a": float(rng.uniform(0.5, 1.5)), "gamma": float(rng.uniform(1.0, 2.0)),
            "lambda": float(rng.uniform(1.5, 3.0)), "beta_a": float(rng.uniform(-0.6, 0.0)),
            "beta_m": float(rng.uniform(0.2, 0.8)),
            "t_grid": {"start": 0.1, "stop": _loguniform(rng, 2.0, 100.0), "num": HR_T_POINTS}}


def truth_scenario(seed: int, index: int) -> dict:
    """Scenario block of the index-th truth_sweep call.

    Families take turns, so each has an equal share; confounding calls cycle
    through the five confounder kinds.
    """
    rng = _rng(seed, "truth_sweep", index)
    family = FAMILIES[index % 4]
    turn = index // 4
    if family == "confounding":
        return _confounding(rng, CONFOUNDER_KINDS[turn % 5], turn // 5)
    if family == "cde":
        return _cde(rng, ("identity", "logit")[turn % 2])
    if family == "rmst":
        return _rmst(rng)
    return _hr(rng)


def config(scenario: dict, level: int = TRUTH_LEVEL, **method) -> dict:
    """Wrap a scenario block into a full config object."""
    return {"schema_version": 1, "id": "perfbench", "scenario": scenario,
            "method": {"level": level, **method}}


def write_cli_configs(config_dir: Path, out_dir: Path, seed: int) -> list[Path]:
    """Copies of the shipped configs with the benchmark's MC size and the workload seed."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for src in sorted(config_dir.glob("*.json")):
        obj = json.loads(src.read_text())
        obj["method"].update(n_samples=CLI_SAMPLES, n_reps=CLI_REPS, seed=seed)
        dst = out_dir / src.name
        dst.write_text(json.dumps(obj, indent=2) + "\n")
        paths.append(dst)
    return paths
