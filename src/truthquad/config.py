"""JSON scenario configuration: schema validation and scenario construction.

A config file carries a schema version, an identifier, a tagged scenario
block, and a method block (quadrature level/decomposition plus Monte Carlo
sample size, repetitions and seed).  Unknown fields are rejected with their
full path so typos cannot silently change a study.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .distributions import MVNormal, Normal, _json_list, _json_number, dist_from_json
from .errors import ValidationError
from .grids import Decomposition
from .scenarios import (
    CDEScenario,
    ConfoundingScenario,
    HRScenario,
    LModel,
    RMSTScenario,
)

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class MethodSpec:
    level: int = 20
    decomposition: Decomposition = Decomposition.SPECTRAL
    n_samples: int | None = None
    n_reps: int | None = None
    seed: int | None = None
    hr_t_subset: int = 5


@dataclass(frozen=True)
class ScenarioConfig:
    config_id: str
    kind: str
    scenario: ConfoundingScenario | CDEScenario | RMSTScenario | HRScenario
    method: MethodSpec


def _check_keys(obj: dict, allowed: set[str], required: set[str], path: str) -> None:
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected an object")
    extra = set(obj) - allowed
    if extra:
        raise ValidationError(f"{path}.{sorted(extra)[0]}: unexpected field")
    missing = required - set(obj)
    if missing:
        raise ValidationError(f"{path}.{sorted(missing)[0]}: missing required field")


def _number(obj: dict, key: str, path: str, default: float) -> float:
    return _json_number(obj[key], f"{path}.{key}") if key in obj else default


def _integer(obj: dict, key: str, path: str, default: int | None,
             minimum: int | None = None) -> int | None:
    """A JSON integer (not a bool) of at least ``minimum``, or ``default`` when absent."""
    if key not in obj:
        return default
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}.{key}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{path}.{key}: must be >= {minimum}, got {value}")
    return value


def _parse_confounding(obj: dict, path: str) -> ConfoundingScenario:
    _check_keys(obj, {"kind", "beta0", "beta1", "beta2", "confounders"},
                {"beta0", "beta1", "beta2", "confounders"}, path)
    conf = obj["confounders"]
    if isinstance(conf, dict):
        confounders = dist_from_json(conf, f"{path}.confounders")
        if not isinstance(confounders, MVNormal):
            confounders = (confounders,)
    elif isinstance(conf, list):
        confounders = tuple(dist_from_json(c, f"{path}.confounders[{i}]")
                            for i, c in enumerate(conf))
    else:
        raise ValidationError(f"{path}.confounders: expected an object or a list of objects")
    return ConfoundingScenario(beta0=_json_number(obj["beta0"], f"{path}.beta0"),
                               beta1=_json_number(obj["beta1"], f"{path}.beta1"),
                               beta2=np.asarray(_json_list(obj["beta2"], f"{path}.beta2")),
                               confounders=confounders)


def _parse_normal_block(obj: dict, path: str, default: Normal) -> Normal:
    if obj is None:
        return default
    _check_keys(obj, {"mu", "sigma2"}, set(), path)
    return Normal(_number(obj, "mu", path, default.mu), _number(obj, "sigma2", path, default.sigma2))


def _parse_cde(obj: dict, path: str) -> CDEScenario:
    _check_keys(obj, {"kind", "link", "beta", "a", "a_star", "m", "c", "u", "l"}, {"beta"}, path)
    defaults = CDEScenario()
    l_obj = obj.get("l")
    if l_obj is None:
        l_model = defaults.l_model
    else:
        l_path, d = f"{path}.l", defaults.l_model
        _check_keys(l_obj, {"intercept", "a_coef", "u_coef", "sigma2"}, set(), l_path)
        l_model = LModel(
            intercept=_number(l_obj, "intercept", l_path, d.intercept),
            a_coef=_number(l_obj, "a_coef", l_path, d.a_coef),
            u_coef=_number(l_obj, "u_coef", l_path, d.u_coef),
            sigma2=_number(l_obj, "sigma2", l_path, d.sigma2),
        )
    return CDEScenario(
        link=obj.get("link", defaults.link),
        beta=tuple(_json_list(obj["beta"], f"{path}.beta")),
        a=_integer(obj, "a", path, defaults.a),
        a_star=_integer(obj, "a_star", path, defaults.a_star),
        m=_number(obj, "m", path, defaults.m),
        c_dist=_parse_normal_block(obj.get("c"), f"{path}.c", defaults.c_dist),
        u_dist=_parse_normal_block(obj.get("u"), f"{path}.u", defaults.u_dist),
        l_model=l_model,
    )


def _parse_rmst(obj: dict, path: str) -> RMSTScenario:
    _check_keys(obj, {"kind", "mu0", "mu1", "beta0", "beta_a", "beta_m", "tau"}, set(), path)
    d = RMSTScenario()
    return RMSTScenario(
        mu0=_number(obj, "mu0", path, d.mu0),
        mu1=_number(obj, "mu1", path, d.mu1),
        beta0=_number(obj, "beta0", path, d.beta0),
        beta_a=_number(obj, "beta_a", path, d.beta_a),
        beta_m=_number(obj, "beta_m", path, d.beta_m),
        tau=_number(obj, "tau", path, d.tau),
    )


def _parse_hr(obj: dict, path: str) -> HRScenario:
    _check_keys(obj, {"kind", "alpha0", "alpha_a", "gamma", "lambda", "beta_a", "beta_m", "t_grid"},
                set(), path)
    d = HRScenario()
    t_obj = obj.get("t_grid")
    if t_obj is None:
        t_grid = d.t_grid
    elif isinstance(t_obj, dict):
        t_path = f"{path}.t_grid"
        _check_keys(t_obj, {"start", "stop", "num"}, {"start", "stop", "num"}, t_path)
        t_grid = np.linspace(_json_number(t_obj["start"], f"{t_path}.start"),
                             _json_number(t_obj["stop"], f"{t_path}.stop"),
                             _integer(t_obj, "num", t_path, None, minimum=1))
    else:
        t_grid = np.asarray(_json_list(t_obj, f"{path}.t_grid"))
    return HRScenario(
        alpha0=_number(obj, "alpha0", path, d.alpha0),
        alpha_a=_number(obj, "alpha_a", path, d.alpha_a),
        gamma=_number(obj, "gamma", path, d.gamma),
        lam=_number(obj, "lambda", path, d.lam),
        beta_a=_number(obj, "beta_a", path, d.beta_a),
        beta_m=_number(obj, "beta_m", path, d.beta_m),
        t_grid=t_grid,
    )


_PARSERS = {
    "confounding": _parse_confounding,
    "cde": _parse_cde,
    "rmst": _parse_rmst,
    "hr": _parse_hr,
}


def parse_config(obj: dict) -> ScenarioConfig:
    _check_keys(obj, {"schema_version", "id", "scenario", "method"},
                {"schema_version", "id", "scenario"}, "config")
    if isinstance(obj["schema_version"], bool) or obj["schema_version"] != SCHEMA_VERSION:
        raise ValidationError(
            f"config.schema_version: expected {SCHEMA_VERSION}, got {obj['schema_version']!r}"
        )
    scen_obj = obj["scenario"]
    if not isinstance(scen_obj, dict) or "kind" not in scen_obj:
        raise ValidationError("config.scenario.kind: missing required field")
    kind = scen_obj["kind"]
    if kind not in _PARSERS:
        raise ValidationError(
            f"config.scenario.kind: unknown kind {kind!r}; expected one of {sorted(_PARSERS)}"
        )
    scenario = _PARSERS[kind](scen_obj, "config.scenario")

    method_obj = obj.get("method", {})
    _check_keys(method_obj, {"level", "decomposition", "n_samples", "n_reps", "seed", "hr_t_subset"},
                set(), "config.method")
    try:
        decomposition = Decomposition(method_obj.get("decomposition", "spectral"))
    except ValueError as exc:
        raise ValidationError(f"config.method.decomposition: {exc}") from None
    # a null Monte Carlo field counts as unset; the mc and compare commands report it
    mc_fields = {key: _integer(method_obj, key, "config.method", None, minimum)
                 for key, minimum in (("n_samples", 1), ("n_reps", 1), ("seed", 0))
                 if method_obj.get(key) is not None}
    method = MethodSpec(
        level=_integer(method_obj, "level", "config.method", 20, minimum=1),
        decomposition=decomposition,
        hr_t_subset=_integer(method_obj, "hr_t_subset", "config.method", 5, minimum=1),
        **mc_fields,
    )
    return ScenarioConfig(config_id=str(obj["id"]), kind=kind, scenario=scenario, method=method)


def load_config(path) -> ScenarioConfig:
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    return parse_config(obj)
