"""JSON scenario configuration: schema validation and scenario construction.

A config file carries a schema version, an identifier, a tagged scenario
block read from its dataclass's fields, and a method block (quadrature
level/decomposition plus Monte Carlo sample size, repetitions and seed).
Anything rejected is named by its full path, so typos cannot change a study.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .distributions import (
    MVNormal,
    _built,
    _check_keys,
    _integer,
    _json_list,
    _json_number,
    _string,
    dist_from_json,
    read_fields,
)
from .errors import ValidationError
from .grids import Decomposition
from .rules import MAX_LEVEL
from .scenarios import (
    CDEScenario,
    ConfoundingScenario,
    HRScenario,
    RMSTScenario,
    _default_t_grid,
)

SCHEMA_VERSION = 1

#: Budgets on the sizes a config may ask for, checked as it is read and so
#: before any array of that size is built: HR time points (a list or a
#: linspace ``num``), Monte Carlo draws per repetition, and repetitions.
#: The quadrature level is bounded by ``rules.MAX_LEVEL`` in the same pass.
MAX_T_POINTS = 10_000
MAX_N_SAMPLES = 10_000_000
MAX_N_REPS = 10_000
_METHOD_MAXIMA = {"level": MAX_LEVEL, "n_samples": MAX_N_SAMPLES, "n_reps": MAX_N_REPS}


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


_KINDS = {"confounding": ConfoundingScenario, "cde": CDEScenario, "rmst": RMSTScenario,
          "hr": HRScenario}

#: The JSON names of the scenario fields whose JSON name is not the field name.
_JSON_NAMES = {"lam": "lambda", "c_dist": "c", "u_dist": "u", "l_model": "l"}


def _confounders(value, path: str):
    """One tagged distribution (an MVNormal, or one univariate) or a list of univariate ones."""
    if isinstance(value, dict):
        dist = dist_from_json(value, path)
        return dist if isinstance(dist, MVNormal) else (dist,)
    if isinstance(value, list):
        return tuple(dist_from_json(c, f"{path}[{i}]") for i, c in enumerate(value))
    raise ValidationError(f"{path}: expected an object or a list of objects")


def _t_grid(value, path: str):
    """HR's time points: a list, ``{start, stop, num}`` for a linspace, or null for the default."""
    if value is None:
        return _default_t_grid()
    if isinstance(value, dict):
        _check_keys(value, {"start", "stop", "num"}, {"start", "stop", "num"}, path)
        return np.linspace(_json_number(value["start"], f"{path}.start"),
                           _json_number(value["stop"], f"{path}.stop"),
                           _integer(value["num"], f"{path}.num", minimum=1, maximum=MAX_T_POINTS))
    if isinstance(value, list) and len(value) > MAX_T_POINTS:
        raise ValidationError(f"{path}: at most {MAX_T_POINTS} time points, got {len(value)}")
    return np.asarray(_json_list(value, path))


_SPECIAL = {"confounders": _confounders, "t_grid": _t_grid}


def parse_config(obj: dict) -> ScenarioConfig:
    _check_keys(obj, {"schema_version", "id", "scenario", "method"},
                {"schema_version", "id", "scenario"}, "config")
    if isinstance(obj["schema_version"], bool) or obj["schema_version"] != SCHEMA_VERSION:
        raise ValidationError(
            f"config.schema_version: expected {SCHEMA_VERSION}, got {obj['schema_version']!r}"
        )
    config_id = _string(obj["id"], "config.id")
    if not config_id or any(c in config_id for c in ',"\r\n'):  # it is one unquoted CSV cell
        raise ValidationError(
            f"config.id: must be non-empty, without commas, quotes or line breaks; got {config_id!r}")
    scen_obj = obj["scenario"]
    if not isinstance(scen_obj, dict) or "kind" not in scen_obj:
        raise ValidationError("config.scenario.kind: missing field")
    kind = _string(scen_obj["kind"], "config.scenario.kind")
    if kind not in _KINDS:
        raise ValidationError(
            f"config.scenario.kind: unknown kind {kind!r}; expected one of {sorted(_KINDS)}"
        )
    body = {key: value for key, value in scen_obj.items() if key != "kind"}
    scenario = read_fields(_KINDS[kind], body, "config.scenario", names=_JSON_NAMES, special=_SPECIAL)

    method_obj = obj.get("method", {})
    _check_keys(method_obj, {f.name for f in fields(MethodSpec)}, set(), "config.method")
    method = {}
    for key, value in method_obj.items():
        if key == "decomposition":
            method[key] = _built(f"config.method.{key}", Decomposition, value)
        # a null Monte Carlo field counts as unset; the mc and compare commands report it
        elif value is not None or key in ("level", "hr_t_subset"):
            method[key] = _integer(value, f"config.method.{key}", minimum=0 if key == "seed" else 1,
                                   maximum=_METHOD_MAXIMA.get(key))
    return ScenarioConfig(config_id, kind, scenario, MethodSpec(**method))


def load_config(path) -> ScenarioConfig:
    text = Path(path).read_text()
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    return parse_config(obj)
