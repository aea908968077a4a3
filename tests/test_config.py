"""Property tests of the config boundary.

Any JSON value put at any field of a shipped config either parses or is
rejected with a ValidationError that names its config path; no other
exception escapes.  A size field (HR's t-grid ``num``, ``n_samples``,
``n_reps``, ``level``) beyond its budget is rejected before any array of that
size is built.  Examples are derandomized, so every run checks the same inputs.
"""
import copy
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from truthquad import ValidationError
from truthquad.config import MAX_N_REPS, MAX_N_SAMPLES, MAX_T_POINTS, parse_config
from truthquad.rules import MAX_LEVEL

CONFIGS = {path.stem: json.loads(path.read_text())
           for path in sorted((Path(__file__).parent.parent / "configs").glob("*.json"))}

#: A few valid tags and names, so that a swapped value is sometimes read further than its type check.
NAMES = st.sampled_from(["normal", "uniform", "exponential", "gamma", "mvnormal", "confounding",
                         "cde", "rmst", "hr", "identity", "logit", "spectral", "cholesky"])
SCALARS = (st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats()
           | st.sampled_from([1e308, -1e308]) | st.text(max_size=6) | NAMES)
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6) | NAMES, inner,
                                                                 max_size=4),
    max_leaves=8,
)


def field_paths(obj, prefix=()):
    """The key path of every field, through nested objects and lists of objects."""
    for key, value in obj.items():
        path = (*prefix, key)
        yield path
        if isinstance(value, dict):
            yield from field_paths(value, path)
        elif isinstance(value, list):
            for i, item in enumerate(value):
                if isinstance(item, dict):
                    yield from field_paths(item, (*path, i))


CASES = [(name, path) for name, obj in CONFIGS.items() for path in field_paths(obj)]


@pytest.mark.parametrize("name,path", CASES,
                         ids=[f"{name}:{'.'.join(map(str, path))}" for name, path in CASES])
@settings(derandomize=True, max_examples=10, deadline=None, database=None)
@given(value=JSON_VALUES)
@example(value=None)
@example(value=True)
@example(value=-10**6)
@example(value=1e308)
@example(value="x")
@example(value=[1.0, [2.0]])
@example(value={"kind": "normal"})
def test_any_value_parses_or_names_its_config_path(name, path, value):
    obj = copy.deepcopy(CONFIGS[name])
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        parse_config(obj)
    except ValidationError as exc:
        assert "config." in str(exc)


BUDGETS = {"num": MAX_T_POINTS, "n_samples": MAX_N_SAMPLES, "n_reps": MAX_N_REPS, "level": MAX_LEVEL}
SIZE_CASES = [(name, path) for name, path in CASES if path[-1] in BUDGETS]


_LINSPACE = np.linspace


def _small_linspace(start, stop, num=50, **kwargs):
    assert num <= MAX_T_POINTS, f"a linspace of {num} points was built"
    return _LINSPACE(start, stop, num, **kwargs)


@pytest.mark.parametrize("name,path", SIZE_CASES,
                         ids=[f"{name}:{'.'.join(map(str, path))}" for name, path in SIZE_CASES])
@settings(derandomize=True, max_examples=20, deadline=None, database=None)
@given(value=st.integers(-10**12, 10**12))
@example(value=0)
@example(value=1)
@example(value=MAX_LEVEL)
@example(value=MAX_LEVEL + 1)
@example(value=MAX_T_POINTS)
@example(value=MAX_T_POINTS + 1)
@example(value=MAX_N_REPS + 1)
@example(value=MAX_N_SAMPLES)
@example(value=MAX_N_SAMPLES + 1)
@example(value=10**12)
def test_size_fields_are_bounded_before_allocating(name, path, value):
    obj = copy.deepcopy(CONFIGS[name])
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    within = 1 <= value <= BUDGETS[path[-1]]
    with mock.patch.object(np, "linspace", _small_linspace):
        try:
            parse_config(obj)
        except ValidationError as exc:
            assert not within
            assert str(exc).startswith(f"config.{'.'.join(path)}: ")
        else:
            assert within


def test_every_block_kind_is_covered():
    keys = {path[-1] for _, path in CASES}
    assert {"confounders", "type", "mean", "cov", "t_grid", "num", "c", "l", "sigma2", "lambda",
            "link", "beta", "a_star", "tau", "kind", "id", "level", "decomposition", "seed", "n_samples",
            "n_reps"} <= keys
