"""Distribution specifications shared by the quadrature and Monte Carlo paths.

Each distribution knows its density, how to sample reproducibly, and which
quadrature rule integrates against it (``rule_for``).  Sampling uses NumPy's
PCG64 generator via ``np.random.default_rng(seed)``; a given (dist, n, seed)
triple always produces the same values.
"""
from __future__ import annotations

import math
import sys
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass, replace
from typing import Callable, Iterator, Union

import numpy as np

from .errors import ValidationError
from .grids import CovSpec, Decomposition, GridND, rotate_grid, tensor_grid
from .rules import (
    Rule1D,
    compute_rule,
    genlaguerre_kind,
    hermite_kind,
    laguerre_kind,
    legendre_kind,
    rescale_rule,
)

#: Most rows that the MVNormal draw and the Monte Carlo passes of
#: ``truthquad.mc`` work on at a time: 256 KiB of float64, which stays in cache.
BLOCK = 1 << 15


def blocks(n: int) -> Iterator[slice]:
    """ceil(n / BLOCK) consecutive slices of near-equal length that cover ``range(n)``.

    With equal lengths no block is shorter than BLOCK / 2 rows once there are
    two.  That matters to ``MVNormal.draw``: numpy hands a one-row matmul to a
    BLAS routine that rounds differently, so a one-row tail block would not
    reproduce numpy's whole-array values.
    """
    count = -(-n // BLOCK)
    edges = [n * i // count for i in range(count + 1)]
    return (slice(lo, hi) for lo, hi in zip(edges, edges[1:]))


@dataclass(frozen=True)
class Normal:
    mu: float
    sigma2: float
    family = "normal"

    def __post_init__(self) -> None:
        if not self.sigma2 > 0.0:
            raise ValidationError(f"sigma2 must be positive, got {self.sigma2}")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.mu) ** 2 / (2.0 * self.sigma2)
        out = np.exp(-z) / math.sqrt(2.0 * math.pi * self.sigma2)
        return float(out) if out.ndim == 0 else out

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.normal(self.mu, math.sqrt(self.sigma2), n)

    def mean(self) -> float:
        return self.mu

    def variance(self) -> float:
        return self.sigma2


@dataclass(frozen=True)
class Uniform:
    a: float
    b: float
    family = "uniform"

    def __post_init__(self) -> None:
        if not self.a < self.b:
            raise ValidationError(f"uniform requires a < b, got a={self.a}, b={self.b}")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where((x >= self.a) & (x <= self.b), 1.0 / (self.b - self.a), 0.0)
        return float(out) if out.ndim == 0 else out

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.a, self.b, n)

    def mean(self) -> float:
        return 0.5 * (self.a + self.b)

    def variance(self) -> float:
        return (self.b - self.a) ** 2 / 12.0


@dataclass(frozen=True)
class Exponential:
    rate: float
    family = "exponential"

    def __post_init__(self) -> None:
        if not self.rate > 0.0:
            raise ValidationError(f"rate must be positive, got {self.rate}")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(x >= 0.0, self.rate * np.exp(-self.rate * np.maximum(x, 0.0)), 0.0)
        return float(out) if out.ndim == 0 else out

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, n)

    def mean(self) -> float:
        return 1.0 / self.rate

    def variance(self) -> float:
        return 1.0 / self.rate**2


@dataclass(frozen=True)
class Gamma:
    """Shape-rate parameterization: mean = shape / rate."""

    shape: float
    rate: float
    family = "gamma"

    def __post_init__(self) -> None:
        if not self.shape > 0.0:
            raise ValidationError(f"shape must be positive, got {self.shape}")
        if not self.rate > 0.0:
            raise ValidationError(f"rate must be positive, got {self.rate}")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        xx = np.maximum(x, 0.0)
        out = np.where(
            x > 0.0,
            self.rate**self.shape * xx ** (self.shape - 1.0) * np.exp(-self.rate * xx)
            / math.gamma(self.shape),
            0.0,
        )
        return float(out) if out.ndim == 0 else out

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.gamma(self.shape, 1.0 / self.rate, n)

    def mean(self) -> float:
        return self.shape / self.rate

    def variance(self) -> float:
        return self.shape / self.rate**2


@dataclass(frozen=True)
class MVNormal:
    cov: CovSpec
    family = "mvnormal"

    @classmethod
    def of(cls, mean, covariance) -> "MVNormal":
        return cls(CovSpec(np.asarray(mean, dtype=float), np.asarray(covariance, dtype=float)))

    @property
    def dim(self) -> int:
        return self.cov.dim

    def pdf(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[-1] != self.dim:
            raise ValidationError(f"point dimension {x.shape[-1]} does not match MVNormal dimension {self.dim}")
        diff = x - self.cov.mean
        solved = np.linalg.solve(self.cov.covariance, diff.T).T
        quad_form = np.einsum("ij,ij->i", diff, solved)
        _, logdet = np.linalg.slogdet(self.cov.covariance)
        log_norm = -0.5 * (self.dim * math.log(2.0 * math.pi) + logdet)
        out = np.exp(log_norm - 0.5 * quad_form)
        return float(out[0]) if out.size == 1 else out

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """The values of ``rng.multivariate_normal(mean, cov, n, method="cholesky")``.

        The Cholesky factor is applied in place block by block, not into a second (n, D) array.
        """
        x = rng.standard_normal((n, self.dim))
        factor_t = np.linalg.cholesky(self.cov.covariance).T
        for rows in blocks(n):
            block = x[rows]
            np.matmul(block, factor_t, out=block)
        x += self.cov.mean
        return x

    def mean(self) -> np.ndarray:
        return self.cov.mean

    def variance(self) -> np.ndarray:
        return self.cov.covariance


Dist = Union[Normal, Uniform, Exponential, Gamma, MVNormal]


def pdf(dist: Dist, x):
    """Density of ``dist`` at ``x`` (vectorized over arrays)."""
    return dist.pdf(x)


def sample(dist: Dist, n: int, seed: int):
    """Draw ``n`` reproducible samples; a pure function of (dist, n, seed)."""
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    return dist.draw(np.random.default_rng(seed), n)


def rule_for(dist: Dist, level: int,
             decomposition: Decomposition = Decomposition.SPECTRAL) -> Rule1D | GridND:
    """Normalized quadrature rule (or rotated grid) matching ``dist``.

    normal -> hermite, uniform -> legendre, exponential -> laguerre,
    gamma -> genlaguerre(shape - 1); mvnormal -> hermite tensor grid rotated
    with the requested decomposition (spectral by default).
    """
    if isinstance(dist, Normal):
        return rescale_rule(compute_rule(hermite_kind(), level), dist)
    if isinstance(dist, Uniform):
        return rescale_rule(compute_rule(legendre_kind(), level), dist)
    if isinstance(dist, Exponential):
        return rescale_rule(compute_rule(laguerre_kind(), level), dist)
    if isinstance(dist, Gamma):
        return rescale_rule(compute_rule(genlaguerre_kind(dist.shape - 1.0), level), dist)
    if isinstance(dist, MVNormal):
        return rotate_grid(tensor_grid(level, dist.dim), dist.cov, decomposition)
    raise ValidationError(f"unsupported distribution {dist!r}")


def dist_to_json(dist: Dist) -> dict:
    """Tagged-object form used in scenario config files."""
    if isinstance(dist, MVNormal):
        return {"type": "mvnormal", "mean": dist.cov.mean.tolist(),
                "cov": dist.cov.covariance.tolist()}
    return {"type": dist.family, **asdict(dist)}


def _check_keys(obj, allowed: set[str], required: set[str], path: str) -> None:
    """Reject a non-object, an unexpected key or a missing one, naming its path."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: expected an object")
    extra = set(obj) - allowed
    if extra:
        raise ValidationError(f"{path}.{sorted(extra)[0]}: unexpected field")
    missing = required - set(obj)
    if missing:
        raise ValidationError(f"{path}.{sorted(missing)[0]}: missing field")


def _json_number(value, path: str) -> float:
    """A finite JSON number as a float; anything else is rejected under its path."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):  # also false for NaN
        raise ValidationError(f"{path}: expected a finite number, got {value!r}")
    return float(value)


def _integer(value, path: str, minimum: int | None = None, maximum: int | None = None) -> int:
    """A JSON integer (not a bool) of at least ``minimum`` and at most ``maximum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{path}: must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{path}: must be <= {maximum}, got {value}")
    return value


def _string(value, path: str) -> str:
    if not isinstance(value, str):
        raise ValidationError(f"{path}: expected a string, got {value!r}")
    return value


def _json_list(value, path: str, item=_json_number) -> list:
    """A JSON list whose entries ``item`` parses, each checked under its own path."""
    if not isinstance(value, list):
        raise ValidationError(f"{path}: expected a list, got {value!r}")
    return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _built(path: str, make, *args, **kwargs):
    """``make(*args, **kwargs)``, re-raising its ValueError as a ValidationError under ``path``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ValidationError(f"{path}: {exc}") from None


#: How ``read_fields`` reads a value, by its field's annotation.
_READERS = {
    "float": _json_number,
    "int": _integer,
    "str": _string,
    "tuple[float, ...]": lambda value, path: tuple(_json_list(value, path)),
    "np.ndarray": lambda value, path: np.asarray(_json_list(value, path)),
}


def read_fields(cls, obj, path: str, default=None, names: dict[str, str] = {},
                special: dict[str, Callable] = {}):
    """The dataclass ``cls`` read from the JSON object ``obj``: its fields are the schema.

    A field's key is its name, or ``names[name]``.  Its value is read by
    ``special[name]``; if its default is a dataclass, as a nested object read
    likewise, where null keeps the default; else by its annotation's reader.
    Without ``default`` the fields with no default are required and the
    result is ``cls(**values)``; with it none are, and the result is
    ``replace(default, **values)``.
    """
    by_key = {names.get(f.name, f.name): f for f in fields(cls)}
    required = set() if default is not None else {
        key for key, f in by_key.items() if f.default is MISSING and f.default_factory is MISSING}
    _check_keys(obj, set(by_key), required, path)
    values = {}
    for key, value in obj.items():
        f, key_path = by_key[key], f"{path}.{key}"
        if f.name in special:
            values[f.name] = special[f.name](value, key_path)
        elif is_dataclass(f.default):
            if value is not None:
                values[f.name] = read_fields(type(f.default), value, key_path, f.default, names, special)
        else:
            values[f.name] = _READERS[f.type](value, key_path)
    if default is None:
        return _built(path, cls, **values)
    return _built(path, replace, default, **values)


_FAMILIES = {cls.family: cls for cls in (Normal, Uniform, Exponential, Gamma, MVNormal)}


def dist_from_json(obj: dict, path: str = "distribution") -> Dist:
    """Parse a tagged distribution object, rejecting unknown fields."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise ValidationError(f"{path}: expected an object with a 'type' tag")
    family = obj["type"]
    cls = _FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise ValidationError(f"{path}.type: unknown distribution type {family!r}")
    body = {key: value for key, value in obj.items() if key != "type"}
    if cls is not MVNormal:
        return read_fields(cls, body, path)
    _check_keys(body, {"mean", "cov"}, {"mean", "cov"}, path)
    return _built(path, MVNormal.of, _json_list(body["mean"], f"{path}.mean"),
                  _json_list(body["cov"], f"{path}.cov", _json_list))
