"""Multivariate tensor-product quadrature grids and covariance rotation.

A D-dimensional grid with level K holds the K^D Cartesian product of
univariate nodes with product weights.  A standard-normal grid can be mapped
onto N(mean, cov) by an affine transform ``points -> mean + points @ S.T``
where S is a square root of the covariance matrix:

    none       S = diag(sqrt(diag(cov)))   axis-aligned; ignores correlations
    cholesky   S = lower Cholesky factor
    spectral   S = Q sqrt(L) Q^T            symmetric square root (principal axes)

For D = 2 with unit variances and correlation rho, cholesky places points at
(c1, rho*c1 + sqrt(1-rho^2)*c2) and spectral at (a*c1 + b*c2, b*c1 + a*c2)
with a = (sqrt(1+rho) + sqrt(1-rho))/2 and b = (sqrt(1+rho) - sqrt(1-rho))/2.
Cholesky and spectral both reproduce the target mean and covariance exactly
for K >= 2; the "none" variant keeps only the marginal variances and is the
inefficient baseline of correlated settings.

``integrate_nd`` calls its integrand once on the (n, D) point array; a callable
that takes one length-D vector is evaluated point by point, with a RuntimeWarning.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .errors import PointBudgetError, ValidationError
from .rules import Rule1D, _weighted_sum, compute_rule, hermite_kind

DEFAULT_POINT_BUDGET = 10_000_000


class Decomposition(str, Enum):
    NONE = "none"
    CHOLESKY = "cholesky"
    SPECTRAL = "spectral"


@dataclass(frozen=True)
class CovSpec:
    """Mean vector and positive-definite covariance matrix."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self) -> None:
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.covariance, dtype=float))
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValidationError(
                f"covariance shape {cov.shape} does not match mean length {mean.size}"
            )
        if not np.allclose(cov, cov.T, rtol=0.0, atol=1e-12):
            raise ValidationError("covariance must be symmetric (tolerance 1e-12)")
        smallest = float(np.linalg.eigvalsh(cov)[0])
        if smallest <= 0.0:
            raise ValidationError(
                f"covariance must be positive definite; smallest eigenvalue is {smallest:.6e}"
            )
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class GridND:
    """Points (K^D x D) and weights (K^D) of a multivariate quadrature grid."""

    dim: int
    level: int
    points: np.ndarray
    weights: np.ndarray
    decomposition: Decomposition = Decomposition.NONE
    cov: CovSpec | None = None

    def __post_init__(self) -> None:
        points = np.asarray(self.points, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        points.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "weights", weights)


def _check_budget(level: int, dim: int, point_budget: int) -> int:
    count = level**dim
    if count > point_budget:
        raise PointBudgetError(
            f"grid would hold K^D = {level}^{dim} = {count} points, beyond the budget of {point_budget}"
        )
    return count


def _cartesian(nodes_per_dim: Sequence[np.ndarray], weights_per_dim: Sequence[np.ndarray]):
    mesh = np.meshgrid(*nodes_per_dim, indexing="ij")
    points = np.column_stack([m.ravel() for m in mesh])
    weights = reduce(np.multiply.outer, weights_per_dim).ravel()
    return points, weights


def tensor_grid(level: int, dim: int, point_budget: int = DEFAULT_POINT_BUDGET) -> GridND:
    """Standard-normal product grid: K^D points with product weights summing to one."""
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    _check_budget(level, dim, point_budget)
    raw = compute_rule(hermite_kind(), level)
    nodes = math.sqrt(2.0) * raw.nodes
    weights = raw.weights / raw.kind.kernel_mass
    points, w = _cartesian([nodes] * dim, [weights] * dim)
    return GridND(dim=dim, level=level, points=points, weights=w)


def product_grid(rules: Sequence[Rule1D], point_budget: int = DEFAULT_POINT_BUDGET) -> GridND:
    """Product grid of independent normalized univariate rules (one per dimension)."""
    if len(rules) < 1:
        raise ValidationError("product_grid needs at least one rule")
    levels = {r.level for r in rules}
    if len(levels) != 1:
        raise ValidationError(f"per-dimension levels must be uniform, got {sorted(levels)}")
    if not all(r.normalized for r in rules):
        raise ValidationError("product_grid requires normalized rules")
    level = rules[0].level
    _check_budget(level, len(rules), point_budget)
    points, w = _cartesian([r.nodes for r in rules], [r.weights for r in rules])
    return GridND(dim=len(rules), level=level, points=points, weights=w)


def _sqrt_factor(cov: CovSpec, decomposition: Decomposition) -> np.ndarray:
    if decomposition == Decomposition.NONE:
        return np.diag(np.sqrt(np.diag(cov.covariance)))
    if decomposition == Decomposition.CHOLESKY:
        return np.linalg.cholesky(cov.covariance)
    evals, evecs = np.linalg.eigh(cov.covariance)
    # descending eigenvalues, deterministic sign (first nonzero component positive)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    for j in range(evecs.shape[1]):
        col = evecs[:, j]
        lead = col[np.argmax(np.abs(col) > 0.0)]
        if lead < 0.0:
            evecs[:, j] = -col
    return evecs @ np.diag(np.sqrt(evals)) @ evecs.T


def rotate_grid(grid: GridND, cov: CovSpec, decomposition: Decomposition) -> GridND:
    """Map a standard-normal grid onto N(cov.mean, cov.covariance).

    Only the points move; the weight vector is untouched.  With cholesky or
    spectral the weighted point cloud reproduces the target mean and
    covariance exactly for K >= 2.
    """
    if grid.cov is not None:
        raise ValidationError("grid is already rotated; build a fresh tensor_grid first")
    if cov.dim != grid.dim:
        raise ValidationError(f"covariance dimension {cov.dim} does not match grid dimension {grid.dim}")
    decomposition = Decomposition(decomposition)
    factor = _sqrt_factor(cov, decomposition)
    points = cov.mean + grid.points @ factor.T
    return GridND(dim=grid.dim, level=grid.level, points=points, weights=grid.weights,
                  decomposition=decomposition, cov=cov)


def integrate_nd(grid: GridND, f: Callable) -> float:
    """Return sum_p w_p f(point_p) as one deterministic dot product."""
    return _weighted_sum(grid.weights, grid.points, f)
