"""Univariate Gaussian quadrature rules for probability-density kernels.

A K-point rule approximates integrals against a fixed kernel with a finite sum,

    integral of f(x) * kernel(x) dx  ~=  sum_i w_i f(x_i),

and is exact whenever f is a polynomial of degree <= 2K-1.  Four kernels are
supported, each matching a distribution family:

    hermite      exp(-x^2)            on (-inf, inf)   -> normal
    legendre     1                    on [-1, 1]       -> uniform
    laguerre     exp(-x)              on [0, inf)      -> exponential
    genlaguerre  x^alpha * exp(-x)    on [0, inf)      -> gamma (alpha = shape - 1)

Nodes and weights are built with the Golub-Welsch method: the nodes are the
eigenvalues of the symmetric tridiagonal Jacobi matrix of the kernel's
three-term recurrence, computed by numpy's symmetric eigensolver, and each
weight is the Christoffel function at its node, the kernel mass over the sum
of the squared orthonormal polynomials p_0..p_{K-1}.  That recurrence stays
accurate where the eigenvector first components of Golub-Welsch's own weight
formula underflow.  The construction is uniform across the four families; the
classical explicit weight formulas are kept as cross-checks in the test
suite, not as the construction path.

Raw rules carry the kernel's own weight mass (e.g. sqrt(pi) for hermite).
``rescale_rule`` turns a raw rule into a normalized rule targeting E[f(X)]
for X from the matching distribution family; normalized weights sum to one.

Integrands are called once on the whole (n,) node array and return n values.
A callable that only takes scalars is evaluated point by point, with a
RuntimeWarning.  A NaN or infinite value raises NonFiniteEvaluationError.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonFiniteEvaluationError, NumericDomainError, ValidationError

HERMITE = "hermite"
LEGENDRE = "legendre"
LAGUERRE = "laguerre"
GENLAGUERRE = "genlaguerre"

FAMILIES = (HERMITE, LEGENDRE, LAGUERRE, GENLAGUERRE)

#: Hard cap on the quadrature level; a warning is emitted beyond SOFT_MAX_LEVEL
#: because rules past ~50 points sit at the machine-epsilon accuracy floor.
MAX_LEVEL = 64
SOFT_MAX_LEVEL = 50


@dataclass(frozen=True)
class RuleKind:
    """Kernel family of a quadrature rule; ``alpha`` only applies to genlaguerre."""

    family: str
    alpha: float | None = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValidationError(f"unknown rule family {self.family!r}; expected one of {FAMILIES}")
        if self.family == GENLAGUERRE:
            if self.alpha is None:
                raise ValidationError("genlaguerre requires alpha")
            if not self.alpha > -1.0:
                raise ValidationError(f"alpha must exceed -1, got {self.alpha}")
        elif self.alpha is not None:
            raise ValidationError(f"alpha is only meaningful for genlaguerre, not {self.family}")

    @property
    def kernel_mass(self) -> float:
        """Total kernel integral: the sum of raw weights."""
        if self.family == HERMITE:
            return math.sqrt(math.pi)
        if self.family == LEGENDRE:
            return 2.0
        if self.family == LAGUERRE:
            return 1.0
        try:
            return math.gamma(self.alpha + 1.0)
        except OverflowError:  # alpha above about 170.6
            raise NumericDomainError(
                f"genlaguerre kernel mass Gamma(alpha + 1) overflows for alpha = {self.alpha}") from None


def hermite_kind() -> RuleKind:
    return RuleKind(HERMITE)


def legendre_kind() -> RuleKind:
    return RuleKind(LEGENDRE)


def laguerre_kind() -> RuleKind:
    return RuleKind(LAGUERRE)


def genlaguerre_kind(alpha: float) -> RuleKind:
    return RuleKind(GENLAGUERRE, alpha=float(alpha))


@dataclass(frozen=True)
class Rule1D:
    """Nodes and weights of a univariate quadrature rule.

    Nodes are strictly increasing and all weights are positive.  When
    ``normalized`` the weights sum to one (probability-kernel convention);
    otherwise they sum to the kernel mass.
    """

    kind: RuleKind
    level: int
    nodes: np.ndarray
    weights: np.ndarray
    normalized: bool

    def __post_init__(self) -> None:
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        nodes.setflags(write=False)
        weights.setflags(write=False)
        # views of read-only arrays cannot be made writeable again, so no caller can alter a cached rule
        object.__setattr__(self, "nodes", nodes.view())
        object.__setattr__(self, "weights", weights.view())

    def normalize(self) -> "Rule1D":
        """Return the probability-convention rule (weights summing to one)."""
        if self.normalized:
            return self
        return Rule1D(self.kind, self.level, self.nodes,
                      self.weights / self.weights.sum(), normalized=True)


# Keep this module-level name: perfbench/tracing.py wraps it for the rules.eigh metric.
def eigh_tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the symmetric tridiagonal matrix with ``diag`` and ``off``."""
    # eigvalsh reads only the lower triangle, so the superdiagonal is left empty
    return np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))


def _recurrence(kind: RuleKind, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Jacobi-matrix diagonal and off-diagonal for the kernel's orthogonal polynomials."""
    n = np.arange(level, dtype=float)
    m = n[1:]
    if kind.family == HERMITE:
        diag = np.zeros(level)
        off = np.sqrt(m / 2.0)
    elif kind.family == LEGENDRE:
        diag = np.zeros(level)
        off = m / np.sqrt(4.0 * m**2 - 1.0)
    elif kind.family == LAGUERRE:
        diag = 2.0 * n + 1.0
        off = m
    else:
        alpha = float(kind.alpha)
        diag = 2.0 * n + alpha + 1.0
        off = np.sqrt(m * (m + alpha))
    return diag, off


def _christoffel_weights(diag: np.ndarray, off: np.ndarray, nodes: np.ndarray,
                         mass: float) -> np.ndarray:
    """Weights as the Christoffel function: mass / sum_k p_k(x_i)^2.

    The orthonormal-polynomial recurrence stays accurate where the eigenvector
    first components underflow (tail weights of Laguerre-type rules fall below
    1e-40 already around K = 30).
    """
    p_prev = np.zeros_like(nodes)
    p = np.ones_like(nodes)
    total = np.ones_like(nodes)
    for k in range(1, len(nodes)):
        p_next = ((nodes - diag[k - 1]) * p - (off[k - 2] if k > 1 else 0.0) * p_prev) / off[k - 1]
        p_prev, p = p, p_next
        total += p * p
    return mass / total


def compute_rule(kind: RuleKind, level: int) -> Rule1D:
    """The K-point raw rule for ``kind`` (weights sum to the kernel mass).

    Exact for polynomials of degree <= 2K-1 against the kernel.  Deterministic:
    identical inputs produce bit-identical nodes and weights.  The level is
    checked on every call; the rule itself comes from a process-wide cache
    keyed on (kind, level), so every caller shares one read-only ``Rule1D``.
    """
    if not isinstance(level, (int, np.integer)) or isinstance(level, bool):
        raise ValidationError(f"level must be an integer, got {level!r}")
    if level < 1:
        raise ValidationError(f"level must be >= 1, got {level}")
    if level > MAX_LEVEL:
        raise ValidationError(f"level {level} exceeds the cap of {MAX_LEVEL}")
    if level > SOFT_MAX_LEVEL:
        warnings.warn(
            f"level {level} exceeds {SOFT_MAX_LEVEL}; accuracy is already at the "
            "machine-epsilon floor for smooth integrands",
            stacklevel=2,
        )
    return _build_rule(kind, int(level))


def clear_rule_cache() -> None:
    """Empty the rule cache, so that the next ``compute_rule`` of each (kind, level) builds it."""
    _build_rule.cache_clear()


# 256 rules of at most MAX_LEVEL points hold under 1 MB.  A concurrent miss on
# one key may build the rule twice; both builds have the same bits.
@functools.lru_cache(maxsize=256)
def _build_rule(kind: RuleKind, level: int) -> Rule1D:
    """Golub-Welsch construction of the raw rule; ``compute_rule`` validates ``level`` first."""
    diag, off = _recurrence(kind, level)
    nodes = eigh_tridiagonal(diag, off)
    if kind.family in (HERMITE, LEGENDRE):
        # kernels are symmetric: enforce exact node symmetry
        nodes = 0.5 * (nodes - nodes[::-1])
    weights = _christoffel_weights(diag, off, nodes, kind.kernel_mass)
    if kind.family in (HERMITE, LEGENDRE):
        weights = 0.5 * (weights + weights[::-1])
    return Rule1D(kind=kind, level=level, nodes=nodes, weights=weights, normalized=False)


def rescale_rule(rule: Rule1D, dist) -> Rule1D:
    """Rescale ``rule`` so its weighted sum approximates E[f(X)] for X ~ ``dist``.

    The rule kind must match the distribution family (hermite <-> normal,
    legendre <-> uniform, laguerre <-> exponential, genlaguerre <-> gamma with
    alpha = shape - 1).  The result is normalized.
    """
    family = getattr(dist, "family", None)
    expected = {HERMITE: "normal", LEGENDRE: "uniform",
                LAGUERRE: "exponential", GENLAGUERRE: "gamma"}[rule.kind.family]
    if family != expected:
        raise ValidationError(
            f"rule kind {rule.kind.family!r} pairs with {expected!r} distributions, got {family!r}"
        )
    norm = rule.normalize()
    if family == "normal":
        # x = (c - mu) / (sqrt(2) sigma)  =>  c = sqrt(2) sigma x + mu
        nodes = math.sqrt(2.0) * math.sqrt(dist.sigma2) * norm.nodes + dist.mu
    elif family == "uniform":
        # t = (2x - b - a) / (b - a)  =>  x = (b - a) t / 2 + (a + b) / 2
        nodes = 0.5 * (dist.b - dist.a) * norm.nodes + 0.5 * (dist.a + dist.b)
    elif family == "exponential":
        # t = rate * x
        nodes = norm.nodes / dist.rate
    else:
        if not math.isclose(rule.kind.alpha, dist.shape - 1.0, rel_tol=0.0, abs_tol=1e-12):
            raise ValidationError(
                f"genlaguerre alpha {rule.kind.alpha} does not match gamma shape-1 = {dist.shape - 1.0}"
            )
        nodes = norm.nodes / dist.rate
    return Rule1D(kind=rule.kind, level=rule.level, nodes=nodes,
                  weights=norm.weights, normalized=True)


def _weighted_sum(weights: np.ndarray, points: np.ndarray, f: Callable) -> float:
    """Return sum_i w_i f(p_i): the one place an integrand is evaluated and reduced.

    ``f`` is called once on the (n,) node or (n, D) point array.  If that call
    raises TypeError, ValueError or IndexError, or returns a shape other than
    (n,), ``f`` is called point by point instead, with a RuntimeWarning.
    """
    n = points.shape[0]
    try:
        values = np.asarray(f(points), dtype=float)
        reason = None if values.shape == (n,) else f"returned shape {values.shape}, not ({n},)"
    except (ValidationError, NumericDomainError):  # the package's own errors are not a scalar-only hint
        raise
    except (TypeError, ValueError, IndexError) as exc:
        reason = repr(exc)
    if reason is not None:
        # stacklevel 3 points at the caller of integrate_1d / integrate_nd
        warnings.warn(f"integrand is not vectorized ({reason}); evaluating it point by point",
                      RuntimeWarning, stacklevel=3)
        values = np.array([float(f(p)) for p in points])
    if not np.isfinite(values).all():
        i = int(np.argmax(~np.isfinite(values)))
        raise NonFiniteEvaluationError(
            f"integrand returned {float(values[i])} at node index {i}, at point {points[i].tolist()}"
        )
    return float(weights @ values)


def integrate_1d(rule: Rule1D, f: Callable[[float], float]) -> float:
    """Return sum_i w_i f(x_i) for a normalized rule (see ``_weighted_sum`` for ``f``)."""
    if not rule.normalized:
        raise ValidationError("integrate_1d requires a normalized rule; call .normalize() or rescale_rule")
    return _weighted_sum(rule.weights, rule.nodes, f)
