"""Special functions and the exact odds-ratio component formulas.

Holds the logistic ``expit`` (numpy only; it never overflows), the real
dilogarithm Li2 (with the inversion identity for arguments below -1), the
order-5 polylogarithm Li5 on (-1, 1), the Riemann zeta value at 5, and the
closed-form marginal probabilities of the three non-Gaussian confounder cases
(uniform, exponential, gamma).  Everything here is pure and safe for
concurrent use.
"""
from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .errors import ValidationError

PI2_OVER_6 = math.pi**2 / 6.0

#: Riemann zeta(5); bracketed by partial sums at import time (see below).
ZETA5 = 1.0369277551433699

_SERIES_TOL = 1e-17
_SERIES_MAX_TERMS = 200


def expit(x):
    """Logistic 1 / (1 + e^-x), elementwise; a numpy float for scalar input.

    Computed as e^min(x, 0) / (1 + e^-|x|): that is e^x / (1 + e^x) for x < 0
    and 1 / (1 + e^-x) for x >= 0, so no exponent is positive and nothing
    overflows.  +inf maps to 1, -inf to 0, and NaN passes through.
    """
    x = np.asarray(x, dtype=float)
    # two buffers updated in place: on the 1e6-value MC arrays this is faster
    # than the one-line form, which allocates seven
    num = np.minimum(x, 0.0, out=np.empty_like(x))
    np.exp(num, out=num)
    den = np.abs(x, out=np.empty_like(x))
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    num /= den
    return num if num.ndim else num[()]


def _dilog_series(z: float) -> float:
    # plain power series; geometric convergence for |z| <= 1/2
    total = 0.0
    term = z
    k = 1
    while abs(term) / k**2 > _SERIES_TOL and k <= _SERIES_MAX_TERMS:
        total += term / k**2
        k += 1
        term *= z
    return total


def dilog(z: float) -> float:
    """Real dilogarithm Li2(z) for z <= 1.

    Power series on |z| <= 1/2, the reflection Li2(z) + Li2(1-z) =
    pi^2/6 - ln(z)ln(1-z) on (1/2, 1), the Landen transform on [-1, -1/2),
    and the inversion identity Li2(z) + Li2(1/z) = -pi^2/6 - ln^2(-z)/2
    below -1.  Absolute accuracy ~1e-15.
    """
    z = float(z)
    if z > 1.0:
        raise ValidationError(f"dilog requires z <= 1 on the real branch, got {z}")
    if z == 1.0:
        return PI2_OVER_6
    if z == 0.0:
        return 0.0
    if z < -1.0:
        return -PI2_OVER_6 - 0.5 * math.log(-z) ** 2 - dilog(1.0 / z)
    if z < -0.5:
        # Landen: Li2(z) = -Li2(z / (z - 1)) - ln^2(1 - z) / 2
        return -_dilog_series(z / (z - 1.0)) - 0.5 * math.log1p(-z) ** 2
    if z > 0.5:
        return PI2_OVER_6 - math.log(z) * math.log1p(-z) - _dilog_series(1.0 - z)
    return _dilog_series(z)


def polylog5(z: float) -> float:
    """Order-5 polylogarithm Li5(z) = sum_k z^k / k^5 for |z| < 1."""
    z = float(z)
    if not abs(z) < 1.0:
        raise ValidationError(f"polylog5 requires |z| < 1, got {z}")
    total = 0.0
    term = z
    k = 1
    while abs(term) > _SERIES_TOL and k <= 10_000:
        total += term / k**5
        k += 1
        term *= z
    return total


def zeta5_partial_sum(n_terms: int) -> float:
    """Partial sum of zeta(5); the tail is bracketed by 1/(4(n+1)^4) and 1/(4n^4)."""
    k = np.arange(1, n_terms + 1, dtype=float)
    return float(np.sum(k**-5.0))


if __debug__:
    _partial = zeta5_partial_sum(1000)
    assert _partial + 0.25 / 1001.0**4 <= ZETA5 <= _partial + 0.25 / 1000.0**4, \
        "ZETA5 constant fails its partial-sum bracket"


class ClosedFormCase(Enum):
    """The three non-Gaussian confounder setups with exact marginal probabilities.

    All share the outcome model P(Y=1 | A, C1, C2) = expit(-A + 0.5 C1 + 0.5 C2)
    with independent confounders:

        UNIFORM      C1 ~ U(-2, 2),         C2 ~ U(-4, 0)
        EXPONENTIAL  C1 ~ Exp(rate 1),      C2 ~ Exp(rate 2)
        GAMMA        C1 ~ Ga(1, rate 1/2),  C2 ~ Ga(4, rate 1/2)

    In the gamma case Z = 0.5 C1 + 0.5 C2 ~ Ga(5, rate 1), which is what makes
    the zeta/Li5 closed forms hold (this pins the rates to 1/2).
    """

    UNIFORM = "uniform"
    EXPONENTIAL = "exponential"
    GAMMA = "gamma"


def closed_form_probs(case: ClosedFormCase) -> tuple[float, float]:
    """Exact (P(Y0=1), P(Y1=1)) for a closed-form case."""
    case = ClosedFormCase(case)
    e = math.e
    if case is ClosedFormCase.EXPONENTIAL:
        p0 = 2.0 / 3.0
        p1 = (4.0 / e) * (2.0 / 3.0 + (1.0 / e) * (0.5 - 1.0 / e + ((1.0 - e**2) / e**2) * math.log1p(e)))
        return p0, p1
    if case is ClosedFormCase.GAMMA:
        p0 = (15.0 / 16.0) * ZETA5
        p1 = (3.0 + 10.0 * math.pi**2 + 7.0 * math.pi**4 - 360.0 * polylog5(-1.0 / e)) / (360.0 * e)
        return p0, p1
    p0 = 0.25 * (2.0 * dilog(-1.0 / e) - dilog(-e) - dilog(-(e**-3.0)))
    p1 = 0.125 * (4.0 * dilog(-(e**-2.0)) - 2.0 * dilog(-(e**-4.0)) + PI2_OVER_6)
    return p0, p1


def closed_form_odds_ratio(case: ClosedFormCase) -> float:
    """Exact marginal odds ratio of a closed-form case."""
    p0, p1 = closed_form_probs(case)
    return (p1 / (1.0 - p1)) / (p0 / (1.0 - p0))
