"""Independent reference values for the benchmark's correctness checks.

Nothing here calls truthquad.  Every reference is an adaptive
``scipy.integrate`` integral over a finite window wide enough that the
truncated tail is below 1e-17:

* normal and multivariate-normal confounding reduce to one normal linear
  index (the sum of jointly normal terms), integrated against the logistic;
* two independent uniform, exponential or gamma confounders are a nested
  pair of 1-D integrals, with the gamma density's x^(shape-1) factor handed
  to QUADPACK's algebraic endpoint weight;
* the logit-link CDE is again one normal linear index over (C, U, L);
* RMST arm means are 1-D integrals over the normal mediator;
* HR counterfactual hazards are ratios of two integrals over the mediator,
  each (arm, t) standardised at its own mode so that one ``quad_vec`` call
  resolves all of them.

The identity-link CDE and the closed-form confounding cases need no
integration: the CDE is b1 (a - a*) + b4 a_coef (a - a*), and the three
closed-form cases have exact probabilities.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

#: Requested accuracy of every adaptive integral (absolute and relative).
EPS = 1e-13
#: Half-width of the integration window in standard deviations.
WINDOW_SD = 40.0


def _expit(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def index_prob(mean: float, var: float) -> float:
    """E[expit(S)] for S ~ N(mean, var)."""
    if var <= 0.0:
        return _expit(mean)
    sd = math.sqrt(var)
    norm = 1.0 / math.sqrt(2.0 * math.pi)

    def f(z):
        return norm * math.exp(-0.5 * z * z) * _expit(mean + sd * z)

    return integrate.quad(f, -WINDOW_SD, WINDOW_SD, epsabs=EPS, epsrel=EPS, limit=400)[0]


def _marginal(dist: dict):
    """(window, smooth density factor, quad weight options) for one univariate confounder."""
    kind = dist["type"]
    if kind == "uniform":
        a, b = dist["a"], dist["b"]
        return (a, b), (lambda x: 1.0 / (b - a)), {}
    if kind == "exponential":
        shape, rate = 1.0, dist["rate"]
    elif kind == "gamma":
        shape, rate = dist["shape"], dist["rate"]
    else:
        raise ValueError(f"no nested reference for {kind!r}")
    upper = special.gammainccinv(shape, 1e-18) / rate
    log_c = shape * math.log(rate) - math.lgamma(shape)
    return (0.0, upper), (lambda x: math.exp(log_c - rate * x)), {"weight": "alg", "wvar": (shape - 1.0, 0.0)}


def independent_pair_prob(alpha: float, beta: tuple[float, float], dists: tuple[dict, dict]) -> float:
    """E[expit(alpha + b1 C1 + b2 C2)] for independent univariate C1, C2."""
    (w1, f1, o1), (w2, f2, o2) = _marginal(dists[0]), _marginal(dists[1])
    b1, b2 = beta

    def inner(c1):
        shift = alpha + b1 * c1
        value = integrate.quad(lambda c2: f2(c2) * _expit(shift + b2 * c2), *w2,
                               epsabs=EPS, epsrel=EPS, limit=400, **o2)[0]
        return f1(c1) * value

    return integrate.quad(inner, *w1, epsabs=EPS, epsrel=EPS, limit=400, **o1)[0]


def confounding_probs(params: dict) -> tuple[float, float]:
    """Reference (P(Y(0)=1), P(Y(1)=1)) for a confounding scenario in config form."""
    b0, b1 = params["beta0"], params["beta1"]
    beta2 = np.asarray(params["beta2"], dtype=float)
    conf = params["confounders"]
    if isinstance(conf, dict):  # one multivariate normal
        mean = float(beta2 @ np.asarray(conf["mean"], dtype=float))
        var = float(beta2 @ np.asarray(conf["cov"], dtype=float) @ beta2)
    elif all(d["type"] == "normal" for d in conf):
        mean = float(sum(b * d["mu"] for b, d in zip(beta2, conf)))
        var = float(sum(b * b * d["sigma2"] for b, d in zip(beta2, conf)))
    else:
        return tuple(independent_pair_prob(b0 + b1 * a, tuple(beta2), tuple(conf)) for a in (0, 1))
    return index_prob(b0 + mean, var), index_prob(b0 + b1 + mean, var)


def cde_means(params: dict) -> dict[str, float]:
    """Reference mean_a, mean_a_star and cde for a CDE scenario in config form."""
    b0, b1, b2, b3, b4, b5 = params["beta"]
    c, u, ell = params["c"], params["u"], params["l"]
    out = {}
    for label, a in (("mean_a", params["a"]), ("mean_a_star", params["a_star"])):
        mean_l = ell["intercept"] + ell["a_coef"] * a + ell["u_coef"] * u["mu"]
        mean = b0 + b1 * a + b2 * params["m"] + b3 * c["mu"] + b4 * mean_l + b5 * u["mu"]
        if params["link"] == "identity":
            out[label] = mean
        else:
            var = (b3 * b3 * c["sigma2"] + (b4 * ell["u_coef"] + b5) ** 2 * u["sigma2"]
                   + b4 * b4 * ell["sigma2"])
            out[label] = index_prob(mean, var)
    if params["link"] == "identity":
        out["cde"] = (b1 + b4 * ell["a_coef"]) * (params["a"] - params["a_star"])
    else:
        out["cde"] = out["mean_a"] - out["mean_a_star"]
    return out


def rmst_values(params: dict) -> dict[str, float]:
    """Reference mu11, mu00, mu10 and TE / NDE / NIE for an RMST scenario in config form."""
    tau = params["tau"]
    norm = 1.0 / math.sqrt(2.0 * math.pi)

    def arm(a, a_star):
        mu = params["mu1"] if a_star == 1 else params["mu0"]

        def f(m):
            lam = math.exp(params["beta0"] + a * params["beta_a"] + m * params["beta_m"])
            return norm * math.exp(-0.5 * (m - mu) ** 2) * (-math.expm1(-lam * tau) / lam)

        return integrate.quad(f, mu - WINDOW_SD, mu + WINDOW_SD, epsabs=EPS, epsrel=EPS, limit=400)[0]

    mu11, mu00, mu10 = arm(1, 1), arm(0, 0), arm(1, 0)
    return {"mu11": mu11, "mu00": mu00, "mu10": mu10,
            "TE": mu11 - mu00, "NDE": mu10 - mu00, "NIE": mu11 - mu10}


HR_ARMS = ((1, 0), (0, 0), (1, 1))


def hr_hazards(params: dict, t: np.ndarray) -> dict[tuple[int, int], np.ndarray]:
    """Hazard of T(a, M(a')) at each t for the three arms (a, a') of HR_ARMS.

    The hazard is E[f(t|a,M)] / E[S(t|a,M)] with M ~ N(alpha0 - alpha_a a', 1).
    With w_t(m) = phi(m) S(t | a, m) it equals c_t E_w[z(m)], z the
    proportional factor.  log w_t is concave with curvature >= 1, so each
    (arm, t) is standardised at its own mode and all of them are integrated
    in one ``quad_vec`` call on a window covering +-40 unit standard
    deviations around every mode.
    """
    g, lam, ba, bm = params["gamma"], params["lambda"], params["beta_a"], params["beta_m"]
    t = np.asarray(t, dtype=float)
    a = np.repeat([float(arm[0]) for arm in HR_ARMS], t.size)
    mu = np.repeat([params["alpha0"] - params["alpha_a"] * arm[1] for arm in HR_ARMS], t.size)
    u = np.tile((t / lam) ** g, len(HR_ARMS))

    def log_w(m):
        return -0.5 * (m - mu) ** 2 - u * np.exp(ba * a + bm * m)

    lo, hi = mu - 60.0, mu + 60.0
    for _ in range(100):  # bisection on the (decreasing) derivative of log w
        mid = 0.5 * (lo + hi)
        rising = -(mid - mu) - u * bm * np.exp(ba * a + bm * mid) > 0.0
        lo = np.where(rising, mid, lo)
        hi = np.where(rising, hi, mid)
    mode = 0.5 * (lo + hi)
    scale = 1.0 / np.sqrt(1.0 + u * bm * bm * np.exp(ba * a + bm * mode))
    peak = log_w(mode)
    half = float(np.max(WINDOW_SD / scale))

    def f(x):
        m = mode + scale * x
        w = np.exp(log_w(m) - peak) * scale
        return np.concatenate([w, w * np.exp(ba * a + bm * m)])

    values, _ = integrate.quad_vec(f, -half, half, epsabs=EPS, epsrel=EPS, norm="max", points=[0.0])
    n = mode.size
    c = np.tile((g / lam) * (t / lam) ** (g - 1.0), len(HR_ARMS))
    hazards = (c * values[n:] / values[:n]).reshape(len(HR_ARMS), t.size)
    return dict(zip(HR_ARMS, hazards))


def hr_effects(params: dict, t: np.ndarray) -> dict[str, np.ndarray | float]:
    """Reference NDE / NIE / TE series and their trapezoid time averages."""
    h = hr_hazards(params, t)
    h10, h00, h11 = h[(1, 0)], h[(0, 0)], h[(1, 1)]
    series = {"NDE": h10 / h00, "NIE": h11 / h10, "TE": h11 / h00}
    out: dict[str, np.ndarray | float] = dict(series)
    for key, values in series.items():
        out[f"{key}_avg"] = (float(values[0]) if t.size == 1 else
                             float(np.trapezoid(values, t) / (t[-1] - t[0])))
    return out
