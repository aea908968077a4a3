"""Correctness checks of every output the benchmark times.

A check returns a list of problems, each a (class, cause, detail) triple.
``integrity`` problems are a raise, a nonzero exit, a non-finite value, a
broken identity, or output that differs from the library or between runs;
``accuracy`` problems are a value outside its reference tolerance or an MC
mean outside the z-bound.  An integrity problem fails the operation; an
accuracy problem is a measured error of a returned value.  Known defects of
the program (K = 20 truncation for steep logistics and gamma confounders,
the HR error at long horizons) show up as accuracy problems, are counted in
every run and are never filtered out.
"""
from __future__ import annotations

import math

import numpy as np

#: Reference tolerances.  Criteria 3, 4 and 11 of the test suite fix 1e-8
#: for probabilities and 1e-10 for the identity-link CDE; RMST and HR values
#: get the same 1e-8, relative.
PROB_TOL = 1e-8
LINEAR_TOL = 1e-10
REL_TOL = 1e-8
EPS = float(np.finfo(float).eps)

COMPARE_HEADER = ("scenario,estimand,quad_value,mc_mean,mc_sd,mc_se,pi_lower,pi_upper,"
                  "abs_diff,rel_diff,z_score,inside_interval,mc_seconds_per_rep")
MC_HEADER = "scenario,method,estimand,rep,estimate,seconds,sd,pi_lower,pi_upper"
COMPARE_ROWS = {"confounding": 3, "cde": 3, "rmst": 6, "hr": 15}
MC_ESTIMANDS = ("p0", "p1", "odds_ratio")
TIMING_COLUMNS = {"seconds", "mc_seconds_per_rep"}


def label(scen: dict) -> str:
    """Family name of a scenario block, with the confounder type or CDE link."""
    if scen["kind"] == "confounding":
        conf = scen["confounders"]
        return f"confounding/{conf['type'] if isinstance(conf, dict) else conf[0]['type']}"
    if scen["kind"] == "cde":
        return f"cde/{scen['link']}"
    return scen["kind"]


def _finite(values) -> bool:
    return bool(np.all(np.isfinite(np.asarray(list(values), dtype=float))))


def _relerr(value: float, ref: float) -> float:
    return abs(value - ref) / max(1.0, abs(ref))


def check_truth(scen: dict, out, ref: dict) -> list[tuple[str, str, str]]:
    """Check a TruthResult (or the exception a truth call raised) against its reference."""
    fam = label(scen)
    if isinstance(out, Exception):
        return [("integrity", f"{fam}: raised {type(out).__name__}", str(out)[:200])]
    comps = out.components()
    series = out.series or {}
    if not (_finite(comps.values()) and all(_finite(v) for v in series.values())):
        return [("integrity", f"{fam}: non-finite value", repr(comps)[:200])]
    problems = []
    kind = scen["kind"]
    if kind == "confounding":
        p0, p1, ratio = comps["p0"], comps["p1"], comps["odds_ratio"]
        identity = (p1 / (1 - p1)) / (p0 / (1 - p0))
        if not (0 < p0 < 1 and 0 < p1 < 1) or abs(ratio - identity) > 1e-12 * abs(identity):
            problems.append(("integrity", f"{fam}: odds ratio != odds(p1)/odds(p0)",
                             f"{ratio!r} vs {identity!r}"))
        worst, tol = max(abs(p0 - ref["p0"]), abs(p1 - ref["p1"])), PROB_TOL
    elif kind == "cde":
        scale = max(1.0, abs(comps["mean_a"]), abs(comps["mean_a_star"]))
        if abs(comps["cde"] - (comps["mean_a"] - comps["mean_a_star"])) > 4 * EPS * scale:
            problems.append(("integrity", f"{fam}: cde != mean_a - mean_a_star", repr(comps)))
        if scen["link"] == "identity":
            worst = max(abs(comps["cde"] - ref["cde"]),
                        *(_relerr(comps[k], ref[k]) for k in ("mean_a", "mean_a_star")))
            tol = LINEAR_TOL
        else:
            worst, tol = max(abs(comps[k] - ref[k]) for k in ref), PROB_TOL
    elif kind == "rmst":
        scale = max(1.0, *(abs(comps[k]) for k in ("mu11", "mu00", "mu10")))
        if abs(comps["TE"] - (comps["NDE"] + comps["NIE"])) > 8 * EPS * scale:
            problems.append(("integrity", f"{fam}: TE != NDE + NIE", repr(comps)))
        worst, tol = max(_relerr(comps[k], ref[k]) for k in ref), REL_TOL
    else:
        nde, nie, te = (np.asarray(series[k]) for k in ("NDE", "NIE", "TE"))
        if np.max(np.abs(te - nde * nie) / np.abs(te)) > 1e-12:
            problems.append(("integrity", f"{fam}: TE(t) != NDE(t) NIE(t)", ""))
        worst = max(float(np.max(np.abs(np.asarray(series[k]) / np.asarray(ref[k]) - 1.0)))
                    for k in ("NDE", "NIE", "TE"))
        worst = max(worst, *(abs(comps[k] / ref[k] - 1.0) for k in ("NDE_avg", "NIE_avg", "TE_avg")))
        tol = REL_TOL
    if not worst <= tol:
        problems.append(("accuracy", f"{fam}: off its reference by more than {tol:g}",
                         f"error {worst:.3e}"))
    return problems


def same_truth(a, b) -> bool:
    """Bit-identical truth results (or identical exceptions)."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    if a.components() != b.components():
        return False
    sa, sb = a.series or {}, b.series or {}
    return sa.keys() == sb.keys() and all(np.array_equal(sa[k], sb[k]) for k in sa)


#: Two-sided normal quantile at 1e-4, scipy.stats.norm.ppf(1 - 0.5e-4).
Z_KNOWN_SD = 3.8905918864131204
#: Estimands whose MC samples lie in [0, 1] (expit values or Bernoulli
#: outcomes): a sample's SD is at most 0.5, so the mean of reps independent
#: reps of n samples each has an SE of at most 0.5 / sqrt(reps n), known in
#: advance rather than estimated from a handful of reps.
BOUNDED_ESTIMANDS = ("p0", "p1")


def z_bound(reps: int) -> float:
    """Two-sided Student-t quantile at 1e-4 for reps - 1 degrees of freedom,
    for estimands whose SE is estimated from the reps."""
    from scipy import stats
    return float(stats.t.ppf(1.0 - 0.5e-4, reps - 1))


def mask_timing(csv_text: str) -> str:
    """The CSV with its wall-clock columns blanked, for byte comparison."""
    lines = csv_text.split("\n")
    drop = [i for i, h in enumerate(lines[0].split(",")) if h in TIMING_COLUMNS]
    out = [lines[0]]
    for line in lines[1:]:
        cells = line.split(",")
        for i in drop:
            if i < len(cells):
                cells[i] = ""
        out.append(",".join(cells))
    return "\n".join(out)


def _z_problems(cmd: str, name: str, truth: float, mean: float, se: float, zmax: float,
                reps: int, samples: int) -> list:
    if not (math.isfinite(mean) and math.isfinite(se)):
        return [("integrity", f"{cmd}: non-finite MC mean", f"{name}: {mean!r}")]
    if name in BOUNDED_ESTIMANDS:
        se, zmax, floor = 0.5 / math.sqrt(reps * samples), Z_KNOWN_SD, 0.0
    else:
        # an estimand the MC reproduces exactly in every rep (the identity-link
        # CDE from shared draws) has a zero SE, so rounding gets the CDE's 1e-10
        floor = LINEAR_TOL * max(1.0, abs(truth))
    if not abs(truth - mean) <= zmax * se + floor:
        return [("accuracy", f"{cmd}: MC mean outside the z-bound",
                 f"{name}: |z| = {abs(truth - mean) / se if se else math.inf:.2f} > {zmax:.1f}")]
    return []


def check_cli_output(subcommand: str, kind: str, truth: dict, reps: int, samples: int, code: int,
                     stdout: str, stderr: str, zmax: float) -> list:
    """Exit code, CSV header and row count, quad_value against the library, MC z-bound.

    ``zmax`` applies to estimands outside BOUNDED_ESTIMANDS, with the SE the CLI
    reports; p0 and p1 get Z_KNOWN_SD times their SE bound.
    """
    if code != 0:
        return [("integrity", f"{subcommand}: exit code {code}", stderr.strip()[-200:])]
    rows = stdout.rstrip("\n").split("\n")
    header, body = rows[0], [r.split(",") for r in rows[1:]]
    problems = []
    if subcommand == "compare":
        if header != COMPARE_HEADER or len(body) != COMPARE_ROWS[kind] or any(len(r) != 13 for r in body):
            return [("integrity", "compare: CSV header or row count changed", f"{header!r}, {len(body)} rows")]
        for r in body:
            name, quad, mean, se = r[1], r[2], float(r[3]), float(r[5])
            if name not in truth or quad != format(truth[name], ".17g"):
                problems.append(("integrity", "compare: quad_value differs from the library truth",
                                 f"{name}: {quad} vs {truth.get(name)!r}"))
            else:
                problems += _z_problems("compare", name, truth[name], mean, se, zmax, reps, samples)
    else:
        if header != MC_HEADER or len(body) != len(MC_ESTIMANDS) * (reps + 1) or any(len(r) != 9 for r in body):
            return [("integrity", "mc: CSV header or row count changed", f"{header!r}, {len(body)} rows")]
        for r in body:
            if r[3] == "summary":
                mean, sd = float(r[4]), float(r[6])
                problems += _z_problems("mc", r[2], truth[r[2]], mean, sd / math.sqrt(reps), zmax,
                                        reps, samples)
    return problems
