"""Span tracing from outside the program.

``Tracer.install`` replaces truthquad's public functions at the names their
callers look them up by (a module global such as
``truthquad.distributions.compute_rule``, or a method on a class) with a
wrapper that records one span per call: name, start, end, parent and
thread.  Spans stay in memory until the run ends.  A layer's self time is
its spans' durations minus the part of each interval that child spans
cover.  Nothing inside the package is edited; ``uninstall`` restores every
original attribute.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import NamedTuple

MC_PASSES = ("potential_outcome_sim", "po_odds_ratio", "mc_marginal_prob", "mc_odds_ratio",
             "mc_cde", "mc_rmst_mediation", "mc_hr_mediation")
TRUTHS = ("odds_ratio_truth", "cde_truth", "rmst_mediation_truth", "hr_mediation_truth")

#: (owner, attribute, span name).  An owner is a module path, or
#: "module:Class" for a method.  Each function is wrapped at every name its
#: callers use, so a call is traced whichever module makes it.
SITES = (
    ("truthquad.rules", "eigh_tridiagonal", "rules.eigh"),
    ("truthquad.distributions", "compute_rule", "rules.compute_rule"),
    ("truthquad.grids", "compute_rule", "rules.compute_rule"),
    ("truthquad.cli", "compute_rule", "rules.compute_rule"),
    ("truthquad.distributions", "rescale_rule", "rules.rescale_rule"),
    ("truthquad.cli", "rescale_rule", "rules.rescale_rule"),
    ("truthquad.scenarios", "integrate_1d", "rules.integrate_1d"),
    ("truthquad.distributions", "tensor_grid", "grids.tensor_grid"),
    ("truthquad.scenarios", "tensor_grid", "grids.tensor_grid"),
    ("truthquad.cli", "tensor_grid", "grids.tensor_grid"),
    ("truthquad.distributions", "rotate_grid", "grids.rotate_grid"),
    ("truthquad.scenarios", "rotate_grid", "grids.rotate_grid"),
    ("truthquad.cli", "rotate_grid", "grids.rotate_grid"),
    ("truthquad.scenarios", "product_grid", "grids.product_grid"),
    ("truthquad.scenarios", "integrate_nd", "grids.integrate_nd"),
    ("truthquad.scenarios", "rule_for", "distributions.rule_for"),
    *((f"truthquad.distributions:{cls}", "draw", "distributions.draw")
      for cls in ("Normal", "Uniform", "Exponential", "Gamma", "MVNormal")),
    *(("truthquad.scenarios", name, f"scenarios.{name}") for name in TRUTHS),
    *(("truthquad.cli", name, f"scenarios.{name}") for name in TRUTHS),
    ("truthquad.scenarios", "counterfactual_hazard", "scenarios.counterfactual_hazard"),
    ("truthquad.scenarios:ConfoundingScenario", "prob", "scenarios.prob"),
    *(("truthquad.scenarios", f"weibull_{q}", "scenarios.weibull")
      for q in ("density", "survival", "hazard")),
    *(("truthquad.mc", f"weibull_{q}", "scenarios.weibull") for q in ("density", "survival")),
    ("truthquad.scenarios", "expit", "special.expit"),
    *(("truthquad.cli", name, "mc.pass") for name in MC_PASSES),
    ("truthquad.cli", "load_config", "config.load_config"),
)


class Span(NamedTuple):
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


class Tracer:
    """Records spans and counters while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.rule_keys: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root_stack: list[int] = []
        self._root_thread: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _worker_stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name: str, count):
        tracer = self
        clock, ids, spans, get_ident = time.perf_counter, self._ids, self.spans, threading.get_ident
        root_stack = self._root_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            thread = get_ident()
            stack = root_stack if thread == tracer._root_thread else tracer._worker_stack()
            # a worker thread's outermost span belongs to whatever the
            # installing thread is doing (the MC pass that started the pool)
            parent = stack[-1] if stack else (root_stack[-1] if root_stack else None)
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, name, start, end, parent, thread))
            if count is not None:
                count(tracer, args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        self._root_thread = threading.get_ident()
        for owner_path, attr, name in SITES:
            module_path, _, cls = owner_path.partition(":")
            owner = importlib.import_module(module_path)
            if cls:
                owner = getattr(owner, cls)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, _COUNTERS.get(name)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- aggregation ------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        totals: dict[str, float] = defaultdict(float)
        for span in self.spans:
            covered = _union_length([(max(c.start, span.start), min(c.end, span.end))
                                     for c in children.get(span.span_id, ())])
            totals[span.name] += (span.end - span.start) - covered
        return totals

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for span in self.spans:
            out[span.name] += 1
        return out


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


# -- counters recorded at the same boundaries as the spans -----------------

def _count_rule(tracer, args, kwargs, out):
    tracer.rule_keys.append((out.kind, out.level))


def _count_grid(tracer, args, kwargs, out):
    tracer.counts["grids.points"] += out.points.shape[0]
    tracer.counts["grids.bytes_computed"] += out.points.nbytes + out.weights.nbytes


def _count_rotation(tracer, args, kwargs, out):
    tracer.counts["grids.bytes_computed"] += out.points.nbytes


def _count_integrand(tracer, args, kwargs, out):
    grid = args[0] if args else kwargs["grid"]
    tracer.counts["grids.bytes_computed"] += 8 * grid.points.shape[0]


def _count_values(key):
    def count(tracer, args, kwargs, out):
        tracer.counts[key] += getattr(out, "size", 1)
    return count


def _count_mc(tracer, args, kwargs, out):
    from truthquad.mc import MCConfig

    cfg = next(a for a in (*args, *kwargs.values()) if isinstance(a, MCConfig))
    tracer.counts["mc.reps"] += cfg.n_reps
    tracer.counts["mc.samples_drawn"] += cfg.n_reps * cfg.n_samples


_COUNTERS = {
    "rules.compute_rule": _count_rule,
    "grids.tensor_grid": _count_grid,
    "grids.product_grid": _count_grid,
    "grids.rotate_grid": _count_rotation,
    "grids.integrate_nd": _count_integrand,
    "distributions.draw": _count_values("distributions.draw.values"),
    "scenarios.prob": _count_values("scenarios.prob.values"),
    "special.expit": _count_values("special.expit.values"),
    "mc.pass": _count_mc,
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics (name -> value) from one traced run."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    keys = tracer.rule_keys
    out = {
        "rules.compute_rule.calls": calls["rules.compute_rule"],
        "rules.compute_rule.repeat_frac": (1.0 - len(set(keys)) / len(keys)) if keys else 0.0,
        "rules.compute_rule.self_s": self_s["rules.compute_rule"],
        "rules.eigh.self_s": self_s["rules.eigh"],
        "rules.rescale_rule.self_s": self_s["rules.rescale_rule"],
        "rules.integrate_1d.self_s": self_s["rules.integrate_1d"],
        "grids.tensor_grid.calls": calls["grids.tensor_grid"],
        "grids.tensor_grid.self_s": self_s["grids.tensor_grid"],
        "grids.product_grid.self_s": self_s["grids.product_grid"],
        "grids.rotate_grid.self_s": self_s["grids.rotate_grid"],
        "grids.integrate_nd.self_s": self_s["grids.integrate_nd"],
        "grids.points": tracer.counts["grids.points"],
        "grids.bytes_computed": tracer.counts["grids.bytes_computed"],
        "distributions.rule_for.calls": calls["distributions.rule_for"],
        "distributions.rule_for.self_s": self_s["distributions.rule_for"],
        "distributions.draw.self_s": self_s["distributions.draw"],
        "distributions.draw.values": tracer.counts["distributions.draw.values"],
        **{f"scenarios.{name}.self_s": self_s[f"scenarios.{name}"] for name in TRUTHS},
        "scenarios.counterfactual_hazard.calls": calls["scenarios.counterfactual_hazard"],
        "scenarios.prob.self_s": self_s["scenarios.prob"],
        "scenarios.prob.values": tracer.counts["scenarios.prob.values"],
        "scenarios.weibull.self_s": self_s["scenarios.weibull"],
        "special.expit.calls": calls["special.expit"],
        "special.expit.values": tracer.counts["special.expit.values"],
        "special.expit.self_s": self_s["special.expit"],
        "mc.passes": calls["mc.pass"],
        "mc.reps": tracer.counts["mc.reps"],
        "mc.samples_drawn": tracer.counts["mc.samples_drawn"],
        "mc.pass.self_s": self_s["mc.pass"],
        "config.load_config.self_s": self_s["config.load_config"],
    }
    return out
