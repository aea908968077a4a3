"""The workloads, each a closed loop with one caller.

truth_sweep   library truth calls at K = 20, each on a distinct seeded scenario
cli_configs   every shipped config through the CLI, one subprocess per command

Each workload has an untraced run (end-to-end metrics) and a traced run
(per-layer metrics).  The traced run executes every call of a fixed
sequence twice, untraced and with the tracer installed; the two must give
identical outputs, and their time difference is the tracing overhead.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import checks, harness, inputs, references, tracing
from .harness import Tally

#: truth calls in the traced run's fixed sequence (equal shares per family)
TRACE_TRUTH_CALLS = 200
#: references are computed this many calls ahead of the timed loop
CHUNK = 64
#: cli_configs passes per run at least, so that every command is timed three times
CLI_MIN_PASSES = 3


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    tally: Tally
    info: dict = field(default_factory=dict)


def _timed(fn, *args):
    start = time.perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # a raise is a counted failure, not a crash
        out = exc
    return out, time.perf_counter() - start


def _latency_metrics(times: list[float], setup: float, rss: float) -> dict:
    """End-to-end metrics from the wall-clock seconds of every call."""
    return {
        "setup_s": (setup, "s"),
        "calls_per_s": (len(times) / sum(times), "1/s"),
        "call_p50_ms": (harness.percentile_ms(times, 50), "ms"),
        "call_p99_ms": (harness.percentile_ms(times, 99), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def _setup_check(printed: str, first) -> list:
    if isinstance(first, Exception) or printed != repr(first):
        return [("integrity", "set-up process result differs from in-process result", printed)]
    return []


def _parse_config():
    import truthquad.config
    return truthquad.config.parse_config


# ---------------------------------------------------------------------------
# truth_sweep
# ---------------------------------------------------------------------------

_TRUTH_SETUP = """
import json, sys
from truthquad import config, scenarios
cfg = config.parse_config(json.loads(sys.argv[1]))
print(repr(scenarios.odds_ratio_truth(cfg.scenario, cfg.method.level)["odds_ratio"]), flush=True)
"""


class TruthOp(NamedTuple):
    label: str
    scen: dict
    obj: object
    ref: dict


def truth_reference(scen: dict) -> dict:
    """Independent reference values for one scenario block."""
    kind = scen["kind"]
    if kind == "confounding":
        p0, p1 = references.confounding_probs(scen)
        return {"p0": p0, "p1": p1}
    if kind == "cde":
        return references.cde_means(scen)
    if kind == "rmst":
        return references.rmst_values(scen)
    t = np.linspace(scen["t_grid"]["start"], scen["t_grid"]["stop"], scen["t_grid"]["num"])
    return {k: (v.tolist() if isinstance(v, np.ndarray) else v)
            for k, v in references.hr_effects(scen, t).items()}


def truth_ops(parse, seed: int, start: int, count: int) -> list[TruthOp]:
    """truth_sweep calls start .. start + count - 1, each with its reference.

    References are computed in every run, not cached by seed, so that every
    run does the same work outside the timed calls and the process's peak
    memory does not depend on what an earlier run left behind.
    """
    ops = []
    for i in range(start, start + count):
        scen = inputs.truth_scenario(seed, i)
        ops.append(TruthOp(f"truth_sweep[{i}] {checks.label(scen)}", scen,
                           parse(inputs.config(scen)).scenario, truth_reference(scen)))
    return ops


def _truth_call(kind: str, obj, level: int = inputs.TRUTH_LEVEL):
    # looked up on the module at call time, so the tracer's wrappers apply
    s = sys.modules["truthquad.scenarios"]
    return {"confounding": s.odds_ratio_truth, "cde": s.cde_truth,
            "rmst": s.rmst_mediation_truth, "hr": s.hr_mediation_truth}[kind](obj, level)


def truth_sweep(seed: int, seconds: float, trace: bool) -> Result:
    parse = _parse_config()
    if trace:
        sequence = truth_ops(parse, seed, 0, TRACE_TRUTH_CALLS)
        return _traced(sequence, lambda op: _truth_call(op.scen["kind"], op.obj),
                       lambda op, out: checks.check_truth(op.scen, out, op.ref), checks.same_truth)

    setup = harness.SetupTimer(_TRUTH_SETUP, json.dumps(inputs.config(inputs.truth_scenario(seed, 0))))
    tally = Tally()
    times: list[float] = []
    busy = 0.0
    while busy < seconds:
        for op in truth_ops(parse, seed, len(times), CHUNK):
            setup.sample_due(busy, seconds)
            out, dt = _timed(_truth_call, op.scen["kind"], op.obj)
            times.append(dt)
            busy += dt
            if len(times) == 1:
                tally.record("setup", _setup_check(setup.line, out if isinstance(out, Exception) else out["odds_ratio"]))
            # checked at once, so that outputs do not pile up in the measured process
            tally.record(op.label, checks.check_truth(op.scen, out, op.ref))
            if busy >= seconds:
                break
    metrics = _latency_metrics(times, setup.median(), harness.peak_rss_mb())
    info = {"calls": len(times), "setup_samples": setup.samples, "raw": times,
            "workload_metrics": {"truth_per_s": metrics["calls_per_s"][0],
                                 "truth_p50_ms": metrics["call_p50_ms"][0],
                                 "truth_p99_ms": metrics["call_p99_ms"][0]}}
    return Result(metrics, tally, info)


# ---------------------------------------------------------------------------
# traced run of an in-process workload
# ---------------------------------------------------------------------------

def _interleaved(ops, invoke, tracer: tracing.Tracer) -> tuple[list, list, list[float], list[float]]:
    """Run each op untraced and traced back to back, alternating which goes first,
    so that drift in the machine's speed falls on both sides alike."""
    plain, traced, plain_times, traced_times = [], [], [], []
    for i, op in enumerate(ops):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    out, dt = _timed(invoke, op)
                finally:
                    tracer.uninstall()
                traced.append(out)
                traced_times.append(dt)
            else:
                out, dt = _timed(invoke, op)
                plain.append(out)
                plain_times.append(dt)
    return plain, traced, plain_times, traced_times


def _traced(ops, invoke, check, same) -> Result:
    """Run ``ops`` untraced and traced; per-layer metrics."""
    tracer = tracing.Tracer()
    untraced, traced, plain_times, traced_times = _interleaved(ops, invoke, tracer)
    tally = Tally()
    for op, out, out_t in zip(ops, untraced, traced):
        problems = check(op, out)
        if not same(out, out_t):
            problems.append(("integrity", "traced output differs from untraced output", op.label))
        tally.record(op.label, problems)
    layers = tracing.layer_metrics(tracer)
    layers.update(_cli_layer(0))
    layers["check.off_reference_frac"] = tally.share(tally.off_reference)
    layers["trace.overhead_frac"] = sum(traced_times) / sum(plain_times) - 1.0
    info = {"calls": len(ops), "busy_untraced_s": sum(plain_times), "busy_traced_s": sum(traced_times),
            "spans": len(tracer.spans)}
    return Result(_with_units(layers), tally, info)


_CLI_IMPORT = """
import time
start = time.perf_counter()
import truthquad.cli
print(repr(time.perf_counter() - start), flush=True)
"""


def _cli_layer(output_bytes: int) -> dict:
    """cli.import_s (median import time over three fresh processes) and output bytes."""
    samples = [float(harness.fresh_process(_CLI_IMPORT)[1]) for _ in range(3)]
    return {"cli.import_s": statistics.median(samples), "cli.output_bytes": output_bytes}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if "bytes" in name:
        return "B"
    return "count"


def _with_units(values: dict) -> dict:
    return {name: (float(v), unit_of(name)) for name, v in values.items()}


# ---------------------------------------------------------------------------
# cli_configs
# ---------------------------------------------------------------------------

_CLI_SETUP = """
import truthquad.cli
print("imported", flush=True)
"""

#: Closed-form confounding cases (truthquad.special) as config scenario blocks.
_CLOSED_FORM = {
    "uniform": [{"type": "uniform", "a": -2.0, "b": 2.0}, {"type": "uniform", "a": -4.0, "b": 0.0}],
    "exponential": [{"type": "exponential", "rate": 1.0}, {"type": "exponential", "rate": 2.0}],
    "gamma": [{"type": "gamma", "shape": 1.0, "rate": 0.5}, {"type": "gamma", "shape": 4.0, "rate": 0.5}],
}


@dataclass
class Command:
    label: str
    kind: str
    argv: list[str]
    truth: dict
    truth_problems: list


def _config_truth(path) -> tuple[str, dict, list]:
    """Kind, the library truth's components (HR series keyed as the CLI keys them),
    and the problems its check against the independent reference finds."""
    import truthquad.config

    cfg = truthquad.config.load_config(path)
    scen = json.loads(path.read_text())["scenario"]
    result, _ = _timed(_truth_call, cfg.kind, cfg.scenario, cfg.method.level)
    if isinstance(result, Exception):
        return cfg.kind, {}, checks.check_truth(scen, result, {})
    case = next((k for k, v in _CLOSED_FORM.items() if scen.get("confounders") == v), None)
    if case and (scen["beta0"], scen["beta1"], scen["beta2"]) == (0.0, -1.0, [0.5, 0.5]):
        from truthquad.special import ClosedFormCase, closed_form_probs
        p0, p1 = closed_form_probs(ClosedFormCase(case))
        ref = {"p0": p0, "p1": p1}
    else:
        ref = truth_reference(scen)
    comps = result.components()
    if result.series is not None:
        for effect in ("NDE", "NIE", "TE"):
            for t, v in zip(result.series["t"], result.series[effect]):
                comps[f"{effect}(t={t:g})"] = float(v)
    return cfg.kind, comps, checks.check_truth(scen, result, ref)


def _cli_commands(seed: int) -> list[Command]:
    paths = inputs.write_cli_configs(harness.CONFIGS, harness.WORK / f"cli_configs-{seed}", seed)
    commands = []
    for path in paths:
        kind, comps, truth_problems = _config_truth(path)
        common = ["--config", str(path.relative_to(harness.ROOT)), "--seed", str(seed),
                  "--jobs", str(harness.NPROC)]
        commands.append(Command(f"compare {path.name}", kind, ["compare", *common], comps, truth_problems))
        if kind == "confounding":
            commands.append(Command(f"mc potential_outcome_sim {path.name}", kind,
                                    ["mc", "--method", "potential_outcome_sim", *common], comps, []))
    return commands


def _check_command(cmd: Command, code: int, stdout: str, stderr: str, zmax: float) -> list:
    return cmd.truth_problems + checks.check_cli_output(cmd.argv[0], cmd.kind, cmd.truth, inputs.CLI_REPS,
                                                        inputs.CLI_SAMPLES, code, stdout, stderr, zmax)


def _run_subprocess(cmd: Command) -> tuple[int, str, str, float, float]:
    """Exit code, stdout, stderr, wall seconds and peak RSS (MB) of one CLI process."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "truthquad.cli", *cmd.argv], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, cwd=harness.ROOT)
    with ThreadPoolExecutor(max_workers=2) as pool:  # drain both pipes while the child runs
        out, err = pool.submit(proc.stdout.read), pool.submit(proc.stderr.read)
        out, err = out.result(), err.result()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out, err, elapsed, usage.ru_maxrss / 1024.0


def _run_in_process(cmd: Command) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one CLI command run inside this process."""
    import truthquad.cli as cli

    buf, err = io.StringIO(), io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        try:
            cli.main.main(args=cmd.argv, prog_name="truthquad", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # reported as a failed command
            code = 1
            err.write(f"{type(exc).__name__}: {exc}")
    return code, buf.getvalue(), err.getvalue()


def cli_configs(seed: int, seconds: float, trace: bool) -> Result:
    commands = _cli_commands(seed)
    zmax = checks.z_bound(inputs.CLI_REPS)
    if trace:
        result = _traced_cli(commands, zmax)
        result.info.update(z_bound=zmax, z_known_sd=checks.Z_KNOWN_SD, commands_per_pass=len(commands))
        return result

    setup = harness.SetupTimer(_CLI_SETUP)
    tally = Tally()
    times: list[float] = []
    rss: dict[str, list[float]] = {}
    first_pass: list[str] = []
    passes = 0
    busy = 0.0
    while busy < seconds or passes < CLI_MIN_PASSES:  # whole passes only
        for i, cmd in enumerate(commands):
            setup.sample_due(busy, seconds)
            code, out, err, dt, peak = _run_subprocess(cmd)
            times.append(dt)
            rss.setdefault(cmd.label, []).append(peak)
            busy += dt
            problems = _check_command(cmd, code, out, err, zmax)
            if not passes:
                first_pass.append(checks.mask_timing(out))
            elif checks.mask_timing(out) != first_pass[i]:
                problems.append(("integrity", "CSV differs between passes with the same seed", cmd.label))
            tally.record(cmd.label, problems)
        passes += 1
    # a process's peak memory grows when its MC threads happen to overlap, so
    # each command contributes the lowest peak of its passes
    peak_rss = max(min(v) for v in rss.values())
    metrics = _latency_metrics(times, setup.median(), peak_rss)
    info = {"calls": len(times), "passes": passes, "commands_per_pass": len(commands), "z_bound": zmax,
            "z_known_sd": checks.Z_KNOWN_SD, "setup_samples": setup.samples, "raw": times,
            "workload_metrics": {"cli_pass_s": busy / passes}}
    return Result(metrics, tally, info)


def _traced_cli(commands: list[Command], zmax: float) -> Result:
    """One subprocess pass as the reference, then each command in-process untraced and traced."""
    tally = Tally()
    reference = []
    for cmd in commands:
        code, out, err, _, _ = _run_subprocess(cmd)
        reference.append(checks.mask_timing(out))
        tally.record(cmd.label, _check_command(cmd, code, out, err, zmax))
    off_reference_frac = tally.share(tally.off_reference)
    # one untimed command first, so that neither side of the interleaved run
    # pays for importing truthquad.cli and its dependencies
    _run_in_process(commands[0])
    tracer = tracing.Tracer()
    plain, traced, plain_times, traced_times = _interleaved(commands, _run_in_process, tracer)
    for cmd, ref, p, t in zip(commands, reference, plain, traced):
        problems = []
        if not (p[0] == t[0] == 0 and checks.mask_timing(p[1]) == ref == checks.mask_timing(t[1])):
            problems.append(("integrity", "in-process or traced CSV differs from the subprocess CSV",
                             (p[2] or t[2]).strip()[-200:]))
        tally.record(f"{cmd.label} (traced)", problems)
    busy_plain = sum(plain_times)
    busy_traced = sum(traced_times)
    layers = tracing.layer_metrics(tracer)
    layers.update(_cli_layer(sum(len(t[1].encode()) for t in traced)))
    layers["check.off_reference_frac"] = off_reference_frac
    layers["trace.overhead_frac"] = busy_traced / busy_plain - 1.0
    info = {"calls": len(commands), "busy_untraced_s": busy_plain, "busy_traced_s": busy_traced,
            "spans": len(tracer.spans)}
    return Result(_with_units(layers), tally, info)


WORKLOADS = {"truth_sweep": truth_sweep, "cli_configs": cli_configs}
