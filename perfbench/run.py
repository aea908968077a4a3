"""Benchmark of truthquad, run from the root of a checkout.

    python3 perfbench/run.py --workload truth_sweep --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

    truth_sweep   library truth calls at K = 20 on distinct seeded scenarios
    cli_configs   every shipped config through ``truthquad compare`` / ``mc``

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs every call of a fixed sequence untraced and traced, back
to back, and reports per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A copy of the full record, with the run
environment and every failure's cause, is written to perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402  (pins BLAS threads before NumPy loads)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("truth_sweep", "cli_configs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        harness.require_program()
    except harness.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    from perfbench import workloads

    env = harness.environment(args.seed)
    result = workloads.WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    tally = result.tally

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in result.metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    for name, value in result.info.get("workload_metrics", {}).items():
        unit = "1/s" if name.endswith("_per_s") else "ms" if name.endswith("_ms") else "s"
        print(f"workload-metric {name} = {value:.6g} {unit}")
    samples = {k: v for k, v in result.info.items()
               if k in ("calls", "passes", "busy_untraced_s", "busy_traced_s",
                        "spans", "z_bound", "z_known_sd", "commands_per_pass", "setup_samples")}
    print("samples " + json.dumps(samples, sort_keys=True))
    fail_frac = tally.share(tally.flagged)
    print(f"failed = {tally.failed}/{tally.attempted} operations (integrity problems)")
    print(f"off_reference = {tally.off_reference}/{tally.attempted} attempts (accuracy problems)")
    print(f"fail_frac = {fail_frac:.6g} ({tally.flagged}/{tally.attempted} attempts with a problem)")
    for cause, count in tally.causes.most_common():
        print(f"failure-cause {count} x {cause}")

    harness.RESULTS.mkdir(parents=True, exist_ok=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
              "info": result.info, "attempted": tally.attempted, "failed": tally.failed,
              "off_reference": tally.off_reference, "fail_frac": fail_frac, "correct": tally.correct,
              "failure_causes": dict(tally.causes), "failures": tally.records}
    out = harness.RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=float) + "\n")

    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
