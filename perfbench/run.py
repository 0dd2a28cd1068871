"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload lqo-sweep --seed 0 --seconds 20 --trace 0

Workloads: ``lqo-sweep``, ``job-exec`` and ``plan-serve`` (see their modules).
With ``--trace 0`` the run is untraced and the result line carries the
end-to-end metrics; with ``--trace 1`` it wraps the program's entry points,
records spans and carries the per-layer metrics.  Human-readable report
lines come first; the last line of standard output is the JSON result.
Spans and a report with every sample count go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402

WORKLOADS = ("lqo-sweep", "job-exec", "plan-serve")


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The benchmark's command line: workload, seed, seconds, trace flag."""
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    """Run one workload and print its report and result line."""
    args = parse_args(argv)
    # A shell may start the benchmark with SIGINT ignored, which the plan
    # server would inherit; it stops on SIGINT, so restore the handler.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    common.require_program()
    common.cap_address_space()
    common.OUT.mkdir(exist_ok=True)

    from perfbench import job_exec, lqo_sweep, plan_serve
    from perfbench.layers import PER_LAYER

    module = {"lqo-sweep": lqo_sweep, "job-exec": job_exec, "plan-serve": plan_serve}[args.workload]
    outcome = common.Outcome()
    (module.run_traced if args.trace else module.run)(args.seed, args.seconds, outcome)

    names = list(PER_LAYER) if args.trace else list(common.E2E_UNITS)
    for line in outcome.notes:
        print(line)
    for message in outcome.errors:
        print(f"CHECK FAILED: {message}")
    for name in names:
        value, unit = outcome.metrics[name]
        print(f"{name} = {value:.6g} {unit}")
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "attempted": outcome.attempted, "failed": outcome.failed, "errors": outcome.errors,
              "metrics": outcome.metrics, "notes": outcome.notes, "details": outcome.details}
    report_path = common.OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1, default=str))
    print(common.result_line(outcome, names))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
