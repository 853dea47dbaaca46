"""Run one workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 benchmarks/service_e2e/run.py --workload hamlet-edit \\
        --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of one untraced pass.
``--trace 1`` makes an untraced pass (the overhead baseline), then a
traced pass, and prints the per-layer metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; problems found by the checks go to standard
error, and the exit code is 1 when there are any.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
WORKLOAD_NAMES = ("hamlet-edit", "hamlet-read")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"error: no repro sources under {ROOT / 'src'}; run from a "
            "checkout of the repository",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    from service_e2e.driver import WorkloadRun
    from service_e2e.tracer import Tracer

    work_dir = ROOT / ".bench_build" / "service_e2e" / str(os.getpid())

    def run(tracer=None):
        return WorkloadRun(
            args.workload, args.seed, args.seconds, work_dir, tracer
        ).execute()

    record = run()
    problems = list(record.problems)
    metrics = record.end_to_end()
    if args.trace:
        tracer = Tracer()
        with tracer:
            traced = run(tracer)
        problems.extend(traced.problems)
        metrics = tracer.layer_metrics(traced, metrics["write_p50_ms"][0])
        record = traced
    failures = record.failures
    problems.extend(
        f"{count} requests failed with {kind}"
        for kind, count in sorted(failures.items())
    )
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(record.requests),
                "failed": sum(failures.values()),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
