#!/usr/bin/env python3
"""Measure every workload in turn and print its metrics.

    python3 perfbench/summary.py --seed 0 --seconds 20 --trace 0

Prints setup_s, run_s, verify_s, peak_rss_mb and fail_share for each
workload, each with its unit and sample count. With --trace 1 it prints the
per-layer metrics as well, including trace.overhead_s, the traced minus the
untraced run_s. Run it from the root of a checkout, like run.py. Exits 1 if
any workload failed its correctness gate.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from run import BenchError, measure, report_lines
from workloads import WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    all_correct = True
    for workload in WORKLOADS:
        try:
            result = measure(workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
        except BenchError as e:
            print(f"benchmark error: {e}", file=sys.stderr)
            return 2
        for failure in result["failures"]:
            print(f"FAILED {workload} {failure}", file=sys.stderr)
        print("\n".join(report_lines(result)), flush=True)
        all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
