#!/usr/bin/env python3
"""Regenerate the seed-0 reference data under perfbench/reference/.

    python3 perfbench/make_reference.py

Run it from the root of a checkout whose phinv is trusted. For each workload
it runs seed 0 once under the tracer, requires a clean correctness gate, and
stores the state columns (Phi, vtheta0, W_re, gamma_n) at every tenth report
time plus the last, and the exact counters the traced run read.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import check
from run import spawn, worker_env
from tracer import EXACT_COUNTS
from workloads import WORKLOADS, make_scenario


def main() -> int:
    root = Path.cwd()
    work = root / ".perfbench_work" / "reference"
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        doc = make_scenario(workload, 0)
        config = work / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        rep = spawn(worker_env(root), config, work / "out", "--trace")
        problems, _ = check.gate(doc, work / "out", rep, None)
        if problems:
            print(f"{workload}: {problems}", file=sys.stderr)
            return 1
        cols = check.read_csv(work / "out" / "series.csv")
        last = len(cols["t"]) - 1
        rows = sorted(set(range(0, last + 1, check.REFERENCE_EVERY)) | {last})
        reference = {
            "workload": workload,
            "seed": 0,
            "rows": rows,
            "columns": {name: cols[name][rows].tolist() for name in check.state_columns(cols)},
            "counters": {name: rep["layers"][name] for name in EXACT_COUNTS},
        }
        path = check.reference_path(workload)
        path.write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}: {len(rows)} rows, counters {reference['counters']}")
    shutil.rmtree(work.parent, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
