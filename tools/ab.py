#!/usr/bin/env python3
"""Alternating A/B of the benchmark: a base revision against the working tree.

    python3 tools/ab.py --base HEAD~1 --pairs 10 --out BENCH_<n>.json

Run it from the root of a checkout. It exports the base revision with
`git archive` into a temporary directory and refuses to run unless that
tree's perfbench/ is byte-identical to the working tree's, so both sides are
measured by the same benchmark. For each workload it then runs
`python3 perfbench/run.py --workload W --seed S --seconds T --trace 0` once
in each tree per pair, alternating which side runs first, and writes one
JSON file. Per workload and end-to-end metric (BENCHMARK.json) it holds both
sides' runs, medians and quartiles, the pairs the change won, and two
verdicts: `gain` (the change won at least nine tenths of the pairs, ties
counting for neither, and the medians differ by more than the base's
interquartile range) and `within_bound` (the change's median is not worse
than the base's by more than the metric's relative bound), and the flag
`unresolved`: the base's interquartile range is wider, relative to its
median, than the metric's bound, so `within_bound` cannot tell a change
from noise, and not every change run beats every base run. After the pairs
it runs `--seconds 0 --trace 1` once in each tree and records both sides'
exact counters (the per-layer metrics of unit `count` in BENCHMARK.json)
and whether they are all equal. Last, for each workload, it runs
`python3 -m phinv.cli run` in each tree (PYTHONPATH=<tree>/src) on the
workload's seed-0 scenario (perfbench/workloads.make_scenario) and records
`artifacts_identical`: whether both trees wrote the same series.csv and
report.json, byte for byte, and where not, the report rows and CSV columns
that differ; and `peak_rss_mb`, the ru_maxrss that wait4 reports for each
side's `phinv run` process. A child's ru_maxrss starts from the peak of the
process that started it: for this reading that is this script, far smaller
than a phinv run, where perfbench's reading starts from its own harness.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib.util
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

# A gain needs the change to win at least 9 of every 10 pairs.
GAIN_NUMERATOR, GAIN_DENOMINATOR = 9, 10


def summarize(base: list[float], change: list[float], better: str, bound: float) -> dict:
    """Compare paired runs of one metric; base[i] and change[i] are pair i.

    better is "lower" or "higher". Quartiles are those of
    statistics.quantiles(n=4), as perfbench/run.py reports them.
    """
    if len(base) != len(change) or len(base) < 2:
        raise ValueError("need at least two pairs of runs, one base and one change run each")
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    sides = {}
    for name, runs in (("base", base), ("change", change)):
        q1, _, q3 = statistics.quantiles(runs, n=4)
        sides[name] = {"runs": runs, "median": statistics.median(runs), "q1": q1, "q3": q3}
    gap = sign * (sides["change"]["median"] - sides["base"]["median"])
    base_iqr = sides["base"]["q3"] - sides["base"]["q1"]
    base_median = sides["base"]["median"]
    if base_median:
        worse_by = -gap / abs(base_median)
        spread = base_iqr / abs(base_median)
    else:
        worse_by = math.inf if gap < 0 else 0.0
        spread = math.inf if base_iqr else 0.0
    every_run_better = all(sign * (c - b) > 0 for c in change for b in base)
    return {
        **sides,
        "pairs": len(base),
        "change_wins": wins,
        "median_gain": gap,
        "base_iqr": base_iqr,
        "gain": wins * GAIN_DENOMINATOR >= GAIN_NUMERATOR * len(base) and gap > base_iqr,
        "relative_worsening": worse_by,
        "bound": bound,
        "within_bound": worse_by <= bound,
        "base_relative_spread": spread,
        "unresolved": spread > bound and not every_run_better,
    }


def compare_counters(base: dict, change: dict, names: list[str]) -> dict:
    """Both sides' counters by name from perfbench's printed metrics
    ({name: {"value": v, "unit": u}}); a counter one side lacks reads None,
    and makes the sides unequal."""
    sides = {
        side: {name: metrics[name]["value"] if name in metrics else None for name in names}
        for side, metrics in (("base", base), ("change", change))
    }
    equal = sides["base"] == sides["change"] and None not in sides["base"].values()
    return {**sides, "counters_equal": equal}


ARTIFACTS = ("series.csv", "report.json")


def _csv_columns(text: str) -> dict[str, list[str]]:
    rows = [row.split(",") for row in text.split("\r\n") if row]
    if not rows:
        return {}
    return {name: [row[j] if j < len(row) else "" for row in rows[1:]]
            for j, name in enumerate(rows[0])}


def _report_parts(text: str) -> tuple[dict, dict]:
    """A report's check rows by name, and its other top-level fields."""
    doc = json.loads(text)
    rows = {row["name"]: row for row in doc.get("checks", [])}
    return rows, {k: v for k, v in doc.items() if k != "checks"}


def _differing(a: dict, b: dict) -> list[str]:
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def compare_artifacts(base: dict[str, str], change: dict[str, str]) -> dict:
    """Whether two runs wrote the same artifacts ({file name: text}), byte
    for byte; where not, the report's check rows (by name) and other
    top-level fields, and the CSV columns (by header name), that differ."""
    identical = all(base[name] == change[name] for name in ARTIFACTS)
    base_rows, base_fields = _report_parts(base["report.json"])
    change_rows, change_fields = _report_parts(change["report.json"])
    return {
        "artifacts_identical": identical,
        "report_rows": _differing(base_rows, change_rows),
        "report_fields": _differing(base_fields, change_fields),
        "csv_columns": _differing(_csv_columns(base["series.csv"]),
                                  _csv_columns(change["series.csv"])),
    }


def run_measured(cmd: list[str], **popen_kwargs) -> tuple[int, str, float]:
    """Run cmd to its end: its exit code, its stderr, and its own peak RSS
    in MB, the ru_maxrss that wait4 reports for that one process (the
    children's rusage of this process would be the largest of all its
    children so far)."""
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, **popen_kwargs)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return proc.returncode, stderr, usage.ru_maxrss / 1024.0


def _write_artifacts(tree: Path, scenario: dict, out: Path) -> tuple[dict[str, str], float]:
    """Run `phinv run` from tree's source on scenario; its artifacts' texts
    and the run's peak RSS in MB. A run whose checks fail (exit 1) still
    writes them."""
    out.mkdir(parents=True)
    config = out / "config.json"
    config.write_text(json.dumps(scenario), encoding="utf-8")
    code, stderr, peak_rss_mb = run_measured(
        [sys.executable, "-m", "phinv.cli", "run", "--config", str(config),
         "--out", str(out), "--quiet"],
        cwd=out, env={**os.environ, "PYTHONPATH": str(tree / "src")},
    )
    if code not in (0, 1):
        raise RuntimeError(f"{tree}: phinv run exited {code}: {stderr[-2000:]}")
    return {name: (out / name).read_bytes().decode("utf-8") for name in ARTIFACTS}, peak_rss_mb


def _make_scenario(root: Path):
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_scenario


def _export(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _rev_parse(rev: str) -> str:
    return subprocess.run(["git", "rev-parse", rev], capture_output=True, text=True,
                          check=True).stdout.strip()


def _same_tree(a: Path, b: Path) -> bool:
    """Whether two directories hold the same files with the same bytes,
    bytecode caches aside."""
    if not (a.is_dir() and b.is_dir()):
        return False
    cmp = filecmp.dircmp(a, b, ignore=["__pycache__"])
    if cmp.left_only or cmp.right_only or cmp.funny_files:
        return False
    _, mismatch, errors = filecmp.cmpfiles(a, b, cmp.common_files, shallow=False)
    return not mismatch and not errors and all(
        _same_tree(a / d, b / d) for d in cmp.common_dirs
    )


def _run(tree: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{tree}: {workload} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append",
                        help="a workload to run (repeatable; default: every workload)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    counter_names = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        base_tree = Path(tmp)
        _export(args.base, base_tree)
        if not _same_tree(base_tree / "perfbench", root / "perfbench"):
            print(f"perfbench/ differs between {args.base} and the working tree; "
                  "an A/B needs the same benchmark on both sides", file=sys.stderr)
            return 2
        runs = {w: {"base": [], "change": []} for w in workloads}
        traced = {}
        for workload in workloads:
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    tree = base_tree if side == "base" else root
                    result = _run(tree, workload, args.seed, seconds)
                    runs[workload][side].append(result)
                    values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
                    print(f"{workload} pair {i} {side}: failed {result['failed']}/"
                          f"{result['attempted']} {values}", flush=True)
            traced[workload] = {side: _run(tree, workload, args.seed, 0, trace=1)
                                for side, tree in (("base", base_tree), ("change", root))}
        make_scenario = _make_scenario(root)
        artifacts = {}
        with tempfile.TemporaryDirectory(prefix="ab-artifacts-") as out_dir:
            for workload in workloads:
                written = {
                    side: _write_artifacts(tree, make_scenario(workload, 0),
                                           Path(out_dir) / workload / side)
                    for side, tree in (("base", base_tree), ("change", root))
                }
                artifacts[workload] = {
                    **compare_artifacts(written["base"][0], written["change"][0]),
                    "peak_rss_mb": {side: w[1] for side, w in written.items()},
                }

    out = {
        "base": args.base,
        "base_commit": _rev_parse(args.base),
        "change": f"working tree on {_rev_parse('HEAD')}",
        "seed": args.seed,
        "seconds": seconds,
        "pairs": args.pairs,
        "workloads": {},
    }
    for workload, sides in runs.items():
        entry = {
            "failed": {s: sum(r["failed"] for r in rs) for s, rs in sides.items()},
            "attempted": {s: sum(r["attempted"] for r in rs) for s, rs in sides.items()},
            "metrics": {},
            "counters": {
                **compare_counters(traced[workload]["base"]["metrics"],
                                   traced[workload]["change"]["metrics"], counter_names),
                "traced_failed": {s: r["failed"] for s, r in traced[workload].items()},
            },
            "artifacts": artifacts[workload],
        }
        for metric in bench["end_to_end"]:
            name = metric["name"]
            entry["metrics"][name] = summarize(
                [r["metrics"][name]["value"] for r in sides["base"]],
                [r["metrics"][name]["value"] for r in sides["change"]],
                metric["better"], metric["bound"],
            )
        out["workloads"][workload] = entry
    args.out.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for workload, entry in out["workloads"].items():
        for name, s in entry["metrics"].items():
            print(f"{workload:16s} {name:12s} base {s['base']['median']:.4g} "
                  f"[{s['base']['q1']:.4g}, {s['base']['q3']:.4g}] change "
                  f"{s['change']['median']:.4g} [{s['change']['q1']:.4g}, "
                  f"{s['change']['q3']:.4g}] wins {s['change_wins']}/{s['pairs']} "
                  f"gain {s['gain']} within_bound {s['within_bound']} "
                  f"unresolved {s['unresolved']}")
        c = entry["counters"]
        print(f"{workload:16s} counters base {c['base']} change {c['change']} "
              f"counters_equal {c['counters_equal']} traced_failed {c['traced_failed']}")
        a = entry["artifacts"]
        print(f"{workload:16s} artifacts_identical {a['artifacts_identical']} report_rows "
              f"{a['report_rows']} report_fields {a['report_fields']} "
              f"csv_columns {a['csv_columns']} peak_rss_mb {a['peak_rss_mb']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
