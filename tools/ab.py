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
and whether they are all equal, and, as `layers`, both sides' per-layer
times from those runs (the per-layer metrics of unit `s`) with the change's
over the base's, which show where a change of the end-to-end time sits.
Last, for each workload, it runs
`python3 -m phinv.cli run` in each tree (PYTHONPATH=<tree>/src) on the
workload's scenarios for seeds 0, 3 and 101 (perfbench/workloads.make_scenario)
and records, per seed, whether both trees wrote the same series.csv and
report.json, byte for byte, and where not, the report rows and CSV columns
that differ, and `peak_rss_mb` and `minor_faults`, the ru_maxrss and
ru_minflt that wait4 reports for each side's `phinv run` process at that
seed; `artifacts_identical`, whether the artifacts were identical at every
seed; and `peak_rss_mb`, the seed-0 reading again. perfbench measures seed
0 only, so the other seeds show whether a memory change holds on drives it
was not written against. A
child's ru_maxrss starts from the peak of the process that started it: for
this reading that is this script, far smaller than a phinv run, where
perfbench's reading starts from its own harness.

`source` holds each side's package size (source_size): the lines of
src/phinv and the number of names in phinv.__all__, so a change that means
to shrink the package reads its own result.

With --demos it also takes the end-to-end numbers perfbench does not: in
each tree, `phinv run` on both full-horizon demos (perfbench/workloads.py's
DEMO_HARMONIC and DEMO_TD) and the tier-1 suite (`python3 -m pytest -q
--continue-on-collection-errors` from the tree's root, PYTHONPATH=<tree>/src),
each run once per side, the side that goes first alternating from job to
job. `demos` records, per job, each side's exit code, wall time, ru_maxrss
and ru_minflt (read as for the artifacts runs, from this script's own small
process), and the change's wall time over the base's.
"""

from __future__ import annotations

import argparse
import ast
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
import time
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


def compare_layers(base: dict, change: dict, names: list[str]) -> dict:
    """Each named per-layer time from both sides' traced runs (perfbench's
    printed metrics, as for compare_counters): {name: {"base", "change",
    "ratio"}}, ratio the change's value over the base's. A side that lacks
    the metric reads None, and so does the ratio then or when the base
    reads 0."""
    out = {}
    for name in names:
        b, c = (m[name]["value"] if name in m else None for m in (base, change))
        out[name] = {"base": b, "change": c, "ratio": c / b if b and c is not None else None}
    return out


ARTIFACTS = ("series.csv", "report.json")
# The benchmark's own seed and two perturbed drives.
ARTIFACT_SEEDS = (0, 3, 101)


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


def compare_seeds(written: dict[int, dict[str, dict[str, str]]]) -> dict:
    """compare_artifacts at each seed ({seed: {"base": texts, "change":
    texts}}), keyed by the seed's text as JSON keys are, and whether the
    artifacts were identical at every seed."""
    seeds = {str(seed): compare_artifacts(sides["base"], sides["change"])
             for seed, sides in written.items()}
    return {"artifacts_identical": all(c["artifacts_identical"] for c in seeds.values()),
            "seeds": seeds}


def artifact_entry(written: dict[int, dict[str, tuple[dict[str, str], dict]]]) -> dict:
    """A workload's artifacts record from both sides' runs at each seed
    ({seed: {"base": (texts, usage), "change": ...}}, usage holding
    peak_rss_mb and minor_faults): compare_seeds with both sides' readings
    of each usage field added to each seed's entry, and `peak_rss_mb`, the
    first seed's (ARTIFACT_SEEDS[0], the benchmark's own)."""
    entry = compare_seeds({seed: {side: run[0] for side, run in sides.items()}
                           for seed, sides in written.items()})
    for seed, sides in written.items():
        for field in USAGE_FIELDS:
            entry["seeds"][str(seed)][field] = {side: run[1][field] for side, run in sides.items()}
    entry["peak_rss_mb"] = entry["seeds"][str(ARTIFACT_SEEDS[0])]["peak_rss_mb"]
    return entry


def source_size(tree: Path) -> dict:
    """The size of tree's package: `lines`, the lines of its .py files under
    src/phinv, and `exports`, the names in phinv.__all__, read from the
    literal list in src/phinv/__init__.py without importing the package."""
    package = tree / "src" / "phinv"
    lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in package.rglob("*.py"))
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    exports = next(
        ast.literal_eval(node.value) for node in init.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )
    return {"lines": lines, "exports": len(exports)}


# What run_measured reads of a finished process from wait4.
USAGE_FIELDS = ("peak_rss_mb", "minor_faults")


def run_measured(cmd: list[str], **popen_kwargs) -> tuple[int, str, dict]:
    """Run cmd to its end: its exit code, its stderr, and its own usage as
    wait4 reports it for that one process (the children's rusage of this
    process would sum or take the largest over all its children so far):
    `peak_rss_mb`, ru_maxrss in MB, and `minor_faults`, ru_minflt."""
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, **popen_kwargs)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return proc.returncode, stderr, {"peak_rss_mb": usage.ru_maxrss / 1024.0,
                                     "minor_faults": usage.ru_minflt}


def _write_artifacts(tree: Path, scenario: dict, out: Path) -> tuple[dict[str, str], dict]:
    """Run `phinv run` from tree's source on scenario; its artifacts' texts
    and the run's usage (run_measured). A run whose checks fail (exit 1)
    still writes them."""
    out.mkdir(parents=True)
    config = out / "config.json"
    config.write_text(json.dumps(scenario), encoding="utf-8")
    code, stderr, usage = run_measured(
        [sys.executable, "-m", "phinv.cli", "run", "--config", str(config),
         "--out", str(out), "--quiet"],
        cwd=out, env={**os.environ, "PYTHONPATH": str(tree / "src")},
    )
    if code not in (0, 1):
        raise RuntimeError(f"{tree}: phinv run exited {code}: {stderr[-2000:]}")
    return {name: (out / name).read_bytes().decode("utf-8") for name in ARTIFACTS}, usage


def _workloads(root: Path):
    spec = importlib.util.spec_from_file_location("workloads", root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


DEMO_JOBS = ("demo_harmonic", "demo_td", "tier1")


def demos_entry(runs: dict[str, dict[str, dict]]) -> dict:
    """The --demos record from each job's runs ({job: {"base": run,
    "change": run}}, a run being {"exit_code", "wall_s", "peak_rss_mb",
    "minor_faults"}):
    both runs per job of DEMO_JOBS and the change's wall time over the
    base's."""
    if sorted(runs) != sorted(DEMO_JOBS):
        raise ValueError(f"need runs of {list(DEMO_JOBS)}, got {sorted(runs)}")
    return {
        job: {**sides, "wall_ratio": sides["change"]["wall_s"] / sides["base"]["wall_s"]}
        for job, sides in runs.items()
    }


def _timed(cmd: list[str], tree: Path, cwd: Path) -> dict:
    """cmd run to its end from tree's source: its exit code, wall time and
    usage (run_measured)."""
    start = time.perf_counter()
    code, _, usage = run_measured(
        cmd, cwd=cwd, env={**os.environ, "PYTHONPATH": str(tree / "src")}
    )
    return {"exit_code": code, "wall_s": time.perf_counter() - start, **usage}


def _run_demos(trees: dict[str, Path], workloads, out_dir: Path) -> dict:
    """demos_entry over one run per side of each job, from trees ({"base":
    path, "change": path})."""
    configs = {"demo_harmonic": workloads.DEMO_HARMONIC, "demo_td": workloads.DEMO_TD}
    runs = {}
    for k, job in enumerate(DEMO_JOBS):
        order = ("base", "change") if k % 2 == 0 else ("change", "base")
        runs[job] = {}
        for side in order:
            tree = trees[side]
            if job == "tier1":
                cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
                cwd = tree
            else:
                cwd = out_dir / job / side
                cwd.mkdir(parents=True)
                (cwd / "config.json").write_text(json.dumps(configs[job]), encoding="utf-8")
                cmd = [sys.executable, "-m", "phinv.cli", "run", "--config", "config.json",
                       "--out", ".", "--quiet"]
            runs[job][side] = _timed(cmd, tree, cwd)
            print(f"{job} {side}: {runs[job][side]}", flush=True)
    return demos_entry(runs)


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
    parser.add_argument("--demos", action="store_true",
                        help="also time both full-horizon demos and the tier-1 suite")
    args = parser.parse_args(argv)

    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    counter_names = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    layer_names = [m["name"] for m in bench["per_layer"] if m["unit"] == "s"]
    with tempfile.TemporaryDirectory(prefix="ab-base-") as tmp:
        base_tree = Path(tmp)
        _export(args.base, base_tree)
        if not _same_tree(base_tree / "perfbench", root / "perfbench"):
            print(f"perfbench/ differs between {args.base} and the working tree; "
                  "an A/B needs the same benchmark on both sides", file=sys.stderr)
            return 2
        source = {side: source_size(tree) for side, tree in (("base", base_tree), ("change", root))}
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
        workloads_module = _workloads(root)
        make_scenario = workloads_module.make_scenario
        artifacts = {}
        with tempfile.TemporaryDirectory(prefix="ab-artifacts-") as out_dir:
            for workload in workloads:
                written = {
                    seed: {
                        side: _write_artifacts(tree, make_scenario(workload, seed),
                                               Path(out_dir) / workload / str(seed) / side)
                        for side, tree in (("base", base_tree), ("change", root))
                    }
                    for seed in ARTIFACT_SEEDS
                }
                artifacts[workload] = artifact_entry(written)
            if args.demos:
                demos = _run_demos({"base": base_tree, "change": root}, workloads_module,
                                   Path(out_dir) / "demos")

    out = {
        "base": args.base,
        "base_commit": _rev_parse(args.base),
        "change": f"working tree on {_rev_parse('HEAD')}",
        "seed": args.seed,
        "seconds": seconds,
        "pairs": args.pairs,
        "source": source,
        "workloads": {},
    }
    if args.demos:
        out["demos"] = demos
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
            "layers": compare_layers(traced[workload]["base"]["metrics"],
                                     traced[workload]["change"]["metrics"], layer_names),
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
    print(f"source lines base {source['base']['lines']} change {source['change']['lines']}, "
          f"exports base {source['base']['exports']} change {source['change']['exports']}")
    for workload, entry in out["workloads"].items():
        for name, s in entry["metrics"].items():
            print(f"{workload:16s} {name:12s} base {s['base']['median']:.4g} "
                  f"[{s['base']['q1']:.4g}, {s['base']['q3']:.4g}] change "
                  f"{s['change']['median']:.4g} [{s['change']['q1']:.4g}, "
                  f"{s['change']['q3']:.4g}] wins {s['change_wins']}/{s['pairs']} "
                  f"gain {s['gain']} within_bound {s['within_bound']} "
                  f"unresolved {s['unresolved']}")
        for name, layer in entry["layers"].items():
            if layer["ratio"] is not None:
                print(f"{workload:16s} {name:34s} base {layer['base']:.4g} change "
                      f"{layer['change']:.4g} ratio {layer['ratio']:.3f}")
        c = entry["counters"]
        print(f"{workload:16s} counters base {c['base']} change {c['change']} "
              f"counters_equal {c['counters_equal']} traced_failed {c['traced_failed']}")
        a = entry["artifacts"]
        print(f"{workload:16s} artifacts_identical {a['artifacts_identical']} "
              f"peak_rss_mb {a['peak_rss_mb']}")
        for seed, c in a["seeds"].items():
            print(f"{workload:16s} seed {seed:>4s} artifacts_identical "
                  f"{c['artifacts_identical']} peak_rss_mb {c['peak_rss_mb']} minor_faults "
                  f"{c['minor_faults']} report_rows "
                  f"{c['report_rows']} report_fields {c['report_fields']} csv_columns "
                  f"{c['csv_columns']}")
    for job, entry in out.get("demos", {}).items():
        print(f"{job:16s} " + " ".join(
            f"{side} exit {entry[side]['exit_code']} {entry[side]['wall_s']:.2f} s "
            f"{entry[side]['peak_rss_mb']:.1f} MB {entry[side]['minor_faults']} faults"
            for side in ("base", "change")
        ) + f" wall_ratio {entry['wall_ratio']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
