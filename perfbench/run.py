#!/usr/bin/env python3
"""phinv benchmark: measure one workload end to end, or layer by layer.

    python3 perfbench/run.py --workload td_gentle --seed 0 --seconds 20 --trace 0

Run it from the root of a checkout; it imports phinv from ./src and writes
only under ./.perfbench_work, which it removes again. The seed drives the
workload generator (workloads.py). Each repetition is a fresh interpreter
(worker.py) with one BLAS thread, which runs `phinv run` and then `phinv
verify` through phinv.cli.main. Repetitions repeat until --seconds have
passed, two at least. Every repetition goes through the correctness gate
(check.py), and a changed CSV digest between repetitions fails it too.

--trace 0 prints the end-to-end metrics: setup_s (fresh interpreter until
phinv is imported and the config parsed, the median of several set-ups),
run_s and peak_rss_mb (medians over the repetitions), and verify_s (the
fastest verify call of all repetitions). --trace 1 alternates
untraced and traced repetitions and prints the per-layer metrics of the
traced ones (tracer.py), with the tracing overhead. The last line of stdout
is the JSON result; the lines before it name every metric with its unit and
sample count, the failure share and the provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
from tracer import EXACT_COUNTS, SECONDS
from workloads import WORKLOADS, make_scenario

WORKER = Path(__file__).resolve().parent / "worker.py"
WORKER_TIMEOUT_S = 150
SETUP_SAMPLES = 9
# Two at least, so that every run compares CSV digests and a traced run has
# an untraced repetition to take its overhead against.
MIN_REPETITIONS = 2
# The named layers, cli.overhead_s aside, must account for all but this share
# of the traced run. What is left is the CLI's own argument parsing and file
# writes (about 0.05 %), plus the self time of any span no metric names.
UNATTRIBUTED_SHARE = 0.01
# Rounding slack of a self time (a duration minus its children's durations).
NEGATIVE_SELF_S = 1e-6

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "verify_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    **{name: "s" for name in SECONDS},
    "runner.verify_artifacts_s": "s",
    **{name: "count" for name in EXACT_COUNTS},
    "metric.useful_ratio": "ratio",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed repetition)."""


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def spawn(env: dict, config: Path, out: Path, *flags: str) -> dict:
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), "--config", str(config), "--out", str(out), *flags],
            env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["setup_s"] = rep["ready"] - spawned
    return rep


def _git_commit(root: Path) -> str | None:
    try:
        proc = subprocess.run(["git", "--git-dir", str(root / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_sha256(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _summary(values: list[float], pick=statistics.median) -> dict:
    out = {"value": pick(values), "pick": pick.__name__, "n": len(values)}
    if len(values) > 1:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def _counter_problems(layers: dict, expected: dict) -> list[str]:
    return [f"{name} = {layers[name]}, expected {want}"
            for name, want in expected.items() if layers[name] != want]


def _attribution_problems(layers: dict) -> list[str]:
    """Whether the per-layer self times account for the traced run."""
    problems = [f"{name} is negative ({layers[name]:.3g} s)"
                for name in SECONDS if layers[name] < -NEGATIVE_SELF_S]
    attributed = sum(layers[name] for name in SECONDS if name != "cli.overhead_s")
    left = layers["trace.run_s"] - attributed
    if left > UNATTRIBUTED_SHARE * layers["trace.run_s"]:
        problems.append(f"{left:.4g} s of the {layers['trace.run_s']:.4g} s traced run "
                        f"is in no named layer (allowed: {UNATTRIBUTED_SHARE:.0%})")
    return problems


def measure(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> dict:
    """Run, gate and measure one workload; see the module docstring."""
    src = root / "src"
    if not (src / "phinv" / "cli.py").is_file():
        raise BenchError(f"no phinv sources under {src}")
    doc = make_scenario(workload, seed)
    reference = None
    if seed == 0:
        reference = json.loads(check.reference_path(workload).read_text(encoding="utf-8"))
    env = worker_env(root)
    work = root / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        config = work / "config.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        reps, failures = [], []
        first_digest = counters = None
        start = time.monotonic()
        while len(reps) < MIN_REPETITIONS or time.monotonic() - start < seconds:
            traced = trace and len(reps) % 2 == 1
            out = work / f"rep{len(reps)}"
            rep = spawn(env, config, out, *(["--trace"] if traced else []))
            rep["traced"] = traced
            problems, digest = check.gate(doc, out, rep, reference)
            shutil.rmtree(out)
            first_digest = first_digest or digest
            if digest != first_digest:
                problems.append("CSV digest differs from the first repetition's")
            if traced and "layers" in rep:
                layers = rep["layers"]
                measured = {name: layers[name] for name in EXACT_COUNTS}
                counters = counters or measured
                problems += _counter_problems(measured, counters)
                if reference is not None:
                    problems += _counter_problems(layers, reference["counters"])
                problems += _attribution_problems(layers)
            rep["problems"] = problems
            reps.append(rep)
            failures += [f"repetition {len(reps) - 1}: {p}" for p in problems]

        setups = [rep["setup_s"] for rep in reps]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(env, config, work / "setup", "--setup-only")["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another benchmark process is still using it

    failed = sum(1 for rep in reps if rep["problems"])
    good = [rep for rep in reps if not rep["problems"]] or reps
    plain = [rep for rep in good if not rep["traced"] and "run_s" in rep]
    summaries = {"setup_s": _summary(setups)}
    if plain:
        for name in ("run_s", "peak_rss_mb"):
            summaries[name] = _summary([rep[name] for rep in plain])
        summaries["verify_s"] = _summary([rep["verify_s"] for rep in plain], min)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    if trace:
        traced = [rep for rep in good if rep["traced"] and "layers" in rep]
        for name in PER_LAYER_UNITS:
            if traced and name in traced[0]["layers"]:
                summaries[name] = _summary([rep["layers"][name] for rep in traced])
        if traced and plain:
            overheads = [t["run_s"] - statistics.median(r["run_s"] for r in plain) for t in traced]
            summaries["trace.overhead_s"] = _summary(overheads)
    provenance = {
        "workload": workload,
        "seed": seed,
        "traced": trace,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(root),
        "source_sha256": _source_sha256(src),
        "report_times": round(doc["t_max"] / doc["dt"]) + 1,
        **next((rep["provenance"] for rep in reps if "provenance" in rep), {}),
    }
    return {
        "correct": failed == 0 and all(name in summaries for name in units),
        "attempted": len(reps),
        "failed": failed,
        "failures": failures,
        "summaries": summaries,
        "units": units,
        "provenance": provenance,
    }


def report_lines(result: dict) -> list[str]:
    """Human-readable lines: every metric with its unit and sample count."""
    p = result["provenance"]
    lines = [f"workload {p['workload']} seed {p['seed']} traced {int(p['traced'])}"]
    shown = {**END_TO_END_UNITS, **result["units"]}
    for name, unit in shown.items():
        s = result["summaries"].get(name)
        if s is None:
            continue
        spread = f", q1 {s['q1']:.6g}, q3 {s['q3']:.6g}" if "q1" in s else ""
        lines.append(f"  {name:34s} {s['value']:.6g} {unit} ({s['pick']} of n={s['n']}{spread})")
    share = result["failed"] / result["attempted"]
    lines.append(f"  {'fail_share':34s} {share:.6g} ({result['failed']} of "
                 f"{result['attempted']} repetitions failed)")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for line in report_lines(result):
        print(line)
    print(json.dumps({"provenance": result["provenance"]}, sort_keys=True))
    metrics = {
        name: {"value": result["summaries"][name]["value"], "unit": unit}
        for name, unit in result["units"].items() if name in result["summaries"]
    }
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
