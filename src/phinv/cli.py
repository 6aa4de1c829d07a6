"""Command-line interface.

Subcommands: run (execute a scenario, write series.csv + report.json),
verify (re-judge an existing artifact pair), demo (write the two built-in
scenario configs). Exit codes: 0 pass, 1 verification failure, 2
input/format error, 3 numerical guard tripped.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from ._version import __version__
from .errors import InputError, NumericsError
from .runner import run_scenario, verify_artifacts
from .scenario import DEFAULT_TOLERANCES, demo_scenarios, parse_scenario


def _tolerance_pair(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise argparse.ArgumentTypeError(
            f"expected NAME=VALUE, got {text!r}"
        )
    try:
        return name, float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"tolerance value in {text!r} is not a number")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phinv",
        description=(
            "Pseudo-Hermitian invariants for time-dependent generalized "
            "Swanson Hamiltonians: run scenarios, verify artifacts."
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config, write CSV and report")
    run_p.add_argument("--config", required=True, help="path to a scenario JSON file")
    run_p.add_argument("--out", default=".", help="output directory")
    run_p.add_argument(
        "--tolerance", action="append", default=[], type=_tolerance_pair,
        metavar="NAME=VALUE", help="override a tolerance (repeatable)",
    )
    run_p.add_argument("--quiet", action="store_true", help="suppress per-check lines")

    ver_p = sub.add_parser("verify", help="re-judge series.csv + report.json in a directory")
    ver_p.add_argument("--out", default=".", help="directory holding the artifacts")
    ver_p.add_argument(
        "--tolerance", action="append", default=[], type=_tolerance_pair,
        metavar="NAME=VALUE", help="override a tolerance (repeatable)",
    )
    ver_p.add_argument("--quiet", action="store_true", help="suppress per-check lines")

    demo_p = sub.add_parser("demo", help="write the built-in scenario configs")
    demo_p.add_argument("--out", default=".", help="output directory")
    demo_p.add_argument("--quiet", action="store_true", help="suppress path listing")
    return parser


def _cmd_run(args) -> int:
    try:
        with open(args.config, encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        print(f"error: cannot read config: {e}", file=sys.stderr)
        return 2
    cfg = parse_scenario(text)
    overrides = dict(args.tolerance)
    if overrides:
        for name in overrides:
            if name not in DEFAULT_TOLERANCES:
                print(f"error: unknown tolerance name {name!r}", file=sys.stderr)
                return 2
        cfg = dataclasses.replace(cfg, tolerances={**cfg.tolerances, **overrides})
    result = run_scenario(cfg)
    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "series.csv")
    report_path = os.path.join(args.out, "report.json")
    with open(csv_path, "w", encoding="utf-8", newline="") as f:
        f.write(result.csv_text)
    with open(report_path, "w", encoding="utf-8", newline="") as f:
        f.write(result.report_text)
    if not args.quiet:
        for line in result.summary_lines:
            print(line)
        print(f"wrote {csv_path} and {report_path}")
    return 0 if result.passed else 1


def _cmd_verify(args) -> int:
    try:
        with open(os.path.join(args.out, "series.csv"), encoding="utf-8", newline="") as f:
            csv_text = f.read()
        with open(os.path.join(args.out, "report.json"), encoding="utf-8") as f:
            report_text = f.read()
    except OSError as e:
        print(f"error: cannot read artifacts: {e}", file=sys.stderr)
        return 2
    code, lines = verify_artifacts(csv_text, report_text, dict(args.tolerance))
    if not args.quiet:
        for line in lines:
            print(line)
    return code


def _cmd_demo(args) -> int:
    os.makedirs(args.out, exist_ok=True)
    for name, doc in demo_scenarios().items():
        path = os.path.join(args.out, f"{name}.json")
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        if not args.quiet:
            print(path)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_demo(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericsError as e:
        print(f"numerical guard: {e}", file=sys.stderr)
        return 3


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
