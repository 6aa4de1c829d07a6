"""Command-line interface.

Subcommands: run (execute a scenario, write series.csv + report.json),
verify (re-judge an existing artifact pair), demo (write the two built-in
scenario configs). Exit codes: 0 pass, 1 verification failure, 2
input/format error or out of memory, 3 numerical guard tripped.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings

from ._version import __version__
from .errors import InputError, NumericsError, TruncationWarning
from .runner import run_scenario, verify_artifacts
from .scenario import demo_scenarios, parse_scenario, tolerance_overrides


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
    ver_p = sub.add_parser("verify", help="re-judge series.csv + report.json in a directory")
    ver_p.add_argument("--out", default=".", help="directory holding the artifacts")
    for p in (run_p, ver_p):
        p.add_argument(
            "--tolerance", action="append", default=[], type=_tolerance_pair,
            metavar="NAME=VALUE", help="override a tolerance (repeatable)",
        )
        p.add_argument("--quiet", action="store_true", help="suppress per-check lines")

    demo_p = sub.add_parser("demo", help="write the built-in scenario configs")
    demo_p.add_argument("--out", default=".", help="output directory")
    demo_p.add_argument("--quiet", action="store_true", help="suppress path listing")
    return parser


def _read_text(path: str, what: str, newline: str | None = None) -> str:
    """A UTF-8 file's text, or an InputError saying that `what` cannot be
    read. newline is open()'s: "" keeps the line ends as written."""
    try:
        with open(path, encoding="utf-8", newline=newline) as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {what}: {e}") from e


def _write_text(path: str, text: str, what: str) -> None:
    """Write a UTF-8 file, or an InputError saying `what` cannot be written."""
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(text)
    except OSError as e:
        raise InputError(f"cannot write {what}: {e}") from e


def _make_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as e:
        raise InputError(f"cannot create output directory: {e}") from e


def _cmd_run(args) -> int:
    cfg = parse_scenario(_read_text(args.config, "config"))
    overrides = tolerance_overrides(args.tolerance)
    cfg = dataclasses.replace(cfg, tolerances={**cfg.tolerances, **overrides})
    _make_out_dir(args.out)
    show = warnings.showwarning

    def one_line(message, category, *where):
        # A run's TruncationWarning as one line, without Python's location
        # and source lines; any other warning as Python shows it.
        if issubclass(category, TruncationWarning):
            print(f"warning: {message}", file=sys.stderr)
        else:
            show(message, category, *where)

    with warnings.catch_warnings():
        warnings.showwarning = one_line
        result = run_scenario(cfg)
    csv_path = os.path.join(args.out, "series.csv")
    report_path = os.path.join(args.out, "report.json")
    _write_text(csv_path, result.csv_text, "artifacts")
    _write_text(report_path, result.report_text, "artifacts")
    if not args.quiet:
        for line in result.summary_lines:
            print(line)
        print(f"wrote {csv_path} and {report_path}")
    return 0 if result.passed else 1


def _cmd_verify(args) -> int:
    csv_text = _read_text(os.path.join(args.out, "series.csv"), "artifacts", newline="")
    report_text = _read_text(os.path.join(args.out, "report.json"), "artifacts")
    code, lines = verify_artifacts(csv_text, report_text, dict(args.tolerance))
    if not args.quiet:
        for line in lines:
            print(line)
    return code


def _cmd_demo(args) -> int:
    _make_out_dir(args.out)
    for name, doc in demo_scenarios().items():
        path = os.path.join(args.out, f"{name}.json")
        _write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n", "demo config")
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
    except MemoryError as e:
        # A grid or basis too large for this machine is an input error too.
        print("error: out of memory" + (f": {e}" if str(e) else ""), file=sys.stderr)
        return 2
    except NumericsError as e:
        print(f"numerical guard: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
