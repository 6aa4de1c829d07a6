"""One benchmark repetition in a fresh interpreter.

    python3 perfbench/worker.py --config CFG --out DIR [--trace] [--setup-only]

Imports phinv from PYTHONPATH (the benchmark points it at the checkout's src),
parses the config, then runs `phinv run` once and `phinv verify` repeatedly
for about VERIFY_SECONDS, both through phinv.cli.main, and prints one JSON
line with its timings (verify_s is the fastest of the verify calls), its peak
RSS and its provenance. `ready` is a time.monotonic() stamp; the parent, which
stamped the spawn with the same system-wide clock, turns it into setup_s.
With --trace every call runs under the tracer and the line carries the
per-layer numbers as well.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback

# verify takes 5-20 ms. On a shared core the median call drifts by up to 1.7x
# from one 5 s window to the next, while the fastest call of a window moves
# by about 10 %, so verify is called repeatedly for VERIFY_SECONDS and the
# fastest call is kept.
VERIFY_SECONDS = 1.0
VERIFY_MIN_CALLS = 5


def _blas_info() -> dict:
    """OpenBLAS version and thread count as the loaded library reports them."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                config.restype = ctypes.c_char_p
                return {"openblas": config().decode(), "blas_threads": int(threads())}
    return {"openblas": None, "blas_threads": None}


def _provenance() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **_blas_info(),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from phinv import cli
    from phinv.scenario import parse_scenario

    src = os.environ["PYTHONPATH"].split(os.pathsep)[0]
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"phinv was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    with open(args.config, encoding="utf-8") as f:
        parse_scenario(f.read())
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    try:
        result = _measure(args)
    except Exception:  # a crash of the program is a failed repetition, not a benchmark error
        result = {"error": traceback.format_exc()}
    print(json.dumps({"ready": ready, **result}))
    return 0


def _measure(args) -> dict:
    from phinv import cli

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer().install()

    def call(name, fn, *fn_args):
        return tracer.call(name, fn, *fn_args) if tracer else fn(*fn_args)

    run_argv = ["run", "--config", args.config, "--out", args.out, "--quiet"]
    run_span = len(tracer.spans) if tracer else 0
    t0 = time.perf_counter()
    run_code = call("cli.run", cli.main, run_argv)
    run_s = time.perf_counter() - t0
    run_end = len(tracer.spans) if tracer else 0

    verify_codes, verify_times = [], []
    block_start = time.perf_counter()
    while len(verify_codes) < VERIFY_MIN_CALLS or time.perf_counter() - block_start < VERIFY_SECONDS:
        t0 = time.perf_counter()
        verify_codes.append(call("cli.verify", cli.main, ["verify", "--out", args.out, "--quiet"]))
        verify_times.append(time.perf_counter() - t0)

    result = {
        "run_s": run_s,
        "run_code": run_code,
        "verify_s": min(verify_times),
        "verify_codes": verify_codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": _provenance(),
    }
    if tracer:
        tracer.restore()
        result["layers"] = tracer.layer_metrics(run_span, run_end, len(verify_codes))
    return result


if __name__ == "__main__":
    sys.exit(main())
