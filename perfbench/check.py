"""Correctness gate for one benchmark repetition.

A repetition fails if phinv run or phinv verify exits non-zero, if any of the
17 checks phinv emits is missing or failed, if the report's report_times does
not match the CSV, if the CSV state columns disagree with routes computed here
without phinv, or, on seed 0, if the state columns (Phi, vtheta0, W_re,
gamma_n) differ by more than 1e-12 relative from the stored reference. README
lists 18 check rows, but local_error is never emitted, so the gate does not
require it. The caller adds the last rule: the CSV digest must not change
between repetitions of one run.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
from scipy.integrate import cumulative_simpson, solve_ivp

EMITTED_CHECKS = (
    "schrodinger", "invariant", "dyson", "eta_norm_drift", "im_w", "rayleigh",
    "hermitian_image", "constraint", "eta_positivity", "tail_support", "gram",
    "canonical", "cross_representation", "oracle_overlap", "oracle_vector",
    "oracle_eta_drift", "hermitian_side",
)
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_EVERY = 10
REFERENCE_RTOL = 1e-12
# Independent routes: a DOP853 solve of the metric flow, the README's
# constraint and W formulas, and Simpson quadrature of gamma_n on the report
# grid. Their own errors set these tolerances, far below any real defect.
FLOW_RTOL = 1e-9
DRIVE_RTOL = 1e-12
W_RTOL = 1e-10
PHASE_RTOL = 1e-8


def read_csv(path: Path) -> dict[str, np.ndarray]:
    rows = path.read_bytes().decode("utf-8").split("\r\n")
    header = rows[0].split(",")
    data = np.array([[float(x) for x in row.split(",")] for row in rows[1:] if row])
    return {name: data[:, j] for j, name in enumerate(header)}


def state_columns(cols: dict[str, np.ndarray]) -> list[str]:
    return ["Phi", "vtheta0", "W_re"] + sorted(c for c in cols if c.startswith("gamma_"))


def _profile(p: dict, t: np.ndarray) -> np.ndarray:
    if p["kind"] == "constant":
        return np.full_like(t, p["value"])
    if p["kind"] == "linear":
        return p["intercept"] + p["slope"] * t
    return p["offset"] + p["amplitude"] * np.sin(p["frequency"] * t + p.get("phase", 0.0))


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))


def independent_problems(doc: dict, cols: dict[str, np.ndarray]) -> list[str]:
    """Check the CSV's state columns against routes that do not use phinv."""
    problems = []
    t = cols["t"]
    n_times = round(doc["t_max"] / doc["dt"]) + 1
    if len(t) != n_times or _rel_err(t, doc["dt"] * np.arange(n_times)) > DRIVE_RTOL:
        return [f"report grid: {len(t)} times, expected {n_times} at dt={doc['dt']}"]
    prof = doc["profiles"]
    drive = {name: _profile(prof[name], t) for name in ("re_omega", "im_omega", "im_beta")}
    for name, want in drive.items():
        if _rel_err(cols[name], want) > DRIVE_RTOL:
            problems.append(f"{name} column differs from its profile")

    def flow(tv, y):
        im_o = _profile(prof["im_omega"], np.array([tv]))[0]
        im_b = _profile(prof["im_beta"], np.array([tv]))[0]
        return [2 * y[1] * im_b, 2 * y[1] * (-im_o + 2 * y[0] * im_b)]

    init = doc["initial_metric"]
    sol = solve_ivp(flow, (0.0, t[-1]), [init["phi_cap"], init["vtheta_zero"]],
                    method="DOP853", t_eval=t, rtol=1e-13, atol=1e-15)
    for j, name in enumerate(("Phi", "vtheta0")):
        err = _rel_err(cols[name], sol.y[j])
        if not sol.success or err > FLOW_RTOL:
            problems.append(f"{name} differs from an independent flow solve by {err:.2e}")

    phi, th0 = sol.y
    chi = phi * phi - th0
    den = phi * phi + chi
    ro, io, ib = drive["re_omega"], drive["im_omega"], drive["im_beta"]
    alpha = chi * phi * ro / den + 1j * (phi * io - chi * ib)
    beta = phi * ro / den + 1j * ib
    w_re = np.real((ro + 1j * io) * (phi * phi + chi) - 2 * phi * (alpha + beta * chi)) / th0
    err = _rel_err(cols["W_re"], w_re)
    if err > W_RTOL:
        problems.append(f"W_re differs from the closed form by {err:.2e}")
    integral = cumulative_simpson(w_re, x=t, initial=0.0)
    for n in doc["quantum_numbers"]:
        err = _rel_err(cols[f"gamma_{n}"], (n + 0.5) * integral)
        if err > PHASE_RTOL:
            problems.append(f"gamma_{n} differs from the quadrature of (n+1/2) W_re by {err:.2e}")
    return problems


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def reference_problems(reference: dict, cols: dict[str, np.ndarray]) -> list[str]:
    problems = []
    rows = np.array(reference["rows"])
    if len(cols["t"]) <= rows[-1]:
        return [f"CSV has {len(cols['t'])} rows, reference needs {rows[-1] + 1}"]
    for name, want in reference["columns"].items():
        want = np.array(want)
        got = cols[name][rows]
        err = float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), math.ulp(0.0))
        if err > REFERENCE_RTOL:
            problems.append(f"{name} differs from the seed-0 reference by {err:.2e} relative")
    return problems


def gate(doc: dict, out_dir: Path, rep: dict, reference: dict | None) -> tuple[list[str], str | None]:
    """Problems found in one repetition, and its CSV digest."""
    if "error" in rep:
        return [f"worker raised: {rep['error'].strip().splitlines()[-1]}"], None
    problems = []
    if rep["run_code"] != 0:
        problems.append(f"phinv run exited {rep['run_code']}")
    if any(code != 0 for code in rep["verify_codes"]):
        problems.append(f"phinv verify exited {rep['verify_codes']}")
    csv_path, report_path = out_dir / "series.csv", out_dir / "report.json"
    if not (csv_path.exists() and report_path.exists()):
        return problems + ["artifacts missing"], None
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    report = json.loads(report_path.read_text(encoding="utf-8"))
    checks = {c["name"]: c for c in report["checks"]}
    missing = [name for name in EMITTED_CHECKS if name not in checks]
    if missing:
        problems.append(f"checks not emitted: {missing}")
    failed = [name for name, c in checks.items() if not c["passed"]]
    if failed or not report["overall_pass"]:
        problems.append(f"checks failed: {failed}")
    cols = read_csv(csv_path)
    if report["diagnostics"]["report_times"] != len(cols["t"]):
        problems.append(f"report_times {report['diagnostics']['report_times']} != CSV rows {len(cols['t'])}")
    problems += independent_problems(doc, cols)
    if reference is not None:
        problems += reference_problems(reference, cols)
    return problems, digest
