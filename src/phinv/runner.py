"""Scenario orchestration: run the pipeline, emit CSV + verification report.

run_scenario integrates the metric flow, assembles the invariant-eigenstate
solutions at every report time, sweeps every residual meter over the grid,
spot-checks the position representation at eleven evenly spaced times, runs
the two propagation cross-checks (short-horizon direct oracle and
full-horizon Hermitian-side oracle), and aggregates everything into a
machine-readable report whose provenance block pairs it with its config and
CSV. verify_artifacts re-judges an existing pair, optionally under stricter
tolerances, without recomputing the physics.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .errors import DomainError, FormatError, GuardError
from .fock import BandOperator, tail_support
from .metric import build_eta, build_rho_inverse
from .model import (
    MetricState,
    assemble_solution,
    constraint_residuals,
    hamiltonian_op,
    integrate_metric,
    invariant_op,
)
from .position import (
    GaussianShape,
    canonical_agreement,
    check_edge_decay,
    cross_representation_residual,
    orthonormality_matrix,
    PositionGrid,
)
from .propagator import (
    convergence_probe,
    dyson_residual,
    eta_source,
    hamiltonian_source,
    hermitian_image_check,
    hermitian_side_check,
    invariant_residual,
    propagate,
    schrodinger_residual,
)
from .scenario import ScenarioConfig

FIXED_COLUMNS = [
    "t", "Phi", "vtheta0", "chi",
    "re_omega", "im_omega", "re_alpha", "im_alpha", "re_beta", "im_beta",
    "W_re", "W_im",
]
TRAILING_COLUMNS = [
    "eta_norm", "schrodinger_residual", "invariant_residual",
    "dyson_residual", "tail_support",
]
CSV_EOL = "\r\n"
N_SAMPLE_TIMES = 11
RAYLEIGH_MAX_N = 6
CROSS_REP_MAX_N = 4
GRAM_MAX_N = 5
ORACLE_HORIZON = 0.5


def _fmt(x: float) -> str:
    return f"{x:.16e}"


@dataclass
class RunResult:
    config: ScenarioConfig
    csv_text: str
    report: dict
    report_text: str
    summary_lines: list[str]

    @property
    def passed(self) -> bool:
        return bool(self.report["overall_pass"])


def _profile_callables(cfg: ScenarioConfig) -> dict:
    """The drive keywords of integrate_metric: omega, and im_beta in
    generator mode or alpha and beta in check mode."""
    p = cfg.profiles

    def pair(name: str):
        re_f, im_f = p[f"re_{name}"], p[f"im_{name}"]
        return lambda t: complex(re_f(t), im_f(t))

    if cfg.mode == "generator":
        return {"omega": pair("omega"), "im_beta": p["im_beta"]}
    return {"omega": pair("omega"), "alpha": pair("alpha"), "beta": pair("beta")}


def _sample_indices(n_times: int) -> np.ndarray:
    return np.unique(np.round(np.linspace(0, n_times - 1, N_SAMPLE_TIMES)).astype(int))


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    dim = cfg.dim
    tol = cfg.tolerances
    traj = integrate_metric(
        MetricState(cfg.phi0, cfg.vtheta0),
        **_profile_callables(cfg),
        t_max=cfg.t_max,
        dt=cfg.dt,
        quantum_numbers=cfg.quantum_numbers,
        superposition=dict(zip(cfg.quantum_numbers, cfg.superposition)),
        local_error_tol=tol["local_error"],
        im_w_tol=tol["im_w"],
    )

    n_times = traj.n_times
    times = traj.times

    # The position spot checks need normalizable eigenfunctions that decay
    # inside their grid. Both are known from the trajectory alone, so a
    # failure stops the run here, with its time, before any meter runs.
    sample_idx = _sample_indices(n_times)
    spots = []
    for i in sample_idx:
        s_i = traj.state_at(int(i))
        try:
            shape = GaussianShape.from_state(s_i)
            grid = PositionGrid.for_shape(shape, n_max=GRAM_MAX_N)
            check_edge_decay(shape, GRAM_MAX_N, grid)
        except DomainError as e:
            raise DomainError(f"t={times[i]:.6g}: {e}") from e
        spots.append((int(i), s_i, shape, grid))

    states = np.empty((n_times, dim), dtype=complex)
    tails = np.empty(n_times)
    for i in range(n_times):
        states[i] = assemble_solution(traj, i, dim)
        tails[i] = tail_support(states[i])
        if tails[i] > tol["tail_support"]:
            raise GuardError(
                "tail-support", float(times[i]),
                f"assembled state holds {tails[i]:.3e} of its weight in the "
                f"top levels (limit {tol['tail_support']:.1e})",
            )

    def h_report(t: float) -> BandOperator:
        idx = int(round(t / cfg.dt))
        return hamiltonian_op(traj.coeffs_at(idx), dim)

    eta_norms = np.empty(n_times)
    schro = np.full(n_times, math.nan)
    inv_res = np.full(n_times, math.nan)
    dys_res = np.full(n_times, math.nan)
    rayleigh_dev = np.empty(n_times)
    image_dev = np.empty(n_times)
    constraint_dev = np.empty(n_times)
    ns = range(min(RAYLEIGH_MAX_N, dim // 4) + 1)
    for i in range(n_times):
        s_i = traj.state_at(i)
        c_i = traj.coeffs_at(i)
        eta = build_eta(traj.gauss_at(i), dim)
        eta_norms[i] = float(np.real(np.vdot(states[i], eta @ states[i])))
        if 2 <= i <= n_times - 3:
            schro[i] = schrodinger_residual(states, times, h_report, i)
        if 4 <= i <= n_times - 5:
            inv_res[i] = invariant_residual(traj, i, dim)
            dys_res[i] = dyson_residual(traj, i, dim)
        inv_op = invariant_op(s_i, dim)
        rho_inv = build_rho_inverse(traj.gauss_at(i), dim)
        worst = 0.0
        for n in ns:
            v = rho_inv[:, n]
            den = float(np.real(np.vdot(v, eta @ v)))
            num = float(np.real(np.vdot(v, eta @ (inv_op @ v))))
            worst = max(worst, abs(num / den - (n + 0.5)))
        rayleigh_dev[i] = worst
        image_dev[i] = hermitian_image_check(traj, i, dim)
        constraint_dev[i] = max(constraint_residuals(s_i, c_i).values())

    rng = np.random.default_rng(cfg.seed)
    gram_dev = []
    canon_dev = []
    cross_dev = []
    positivity_min = math.inf
    width_vals = []
    for i, s_i, shape, grid in spots:
        width_vals.append(shape.width_coeff)
        gres = orthonormality_matrix(GRAM_MAX_N, s_i, grid)
        gram_dev.append(max(gres.max_off_diagonal, gres.max_diagonal_deviation))
        canon_dev.append(canonical_agreement(s_i, dim))
        worst = 0.0
        for n in range(min(CROSS_REP_MAX_N, dim - 1) + 1):
            worst = max(worst, cross_representation_residual(s_i, n, dim))
        cross_dev.append(worst)
        eta = build_eta(traj.gauss_at(i), dim)
        for _ in range(4):
            z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            val = float(np.real(np.vdot(z, eta @ z)) / np.real(np.vdot(z, z)))
            positivity_min = min(positivity_min, val)

    n_short = min(n_times - 1, int(round(ORACLE_HORIZON / cfg.dt)))
    short_times = times[: n_short + 1]
    h_src = hamiltonian_source(traj, dim)
    oracle = propagate(
        h_src, states[0], short_times, substeps=8, eta_of_t=eta_source(traj, dim)
    )
    psi, phi_lr = oracle.final_state(), states[n_short]
    eta_end = build_eta(traj.gauss_at(n_short), dim)
    cross = abs(complex(np.vdot(psi, eta_end @ phi_lr)))
    norm_prod = math.sqrt(
        float(np.real(np.vdot(psi, eta_end @ psi)))
        * float(np.real(np.vdot(phi_lr, eta_end @ phi_lr)))
    )
    overlap_deficit = abs(1.0 - cross / norm_prod)
    vector_diff = float(np.linalg.norm(psi - phi_lr)) / max(
        1.0, float(np.linalg.norm(phi_lr))
    )
    oracle_drift = float(np.max(np.abs(oracle.eta_norms - oracle.eta_norms[0])))
    probe_times = short_times[::25] if len(short_times) > 50 else short_times
    ratio, order = convergence_probe(h_src, states[0], probe_times, substeps=2)

    herm_side = hermitian_side_check(traj, states, dim)

    def _max_at(arr: np.ndarray) -> tuple[float, float | None]:
        finite = np.isfinite(arr)
        if not finite.any():
            return 0.0, None
        vals = np.where(finite, np.abs(arr), -math.inf)
        j = int(np.argmax(vals))
        return float(vals[j]), float(times[j])

    im_w_dense = np.abs(traj.w.imag)
    j_imw = int(np.argmax(im_w_dense))
    drift = np.abs(eta_norms - eta_norms[0])

    sample_times = times[sample_idx]

    def _sample_max(vals: list[float]) -> tuple[float, float]:
        j = int(np.argmax(vals))
        return float(vals[j]), float(sample_times[j])

    checks: list[dict] = []

    def add(name: str, residual: float, worst_time: float | None):
        checks.append(
            {
                "name": name,
                "max_residual": float(residual),
                "tolerance": float(tol[name]),
                "passed": bool(residual <= tol[name]),
                "worst_time": worst_time,
            }
        )

    add("schrodinger", *_max_at(schro))
    add("invariant", *_max_at(inv_res))
    add("dyson", *_max_at(dys_res))
    add("eta_norm_drift", *_max_at(drift))
    add("im_w", float(im_w_dense[j_imw]), float(traj.dense_times[j_imw]))
    add("rayleigh", *_max_at(rayleigh_dev))
    add("hermitian_image", *_max_at(image_dev))
    add("constraint", *_max_at(constraint_dev))
    add("eta_positivity", max(0.0, -positivity_min), None)
    add("tail_support", *_max_at(tails))
    g, gt = _sample_max(gram_dev)
    add("gram", g, gt)
    c, ct = _sample_max(canon_dev)
    add("canonical", c, ct)
    x, xt = _sample_max(cross_dev)
    add("cross_representation", x, xt)
    add("oracle_overlap", overlap_deficit, float(times[n_short]))
    add("oracle_vector", vector_diff, float(times[n_short]))
    add("oracle_eta_drift", oracle_drift, None)
    add("hermitian_side", herm_side, None)

    csv_text = _emit_csv(cfg, traj, eta_norms, schro, inv_res, dys_res, tails)
    overall = all(c["passed"] for c in checks)
    report = {
        "checks": checks,
        "overall_pass": overall,
        "provenance": {
            "config_hash": cfg.config_hash(),
            "csv_sha256": hashlib.sha256(csv_text.encode()).hexdigest(),
            "version": __version__,
            "effective_config": cfg.effective(),
        },
        "diagnostics": {
            "mode": cfg.mode,
            "rk4_halving_ratio": ratio if math.isfinite(ratio) else None,
            "rk4_order_estimate": order if math.isfinite(order) else None,
            "report_times": int(n_times),
            "shape_regime": {
                "width_coeff_min": float(min(width_vals)),
                "width_coeff_max": float(max(width_vals)),
            },
        },
    }
    report_text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n"
    summary = [
        f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: "
        f"max={c['max_residual']:.3e} tol={c['tolerance']:.1e}"
        for c in checks
    ]
    return RunResult(
        config=cfg,
        csv_text=csv_text,
        report=report,
        report_text=report_text,
        summary_lines=summary,
    )


def _emit_csv(cfg, traj, eta_norms, schro, inv_res, dys_res, tails) -> str:
    gamma_cols = [f"gamma_{n}" for n in traj.quantum_numbers]
    header = FIXED_COLUMNS + gamma_cols + TRAILING_COLUMNS
    lines = [",".join(header)]
    for i in range(traj.n_times):
        s = traj.state_at(i)
        c = traj.coeffs_at(i)
        w = traj.w_at(i)
        row = [
            traj.times[i], s.phi_cap, s.vtheta_zero, s.chi,
            c.omega.real, c.omega.imag, c.alpha.real, c.alpha.imag,
            c.beta.real, c.beta.imag, w.real, w.imag,
        ]
        row += [traj.phases[n][i] for n in traj.quantum_numbers]
        row += [eta_norms[i], schro[i], inv_res[i], dys_res[i], tails[i]]
        lines.append(",".join(_fmt(float(v)) for v in row))
    return CSV_EOL.join(lines) + CSV_EOL


CSV_RECOMPUTED = {
    "schrodinger": "schrodinger_residual",
    "invariant": "invariant_residual",
    "dyson": "dyson_residual",
    "tail_support": "tail_support",
}


def _parse_csv(csv_text: str) -> dict[str, np.ndarray]:
    rows = [r for r in csv_text.split(CSV_EOL) if r != ""]
    if not rows:
        raise FormatError("empty CSV")
    header = rows[0].split(",")
    needed = set(FIXED_COLUMNS + TRAILING_COLUMNS)
    missing = needed - set(header)
    if missing:
        raise FormatError(f"CSV is missing columns: {sorted(missing)}")
    data = []
    for k, line in enumerate(rows[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise FormatError(
                f"CSV row {k} has {len(cells)} cells, expected {len(header)}"
            )
        try:
            data.append([float(cell) for cell in cells])
        except ValueError as e:
            raise FormatError(f"CSV row {k}: {e}") from e
    if not data:
        raise FormatError("CSV has no data rows")
    arr = np.array(data)
    return {name: arr[:, j] for j, name in enumerate(header)}


def verify_artifacts(
    csv_text: str, report_text: str, overrides: dict[str, float] | None = None
) -> tuple[int, list[str]]:
    """Re-judge a (CSV, report) pair; returns (exit_code, summary lines).

    Residuals with per-time CSV columns are recomputed from the CSV; the
    rest are taken from the report. Tolerances default to the recorded ones
    and can be overridden (typically tightened). The pair must belong
    together: the report's recorded CSV digest must match the given CSV.
    """
    overrides = overrides or {}
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid report JSON at line {e.lineno}: {e.msg}") from e
    try:
        checks = report["checks"]
        prov = report["provenance"]
        recorded_digest = prov["csv_sha256"]
        eff = prov["effective_config"]
    except (KeyError, TypeError) as e:
        raise FormatError(f"report is missing required field: {e}") from e

    digest = hashlib.sha256(csv_text.encode()).hexdigest()
    if digest != recorded_digest:
        raise FormatError(
            "CSV does not match the report (digest mismatch); "
            "these artifacts are not a pair"
        )
    cols = _parse_csv(csv_text)
    expected_rows = round(eff["t_max"] / eff["dt"]) + 1
    n_rows = len(cols["t"])
    if n_rows != expected_rows:
        raise FormatError(
            f"CSV has {n_rows} data rows but the config implies {expected_rows}"
        )

    known = {c["name"] for c in checks}
    for name in overrides:
        if name not in known:
            raise FormatError(f"unknown check name in tolerance override: {name}")

    lines = []
    ok = True
    for c in checks:
        name = c["name"]
        tolerance = float(overrides.get(name, c["tolerance"]))
        if name in CSV_RECOMPUTED:
            col = cols[CSV_RECOMPUTED[name]]
            finite = col[np.isfinite(col)]
            residual = float(np.max(np.abs(finite))) if len(finite) else 0.0
        elif name == "eta_norm_drift":
            col = cols["eta_norm"]
            residual = float(np.max(np.abs(col - col[0])))
        elif name == "im_w":
            residual = float(np.max(np.abs(cols["W_im"])))
        else:
            residual = float(c["max_residual"])
        passed = residual <= tolerance
        ok = ok and passed
        lines.append(
            f"{'PASS' if passed else 'FAIL'} {name}: "
            f"max={residual:.3e} tol={tolerance:.1e}"
        )
    return (0 if ok else 1), lines
