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
import itertools
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .errors import ConfigError, DomainError, FormatError, GuardError, TruncationWarning
from .fock import BandOperator, ParityBlocks, tail_support
from .metric import build_rho, build_rho_inverse, metric_window
from .model import (
    MetricState,
    assemble_solution,
    constraint_residuals,
    integrate_metric,
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
    hamiltonian_source,
    hermitian_image_check,
    hermitian_side_check,
    invariant_residual,
    propagate,
    schrodinger_residual,
    sorted_distinct,
)
from .scenario import (
    CHECKS, Check, ScenarioConfig, canonical_hash, parse_scenario, tolerance_overrides,
)

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
# Tail weight above which a run warns (TruncationWarning); the tail_support
# tolerance stops it.
TAIL_WARN = 1e-8


def _verdict(name: str, residual: float, tolerance: float) -> tuple[bool, str]:
    """Whether a row passes, and its PASS/FAIL line as run and verify print it."""
    passed = residual <= tolerance
    return passed, (
        f"{'PASS' if passed else 'FAIL'} {name}: max={residual:.3e} tol={tolerance:.1e}"
    )


def _worst(check: Check, values, times) -> tuple[float, float | None]:
    """The largest |value| of a measured series (of its change from the
    first value, for a drift check) and its time, over the rows where the
    check applies: all but its margin at each end. A non-finite value there
    stops the run: no verdict can be read from it."""
    vals = np.asarray(values, dtype=float)[check.margin : len(values) - check.margin]
    vals = np.abs(vals - vals[0] if check.drift else vals)
    times = times[check.margin : len(values) - check.margin]
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        t = times[bad[0]]
        at = "" if t is None else f"t={t:.6g}: "
        raise DomainError(f"{at}check '{check.name}' residual is {vals[bad[0]]}")
    j = int(np.argmax(vals))
    return float(vals[j]), None if times[j] is None else float(times[j])


def _warn_truncation(tails: np.ndarray, times: np.ndarray, n_times: int) -> None:
    """One TruncationWarning for a run whose assembled states, the first
    len(tails) of its n_times, hold more than TAIL_WARN of their weight in
    the top levels: at how many report times, and the largest weight with
    its time."""
    over = int(np.count_nonzero(tails > TAIL_WARN))
    if over:
        j = int(np.argmax(tails))
        of = len(tails) if len(tails) == n_times else f"the first {len(tails)}"
        warnings.warn(
            f"assembled states hold more than {TAIL_WARN:.0e} of their weight in the "
            f"top levels at {over} of {of} report times, at most "
            f"{tails[j]:.3e} at t={times[j]:.6g}",
            TruncationWarning,
            stacklevel=3,
        )


def _norm_sq(v: np.ndarray) -> float:
    """|v|^2 of one state: the eta-norm of u when v = rho u."""
    return float(np.vdot(v, v).real)


def _direct_oracle(traj, states: np.ndarray, n_short: int, dim: int) -> tuple[float, ...]:
    """The short-horizon direct oracle and its convergence probe, from the
    assembled states over report times 0 .. n_short: the overlap deficit and
    the vector mismatch with the assembled state at n_short, the drift of
    the oracle's eta-norm, and the probe's RK4 halving ratio and order.
    Only these scalars outlive the call, so the oracle's states are freed
    before the Hermitian-side oracle runs."""
    short_times = traj.times[: n_short + 1]
    h_src = hamiltonian_source(traj, dim)
    oracle = propagate(h_src, states[0], short_times, substeps=8)
    # Every eta-norm and overlap is taken through rho: <u, eta v> = (rho u, rho v).
    oracle_norms = np.array([
        _norm_sq(build_rho(traj.state_at(i), dim) @ v) for i, v in enumerate(oracle)
    ])
    rho_end = build_rho(traj.state_at(n_short), dim)
    psi, phi_lr = oracle[-1], states[n_short]
    r_psi, r_phi = rho_end @ psi, rho_end @ phi_lr
    cross = abs(complex(np.vdot(r_psi, r_phi)))
    norm_prod = math.sqrt(_norm_sq(r_psi) * _norm_sq(r_phi))
    overlap_deficit = abs(1.0 - cross / norm_prod)
    vector_diff = float(np.linalg.norm(psi - phi_lr)) / max(
        1.0, float(np.linalg.norm(phi_lr))
    )
    oracle_drift = float(np.max(np.abs(oracle_norms - oracle_norms[0])))
    probe_times = short_times[::25] if len(short_times) > 50 else short_times
    ratio, order = convergence_probe(h_src, states[0], probe_times, substeps=2)
    return overlap_deficit, vector_diff, oracle_drift, ratio, order


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


def run_scenario(cfg: ScenarioConfig) -> RunResult:
    dim = cfg.dim
    tol = cfg.tolerances
    traj = integrate_metric(
        MetricState(cfg.phi0, cfg.vtheta0),
        cfg.profiles,
        cfg.t_max,
        cfg.dt,
        superposition=dict(zip(cfg.quantum_numbers, cfg.superposition)),
        local_error_tol=tol["local_error"],
        im_w_tol=tol["im_w"],
    )

    n_times = traj.n_times
    times = traj.times
    # Every read of rho^-1 in the run asks for the columns of its top level,
    # the one assembly reads (metric.build_rho_inverse).
    top = max(traj.superposition)

    # The position spot checks need normalizable eigenfunctions that decay
    # inside their grid. Both are known from the trajectory alone, so a
    # failure stops the run here, with its time, before any meter runs. The
    # canonical check reads no metric cache, so it runs here too, before the
    # window passes fill them.
    sample_idx = sorted_distinct(np.round(np.linspace(0, n_times - 1, N_SAMPLE_TIMES)).astype(int))
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
    canon_dev = canonical_agreement([s_i for _, s_i, _, _ in spots], dim)

    # One assembly call per window of report times; the tail-support guard
    # still judges the states one by one, in order.
    states = np.empty((n_times, dim), dtype=complex)
    tails = np.empty(n_times)
    size = metric_window(dim)
    for lo in range(0, n_times, size):
        idx = np.arange(lo, min(lo + size, n_times))
        states[idx] = assemble_solution(traj, idx, dim)
        for i in idx:
            tails[i] = tail_support(states[i])
            if tails[i] > tol["tail_support"]:
                _warn_truncation(tails[: i + 1], times, n_times)
                raise GuardError(
                    "tail-support", float(times[i]),
                    f"assembled state holds {tails[i]:.3e} of its weight in the "
                    f"top levels (limit {tol['tail_support']:.1e})",
                )
    _warn_truncation(tails, times, n_times)

    margin = {c.name: c.margin for c in CHECKS}
    m = margin["schrodinger"]
    schro = np.full(n_times, math.nan)
    schro[m : n_times - m] = schrodinger_residual(traj, states, np.arange(m, n_times - m), dim)
    m = margin["invariant"]
    inv_res = np.full(n_times, math.nan)
    inv_res[m : n_times - m] = invariant_residual(traj, np.arange(m, n_times - m), dim)
    at_reports = slice(None, None, traj.stride)
    constraint_dev = np.maximum.reduce(list(constraint_residuals(
        traj.phi[at_reports], traj.vtheta0[at_reports],
        traj.omega[at_reports], traj.alpha[at_reports], traj.beta[at_reports],
    ).values()))

    # The meters that build the metric run on one window of report times
    # before the next, while its states are in the metric caches; a pass
    # per meter over the whole grid would rebuild them.
    eta_norms = np.empty(n_times)
    dys_res = np.full(n_times, math.nan)
    rayleigh_dev = np.empty(n_times)
    image_dev = np.empty(n_times)
    levels = np.arange(min(RAYLEIGH_MAX_N, dim // 4) + 1) + 0.5
    for lo in range(0, n_times, size):
        idx = np.arange(lo, min(lo + size, n_times))
        gs = [traj.state_at(i) for i in idx]
        rho = ParityBlocks(np.stack([build_rho(g, dim).blocks for g in gs]), dim)
        eta_norms[idx] = [_norm_sq(w) for w in rho @ states[idx]]
        inv = BandOperator(traj.i_bands(idx, dim))
        # The columns rho^{-1}|n> are real, as are rho and I: the quotient
        # <v, eta I v> / <v, eta v> is (rho v)^T (rho I v) / |rho v|^2.
        v = np.stack([build_rho_inverse(g, dim, top)[:, : len(levels)] for g in gs])
        rho_v = rho @ v
        den = np.sum(rho_v * rho_v, axis=-2)
        num = np.sum(rho_v * (rho @ (inv @ v)), axis=-2)
        rayleigh_dev[idx] = np.max(np.abs(num / den - levels), axis=-1)
        inner = idx[(idx >= margin["dyson"]) & (idx < n_times - margin["dyson"])]
        dys_res[inner] = dyson_residual(traj, inner, dim)
        image_dev[idx] = hermitian_image_check(traj, idx, dim)

    rng = np.random.default_rng(cfg.seed)
    gram_dev = []
    cross_dev = []
    positivity = []
    width_vals = []
    for i, s_i, shape, grid in spots:
        width_vals.append(shape.width_coeff)
        gram_dev.append(orthonormality_matrix(GRAM_MAX_N, s_i, grid))
        cross_dev.append(float(np.max([
            cross_representation_residual(s_i, n, dim, top)
            for n in range(min(CROSS_REP_MAX_N, dim - 1) + 1)
        ])))
        rho = build_rho(s_i, dim)
        for _ in range(4):
            z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            positivity.append(_norm_sq(rho @ z) / _norm_sq(z))

    n_short = min(n_times - 1, int(round(ORACLE_HORIZON / cfg.dt)))
    overlap_deficit, vector_diff, oracle_drift, ratio, order = _direct_oracle(
        traj, states, n_short, dim
    )

    herm_side = hermitian_side_check(traj, states, dim)

    sample_times = times[sample_idx]
    at_oracle_end = [float(times[n_short])]
    no_time = [None]
    # Each row's measured series and the times of its values.
    measured = {
        "schrodinger": (schro, times),
        "invariant": (inv_res, times),
        "dyson": (dys_res, times),
        "eta_norm_drift": (eta_norms, times),
        "im_w": (traj.w.imag, traj.dense_times),
        "rayleigh": (rayleigh_dev, times),
        "hermitian_image": (image_dev, times),
        "constraint": (constraint_dev, times),
        "eta_positivity": (np.maximum(0.0, -np.array(positivity)), no_time * len(positivity)),
        "tail_support": (tails, times),
        "gram": (gram_dev, sample_times),
        "canonical": (canon_dev, sample_times),
        "cross_representation": (cross_dev, sample_times),
        "oracle_overlap": ([overlap_deficit], at_oracle_end),
        "oracle_vector": ([vector_diff], at_oracle_end),
        "oracle_eta_drift": ([oracle_drift], no_time),
        "hermitian_side": ([herm_side], no_time),
    }
    checks = []
    summary = []
    for check in CHECKS:
        residual, worst_time = _worst(check, *measured[check.name])
        tolerance = float(tol[check.name])
        passed, line = _verdict(check.name, residual, tolerance)
        checks.append({"name": check.name, "max_residual": residual, "tolerance": tolerance,
                       "passed": passed, "worst_time": worst_time})
        summary.append(line)

    csv_text = _emit_csv(traj, eta_norms, schro, inv_res, dys_res, tails)
    report = {
        "checks": checks,
        "overall_pass": all(c["passed"] for c in checks),
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
    return RunResult(
        config=cfg,
        csv_text=csv_text,
        report=report,
        report_text=report_text,
        summary_lines=summary,
    )


def _csv_header(levels) -> list[str]:
    """The columns of series.csv for the tracked levels, in ascending order."""
    return FIXED_COLUMNS + [f"gamma_{n}" for n in levels] + TRAILING_COLUMNS


def _emit_csv(traj, eta_norms, schro, inv_res, dys_res, tails) -> str:
    header = _csv_header(traj.phases)
    phi, vtheta0, omega, alpha, beta, w = (
        a[:: traj.stride]
        for a in (traj.phi, traj.vtheta0, traj.omega, traj.alpha, traj.beta, traj.w)
    )
    # chi as MetricState computes it.
    rows = np.column_stack([
        traj.times, phi, vtheta0, phi * phi - vtheta0,
        omega.real, omega.imag, alpha.real, alpha.imag, beta.real, beta.imag, w.real, w.imag,
        *traj.phases.values(),
        eta_norms, schro, inv_res, dys_res, tails,
    ]).tolist()
    row_format = ",".join(["%.16e"] * len(header))
    lines = [",".join(header)] + [row_format % tuple(row) for row in rows]
    return CSV_EOL.join(lines) + CSV_EOL


def _parse_csv(csv_text: str) -> dict[str, np.ndarray]:
    """series.csv as named columns. Every line but the empty one after the
    final CSV_EOL is a row: run writes no blank line, and loadtxt would skip
    one. comments=None keeps loadtxt from cutting a cell at '#'."""
    rows = csv_text.split(CSV_EOL)
    if rows[-1] == "":
        rows.pop()
    if not any(rows):
        raise FormatError("empty CSV")
    header = rows[0].split(",")
    needed = set(FIXED_COLUMNS + TRAILING_COLUMNS)
    missing = needed - set(header)
    if missing:
        raise FormatError(f"CSV is missing columns: {sorted(missing)}")
    data = rows[1:]
    for k, line in enumerate(data, start=2):
        if line.count(",") != len(header) - 1:
            raise FormatError(
                f"CSV row {k} has {line.count(',') + 1} cells, expected {len(header)}"
            )
    if not data:
        raise FormatError("CSV has no data rows")
    try:
        arr = np.loadtxt(data, delimiter=",", comments=None, ndmin=2)
    except ValueError as e:
        for k, line in enumerate(data, start=2):
            try:
                np.loadtxt([line], delimiter=",", comments=None)
            except ValueError as row_error:
                where = str(row_error).replace(" at row 0, ", " in ")
                raise FormatError(f"CSV row {k}: {where}") from e
        raise FormatError(f"CSV: {e}") from e
    return {name: arr[:, j] for j, name in enumerate(header)}


def _recorded(check: Check, field: str, value) -> float:
    """A number a report's check row records, which must be a finite JSON
    number >= 0 (not a bool), as tolerance_overrides requires."""
    if type(value) not in (int, float) or not 0 <= value < math.inf:
        raise FormatError(
            f"check row '{check.name}' records {field} {value!r}, not a finite number >= 0"
        )
    return float(value)


def _recorded_tolerance(check: Check, row: dict, tolerances: dict) -> None:
    """A row's recorded tolerance must be the effective config's, and a
    finite number >= 0."""
    tolerance = tolerances.get(check.name)
    if row.get("tolerance") != tolerance:
        raise FormatError(
            f"check row '{check.name}' records tolerance {row.get('tolerance')!r}, but "
            f"effective_config.tolerances gives {tolerance!r}; the report was edited"
        )
    _recorded(check, "tolerance", tolerance)


def verify_artifacts(
    csv_text: str, report_text: str, overrides: dict[str, float] | None = None
) -> tuple[int, list[str]]:
    """Re-judge a (CSV, report) pair; returns (exit_code, summary lines).

    A row whose CHECKS entry names a CSV column is recomputed from it, over
    every row but the check's margin at each end; a non-finite value there
    is a format error. The other rows keep the report's residual, im_w among
    them (run takes its max over the dense grid, the CSV holds W on the
    report grid only). Each row is judged against the effective config's
    tolerance, which its recorded tolerance must equal, or against an
    override; both must be finite numbers >= 0. The pair must belong
    together (CSV digest, config hash), its rows must be the ones run
    emits, each once, its effective config must parse as a scenario, as run
    parses a config, and its CSV columns must be the ones run writes for
    that config, in order; a FormatError names the field that does not.
    """
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError as e:
        raise FormatError(f"invalid report JSON at line {e.lineno}: {e.msg}") from e
    try:
        rows = report["checks"]
        names = [str(c["name"]) for c in rows]
        prov = report["provenance"]
        recorded_digest = prov["csv_sha256"]
        recorded_hash = prov["config_hash"]
        eff = prov["effective_config"]
        tolerances = eff["tolerances"]
    except (KeyError, TypeError) as e:
        raise FormatError(f"report is missing required field: {e}") from e
    emitted = {c.name for c in CHECKS}
    if len(names) != len(set(names)) or set(names) != emitted:
        repeated = sorted({n for n in names if names.count(n) > 1})
        raise FormatError(
            "the report's check rows are not the emitted set, each once: "
            f"missing {sorted(emitted - set(names))}, unknown "
            f"{sorted(set(names) - emitted)}, repeated {repeated}"
        )
    if canonical_hash(eff) != recorded_hash:
        raise FormatError(
            "the report's effective_config does not hash to its config_hash; "
            "the report was edited"
        )
    row_of = dict(zip(names, rows))
    if isinstance(tolerances, dict):
        # Each row's own tolerance first, so an edited row is named as such;
        # tolerances that are not an object are named by the parse below.
        for check in CHECKS:
            _recorded_tolerance(check, row_of[check.name], tolerances)
    try:
        cfg = parse_scenario(json.dumps(eff))
    except ConfigError as e:
        raise FormatError(f"the report's effective_config is not a valid scenario: {e}") from e

    digest = hashlib.sha256(csv_text.encode()).hexdigest()
    if digest != recorded_digest:
        raise FormatError(
            "CSV does not match the report (digest mismatch); "
            "these artifacts are not a pair"
        )
    cols = _parse_csv(csv_text)
    header, columns = csv_text.split(CSV_EOL, 1)[0].split(","), _csv_header(cfg.quantum_numbers)
    missing = set(columns) - set(header)
    if missing:
        raise FormatError(f"CSV is missing columns: {sorted(missing)}")
    if header != columns:
        j, got, want = next((j, a, b) for j, (a, b) in
                            enumerate(itertools.zip_longest(header, columns)) if a != b)
        where = f"column {want!r}" if want is not None else "no column"
        raise FormatError(f"CSV column {j + 1} is {got!r}, where run writes {where}")
    expected_rows = round(cfg.t_max / cfg.dt) + 1
    n_rows = len(cols["t"])
    if n_rows != expected_rows:
        raise FormatError(
            f"CSV has {n_rows} data rows but the config implies {expected_rows}"
        )
    for name in overrides or {}:
        if name not in emitted:
            raise FormatError(f"unknown check name in tolerance override: {name}")
    overrides = tolerance_overrides((overrides or {}).items())

    lines = []
    ok = True
    for check in CHECKS:
        row, tolerance = row_of[check.name], cfg.tolerances[check.name]
        if check.column is None:
            residual = _recorded(check, "max_residual", row.get("max_residual"))
        else:
            try:
                residual, _ = _worst(check, cols[check.column], cols["t"])
            except DomainError as e:
                raise FormatError(f"series.csv column {check.column}: {e}") from e
        passed, line = _verdict(check.name, residual, overrides.get(check.name, tolerance))
        ok = ok and passed
        lines.append(line)
    return (0 if ok else 1), lines
