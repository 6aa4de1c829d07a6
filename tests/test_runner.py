import ast
import gc
import hashlib
import importlib
import inspect
import json
import pathlib
import re
import sys
import time
import weakref
from collections import Counter

import numpy as np
import pytest

from phinv import (
    DomainError,
    FormatError,
    GaussianShape,
    GuardError,
    MetricState,
    PositionGrid,
    TruncationWarning,
    assemble_solution,
    demo_scenarios,
    dyson_residual,
    integrate_metric,
    invariant_residual,
    orthonormality_matrix,
    parse_scenario,
    propagate,
    run_scenario,
    schrodinger_residual,
    verify_artifacts,
)
import phinv.metric
import phinv.model
import phinv.position
import phinv.propagator
import phinv.runner
from phinv._version import __version__
from phinv.runner import CSV_EOL, _parse_csv
from phinv.scenario import CHECKS
from support import per_time_metric_meters, reference_parse_csv
from test_golden import CHECK_DRIVES

ROOT = pathlib.Path(__file__).resolve().parent.parent

CHECK_NAMES = [
    "schrodinger", "invariant", "dyson", "eta_norm_drift", "im_w",
    "rayleigh", "hermitian_image", "constraint", "eta_positivity",
    "tail_support", "gram", "canonical", "cross_representation",
    "oracle_overlap", "oracle_vector", "oracle_eta_drift", "hermitian_side",
]


def scenario(doc: dict):
    return parse_scenario(json.dumps(doc))


def test_demo_runs_pass_every_check(harmonic_run, td_run):
    for run in (harmonic_run, td_run):
        assert run.passed
        assert [c["name"] for c in run.report["checks"]] == CHECK_NAMES
        for c in run.report["checks"]:
            assert set(c) == {"name", "max_residual", "tolerance", "passed", "worst_time"}
            assert c["passed"]
            assert c["max_residual"] <= c["tolerance"]


def test_summary_lines(td_run):
    assert len(td_run.summary_lines) == len(CHECK_NAMES)
    for line, name in zip(td_run.summary_lines, CHECK_NAMES):
        assert line.startswith(f"PASS {name}: max=")
        assert "tol=" in line


def test_harmonic_csv_ground_phase(harmonic_run):
    cols = _parse_csv(harmonic_run.csv_text)
    assert np.max(np.abs(cols["gamma_0"] + 0.5 * cols["t"])) <= 1e-9
    assert np.max(np.abs(cols["W_re"] + 1.0)) <= 1e-12
    assert np.max(np.abs(cols["W_im"])) <= 1e-14


def test_csv_shape_and_formatting(td_run):
    text = td_run.csv_text
    assert text.endswith(CSV_EOL)
    rows = text.split(CSV_EOL)
    assert rows[-1] == ""
    body = rows[:-1]
    assert len(body) == 1 + 5001
    header = body[0].split(",")
    assert header[:4] == ["t", "Phi", "vtheta0", "chi"]
    assert "gamma_0" in header and "gamma_1" in header
    cell = body[1].split(",")[1]
    mantissa, exponent = cell.split("e")
    assert len(mantissa.lstrip("-").split(".")[1]) == 16
    assert exponent[0] in "+-"


def test_csv_boundary_residuals_are_nan(td_run):
    cols = _parse_csv(td_run.csv_text)
    for name, margin in (
        ("schrodinger_residual", 2), ("invariant_residual", 4), ("dyson_residual", 4)
    ):
        col = cols[name]
        assert np.all(np.isnan(col[:margin]))
        assert np.all(np.isnan(col[-margin:]))
        assert np.all(np.isfinite(col[margin:-margin]))


def test_report_structure_and_provenance(td_run):
    report = json.loads(td_run.report_text)
    assert report["overall_pass"] is True
    prov = report["provenance"]
    assert prov["config_hash"] == td_run.config.config_hash()
    assert prov["csv_sha256"] == hashlib.sha256(td_run.csv_text.encode()).hexdigest()
    assert prov["version"] == __version__
    assert scenario(prov["effective_config"]) == td_run.config
    diag = report["diagnostics"]
    assert diag["mode"] == "generator"
    assert diag["report_times"] == 5001
    assert diag["rk4_halving_ratio"] >= 12.0
    assert 3.5 <= diag["rk4_order_estimate"] <= 4.5
    assert diag["shape_regime"]["width_coeff_min"] > 0


def test_verify_round_trip(td_run):
    code, lines = verify_artifacts(td_run.csv_text, td_run.report_text)
    assert code == 0
    assert len(lines) == len(CHECK_NAMES)
    assert all(line.startswith("PASS ") for line in lines)


def test_verify_rejects_mismatched_pair(td_run, harmonic_run):
    with pytest.raises(FormatError, match="digest mismatch"):
        verify_artifacts(harmonic_run.csv_text, td_run.report_text)
    with pytest.raises(FormatError, match="digest mismatch"):
        verify_artifacts(td_run.csv_text + " ", td_run.report_text)


def tamper(run, mutate):
    """Apply `mutate` to the CSV rows, then re-pair the report digest."""
    rows = run.csv_text.split(CSV_EOL)
    mutate(rows)
    csv_text = CSV_EOL.join(rows)
    report = json.loads(run.report_text)
    report["provenance"]["csv_sha256"] = hashlib.sha256(csv_text.encode()).hexdigest()
    return csv_text, json.dumps(report)


def test_verify_recomputes_from_csv(td_run):
    header = td_run.csv_text.split(CSV_EOL)[0].split(",")
    j = header.index("tail_support")

    def inflate_tail(rows):
        cells = rows[100].split(",")
        cells[j] = "%.16e" % 1.0
        rows[100] = ",".join(cells)

    csv_text, report_text = tamper(td_run, inflate_tail)
    code, lines = verify_artifacts(csv_text, report_text)
    assert code == 1
    assert any(line.startswith("FAIL tail_support") for line in lines)


@pytest.mark.parametrize(
    "column, row, says",
    [
        ("dyson_residual", 5, "column dyson_residual: t=0.004: check 'dyson' residual is nan"),
        ("schrodinger_residual", 4998, "t=4.997: check 'schrodinger' residual is nan"),
        ("eta_norm", 1, "column eta_norm: t=0: check 'eta_norm_drift' residual is nan"),
        ("tail_support", 3000, "column tail_support: t=2.999: check 'tail_support' residual is inf"),
    ],
)
def test_verify_rejects_a_non_finite_value_where_a_check_applies(td_run, column, row, says):
    # rows[row] is CSV line row + 1; the margin rows (nan by design) are
    # the only ones verify skips.
    j = td_run.csv_text.split(CSV_EOL)[0].split(",").index(column)

    def poison(rows):
        cells = rows[row].split(",")
        cells[j] = "inf" if column == "tail_support" else "nan"
        rows[row] = ",".join(cells)

    csv_text, report_text = tamper(td_run, poison)
    with pytest.raises(FormatError, match=says):
        verify_artifacts(csv_text, report_text)


def test_verify_rejects_truncated_csv(td_run):
    def drop_rows(rows):
        del rows[-11:-1]

    csv_text, report_text = tamper(td_run, drop_rows)
    with pytest.raises(FormatError, match="data rows but the config implies"):
        verify_artifacts(csv_text, report_text)


def test_verify_rejects_malformed_cells(td_run):
    def corrupt_cell(rows):
        cells = rows[5].split(",")
        cells[2] = "not-a-number"
        rows[5] = ",".join(cells)

    csv_text, report_text = tamper(td_run, corrupt_cell)
    with pytest.raises(FormatError, match="row 6"):
        verify_artifacts(csv_text, report_text)

    def rename_column(rows):
        rows[0] = rows[0].replace("Phi", "Phee", 1)

    csv_text, report_text = tamper(td_run, rename_column)
    with pytest.raises(FormatError, match="missing columns"):
        verify_artifacts(csv_text, report_text)

    def widen_row(rows):
        rows[7] = rows[7] + ",0.0"

    csv_text, report_text = tamper(td_run, widen_row)
    with pytest.raises(FormatError, match="row 8"):
        verify_artifacts(csv_text, report_text)


def _swap_gamma_names(rows):
    rows[0] = rows[0].replace("gamma_0", "gamma_x").replace("gamma_1", "gamma_0")
    rows[0] = rows[0].replace("gamma_x", "gamma_1")


def _append_a_column(rows):
    rows[:-1] = [rows[0] + ",bogus"] + [row + ",0.0" for row in rows[1:-1]]


def _swap_phi_and_vtheta0(rows):
    for k, row in enumerate(rows[:-1]):
        cells = row.split(",")
        cells[1], cells[2] = cells[2], cells[1]
        rows[k] = ",".join(cells)


@pytest.mark.parametrize(
    "mutate, says",
    [
        (_swap_gamma_names, "CSV column 13 is 'gamma_1', where run writes column 'gamma_0'"),
        (_append_a_column, "CSV column 20 is 'bogus', where run writes no column"),
        (_swap_phi_and_vtheta0, "CSV column 2 is 'vtheta0', where run writes column 'Phi'"),
    ],
    ids=["swapped-names", "extra-column", "reordered"],
)
def test_verify_requires_the_columns_run_writes(td_run, mutate, says):
    """The CSV header must be the fixed columns, one gamma_n per tracked
    level in ascending order, then the trailing columns, as run writes it
    for the report's effective config; the first column that differs is
    named, even where every column verify recomputes is still in place."""
    csv_text, report_text = tamper(td_run, mutate)
    with pytest.raises(FormatError, match=f"^{re.escape(says)}$"):
        verify_artifacts(csv_text, report_text)


@pytest.fixture(scope="module")
def short_runs():
    """Both demos and the two golden check drives, run to t_max = 0.1."""
    docs = {**demo_scenarios(), **CHECK_DRIVES}
    return {name: run_scenario(scenario(dict(doc, t_max=0.1))) for name, doc in docs.items()}


def assert_same_columns(got: dict, want: dict) -> None:
    """Equal bit for bit: values, NaN positions and the sign of zero."""
    assert list(got) == list(want)
    for name in want:
        assert got[name].dtype == np.float64
        assert np.array_equal(got[name].view(np.uint64), want[name].view(np.uint64)), name


@pytest.mark.parametrize("name", ["demo_td", "demo_harmonic", *sorted(CHECK_DRIVES)])
def test_parse_csv_reads_what_float_reads(short_runs, name):
    csv_text = short_runs[name].csv_text
    assert_same_columns(_parse_csv(csv_text), reference_parse_csv(csv_text))

    spellings = ["-0.0", "+0", " nan", "-NaN ", "INF", " -Infinity ", "1e-320",
                 "4.9e-324", "1.7976931348623157e308", "1e309", ".5", "5.", "0.1E1"]
    rows = csv_text.split(CSV_EOL)
    cells = rows[3].split(",")
    cells[: len(spellings)] = spellings
    rows[3] = ",".join(cells)
    csv_text = CSV_EOL.join(rows)
    assert_same_columns(_parse_csv(csv_text), reference_parse_csv(csv_text))


def _with_cell(value):
    def spoil(line):
        cells = line.split(",")
        cells[3] = value
        return ",".join(cells)
    return spoil


@pytest.mark.parametrize(
    "spoil",
    [
        _with_cell("1.0#x"),
        _with_cell("1_0"),
        _with_cell("\u0661"),
        _with_cell(""),
        lambda line: " \t ",
        lambda line: line.rsplit(",", 1)[0],
        lambda line: line + ",0.0",
    ],
    ids=["hash", "underscore", "non-ascii-digit", "empty-cell", "blank-line",
         "short-row", "long-row"],
)
def test_a_malformed_line_is_named(short_runs, spoil):
    rows = short_runs["demo_td"].csv_text.split(CSV_EOL)
    rows[6] = spoil(rows[6])  # CSV line 7
    with pytest.raises(FormatError, match=r"^CSV row 7[ :]"):
        _parse_csv(CSV_EOL.join(rows))


@pytest.mark.parametrize("at, blanks", [(50, 1), (50, 2), (1, 1), (-1, 1)],
                         ids=["one", "two", "after-header", "at-end"])
def test_verify_rejects_a_blank_line(short_runs, at, blanks):
    # Only the empty string after the final CSV_EOL is not a line; rows[i]
    # is CSV line i + 1.
    line = range(short_runs["demo_td"].csv_text.count(CSV_EOL) + 1)[at] + 1

    def insert_blanks(rows):
        rows[at:at] = [""] * blanks

    csv_text, report_text = tamper(short_runs["demo_td"], insert_blanks)
    with pytest.raises(FormatError, match=rf"^CSV row {line} has 1 cells"):
        verify_artifacts(csv_text, report_text)


def test_verify_tolerance_overrides(td_run):
    with pytest.raises(FormatError, match="unknown check name"):
        verify_artifacts(td_run.csv_text, td_run.report_text, {"frobulation": 1e-3})
    code, lines = verify_artifacts(
        td_run.csv_text, td_run.report_text, {"schrodinger": 1e-30}
    )
    assert code == 1
    assert any(line.startswith("FAIL schrodinger") for line in lines)


def test_report_json_has_no_nan(td_run, harmonic_run):
    # worst_time may be null, but no bare NaN tokens are allowed
    for run in (td_run, harmonic_run):
        json.loads(run.report_text, parse_constant=lambda s: pytest.fail(s))


def test_inconsistent_check_mode_run_fails():
    # alpha and beta off the constrained values by 0.01-0.02 around the
    # harmonic point: the closed-form solution no longer solves anything,
    # and every dynamical meter must say so
    cfg = scenario({
        "mode": "check",
        "t_max": 0.5,
        "initial_metric": {"phi_cap": 0.0, "vtheta_zero": 1.0},
        "profiles": {
            "re_omega": {"kind": "constant", "value": 1.0},
            "im_omega": {"kind": "constant", "value": 0.0},
            "re_alpha": {"kind": "constant", "value": 0.01},
            "im_alpha": {"kind": "constant", "value": 0.02},
            "re_beta": {"kind": "constant", "value": 0.01},
            "im_beta": {"kind": "constant", "value": 0.0},
        },
    })
    result = run_scenario(cfg)
    assert not result.passed
    failed = {c["name"] for c in result.report["checks"] if not c["passed"]}
    assert {"schrodinger", "invariant", "dyson", "constraint"} <= failed
    assert any(line.startswith("FAIL constraint") for line in result.summary_lines)


def test_guard_aborts_near_constraint_singularity():
    cfg = scenario({
        "initial_metric": {"phi_cap": 0.5, "vtheta_zero": 1.0},
        "profiles": {
            "re_omega": {"kind": "constant", "value": 1.0},
            "im_omega": {
                "kind": "sinusoid",
                "offset": 0.0, "amplitude": 0.2, "frequency": 1.0, "phase": 0.0,
            },
            "im_beta": {"kind": "constant", "value": 0.05},
        },
    })
    with pytest.raises(GuardError) as info:
        run_scenario(cfg)
    assert info.value.guard == "constraint-denominator"
    assert abs(info.value.time - 1.483375) <= 0.01


def test_guard_aborts_on_tail_support():
    cfg = scenario({
        "dim": 8,
        "t_max": 0.1,
        "dt": 0.01,
        "initial_metric": {"phi_cap": 0.45, "vtheta_zero": 1.0},
        "profiles": {
            "re_omega": {"kind": "constant", "value": 1.0},
            "im_omega": {"kind": "constant", "value": 0.0},
            "im_beta": {"kind": "constant", "value": 0.0},
        },
        "quantum_numbers": [2],
        "superposition": [[1.0, 0.0]],
    })
    with pytest.warns(TruncationWarning), pytest.raises(GuardError) as info:
        run_scenario(cfg)
    assert info.value.guard == "tail-support"


def test_a_run_the_tail_guard_stops_counts_the_states_it_assembled(monkeypatch):
    """Tail weights of 0, 1e-7, 2e-7, ... trip the 1e-6 tail-support guard
    at the twelfth of demo_td's 101 report times. The one warning counts
    the report times over 1e-8 among the twelve states assembled, not among
    all 101."""
    weights = iter(np.arange(101) * 1e-7)
    monkeypatch.setattr(phinv.runner, "tail_support", lambda state: next(weights))
    cfg = scenario(dict(demo_scenarios()["demo_td"], dim=16, t_max=0.1))
    says = ("assembled states hold more than 1e-08 of their weight in the top levels "
            "at 11 of the first 12 report times, at most 1.100e-06 at t=0.011")
    with pytest.warns(TruncationWarning, match=f"^{re.escape(says)}$") as caught:
        with pytest.raises(GuardError) as info:
            run_scenario(cfg)
    assert len(caught) == 1
    assert info.value.guard == "tail-support" and info.value.time == pytest.approx(0.011)


def test_collapsed_falloff_stops_before_the_meters(monkeypatch):
    """The steep drive's eigenfunction falloff collapses near t=1.19, so no
    Gram grid covers t=1.05 and later sample times. The run stops right after
    the metric flow, naming the first such sample time, before any state is
    assembled or any meter runs. A drive with no normalizable eigenfunction
    (Phi > 1 makes the width coefficient negative) stops there too."""

    def no_assembly(*args, **kwargs):
        raise AssertionError("assembly ran before the edge check")

    monkeypatch.setattr(phinv.runner, "assemble_solution", no_assembly)
    cfg = scenario({
        "t_max": 1.5,
        "initial_metric": {"phi_cap": 0.5, "vtheta_zero": 1.0},
        "profiles": {
            "re_omega": {"kind": "constant", "value": 1.0},
            "im_omega": {
                "kind": "sinusoid",
                "offset": 0.0, "amplitude": 0.1, "frequency": 1.0, "phase": 0.0,
            },
            "im_beta": {"kind": "constant", "value": 0.05},
        },
    })
    start = time.perf_counter()
    with pytest.raises(DomainError, match=r"^t=1\.05: grid edge amplitude "):
        run_scenario(cfg)
    assert time.perf_counter() - start < 30.0

    cfg = scenario({
        "t_max": 0.5,
        "initial_metric": {"phi_cap": 1.2, "vtheta_zero": 1.0},
        "profiles": {
            "re_omega": {"kind": "constant", "value": 1.0},
            "im_omega": {"kind": "constant", "value": 0.0},
            "im_beta": {"kind": "constant", "value": 0.0},
        },
    })
    with pytest.raises(DomainError, match=r"^t=0: width coefficient .* is not positive"):
        run_scenario(cfg)


def test_the_canonical_check_runs_once_before_any_metric_is_built(monkeypatch):
    """canonical_agreement reads no metric cache, so the run calls it once,
    on the eleven spot states, before the window passes fill the caches."""
    events = []

    def recording(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                events.append((name, args))
                return fn(*args, **kwargs)
            return wrapper
        return make

    for builder in ("build_rho", "build_rho_inverse", "build_eta"):
        _patch_everywhere(monkeypatch, phinv.metric, builder, recording("build"))
    _patch_everywhere(monkeypatch, phinv.position, "canonical_agreement", recording("canonical"))
    cfg = scenario(dict(demo_scenarios()["demo_td"], dim=32, t_max=0.05))
    run_scenario(cfg)
    names = [name for name, _ in events]
    assert names.count("canonical") == 1 and "build" in names
    assert names.index("canonical") < names.index("build")
    (states, dim), = [args for name, args in events if name == "canonical"]
    traj = integrate_metric(MetricState(cfg.phi0, cfg.vtheta0), cfg.profiles, cfg.t_max, cfg.dt)
    assert dim == 32 and states == [traj.state_at(i) for i in range(0, 51, 5)]


@pytest.mark.parametrize("dim, size", [(16, 73), (64, 18), (192, 6)], ids=["16", "64", "192"])
def test_the_run_assembles_a_window_of_report_times_per_call(dim, size, monkeypatch):
    """run_scenario calls assemble_solution once per window of report times,
    in order over the whole grid, each window as many times as keep their
    rho^-1 columns (dim x 7 float64 for a top level of 1) within 64 KB."""
    calls = []

    def recording(traj, t_index, d):
        calls.append(np.array(t_index))
        return assemble_solution(traj, t_index, d)

    monkeypatch.setattr(phinv.runner, "assemble_solution", recording)
    cfg = scenario(dict(demo_scenarios()["demo_td"], dim=dim, t_max=0.05))
    run_scenario(cfg)
    assert [c.tolist() for c in calls] == [
        list(range(lo, min(lo + size, 51))) for lo in range(0, 51, size)
    ]


def _patch_everywhere(monkeypatch, home, name: str, make_wrapper) -> None:
    """Replace home.name in every phinv namespace that holds it, since
    modules bind the names they import when they load."""
    original = getattr(home, name)
    wrapped = make_wrapper(original)
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "phinv" or mod_name.startswith("phinv.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, wrapped)


def _count_calls(monkeypatch, cfg) -> Counter:
    """The five call counts perfbench checks exactly, over run_scenario(cfg)
    from empty metric caches: metric builder calls, ladder_exp calls (the
    caches' misses call it through the module global), RK4 steps over every
    propagate call, H(t) evaluations of both RK4 sources, and position-grid
    points over every Gram matrix."""
    counts = Counter()

    def counting(key, bump=lambda args, kwargs: 1):
        def make(fn):
            def wrapper(*args, **kwargs):
                counts[key] += bump(args, kwargs)
                return fn(*args, **kwargs)
            return wrapper
        return make

    def rk4_steps(args, kwargs):
        b = inspect.signature(propagate).bind(*args, **kwargs)
        b.apply_defaults()
        return (len(b.arguments["times"]) - 1) * b.arguments["substeps"]

    def grid_points(args, kwargs):
        b = inspect.signature(orthonormality_matrix).bind(*args, **kwargs)
        return len(b.arguments["grid"].points)

    def counted_source(fn):
        def source(*args, **kwargs):
            return counting("h_evals")(fn(*args, **kwargs))
        return source

    for name in ("build_rho", "build_rho_inverse", "build_eta"):
        _patch_everywhere(monkeypatch, phinv.metric, name, counting("build_calls"))
    _patch_everywhere(monkeypatch, phinv.metric, "ladder_exp", counting("ladder_exp_calls"))
    _patch_everywhere(monkeypatch, phinv.propagator, "propagate", counting("rk4_steps", rk4_steps))
    for name in ("hamiltonian_source", "transformed_generator_source"):
        _patch_everywhere(monkeypatch, phinv.propagator, name, counted_source)
    _patch_everywhere(
        monkeypatch, phinv.position, "orthonormality_matrix", counting("grid_points", grid_points)
    )
    for cache in (phinv.metric._rho_cached, phinv.metric._rho_inv_cached):
        cache.cache_clear()
    run_scenario(cfg)
    return counts


@pytest.mark.parametrize("dim", [16, 17])
def test_short_run_makes_the_pinned_ladder_exp_calls(dim, monkeypatch):
    """The metric caches miss, and call ladder_exp through the module
    global, exactly as often as before the parity-sector builders: 404
    times for demo_td to t_max 0.1 from empty caches. The other counters
    perfbench checks exactly are pinned with it."""
    cfg = scenario(dict(demo_scenarios()["demo_td"], dim=dim, t_max=0.1))
    assert _count_calls(monkeypatch, cfg) == {
        "build_calls": 1426,
        "ladder_exp_calls": 404,
        "rk4_steps": 1656,
        "h_evals": 6624,
        "grid_points": 22011,
    }


@pytest.mark.parametrize("dim", [17, 64])
def test_windowed_metric_meters_give_the_per_time_values(dim):
    """The eta_norm and dyson_residual columns and the rayleigh and
    hermitian_image rows of a run equal the one-report-time-at-a-time
    arithmetic, bit for bit, over several windows and a partial last one
    (101 report times in windows of 32 at dim 17 and of 16 at dim 64)."""
    cfg = scenario(dict(demo_scenarios()["demo_td"], dim=dim, t_max=0.1))
    result = run_scenario(cfg)
    traj = integrate_metric(
        MetricState(cfg.phi0, cfg.vtheta0), cfg.profiles, cfg.t_max, cfg.dt,
        superposition=dict(zip(cfg.quantum_numbers, cfg.superposition)),
    )
    states = np.array([assemble_solution(traj, i, dim) for i in range(traj.n_times)])
    want = per_time_metric_meters(traj, states, dim)
    cols = _parse_csv(result.csv_text)
    assert np.array_equal(cols["eta_norm"], want["eta_norm"])
    assert np.array_equal(cols["dyson_residual"], want["dyson"], equal_nan=True)
    rows = {c["name"]: c for c in result.report["checks"]}
    for name, series in (("rayleigh", want["rayleigh"]), ("hermitian_image", want["image"])):
        j = int(np.argmax(series))
        assert (rows[name]["max_residual"], rows[name]["worst_time"]) == (series[j], traj.times[j])


def test_a_run_past_the_cache_size_makes_the_pinned_calls(monkeypatch):
    """demo_td at dim 16 to t_max 0.3 has 301 report times, more than the
    256 entries of the rho and rho^-1 caches. The meters that build the
    metric run window by window, so each window's states are built once
    there, and the later sweeps over the grid (oracle eta-norms,
    Hermitian-side rho) miss as they did with one report time at a time. A
    runner that swept each meter over the whole grid would rebuild evicted
    states and make more ladder_exp calls."""
    cfg = scenario(dict(demo_scenarios()["demo_td"], dim=16, t_max=0.3))
    assert _count_calls(monkeypatch, cfg) == {
        "build_calls": 4226,
        "ladder_exp_calls": 3000,
        "rk4_steps": 4968,
        "h_evals": 19872,
        "grid_points": 22011,
    }


def test_a_run_tracking_the_highest_accepted_level_passes_every_row():
    """demo_td at dim 192 tracking levels [0, 48], the highest the scenario
    accepts there (dim / 4), with the demo's weights, to t_max 0.02. There
    |rho^{-1}|48>| is about 2e4, so its eta-norm formed as v^T eta v, with
    eta's condition number the square of rho's, is lost to rounding: that
    route read eta_norm_drift 23.7 and oracle_overlap 3.4e-2. Through rho,
    |rho v|^2 = 1 is resolved, and every row passes."""
    doc = dict(demo_scenarios()["demo_td"], dim=192, t_max=0.02, quantum_numbers=[0, 48])
    result = run_scenario(scenario(doc))
    assert [c["name"] for c in result.report["checks"] if not c["passed"]] == []
    rows = {c["name"]: c["max_residual"] for c in result.report["checks"]}
    assert rows["eta_norm_drift"] <= 1e-7 and rows["oracle_eta_drift"] <= 1e-7


def test_a_w_off_by_one_part_in_a_million_fails_only_the_dyson_row(monkeypatch):
    """demo_td to t_max 0.2, and at dim 192 (where the metric meters take
    one report time per window) to 0.05, with W scaled by 1 + 1e-6 where
    the flow forms it: the dyson meter reads that error, about 1e-6,
    against its default tolerance of 1e-10, 100 times the row's measured
    floors (at most 8.1e-13), and every other row passes, as on the clean
    run."""
    exact = phinv.model.transformed_frequency
    for doc in (dict(demo_scenarios()["demo_td"], t_max=0.2),
                dict(demo_scenarios()["demo_td"], dim=192, t_max=0.05)):
        monkeypatch.setattr(phinv.model, "transformed_frequency", exact)
        clean = run_scenario(scenario(doc))
        assert clean.passed
        monkeypatch.setattr(phinv.model, "transformed_frequency",
                            lambda *args: (1 + 1e-6) * exact(*args))
        result = run_scenario(scenario(doc))
        assert [c["name"] for c in result.report["checks"] if not c["passed"]] == ["dyson"]
        (row,) = [c for c in result.report["checks"] if c["name"] == "dyson"]
        assert row["tolerance"] == 1e-10
        assert 0.9e-6 <= row["max_residual"] <= 1.1e-6


@pytest.mark.parametrize(
    "levels, superposition, columns",
    [([0, 1], None, 4), ([0, 48], [[1.0, 0.0], [1.0, 0.0]], 25)],
    ids=["top-1", "top-48"],
)
def test_a_run_keeps_the_rho_inverse_columns_it_reads(levels, superposition, columns,
                                                      monkeypatch):
    """The rho^-1 cache keeps the columns of the run's top tracked level
    and of the meters' levels n <= 6: demo_td at dim 192 to t_max 0.02
    (top 1) keeps 7 columns, 4 of each 96-level parity block, and a run that
    tracks level dim/4 = 48 keeps 49, 25 of each block. Every read in a run
    asks for the same columns, so the cache holds one entry per state (21
    report times). Column top is, bit for bit, that column of the product
    of the inverse's outer factor with the kept columns of the inner ones."""
    doc = dict(demo_scenarios()["demo_td"], dim=192, t_max=0.02, quantum_numbers=levels)
    if superposition:
        doc["superposition"] = superposition
    cfg = scenario(doc)
    cached = phinv.metric._rho_inv_cached
    cached.cache_clear()
    handed = []

    def recording(*args):
        entry = cached(*args)
        handed.append(weakref.ref(entry))
        return entry

    monkeypatch.setattr(phinv.metric, "_rho_inv_cached", recording)
    run_scenario(cfg)
    gc.collect()
    held = {id(e): e for e in (ref() for ref in handed) if e is not None}
    assert len(held) == cached.cache_info().currsize == 21
    assert {e.shape for e in held.values()} == {(2, 96, columns)}

    top = max(levels)
    g = integrate_metric(
        MetricState(cfg.phi0, cfg.vtheta0), cfg.profiles, cfg.t_max, cfg.dt,
        superposition=dict(zip(cfg.quantum_numbers, cfg.superposition)),
    ).state_at(20)
    e_minus = phinv.metric.ladder_exp(-g.vtheta_minus, 192, raising=False).blocks
    e_plus = phinv.metric.ladder_exp(-g.vtheta_plus, 192, raising=True).blocks
    mid = phinv.metric._k0_power(1.0 / g.vtheta_zero, 192)
    kept = np.matmul(e_minus, mid[:, :, None] * e_plus[..., :columns])
    got = phinv.metric.build_rho_inverse(g, 192, top)
    assert got.shape == (192, 2 * columns - 1)
    assert np.array_equal(got[top % 2 :: 2, top], kept[top % 2, :, top // 2])
    assert not got[1 - top % 2 :: 2, top].any()


def _readme_check_table() -> list[tuple[str, float]]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Checks and default tolerances\n", 1)[1]
    table = next(block for block in section.split("\n\n") if block.startswith("| check |"))
    rows = [line.split("|") for line in table.splitlines()[2:]]
    return [(cells[1].strip(" `"), float(cells[-2].strip(" `"))) for cells in rows]


def test_the_checks_table_is_the_one_list_of_rows():
    """scenario.CHECKS against its outside copies: this file's CHECK_NAMES,
    README's table and the benchmark gate's EMITTED_CHECKS (read from the
    file's syntax tree, so the test imports nothing of the benchmark)."""
    assert [c.name for c in CHECKS] == CHECK_NAMES
    assert _readme_check_table() == [(c.name, c.tolerance) for c in CHECKS]
    tree = ast.parse((ROOT / "perfbench" / "check.py").read_text(encoding="utf-8"))
    (emitted,) = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "EMITTED_CHECKS"
    ]
    assert list(emitted) == CHECK_NAMES
    assert {c.column for c in CHECKS if c.column} <= set(phinv.runner.TRAILING_COLUMNS)


def _tracer_targets() -> tuple[list[tuple[str, str]], set[str]]:
    """The (module, function) pairs perfbench/tracer.py patches (SPANS' keys,
    PROPAGATE and SOURCES) and the argument names its hooks bind, read from
    the file's syntax tree."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8"))
    tables = {
        node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign)
        and getattr(node.targets[0], "id", None) in ("SPANS", "PROPAGATE", "SOURCES")
    }
    (hook,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == "_hook"]
    bound = {
        n.slice.value for n in ast.walk(hook)
        if isinstance(n, ast.Subscript) and isinstance(n.slice, ast.Constant)
        and getattr(n.value, "id", None) != "counts"
    }
    return [*tables["SPANS"], tables["PROPAGATE"], *tables["SOURCES"]], bound


def test_every_function_the_tracer_patches_exists_with_the_arguments_it_binds():
    """The benchmark's tracer finds phinv's functions by name and reads their
    arguments by name; a rename would otherwise show only as a failed traced
    benchmark repetition."""
    targets, bound = _tracer_targets()
    missing = [
        f"{module}.{name}" for module, name in targets
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []
    assert bound == {"g", "dim", "grid", "times", "substeps"}
    s = MetricState(0.2, 1.0)
    builders = [name for module, name in targets if module == "phinv.metric" and name.startswith("build_")]
    assert sorted(builders) == ["build_eta", "build_rho", "build_rho_inverse"]
    for name in builders:
        args = inspect.signature(getattr(phinv.metric, name)).bind(s, 8).arguments
        assert (args["g"].vtheta_plus, args["g"].vtheta_zero, args["g"].vtheta_minus, args["dim"]) == (
            -0.2, 1.0, -0.2, 8,
        )
    grid = PositionGrid.for_shape(GaussianShape.from_state(s))
    args = inspect.signature(phinv.position.orthonormality_matrix).bind(2, s, grid).arguments
    assert len(args["grid"].points) == len(grid.points)
    call = inspect.signature(phinv.propagator.propagate).bind(None, None, np.zeros(3))
    call.apply_defaults()
    assert {"times", "substeps"} <= set(call.arguments)


def test_each_check_margin_is_where_its_meter_stops_applying(gentle_traj, gentle_states):
    meters = {
        "schrodinger": lambda i: schrodinger_residual(gentle_traj, gentle_states, i, 64),
        "invariant": lambda i: invariant_residual(gentle_traj, i, 64),
        "dyson": lambda i: dyson_residual(gentle_traj, i, 64),
    }
    assert {c.name for c in CHECKS if c.margin} == set(meters)
    last = gentle_traj.n_times - 1
    for check in CHECKS:
        if check.name not in meters:
            continue
        m = check.margin
        for inside in (m, last - m):
            assert np.isfinite(meters[check.name](inside)), check.name
        for outside in (m - 1, last - m + 1):
            with pytest.raises(DomainError, match=rf"time index {outside} needs \+-{m} grid points"):
                meters[check.name](outside)
