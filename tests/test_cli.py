import copy
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys
import tomllib

import numpy as np
import pytest

from phinv import parse_scenario
from phinv._version import __version__
from phinv.cli import main
from phinv.scenario import canonical_hash

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

SHORT_GENTLE = {
    "dim": 64,
    "t_max": 1.0,
    "dt": 1e-3,
    "initial_metric": {"phi_cap": 0.2, "vtheta_zero": 1.0},
    "profiles": {
        "re_omega": {"kind": "constant", "value": 1.0},
        "im_omega": {
            "kind": "sinusoid",
            "offset": 0.0, "amplitude": 0.1, "frequency": 1.0, "phase": 0.0,
        },
        "im_beta": {"kind": "constant", "value": -0.02},
    },
    "quantum_numbers": [0, 1],
    "superposition": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
}


@pytest.fixture(scope="session")
def artifact_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    config = out / "config.json"
    config.write_text(json.dumps(SHORT_GENTLE))
    rc = main(["run", "--config", str(config), "--out", str(out), "--quiet"])
    assert rc == 0
    return out


def test_run_writes_artifact_pair(artifact_dir):
    csv_path = artifact_dir / "series.csv"
    report_path = artifact_dir / "report.json"
    assert csv_path.exists() and report_path.exists()
    raw = csv_path.read_bytes()
    assert raw.count(b"\r\n") == 1 + 1001
    report = json.loads(report_path.read_text())
    assert report["overall_pass"] is True


def test_verify_round_trip(artifact_dir, capsys):
    rc = main(["verify", "--out", str(artifact_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.count("PASS ") == 17
    rc = main(["verify", "--out", str(artifact_dir), "--quiet"])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_verify_tightened_tolerance_fails(artifact_dir, capsys):
    rc = main(["verify", "--out", str(artifact_dir), "--tolerance", "schrodinger=1e-30"])
    assert rc == 1
    assert "FAIL schrodinger" in capsys.readouterr().out


def test_verify_unknown_tolerance_name(artifact_dir, capsys):
    rc = main(["verify", "--out", str(artifact_dir), "--tolerance", "frobulation=1"])
    assert rc == 2
    assert "unknown check name" in capsys.readouterr().err


def test_verify_tampered_artifacts(artifact_dir, tmp_path, capsys):
    tampered = tmp_path / "pair"
    tampered.mkdir()
    csv_text = (artifact_dir / "series.csv").read_bytes()
    (tampered / "series.csv").write_bytes(csv_text + b" ")
    (tampered / "report.json").write_text((artifact_dir / "report.json").read_text())
    rc = main(["verify", "--out", str(tampered)])
    assert rc == 2
    assert "digest mismatch" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("dim", 8), ("seed", 12345)])
def test_verify_rejects_an_edited_effective_config(artifact_dir, tmp_path, capsys, field, value):
    edited = tmp_path / "pair"
    edited.mkdir()
    shutil.copy(artifact_dir / "series.csv", edited / "series.csv")
    report = json.loads((artifact_dir / "report.json").read_text())
    report["provenance"]["effective_config"][field] = value
    (edited / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    rc = main(["verify", "--out", str(edited)])
    assert rc == 2
    assert "does not hash to its config_hash" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, says",
    [
        ("t_max", "0.05", "t_max: must be a number"),
        ("t_max", None, "t_max: must be a number"),
        ("dt", 0, "dt: must be positive, got 0.0"),
        ("tolerances", [1], "tolerances: must be an object"),
    ],
    ids=["t_max-string", "t_max-null", "dt-zero", "tolerances-list"],
)
def test_verify_rejects_an_effective_config_that_is_not_a_scenario(
    artifact_dir, tmp_path, capsys, field, value, says
):
    # config_hash is recomputed, so only the config itself is at fault.
    shutil.copy(artifact_dir / "series.csv", tmp_path / "series.csv")
    report = json.loads((artifact_dir / "report.json").read_text())
    eff = report["provenance"]["effective_config"]
    eff[field] = value
    report["provenance"]["config_hash"] = canonical_hash(eff)
    (tmp_path / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    assert main(["verify", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: the report's effective_config is not a valid scenario: {says}\n"


@pytest.fixture(scope="module")
def failing_td_dir(tmp_path_factory):
    """demo_td at dim 16 to t_max 0.05, run with dyson tightened to 1e-30:
    schrodinger, dyson, rayleigh and cross_representation fail."""
    from phinv import demo_scenarios

    out = tmp_path_factory.mktemp("failing")
    config = out / "config.json"
    config.write_text(json.dumps(dict(demo_scenarios()["demo_td"], dim=16, t_max=0.05)))
    rc = main(["run", "--config", str(config), "--out", str(out), "--quiet",
               "--tolerance", "dyson=1e-30"])
    assert rc == 1
    return out


FAILING_ROWS = {"schrodinger", "dyson", "rayleigh", "cross_representation"}


def _drop_failing_rows(checks):
    return [c for c in checks if c["name"] not in FAILING_ROWS]


def _repeat_a_row(checks):
    return checks + [dict(checks[-1])]


def _rename_a_failing_row(checks):
    return [dict(c, name="frobulation") if c["name"] == "dyson" else c for c in checks]


def _loosen_failing_rows(checks):
    return [
        dict(c, tolerance=10, passed=True) if c["name"] in FAILING_ROWS else c for c in checks
    ]


@pytest.mark.parametrize(
    "edit, says",
    [
        (_drop_failing_rows,
         "missing ['cross_representation', 'dyson', 'rayleigh', 'schrodinger']"),
        (_repeat_a_row, "repeated ['hermitian_side']"),
        (_rename_a_failing_row, "missing ['dyson'], unknown ['frobulation']"),
        # effective_config.tolerances.dyson still reads 1e-30
        (_loosen_failing_rows, "check row 'schrodinger' records tolerance 10, but "),
    ],
)
def test_verify_rejects_a_report_whose_check_rows_were_edited(
    failing_td_dir, tmp_path, capsys, edit, says
):
    report = json.loads((failing_td_dir / "report.json").read_text())
    assert {c["name"] for c in report["checks"] if not c["passed"]} == FAILING_ROWS
    report["checks"] = edit(report["checks"])
    report["overall_pass"] = True
    shutil.copy(failing_td_dir / "series.csv", tmp_path / "series.csv")
    (tmp_path / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    rc = main(["verify", "--out", str(tmp_path)])
    assert rc == 2
    assert says in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", None, [1], True, "0.0"])
def test_verify_rejects_a_recorded_max_residual_that_is_not_a_number(
    failing_td_dir, tmp_path, capsys, value
):
    # gram is one of the rows verify takes from the report as recorded
    report = json.loads((failing_td_dir / "report.json").read_text())
    report["checks"] = [
        dict(c, max_residual=value) if c["name"] == "gram" else c for c in report["checks"]
    ]
    shutil.copy(failing_td_dir / "series.csv", tmp_path / "series.csv")
    (tmp_path / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    assert main(["verify", "--out", str(tmp_path)]) == 2
    assert f"check row 'gram' records max_residual {value!r}" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["abc", None, [1], True, -1.0])
def test_verify_rejects_a_recorded_tolerance_that_is_not_a_number(
    failing_td_dir, tmp_path, capsys, value
):
    # The row and effective_config.tolerances agree and config_hash is
    # recomputed, so only the value itself is at fault.
    report = json.loads((failing_td_dir / "report.json").read_text())
    report["checks"] = [
        dict(c, tolerance=value) if c["name"] == "gram" else c for c in report["checks"]
    ]
    eff = report["provenance"]["effective_config"]
    eff["tolerances"]["gram"] = value
    report["provenance"]["config_hash"] = canonical_hash(eff)
    shutil.copy(failing_td_dir / "series.csv", tmp_path / "series.csv")
    (tmp_path / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    assert main(["verify", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"check row 'gram' records tolerance {value!r}, not a finite number >= 0" in err


def _nan_at(original, index):
    """original with a nan at report index `index`, for one index or an
    array of them."""
    def patched(traj, t_index, *args):
        values = original(traj, t_index, *args)
        return np.where(np.asarray(t_index) == index, math.nan, values)
    return patched


@pytest.mark.parametrize(
    "meter, patch, says",
    [
        ("dyson_residual", lambda f: _nan_at(f, 20), "t=0.02: check 'dyson' residual is nan"),
        ("canonical_agreement", lambda f: lambda states, dim: [math.nan] * len(states),
         "t=0: check 'canonical' residual is nan"),
    ],
    ids=["dyson", "canonical"],
)
def test_a_non_finite_residual_stops_run_with_exit_three(
    tmp_path, capsys, monkeypatch, meter, patch, says
):
    # demo_td at dim 32 to t_max 0.05 passes every check unpatched.
    import phinv.runner
    from phinv import demo_scenarios

    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(demo_scenarios()["demo_td"], dim=32, t_max=0.05)))
    args = ["run", "--config", str(config), "--out", str(tmp_path), "--quiet"]
    assert main(args) == 0
    (tmp_path / "report.json").unlink()
    monkeypatch.setattr(phinv.runner, meter, patch(getattr(phinv.runner, meter)))
    assert main(args) == 3
    assert f"numerical guard: {says}" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_verify_missing_artifacts(tmp_path, capsys):
    rc = main(["verify", "--out", str(tmp_path)])
    assert rc == 2
    assert "cannot read artifacts" in capsys.readouterr().err


def test_run_tightened_tolerance_exits_one(artifact_dir, tmp_path, capsys):
    config = artifact_dir / "config.json"
    rc = main([
        "run", "--config", str(config), "--out", str(tmp_path),
        "--tolerance", "schrodinger=1e-30",
    ])
    assert rc == 1
    assert "FAIL schrodinger" in capsys.readouterr().out
    assert (tmp_path / "report.json").exists()


def test_run_unknown_tolerance_name(artifact_dir, capsys):
    rc = main([
        "run", "--config", str(artifact_dir / "config.json"),
        "--tolerance", "frobulation=1e-3",
    ])
    assert rc == 2
    assert "unknown tolerance name" in capsys.readouterr().err


def test_local_error_is_a_run_threshold_not_a_check(artifact_dir, tmp_path, capsys):
    # local_error bounds the metric flow's step-doubling estimate: run takes
    # the override and aborts past it, but no check carries the name, so
    # verify rejects it
    rc = main([
        "run", "--config", str(artifact_dir / "config.json"), "--out", str(tmp_path),
        "--tolerance", "local_error=1e-30",
    ])
    assert rc == 3
    assert "guard 'local-error'" in capsys.readouterr().err
    rc = main(["verify", "--out", str(artifact_dir), "--tolerance", "local_error=1e-8"])
    assert rc == 2
    assert "unknown check name" in capsys.readouterr().err


IM_W_DRIVE = {
    "dim": 16,
    "t_max": 0.05,
    "dt": 1e-3,
    "mode": "check",
    "initial_metric": {"phi_cap": 0.2, "vtheta_zero": 1.0},
    "profiles": {
        "re_omega": {"kind": "constant", "value": 1.0},
        "im_omega": {"kind": "constant", "value": 0.0},
        "re_alpha": {"kind": "constant", "value": 0.0},
        "im_alpha": {
            "kind": "sinusoid",
            "offset": 0.0, "amplitude": 1e-3, "frequency": 1000.0, "phase": 0.3,
        },
        "re_beta": {"kind": "constant", "value": 0.0},
        "im_beta": {"kind": "constant", "value": 0.0},
    },
    "quantum_numbers": [0],
    "superposition": [[1.0, 0.0]],
}


def test_verify_judges_im_w_by_the_recorded_dense_grid_max(tmp_path, capsys):
    # Im W = -2 Phi Im alpha oscillates faster than the report grid samples
    # it: the run records its max over the dense grid, the CSV holds W only
    # on the report grid. verify must judge the recorded number, so a
    # tolerance between the two fails.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(IM_W_DRIVE))
    main(["run", "--config", str(config), "--out", str(tmp_path), "--quiet"])
    report = json.loads((tmp_path / "report.json").read_text())
    recorded = next(c["max_residual"] for c in report["checks"] if c["name"] == "im_w")
    rows = (tmp_path / "series.csv").read_text().split()
    col = rows[0].split(",").index("W_im")
    on_report_grid = max(abs(float(r.split(",")[col])) for r in rows[1:])
    assert on_report_grid < recorded
    # every other check passes, so the im_w row alone decides the exit code
    loose = [
        arg for c in report["checks"] if c["name"] != "im_w"
        for arg in ("--tolerance", f"{c['name']}=1e300")
    ]
    capsys.readouterr()
    rc = main(["verify", "--out", str(tmp_path), *loose, "--tolerance", f"im_w={recorded}"])
    assert rc == 0
    between = (on_report_grid + recorded) / 2
    rc = main(["verify", "--out", str(tmp_path), *loose, "--tolerance", f"im_w={between!r}"])
    assert rc == 1
    assert "FAIL im_w" in capsys.readouterr().out


def test_readme_python_example_runs(monkeypatch, capsys):
    # README's Python block, run as written, on a short demo_td so it is quick
    import phinv

    text = (PYPROJECT.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("```python\n", 1)[1].split("```", 1)[0]
    short = dict(phinv.demo_scenarios()["demo_td"], dim=16, t_max=0.05)
    monkeypatch.setattr(phinv, "demo_scenarios", lambda: {"demo_td": short})
    exec(compile(block, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] in ("True", "False")
    assert len(lines) == 1 + 17
    assert lines[1].startswith("schrodinger ")


def test_malformed_tolerance_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "--config", "x.json", "--tolerance", "schrodinger"])
    assert info.value.code == 2
    assert "NAME=VALUE" in capsys.readouterr().err


def test_run_missing_config(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


def test_run_non_utf8_config(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(json.dumps(SHORT_GENTLE).encode().replace(b'"dim"', b'"d\xefm"'))
    assert main(["run", "--config", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config: 'utf-8' codec can't decode byte 0xef")


@pytest.fixture
def no_run(monkeypatch):
    """Makes `phinv run` fail the test if it reaches run_scenario."""
    import phinv.cli

    def must_not_run(cfg):
        raise AssertionError("run_scenario was called")

    monkeypatch.setattr(phinv.cli, "run_scenario", must_not_run)


def test_run_negative_seed_is_a_config_error(tmp_path, capsys, no_run):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(SHORT_GENTLE, seed=-1)))
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "error: seed: must be >= 0, got -1\n"


@pytest.mark.parametrize(
    "raised, says",
    [
        (MemoryError("Unable to allocate 1.19 GiB for an array"),
         "error: out of memory: Unable to allocate 1.19 GiB for an array\n"),
        (MemoryError(), "error: out of memory\n"),
    ],
    ids=["with-message", "bare"],
)
def test_a_run_out_of_memory_is_an_input_error(tmp_path, capsys, monkeypatch, raised, says):
    import phinv.cli

    def out_of_memory(cfg):
        raise raised

    monkeypatch.setattr(phinv.cli, "run_scenario", out_of_memory)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SHORT_GENTLE))
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == says
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("command", ["run", "demo"])
def test_out_naming_a_file_is_an_input_error_before_any_work(tmp_path, capsys, no_run, command):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(SHORT_GENTLE))
    taken = tmp_path / "taken"
    taken.write_text("a file")
    args = ["run", "--config", str(config)] if command == "run" else ["demo"]
    assert main(args + ["--out", str(taken), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot create output directory: [Errno 17] File exists")
    assert taken.read_text() == "a file"


@pytest.mark.parametrize(
    "command, blocked, what",
    [
        ("run", "series.csv", "artifacts"),
        ("run", "report.json", "artifacts"),
        ("demo", "demo_td.json", "demo config"),
    ],
)
def test_an_unwritable_output_is_an_input_error(tmp_path, capsys, command, blocked, what):
    from phinv import demo_scenarios

    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(demo_scenarios()["demo_td"], dim=16, t_max=0.05)))
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    args = ["run", "--config", str(config)] if command == "run" else ["demo"]
    assert main(args + ["--out", str(out), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {what}: [Errno 21] Is a directory: ")
    assert err.rstrip().endswith(repr(str(out / blocked)))


@pytest.mark.parametrize("name", ["series.csv", "report.json"])
def test_verify_non_utf8_artifacts(artifact_dir, tmp_path, capsys, name):
    for artifact in ("series.csv", "report.json"):
        shutil.copy(artifact_dir / artifact, tmp_path / artifact)
    raw = (tmp_path / name).read_bytes()
    (tmp_path / name).write_bytes(raw[:200] + b"\xff" + raw[201:])
    assert main(["verify", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read artifacts: 'utf-8' codec can't decode byte 0xff")


def test_run_malformed_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 64,,}')
    rc = main(["run", "--config", str(bad)])
    assert rc == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_run_invalid_config_value(tmp_path, capsys):
    doc = dict(SHORT_GENTLE, dim=4)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc = main(["run", "--config", str(bad)])
    assert rc == 2
    assert "dim" in capsys.readouterr().err


def _set(doc: dict, path: str, value) -> dict:
    """A deep copy of doc with the entry at a dotted path replaced."""
    doc = copy.deepcopy(doc)
    *parents, last = path.split(".")
    node = doc
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node.setdefault(key, {})
    node[int(last) if isinstance(node, list) else last] = value
    return doc


@pytest.mark.parametrize(
    "path, value, field",
    [
        ("t_max", math.nan, "t_max"),
        ("t_max", math.inf, "t_max"),
        ("tolerances.schrodinger", math.nan, "tolerances.schrodinger"),
        ("initial_metric.phi_cap", math.nan, "initial_metric.phi_cap"),
        ("initial_metric.vtheta_zero", math.inf, "initial_metric.vtheta_zero"),
        ("profiles.re_omega.value", math.nan, "profiles.re_omega.value"),
        ("superposition.1.0", math.nan, "superposition[1]"),
    ],
)
def test_run_rejects_a_non_finite_config_number(tmp_path, capsys, path, value, field):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_set(SHORT_GENTLE, path, value)))
    rc = main(["run", "--config", str(config), "--out", str(tmp_path), "--quiet"])
    assert rc == 2
    assert f"error: {field}: must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_run_rejects_a_tolerance_override_outside_its_range(artifact_dir, tmp_path, capsys, value):
    rc = main([
        "run", "--config", str(artifact_dir / "config.json"), "--out", str(tmp_path),
        "--tolerance", f"schrodinger={value}",
    ])
    assert rc == 2
    assert "error: tolerances.schrodinger: must be" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_verify_rejects_a_tolerance_override_outside_its_range(artifact_dir, capsys, value):
    rc = main(["verify", "--out", str(artifact_dir), "--tolerance", f"dyson={value}"])
    assert rc == 2
    assert "error: tolerances.dyson: must be" in capsys.readouterr().err


def test_run_guard_abort_exits_three(tmp_path, capsys):
    doc = {
        "initial_metric": {"phi_cap": 0.5, "vtheta_zero": 1.0},
        "profiles": {
            "re_omega": {"kind": "constant", "value": 1.0},
            "im_omega": {
                "kind": "sinusoid",
                "offset": 0.0, "amplitude": 0.2, "frequency": 1.0, "phase": 0.0,
            },
            "im_beta": {"kind": "constant", "value": 0.05},
        },
    }
    config = tmp_path / "abort.json"
    config.write_text(json.dumps(doc))
    rc = main(["run", "--config", str(config), "--out", str(tmp_path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical guard" in err
    assert "constraint-denominator" in err
    assert not (tmp_path / "report.json").exists()


def test_demo_writes_parseable_scenarios(tmp_path, capsys):
    rc = main(["demo", "--out", str(tmp_path)])
    assert rc == 0
    listed = capsys.readouterr().out.strip().splitlines()
    assert len(listed) == 2
    for name in ("demo_harmonic", "demo_td"):
        text = (tmp_path / f"{name}.json").read_text()
        cfg = parse_scenario(text)
        assert cfg.dim == 64


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_console_script_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "phinv.cli", "demo", "--out", str(tmp_path), "--quiet"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert (tmp_path / "demo_td.json").exists()

    # the declared entry point, run the way the generated wrapper runs it
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["phinv"] == "phinv.cli:main"
    wrapper = "import sys; from phinv.cli import main; sys.exit(main())"
    entry = subprocess.run(
        [sys.executable, "-c", wrapper, "--version"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert entry.returncode == 0
    assert __version__ in entry.stdout


@pytest.mark.parametrize("dim", [17, 192])
def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path, dim):
    """demo_td to t_max 0.02 writes the same series.csv and report.json, byte
    for byte, under one and two OpenBLAS threads: at dim 17, whose odd parity
    block is padded, and at dim 192, where a gemm is big enough to split."""
    from phinv import demo_scenarios

    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(demo_scenarios()["demo_td"], dim=dim, t_max=0.02)))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = dict(
            os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(PYPROJECT.parent / "src")
        )
        proc = subprocess.run(
            [sys.executable, "-m", "phinv.cli", "run", "--config", str(config),
             "--out", str(out), "--quiet"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode in (0, 1), proc.stderr
        runs.append((proc.returncode, (out / "series.csv").read_bytes(),
                     (out / "report.json").read_bytes()))
    assert runs[0] == runs[1]


def test_a_run_near_the_truncation_edge_prints_one_warning_line(tmp_path):
    """demo_td at dim 24 tracking level 6 holds more than 1e-8 of its weight
    in the top levels at each of its 51 report times. `phinv run` says so in
    one `warning:` line on stderr, with that count and the largest weight
    and its time, rather than two lines per report time."""
    from phinv import demo_scenarios

    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(
        demo_scenarios()["demo_td"], dim=24, quantum_numbers=[0, 6],
        superposition=[[1, 0], [1, 0]], t_max=0.05,
    )))
    proc = subprocess.run(
        [sys.executable, "-m", "phinv.cli", "run", "--config", str(config),
         "--out", str(tmp_path), "--quiet"],
        env=dict(os.environ, PYTHONPATH=str(PYPROJECT.parent / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "warning: assembled states hold more than 1e-08 of their weight in the top "
        "levels at 51 of 51 report times, at most 5.359e-07 at t=0"
    ]


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone.
    probe = "import sys, phinv, phinv.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_a_run_loads_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma, about 0.8 MB; the run finds distinct
    # indices without it.
    from phinv import demo_scenarios

    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(demo_scenarios()["demo_td"], dim=32, t_max=0.05)))
    probe = (
        "import sys; from phinv.cli import main; "
        f"code = main(['run', '--config', {str(config)!r}, '--out', {str(tmp_path)!r}, "
        "'--quiet']); print(code, 'numpy.ma' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(PYPROJECT.parent / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


@pytest.mark.skipif(
    shutil.which("phinv") is None,
    reason="no phinv console script on PATH (pip install -e . --no-build-isolation)",
)
def test_console_script_on_path():
    which = subprocess.run(
        ["phinv", "--version"], capture_output=True, text=True, timeout=120
    )
    assert which.returncode == 0
    assert __version__ in which.stdout
