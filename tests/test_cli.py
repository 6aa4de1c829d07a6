import json
import pathlib
import shutil
import subprocess
import sys
import tomllib

import pytest

from phinv import parse_scenario
from phinv._version import __version__
from phinv.cli import main

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


def test_malformed_tolerance_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "--config", "x.json", "--tolerance", "schrodinger"])
    assert info.value.code == 2
    assert "NAME=VALUE" in capsys.readouterr().err


def test_run_missing_config(tmp_path, capsys):
    rc = main(["run", "--config", str(tmp_path / "nope.json")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err


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


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests alone.
    probe = "import sys, phinv, phinv.cli; print('scipy' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
