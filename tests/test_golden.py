"""Sameness against frozen data, not against a rerun in the same process.

data/golden_demos.json holds both demos run to t_max = 0.5: every 10th row
of the state columns (Phi, vtheta0, W_re, gamma_n) and every check's
max_residual and verdict. It was written by this module's ``snapshot``
before the per-dim ladder_exp table and the float-scalar metric flow, so a
refactor that shifts the physics fails here even where criterion 11 (two
runs of one build agree) cannot see it. Rewrite it only for an intended
change of the physics:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import pathlib

import numpy as np
import pytest

from phinv import demo_scenarios, parse_scenario, run_scenario
from phinv.runner import _parse_csv

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_demos.json"
T_MAX = 0.5
EVERY = 10
STATE_RTOL = 1e-12
RESIDUAL_FACTOR = 10.0
RESIDUAL_FLOOR = 1e-14


def snapshot(name: str) -> dict:
    """The frozen view of one demo run at t_max = T_MAX."""
    doc = dict(demo_scenarios()[name], t_max=T_MAX)
    run = run_scenario(parse_scenario(json.dumps(doc)))
    cols = _parse_csv(run.csv_text)
    names = ["Phi", "vtheta0", "W_re"] + sorted(c for c in cols if c.startswith("gamma_"))
    return {
        "columns": {c: [float(v) for v in cols[c][::EVERY]] for c in names},
        "checks": [
            {"name": c["name"], "max_residual": c["max_residual"], "passed": c["passed"]}
            for c in run.report["checks"]
        ],
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ["demo_td", "demo_harmonic"])
def test_demo_matches_golden(golden, name):
    assert golden["t_max"] == T_MAX and golden["every"] == EVERY
    want = golden["demos"][name]
    got = snapshot(name)

    assert sorted(got["columns"]) == sorted(want["columns"])
    for col, frozen in want["columns"].items():
        frozen = np.array(frozen)
        err = np.max(np.abs(np.array(got["columns"][col]) - frozen))
        scale = max(float(np.max(np.abs(frozen))), np.finfo(float).tiny)
        assert err / scale <= STATE_RTOL, f"{name} {col}: {err / scale:.2e} relative"

    assert [(c["name"], c["passed"]) for c in got["checks"]] == [
        (c["name"], c["passed"]) for c in want["checks"]
    ]
    for new, old in zip(got["checks"], want["checks"]):
        a, b = new["max_residual"], old["max_residual"]
        if a < RESIDUAL_FLOOR and b < RESIDUAL_FLOOR:
            continue
        assert b / RESIDUAL_FACTOR <= a <= b * RESIDUAL_FACTOR, (
            f"{name} {new['name']}: max_residual {a:.3e}, frozen {b:.3e}"
        )


if __name__ == "__main__":
    out = {"t_max": T_MAX, "every": EVERY,
           "demos": {name: snapshot(name) for name in ("demo_td", "demo_harmonic")}}
    GOLDEN.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
