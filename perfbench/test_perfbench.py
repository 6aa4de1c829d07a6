"""Tests of the benchmark's generator, gate and tracer.

    PYTHONPATH=src python3 -m pytest -q perfbench

The repository's own suite (testpaths = tests) does not collect these. The
last two tests run whole workloads and take about six minutes on two cores.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import phinv  # noqa: E402
from phinv import demo_scenarios, parse_scenario  # noqa: E402

import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, make_scenario  # noqa: E402

DEMO_OF = {"td_gentle": "demo_td", "harmonic_static": "demo_harmonic", "td_dim192": "demo_td"}
# Horizon and exact ladder_exp count of each workload's seed-0 config as the
# benchmark was specified: the shipped demos, and demo_td at dim 192 to t=0.5.
SPEC_T_MAX = {"td_gentle": 5.0, "harmonic_static": 5.0, "td_dim192": 0.5}
SPEC_LADDER_CALLS = {"td_gentle": 41048, "harmonic_static": 4, "td_dim192": 5018}


def _hash(doc: dict) -> str:
    return parse_scenario(json.dumps(doc)).config_hash()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed0_hash_matches_the_demo_config(workload):
    demo = dict(demo_scenarios()[DEMO_OF[workload]])
    demo.update(WORKLOADS[workload][1], t_max=SPEC_T_MAX[workload])
    doc = make_scenario(workload, 0)
    doc["t_max"] = SPEC_T_MAX[workload]
    assert _hash(doc) == _hash(demo)
    demo["t_max"] = WORKLOADS[workload][2]
    assert _hash(make_scenario(workload, 0)) == _hash(demo)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seeds_are_deterministic_and_perturb(workload):
    perturbed = ("profiles", "initial_metric", "superposition")
    base = make_scenario(workload, 0)
    for seed in (1, 2, 17):
        doc = make_scenario(workload, seed)
        assert doc == make_scenario(workload, seed)
        assert doc != base
        for key in base.keys() - set(perturbed):
            assert doc[key] == base[key], key
        parse_scenario(json.dumps(doc))


def test_harmonic_seeds_keep_the_metric_constant():
    for seed in range(1, 20):
        doc = make_scenario("harmonic_static", seed)
        assert doc["initial_metric"] == {"phi_cap": 0.0, "vtheta_zero": 1.0}
        assert doc["profiles"]["im_omega"] == {"kind": "constant", "value": 0.0}
        assert doc["profiles"]["im_beta"] == {"kind": "constant", "value": 0.0}


def test_tracer_patches_every_namespace_and_restores():
    originals = {
        (module, name): getattr(module, name)
        for module in (phinv.runner, phinv.model, phinv.propagator, phinv.position)
        for name in ("build_eta", "build_rho", "build_rho_inverse")
        if hasattr(module, name)
    }
    originals[(phinv.metric, "ladder_exp")] = phinv.metric.ladder_exp
    tracer = Tracer().install()
    try:
        for (module, name), fn in originals.items():
            assert getattr(module, name) is not fn, f"{module.__name__}.{name} not wrapped"
    finally:
        tracer.restore()
    for (module, name), fn in originals.items():
        assert getattr(module, name) is fn


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_nonzero_seeds_pass_the_gate(workload):
    # Seed 104 failed the oracle checks under an earlier, wider td envelope.
    for seed in (1, 2, 104):
        result = run.measure(workload, seed, 0.0, False, ROOT)
        assert result["failures"] == []
        assert result["correct"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed0_counters_at_the_specified_horizon(workload, tmp_path):
    config = tmp_path / "config.json"
    doc = make_scenario(workload, 0)
    doc["t_max"] = SPEC_T_MAX[workload]
    config.write_text(json.dumps(doc))
    rep = run.spawn(run.worker_env(ROOT), config, tmp_path / "out", "--trace")
    assert rep["run_code"] == 0
    assert rep["layers"]["metric.ladder_exp_calls"] == SPEC_LADDER_CALLS[workload]
