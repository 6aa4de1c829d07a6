import importlib.util
import json
import math
import pathlib

import numpy as np
import pytest

from phinv import ConfigError, FormatError, MetricState, integrate_metric, parse_scenario
from phinv.scenario import DEFAULT_TOLERANCES, Profile, demo_scenarios

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def minimal_doc(**overrides):
    doc = {
        "initial_metric": {"phi_cap": 0.2, "vtheta_zero": 1.0},
        "profiles": {
            "re_omega": {"kind": "constant", "value": 1.0},
            "im_omega": {"kind": "constant", "value": 0.0},
            "im_beta": {"kind": "constant", "value": -0.02},
        },
    }
    doc.update(overrides)
    return doc


def parse(doc):
    return parse_scenario(json.dumps(doc))


def test_minimal_scenario_defaults():
    cfg = parse(minimal_doc())
    assert cfg.dim == 64
    assert cfg.t_max == 5.0
    assert cfg.dt == 1e-3
    assert cfg.mode == "generator"
    assert cfg.seed == 0
    assert cfg.quantum_numbers == (0,)
    assert cfg.superposition == (1.0 + 0.0j,)
    assert cfg.tolerances == DEFAULT_TOLERANCES
    assert cfg.tolerances["dyson"] == 5e-6


def test_malformed_json_reports_position():
    with pytest.raises(FormatError) as info:
        parse_scenario('{\n  "dim": 64,,\n}')
    msg = str(info.value)
    assert "line 2" in msg
    assert "column" in msg


def test_unknown_top_level_key():
    with pytest.raises(ConfigError) as info:
        parse(minimal_doc(frobnicate=1))
    assert info.value.field == "frobnicate"


def test_initial_metric_validation():
    doc = minimal_doc()
    del doc["initial_metric"]
    with pytest.raises(ConfigError, match="initial_metric"):
        parse(doc)

    doc = minimal_doc(initial_metric={"phi_cap": 0.2})
    with pytest.raises(ConfigError) as info:
        parse(doc)
    assert info.value.field == "initial_metric.vtheta_zero"

    doc = minimal_doc(initial_metric={"phi_cap": 0.2, "vtheta_zero": -1.0})
    with pytest.raises(ConfigError, match="must be positive"):
        parse(doc)

    doc = minimal_doc(initial_metric={"phi_cap": 0.2, "vtheta_zero": 1.0, "chi": 0.0})
    with pytest.raises(ConfigError, match="unknown key"):
        parse(doc)


def test_dim_bounds():
    with pytest.raises(ConfigError, match=r"\[8, 256\]"):
        parse(minimal_doc(dim=4))
    with pytest.raises(ConfigError, match=r"\[8, 256\]"):
        parse(minimal_doc(dim=300))
    with pytest.raises(ConfigError, match="integer"):
        parse(minimal_doc(dim="64"))
    with pytest.raises(ConfigError, match="integer"):
        parse(minimal_doc(dim=True))


def test_grid_validation():
    with pytest.raises(ConfigError, match="positive"):
        parse(minimal_doc(dt=0.0))
    with pytest.raises(ConfigError, match=r"10\*dt"):
        parse(minimal_doc(t_max=0.005))
    with pytest.raises(ConfigError, match="integer multiple"):
        parse(minimal_doc(t_max=0.0105, dt=1e-3))


def test_mode_validation():
    with pytest.raises(ConfigError, match="generator.*check"):
        parse(minimal_doc(mode="diagnostic"))


def test_generator_mode_profile_set():
    doc = minimal_doc()
    del doc["profiles"]["im_beta"]
    with pytest.raises(ConfigError) as info:
        parse(doc)
    assert info.value.field == "profiles.im_beta"

    doc = minimal_doc()
    doc["profiles"]["re_alpha"] = {"kind": "constant", "value": 0.0}
    with pytest.raises(ConfigError, match="not a generator-mode profile"):
        parse(doc)


def test_check_mode_profile_set():
    doc = minimal_doc(mode="check")
    with pytest.raises(ConfigError, match="required in check mode"):
        parse(doc)
    for name in ("re_alpha", "im_alpha", "re_beta"):
        doc["profiles"][name] = {"kind": "constant", "value": 0.0}
    cfg = parse(doc)
    assert cfg.mode == "check"
    assert set(cfg.profiles) == {
        "re_omega", "im_omega", "re_alpha", "im_alpha", "re_beta", "im_beta"
    }


def test_profile_kinds_and_evaluation():
    lin = Profile(kind="linear", params=(("intercept", 0.5), ("slope", -2.0)))
    assert lin(0.25) == pytest.approx(0.0)
    sin = Profile(
        kind="sinusoid",
        params=(
            ("offset", 0.5), ("amplitude", 2.0), ("frequency", 3.0), ("phase", 0.25)
        ),
    )
    assert sin(0.7) == pytest.approx(0.5 + 2.0 * math.sin(3.0 * 0.7 + 0.25))

    doc = minimal_doc()
    doc["profiles"]["im_omega"] = {
        "kind": "sinusoid", "offset": 0.0, "amplitude": 0.1, "frequency": 1.0
    }
    cfg = parse(doc)
    # phase defaults to zero when omitted
    assert cfg.profiles["im_omega"](math.pi / 2) == pytest.approx(0.1 * math.sin(math.pi / 2))


def test_profile_call_reads_each_parameter_by_name():
    """A profile gives exactly the closed form of its named parameters,
    whatever order they are listed in."""
    sin = Profile(
        kind="sinusoid",
        params=(
            ("phase", 0.25), ("frequency", 3.0), ("amplitude", 2.0), ("offset", 0.5)
        ),
    )
    lin = Profile(kind="linear", params=(("slope", -2.0), ("intercept", 0.5)))
    const = Profile(kind="constant", params=(("value", 0.125),))
    for t in (0.0, 1e-3, 0.7, 1.9215, 5.0):
        assert sin(t) == 0.5 + 2.0 * math.sin(3.0 * t + 0.25)
        assert lin(t) == 0.5 + -2.0 * t
        assert const(t) == 0.125
    assert sin == Profile(kind="sinusoid", params=sin.params)
    assert hash(lin) == hash(Profile(kind="linear", params=lin.params))


class _Sampled(Exception):
    pass


def _stage_times(doc: dict) -> np.ndarray:
    """The array of stage times on which the metric flow samples im_omega
    first, caught at that call before any step is taken."""
    cfg = parse(doc)

    def record(t):
        raise _Sampled(t)

    with pytest.raises(_Sampled) as info:
        integrate_metric(
            MetricState(cfg.phi0, cfg.vtheta0),
            {**cfg.profiles, "im_omega": record},
            cfg.t_max,
            cfg.dt,
        )
    return info.value.args[0]


def test_sinusoid_on_the_flow_stage_times_is_the_scalar_formula_bit_for_bit():
    # The flow reads its drive from np.sin over arrays of stage times; the
    # scalar closed form with math.sin is the reference, at demo_td's
    # horizon and at the seeds of the benchmark's time-dependent workloads.
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    docs = [demo_scenarios()["demo_td"]] + [
        workloads.make_scenario(name, seed)
        for name in ("td_gentle", "td_dim192")
        for seed in [*range(13), *range(100, 112)]
    ]
    for doc in docs:
        times = _stage_times(doc)
        assert times.shape == (6, round(doc["t_max"] / doc["dt"]) * 8)
        p = doc["profiles"]["im_omega"]
        got = parse(doc).profiles["im_omega"](times)
        want = [p["offset"] + p["amplitude"] * math.sin(p["frequency"] * t + p["phase"])
                for t in times.ravel().tolist()]
        assert got.ravel().tolist() == want


def test_profile_validation():
    doc = minimal_doc()
    doc["profiles"]["im_omega"] = {"kind": "quadratic", "value": 0.0}
    with pytest.raises(ConfigError, match="unknown profile kind"):
        parse(doc)

    doc = minimal_doc()
    doc["profiles"]["im_omega"] = {"kind": "constant"}
    with pytest.raises(ConfigError) as info:
        parse(doc)
    assert info.value.field == "profiles.im_omega.value"

    doc = minimal_doc()
    doc["profiles"]["im_omega"] = {"kind": "constant", "value": "big"}
    with pytest.raises(ConfigError, match="must be a number"):
        parse(doc)

    doc = minimal_doc()
    doc["profiles"]["im_omega"] = {"kind": "constant", "value": 0.0, "slope": 1.0}
    with pytest.raises(ConfigError, match="unknown parameters"):
        parse(doc)

    doc = minimal_doc()
    doc["profiles"]["im_omega"] = ["constant", 0.0]
    with pytest.raises(ConfigError, match="must be an object"):
        parse(doc)


def test_quantum_number_validation():
    with pytest.raises(ConfigError, match="non-empty"):
        parse(minimal_doc(quantum_numbers=[], superposition=[]))
    with pytest.raises(ConfigError, match="distinct"):
        parse(minimal_doc(quantum_numbers=[0, 0], superposition=[[1, 0], [1, 0]]))
    with pytest.raises(ConfigError, match=">= 0"):
        parse(minimal_doc(quantum_numbers=[-1], superposition=[[1, 0]]))
    with pytest.raises(ConfigError, match="dim/4"):
        parse(minimal_doc(quantum_numbers=[17], superposition=[[1, 0]]))
    with pytest.raises(ConfigError, match="integers"):
        parse(minimal_doc(quantum_numbers=[0.5], superposition=[[1, 0]]))


def test_quantum_numbers_sorted_with_coefficients():
    cfg = parse(
        minimal_doc(quantum_numbers=[2, 0], superposition=[[0.0, 1.0], [1.0, 0.0]])
    )
    assert cfg.quantum_numbers == (0, 2)
    assert cfg.superposition == (1.0 + 0.0j, 1.0j)


def test_superposition_validation():
    with pytest.raises(ConfigError, match="one \\[re, im\\] pair per"):
        parse(minimal_doc(quantum_numbers=[0, 1], superposition=[[1, 0]]))
    with pytest.raises(ConfigError, match="pair"):
        parse(minimal_doc(superposition=[[1.0]]))
    with pytest.raises(ConfigError, match="nonzero"):
        parse(minimal_doc(superposition=[[0.0, 0.0]]))
    cfg = parse(minimal_doc(superposition=[[0.5, -0.5]]))
    assert cfg.superposition == (0.5 - 0.5j,)


def test_tolerance_overrides():
    cfg = parse(minimal_doc(tolerances={"schrodinger": 1e-8}))
    assert cfg.tolerances["schrodinger"] == 1e-8
    assert cfg.tolerances["dyson"] == DEFAULT_TOLERANCES["dyson"]

    with pytest.raises(ConfigError) as info:
        parse(minimal_doc(tolerances={"frobulation": 1e-8}))
    assert info.value.field == "tolerances.frobulation"

    with pytest.raises(ConfigError, match=">= 0"):
        parse(minimal_doc(tolerances={"schrodinger": -1e-8}))


def test_seed_validation():
    with pytest.raises(ConfigError, match="integer"):
        parse(minimal_doc(seed=3.5))
    assert parse(minimal_doc(seed=7)).seed == 7
    assert parse(minimal_doc(seed=0)).seed == 0
    # numpy's generator takes no negative seed; parsing must stop it.
    with pytest.raises(ConfigError, match=r"^seed: must be >= 0, got -1$") as info:
        parse(minimal_doc(seed=-1))
    assert info.value.field == "seed"


def test_config_hash_is_canonical():
    doc = minimal_doc(dim=32, t_max=1.0)
    reordered = dict(reversed(list(doc.items())))
    assert parse(doc).config_hash() == parse(reordered).config_hash()
    assert parse(doc).config_hash() != parse(minimal_doc(dim=64, t_max=1.0)).config_hash()


def test_effective_round_trip():
    cfg = parse(minimal_doc(dim=32, t_max=1.0, seed=3))
    again = parse(cfg.effective())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()


def test_demo_scenarios_parse():
    demos = demo_scenarios()
    assert set(demos) == {"demo_harmonic", "demo_td"}
    harmonic = parse(demos["demo_harmonic"])
    assert harmonic.phi0 == 0.0
    assert harmonic.quantum_numbers == (0, 1, 2, 3, 4, 5, 6)
    td = parse(demos["demo_td"])
    assert td.phi0 == 0.2
    assert td.profiles["im_omega"].kind == "sinusoid"
