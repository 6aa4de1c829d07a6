import json
import pathlib

import numpy as np
import pytest

from phinv import (
    MetricState,
    assemble_solution,
    demo_scenarios,
    integrate_metric,
    parse_scenario,
    run_scenario,
)

from support import HARMONIC_DRIVE, cached_operator_set

DATA_DIR = pathlib.Path(__file__).parent / "data"

# Shared benign scenario: moderate squeezing, oscillating gain, well away
# from the constraint-denominator zero for the whole horizon.
GENTLE_PHI0 = 0.2
GENTLE_VTHETA0 = 1.0
GENTLE_DRIVE = {
    "re_omega": lambda t: 1.0,
    "im_omega": lambda t: 0.1 * np.sin(t),
    "im_beta": lambda t: -0.02,
}


@pytest.fixture(scope="session")
def ops64():
    return cached_operator_set(64)


@pytest.fixture(scope="session")
def gentle_traj():
    return integrate_metric(
        MetricState(GENTLE_PHI0, GENTLE_VTHETA0),
        GENTLE_DRIVE,
        5.0,
        1e-3,
        superposition={0: 1 / np.sqrt(2), 1: 1 / np.sqrt(2)},
    )


@pytest.fixture(scope="session")
def gentle_states(gentle_traj):
    return np.array(
        [assemble_solution(gentle_traj, i, 64) for i in range(gentle_traj.n_times)]
    )


@pytest.fixture(scope="session")
def harmonic_traj():
    return integrate_metric(
        MetricState(0.0, 1.0),
        HARMONIC_DRIVE,
        5.0,
        1e-3,
        superposition={0: 1 / np.sqrt(2), 1: 1 / np.sqrt(2), 2: 0, 3: 0, 4: 0, 5: 0, 6: 0},
    )


@pytest.fixture(scope="session")
def harmonic_pi_traj():
    # dt chosen so that t = pi lands exactly on the report grid
    dt = np.pi / 800
    return integrate_metric(
        MetricState(0.0, 1.0),
        HARMONIC_DRIVE,
        float(np.pi),
        dt,
        superposition={0: 1.0},
    )


@pytest.fixture(scope="session")
def harmonic_run():
    return run_scenario(parse_scenario(json.dumps(demo_scenarios()["demo_harmonic"])))


@pytest.fixture(scope="session")
def td_run():
    return run_scenario(parse_scenario(json.dumps(demo_scenarios()["demo_td"])))


@pytest.fixture(scope="session")
def frozen_disentangle_reference():
    with open(DATA_DIR / "disentangle_reference.json", encoding="utf-8") as fh:
        return json.load(fh)
