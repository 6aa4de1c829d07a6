"""phinv's Simpson rules against scipy's, which they port operation for
operation: the results must be bit-identical. scipy is the oracle here only;
phinv itself does not import it."""

import json

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson as scipy_cumulative_simpson
from scipy.integrate import simpson as scipy_simpson

from phinv import (
    GaussianShape,
    MetricState,
    PositionGrid,
    ShapeError,
    demo_scenarios,
    eigenfunction,
    fock_to_position,
    integrate_metric,
    parse_scenario,
    phase,
)
from phinv.model import cumulative_simpson
from phinv.position import simpson
from phinv.runner import GRAM_MAX_N


@pytest.fixture(scope="module", params=["demo_harmonic", "demo_td"])
def demo(request):
    """A demo's config and its metric flow to t_max = 1.0."""
    cfg = parse_scenario(json.dumps(dict(demo_scenarios()[request.param], t_max=1.0)))
    re_omega, im_omega = cfg.profiles["re_omega"], cfg.profiles["im_omega"]
    traj = integrate_metric(
        MetricState(cfg.phi0, cfg.vtheta0),
        lambda t: complex(re_omega(t), im_omega(t)),
        cfg.t_max,
        cfg.dt,
        im_beta=cfg.profiles["im_beta"],
    )
    return cfg, traj


def test_cumulative_simpson_is_scipys(demo):
    cfg, traj = demo
    for n in cfg.quantum_numbers:
        y = 2 * ((n + 0.5) / 2.0) * traj.w.real
        want = scipy_cumulative_simpson(y, x=traj.dense_times, initial=0.0)
        assert np.array_equal(cumulative_simpson(y, traj.dense_times), want)
        assert np.array_equal(phase(n, traj), want[:: traj.stride])


def test_simpson_is_scipys_on_a_spot_check_grid(demo):
    _, traj = demo
    s = traj.state_at(traj.n_times // 2)
    shape = GaussianShape.from_state(s)
    grid = PositionGrid.for_shape(shape, n_max=GRAM_MAX_N)
    x = grid.points
    f0 = np.asarray(eigenfunction(0, x, s))
    f3 = np.asarray(eigenfunction(3, x, s))
    weight = np.exp(shape.weight_coeff * x * x)
    synthesized = fock_to_position(np.arange(1.0, 9.0) * (1 - 0.5j), grid)
    for y in (
        np.real(np.conj(f3) * weight * f3),
        np.real(np.conj(f0) * weight * f3),
        np.abs(synthesized) ** 2,
        np.conj(synthesized) * f3,
    ):
        got, want = simpson(y, x), scipy_simpson(y, x=x)
        assert got.dtype == want.dtype
        assert got == want


def test_simpson_needs_an_odd_number_of_points():
    x = np.linspace(-1.0, 1.0, 9)
    assert simpson(x * x, x) == scipy_simpson(x * x, x=x)
    for n in (8, 2, 1):
        with pytest.raises(ShapeError):
            simpson(x[:n] * x[:n], x[:n])
