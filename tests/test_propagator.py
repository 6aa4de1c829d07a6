import dataclasses
import json
import re

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from support import dense_dyson_residual, dense_hermitian_image_check, dense_invariant_residual

from phinv import (
    InstabilityError,
    MetricState,
    StencilError,
    assemble_solution,
    basis_state,
    build_eta,
    cached_operator_set,
    convergence_probe,
    demo_scenarios,
    dyson_residual,
    hermitian_image_check,
    hermitian_side_check,
    integrate_metric,
    invariant_residual,
    parse_scenario,
    propagate,
    schrodinger_residual,
)
import phinv.propagator
from phinv.fock import k0_operator
from phinv.model import HamiltonianCoefficients, hamiltonian_op
from phinv.propagator import eta_source, hamiltonian_source, transformed_generator_source


def test_zero_hamiltonian_keeps_state():
    h = lambda t: np.zeros((16, 16), dtype=complex)
    psi0 = basis_state(16, 2).astype(complex)
    out = propagate(h, psi0, np.linspace(0.0, 1.0, 101))
    assert np.max(np.abs(out.states - psi0[None, :])) <= 1e-14
    assert out.times.shape == (101,)
    assert out.states.shape == (101, 16)


def test_constant_diagonal_hamiltonian_phases():
    ops = cached_operator_set(16)
    h = lambda t: 2.0 * ops.k_zero
    psi0 = (basis_state(16, 0) + basis_state(16, 3)).astype(complex) / np.sqrt(2)
    out = propagate(h, psi0, np.linspace(0.0, 1.0, 1001))
    expected = (
        np.exp(-0.5j) * basis_state(16, 0) + np.exp(-3.5j) * basis_state(16, 3)
    ) / np.sqrt(2)
    assert np.linalg.norm(out.final_state() - expected) <= 1e-9


def test_propagation_result_diagnostics(gentle_traj):
    h = hamiltonian_source(gentle_traj, 64)
    eta = eta_source(gentle_traj, 64)
    psi0 = assemble_solution(gentle_traj, 0, 64)
    out = propagate(h, psi0, gentle_traj.times[:201], eta_of_t=eta)
    assert out.eta_norms.shape == (201,)
    assert np.max(np.abs(out.eta_norms - out.eta_norms[0])) <= 1e-7
    assert np.max(out.tail_support) <= 1e-12
    # order estimate needs a step size whose halving error clears the
    # rounding floor, hence the coarse grid here
    _, order = convergence_probe(h, psi0, gentle_traj.times[:501:25], substeps=1)
    assert 3.5 <= order <= 4.5


def test_propagate_requires_uniform_grid():
    h = lambda t: np.zeros((8, 8), dtype=complex)
    bad = np.array([0.0, 0.1, 0.3, 0.35])
    with pytest.raises(ValueError):
        propagate(h, basis_state(8, 0).astype(complex), bad)


def test_instability_detected():
    ops = cached_operator_set(64)
    h = lambda t: 2j * ops.k_zero  # pure gain, norm grows as exp((n+1/2)t)
    psi0 = basis_state(64, 63).astype(complex)
    with pytest.raises(InstabilityError) as info:
        propagate(h, psi0, np.linspace(0.0, 1.0, 101))
    assert 0.1 <= info.value.time <= 0.35


def test_convergence_probe_fourth_order(gentle_traj):
    h = hamiltonian_source(gentle_traj, 64)
    psi0 = assemble_solution(gentle_traj, 0, 64)
    ratio, order = convergence_probe(h, psi0, gentle_traj.times[:501:25], substeps=2)
    assert ratio >= 12.0
    assert 3.5 <= order <= 4.5


def test_finite_difference_stencil_bounds(gentle_traj, gentle_states):
    h = hamiltonian_source(gentle_traj, 64)
    for bad in (0, 1, gentle_traj.n_times - 2, gentle_traj.n_times - 1):
        with pytest.raises(StencilError):
            schrodinger_residual(gentle_states, gentle_traj.times, h, bad)
    for bad in (3, gentle_traj.n_times - 4):
        with pytest.raises(StencilError):
            dyson_residual(gentle_traj, bad, 64)
        with pytest.raises(StencilError):
            invariant_residual(gentle_traj, bad, 64)


def test_schrodinger_residual_on_assembled_states(gentle_traj, gentle_states):
    h = hamiltonian_source(gentle_traj, 64)
    for i in (2, 700, 2500, 4200, gentle_traj.n_times - 3):
        assert schrodinger_residual(gentle_states, gentle_traj.times, h, i) <= 1e-10


def test_schrodinger_residual_catches_scaled_phases(gentle_traj, gentle_states):
    scaled = dataclasses.replace(
        gentle_traj, phases={n: 1.1 * g for n, g in gentle_traj.phases.items()}
    )
    states = np.array([assemble_solution(scaled, i, 64) for i in range(0, 9)])
    h = hamiltonian_source(gentle_traj, 64)
    assert schrodinger_residual(states, gentle_traj.times[:9], h, 4) > 1e-2


def test_dyson_residual_static_and_driven(gentle_traj, harmonic_traj):
    static = integrate_metric(
        MetricState(0.0, float(np.exp(2.0))),
        lambda t: 1.0 + 0.0j, 1.0, 1e-3, im_beta=lambda t: 0.0,
    )
    assert dyson_residual(static, 500, 64) <= 1e-12
    assert dyson_residual(harmonic_traj, 2500, 64) <= 1e-12
    worst = max(dyson_residual(gentle_traj, i, 64) for i in (4, 1000, 2500, 4996))
    assert worst <= 5e-6


def test_dyson_residual_catches_corrupted_metric(gentle_traj):
    clean = dyson_residual(gentle_traj, 2500, 64)
    corrupted = dataclasses.replace(gentle_traj, phi=1.01 * gentle_traj.phi)
    assert dyson_residual(corrupted, 2500, 64) >= 1e3 * max(clean, 1e-12)


def test_invariant_residual_static_and_driven(gentle_traj, harmonic_traj):
    assert invariant_residual(harmonic_traj, 2500, 64) <= 1e-10
    worst = max(invariant_residual(gentle_traj, i, 64) for i in (4, 1000, 2500, 4996))
    assert worst <= 5e-6


def test_invariant_residual_catches_corrupted_metric(gentle_traj):
    clean = invariant_residual(gentle_traj, 2500, 64)
    corrupted = dataclasses.replace(gentle_traj, vtheta0=1.01 * gentle_traj.vtheta0)
    assert invariant_residual(corrupted, 2500, 64) >= 1e3 * max(clean, 1e-12)


def test_hermitian_image_of_invariant(gentle_traj, harmonic_traj):
    assert hermitian_image_check(harmonic_traj, 1000, 64) <= 1e-13
    static = integrate_metric(
        MetricState(0.0, float(np.exp(2.0))),
        lambda t: 1.0 + 0.0j, 1.0, 1e-3, im_beta=lambda t: 0.0,
    )
    assert hermitian_image_check(static, 500, 64) <= 1e-12
    worst = max(hermitian_image_check(gentle_traj, i, 64) for i in (0, 1000, 2500, 5000))
    assert worst <= 1e-9


def test_hermitian_image_catches_a_metric_that_does_not_fit_the_invariant(
    gentle_traj, monkeypatch
):
    """eta from a state with Phi off by 1 % leaves rho and I untouched, so
    only the Hermiticity half, |eta I - (eta I)^T|, can see it."""
    clean = hermitian_image_check(gentle_traj, 2500, 64)
    s = gentle_traj.state_at(2500)
    bad = MetricState(1.01 * s.phi_cap, s.vtheta_zero).gauss()
    monkeypatch.setattr(phinv.propagator, "build_eta", lambda g, dim: build_eta(bad, dim))
    assert hermitian_image_check(gentle_traj, 2500, 64) >= 1e3 * max(clean, 1e-15)


def test_short_horizon_oracle_agreement(gentle_traj):
    h = hamiltonian_source(gentle_traj, 64)
    eta = eta_source(gentle_traj, 64)
    psi0 = assemble_solution(gentle_traj, 0, 64)
    times = gentle_traj.times[:501]
    out = propagate(h, psi0, times, eta_of_t=eta)
    worst_overlap = worst_vector = 0.0
    for i in (100, 250, 500):
        psi = out.states[i]
        ref = assemble_solution(gentle_traj, i, 64)
        eta_i = build_eta(gentle_traj.gauss_at(i), 64)
        num = abs(psi.conj() @ (eta_i @ ref))
        den = np.sqrt(
            (psi.conj() @ (eta_i @ psi)).real * (ref.conj() @ (eta_i @ ref)).real
        )
        worst_overlap = max(worst_overlap, abs(1.0 - num / den))
        worst_vector = max(worst_vector, float(np.max(np.abs(psi - ref))))
    assert worst_overlap <= 1e-6
    # agreement holds vector by vector, with no phase alignment applied
    assert worst_vector <= 1e-5
    assert np.max(np.abs(out.eta_norms - out.eta_norms[0])) <= 1e-7


def test_hermitian_side_transport(gentle_traj, gentle_states, harmonic_traj):
    worst = hermitian_side_check(gentle_traj, gentle_states, 64)
    assert worst <= 1e-6
    states = np.array(
        [assemble_solution(harmonic_traj, i, 64) for i in range(harmonic_traj.n_times)]
    )
    assert hermitian_side_check(harmonic_traj, states, 64) <= 1e-10


def test_transformed_generator_is_scaled_number_operator(gentle_traj, ops64):
    gen = transformed_generator_source(gentle_traj, 64)
    t = float(gentle_traj.times[700])
    w_re = gentle_traj.w_at(700).real
    assert np.linalg.norm(gen(t) + 2.0 * w_re * ops64.k_zero) <= 1e-10


@pytest.fixture(scope="module")
def demo_td_traj():
    """demo_td's metric flow to t_max = 1.0 (1001 report times)."""
    doc = demo_scenarios()["demo_td"]
    cfg = parse_scenario(json.dumps(dict(doc, t_max=1.0)))
    re_omega, im_omega = cfg.profiles["re_omega"], cfg.profiles["im_omega"]
    return integrate_metric(
        MetricState(cfg.phi0, cfg.vtheta0),
        lambda t: complex(re_omega(t), im_omega(t)),
        cfg.t_max,
        cfg.dt,
        im_beta=cfg.profiles["im_beta"],
    )


@pytest.mark.parametrize("dim", [64, 192])
def test_band_meters_match_dense_oracles(demo_td_traj, dim):
    for i in (4, 100, 500, 996):
        for meter, oracle in (
            (dyson_residual, dense_dyson_residual),
            (invariant_residual, dense_invariant_residual),
            (hermitian_image_check, dense_hermitian_image_check),
        ):
            got, want = meter(demo_td_traj, i, dim), oracle(demo_td_traj, i, dim)
            assert abs(got - want) <= 1e-14, f"{meter.__name__} at {i}: {got:.3e} vs {want:.3e}"


@pytest.fixture(scope="module")
def check_traj():
    """A check-mode flow whose alpha and beta vary in time."""
    return integrate_metric(
        MetricState(0.2, 1.0),
        lambda t: 1.0 + 0.1j * np.sin(t),
        0.5,
        1e-3,
        alpha=lambda t: 0.1 * np.cos(t) + 0.05j,
        beta=lambda t: -0.3 + 0.2 * t - 0.02j * np.cos(2 * t),
    )


def _spline_sources(traj, dim):
    """H(t) and -2 W(t) K0 cubic-splined from the dense grid: the route the
    sources took before they read the half-step grid."""
    om, al, be, w_re = (
        CubicSpline(traj.dense_times, a) for a in (traj.omega, traj.alpha, traj.beta, traj.w.real)
    )

    def h_of_t(t):
        c = HamiltonianCoefficients(complex(om(t)), complex(al(t)), complex(be(t)))
        return hamiltonian_op(c, dim)

    return h_of_t, lambda t: k0_operator(dim, -2.0 * float(w_re(t)))


@pytest.mark.parametrize("traj_name", ["gentle_traj", "check_traj"])
def test_sources_read_the_half_step_grid(traj_name, request):
    traj = request.getfixturevalue(traj_name)
    dim = 16
    sources = (hamiltonian_source(traj, dim), transformed_generator_source(traj, dim))
    for i in (0, 1, 250, traj.n_times - 1):
        t = float(traj.times[i])
        h, g = (src(t).bands for src in sources)
        assert np.array_equal(h, hamiltonian_op(traj.coeffs_at(i), dim).bands)
        assert np.array_equal(g, k0_operator(dim, -2.0 * traj.w_at(i).real).bands)
    # Every midpoint of the first report interval, then a sparse sweep.
    mids = traj.half_times[1::2]
    for t in np.concatenate([mids[:8], mids[8::397], mids[-1:]]):
        for src, spline in zip(sources, _spline_sources(traj, dim)):
            got, want = src(float(t)).bands, spline(float(t)).bands
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), t


def test_sources_reject_times_off_the_half_step_grid(gentle_traj):
    spacing = gentle_traj.dt / (2 * gentle_traj.stride)
    for src in (hamiltonian_source(gentle_traj, 16), transformed_generator_source(gentle_traj, 16)):
        for t in (
            float(gentle_traj.times[3]) + spacing / 3,
            -spacing,
            float(gentle_traj.times[-1]) + spacing,
        ):
            with pytest.raises(ValueError, match=re.escape(f"t={t!r}")):
                src(t)
