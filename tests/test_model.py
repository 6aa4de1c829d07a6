import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from support import (
    HARMONIC_DRIVE,
    HamiltonianCoefficients,
    InvariantCoefficients,
    basis_state,
    dense_gemm_rho_inverse,
    random_metric_states,
    raw_metric_rates,
    su11_operator,
    uv_coefficients,
    whole_horizon_flow,
)

from phinv import (
    ConfigError,
    DomainError,
    GuardError,
    MetricState,
    assemble_solution,
    build_eta,
    build_rho,
    build_rho_inverse,
    constraint_residuals,
    integrate_metric,
    interior_norm,
)
import phinv.model
from phinv.model import (
    FLOW_BLOCK,
    STRIDE,
    derive_constrained_coeffs,
    hamiltonian_coeffs,
    invariant_op,
    metric_rhs,
    phase,
    transformed_frequency,
)
from phinv.metric import rho_inverse_columns
from phinv.position import cross_representation_residual
from phinv.runner import CROSS_REP_MAX_N, RAYLEIGH_MAX_N
from phinv.scenario import demo_scenarios, parse_scenario


def _random_drive(rng):
    return (
        float(rng.uniform(0.5, 1.5)),
        float(rng.uniform(-0.3, 0.3)),
        float(rng.uniform(-0.1, 0.1)),
    )


def _constrained(s, re_omega, im_omega, im_beta):
    return HamiltonianCoefficients(
        *derive_constrained_coeffs(s.phi_cap, s.vtheta_zero, re_omega, im_omega, im_beta)
    )


def test_metric_state_validation():
    s = MetricState(0.3, 1.2)
    assert s.chi == pytest.approx(0.09 - 1.2, abs=1e-15)
    assert s.constraint_denominator == pytest.approx(2 * 0.09 - 1.2, abs=1e-15)
    with pytest.raises(DomainError, match="vtheta_zero must be positive"):
        MetricState(0.3, 0.0)
    with pytest.raises(DomainError, match="vtheta_zero must be positive"):
        MetricState(0.3, -1.0)


def test_constrained_coefficients_worked_point():
    s = MetricState(0.5, 1.0)
    c = _constrained(s, 1.0, 0.2, 0.1)
    assert c.beta.real == pytest.approx(-1.0, abs=1e-14)
    assert c.alpha.real == pytest.approx(0.75, abs=1e-14)
    assert c.alpha.imag == pytest.approx(0.175, abs=1e-14)
    assert c.omega == pytest.approx(1.0 + 0.2j, abs=1e-15)
    assert c.beta.imag == pytest.approx(0.1, abs=1e-15)


def test_constraint_denominator_singularity():
    s = MetricState(0.5, 0.5)
    assert abs(s.constraint_denominator) < 1e-15
    with pytest.raises(DomainError, match="constraint denominator .* is singular"):
        derive_constrained_coeffs(s.phi_cap, s.vtheta_zero, 1.0, 0.0, 0.0)


def test_one_singular_state_stops_an_array():
    # the flow evaluates the constraints on its whole half-step grid at once
    phi, th0 = np.array([0.2, 0.5, -0.1]), np.array([1.0, 0.5, 0.8])
    ones, zeros = np.ones(3), np.zeros(3)
    with pytest.raises(DomainError, match="constraint denominator .* is singular"):
        derive_constrained_coeffs(phi, th0, ones, zeros, zeros)
    regular = [0, 2]
    derive_constrained_coeffs(phi[regular], th0[regular], ones[:2], zeros[:2], zeros[:2])


def test_constraint_residuals_vanish_on_derived_coeffs():
    rng = np.random.default_rng(3)
    for s in random_metric_states(23, 100):
        c = _constrained(s, *_random_drive(rng))
        res = constraint_residuals(s.phi_cap, s.vtheta_zero, c.omega, c.alpha, c.beta)
        assert set(res) == {"re_beta", "re_alpha", "im_alpha"}
        assert max(abs(v) for v in res.values()) <= 1e-12


def test_constraint_residuals_flag_inconsistency():
    s = MetricState(0.2, 1.0)
    c = _constrained(s, 1.0, 0.1, -0.02)
    res0 = max(abs(v) for v in constraint_residuals(0.2, 1.0, c.omega, c.alpha, c.beta).values())
    res1 = max(
        abs(v) for v in constraint_residuals(0.2, 1.0, c.omega, c.alpha + 0.01, c.beta).values()
    )
    assert res1 > 1e-4
    assert res1 > 1e6 * max(res0, 1e-300)


def test_reduced_flow_matches_raw_flow():
    rng = np.random.default_rng(4)
    for s in random_metric_states(24, 100):
        re_om, im_om, im_b = _random_drive(rng)
        if abs(s.phi_cap) < 1e-3:
            continue
        c = _constrained(s, re_om, im_om, im_b)
        reduced = metric_rhs(s.phi_cap, s.vtheta_zero, im_om, im_b)
        raw = raw_metric_rates(s, c)
        assert abs(reduced[0] - raw[0]) <= 1e-11
        assert abs(reduced[1] - raw[1]) <= 1e-11


def test_raw_flow_requires_nonzero_phi():
    s = MetricState(0.0, 1.0)
    c = _constrained(s, 1.0, 0.1, 0.0)
    with pytest.raises(DomainError):
        raw_metric_rates(s, c)


def test_diagonal_metric_decay_rate():
    # pure-gain drive at Phi = 0: the metric stays diagonal and vtheta0
    # decays at twice the imaginary frequency, with phases untouched
    c = 0.15
    traj = integrate_metric(
        MetricState(0.0, 1.0),
        {"re_omega": lambda t: 1.0, "im_omega": lambda t: c, "im_beta": lambda t: 0.0},
        1.0,
        1e-3,
    )
    assert np.max(np.abs(traj.phi)) <= 1e-14
    assert np.max(np.abs(traj.vtheta0 - np.exp(-2 * c * traj.dense_times))) <= 1e-9
    assert np.max(np.abs(traj.w.real + 1.0)) <= 1e-12
    assert traj.max_im_w() <= 1e-13
    for n in (0, 1, 2):
        assert np.max(np.abs(phase(n, traj) + (n + 0.5) * traj.times)) <= 1e-10


def test_invariant_harmonic_is_two_k_zero(ops64):
    inv = invariant_op(MetricState(0.0, 1.0), 64).dense()
    assert np.linalg.norm(inv - 2 * ops64.k_zero) <= 1e-13


def test_invariant_coefficients_from_state():
    s = MetricState(0.5, 1.0)
    d = InvariantCoefficients.from_state(s)
    assert d.delta1 == pytest.approx(0.5, abs=1e-14)
    assert d.delta2 == pytest.approx(0.375, abs=1e-14)
    assert d.delta3 == pytest.approx(-0.5, abs=1e-14)
    assert d.delta2 == pytest.approx(d.delta3 * s.chi, abs=1e-14)


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=120)
def test_invariant_delta_normalization(idx):
    s = random_metric_states(idx, 1)[0]
    d = InvariantCoefficients.from_state(s)
    phi, chi, th0 = s.phi_cap, s.chi, s.vtheta_zero
    val = -(d.delta1 * (phi * phi + chi) - 4 * d.delta3 * chi * phi) / th0
    # collapses to +1 through the quartic parameter identity
    assert abs(val - 1.0) <= 1e-12


def test_invariant_eigencheck_moderate_state(ops64):
    s = MetricState(0.2, 1.0)
    inv = invariant_op(s, 64).dense()
    ri = build_rho_inverse(s, 64)
    eta = build_eta(s, 64)
    vecs = [ri[:, n] for n in range(7)]
    for n, v in enumerate(vecs):
        resid = np.linalg.norm(inv @ v - (n + 0.5) * v) / np.linalg.norm(v)
        assert resid <= 1e-10
        rayleigh = (v.conj() @ (eta @ (inv @ v))) / (v.conj() @ (eta @ v))
        assert abs(rayleigh - (n + 0.5)) <= 1e-8
    for m in range(7):
        for n in range(7):
            val = complex(vecs[m].conj() @ (eta @ vecs[n]))
            assert abs(val - (1.0 if m == n else 0.0)) <= 1e-10


def test_invariant_eigencheck_strong_state_converges_with_dim():
    # at Phi = 0.5 the inverse-map columns converge slowly in the level
    # cutoff; the residual is far from zero at 64 levels and falls by
    # orders of magnitude as the cutoff grows
    s = MetricState(0.5, 1.0)
    residuals = []
    for dim in (64, 96, 128, 160):
        inv = invariant_op(s, dim).dense()
        ri = build_rho_inverse(s, dim)
        worst = 0.0
        for n in range(7):
            v = ri[:, n]
            worst = max(worst, float(np.linalg.norm(inv @ v - (n + 0.5) * v) / np.linalg.norm(v)))
        residuals.append(worst)
    assert residuals[0] > 1e-2
    assert all(b < a for a, b in zip(residuals, residuals[1:]))
    assert residuals[0] / residuals[-1] >= 1e4


def test_invariant_image_under_metric_map(ops64):
    for s in random_metric_states(25, 10):
        inv = invariant_op(s, 64).dense()
        r = build_rho(s, 64).dense()
        lhs = r @ inv
        rhs = 2 * ops64.k_zero @ r
        assert interior_norm(lhs - rhs) / max(1.0, interior_norm(lhs)) <= 1e-12


def test_transformed_frame_harmonic():
    s = MetricState(0.0, 1.0)
    c = _constrained(s, 1.0, 0.0, 0.0)
    w = transformed_frequency(0.0, 1.0, c.omega, c.alpha, c.beta, 0.0, 0.0)
    u, v = uv_coefficients(s, c, 0.0, 0.0)
    assert w == pytest.approx(-1.0, abs=1e-14)
    assert abs(u) <= 1e-14
    assert abs(v) <= 1e-14


def test_transformed_frame_collapses_to_k_zero():
    # with constrained coefficients and matching rates the ladder parts
    # cancel and the frequency is real
    rng = np.random.default_rng(5)
    for s in random_metric_states(31, 50):
        c = _constrained(s, *_random_drive(rng))
        phi, th0 = s.phi_cap, s.vtheta_zero
        dphi, dth0 = metric_rhs(phi, th0, c.omega.imag, c.beta.imag)
        w = transformed_frequency(phi, th0, c.omega, c.alpha, c.beta, dphi, dth0)
        u, v = uv_coefficients(s, c, dphi, dth0)
        assert abs(u) <= 1e-12
        assert abs(v) <= 1e-12
        assert abs(w.imag) <= 1e-12


@given(st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_formulas_agree_on_floats_and_in_one_array(seed):
    # integrate_metric evaluates the constraints, the rates and W on its
    # whole half-step grid at once; each state taken alone as floats must
    # give the same bits
    states = random_metric_states(seed, 8)
    rng = np.random.default_rng(seed)
    drives = [_random_drive(rng) for _ in states]
    phi = np.array([s.phi_cap for s in states])
    th0 = np.array([s.vtheta_zero for s in states])
    re_om, im_om, im_b = (np.array(col) for col in zip(*drives))
    coeffs = derive_constrained_coeffs(phi, th0, re_om, im_om, im_b)
    rates = metric_rhs(phi, th0, im_om, im_b)
    w = transformed_frequency(phi, th0, *coeffs, *rates)
    for k, (s, (ro, io, ib)) in enumerate(zip(states, drives)):
        coeffs_k = derive_constrained_coeffs(s.phi_cap, s.vtheta_zero, ro, io, ib)
        rates_k = metric_rhs(s.phi_cap, s.vtheta_zero, io, ib)
        w_k = transformed_frequency(s.phi_cap, s.vtheta_zero, *coeffs_k, *rates_k)
        for one, batch in zip((*coeffs_k, *rates_k, w_k), (*coeffs, *rates, w)):
            assert np.array_equal(one, batch[k])


def test_hamiltonian_matrix_layout(ops64):
    c = HamiltonianCoefficients(1.0 + 0.2j, 0.3 - 0.1j, -0.25 + 0.05j)
    h = su11_operator(64, *hamiltonian_coeffs(*c)).dense()
    expected = 2 * c.omega * ops64.k_zero + 2 * c.alpha * ops64.k_minus + 2 * c.beta * ops64.k_plus
    assert np.array_equal(h, expected)


def test_phase_harmonic_linear(harmonic_traj):
    for n in range(7):
        g = phase(n, harmonic_traj)
        assert np.max(np.abs(g + (n + 0.5) * harmonic_traj.times)) <= 1e-10


def test_phase_quadrature_against_trapezoid(gentle_traj):
    # cumulative Simpson on the fine grid vs plain trapezoid: both resolve
    # the smooth frequency, so the difference bounds the quadrature error
    w_real = gentle_traj.w.real
    dense = gentle_traj.dense_times
    for n in (0, 1):
        k_n = (n + 0.5) / 2.0
        integrand = 2.0 * k_n * w_real
        trap = np.concatenate(
            [[0.0], np.cumsum((integrand[1:] + integrand[:-1]) * 0.5 * np.diff(dense))]
        )
        trap_report = trap[:: gentle_traj.stride]
        assert np.max(np.abs(phase(n, gentle_traj) - trap_report)) <= 1e-8


def test_assembled_state_quarter_turn(harmonic_pi_traj):
    # a half period of the unit oscillator multiplies the ground component
    # by exp(-i pi / 2)
    out = assemble_solution(harmonic_pi_traj, harmonic_pi_traj.n_times - 1, 64)
    expected = -1j * basis_state(64, 0).astype(complex)
    assert np.linalg.norm(out - expected) <= 1e-12


def test_assembled_metric_norm_is_conserved(harmonic_traj, gentle_traj):
    for traj, tol in ((harmonic_traj, 1e-12), (gentle_traj, 1e-7)):
        norms = []
        for i in range(0, traj.n_times, 250):
            v = assemble_solution(traj, i, 64)
            eta = build_eta(traj.state_at(i), 64)
            norms.append(float((v.conj() @ (eta @ v)).real))
        norms = np.array(norms)
        assert abs(norms[0] - 1.0) <= 1e-12
        assert np.max(np.abs(norms - norms[0])) <= tol


def test_eigenstate_matches_inverse_map_column(gentle_traj):
    """The invariant eigenstate rho^{-1}|1> is column 1 of rho^{-1}, with
    eigenvalue 3/2 away from the truncation edge."""
    s = gentle_traj.state_at(1200)
    v = build_rho_inverse(s, 64)[:, 1]
    assert np.linalg.norm(v - dense_gemm_rho_inverse(s, 64) @ basis_state(64, 1)) <= 1e-13
    resid = invariant_op(s, 64) @ v - 1.5 * v
    assert np.linalg.norm(resid[:-8]) / np.linalg.norm(v) <= 1e-10


def test_integrate_guard_constraint_denominator():
    with pytest.raises(GuardError) as info:
        integrate_metric(
            MetricState(0.5, 1.0),
            {
                "re_omega": lambda t: 1.0,
                "im_omega": lambda t: 0.2 * np.sin(t),
                "im_beta": lambda t: 0.05,
            },
            5.0,
            1e-3,
        )
    assert info.value.guard == "constraint-denominator"
    assert info.value.time == pytest.approx(1.4834, abs=0.01)


def test_integrate_guard_vtheta_floor():
    with pytest.raises(GuardError) as info:
        integrate_metric(
            MetricState(0.0, 1.0),
            {"re_omega": lambda t: 1.0, "im_omega": lambda t: 2.0, "im_beta": lambda t: 0.0},
            5.0,
            1e-3,
        )
    assert info.value.guard == "vtheta-zero-floor"
    assert info.value.time == pytest.approx(np.log(1e8) / 4.0, abs=0.05)


def test_integrate_guard_local_error_on_coarse_steps():
    with pytest.raises(GuardError) as info:
        integrate_metric(
            MetricState(0.2, 1.0),
            {
                "re_omega": lambda t: 1.0,
                "im_omega": lambda t: 2.0 * np.sin(4 * t),
                "im_beta": lambda t: 0.0,
            },
            5.0,
            0.5,
        )
    assert info.value.guard == "local-error"


def test_integrate_rejects_mixed_modes():
    zero = lambda t: 0.0
    omega = {"re_omega": lambda t: 1.0, "im_omega": zero}
    check = {**omega, "re_alpha": zero, "im_alpha": zero, "re_beta": zero, "im_beta": zero}
    both = r"generator-mode profiles.*im_beta.*check-mode profiles.*re_alpha"
    # no im_beta, generator keys with alpha, check keys without re_beta
    for drive in (omega, {**omega, "im_beta": zero, "re_alpha": zero, "im_alpha": zero},
                  {k: f for k, f in check.items() if k != "re_beta"}):
        with pytest.raises(ValueError, match=both):
            integrate_metric(MetricState(0.0, 1.0), drive, 1.0, 1e-3)
    with pytest.raises(ValueError, match="not a positive multiple"):
        integrate_metric(MetricState(0.0, 1.0), HARMONIC_DRIVE, 1.0005, 1e-3)


def test_integrate_check_mode_matches_generator_mode():
    zero = lambda t: 0.0
    gen = integrate_metric(MetricState(0.0, 1.0), HARMONIC_DRIVE, 1.0, 1e-3)
    chk = integrate_metric(
        MetricState(0.0, 1.0),
        {**HARMONIC_DRIVE, "re_alpha": zero, "im_alpha": zero, "re_beta": zero},
        1.0,
        1e-3,
    )
    assert chk.mode == "check"
    assert gen.mode == "generator"
    assert np.max(np.abs(chk.phi - gen.phi)) <= 1e-12
    assert np.max(np.abs(chk.vtheta0 - gen.vtheta0)) <= 1e-12


def test_check_mode_reports_complex_frequency_without_raising():
    traj = integrate_metric(
        MetricState(0.2, 1.0),
        {
            "re_omega": lambda t: 1.0,
            "im_omega": lambda t: 0.1 * np.sin(t),
            "re_alpha": lambda t: 0.1,
            "im_alpha": lambda t: 0.05,
            "re_beta": lambda t: -0.3,
            "im_beta": lambda t: 0.0,
        },
        1.0,
        1e-3,
    )
    assert traj.max_im_w() > 1e-3


def test_generator_mode_rejects_complex_frequency_beyond_tolerance():
    drive = {
        "re_omega": lambda t: 1.0,
        "im_omega": lambda t: 0.1 * np.sin(t),
        "im_beta": lambda t: -0.02,
    }
    with pytest.raises(DomainError, match=r"max \|Im W\| = ") as info:
        integrate_metric(MetricState(0.2, 1.0), drive, 1.0, 1e-3, im_w_tol=1e-18)
    # the message names the time of the worst |Im W| on the dense grid
    traj = integrate_metric(MetricState(0.2, 1.0), drive, 1.0, 1e-3, im_w_tol=1.0)
    worst = traj.dense_times[np.argmax(np.abs(traj.w.imag))]
    assert str(info.value).startswith(f"t={worst:.6g}: max |Im W| = ")


def test_trajectory_accessors(gentle_traj):
    i = 700
    j = i * gentle_traj.stride
    s = gentle_traj.state_at(i)
    assert s.phi_cap == gentle_traj.phi[j]
    assert s.vtheta_zero == gentle_traj.vtheta0[j]
    assert gentle_traj.times[i] == pytest.approx(gentle_traj.dense_times[j], abs=1e-12)
    dphi, dth0 = gentle_traj.dphi[j], gentle_traj.dvtheta0[j]
    omega, alpha, beta = gentle_traj.omega[j], gentle_traj.alpha[j], gentle_traj.beta[j]
    h = su11_operator(16, 2 * omega, 2 * alpha, 2 * beta)
    assert np.array_equal(gentle_traj.h_bands(i, 16), h.bands)
    ref = metric_rhs(s.phi_cap, s.vtheta_zero, omega.imag, beta.imag)
    assert dphi == pytest.approx(ref[0], abs=1e-14)
    assert dth0 == pytest.approx(ref[1], abs=1e-14)


@pytest.mark.parametrize("level", [-1, 64])
def test_assembly_rejects_a_level_outside_the_basis(gentle_traj, level):
    traj = dataclasses.replace(
        gentle_traj,
        superposition={level: 1.0, 1: 1.0},
        phases={level: gentle_traj.phases[0], 1: gentle_traj.phases[1]},
    )
    with pytest.raises(DomainError, match=r"levels \[.*\] out of range for dim 64"):
        assemble_solution(traj, 0, 64)


def test_every_level_a_run_reads_is_a_kept_column_of_rho_inverse(gentle_traj):
    """At every dim a scenario allows and for every top tracked level it
    allows there (at most dim/4), the columns of rho^-1 kept for the run
    hold its tracked levels, the Rayleigh levels and the cross-representation
    levels. The cross-representation check widens the columns for a level
    above them, and names a level outside the basis as a DomainError.
    Assembly keeps the columns of the levels it assembles."""
    demo = demo_scenarios()["demo_td"]
    for dim in (7, 257):
        with pytest.raises(ConfigError, match="dim"):
            parse_scenario(json.dumps({**demo, "dim": dim}))
    for dim in range(8, 257):
        parse_scenario(json.dumps({**demo, "dim": dim, "quantum_numbers": [0, dim // 4]}))
        with pytest.raises(ConfigError, match="dim/4"):
            parse_scenario(json.dumps({**demo, "dim": dim, "quantum_numbers": [0, dim // 4 + 1]}))
        read = (min(RAYLEIGH_MAX_N, dim // 4), min(CROSS_REP_MAX_N, dim - 1))
        for top in range(dim // 4 + 1):
            assert max(top, *read) < rho_inverse_columns(dim, top) <= dim
    s = gentle_traj.state_at(0)
    for top in (0, 1, 16):
        kept = rho_inverse_columns(64, top)
        assert kept == max(top, 6) + 1
        for level in (-1, 64):
            with pytest.raises(DomainError, match=f"level {level} out of range for dim 64"):
                cross_representation_residual(s, level, 64, top)
    wide = cross_representation_residual(s, 16, 64, 16)
    assert wide < 1e-6 and cross_representation_residual(s, 16, 64) == wide
    traj = dataclasses.replace(
        gentle_traj,
        superposition={16: 1.0, 1: 1.0},
        phases={16: gentle_traj.phases[0], 1: gentle_traj.phases[1]},
    )
    columns = build_rho_inverse(s, 64, 16)
    want = columns[:, 16] * np.exp(1j * gentle_traj.phases[0][0])
    want = want + columns[:, 1] * np.exp(1j * gentle_traj.phases[1][0])
    assert np.array_equal(assemble_solution(traj, 0, 64), want)


def test_assembled_solution_copy_is_writable(gentle_traj):
    v = assemble_solution(gentle_traj, 0, 64)
    v[0] = 0.0  # callers own the returned vector


def _demo_td_flow(t_max: float):
    cfg = parse_scenario(json.dumps(dict(demo_scenarios()["demo_td"], t_max=t_max)))
    return MetricState(cfg.phi0, cfg.vtheta0), cfg.profiles, cfg.t_max, cfg.dt


@pytest.mark.parametrize("t_max", [0.4, 0.512], ids=["3-blocks-and-a-part", "4-whole-blocks"])
def test_the_flow_in_blocks_matches_the_whole_horizon_loop(monkeypatch, t_max):
    """integrate_metric turns its stage samples into floats FLOW_BLOCK
    substeps at a time; (Phi, vtheta0) on the half-step grid, which W is
    computed from, equal the whole-horizon loop's bit for bit."""
    initial, drive, t_max, dt = _demo_td_flow(t_max)
    assert round(t_max / dt) * STRIDE >= 3 * FLOW_BLOCK
    seen = []

    def recording(phi, vtheta0, *args):
        seen.append((phi.copy(), vtheta0.copy()))
        return transformed_frequency(phi, vtheta0, *args)

    monkeypatch.setattr(phinv.model, "transformed_frequency", recording)
    traj = integrate_metric(initial, drive, t_max, dt)
    phi, th0 = whole_horizon_flow(initial, drive, t_max, dt)
    assert len(seen) == 1
    np.testing.assert_array_equal(seen[0][0], phi)
    np.testing.assert_array_equal(seen[0][1], th0)
    np.testing.assert_array_equal(traj.phi, phi[::2])
    np.testing.assert_array_equal(traj.vtheta0, th0[::2])


def test_the_flow_holds_one_block_of_samples_as_floats():
    """Over demo_td's horizon the whole horizon's stage samples as Python
    tuples took integrate_metric's traced peak to 44.5 MB; a block at a
    time it is 20.1 MB."""
    args = _demo_td_flow(5.0)
    tracemalloc.start()
    try:
        integrate_metric(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2**20


def test_each_report_state_is_built_once(gentle_traj):
    """state_at hands out one MetricState per report index, for an int and
    a numpy integer alike; an index out of range is still a DomainError,
    and a trajectory copied with another metric builds its own states."""
    traj = dataclasses.replace(gentle_traj)
    s = traj.state_at(700)
    assert traj.state_at(700) is s and traj.state_at(np.int64(700)) is s
    assert (s.phi_cap, s.vtheta_zero) == (traj.phi[700 * STRIDE], traj.vtheta0[700 * STRIDE])
    for bad in (-1, traj.n_times, np.int64(traj.n_times)):
        with pytest.raises(DomainError, match=f"time index {bad} out of range"):
            traj.state_at(bad)
    scaled = dataclasses.replace(traj, phi=1.01 * traj.phi)
    assert scaled.state_at(700).phi_cap == 1.01 * traj.phi[700 * STRIDE]
    assert traj.state_at(700) is s


def test_assembly_over_an_index_array_is_each_index_alone(gentle_traj):
    """assemble_solution at an array of report indices, unsorted, repeated
    or 2-d, gives each index's state bit for bit, with complex weights on
    three levels."""
    traj = dataclasses.replace(
        gentle_traj,
        superposition={1: 0.6 - 0.2j, 0: 1 / np.sqrt(2), 3: -0.3j},
        phases={1: gentle_traj.phases[1], 0: gentle_traj.phases[0],
                3: 1.7 * gentle_traj.phases[1]},
    )
    idx = np.array([17, 0, 4999, 17, 2500, 5000, 3])
    got = assemble_solution(traj, idx, 64)
    assert got.shape == (len(idx), 64) and got.dtype == complex
    for i, row in zip(idx.tolist(), got):
        assert np.array_equal(row, assemble_solution(traj, i, 64)), i
    assert np.array_equal(assemble_solution(traj, idx.reshape(7, 1), 64), got.reshape(7, 1, 64))
    assert assemble_solution(traj, np.int64(3), 64).shape == (64,)
    with pytest.raises(DomainError, match="time index 5001 out of range"):
        assemble_solution(traj, np.array([0, 5001]), 64)


def test_the_full_step_and_the_first_half_step_share_their_first_rates(monkeypatch):
    """Each substep takes eleven flow rates, not twelve: the full step and
    the first half step start from the same (Phi, vtheta0, t). One more
    call takes the rates on the whole half-step grid."""
    calls = []

    def counting(*args):
        calls.append(args)
        return metric_rhs(*args)

    monkeypatch.setattr(phinv.model, "metric_rhs", counting)
    initial, drive, t_max, dt = _demo_td_flow(0.05)
    integrate_metric(initial, drive, t_max, dt)
    substeps = round(t_max / dt) * STRIDE
    assert len(calls) == 11 * substeps + 1
