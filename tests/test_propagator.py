import dataclasses
import json
import re

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from support import (
    HARMONIC_DRIVE,
    basis_state,
    cached_operator_set,
    coeffs_at,
    dense_dyson_residual,
    dense_hamiltonian,
    dense_hermitian_image_check,
    dense_invariant_residual,
    propagate_loop,
    su11_operator,
)

from phinv import (
    DomainError,
    InstabilityError,
    MetricState,
    assemble_solution,
    build_eta,
    build_rho,
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
    tail_support,
)
import phinv.propagator
from phinv.fock import BandOperator, k0_operator
from phinv.model import hamiltonian_coeffs
from phinv.propagator import (
    _per_report_time,
    hamiltonian_source,
    sorted_distinct,
    transformed_generator_source,
)


def test_zero_hamiltonian_keeps_state():
    h = lambda t: np.zeros((16, 16), dtype=complex)
    psi0 = basis_state(16, 2).astype(complex)
    out = propagate(h, psi0, np.linspace(0.0, 1.0, 101))
    assert np.max(np.abs(out - psi0[None, :])) <= 1e-14
    assert out.shape == (101, 16)


def test_constant_diagonal_hamiltonian_phases():
    ops = cached_operator_set(16)
    h = lambda t: 2.0 * ops.k_zero
    psi0 = (basis_state(16, 0) + basis_state(16, 3)).astype(complex) / np.sqrt(2)
    out = propagate(h, psi0, np.linspace(0.0, 1.0, 1001))
    expected = (
        np.exp(-0.5j) * basis_state(16, 0) + np.exp(-3.5j) * basis_state(16, 3)
    ) / np.sqrt(2)
    assert np.linalg.norm(out[-1] - expected) <= 1e-9


def _eta_norms(traj, states):
    """<psi|eta(t)|psi> of states propagated over the first report times."""
    return np.array([
        float(np.real(np.vdot(v, build_eta(traj.state_at(i), 64) @ v)))
        for i, v in enumerate(states)
    ])


def test_propagated_states_diagnostics(gentle_traj):
    h = hamiltonian_source(gentle_traj, 64)
    psi0 = assemble_solution(gentle_traj, 0, 64)
    out = propagate(h, psi0, gentle_traj.times[:201])
    assert out.shape == (201, 64)
    norms = _eta_norms(gentle_traj, out)
    assert np.max(np.abs(norms - norms[0])) <= 1e-7
    assert max(tail_support(v) for v in out) <= 1e-12
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
    # The same gain as a diagonal BandOperator takes the block path, and
    # stops at the same step with the same message.
    with pytest.raises(InstabilityError) as banded:
        propagate(lambda t: k0_operator(64, 2j), psi0, np.linspace(0.0, 1.0, 101))
    assert banded.value.time == info.value.time
    assert str(banded.value) == str(info.value)


def test_banded_path_is_the_step_by_step_loop(gentle_traj):
    h = hamiltonian_source(gentle_traj, 64)
    psi0 = assemble_solution(gentle_traj, 0, 64)
    times = gentle_traj.times[:201]
    assert np.array_equal(propagate(h, psi0, times), propagate_loop(h, psi0, times))


def test_diagonal_path_agrees_with_the_step_by_step_loop(gentle_traj):
    """The running product of per-level factors rounds differently from the
    loop's stage sums; over the 40,000 steps of the full horizon the two
    stay within 1e-13 of each other, relative to the state."""
    h = transformed_generator_source(gentle_traj, 64)
    psi0 = build_rho(gentle_traj.state_at(0), 64) @ assemble_solution(gentle_traj, 0, 64)
    got = propagate(h, psi0, gentle_traj.times)
    want = propagate_loop(h, psi0, gentle_traj.times)
    rel = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
    assert np.max(rel) <= 1e-13
    # The same number of H(t) calls: four per RK4 step.
    calls = []
    propagate(lambda t: calls.append(t) or h(t), psi0, gentle_traj.times[:11])
    assert len(calls) == 4 * 8 * 10


def test_convergence_probe_fourth_order(gentle_traj):
    h = hamiltonian_source(gentle_traj, 64)
    psi0 = assemble_solution(gentle_traj, 0, 64)
    ratio, order = convergence_probe(h, psi0, gentle_traj.times[:501:25], substeps=2)
    assert ratio >= 12.0
    assert 3.5 <= order <= 4.5


def test_finite_difference_stencil_bounds(gentle_traj, gentle_states):
    for bad in (0, 1, gentle_traj.n_times - 2, gentle_traj.n_times - 1):
        with pytest.raises(DomainError, match=rf"time index {bad} needs \+-2 grid points"):
            schrodinger_residual(gentle_traj, gentle_states, bad, 64)
    for bad in (3, gentle_traj.n_times - 4):
        with pytest.raises(DomainError, match=rf"time index {bad} needs \+-4 grid points"):
            dyson_residual(gentle_traj, bad, 64)
        with pytest.raises(DomainError, match=rf"time index {bad} needs \+-4 grid points"):
            invariant_residual(gentle_traj, bad, 64)


def test_schrodinger_residual_on_assembled_states(gentle_traj, gentle_states):
    for i in (2, 700, 2500, 4200, gentle_traj.n_times - 3):
        assert schrodinger_residual(gentle_traj, gentle_states, i, 64) <= 1e-10


def test_schrodinger_residual_catches_scaled_phases(gentle_traj, gentle_states):
    scaled = dataclasses.replace(
        gentle_traj, phases={n: 1.1 * g for n, g in gentle_traj.phases.items()}
    )
    # Only the rows of index 4's stencil are read.
    states = np.zeros((gentle_traj.n_times, 64), dtype=complex)
    states[:9] = [assemble_solution(scaled, i, 64) for i in range(0, 9)]
    assert schrodinger_residual(gentle_traj, states, 4, 64) > 1e-2


def test_dyson_residual_static_and_driven(gentle_traj, harmonic_traj):
    static = integrate_metric(
        MetricState(0.0, float(np.exp(2.0))), HARMONIC_DRIVE, 1.0, 1e-3,
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
        MetricState(0.0, float(np.exp(2.0))), HARMONIC_DRIVE, 1.0, 1e-3,
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
    bad = MetricState(1.01 * s.phi_cap, s.vtheta_zero)
    monkeypatch.setattr(phinv.propagator, "build_eta", lambda g, dim: build_eta(bad, dim))
    assert hermitian_image_check(gentle_traj, 2500, 64) >= 1e3 * max(clean, 1e-15)


def test_short_horizon_oracle_agreement(gentle_traj):
    h = hamiltonian_source(gentle_traj, 64)
    psi0 = assemble_solution(gentle_traj, 0, 64)
    times = gentle_traj.times[:501]
    out = propagate(h, psi0, times)
    worst_overlap = worst_vector = 0.0
    for i in (100, 250, 500):
        psi = out[i]
        ref = assemble_solution(gentle_traj, i, 64)
        eta_i = build_eta(gentle_traj.state_at(i), 64)
        num = abs(psi.conj() @ (eta_i @ ref))
        den = np.sqrt(
            (psi.conj() @ (eta_i @ psi)).real * (ref.conj() @ (eta_i @ ref)).real
        )
        worst_overlap = max(worst_overlap, abs(1.0 - num / den))
        worst_vector = max(worst_vector, float(np.max(np.abs(psi - ref))))
    assert worst_overlap <= 1e-6
    # agreement holds vector by vector, with no phase alignment applied
    assert worst_vector <= 1e-5
    norms = _eta_norms(gentle_traj, out)
    assert np.max(np.abs(norms - norms[0])) <= 1e-7


def test_hermitian_side_transport(gentle_traj, gentle_states, harmonic_traj):
    worst = hermitian_side_check(gentle_traj, gentle_states, 64)
    assert worst <= 1e-6
    states = np.array(
        [assemble_solution(harmonic_traj, i, 64) for i in range(harmonic_traj.n_times)]
    )
    assert hermitian_side_check(harmonic_traj, states, 64) <= 1e-10


def test_hermitian_side_check_names_the_time_of_a_non_finite_mismatch():
    cfg = parse_scenario(json.dumps(dict(demo_scenarios()["demo_td"], dim=16, t_max=0.05)))
    traj = integrate_metric(
        MetricState(cfg.phi0, cfg.vtheta0),
        cfg.profiles,
        cfg.t_max,
        cfg.dt,
        superposition=dict(zip(cfg.quantum_numbers, cfg.superposition)),
    )
    states = np.array([assemble_solution(traj, i, 16) for i in range(traj.n_times)])
    assert hermitian_side_check(traj, states, 16) <= 1e-12
    # max() would keep the clean value past a NaN mismatch.
    states[30, 5] = np.nan
    with pytest.raises(DomainError, match="t=0.03:"):
        hermitian_side_check(traj, states, 16)


def test_transformed_generator_is_scaled_number_operator(gentle_traj, ops64):
    gen = transformed_generator_source(gentle_traj, 64)
    t = float(gentle_traj.times[700])
    w_re = gentle_traj.w[700 * gentle_traj.stride].real
    assert np.linalg.norm(gen(t).dense() + 2.0 * w_re * ops64.k_zero) <= 1e-10


@pytest.fixture(scope="module")
def demo_td_traj():
    """demo_td's metric flow to t_max = 1.0 (1001 report times)."""
    doc = demo_scenarios()["demo_td"]
    cfg = parse_scenario(json.dumps(dict(doc, t_max=1.0)))
    return integrate_metric(MetricState(cfg.phi0, cfg.vtheta0), cfg.profiles, cfg.t_max, cfg.dt)


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


@pytest.mark.parametrize("dim", [16, 17, 64])
def test_stacked_meters_match_their_per_index_calls(gentle_traj, dim):
    """An index array spanning several windows, with sparse, unordered and
    repeated entries, gives each index's single-call value, bit for bit."""
    n = 401
    # The Schrödinger cases read rows 0 .. n - 1 only.
    states = np.zeros((gentle_traj.n_times, dim), dtype=complex)
    states[:n] = [assemble_solution(gentle_traj, i, dim) for i in range(n)]
    cases = (
        (lambda i: schrodinger_residual(gentle_traj, states, i, dim),
         np.r_[np.arange(2, n - 2), 398, 2, 250, 250]),
        (lambda i: invariant_residual(gentle_traj, i, dim),
         np.r_[np.arange(4, n - 4), 4996, 2500, 1000, 4, 1000]),
        # The metric meters' windows hold 32 report times at dims 16 and 17
        # and 16 at dim 64.
        (lambda i: dyson_residual(gentle_traj, i, dim),
         np.r_[np.arange(4, 75), 4996, 2500, 1000, 4, 1000, 37]),
        (lambda i: hermitian_image_check(gentle_traj, i, dim),
         np.r_[np.arange(0, 75), 5000, 2500, 1000, 0, 1000, 37]),
    )
    for meter, idx in cases:
        got = meter(idx)
        assert got.shape == idx.shape
        want = np.array([meter(int(i)) for i in idx])
        assert np.array_equal(got, want), meter
        assert isinstance(meter(int(idx[0])), float)
        assert np.array_equal(meter(idx.reshape(1, -1)), got.reshape(1, -1))
    with pytest.raises(DomainError, match="time index 1 needs "):
        schrodinger_residual(gentle_traj, states, np.array([5, 1, 0]), dim)
    with pytest.raises(DomainError, match="time index 4997 needs "):
        invariant_residual(gentle_traj, np.array([4, 4997]), dim)
    with pytest.raises(DomainError, match="time index 3 needs "):
        dyson_residual(gentle_traj, np.array([10, 3]), dim)
    with pytest.raises(DomainError, match="time index 5001 needs "):
        hermitian_image_check(gentle_traj, np.array([0, 5001]), dim)


@pytest.fixture(scope="module")
def check_traj():
    """A check-mode flow whose alpha and beta vary in time."""
    return integrate_metric(
        MetricState(0.2, 1.0),
        {
            "re_omega": lambda t: 1.0,
            "im_omega": lambda t: 0.1 * np.sin(t),
            "re_alpha": lambda t: 0.1 * np.cos(t),
            "im_alpha": lambda t: 0.05,
            "re_beta": lambda t: -0.3 + 0.2 * t,
            "im_beta": lambda t: -0.02 * np.cos(2 * t),
        },
        0.5,
        1e-3,
    )


def _spline_sources(traj, dim):
    """H(t) and -2 W(t) K0 cubic-splined from the dense grid: the route the
    sources took before they read the half-step grid."""
    om, al, be, w_re = (
        CubicSpline(traj.dense_times, a) for a in (traj.omega, traj.alpha, traj.beta, traj.w.real)
    )

    def h_of_t(t):
        coeffs = hamiltonian_coeffs(complex(om(t)), complex(al(t)), complex(be(t)))
        return su11_operator(dim, *coeffs)

    return h_of_t, lambda t: k0_operator(dim, -2.0 * float(w_re(t)))


@pytest.mark.parametrize("traj_name", ["gentle_traj", "check_traj"])
def test_sources_read_the_half_step_grid(traj_name, request):
    traj = request.getfixturevalue(traj_name)
    dim = 16
    sources = (hamiltonian_source(traj, dim), transformed_generator_source(traj, dim))
    for i in (0, 1, 250, traj.n_times - 1):
        t = float(traj.times[i])
        h, g = (src(t).bands for src in sources)
        assert np.array_equal(h, traj.h_bands(i, dim))
        w_re = traj.w[i * traj.stride].real
        assert np.array_equal(g, k0_operator(dim, -2.0 * w_re).bands)
    # Every midpoint of the first report interval, then a sparse sweep.
    mids = traj.half_times[1::2]
    for t in np.concatenate([mids[:8], mids[8::397], mids[-1:]]):
        for src, spline in zip(sources, _spline_sources(traj, dim)):
            got, want = src(float(t)).bands, spline(float(t)).bands
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), t


@pytest.mark.parametrize("traj_name", ["gentle_traj", "check_traj"])
def test_h_bands_are_the_dense_hamiltonian(traj_name, request):
    """H's bands at a report index, alone or in an index array, hold the
    entries of 2 omega K0 + 2 alpha K- + 2 beta K+ over the dense generators."""
    traj = request.getfixturevalue(traj_name)
    idx = np.array([0, 1, 250, traj.n_times - 1])
    for dim in (16, 17):
        stack = traj.h_bands(idx, dim)
        assert stack.shape == (len(idx), 3, dim)
        for i, bands in zip(idx.tolist(), stack):
            want = dense_hamiltonian(*coeffs_at(traj, i), dim)
            assert np.array_equal(BandOperator(traj.h_bands(i, dim)).dense(), want)
            assert np.array_equal(BandOperator(bands).dense(), want)


@pytest.mark.parametrize("dim", [16, 17, 64])
def test_stacked_h_psi_is_each_time_alone(gentle_traj, dim):
    """H psi formed as one stack over a run of report times longer than a
    meter window equals each time's BandOperator @ state bit for bit."""
    rng = np.random.default_rng(dim)
    idx = np.arange(100, 100 + phinv.propagator.WINDOW + 72)
    shape = (len(idx), dim)
    states = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stacked = BandOperator(gentle_traj.h_bands(idx, dim)) @ states
    assert stacked.shape == states.shape
    for i, psi, got in zip(idx.tolist(), states, stacked):
        assert np.array_equal(got, BandOperator(gentle_traj.h_bands(i, dim)) @ psi)


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


@pytest.mark.parametrize(
    "values",
    [[], 5, [7, 3, 3, 9, 0, 7], [[4, 1], [4, 2]], [2.5, -1.0, 2.5], np.arange(300)[::-1] % 17],
    ids=["empty", "scalar", "repeated", "2-d", "float", "many"],
)
def test_sorted_distinct_is_np_unique(values):
    got, want = sorted_distinct(values), np.unique(values)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize(
    "t_index",
    [7, np.int64(7), [9, 4, 30, 4, 12, 9], np.array([[13, 5], [5, 40]]), []],
    ids=["scalar", "numpy-scalar", "unsorted-repeated", "2-d", "empty"],
)
def test_per_report_time_reads_each_index_once_in_sorted_windows(t_index):
    """A meter's values at unsorted and repeated indices, and at a scalar,
    are its window's values at each index; each distinct index is read once,
    in ascending windows of at most size report times."""
    windows = []

    def window(lo, n):
        windows.append((lo, n))
        return 0.5 * np.arange(lo, lo + n) ** 2

    out = _per_report_time(t_index, 50, 2, window, size=8)
    idx = np.asarray(t_index)
    if idx.ndim == 0:
        assert type(out) is float and out == 0.5 * float(idx) ** 2
    else:
        assert out.shape == idx.shape
        np.testing.assert_array_equal(out, 0.5 * idx.astype(float) ** 2)
    starts = [lo for lo, _ in windows]
    assert starts == sorted(starts) and all(n <= 8 for _, n in windows)
    read = [i for lo, n in windows for i in range(lo, lo + n) if i in np.unique(idx)]
    assert read == sorted(set(np.unique(idx).tolist()))
