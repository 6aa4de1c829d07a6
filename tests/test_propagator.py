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
    DEFAULT_TOLERANCES,
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
from phinv.fock import BandOperator, k0_operator, su11_bands
from phinv.model import hamiltonian_coeffs
from phinv.propagator import (
    _fd4_richardson,
    _per_report_time,
    _richardson,
    hamiltonian_source,
    sorted_distinct,
    transformed_generator_source,
)


def test_zero_hamiltonian_keeps_state():
    psi0 = basis_state(16, 2).astype(complex)
    for zero in (k0_operator(16, 0.0), BandOperator(np.zeros((3, 16), dtype=complex))):
        out = propagate(lambda t: zero, psi0, np.linspace(0.0, 1.0, 101))
        assert np.max(np.abs(out - psi0[None, :])) <= 1e-14
        assert out.shape == (101, 16)


def test_constant_diagonal_hamiltonian_phases():
    h = lambda t: k0_operator(16, 2.0)
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
    h = lambda t: k0_operator(8, 0.0)
    bad = np.array([0.0, 0.1, 0.3, 0.35])
    with pytest.raises(ValueError):
        propagate(h, basis_state(8, 0).astype(complex), bad)


def test_instability_detected():
    """Pure gain, the norm growing as exp((n + 1/2) t), as a diagonal
    BandOperator and as three bands with empty +-2 rows: both stop at the
    step, and with the message, of the step-by-step loop under the dense
    matrix."""
    ops = cached_operator_set(64)
    psi0 = basis_state(64, 63).astype(complex)
    times = np.linspace(0.0, 1.0, 101)
    with pytest.raises(InstabilityError) as loop:
        propagate_loop(lambda t: 2j * ops.k_zero, psi0, times)
    assert 0.1 <= loop.value.time <= 0.35
    # The step is inside a block, whose later steps propagate takes first.
    step = round(loop.value.time / (0.01 / 8)) - 1
    assert step % phinv.propagator.STEP_BLOCK not in (0, phinv.propagator.STEP_BLOCK - 1)
    gain = k0_operator(64, 2j)
    three = BandOperator(np.concatenate([gain.bands, np.zeros((2, 64))]))
    for banded in (gain, three):
        with pytest.raises(InstabilityError) as got:
            propagate(lambda t: banded, psi0, times)
        assert (got.value.time, str(got.value)) == (loop.value.time, str(loop.value))


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
    assert worst <= DEFAULT_TOLERANCES["dyson"]


def test_dyson_residual_catches_corrupted_metric(gentle_traj):
    clean = dyson_residual(gentle_traj, 2500, 64)
    corrupted = dataclasses.replace(gentle_traj, phi=1.01 * gentle_traj.phi)
    assert dyson_residual(corrupted, 2500, 64) >= 1e3 * max(clean, 1e-12)


def test_the_one_pass_stencil_is_the_richardson_combination_to_rounding():
    """The Dyson meter's time derivative, one weighted sum of differences,
    is the two-stencil Richardson combination on a smooth stack up to a few
    rounding units of the stack's entries over h, both are the derivative
    to the stencils' order, and rows equal in time give exactly 0."""
    h = 1e-3
    t = 0.3 + h * np.arange(24)
    a, b = np.random.default_rng(5).normal(size=(2, 2, 7, 7))
    t = t[:, None, None, None]
    v = np.sin(3 * t) * a + np.exp(-t) * b
    got, want = _richardson(v, h), _fd4_richardson(v, h)
    assert got.shape == want.shape == (16, 2, 7, 7)
    assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps * np.max(np.abs(v)) / h
    exact = (3 * np.cos(3 * t) * a - np.exp(-t) * b)[4:-4]
    assert np.max(np.abs(got - exact)) <= 1e-11
    assert not _richardson(np.full((9, 3), 0.7), h).any()


def test_dyson_residual_reads_the_hermitian_generator(gentle_traj):
    """The Dyson meter checks i rho' = h rho - rho H with h = -2 W K0 read
    from the trajectory, so a W off by 1e-6 or by 1e-5 fails it at the
    default tolerance, reading that error, and h with its sign flipped
    reads about 2. The metric flow relation for eta alone never reads W."""
    idx = np.arange(4, gentle_traj.n_times - 4, 97)
    tol = DEFAULT_TOLERANCES["dyson"]
    assert tol == 1e-10
    assert np.max(dyson_residual(gentle_traj, idx, 64)) <= 1e-12
    for off in (1e-6, 1e-5):
        scaled = dataclasses.replace(gentle_traj, w=(1 + off) * gentle_traj.w)
        worst = np.max(dyson_residual(scaled, idx, 64))
        assert tol < worst <= 1.01 * off
    flipped = dataclasses.replace(gentle_traj, w=-gentle_traj.w)
    assert np.min(dyson_residual(flipped, idx, 64)) >= 1.9


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
        # A time between two rows of the table the first read builds.
        src(float(gentle_traj.times[3]))
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


@pytest.mark.parametrize("dim", [16, 64, 192])
def test_tabled_sources_give_each_half_step_row_bit_for_bit(gentle_traj, dim):
    """Every half-step row the two sources hand out, read forwards across
    several tables and then with jumps back and ahead, is su11_bands or
    k0_operator at that index alone, bit for bit, and read-only; an RK4
    step's two reads of t + h/2 get the same operator."""
    traj = gentle_traj
    coeffs = hamiltonian_coeffs(traj.half_omega, traj.half_alpha, traj.half_beta)
    w_re = traj.half_w.real
    sources = (
        (hamiltonian_source(traj, dim), lambda j: su11_bands(coeffs[j], dim), 3 * dim * 16),
        (transformed_generator_source(traj, dim),
         lambda j: k0_operator(dim, -2.0 * w_re[j]).bands, dim * 8),
    )
    for src, want, row_bytes in sources:
        rows = max(1, phinv.propagator.TABLE_BYTES // row_bytes)
        order = list(range(3 * rows + 2)) + [0, len(traj.half_times) - 1, rows - 1, rows, 5]
        for j in order:
            t = float(traj.half_times[j])
            got = src(t)
            assert np.array_equal(got.bands, want(j)), j
            assert got.bands.dtype == want(j).dtype
            assert not got.bands.flags.writeable
            with pytest.raises(ValueError):
                got.bands[0, 0] = 0.0
            assert src(t) is got


def test_a_tabled_source_builds_a_row_it_skips_to_alone():
    """A read that follows the table's last row builds the next TABLE_BYTES
    of rows; one that skips rows, as the convergence probe's coarse steps
    read, builds its own row alone, so the block of operators propagate
    holds keeps no table of rows it skipped alive."""
    built = []

    def rows(lo, hi):
        built.append((lo, hi))
        return np.arange(lo, hi, dtype=float)[:, None, None] * np.ones((1, 3, 4))

    src = phinv.propagator._tabled(int, rows)
    size = phinv.propagator.TABLE_BYTES // (3 * 4 * 8)
    built.clear()
    skip = 2 * size + 100
    reads = [0, 1, size - 1, size, size + 1, skip, skip, skip + 1, skip + 2, 5 * size, 3]
    assert [src(t).bands[0, 0] for t in reads] == reads
    assert built == [
        (0, size), (size, 2 * size), (skip, skip + 1), (skip + 1, skip + 1 + size),
        (5 * size, 5 * size + 1), (3, 4),
    ]


def _time_dependent_bands(dim: int, seed: int):
    """H(t) as three complex bands that vary in time, with the +-2 rows'
    last two slots zero as BandOperator stores them."""
    rng = np.random.default_rng(seed)
    bands = 0.3 * (rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim)))
    bands[1:, -2:] = 0.0
    return lambda t: bands * (1.0 + 0.5 * np.sin(3.0 * t))


@pytest.mark.parametrize("substeps", [8, 3])
def test_propagate_is_the_step_by_step_loop_for_band_and_dense_generators(substeps):
    """Over a run of steps that is not a whole number of blocks, a
    three-row BandOperator is stepped bit for bit as the loop steps it, and
    to rounding as the loop steps the same operator as a dense matrix."""
    bands_at = _time_dependent_bands(12, substeps)
    times = np.linspace(0.0, 0.7, 15)
    assert (len(times) - 1) * substeps % phinv.propagator.STEP_BLOCK
    rng = np.random.default_rng(1)
    psi0 = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    band = lambda t: BandOperator(bands_at(t))
    got = propagate(band, psi0, times, substeps=substeps)
    assert np.array_equal(got, propagate_loop(band, psi0, times, substeps=substeps))
    dense = propagate_loop(lambda t: band(t).dense(), psi0, times, substeps=substeps)
    assert np.max(np.linalg.norm(got - dense, axis=1) / np.linalg.norm(dense, axis=1)) <= 1e-13


def test_propagate_rejects_a_generator_it_cannot_step():
    """H(t) must be a BandOperator of one or three rows, the same at every
    call: a dense matrix, five rows, or one row that turns into three at
    t = 0.5 (the first block of 32 steps ends at t = 0.4) raise a TypeError
    naming what H(t) gave."""
    psi0 = basis_state(12, 0).astype(complex)
    times = np.linspace(0.0, 1.0, 11)
    one = k0_operator(12, 1.0)
    three = BandOperator(np.concatenate([one.bands, np.zeros((2, 12))]))
    five = BandOperator(np.concatenate([three.bands, np.zeros((2, 12))]))
    switching = lambda t: one if t < 0.5 else three
    for h_of_t, named in (
        (lambda t: one.dense(), "got ndarray"),
        (lambda t: five, "got 5-row BandOperator"),
        (switching, "got 1-row BandOperator, 3-row BandOperator"),
    ):
        with pytest.raises(TypeError, match=named):
            propagate(h_of_t, psi0, times)


@pytest.mark.parametrize("rows", [3, 1])
def test_each_kernel_on_stacked_bands_is_the_step_by_step_loop(rows):
    """_steps (three rows) and _diagonal_steps (one row), called on a
    (4 steps, rows, dim) stack of H's bands at the stage times t, t + h/2
    twice and t + h, with no H(t) to call, give the loop's states: bit for
    bit for three rows, to 1e-13 relative for the running product of one
    row's per-level factors."""
    bands_at = _time_dependent_bands(12, rows)
    if rows == 1:
        bands_at = lambda t, full=bands_at: full(t)[:1]
    times = np.linspace(0.0, 0.7, 41)
    h = list(np.diff(times))
    stages = [s for tk, hk in zip(times, h) for s in (tk, tk + 0.5 * hk, tk + 0.5 * hk, tk + hk)]
    rng = np.random.default_rng(2)
    psi0 = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    out = np.empty((len(h), 12), dtype=complex)
    kernel = phinv.propagator._steps if rows == 3 else phinv.propagator._diagonal_steps
    kernel(np.stack([bands_at(s) for s in stages]), h, psi0, out)
    want = propagate_loop(lambda t: BandOperator(bands_at(t)), psi0, times, substeps=1)[1:]
    if rows == 3:
        assert np.array_equal(out, want)
    else:
        assert np.max(np.linalg.norm(out - want, axis=1) / np.linalg.norm(want, axis=1)) <= 1e-13


def test_meter_sub_blocks_hold_at_most_64_kb():
    """The metric meters' sub-blocks of report times hold (times, 2, m, m)
    float64 stacks of at most 64 KB, one report time where one alone holds
    more, and no fewer report times than fit."""
    for dim in range(8, 257):
        m = (dim + 1) // 2
        per_time = 2 * m * m * 8
        size = phinv.propagator._sub_block(dim)
        assert size * per_time <= 64 * 1024 or size == 1
        assert (size + 1) * per_time > 64 * 1024
    assert [phinv.propagator._sub_block(d) for d in (16, 64, 65, 128, 192)] == [64, 4, 3, 1, 1]


@pytest.mark.parametrize("dim", [16, 64])
def test_metric_meters_do_not_depend_on_their_sub_blocks(gentle_traj, dim, monkeypatch):
    """Dyson and the Hermitian image read the same values, bit for bit,
    whether they run a report time at a time, in 64 KB sub-blocks, or over
    whole windows at once."""
    idx = np.arange(4, 60)
    got = [dyson_residual(gentle_traj, idx, dim), hermitian_image_check(gentle_traj, idx, dim)]
    for size in (1, 1 << 30):
        monkeypatch.setattr(phinv.propagator, "SUB_BLOCK_BYTES", size)
        assert np.array_equal(dyson_residual(gentle_traj, idx, dim), got[0])
        assert np.array_equal(hermitian_image_check(gentle_traj, idx, dim), got[1])
