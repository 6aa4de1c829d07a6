"""End-to-end acceptance sweep: one test per advertised guarantee.

Each test prints a single ``criterion NN: PASS/FAIL`` line (visible with
``-s``). Five criteria (02, 03, 04, 05, 09) name a steep drive whose own
coefficient constraints hit a pole at t=1.92175: each asserts that the full
run aborts there with the constraint-denominator guard, then checks its
identity on the reachable window [0, 1.9) at the README tolerance, where
the named Hamiltonian exists. Criterion 07 asserts that a float64
interior-block comparison against the dense exponential of the truncated
generator measures truncation, not truth, then checks the factored metric at
the same point against its exact-arithmetic reference. The assertions that
pin a limit (the abort, truncation at dim 64, the uncoverable Gram grid)
document the operating envelope; the identity checks can fail. Every steep
criterion has a paired demonstration test showing the same identity over
the full horizon of a completable drive.
"""

import dataclasses
import json

import numpy as np
import pytest

from phinv import (
    DomainError,
    GuardError,
    MetricState,
    assemble_solution,
    build_eta,
    build_rho,
    build_rho_inverse,
    cross_representation_residual,
    orthonormality_matrix,
    parse_scenario,
    run_scenario,
)
from phinv.fock import interior_norm
from phinv.model import constraint_residuals, integrate_metric, invariant_op
from phinv.position import GaussianShape, PositionGrid, canonical_agreement, canonical_invariant
from phinv.propagator import (
    dyson_residual,
    hermitian_image_check,
    hermitian_side_check,
    invariant_residual,
    propagate,
    schrodinger_residual,
    transformed_generator_source,
)
from phinv.runner import ORACLE_HORIZON, _parse_csv

from support import (
    HARMONIC_DRIVE,
    basis_state,
    cached_operator_set,
    coeffs_at,
    conjugate_k,
    frobenius_distance,
    gauss_params,
    random_metric_states,
    reference_expm,
    uv_coefficients,
)

STEEP_TD = {
    "initial_metric": {"phi_cap": 0.5, "vtheta_zero": 1.0},
    "profiles": {
        "re_omega": {"kind": "constant", "value": 1.0},
        "im_omega": {
            "kind": "sinusoid",
            "offset": 0.0, "amplitude": 0.1, "frequency": 1.0, "phase": 0.0,
        },
        "im_beta": {"kind": "constant", "value": 0.05},
    },
    "quantum_numbers": [0, 1],
    "superposition": [[0.7071067811865476, 0.0], [0.7071067811865476, 0.0]],
}

ABORT_TIME = 1.92175
# report indices (dt = 1e-3) of t = 0.1 .. 1.8, inside the reachable window
# with room for the +-4 point meter stencils
STEEP_INDICES = range(100, 1801, 100)


@pytest.fixture(scope="module")
def steep_traj():
    """STEEP_TD integrated up to t=1.9, short of its pole."""
    return integrate_metric(
        MetricState(0.5, 1.0),
        {
            "re_omega": lambda t: 1.0,
            "im_omega": lambda t: 0.1 * np.sin(t),
            "im_beta": lambda t: 0.05,
        },
        1.9,
        1e-3,
        superposition={0: 1 / np.sqrt(2), 1: 1 / np.sqrt(2)},
    )


@pytest.fixture(scope="module")
def static_traj():
    """Harmonic drive held at the diagonal metric point Phi=0, vtheta0=e^2."""
    return integrate_metric(
        MetricState(0.0, float(np.exp(2.0))), HARMONIC_DRIVE, 1.0, 1e-3,
    )


def say(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def run_steep_td(**overrides):
    doc = {**STEEP_TD, **overrides}
    return run_scenario(parse_scenario(json.dumps(doc)))


def assert_steep_abort() -> GuardError:
    with pytest.raises(GuardError) as info:
        run_steep_td()
    err = info.value
    assert err.guard == "constraint-denominator"
    assert abs(err.time - ABORT_TIME) <= 5e-3
    return err


def check_value(run, name: str) -> float:
    (entry,) = [c for c in run.report["checks"] if c["name"] == name]
    return float(entry["max_residual"])


def window_schrodinger_residual(traj, i: int, dim: int) -> float:
    """Schrodinger residual of the assembled solution at report index i,
    from the five states of its stencil (as run_scenario measures it)."""
    states = np.zeros((traj.n_times, dim), dtype=complex)
    states[i - 2 : i + 3] = [assemble_solution(traj, j, dim) for j in range(i - 2, i + 3)]
    return schrodinger_residual(traj, states, i, dim)


def test_criterion_01_harmonic_limit(harmonic_run):
    cols = _parse_csv(harmonic_run.csv_text)
    worst_gamma = max(
        float(np.max(np.abs(cols[f"gamma_{n}"] + (n + 0.5) * cols["t"])))
        for n in range(7)
    )
    assert worst_gamma <= 1e-9

    ops = cached_operator_set(64)
    mix = sum(basis_state(64, n) for n in range(7)).astype(complex) / np.sqrt(7)
    times = np.linspace(0.0, 5.0, 5001)
    out = propagate(lambda t: 2.0 * ops.k_zero, mix, times, substeps=8)
    worst_state = 0.0
    for i in (1000, 2500, 5000):
        analytic = sum(
            np.exp(-1j * (n + 0.5) * times[i]) * basis_state(64, n) for n in range(7)
        ) / np.sqrt(7)
        worst_state = max(worst_state, float(np.max(np.abs(out[i] - analytic))))
    assert worst_state <= 1e-9
    say(1, True, f"gamma_n within {worst_gamma:.1e}, RK4 vs analytic {worst_state:.1e}")


def test_criterion_02_steep_td_schrodinger(steep_traj):
    """The named drive starts at Phi=0.5, vtheta0=1, where the constraint
    denominator 2 Phi^2 - vtheta0 = -0.5, and its im_beta > 0 pushes Phi
    upward until the denominator crosses zero at t=1.92175. There the
    constrained Re beta and Re alpha diverge, so the named Hamiltonian stops
    existing and the run aborts with the constraint-denominator guard
    instead of emitting poisoned numbers. No program gets past that point.

    Before the pole the solution exists and is checked. At dim 64 the
    residual is truncation-limited already at t=0.1 (2.7e-3): it falls with
    dim (9.3e-7 at 128, 2.5e-10 at 192, 4.0e-12 at 256) while tail_support
    stays below 2e-12, so the tail guard does not see it. The identity is
    therefore checked at dim 256, the config maximum, over the direct
    oracle's window [0, ORACLE_HORIZON]. On the completable drive
    (Phi0=0.2, im_beta=-0.02) it holds over the full horizon at dim 64
    (see test_criterion_02_demonstration).
    """
    err = assert_steep_abort()

    n_oracle = int(round(ORACLE_HORIZON / steep_traj.dt))
    fine = {i: window_schrodinger_residual(steep_traj, i, 256)
            for i in (2, *range(50, n_oracle + 1, 50))}
    coarse = window_schrodinger_residual(steep_traj, 100, 64)
    # truncation, not the construction: the residual falls with dim
    assert fine[100] < 1e-6 < coarse
    worst = max(fine.values())
    assert worst <= 1e-6
    say(
        2, True,
        f"abort at t={err.time:.5f}; residual on [0, {ORACLE_HORIZON}] at dim 256 "
        f"max {worst:.1e} (t=0.1: dim 64 {coarse:.1e}, dim 256 {fine[100]:.1e})",
    )


def test_criterion_02_demonstration(td_run, gentle_traj, gentle_states):
    assert check_value(td_run, "schrodinger") <= 1e-6
    assert check_value(td_run, "oracle_overlap") <= 1e-6

    # full-horizon RK4 oracle, run in the Hermitian frame where the flat
    # norm is conserved; plain overlaps there equal eta-overlaps here
    dim = 64
    mapped0 = build_rho(gentle_traj.state_at(0), dim) @ gentle_states[0]
    out = propagate(
        transformed_generator_source(gentle_traj, dim),
        mapped0,
        gentle_traj.times,
        substeps=8,
    )
    end = gentle_traj.n_times - 1
    mapped_ref = build_rho(gentle_traj.state_at(end), dim) @ gentle_states[end]
    psi = out[end]
    num = abs(np.vdot(psi, mapped_ref))
    den = np.sqrt(np.vdot(psi, psi).real * np.vdot(mapped_ref, mapped_ref).real)
    deficit = abs(1.0 - num / den)
    assert deficit <= 1e-6
    say(2, True, f"demonstration: eta-overlap deficit at t=5 is {deficit:.1e}")


def test_criterion_03_steep_td_invariant_conservation(steep_traj):
    """Same drive, same t=1.92175 constraint-denominator abort as criterion
    2. The trajectory exists on [0, 1.92175), and on t = 0.1 .. 1.8 the
    interior-block residual of d(I)/dt - i[I, H] stays near 1e-12 against
    its 5e-6 tolerance; on the completable drive it does so over the full
    horizon (see test_criterion_03_demonstration).
    """
    err = assert_steep_abort()
    worst = max(invariant_residual(steep_traj, i, 64) for i in STEEP_INDICES)
    assert worst <= 5e-6
    say(3, True, f"abort at t={err.time:.5f}; invariant residual before it max {worst:.1e}")


def test_criterion_03_demonstration(td_run):
    worst = check_value(td_run, "invariant")
    assert worst <= 5e-6
    say(3, True, f"demonstration: invariant residual max {worst:.1e}")


def test_criterion_04_steep_td_eigenvalue_constancy(steep_traj):
    """Same drive, same t=1.92175 constraint-denominator abort as criterion
    2. Before it, the spectrum is checked through rho I = 2 K0 rho (the
    hermitian_image meter): that eigen-relation pins the eigenvalues of I at
    n + 1/2 for every t and involves neither eta nor rho^-1.

    The eta-weighted Rayleigh route cannot be resolved at Phi >= 0.5: rho
    and rho^-1 entries reach 1e10 at dim 64 (1e21 at dim 128) and
    |rho^-1 |n>| grows from 1.3 to 140 over n = 0..6, so at t=0 the
    Rayleigh deviation already reads 3e-8 .. 6.1 for n = 0..6 at dim 64 and
    0.85 .. 8.3 at dim 128. On the completable drive the Rayleigh quotients
    sit on n + 1/2 to better than 1e-10 for n <= 6 at every report time
    (see test_criterion_04_demonstration).
    """
    err = assert_steep_abort()
    worst = max(hermitian_image_check(steep_traj, i, 64) for i in STEEP_INDICES)
    assert worst <= 1e-9
    say(4, True, f"abort at t={err.time:.5f}; rho I - 2 K0 rho before it max {worst:.1e}")


def test_criterion_04_demonstration(td_run):
    worst = check_value(td_run, "rayleigh")
    assert worst <= 1e-8
    say(4, True, f"demonstration: Rayleigh deviation max {worst:.1e}")


def test_criterion_05_steep_td_quasi_hermiticity(steep_traj, static_traj):
    """Same drive, same t=1.92175 constraint-denominator abort as criterion
    2. The static half of the claim holds as stated (residual ~4e-16 <= 1e-9
    at the diagonal metric point). The driven half holds before the abort,
    near 1e-13 against 5e-6 on t = 0.1 .. 1.8, and on the completable drive
    over the full horizon (see test_criterion_05_demonstration).
    """
    err = assert_steep_abort()
    static_res = dyson_residual(static_traj, 500, 64)
    assert static_res <= 1e-9
    worst = max(dyson_residual(steep_traj, i, 64) for i in STEEP_INDICES)
    assert worst <= 5e-6
    say(
        5, True,
        f"abort at t={err.time:.5f}; driven before it {worst:.1e}, static {static_res:.1e}",
    )


def test_criterion_05_demonstration(td_run, static_traj):
    worst = check_value(td_run, "dyson")
    assert worst <= 5e-6

    static_res = dyson_residual(static_traj, 500, 64)
    assert static_res <= 1e-9
    say(5, True, f"demonstration: driven {worst:.1e}, static {static_res:.1e}")


def test_criterion_06_eta_unitarity(td_run):
    assert all(abs(c - 2**-0.5) <= 1e-15 for c in td_run.config.superposition)
    drift = check_value(td_run, "eta_norm_drift")
    assert drift <= 1e-7
    say(6, True, f"eta-norm drift {drift:.1e} over the full horizon")


def test_criterion_07_metric_algebra_float64(frozen_disentangle_reference):
    """At dim 64 the exponential of the truncated generator differs at order
    one from the truncation of the exact exponential near the cut: the
    column coefficients (tau/2)^k sqrt((n+2k)!/n!)/k! grow for k up to
    ~tau*(n+2k)/2 before decaying, so for any meaningful coupling the
    interior-block float64 comparison is dominated by truncation physics
    (measured 6.8e15 at (eps,mu)=(0,0.3); direct triple-product conjugation
    5.0e6 for the same reason). Both hazards are asserted, since README
    warns against exactly these comparisons.

    The factored operator itself is checked at the same point: its columns
    0..3 against a 280-digit arbitrary-precision evaluation of the same
    exponential, and the conjugation identities multiplied through by rho
    (rho K - conjugate_k rho), both to relative 1e-12. The demonstration
    repeats both at three more points and shows the float64 comparison
    passing deep inside the block at weak coupling
    (see test_criterion_07_demonstration).
    """
    ops = cached_operator_set(64)
    g = gauss_params(0.0, 0.3)
    gen = 0.6 * (ops.k_minus + ops.k_plus)
    rho = build_rho(g, 64).dense()
    disentangle = frobenius_distance(rho, reference_expm(gen), exclude_top=3)
    direct = frobenius_distance(
        rho @ ops.k_minus @ build_rho_inverse(g, 64).dense(),
        conjugate_k(g, "minus", 64),
        exclude_top=3,
    )
    # not merely above tolerance: catastrophically so, which is the point
    assert disentangle > 1e2
    assert direct > 1e2

    entry = frozen_disentangle_reference["points"]["0.0_0.3"]
    assert (entry["eps"], entry["mu"]) == (0.0, 0.3)
    worst_ref = 0.0
    for n_str, col_strs in entry["cols"].items():
        ref = np.array([float(x) for x in col_strs])
        dev = np.linalg.norm(rho[:, int(n_str)] - ref)
        worst_ref = max(worst_ref, dev / max(1.0, float(np.linalg.norm(ref))))
    assert worst_ref <= 1e-12

    worst_conj = 0.0
    for which, k in (("plus", ops.k_plus), ("zero", ops.k_zero), ("minus", ops.k_minus)):
        closed = conjugate_k(g, which, 64)
        resid = interior_norm(rho @ k - closed @ rho)
        worst_conj = max(worst_conj, resid / max(1.0, interior_norm(closed @ rho)))
    assert worst_conj <= 1e-12
    say(
        7, True,
        f"float64 comparisons against the truncated exponential measure truncation "
        f"(disentangle {disentangle:.1e}, conjugation {direct:.1e}); exact-arithmetic "
        f"anchor {worst_ref:.1e}, multiplied-through conjugations {worst_conj:.1e}",
    )


def test_criterion_07_demonstration(frozen_disentangle_reference, ops64):
    # exact-arithmetic anchor, valid at strong coupling
    worst_ref = 0.0
    for entry in frozen_disentangle_reference["points"].values():
        r = build_rho(gauss_params(entry["eps"], entry["mu"]), 64).dense()
        for n_str, col_strs in entry["cols"].items():
            ref = np.array([float(x) for x in col_strs])
            dev = np.linalg.norm(r[:, int(n_str)].real - ref)
            worst_ref = max(worst_ref, dev / max(1.0, float(np.linalg.norm(ref))))
    assert worst_ref <= 1e-12

    # float64 reference exponential, valid deep inside the block at weak
    # coupling where no transient coefficient growth reaches the cut
    eps, mu = 0.1, 0.02
    gen = 2 * eps * ops64.k_zero + 2 * mu * (ops64.k_minus + ops64.k_plus)
    deep = frobenius_distance(
        build_rho(gauss_params(eps, mu), 64).dense(), reference_expm(gen), exclude_top=40
    )
    assert deep <= 1e-10

    # conjugation identities, multiplied through by rho
    worst_conj = 0.0
    for e, m in ((0.0, 0.3), (0.45, 0.4), (-0.3, 0.25)):
        g = gauss_params(e, m)
        rho = build_rho(g, 64).dense()
        for which, k in (("plus", ops64.k_plus), ("zero", ops64.k_zero), ("minus", ops64.k_minus)):
            closed = conjugate_k(g, which, 64)
            resid = interior_norm(rho @ k - closed @ rho)
            worst_conj = max(worst_conj, resid / max(1.0, interior_norm(closed @ rho)))
    assert worst_conj <= 1e-12

    comm = ops64.k_plus @ ops64.k_minus - ops64.k_minus @ ops64.k_plus
    assert np.max(np.abs((comm + 2 * ops64.k_zero)[:-2, :-2])) <= 1e-12
    say(
        7, True,
        f"demonstration: exact-arithmetic anchor {worst_ref:.1e}, deep block "
        f"{deep:.1e}, conjugations {worst_conj:.1e}",
    )


def test_criterion_08_normalization_and_collapse(gentle_traj):
    worst_norm = 0.0
    for s in random_metric_states(seed=23, count=100):
        phi, chi, th0 = s.phi_cap, s.chi, s.vtheta_zero
        delta1 = -(phi * phi + chi) / th0
        delta3 = -phi / th0
        value = -(delta1 * (phi * phi + chi) - 4 * delta3 * chi * phi) / th0
        worst_norm = max(worst_norm, abs(value - 1.0))
    assert worst_norm <= 1e-12

    worst_uvw = 0.0
    for i in range(0, gentle_traj.n_times, 50):
        j = i * gentle_traj.stride
        u, v = uv_coefficients(
            gentle_traj.state_at(i), coeffs_at(gentle_traj, i),
            gentle_traj.dphi[j], gentle_traj.dvtheta0[j],
        )
        worst_uvw = max(worst_uvw, abs(u), abs(v), abs(gentle_traj.w[j].imag))
    assert worst_uvw <= 1e-10
    say(8, True, f"identity within {worst_norm:.1e}, U/V/Im W within {worst_uvw:.1e}")


def test_criterion_09_steep_td_position_representation(steep_traj):
    """The named drive aborts at t=1.92175 (criterion 2); each position
    check holds on the part of the reachable window where it is defined.

    - canonical: the (x, p) form of the invariant matches the ladder form on
      t = 0 .. 1.8, near 1e-13 against 1e-9.
    - gram: the Gaussian falloff exp_coeff of the eigenfunctions falls from
      0.2 at t=0 to 0.04 at t=1.0 and changes sign near t=1.19, so from
      t~1.1 no grid covers the Gram integrand (edge amplitude 1e-2 at
      t=1.1, 4e64 at t=1.7); a full run_scenario at t_max=1.5 already
      raises DomainError. On t = 0 .. 1.0 the Gram deviation is ~1e-15
      against 1e-6.
    - cross_representation: at the initial state (Phi=0.5) the Fock-route
      eigenvector is truncation-limited at dim 64 (6.9e-3 against 1e-6,
      6e-14 at dim 256), so the route match is checked at dim 256 over the
      direct oracle's window [0, ORACLE_HORIZON], where it stays below 2e-8.

    All three pass over the full horizon of the completable drive
    (see test_criterion_09_demonstration).
    """
    err = assert_steep_abort()

    # the limits: truncation at dim 64, no Gram grid once the falloff fails
    cross0 = max(
        cross_representation_residual(MetricState(0.5, 1.0), n, 64) for n in range(5)
    )
    assert cross0 > 1e-4
    s_late = steep_traj.state_at(1700)
    with pytest.raises(DomainError, match="edge amplitude"):
        shape = GaussianShape.from_state(s_late)
        orthonormality_matrix(5, s_late, PositionGrid.for_shape(shape, n_max=5))

    canon = max(canonical_agreement(steep_traj.state_at(i), 64) for i in range(0, 1801, 100))
    assert canon <= 1e-9

    gram = 0.0
    for i in range(0, 1001, 100):
        s = steep_traj.state_at(i)
        shape = GaussianShape.from_state(s)
        assert shape.exp_coeff > 0
        gram = max(gram, orthonormality_matrix(5, s, PositionGrid.for_shape(shape, n_max=5)))
    assert gram <= 1e-6

    n_oracle = int(round(ORACLE_HORIZON / steep_traj.dt))
    cross = max(
        cross_representation_residual(steep_traj.state_at(i), n, 256)
        for i in range(0, n_oracle + 1, 100)
        for n in range(5)
    )
    assert cross <= 1e-6
    say(
        9, True,
        f"abort at t={err.time:.5f}; before it canonical {canon:.1e}, gram {gram:.1e} "
        f"on [0, 1], cross {cross:.1e} at dim 256 (dim 64 at t=0: {cross0:.1e})",
    )


def test_criterion_09_demonstration(td_run):
    gram = check_value(td_run, "gram")
    canon = check_value(td_run, "canonical")
    cross = check_value(td_run, "cross_representation")
    assert gram <= 1e-6
    assert canon <= 1e-9
    assert cross <= 1e-6
    say(9, True, f"demonstration: gram {gram:.1e}, canonical {canon:.1e}, cross {cross:.1e}")


def test_criterion_10_meter_sensitivity(gentle_traj, gentle_states):
    dim = 64
    i = 2500
    traj = gentle_traj
    s = traj.state_at(i)
    c = coeffs_at(traj, i)
    s_bad = MetricState(s.phi_cap, 1.01 * s.vtheta_zero)
    ratios: dict[str, float] = {}

    def record(name: str, clean: float, corrupted: float) -> None:
        ratios[name] = corrupted / max(clean, 1e-15)

    scaled = dataclasses.replace(traj, phases={n: 1.01 * g for n, g in traj.phases.items()})
    window = np.zeros((traj.n_times, dim), dtype=complex)
    window[i - 2 : i + 3] = [assemble_solution(scaled, j, dim) for j in range(i - 2, i + 3)]
    record(
        "schrodinger",
        schrodinger_residual(traj, gentle_states, i, dim),
        schrodinger_residual(traj, window, i, dim),
    )
    record(
        "invariant",
        invariant_residual(traj, i, dim),
        invariant_residual(dataclasses.replace(traj, vtheta0=1.01 * traj.vtheta0), i, dim),
    )
    record(
        "dyson",
        dyson_residual(traj, i, dim),
        dyson_residual(dataclasses.replace(traj, phi=1.01 * traj.phi), i, dim),
    )
    record(
        "constraint",
        max(constraint_residuals(s.phi_cap, s.vtheta_zero, c.omega, c.alpha, c.beta).values()),
        max(constraint_residuals(
            s.phi_cap, s.vtheta_zero, c.omega, 1.01 * c.alpha, c.beta
        ).values()),
    )

    idx = range(0, 2001, 100)
    etas = {j: build_eta(traj.state_at(j), dim) for j in idx}
    def drift(states_of):
        norms = [float(np.vdot(states_of(j), etas[j] @ states_of(j)).real) for j in idx]
        return max(abs(v - norms[0]) for v in norms)
    record(
        "eta_norm_drift",
        drift(lambda j: gentle_states[j]),
        drift(lambda j: 1.01 * gentle_states[j] if j >= 1000 else gentle_states[j]),
    )

    eta = build_eta(traj.state_at(i), dim)
    inv = invariant_op(s, dim).dense()
    def rayleigh(vec):
        return abs(
            float(np.vdot(vec, eta @ (inv @ vec)).real)
            / float(np.vdot(vec, eta @ vec).real)
            - 3.5
        )
    record(
        "rayleigh",
        rayleigh(build_rho_inverse(s, dim).dense()[:, 3]),
        rayleigh(build_rho_inverse(s_bad, dim).dense()[:, 3]),
    )

    rho = build_rho(s, dim).dense()
    two_k0 = 2 * cached_operator_set(dim).k_zero
    scale = max(1.0, interior_norm(two_k0 @ rho))
    record(
        "hermitian_image",
        hermitian_image_check(traj, i, dim),
        interior_norm(rho @ invariant_op(s_bad, dim).dense() - two_k0 @ rho) / scale,
    )
    record(
        "canonical",
        canonical_agreement(s, dim),
        interior_norm(canonical_invariant(s_bad, dim) - invariant_op(s, dim).dense()),
    )

    # W off by 1 % moves the Hermitian-side generator -2 W K0, not the
    # assembled states it is compared against. The clean reading is RK4 at
    # a step whose error sits below 1e-12; above that the oracle itself is
    # off (an RK4 stage weight changed reads 1.8e-8), which the ratio to a
    # 1 % corruption alone would not show.
    clean_side = hermitian_side_check(traj, gentle_states, dim)
    assert clean_side <= 1e-12, f"hermitian_side reads {clean_side:.2e} on clean data"
    record(
        "hermitian_side",
        clean_side,
        hermitian_side_check(
            dataclasses.replace(traj, half_w=1.01 * traj.half_w), gentle_states, dim
        ),
    )

    weakest = min(ratios, key=ratios.get)
    assert ratios[weakest] >= 1e3, f"{weakest} ratio {ratios[weakest]:.2e}"
    say(10, True, f"{len(ratios)} meters, weakest amplification "
                  f"{ratios[weakest]:.1e} ({weakest})")


def test_criterion_11_determinism(harmonic_run, td_run):
    for run in (harmonic_run, td_run):
        again = run_scenario(run.config)
        assert again.csv_text == run.csv_text
        assert again.report_text == run.report_text
    say(11, True, "demo scenarios reproduce byte-identical artifacts")
