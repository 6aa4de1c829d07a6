"""Generalized Swanson Hamiltonian with a time-dependent metric.

Implements the coefficient constraints that keep the transformed frequency
real, the reduced metric flow, the pseudo-Hermitian invariant, the
transformed frequency W, the phase integrals, and assembly of the exact
solutions sum_n C_n exp(i gamma_n) rho^{-1}|n>.

The constraints, the flow rates and W are each one function of (Phi,
vtheta0) and the coefficients that takes floats or arrays alike; the metric
flow calls them on its whole half-step grid at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .errors import DomainError, GuardError
from .fock import BandOperator, su11_bands
from .metric import build_rho_inverse
from .scenario import CHECK_PROFILES, GENERATOR_PROFILES

# Dense flow steps per report interval. The propagation oracles read H(t)
# and W(t) at their RK4 stage times off the half-step grid, which holds the
# stage times of 1, 2, 4 and 8 RK4 steps per report interval at this stride.
STRIDE = 8
VTHETA_FLOOR = 1e-8
# Substeps of the metric flow whose stage samples are held as Python floats
# at once. Holding all 40,000 of demo_td's took integrate_metric's traced
# peak from 20 MB to 44 MB.
FLOW_BLOCK = 1024
DENOM_FLOOR = 1e-8


@dataclass(frozen=True)
class MetricState:
    """One point of the metric flow: (Phi, vtheta0), with chi derived.

    It fixes the metric completely, and the builders of metric.py take it
    as it stands: the Gauss factors are vtheta_plus = vtheta_minus = -Phi
    and vtheta_zero.
    """

    phi_cap: float
    vtheta_zero: float

    def __post_init__(self):
        if not self.vtheta_zero > 0:
            raise DomainError(
                f"vtheta_zero must be positive, got {self.vtheta_zero}"
            )

    @property
    def chi(self) -> float:
        return self.phi_cap * self.phi_cap - self.vtheta_zero

    @property
    def vtheta_plus(self) -> float:
        return -self.phi_cap

    @property
    def vtheta_minus(self) -> float:
        return -self.phi_cap

    @property
    def constraint_denominator(self) -> float:
        """2 Phi^2 - vtheta0, the denominator of the coefficient constraints."""
        return constraint_denominator(self.phi_cap, self.vtheta_zero)


def hamiltonian_coeffs(omega, alpha, beta) -> np.ndarray:
    """H's coefficients of K0, K- and K+, (2 omega, 2 alpha, 2 beta), on a
    last axis: shape (3,) at one time, (T, 3) over arrays of T times.
    H = omega (a_dag a + 1/2) + alpha a^2 + beta a_dag^2
    = 2 omega K0 + 2 alpha K- + 2 beta K+."""
    return 2 * np.array([omega, alpha, beta]).T


def constraint_denominator(phi, vtheta0):
    """2 Phi^2 - vtheta0, written Phi^2 + chi as the constraints use it."""
    return phi * phi + (phi * phi - vtheta0)


def derive_constrained_coeffs(phi, vtheta0, re_omega, im_omega, im_beta):
    """(omega, alpha, beta) with alpha and Re beta filled so the coefficient
    relations hold identically, for floats or arrays of one shape.

    Re beta = Phi Re omega / (Phi^2 + chi); Re alpha = chi Phi Re omega /
    (Phi^2 + chi); Im alpha = Phi Im omega - chi Im beta (the reality
    condition on the transformed frequency). Raises DomainError if any
    denominator is within DENOM_FLOOR of zero.
    """
    chi = phi * phi - vtheta0
    denom = constraint_denominator(phi, vtheta0)
    if np.any(np.abs(denom) <= DENOM_FLOOR):
        raise DomainError(
            f"constraint denominator |2 Phi^2 - vtheta0| = "
            f"{np.min(np.abs(denom)):.3e} is singular"
        )
    re_beta = phi * re_omega / denom
    re_alpha = chi * phi * re_omega / denom
    im_alpha = phi * im_omega - chi * im_beta
    return (
        re_omega + 1j * im_omega,
        re_alpha + 1j * im_alpha,
        re_beta + 1j * im_beta,
    )


def constraint_residuals(phi, vtheta0, omega, alpha, beta) -> dict:
    """Absolute residuals of the three coefficient relations, multiplied
    through by the constraint denominator (no division), for floats or
    arrays of one shape."""
    chi = phi * phi - vtheta0
    denom = constraint_denominator(phi, vtheta0)
    return {
        "re_beta": abs(beta.real * denom - phi * omega.real),
        "re_alpha": abs(alpha.real * denom - chi * phi * omega.real),
        "im_alpha": abs(alpha.imag - phi * omega.imag + chi * beta.imag),
    }


def metric_rhs(phi, vtheta0, im_omega, im_beta):
    """Reduced metric flow: dPhi = 2 vtheta0 Im beta,
    dvtheta0 = 2 vtheta0 (-Im omega + 2 Phi Im beta), for floats or arrays.

    These are the rates consistent with the defining metric-flow relation
    d(eta)/dt = -i (H^dag eta - eta H), with the coefficient constraints
    used to eliminate Im alpha and the division by Phi.
    """
    return 2 * vtheta0 * im_beta, 2 * vtheta0 * (-im_omega + 2 * phi * im_beta)


def invariant_coeffs(phi, vtheta0) -> np.ndarray:
    """I's coefficients of K0, K- and K+, 2 (delta1, delta2, delta3) with
    delta1 = -(Phi^2+chi)/vtheta0, delta2 = -chi Phi/vtheta0 and
    delta3 = -Phi/vtheta0, on a last axis: shape (3,) at one time, (T, 3)
    over arrays of T times."""
    chi = phi * phi - vtheta0
    return 2 * np.array([-(phi * phi + chi) / vtheta0, -chi * phi / vtheta0, -phi / vtheta0]).T


def invariant_op(s: MetricState, dim: int) -> BandOperator:
    """I = -(2/vtheta0)[(Phi^2+chi) K0 + chi Phi K- + Phi K+]
    = 2 delta1 K0 + 2 delta2 K- + 2 delta3 K+, with real bands."""
    return BandOperator(su11_bands(invariant_coeffs(s.phi_cap, s.vtheta_zero), dim))


def transformed_frequency(phi, vtheta0, omega, alpha, beta, dphi, dvtheta0):
    """The transformed frequency W, from its unsimplified definition (no
    division by Phi), for floats or arrays. W is real along constrained
    trajectories; the phases are gamma_n' = (n + 1/2) W.

    The last division is np.divide, so a scalar divides as an array element
    does (numpy divides a complex number by a real through its reciprocal).
    """
    chi = phi * phi - vtheta0
    return np.divide(
        omega * (phi * phi + chi)
        - 2 * phi * (alpha + beta * chi)
        - 0.5j * (dvtheta0 - 2 * phi * dphi),
        vtheta0,
    )


@dataclass
class MetricTrajectory:
    """Metric flow integrated on a dense grid, with everything derived.

    The report grid is times = dense_times[::stride]; residual meters and the
    CSV live on the report grid while quadrature uses the dense grid. The
    half-step grid (half_*) interleaves the dense grid with the midpoints of
    its substeps, where the flow's step doubling already has the state; it
    holds every RK4 stage time of the propagation oracles, which read H(t)
    and W(t) there by index. The dense-grid arrays (phi, omega, w, ...) are
    views of the even entries of the half-step arrays. The keys of
    superposition are the tracked eigenstates, and phases holds gamma_n on
    the report grid for each of them, in ascending n. state_at builds each
    report index's MetricState once and hands out that object after.
    """

    times: np.ndarray
    dt: float
    stride: int
    dense_times: np.ndarray
    phi: np.ndarray
    vtheta0: np.ndarray
    omega: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    dphi: np.ndarray
    dvtheta0: np.ndarray
    w: np.ndarray
    half_times: np.ndarray
    half_omega: np.ndarray
    half_alpha: np.ndarray
    half_beta: np.ndarray
    half_w: np.ndarray
    mode: str
    superposition: dict[int, complex]
    phases: dict[int, np.ndarray]
    _states: dict[int, MetricState] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def n_times(self) -> int:
        return len(self.times)

    def state_at(self, t_index: int) -> MetricState:
        state = self._states.get(t_index)
        if state is None:
            if not 0 <= t_index < self.n_times:
                raise DomainError(f"time index {t_index} out of range")
            j = t_index * self.stride
            state = self._states[t_index] = MetricState(float(self.phi[j]), float(self.vtheta0[j]))
        return state

    def h_bands(self, t_index, dim: int) -> np.ndarray:
        """H's su(1,1) bands at one report index, (3, dim), or at an array of
        them, (T, 3, dim), from omega, alpha and beta on the dense grid."""
        j = np.asarray(t_index) * self.stride
        return su11_bands(hamiltonian_coeffs(self.omega[j], self.alpha[j], self.beta[j]), dim)

    def i_bands(self, t_index, dim: int) -> np.ndarray:
        """The invariant's bands at report indices, shaped as h_bands'."""
        j = np.asarray(t_index) * self.stride
        return su11_bands(invariant_coeffs(self.phi[j], self.vtheta0[j]), dim)

    def half_step_indexer(self) -> Callable[[float], int]:
        """A function from a time to its index on the half-step grid; it
        raises ValueError, naming t, for a time that is not on it up to
        rounding. It reads the grid as a Python list, built once here."""
        spacing = self.dt / (2 * self.stride)
        half = self.half_times.tolist()
        n, slack = len(half), 1e-6 * spacing

        def index(t: float) -> int:
            j = round(t / spacing)
            if not (0 <= j < n and abs(half[j] - t) <= slack):
                raise ValueError(
                    f"t={t!r} is not on the half-step grid (dense nodes and substep "
                    f"midpoints, spacing {spacing:.6g})"
                )
            return j

        return index

    def max_im_w(self) -> float:
        return float(np.max(np.abs(self.w.imag)))


def integrate_metric(
    initial: MetricState,
    drive: Mapping[str, Callable[[np.ndarray], np.ndarray]],
    t_max: float,
    dt: float,
    *,
    superposition: Mapping[int, complex] | None = None,
    local_error_tol: float = 1e-8,
    im_w_tol: float = 1e-10,
) -> MetricTrajectory:
    """Integrate the reduced metric flow and derive everything on the grid.

    drive maps a scenario's profile names to functions of an array of
    times; its key set picks the mode. Generator mode (GENERATOR_PROFILES):
    alpha and Re beta are filled from the constraints at every step, so all
    relations hold by construction. Check mode (CHECK_PROFILES): the
    supplied coefficients are recorded as-is and only the flow uses their
    imaginary parts; residuals are the caller's to inspect.

    The keys of superposition are the tracked eigenstates: their phases are
    computed once, in ascending n, into the trajectory's phases.

    Classic RK4 at dt/STRIDE substeps; every substep is re-run as two half
    steps for a local error estimate (abort above local_error_tol). The flow
    stops with a structured guard error if vtheta0 falls to its floor or the
    constraint denominator 2 Phi^2 - vtheta0 reaches or crosses zero.

    The steps run on (Phi, vtheta0) as Python floats, on Im omega and
    Im beta sampled once, as arrays, at the six distinct stage times of
    every substep, and turned into Python floats FLOW_BLOCK substeps at a
    time; the arithmetic is that of RK4 on the 2-vector, operation for
    operation. The coefficients are recorded from one sample of each
    profile on the half-step grid.
    """
    keys = set(drive)
    if keys not in (set(GENERATOR_PROFILES), set(CHECK_PROFILES)):
        raise ValueError(
            f"drive keys {sorted(keys)} are neither the generator-mode profiles "
            f"{list(GENERATOR_PROFILES)} nor the check-mode profiles {list(CHECK_PROFILES)}"
        )
    generator = keys == set(GENERATOR_PROFILES)

    steps = round(t_max / dt)
    if steps < 1 or abs(steps * dt - t_max) > 1e-9 * max(1.0, t_max):
        raise ValueError(f"t_max={t_max} is not a positive multiple of dt={dt}")
    h = dt / STRIDE
    n_dense = steps * STRIDE
    dense_times = np.linspace(0.0, t_max, n_dense + 1)

    def sample(name: str, times: np.ndarray) -> np.ndarray:
        return np.broadcast_to(np.asarray(drive[name](times), dtype=float), times.shape)

    def rates(p: float, q: float, t: float, d: tuple) -> tuple[float, float]:
        if q <= 0:
            raise GuardError("vtheta-zero-floor", t, f"vtheta0={q:.3e}")
        return metric_rhs(p, q, *d)

    def rk4(p, q, t, h, first, d_mid, d_end):
        """One classic RK4 step on floats from first, the rates at (p, q, t),
        given (Im omega, Im beta) at t + h/2 and t + h, so a time or a stage
        shared by several steps is read or taken once."""
        t_mid, t_end = t + 0.5 * h, t + h
        a1, b1 = first
        a2, b2 = rates(p + 0.5 * h * a1, q + 0.5 * h * b1, t_mid, d_mid)
        a3, b3 = rates(p + 0.5 * h * a2, q + 0.5 * h * b2, t_mid, d_mid)
        a4, b4 = rates(p + h * a3, q + h * b3, t_end, d_end)
        return (
            p + (h / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4),
            q + (h / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4),
        )

    # The stage times of every substep: its start, midpoint and end for the
    # full step, and the quarter points and end of its two half steps (the
    # second half step's end may round apart from t + h).
    h2 = h / 2
    t = dense_times[:-1]
    t_mid = t + 0.5 * h
    stage_times = np.stack([t, t_mid, t + h, t + 0.5 * h2, t_mid + 0.5 * h2, t_mid + h2])
    im_omega, im_beta = sample("im_omega", stage_times), sample("im_beta", stage_times)

    # The half-step grid: dense node i at 2i, the midpoint of substep i,
    # where its first half step ends, at 2i + 1.
    half_times = np.empty(2 * n_dense + 1)
    half_times[::2] = dense_times
    half_times[1::2] = stage_times[1]
    p, q = initial.phi_cap, initial.vtheta_zero
    phi = np.empty(2 * n_dense + 1)
    th0 = np.empty(2 * n_dense + 1)
    phi[0], th0[0] = p, q
    denom_prev = initial.constraint_denominator
    _check_flow_guards(q, 0.0, denom_prev)
    for lo in range(0, n_dense, FLOW_BLOCK):
        # This block's stage samples as (Im omega, Im beta) tuples of floats.
        block = slice(lo, lo + FLOW_BLOCK)
        d0, d_mid, d_end, d_q1, d_q3, d_end2 = (
            list(zip(io, ib))
            for io, ib in zip(im_omega[:, block].tolist(), im_beta[:, block].tolist())
        )
        starts, mids = stage_times[:2, block].tolist()
        for k, t in enumerate(starts):
            # The full step and the first half step share their first stage.
            first = rates(p, q, t, d0[k])
            full = rk4(p, q, t, h, first, d_mid[k], d_end[k])
            mid = rk4(p, q, t, h2, first, d_q1[k], d_mid[k])
            half = rk4(*mid, mids[k], h2, rates(*mid, mids[k], d_mid[k]), d_q3[k], d_end2[k])
            err = max(abs(full[0] - half[0]), abs(full[1] - half[1])) / 15.0
            if err > local_error_tol:
                raise GuardError("local-error", t, f"estimate {err:.3e} > {local_error_tol:.1e}")
            p, q = half
            i = lo + k
            t_next = dense_times[i + 1]
            denom = constraint_denominator(p, q)
            if denom_prev * denom < 0:
                raise GuardError(
                    "constraint-denominator", t_next,
                    "2 Phi^2 - vtheta0 changed sign between steps",
                )
            _check_flow_guards(q, t_next, denom)
            denom_prev = denom
            phi[2 * i + 1], th0[2 * i + 1] = mid
            phi[2 * i + 2], th0[2 * i + 2] = p, q

    coeffs = {name: sample(name, half_times) for name in drive}
    if generator:
        omega, alpha, beta = derive_constrained_coeffs(
            phi, th0, coeffs["re_omega"], coeffs["im_omega"], coeffs["im_beta"]
        )
    else:
        # One component at a time: re + 1j * im would turn an imaginary
        # -0.0 into 0.0.
        omega, alpha, beta = (np.empty(len(half_times), dtype=complex) for _ in range(3))
        for z, name in ((omega, "omega"), (alpha, "alpha"), (beta, "beta")):
            z.real, z.imag = coeffs[f"re_{name}"], coeffs[f"im_{name}"]
    dphi, dth0 = metric_rhs(phi, th0, omega.imag, beta.imag)
    w = transformed_frequency(phi, th0, omega, alpha, beta, dphi, dth0)
    traj = MetricTrajectory(
        times=dense_times[::STRIDE].copy(),
        dt=dt,
        stride=STRIDE,
        dense_times=dense_times,
        phi=phi[::2],
        vtheta0=th0[::2],
        omega=omega[::2],
        alpha=alpha[::2],
        beta=beta[::2],
        dphi=dphi[::2],
        dvtheta0=dth0[::2],
        w=w[::2],
        half_times=half_times,
        half_omega=omega,
        half_alpha=alpha,
        half_beta=beta,
        half_w=w,
        mode="generator" if generator else "check",
        superposition=dict(superposition or {}),
        phases={},
    )
    if generator and traj.max_im_w() > im_w_tol:
        j = int(np.argmax(np.abs(traj.w.imag)))
        raise DomainError(
            f"t={dense_times[j]:.6g}: max |Im W| = {traj.max_im_w():.3e} "
            f"exceeds {im_w_tol:.1e}"
        )
    for n in sorted(traj.superposition):
        traj.phases[n] = phase(n, traj)
    return traj


def _check_flow_guards(vtheta0: float, t: float, denom: float) -> None:
    if vtheta0 <= VTHETA_FLOOR:
        raise GuardError("vtheta-zero-floor", t, f"vtheta0={vtheta0:.3e}")
    if abs(denom) <= DENOM_FLOOR:
        raise GuardError(
            "constraint-denominator", t, f"2 Phi^2 - vtheta0 = {denom:.3e}"
        )


def phase(n: int, traj: MetricTrajectory) -> np.ndarray:
    """gamma_n on the report grid: cumulative Simpson of 2 k_n W with
    k_n = (n + 1/2)/2, so gamma_n' = (n + 1/2) W."""
    k_n = (n + 0.5) / 2.0
    dense = cumulative_simpson(2 * k_n * traj.w.real, traj.dense_times)
    return dense[:: traj.stride].copy()


def cumulative_simpson(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Cumulative integral of y(x) from x[0], starting at 0.0, by Simpson's
    rule for unequal intervals.

    Each subinterval's integral comes from the parabola through it and its
    right neighbour (the last one from its left neighbour), and the running
    sum adds them in order. This is scipy.integrate.cumulative_simpson(y,
    x=x, initial=0.0) operation for operation, so the results are
    bit-identical.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.ndim != 1 or y.shape != x.shape or len(y) < 3:
        raise DomainError("cumulative_simpson needs 1-D y and x of one length, at least 3")
    dx = np.diff(x)
    forward = _simpson_subintervals(y, dx)
    backward = _simpson_subintervals(y[::-1], dx[::-1])[::-1]
    sub = np.empty(len(dx))
    sub[:-1:2] = forward[::2]
    sub[1::2] = backward[::2]
    sub[-1] = backward[-1]
    # Adding the initial 0.0 turns any -0.0 into 0.0, as scipy does.
    return np.concatenate(([0.0], np.cumsum(sub) + 0.0))


def _simpson_subintervals(y: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """Integral over [x_i, x_i+1] of the parabola through points i, i+1, i+2."""
    x21 = dx[:-1]
    x32 = dx[1:]
    x31 = x21 + x32
    x21_x31 = x21 / x31
    x21_x32 = x21 / x32
    x21x21_x31x32 = x21_x31 * x21_x32
    coeff1 = 3 - x21_x31
    coeff2 = 3 + x21x21_x31x32 + x21_x31
    coeff3 = -x21x21_x31x32
    return x21 / 6 * (coeff1 * y[:-2] + coeff2 * y[1:-1] + coeff3 * y[2:])


def assemble_solution(traj: MetricTrajectory, t_index, dim: int) -> np.ndarray:
    """The exact solution sum_n C_n exp(i gamma_n(t)) rho^{-1}(t)|n> at one
    report index, a (dim,) state, or at each of an array of them, a
    (..., dim) stack; each state is the one its index alone gives, bit for
    bit. The weights C_n exp(i gamma_n) are taken one time at a time, as
    numpy scalars: an array product of complex numbers can round apart."""
    if not traj.superposition:
        raise ValueError("trajectory has no superposition coefficients")
    if not 0 <= min(traj.superposition) <= max(traj.superposition) < dim:
        raise DomainError(f"levels {sorted(traj.superposition)} out of range for dim {dim}")
    idx = np.asarray(t_index)
    flat = idx.reshape(-1)
    # The run's top level sets the columns of rho^-1 kept, so they hold
    # every level read here.
    top = max(traj.superposition)
    columns = np.stack([build_rho_inverse(traj.state_at(int(i)), dim, top) for i in flat])
    out = np.zeros((len(flat), dim), dtype=complex)
    for n, c_n in traj.superposition.items():
        weights = np.array([c_n * z for z in np.exp(1j * traj.phases[n][flat])])
        out += weights[:, None] * columns[:, :, n]
    return out.reshape(idx.shape + (dim,))
