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

import warnings
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import (
    ConstraintSingularityError,
    GuardError,
    NonRealPhaseError,
    ShapeError,
    SingularMetricError,
    TruncationWarning,
)
from .fock import BandOperator, basis_column, su11_operator, tail_support
from .metric import GaussParams, build_rho_inverse, params_from_state

VTHETA_FLOOR = 1e-8
DENOM_FLOOR = 1e-8
TAIL_WARN = 1e-8


@dataclass(frozen=True)
class MetricState:
    """One point of the metric flow: (Phi, vtheta0), with chi derived."""

    phi_cap: float
    vtheta_zero: float

    def __post_init__(self):
        if not self.vtheta_zero > 0:
            raise SingularMetricError(
                f"vtheta_zero must be positive, got {self.vtheta_zero}"
            )

    @property
    def chi(self) -> float:
        return self.phi_cap * self.phi_cap - self.vtheta_zero

    @property
    def constraint_denominator(self) -> float:
        """2 Phi^2 - vtheta0, the denominator of the coefficient constraints."""
        return constraint_denominator(self.phi_cap, self.vtheta_zero)

    def gauss(self) -> GaussParams:
        return params_from_state(self.phi_cap, self.vtheta_zero)


@dataclass(frozen=True)
class HamiltonianCoefficients:
    """(omega, alpha, beta) at one time."""

    omega: complex
    alpha: complex
    beta: complex


@dataclass(frozen=True)
class InvariantCoefficients:
    delta1: float
    delta2: float
    delta3: float

    @classmethod
    def from_state(cls, s: MetricState) -> "InvariantCoefficients":
        th0 = s.vtheta_zero
        phi, chi = s.phi_cap, s.chi
        return cls(
            delta1=-(phi * phi + chi) / th0,
            delta2=-chi * phi / th0,
            delta3=-phi / th0,
        )


def hamiltonian_op(c: HamiltonianCoefficients, dim: int) -> BandOperator:
    """H = omega (a_dag a + 1/2) + alpha a^2 + beta a_dag^2
    = 2 omega K0 + 2 alpha K- + 2 beta K+."""
    return su11_operator(dim, 2 * c.omega, 2 * c.alpha, 2 * c.beta)


def constraint_denominator(phi, vtheta0):
    """2 Phi^2 - vtheta0, written Phi^2 + chi as the constraints use it."""
    return phi * phi + (phi * phi - vtheta0)


def derive_constrained_coeffs(phi, vtheta0, re_omega, im_omega, im_beta):
    """(omega, alpha, beta) with alpha and Re beta filled so the coefficient
    relations hold identically, for floats or arrays of one shape.

    Re beta = Phi Re omega / (Phi^2 + chi); Re alpha = chi Phi Re omega /
    (Phi^2 + chi); Im alpha = Phi Im omega - chi Im beta (the reality
    condition on the transformed frequency). Raises
    ConstraintSingularityError if any denominator is within DENOM_FLOOR of
    zero.
    """
    chi = phi * phi - vtheta0
    denom = constraint_denominator(phi, vtheta0)
    if np.any(np.abs(denom) <= DENOM_FLOOR):
        raise ConstraintSingularityError(
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


def constraint_residuals(s: MetricState, c: HamiltonianCoefficients) -> dict[str, float]:
    """Absolute residuals of the three coefficient relations, multiplied
    through by the constraint denominator (no division)."""
    phi, chi = s.phi_cap, s.chi
    denom = s.constraint_denominator
    return {
        "re_beta": abs(c.beta.real * denom - phi * c.omega.real),
        "re_alpha": abs(c.alpha.real * denom - chi * phi * c.omega.real),
        "im_alpha": abs(c.alpha.imag - phi * c.omega.imag + chi * c.beta.imag),
    }


def metric_rhs(phi, vtheta0, im_omega, im_beta):
    """Reduced metric flow: dPhi = 2 vtheta0 Im beta,
    dvtheta0 = 2 vtheta0 (-Im omega + 2 Phi Im beta), for floats or arrays.

    These are the rates consistent with the defining metric-flow relation
    d(eta)/dt = -i (H^dag eta - eta H), with the coefficient constraints
    used to eliminate Im alpha and the division by Phi.
    """
    return 2 * vtheta0 * im_beta, 2 * vtheta0 * (-im_omega + 2 * phi * im_beta)


def invariant_op(s: MetricState, dim: int) -> BandOperator:
    """I = -(2/vtheta0)[(Phi^2+chi) K0 + chi Phi K- + Phi K+]
    = 2 delta1 K0 + 2 delta2 K- + 2 delta3 K+, with real bands."""
    d = InvariantCoefficients.from_state(s)
    return su11_operator(dim, 2 * d.delta1, 2 * d.delta2, 2 * d.delta3)


def invariant_ph(s: MetricState, dim: int) -> np.ndarray:
    """I as a dense complex matrix."""
    return invariant_op(s, dim).dense()


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
    views of the even entries of the half-step arrays.
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
    quantum_numbers: tuple[int, ...]
    superposition: dict[int, complex]
    phases: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def n_times(self) -> int:
        return len(self.times)

    def _dense_index(self, t_index: int) -> int:
        if not 0 <= t_index < self.n_times:
            raise ShapeError(f"time index {t_index} out of range")
        return t_index * self.stride

    def state_at(self, t_index: int) -> MetricState:
        j = self._dense_index(t_index)
        return MetricState(float(self.phi[j]), float(self.vtheta0[j]))

    def coeffs_at(self, t_index: int) -> HamiltonianCoefficients:
        j = self._dense_index(t_index)
        return HamiltonianCoefficients(
            complex(self.omega[j]), complex(self.alpha[j]), complex(self.beta[j])
        )

    def rates_at(self, t_index: int) -> tuple[float, float]:
        j = self._dense_index(t_index)
        return float(self.dphi[j]), float(self.dvtheta0[j])

    def w_at(self, t_index: int) -> complex:
        return complex(self.w[self._dense_index(t_index)])

    def gauss_at(self, t_index: int) -> GaussParams:
        return self.state_at(t_index).gauss()

    def half_step_index(self, t: float) -> int:
        """Index of t on the half-step grid; ValueError, naming t, for a time
        that is not on it up to rounding."""
        spacing = self.dt / (2 * self.stride)
        j = round(t / spacing)
        if not (0 <= j < len(self.half_times) and abs(self.half_times[j] - t) <= 1e-6 * spacing):
            raise ValueError(
                f"t={t!r} is not on the half-step grid (dense nodes and substep "
                f"midpoints, spacing {spacing:.6g})"
            )
        return j

    def max_im_w(self) -> float:
        return float(np.max(np.abs(self.w.imag)))


def integrate_metric(
    initial: MetricState,
    omega: Callable[[float], complex],
    t_max: float,
    dt: float,
    *,
    im_beta: Callable[[float], float] | None = None,
    alpha: Callable[[float], complex] | None = None,
    beta: Callable[[float], complex] | None = None,
    quantum_numbers: Sequence[int] = (0,),
    superposition: Mapping[int, complex] | None = None,
    stride: int = 8,
    local_error_tol: float = 1e-8,
    im_w_tol: float = 1e-10,
) -> MetricTrajectory:
    """Integrate the reduced metric flow and derive everything on the grid.

    Generator mode (im_beta given): alpha and Re beta are filled from the
    constraints at every step, so all relations hold by construction.
    Check mode (alpha and beta given): the supplied coefficients are recorded
    as-is and only the flow uses their imaginary parts; residuals are the
    caller's to inspect.

    Classic RK4 at dt/stride substeps; every substep is re-run as two half
    steps for a local error estimate (abort above local_error_tol). The flow
    stops with a structured guard error if vtheta0 falls to its floor or the
    constraint denominator 2 Phi^2 - vtheta0 reaches or crosses zero.

    The steps run on (Phi, vtheta0) as Python floats, and the drive is
    sampled once per distinct stage time of a substep (six, not twelve);
    the arithmetic is that of RK4 on the 2-vector, operation for operation.
    The samples at the dense nodes and the substep midpoints also give the
    coefficients recorded there, so no time is sampled twice.
    """
    generator = im_beta is not None
    if generator and (alpha is not None or beta is not None):
        raise ValueError("give either im_beta (generator) or alpha+beta (check)")
    if not generator and (alpha is None or beta is None):
        raise ValueError("check mode needs both alpha and beta")

    steps = round(t_max / dt)
    if steps < 1 or abs(steps * dt - t_max) > 1e-9 * max(1.0, t_max):
        raise ValueError(f"t_max={t_max} is not a positive multiple of dt={dt}")
    h = dt / stride
    n_dense = steps * stride
    dense_times = np.linspace(0.0, t_max, n_dense + 1)

    def drive(t: float) -> tuple:
        """(Im beta, Im omega, omega, alpha, beta) at time t; alpha and beta
        are None in generator mode."""
        om = omega(t)
        if generator:
            return im_beta(t), om.imag, om, None, None
        b = beta(t)
        return b.imag, om.imag, om, alpha(t), b

    def rates(p: float, q: float, t: float, d: tuple) -> tuple[float, float]:
        if q <= 0:
            raise GuardError("vtheta-zero-floor", t, f"vtheta0={q:.3e}")
        ib, io, _, _, _ = d
        return metric_rhs(p, q, io, ib)

    def rk4(p, q, t, h, d0, d_mid, d_end):
        """One classic RK4 step on floats, given the drive at t, t + h/2 and
        t + h, so the caller samples a time shared by several stages once."""
        t_mid, t_end = t + 0.5 * h, t + h
        a1, b1 = rates(p, q, t, d0)
        a2, b2 = rates(p + 0.5 * h * a1, q + 0.5 * h * b1, t_mid, d_mid)
        a3, b3 = rates(p + 0.5 * h * a2, q + 0.5 * h * b2, t_mid, d_mid)
        a4, b4 = rates(p + h * a3, q + h * b3, t_end, d_end)
        return (
            p + (h / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4),
            q + (h / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4),
        )

    # The half-step grid: dense node i at 2i, the midpoint of substep i,
    # where its first half step ends, at 2i + 1.
    half_times = np.empty(2 * n_dense + 1)
    half_times[::2] = dense_times
    half_times[1::2] = dense_times[:-1] + 0.5 * h
    p, q = initial.phi_cap, initial.vtheta_zero
    phi = np.empty(2 * n_dense + 1)
    th0 = np.empty(2 * n_dense + 1)
    phi[0], th0[0] = p, q
    # The drive at each half-step time, as the flow sampled it.
    samples: list[tuple] = []
    denom_prev = initial.constraint_denominator
    _check_flow_guards(q, 0.0, denom_prev)
    h2 = h / 2
    for i in range(n_dense):
        t = float(dense_times[i])
        # The full step and the first half step share t and t + h/2; the
        # second half step ends at t + h/2 + h/2, which may round apart
        # from t + h.
        t_mid = t + 0.5 * h
        t_end = t + h
        t_end2 = t_mid + h2
        d0, d_mid, d_end = drive(t), drive(t_mid), drive(t_end)
        d_end2 = d_end if t_end2 == t_end else drive(t_end2)
        full = rk4(p, q, t, h, d0, d_mid, d_end)
        mid = rk4(p, q, t, h2, d0, drive(t + 0.5 * h2), d_mid)
        half = rk4(*mid, t_mid, h2, d_mid, drive(t_mid + 0.5 * h2), d_end2)
        err = max(abs(full[0] - half[0]), abs(full[1] - half[1])) / 15.0
        if err > local_error_tol:
            raise GuardError("local-error", t, f"estimate {err:.3e} > {local_error_tol:.1e}")
        p, q = half
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
        samples += (d0, d_mid)
    # The last step ends at t + h, which may round apart from t_max.
    t_last = float(dense_times[-1])
    samples.append(d_end if t_end == t_last else drive(t_last))

    ib, _, om, a, b = zip(*samples)
    omega_arr, alpha_arr, beta_arr, dphi_arr, dth0_arr, w_arr = _coefficients_on(
        phi, th0, om, ib if generator else None, a, b
    )
    traj = MetricTrajectory(
        times=dense_times[::stride].copy(),
        dt=dt,
        stride=stride,
        dense_times=dense_times,
        phi=phi[::2],
        vtheta0=th0[::2],
        omega=omega_arr[::2],
        alpha=alpha_arr[::2],
        beta=beta_arr[::2],
        dphi=dphi_arr[::2],
        dvtheta0=dth0_arr[::2],
        w=w_arr[::2],
        half_times=half_times,
        half_omega=omega_arr,
        half_alpha=alpha_arr,
        half_beta=beta_arr,
        half_w=w_arr,
        mode="generator" if generator else "check",
        quantum_numbers=tuple(sorted(set(int(n) for n in quantum_numbers))),
        superposition=dict(superposition or {}),
    )
    if generator and traj.max_im_w() > im_w_tol:
        raise NonRealPhaseError(
            f"max |Im W| = {traj.max_im_w():.3e} exceeds {im_w_tol:.1e}"
        )
    for n in traj.quantum_numbers:
        traj.phases[n] = phase(n, traj)
    return traj


def _coefficients_on(phi, th0, omega, im_beta, alpha, beta):
    """omega, alpha, beta, dPhi, dvtheta0 and W at a run of times, from the
    flow state (Phi, vtheta0) and the drive sampled there.

    Generator mode (im_beta given) fills alpha and Re beta from the
    constraints; check mode records the sampled alpha and beta.
    """
    om = np.array(omega, dtype=complex)
    if im_beta is not None:
        om, alpha_arr, beta_arr = derive_constrained_coeffs(
            phi, th0, om.real, om.imag, np.array(im_beta)
        )
    else:
        alpha_arr = np.array(alpha, dtype=complex)
        beta_arr = np.array(beta, dtype=complex)
    dphi, dth0 = metric_rhs(phi, th0, om.imag, beta_arr.imag)
    w = transformed_frequency(phi, th0, om, alpha_arr, beta_arr, dphi, dth0)
    return om, alpha_arr, beta_arr, dphi, dth0, w


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
    if n in traj.phases:
        return traj.phases[n]
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
        raise ShapeError("cumulative_simpson needs 1-D y and x of one length, at least 3")
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


def assemble_solution(traj: MetricTrajectory, t_index: int, dim: int) -> np.ndarray:
    """The exact solution sum_n C_n exp(i gamma_n(t)) rho^{-1}(t)|n> at one
    report time. Warns when the result leans on the truncation edge."""
    if not traj.superposition:
        raise ValueError("trajectory has no superposition coefficients")
    rho_inv = build_rho_inverse(traj.gauss_at(t_index), dim)
    out = np.zeros(dim, dtype=complex)
    for n, c_n in traj.superposition.items():
        column = basis_column(rho_inv, n)
        gamma = traj.phases.get(n)
        if gamma is None:
            gamma = phase(n, traj)
            traj.phases[n] = gamma
        out += c_n * np.exp(1j * gamma[t_index]) * column
    frac = tail_support(out)
    if frac > TAIL_WARN:
        warnings.warn(
            f"assembled state holds {frac:.2e} of its weight in the top levels",
            TruncationWarning,
            stacklevel=2,
        )
    return out


def eigenstate(traj: MetricTrajectory, n: int, t_index: int, dim: int) -> np.ndarray:
    """rho^{-1}(t)|n>, the invariant eigenvector at one report time: column
    n of rho^{-1}, as a complex vector."""
    return basis_column(build_rho_inverse(traj.gauss_at(t_index), dim), n)
