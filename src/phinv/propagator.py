"""Brute-force Schrödinger propagation and residual meters.

This module is the independent check on the closed-form construction: a
plain RK4 integrator for i d/dt psi = H(t) psi, finite-difference residuals
for the Schrödinger equation, the metric flow relation, and the invariant
equation, and a conjugation check that the invariant maps to 2 K0.

H(t), the invariant and 2 K0 enter every product as BandOperators (three
diagonals), so the RK4 oracles cost O(N) per stage and the meters O(N^2) per
report time outside the dense metric products. The invariant meter works on
bands alone: its time derivative is taken over I's three diagonals, the only
entries it has, and the commutator [I, H] is a band product with five. eta is
real symmetric and I is real, so H^dag eta = (eta H)^dag and
I^dag eta = (eta I)^T: the Dyson and Hermitian-image meters form one band
product with eta and read the other term as its transpose.

All operator time derivatives use a 4th-order central difference combined
with one Richardson extrapolation (stencils at +-h and +-2h), so meters near
the grid boundary raise a stencil error instead of degrading silently.
Residual norms are taken on the interior block (the top three levels are
excluded) and normalized by max(1, scale of the compared term).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import InstabilityError, StencilError
from .fock import BandOperator, interior_norm, k0_operator, tail_support
from .metric import build_eta, build_rho
from .model import (
    HamiltonianCoefficients,
    MetricTrajectory,
    hamiltonian_op,
    invariant_op,
)

INSTABILITY_FACTOR = 1e6


@dataclass
class PropagationResult:
    """RK4 trajectory with per-time metric norms and truncation-tail weight."""

    times: np.ndarray
    states: np.ndarray
    eta_norms: np.ndarray
    tail_support: np.ndarray

    def final_state(self) -> np.ndarray:
        return self.states[-1]


def _check_uniform(times: np.ndarray) -> float:
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) < 2:
        raise ValueError("need a one-dimensional grid with at least two times")
    steps = np.diff(times)
    if np.any(np.abs(steps - steps[0]) > 1e-9 * max(1.0, abs(steps[0]))):
        raise ValueError("time grid must be uniform")
    return float(steps[0])


def propagate(
    h_of_t: Callable[[float], np.ndarray],
    psi0: np.ndarray,
    times: np.ndarray,
    *,
    substeps: int = 8,
    eta_of_t: Callable[[float], np.ndarray] | None = None,
) -> PropagationResult:
    """Integrate i d/dt psi = H(t) psi with classic RK4.

    Each report interval is split into `substeps` RK4 steps. The run aborts
    with an instability error, carrying the offending time, as soon as the
    state stops being finite or its norm exceeds 1e6 times the initial norm
    (truncated non-normal generators can blow up; silence would poison every
    downstream meter). eta_of_t, when given, fills the per-time metric norms
    <psi|eta(t)|psi>; otherwise the plain squared norm is recorded.
    """
    _check_uniform(times)
    psi0 = np.asarray(psi0, dtype=complex)
    norm0 = float(np.linalg.norm(psi0))
    cap = INSTABILITY_FACTOR * max(norm0, 1e-300)

    states = np.empty((len(times), len(psi0)), dtype=complex)
    states[0] = psi0
    psi = psi0.copy()
    for i in range(len(times) - 1):
        t0, t1 = float(times[i]), float(times[i + 1])
        h = (t1 - t0) / substeps
        for k in range(substeps):
            t = t0 + k * h
            psi = _rk4_schrodinger(h_of_t, psi, t, h)
            norm = float(np.linalg.norm(psi))
            if not np.isfinite(norm) or norm > cap:
                raise InstabilityError(
                    t + h, f"state norm {norm:.3e} at t={t + h:.4f} (cap {cap:.1e})"
                )
        states[i + 1] = psi

    eta_norms = np.empty(len(times))
    tails = np.empty(len(times))
    for i, t in enumerate(times):
        v = states[i]
        if eta_of_t is None:
            eta_norms[i] = float(np.real(np.vdot(v, v)))
        else:
            eta_norms[i] = float(np.real(np.vdot(v, eta_of_t(float(t)) @ v)))
        tails[i] = tail_support(v)
    return PropagationResult(
        times=np.asarray(times, dtype=float),
        states=states,
        eta_norms=eta_norms,
        tail_support=tails,
    )


def _rk4_schrodinger(h_of_t, psi: np.ndarray, t: float, h: float) -> np.ndarray:
    def f(v, tv):
        return -1j * (h_of_t(tv) @ v)

    k1 = f(psi, t)
    k2 = f(psi + 0.5 * h * k1, t + 0.5 * h)
    k3 = f(psi + 0.5 * h * k2, t + 0.5 * h)
    k4 = f(psi + h * k3, t + h)
    return psi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def convergence_probe(
    h_of_t: Callable[[float], np.ndarray],
    psi0: np.ndarray,
    times: np.ndarray,
    *,
    substeps: int = 1,
) -> tuple[float, float]:
    """Step-halving convergence check on the final state.

    Returns (ratio, order): ratio is |psi_h - psi_h/2| over |psi_h/2 -
    psi_h/4|, which sits near 16 for a 4th-order scheme, and order is its
    log2. Meaningful only while the errors are above the rounding floor.
    """
    finals = []
    for s in (substeps, 2 * substeps, 4 * substeps):
        finals.append(propagate(h_of_t, psi0, times, substeps=s).final_state())
    e1 = float(np.linalg.norm(finals[0] - finals[1]))
    e2 = float(np.linalg.norm(finals[1] - finals[2]))
    if e2 == 0.0:
        return float("inf"), float("inf")
    ratio = e1 / e2
    return ratio, float(np.log2(ratio)) if ratio > 0 else float("-inf")


def _require_stencil(t_index: int, n_times: int, margin: int) -> None:
    if t_index < margin or t_index > n_times - 1 - margin:
        raise StencilError(
            f"time index {t_index} needs +-{margin} grid points inside [0, {n_times - 1}]"
        )


def _fd4(v: Callable[[int], np.ndarray], i: int, h: float):
    """4th-order central difference over v(i-2) .. v(i+2), with v(j) the
    value at grid index j; v is called in the order i+2, i+1, i-1, i-2."""
    return (-v(i + 2) + 8 * v(i + 1) - 8 * v(i - 1) + v(i - 2)) / (12 * h)


def _fd4_richardson(value_at: Callable[[int], np.ndarray], i: int, h: float) -> np.ndarray:
    """Richardson combination of the 4th-order stencil at spacings h and 2h.

    Uses indices i-4 .. i+4 of the underlying grid and evaluates each of the
    six it needs once: i+2, i+1, i-1, i-2, then i+4 and i-4.
    """
    v = lru_cache(maxsize=None)(value_at)
    d_h = _fd4(v, i, h)
    # The stencil at spacing 2h reads index i + 2k where _fd4 asks for i + k.
    d_2h = _fd4(lambda j: v(2 * j - i), i, 2 * h)
    return (16 * d_h - d_2h) / 15


def schrodinger_residual(
    states: np.ndarray,
    times: np.ndarray,
    h_of_t: Callable[[float], np.ndarray],
    t_index: int,
) -> float:
    """|i D_t psi - H psi| / max(1, |H psi|) with a 4th-order stencil."""
    dt = _check_uniform(times)
    _require_stencil(t_index, len(times), 2)
    dpsi = _fd4(states.__getitem__, t_index, dt)
    h_psi = h_of_t(float(times[t_index])) @ states[t_index]
    num = float(np.linalg.norm(1j * dpsi - h_psi))
    return num / max(1.0, float(np.linalg.norm(h_psi)))


def dyson_residual(traj: MetricTrajectory, t_index: int, dim: int) -> float:
    """Residual of the metric flow relation at one report time.

    The relation H_adj = eta H eta^{-1} + i (d eta/dt) eta^{-1} is checked
    multiplied through by eta: |d(eta)/dt + i (H_adj eta - eta H)| over the
    interior block, normalized by max(1, |eta H|). The multiplied form keeps
    the meter finite where eta^{-1} is violently ill-conditioned.
    """
    _require_stencil(t_index, traj.n_times, 4)
    dt = traj.dt

    def eta_at(j: int) -> np.ndarray:
        return build_eta(traj.gauss_at(j), dim)

    eta_dot = _fd4_richardson(eta_at, t_index, dt)
    eta = eta_at(t_index)
    h = hamiltonian_op(traj.coeffs_at(t_index), dim).bands
    # eta H = x + i y with real x, y. eta is real symmetric, so H_adj eta is
    # x^T - i y^T and the residual is (eta_dot + y + y^T) + i (x^T - x).
    x = eta @ BandOperator(h.real)
    y = eta @ BandOperator(h.imag)
    re = eta_dot + (y + y.T)
    im = x.T - x
    scale = max(1.0, math.hypot(interior_norm(x), interior_norm(y)))
    return math.hypot(interior_norm(re), interior_norm(im)) / scale


def invariant_residual(traj: MetricTrajectory, t_index: int, dim: int) -> float:
    """Residual of d I/dt = i [I, H] over the interior block."""
    _require_stencil(t_index, traj.n_times, 4)

    def bands_at(j: int) -> np.ndarray:
        # Complex, as the dense I: numpy divides a complex array by a real
        # through its reciprocal, so the stencil then rounds dI/dt entrywise
        # as it rounds the dense matrix.
        return invariant_op(traj.state_at(j), dim).bands.astype(complex)

    di = _fd4_richardson(bands_at, t_index, traj.dt)
    inv = invariant_op(traj.state_at(t_index), dim)
    h = hamiltonian_op(traj.coeffs_at(t_index), dim)
    comm = 1j * ((inv @ h).bands - (h @ inv).bands)
    residual = np.zeros_like(comm)
    residual[: len(di)] = di
    residual -= comm
    scale = max(1.0, interior_norm(BandOperator(comm)))
    return interior_norm(BandOperator(residual)) / scale


def hermitian_image_check(traj: MetricTrajectory, t_index: int, dim: int) -> float:
    """How far rho I rho^{-1} is from being exactly 2 K0.

    Returns the max of two multiplied-through residuals: Hermiticity of the
    conjugated invariant (|eta I - I_adj eta|) and its interior-block
    distance from 2 K0 (|rho I - 2 K0 rho|), each normalized by
    max(1, scale).
    """
    g = traj.gauss_at(t_index)
    inv = invariant_op(traj.state_at(t_index), dim)
    eta = build_eta(g, dim)
    rho = build_rho(g, dim)
    two_k0 = k0_operator(dim, 2.0)

    # I is real and eta real symmetric, so I_adj eta = (eta I)^T.
    eta_inv = eta @ inv
    herm = eta_inv - eta_inv.T
    r1 = interior_norm(herm) / max(1.0, interior_norm(eta_inv))
    k0_rho = two_k0 @ rho
    image = rho @ inv - k0_rho
    r2 = interior_norm(image) / max(1.0, interior_norm(k0_rho))
    return max(r1, r2)


def hamiltonian_source(traj: MetricTrajectory, dim: int) -> Callable[[float], BandOperator]:
    """H(t) for the propagator, read from the trajectory's half-step grid.

    That grid holds every RK4 stage time of substeps 1, 2, 4 and 8 per
    report interval (at the default stride 8); any other t raises a
    ValueError naming it.
    """
    om, al, be = traj.half_omega.tolist(), traj.half_alpha.tolist(), traj.half_beta.tolist()

    def h_of_t(t: float) -> BandOperator:
        j = traj.half_step_index(t)
        return hamiltonian_op(HamiltonianCoefficients(om[j], al[j], be[j]), dim)

    return h_of_t


def transformed_generator_source(
    traj: MetricTrajectory, dim: int
) -> Callable[[float], BandOperator]:
    """h(t) = -2 W(t) K0, the generator on the Hermitian side.

    The sign is fixed by the harmonic limit: W = -1 there, and the mapped
    states must evolve under the ordinary oscillator +2 K0. W is read from
    the half-step grid, like H in hamiltonian_source.
    """
    w_re = traj.half_w.real.tolist()

    def h_of_t(t: float) -> BandOperator:
        return k0_operator(dim, -2.0 * w_re[traj.half_step_index(t)])

    return h_of_t


def eta_source(traj: MetricTrajectory, dim: int) -> Callable[[float], np.ndarray]:
    """eta(t) at report times only (nearest report index; exact on the grid)."""

    def eta_of_t(t: float) -> np.ndarray:
        j = int(round(t / traj.dt))
        return build_eta(traj.gauss_at(j), dim)

    return eta_of_t


def hermitian_side_check(traj: MetricTrajectory, assembled: np.ndarray, dim: int) -> float:
    """Full-horizon cross-check through the Hermitian frame.

    Maps the t=0 assembled state with rho(0), propagates it under
    h(t) = -2 W(t) K0 (bounded and diagonal, so RK4 stays stable where the
    non-Hermitian frame blows up) with propagate's default substeps, and
    compares against rho(t) times the assembled state at every report
    time. Returns the worst relative mismatch.
    """
    if assembled.shape != (traj.n_times, dim):
        raise ValueError("assembled must hold one state per report time")
    phi0 = build_rho(traj.gauss_at(0), dim) @ assembled[0]
    result = propagate(transformed_generator_source(traj, dim), phi0, traj.times)
    worst = 0.0
    for i in range(traj.n_times):
        mapped = build_rho(traj.gauss_at(i), dim) @ assembled[i]
        diff = float(np.linalg.norm(result.states[i] - mapped))
        worst = max(worst, diff / max(1.0, float(np.linalg.norm(mapped))))
    return worst
