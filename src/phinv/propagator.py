"""Brute-force Schrödinger propagation and residual meters.

This module is the independent check on the closed-form construction: a
plain RK4 integrator for i d/dt psi = H(t) psi, finite-difference residuals
for the Schrödinger equation, the metric flow relation, and the invariant
equation, and a conjugation check that the invariant maps to 2 K0.

H(t), the invariant and 2 K0 enter every product as BandOperators (three
diagonals), and rho and eta as their two parity blocks (fock.ParityBlocks),
so the RK4 oracles cost O(N) per stage and the meters O(N^2) per report time
outside the metric builders. The invariant meter works on
bands alone: its time derivative is taken over I's three diagonals, the only
entries it has, and the commutator [I, H] is a band product with five. eta is
real symmetric and I is real, so H^dag eta = (eta H)^dag and
I^dag eta = (eta I)^T: the Dyson and Hermitian-image meters form one band
product with eta and read the other term as its transpose.

All operator time derivatives use a 4th-order central difference combined
with one Richardson extrapolation (stencils at +-h and +-2h), so meters near
the grid boundary raise a DomainError instead of degrading silently.
Residual norms are taken on the interior block (the top three levels are
excluded) and normalized by max(1, scale of the compared term).

The four meters take one report index or an array of them, swept in
windows of report times: the stencils are slices of a window's stack along
time (I's bands, or eta's blocks from the metric builders, with a 4-point
halo), and the band products, H psi (H's bands from MetricTrajectory.h_bands),
the products with eta and rho and the interior norms run over the window's
leading time axis. A single index is the one-row case of the same code.

propagate steps a diagonal generator (the Hermitian side's -2 W K0) a block
of steps at a time: a step multiplies level n by RK4's stage formula applied
to 1, so the states are a running product of those per-level factors,
which agrees with the step-by-step loop to rounding. Any other generator is
stepped one step at a time. Both call H(t) at every RK4 stage time.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError, InstabilityError
from .fock import BandOperator, ParityBlocks, _band_product, interior_norm, k0_operator, su11_bands
from .metric import build_eta, build_rho, metric_window
from .model import MetricTrajectory, hamiltonian_coeffs

INSTABILITY_FACTOR = 1e6


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
) -> np.ndarray:
    """Integrate i d/dt psi = H(t) psi with classic RK4 and return the
    states at the given times, an (n_times, dim) complex array.

    Each report interval is split into `substeps` RK4 steps, and h_of_t is
    called at the four stage times of every step. The run aborts with an
    instability error, carrying the offending time, as soon as the state
    stops being finite or its norm exceeds 1e6 times the initial norm
    (truncated non-normal generators can blow up; silence would poison every
    downstream meter).

    When H(t) is a diagonal BandOperator (one row, as -2 W(t) K0 is), each
    step multiplies level n by the same RK4 stage formula applied to 1, so
    the steps are taken a block at a time as a running product of those
    factors; it agrees with the step-by-step loop to rounding.
    """
    _check_uniform(times)
    psi0 = np.asarray(psi0, dtype=complex)
    norm0 = float(np.linalg.norm(psi0))
    cap = INSTABILITY_FACTOR * max(norm0, 1e-300)

    # The start time and size of every step, as t0 + k h with h the report
    # interval over substeps.
    starts, sizes = [], []
    grid = [float(t) for t in times]
    for t0, t1 in zip(grid, grid[1:]):
        h = (t1 - t0) / substeps
        starts += [t0 + k * h for k in range(substeps)]
        sizes += [h] * substeps

    states = np.empty((len(times), len(psi0)), dtype=complex)
    states[0] = psi0
    h_first = h_of_t(starts[0])
    if isinstance(h_first, BandOperator) and h_first.bands.shape[0] == 1:
        _propagate_diagonal(h_of_t, h_first, starts, sizes, substeps, cap, states)
        return states

    psi = psi0.copy()
    for k, (t, h) in enumerate(zip(starts, sizes)):
        ops = _stage_operators(h_of_t, t, h, h_first if k == 0 else None)
        psi = _rk4_step(lambda stage, v: ops[stage] @ v, psi, h)
        norm = float(np.linalg.norm(psi))
        if not np.isfinite(norm) or norm > cap:
            raise InstabilityError(t + h, _instability_message(norm, t + h, cap))
        if (k + 1) % substeps == 0:
            states[(k + 1) // substeps] = psi
    return states


def _instability_message(norm: float, t: float, cap: float) -> str:
    return f"state norm {norm:.3e} at t={t:.4f} (cap {cap:.1e})"


def _stage_operators(h_of_t, t: float, h: float, h_t=None) -> tuple:
    """H at the stage times of the RK4 step from t: t, t + h/2 (once for
    each of the two stages there) and t + h; h_t, when given, is H(t)."""
    return (
        h_of_t(t) if h_t is None else h_t,
        h_of_t(t + 0.5 * h),
        h_of_t(t + 0.5 * h),
        h_of_t(t + h),
    )


def _rk4_step(apply, psi, h):
    """One classic RK4 step of i d/dt psi = H psi, where apply(stage, v) is
    H at that stage's time (0 .. 3, as _stage_operators orders them) times v."""
    k1 = -1j * apply(0, psi)
    k2 = -1j * apply(1, psi + 0.5 * h * k1)
    k3 = -1j * apply(2, psi + 0.5 * h * k2)
    k4 = -1j * apply(3, psi + h * k3)
    return psi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


# Steps per block of the diagonal path: the block's arrays are a few
# (DIAGONAL_BLOCK, dim) stacks, so memory stays flat at any horizon.
DIAGONAL_BLOCK = 32


def _propagate_diagonal(h_of_t, h_first, starts, sizes, substeps, cap, states) -> None:
    """propagate's steps under a diagonal H(t), DIAGONAL_BLOCK at a time.

    Each step's per-level factor is _rk4_step on a state of ones, with H
    acting as its diagonal, and the states are the running product of the
    factors from the state carried into the block. h_of_t is called at every
    stage time, as the step-by-step loop calls it.
    """
    psi = states[0]
    for b in range(0, len(starts), DIAGONAL_BLOCK):
        t = starts[b : b + DIAGONAL_BLOCK]
        h = sizes[b : b + DIAGONAL_BLOCK]
        # (steps, stages, dim); every operator must hold one row.
        g = np.array([
            [op.bands for op in _stage_operators(h_of_t, tk, hk, h_first if b + k == 0 else None)]
            for k, (tk, hk) in enumerate(zip(t, h))
        ])[:, :, 0]
        with np.errstate(over="ignore", invalid="ignore"):
            ones = np.ones((len(t), g.shape[2]))
            factors = _rk4_step(lambda stage, v: g[:, stage] * v, ones, np.array(h)[:, None])
            block = np.multiply.accumulate(np.concatenate([psi[None], factors]), axis=0)[1:]
            norms = np.linalg.norm(block, axis=1)
        bad = np.flatnonzero(~np.isfinite(norms) | (norms > cap))
        if len(bad):
            k = int(bad[0])
            raise InstabilityError(
                t[k] + h[k], _instability_message(float(norms[k]), t[k] + h[k], cap)
            )
        ends = np.arange(b + 1, b + 1 + len(t))
        at_report = ends % substeps == 0
        states[ends[at_report] // substeps] = block[at_report]
        psi = block[-1]


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
        finals.append(propagate(h_of_t, psi0, times, substeps=s)[-1])
    e1 = float(np.linalg.norm(finals[0] - finals[1]))
    e2 = float(np.linalg.norm(finals[1] - finals[2]))
    if e2 == 0.0:
        return float("inf"), float("inf")
    ratio = e1 / e2
    return ratio, float(np.log2(ratio)) if ratio > 0 else float("-inf")


# Report times per window of the band-only meters: a window holds a few
# (WINDOW + 8, rows, dim) band stacks, never one over the whole grid.
WINDOW = 128


def sorted_distinct(values) -> np.ndarray:
    """The distinct entries of an array (or of a scalar, as one entry), in
    ascending order: np.unique's values, without its import of numpy.ma."""
    values = np.sort(np.asarray(values), axis=None)
    keep = np.ones(values.size, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def _per_report_time(t_index, n_times: int, margin: int, window, size: int) -> float | np.ndarray:
    """A meter at one report index (a float) or at an array of them (an
    array of that shape), from window(lo, n), the meter's values at report
    times lo .. lo + n - 1 with n <= size.

    The requested indices, sorted, are cut into windows of at most size
    report times, so a contiguous run costs one window per size times. Each
    index needs margin grid points on either side.
    """
    idx = np.asarray(t_index)
    bad = idx[(idx < margin) | (idx > n_times - 1 - margin)]
    if bad.size:
        raise DomainError(
            f"time index {bad.flat[0]} needs +-{margin} grid points inside [0, {n_times - 1}]"
        )
    wanted = sorted_distinct(idx)
    values = np.empty(len(wanted))
    start = 0
    while start < len(wanted):
        lo = int(wanted[start])
        stop = int(np.searchsorted(wanted, lo + size))
        values[start:stop] = window(lo, int(wanted[stop - 1]) - lo + 1)[wanted[start:stop] - lo]
        start = stop
    out = values[np.searchsorted(wanted, idx)]
    return float(out) if idx.ndim == 0 else out


def _fd4(v: np.ndarray, h: float, step: int = 1) -> np.ndarray:
    """4th-order central difference along axis 0 of v over points `step`
    rows apart and h apart in time: at row i it is (-v[i + 2 step] +
    8 v[i + step] - 8 v[i - step] + v[i - 2 step]) / (12 h), for every row
    from 2 step to len(v) - 1 - 2 step."""
    n = len(v) - 4 * step
    return (-v[4 * step :] + 8 * v[3 * step : 3 * step + n] - 8 * v[step : step + n] + v[:n]) / (
        12 * h
    )


def _fd4_richardson(v: np.ndarray, h: float) -> np.ndarray:
    """Richardson combination of the 4th-order stencil at spacings h and 2h,
    along axis 0 of v, at every row 4 .. len(v) - 5."""
    return (16 * _fd4(v[2:-2], h) - _fd4(v, 2 * h, step=2)) / 15


def schrodinger_residual(
    traj: MetricTrajectory, states: np.ndarray, t_index, dim: int
) -> float | np.ndarray:
    """|i D_t psi - H psi| / max(1, |H psi|) with a 4th-order stencil, at
    one report index or at each of an array of them, for states holding one
    state per report time.

    The time derivative is a slice along time over each window, and H psi is
    formed over the window's time axis from H's bands there.
    """
    if states.shape != (traj.n_times, dim):
        raise ValueError("states must hold one state per report time")
    dt = _check_uniform(traj.times)

    def window(lo: int, n: int) -> np.ndarray:
        dpsi = _fd4(states[lo - 2 : lo + n + 2], dt)
        h_psi = BandOperator(traj.h_bands(np.arange(lo, lo + n), dim)) @ states[lo : lo + n]
        num = np.linalg.norm(1j * dpsi - h_psi, axis=-1)
        return num / np.maximum(1.0, np.linalg.norm(h_psi, axis=-1))

    return _per_report_time(t_index, traj.n_times, 2, window, WINDOW)


# math.hypot over arrays: np.hypot can round differently.
_hypot = np.vectorize(math.hypot, otypes=[float])


def dyson_residual(traj: MetricTrajectory, t_index, dim: int) -> float | np.ndarray:
    """Residual of the metric flow relation, at one report index or at each
    of an array of them.

    The relation H_adj = eta H eta^{-1} + i (d eta/dt) eta^{-1} is checked
    multiplied through by eta: |d(eta)/dt + i (H_adj eta - eta H)| over the
    interior block, normalized by max(1, |eta H|). The multiplied form keeps
    the meter finite where eta^{-1} is violently ill-conditioned.
    """

    def window(lo: int, n: int) -> np.ndarray:
        # eta at lo - 4 .. lo + n + 3. Each time builds the rows its stencil
        # reads, then its own, as a single index does, so the metric caches
        # see the same calls either way; rows no stencil reads stay unset.
        stack = np.empty((n + 8, 2, (dim + 1) // 2, (dim + 1) // 2))
        for i in range(lo, lo + n):
            for j in (2, 1, -1, -2, 4, -4, 0):
                stack[i + j - lo + 4] = build_eta(traj.state_at(i + j), dim).blocks
        eta_dot = _fd4_richardson(stack, traj.dt)
        eta = ParityBlocks(stack[4:-4], dim)
        h = traj.h_bands(np.arange(lo, lo + n), dim)
        # eta H = x + i y with real x, y. eta is real symmetric, so H_adj eta
        # is x^T - i y^T and the residual is (eta_dot + y + y^T) + i (x^T - x),
        # formed on the blocks.
        x = eta @ BandOperator(h.real)
        y = eta @ BandOperator(h.imag)
        re = ParityBlocks(eta_dot + (y.blocks + y.T.blocks), dim)
        im = ParityBlocks(x.T.blocks - x.blocks, dim)
        scale = np.maximum(1.0, _hypot(interior_norm(x), interior_norm(y)))
        return _hypot(interior_norm(re), interior_norm(im)) / scale

    return _per_report_time(t_index, traj.n_times, 4, window, metric_window(dim))


def invariant_residual(traj: MetricTrajectory, t_index, dim: int) -> float | np.ndarray:
    """Residual of d I/dt = i [I, H] over the interior block, at one report
    index or at each of an array of them.

    I's and H's bands are built over a window of report times from the
    trajectory's arrays, with a 4-point halo for I's stencil.
    """

    def window(lo: int, n: int) -> np.ndarray:
        inv = traj.i_bands(np.arange(lo - 4, lo + n + 4), dim)
        # Complex, as the dense I: numpy divides a complex array by a real
        # through its reciprocal, so the stencil then rounds dI/dt entrywise
        # as it rounds the dense matrix.
        di = _fd4_richardson(inv.astype(complex), traj.dt)
        inv = inv[4:-4]
        h = traj.h_bands(np.arange(lo, lo + n), dim)
        comm = 1j * (_band_product(inv, h) - _band_product(h, inv))
        residual = np.zeros_like(comm)
        residual[:, : di.shape[1]] = di
        residual -= comm
        scale = np.maximum(1.0, interior_norm(BandOperator(comm)))
        return interior_norm(BandOperator(residual)) / scale

    return _per_report_time(t_index, traj.n_times, 4, window, WINDOW)


def hermitian_image_check(traj: MetricTrajectory, t_index, dim: int) -> float | np.ndarray:
    """How far rho I rho^{-1} is from being exactly 2 K0, at one report
    index or at each of an array of them.

    Returns the max of two multiplied-through residuals: Hermiticity of the
    conjugated invariant (|eta I - I_adj eta|) and its interior-block
    distance from 2 K0 (|rho I - 2 K0 rho|), each normalized by
    max(1, scale).
    """

    def window(lo: int, n: int) -> np.ndarray:
        inv = BandOperator(traj.i_bands(np.arange(lo, lo + n), dim))
        gs = [traj.state_at(i) for i in range(lo, lo + n)]
        eta = ParityBlocks(np.stack([build_eta(g, dim).blocks for g in gs]), dim)
        rho = ParityBlocks(np.stack([build_rho(g, dim).blocks for g in gs]), dim)
        # I is real and eta real symmetric, so I_adj eta = (eta I)^T.
        eta_inv = eta @ inv
        herm = ParityBlocks(eta_inv.blocks - eta_inv.T.blocks, dim)
        r1 = interior_norm(herm) / np.maximum(1.0, interior_norm(eta_inv))
        # 2 K0 is diagonal: 2 K0 rho is (rho^T 2 K0)^T, entry by entry.
        k0_rho = (rho.T @ k0_operator(dim, 2.0)).T
        image = ParityBlocks((rho @ inv).blocks - k0_rho.blocks, dim)
        r2 = interior_norm(image) / np.maximum(1.0, interior_norm(k0_rho))
        return np.maximum(r1, r2)

    return _per_report_time(t_index, traj.n_times, 0, window, metric_window(dim))


def hamiltonian_source(traj: MetricTrajectory, dim: int) -> Callable[[float], BandOperator]:
    """H(t) for the propagator, read from the trajectory's half-step grid.

    That grid holds every RK4 stage time of substeps 1, 2, 4 and 8 per
    report interval (at the flow's STRIDE of 8); any other t raises a
    ValueError naming it.
    """
    coeffs = hamiltonian_coeffs(traj.half_omega, traj.half_alpha, traj.half_beta)
    index = traj.half_step_indexer()

    def h_of_t(t: float) -> BandOperator:
        return BandOperator(su11_bands(coeffs[index(t)], dim))

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
    index = traj.half_step_indexer()

    def h_of_t(t: float) -> BandOperator:
        return k0_operator(dim, -2.0 * w_re[index(t)])

    return h_of_t


def hermitian_side_check(traj: MetricTrajectory, assembled: np.ndarray, dim: int) -> float:
    """Full-horizon cross-check through the Hermitian frame.

    Maps the t=0 assembled state with rho(0), propagates it under
    h(t) = -2 W(t) K0 (bounded and diagonal, so RK4 stays stable where the
    non-Hermitian frame blows up) with propagate's default substeps, and
    compares against rho(t) times the assembled state at every report
    time. Returns the worst relative mismatch; a non-finite one raises
    DomainError with its time.
    """
    if assembled.shape != (traj.n_times, dim):
        raise ValueError("assembled must hold one state per report time")
    phi0 = build_rho(traj.state_at(0), dim) @ assembled[0]
    states = propagate(transformed_generator_source(traj, dim), phi0, traj.times)
    worst = 0.0
    for i in range(traj.n_times):
        mapped = build_rho(traj.state_at(i), dim) @ assembled[i]
        diff = float(np.linalg.norm(states[i] - mapped))
        mismatch = diff / max(1.0, float(np.linalg.norm(mapped)))
        if not math.isfinite(mismatch):
            raise DomainError(f"t={traj.times[i]:.6g}: Hermitian-side mismatch is {mismatch}")
        worst = max(worst, mismatch)
    return worst
