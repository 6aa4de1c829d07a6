"""Brute-force Schrödinger propagation and residual meters.

This module is the independent check on the closed-form construction: a
plain RK4 integrator for i d/dt psi = H(t) psi, finite-difference residuals
for the Schrödinger equation, the Dyson map's transport, and the invariant
equation, and a conjugation check that the invariant maps to 2 K0.

H(t), the invariant and 2 K0 enter every product as BandOperators (three
diagonals), and rho and eta as their two parity blocks (fock.ParityBlocks),
so the RK4 oracles cost O(N) per stage and the meters O(N^2) per report time
outside the metric builders. The invariant meter works on
bands alone: its time derivative is taken over I's three diagonals, the only
entries it has, and the commutator [I, H] is a band product with five. The
Dyson meter reads rho. The Hermitian image is the one reader of eta: eta is
real symmetric and I real, so I^dag eta = (eta I)^T, one band product.

All operator time derivatives use a 4th-order central difference combined
with one Richardson extrapolation (stencils at +-h and +-2h), so meters near
the grid boundary raise a DomainError instead of degrading silently.
Residual norms are taken on the interior block (the top three levels are
excluded) and normalized by max(1, scale of the compared term).

The four meters take one report index or an array of them, swept in
windows of report times: the stencils are slices of a window's stack along
time (I's bands, or rho's blocks from the metric builders, with a 4-point
halo), and the band products, H psi (H's bands from MetricTrajectory.h_bands),
the products with rho and eta and the interior norms run over the window's
leading time axis. A single index is the one-row case of the same code.

propagate takes its RK4 steps STEP_BLOCK at a time: it reads H(t) at every
stage time of a block, hands the kernels those band arrays and checks the
block's norms at once. A diagonal generator (one row, the Hermitian side's
-2 W K0) multiplies level n by RK4's stage formula applied to 1, so a block
is a running product of those per-level factors, which agrees with the
step-by-step loop to rounding. Three bands (H itself) are applied to the
state step after step, bit for bit the loop. The two sources of H(t) build
the bands of a run of half-step indices at once and hand out read-only
rows of that table, so the two stage times at t + h/2 read one row.
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
    h_of_t: Callable[[float], BandOperator],
    psi0: np.ndarray,
    times: np.ndarray,
    *,
    substeps: int = 8,
) -> np.ndarray:
    """Integrate i d/dt psi = H(t) psi with classic RK4 and return the
    states at the given times, an (n_times, dim) complex array.

    Each report interval is split into `substeps` RK4 steps, and h_of_t is
    called at the four stage times of every step: t, t + h/2 twice (once
    for each stage there) and t + h. H(t) must be a BandOperator of one
    band row (diagonal, as -2 W(t) K0 is) or three (as H(t) is), the same
    at every call; anything else raises a TypeError naming it. The run
    aborts with an instability error, carrying the offending time, at the
    first step whose state stops being finite or whose norm exceeds 1e6
    times the initial norm (truncated non-normal generators can blow up;
    silence would poison every downstream meter).

    The steps are taken STEP_BLOCK at a time: H is read at every stage time
    of a block first, the block's states are stepped from those bands, and
    their norms are checked at once; an unstable step raises at its own
    time and with the message a check after every step gives, although the
    block's later steps were taken. One row is stepped by _diagonal_steps,
    three by _steps.
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
    states[0] = psi = psi0
    rows = None
    block = np.empty((min(STEP_BLOCK, len(starts)), len(psi0)), dtype=complex)
    for b in range(0, len(starts), STEP_BLOCK):
        t, h = starts[b : b + STEP_BLOCK], sizes[b : b + STEP_BLOCK]
        ops = [h_of_t(s) for tk, hk in zip(t, h)
               for s in (tk, tk + 0.5 * hk, tk + 0.5 * hk, tk + hk)]
        bands, rows = _stage_bands(ops, rows)
        out = block[: len(t)]
        (_diagonal_steps if rows == 1 else _steps)(bands, h, psi, out)
        _check_steps(out, t, h, cap)
        ends = np.arange(b + 1, b + 1 + len(t))
        at_report = ends % substeps == 0
        states[ends[at_report] // substeps] = out[at_report]
        psi = out[-1].copy()
    return states


def _stage_bands(ops: list, rows: int | None) -> tuple[list, int]:
    """The bands of H at a block's stage times, and their row count: 1 or 3,
    and rows when given, the count of the blocks before. Anything else
    raises a TypeError naming what H(t) gave."""
    kinds = set(map(type, ops))
    if kinds == {BandOperator}:
        bands = [op.bands for op in ops]
        kinds = set(map(len, bands))
        if kinds == {rows} or (rows is None and kinds in ({1}, {3})):
            return bands, kinds.pop()
    got = sorted(f"{k}-row BandOperator" if isinstance(k, int) else k.__name__
                 for k in kinds | ({rows} if rows else set()))
    raise TypeError(
        "propagate steps H(t) given as BandOperators of 1 or 3 band rows, the same at every"
        f" call; got {', '.join(got)}"
    )


def _instability_message(norm: float, t: float, cap: float) -> str:
    return f"state norm {norm:.3e} at t={t:.4f} (cap {cap:.1e})"


def _rk4_step(apply, psi, h):
    """One classic RK4 step of i d/dt psi = H psi, where apply(stage, v) is
    H at that stage's time (0 .. 3: t, t + h/2 twice, t + h) times v."""
    k1 = -1j * apply(0, psi)
    k2 = -1j * apply(1, psi + 0.5 * h * k1)
    k3 = -1j * apply(2, psi + 0.5 * h * k2)
    k4 = -1j * apply(3, psi + h * k3)
    return psi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _apply(b: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The three-row BandOperator with bands b times v: the ufuncs
    BandOperator.__matmul__ applies to a state, in its order."""
    out = b[0] * v
    out[:-2] += b[1, :-2] * v[2:]
    out[2:] += b[2, :-2] * v[:-2]
    return out


# Steps per block of propagate: a block's arrays are a few (STEP_BLOCK, dim)
# stacks, so memory stays flat at any horizon.
STEP_BLOCK = 32


def _check_steps(out, t, h, cap) -> None:
    """Raise InstabilityError at the first row of out, the state after the
    step from t[k] of size h[k], that is not finite or whose norm exceeds
    cap. Each row one batched norm puts above cap / 2 is judged by its own
    norm, the one a check after every step takes."""
    with np.errstate(over="ignore", invalid="ignore"):
        for k in np.flatnonzero(~(np.linalg.norm(out, axis=1) <= 0.5 * cap)):
            norm = float(np.linalg.norm(out[k]))
            if not np.isfinite(norm) or norm > cap:
                raise InstabilityError(t[k] + h[k], _instability_message(norm, t[k] + h[k], cap))


def _steps(bands, h, psi, out) -> None:
    """RK4 steps of sizes h from psi, one after the other, into the rows of
    out, under a three-row H: bands[4 k + s] is H's (3, dim) bands at stage
    s of step k. Bit for bit the step-by-step loop."""
    with np.errstate(over="ignore", invalid="ignore"):
        for k, hk in enumerate(h):
            psi = out[k] = _rk4_step(lambda s, v: _apply(bands[4 * k + s], v), psi, hk)


def _diagonal_steps(bands, h, psi, out) -> None:
    """_steps under a diagonal H, bands[4 k + s] its (1, dim) bands: each
    step's per-level factor is _rk4_step on a state of ones, with H acting
    as its diagonal, and the states are the running product of the factors
    from psi, which agrees with the step-by-step loop to rounding."""
    g = np.concatenate(bands).reshape(len(h), 4, -1)
    with np.errstate(over="ignore", invalid="ignore"):
        ones = np.ones((len(h), g.shape[2]))
        factors = _rk4_step(lambda s, v: g[:, s] * v, ones, np.array(h)[:, None])
        out[:] = np.multiply.accumulate(np.concatenate([psi[None], factors]), axis=0)[1:]


def convergence_probe(
    h_of_t: Callable[[float], BandOperator],
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


# Bytes of one (times, 2, m, m) float64 stack in the meters that build the
# metric: Dyson takes windows of report times this size, and the Hermitian
# image runs its products and norms over sub-blocks this size. Arrays past
# glibc's dynamic mmap threshold (about 393 KB at that point of a run) are
# given back to the system when freed and faulted in again, window after
# window.
SUB_BLOCK_BYTES = 64 * 1024


def _sub_block(dim: int) -> int:
    """Report times per sub-block: as many as keep a (times, 2, m, m)
    float64 stack, m = ceil(dim / 2), within SUB_BLOCK_BYTES, one at least."""
    m = (dim + 1) // 2
    return max(1, SUB_BLOCK_BYTES // (16 * m * m))


# math.hypot over arrays: np.hypot can round differently.
_hypot = np.vectorize(math.hypot, otypes=[float])


def dyson_residual(traj: MetricTrajectory, t_index, dim: int) -> float | np.ndarray:
    """Residual of the Dyson map's transport, at one report index or at each
    of an array of them.

    rho carries H to the Hermitian side's generator h = -2 W K0, W read from
    the trajectory: h = rho H rho^{-1} + i (d rho/dt) rho^{-1}, checked
    multiplied through by rho, where rho^{-1} is violently ill-conditioned:
    |i d(rho)/dt - (h rho - rho H)| over the interior block, normalized by
    max(1, |rho H|).
    """

    def window(lo: int, n: int) -> np.ndarray:
        # rho at lo - 4 .. lo + n + 3. Each time builds the rows its stencil
        # reads, then its own, as a single index does, so the metric caches
        # see the same calls whatever the window; rows no stencil reads stay
        # unset.
        stack = np.empty((n + 8, 2, (dim + 1) // 2, (dim + 1) // 2))
        for i in range(lo, lo + n):
            for j in (2, 1, -1, -2, 4, -4, 0):
                stack[i + j - lo + 4] = build_rho(traj.state_at(i + j), dim).blocks
        rho_dot = _fd4_richardson(stack, traj.dt)
        rho = ParityBlocks(stack[4:-4], dim)
        idx = np.arange(lo, lo + n)
        h = traj.h_bands(idx, dim)
        # rho H = x + i y and h rho = W k with real x, y and k = -2 K0 rho,
        # so the residual is (x - Re W k) + i (rho_dot + y - Im W k).
        x = rho @ BandOperator(h.real)
        y = rho @ BandOperator(h.imag)
        k = (rho.T @ k0_operator(dim, -2.0)).T.blocks
        w = traj.w[idx * traj.stride][:, None, None, None]
        re = ParityBlocks(x.blocks - w.real * k, dim)
        im = ParityBlocks(rho_dot + y.blocks - w.imag * k, dim)
        scale = np.maximum(1.0, _hypot(interior_norm(x), interior_norm(y)))
        return _hypot(interior_norm(re), interior_norm(im)) / scale

    return _per_report_time(t_index, traj.n_times, 4, window, _sub_block(dim))


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
        inv = traj.i_bands(np.arange(lo, lo + n), dim)
        gs = [traj.state_at(i) for i in range(lo, lo + n)]
        etas = np.stack([build_eta(g, dim).blocks for g in gs])
        rhos = np.stack([build_rho(g, dim).blocks for g in gs])
        out = np.empty(n)
        for a in range(0, n, _sub_block(dim)):
            s = slice(a, a + _sub_block(dim))
            inv_s = BandOperator(inv[s])
            eta, rho = ParityBlocks(etas[s], dim), ParityBlocks(rhos[s], dim)
            # I is real and eta real symmetric, so I_adj eta = (eta I)^T.
            eta_inv = eta @ inv_s
            herm = ParityBlocks(eta_inv.blocks - eta_inv.T.blocks, dim)
            r1 = interior_norm(herm) / np.maximum(1.0, interior_norm(eta_inv))
            # 2 K0 is diagonal: 2 K0 rho is (rho^T 2 K0)^T, entry by entry.
            k0_rho = (rho.T @ k0_operator(dim, 2.0)).T
            image = ParityBlocks((rho @ inv_s).blocks - k0_rho.blocks, dim)
            r2 = interior_norm(image) / np.maximum(1.0, interior_norm(k0_rho))
            out[s] = np.maximum(r1, r2)
        return out

    return _per_report_time(t_index, traj.n_times, 0, window, metric_window(dim))


# Bytes of a source's table of H(t) bands (one half-step index at least).
TABLE_BYTES = 32 * 1024


def _tabled(index: Callable[[float], int], rows: Callable[[int, int], np.ndarray]):
    """h_of_t(t), the BandOperator of row index(t) of a table of bands along
    the half-step grid. rows(lo, hi) builds the rows of indices lo .. hi - 1;
    a t whose index is not in the table replaces it: with the TABLE_BYTES of
    rows from that index on when the index follows the table's last row,
    with that row alone when it skips rows, as the convergence probe's
    coarse steps do. propagate holds a block's operators, and with them
    their tables, so a skipped row would be held for nothing. The rows are
    read-only views, and a time read twice, as an RK4 step reads t + h/2,
    gets the same operator."""
    size = max(1, TABLE_BYTES // rows(0, 1).nbytes)
    ops, lo = [], 0

    def h_of_t(t: float) -> BandOperator:
        nonlocal ops, lo
        k = index(t) - lo
        if not 0 <= k < len(ops):
            lo, k, n = lo + k, 0, size if k == len(ops) else 1
            table = rows(lo, lo + n)
            table.setflags(write=False)
            ops = [BandOperator(row) for row in table]
        return ops[k]

    return h_of_t


def hamiltonian_source(traj: MetricTrajectory, dim: int) -> Callable[[float], BandOperator]:
    """H(t) for the propagator, read from the trajectory's half-step grid.

    That grid holds every RK4 stage time of substeps 1, 2, 4 and 8 per
    report interval (at the flow's STRIDE of 8); any other t raises a
    ValueError naming it. The bands of a run of consecutive half-step
    indices are built at once, each row bit for bit su11_bands at its
    index alone.
    """
    coeffs = hamiltonian_coeffs(traj.half_omega, traj.half_alpha, traj.half_beta)
    return _tabled(traj.half_step_indexer(), lambda lo, hi: su11_bands(coeffs[lo:hi], dim))


def transformed_generator_source(
    traj: MetricTrajectory, dim: int
) -> Callable[[float], BandOperator]:
    """h(t) = -2 W(t) K0, the generator on the Hermitian side.

    The sign is fixed by the harmonic limit: W = -1 there, and the mapped
    states must evolve under the ordinary oscillator +2 K0. W is read from
    the half-step grid, and tabled, like H in hamiltonian_source; each row
    is k0_operator(dim, -2 W) at its index alone.
    """
    w_re = traj.half_w.real
    return _tabled(
        traj.half_step_indexer(),
        lambda lo, hi: k0_operator(dim, -2.0 * w_re[lo:hi, None, None]).bands,
    )


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
