"""Shared test oracles, written independently of the library code paths.

reference_expm is a plain scaling-and-squaring Taylor exponential;
dense_inverse is hand-rolled Gaussian elimination with partial pivoting;
ladder_exp_loop builds exp(tau K+-) band by band with tau inside the product
recurrence, where phinv reads a per-dim coefficient table; the dense_*
meters are the residual meters as dense matrix algebra over the full
generator matrices, where phinv multiplies by three diagonals; the
dense_gemm_* builders form rho, rho^-1 and eta from the same factors by full
dense products, where phinv multiplies each parity sector on its own. They
exist so the factored/banded production routes are checked against
algorithms that share none of their structure.

commutator, apply, adjoint, frobenius_distance, nilpotent_exp and
diagonal_power are the small exact matrix toolkit the operator-algebra tests
are written in, with phinv's input checks (square, finite, matching shapes);
the last two raise StructureError on an argument without the structure they
need.

conjugate_k, raw_metric_rates and uv_coefficients are closed forms of the
paper that the pipeline does not evaluate: the conjugated su(1,1)
generators, the unreduced metric-flow rates, and the K- and K+ coefficients
U and V of the transformed generator. The tests check the first against
phinv's metric, the second against its reduced flow, and that the last two
vanish along its constrained trajectories.
"""

from __future__ import annotations

import math

import numpy as np

from phinv import (
    DomainError,
    InvariantCoefficients,
    MetricState,
    NumericsError,
    ShapeError,
    build_eta,
    build_rho,
    cached_operator_set,
    interior_norm,
    ladder_exp,
)
from phinv.fock import ensure_operator, ensure_state


class StructureError(NumericsError):
    """Matrix lacks the structure an algorithm requires (band, diagonal)."""


def reference_expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by Taylor series with norm scaling and squaring."""
    a = np.asarray(a, dtype=complex)
    norm = float(np.linalg.norm(a, np.inf))
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1e-300) / 0.25))))
    b = a / (2.0**squarings)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 60):
        term = term @ b / k
        out = out + term
        if float(np.linalg.norm(term, np.inf)) < 1e-24 * max(1.0, float(np.linalg.norm(out, np.inf))):
            break
    for _ in range(squarings):
        out = out @ out
    return out


def ladder_exp_loop(tau: float, dim: int, raising: bool) -> np.ndarray:
    """exp(tau K+) (raising) or exp(tau K-): the (n+2k, n) band entry
    (tau/2)^k / k! sqrt((n+2k)!/n!) accumulated over k with tau in every
    factor, written into the matrix one band at a time."""
    m = np.zeros((dim, dim))
    coef = np.ones(dim)
    n_idx = np.arange(dim, dtype=float)
    for k in range(1, (dim - 1) // 2 + 1):
        width = dim - 2 * k
        coef = coef[:width] * (tau / (2 * k)) * np.sqrt(
            (n_idx[:width] + 2 * k - 1) * (n_idx[:width] + 2 * k)
        )
        rows = np.arange(width) + 2 * k
        cols = np.arange(width)
        if raising:
            m[rows, cols] = coef
        else:
            m[cols, rows] = coef
    np.fill_diagonal(m, 1.0)
    return m


def dense_inverse(a: np.ndarray) -> np.ndarray:
    """Inverse via Gaussian elimination with partial pivoting (LU solve
    against the identity), no library inversion routines."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    aug = np.hstack([a.copy(), np.eye(n, dtype=complex)])
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(aug[col:, col])))
        if abs(aug[pivot, col]) == 0.0:
            raise ZeroDivisionError("singular matrix in dense_inverse")
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        aug[col] = aug[col] / aug[col, col]
        for row in range(n):
            if row != col and aug[row, col] != 0.0:
                aug[row] = aug[row] - aug[row, col] * aug[col]
    return aug[:, n:]


def random_metric_states(seed: int, count: int) -> list[MetricState]:
    """Valid metric states in the regime the flow actually visits:
    moderate Phi, vtheta0 near 1, well away from the constraint
    denominator zero."""
    rng = np.random.default_rng(seed)
    out: list[MetricState] = []
    while len(out) < count:
        phi = float(rng.uniform(-0.35, 0.35))
        th0 = float(rng.uniform(0.6, 1.6))
        if abs(2 * phi * phi - th0) < 0.1:
            continue
        out.append(MetricState(phi, th0))
    return out


def random_gauss_inputs(seed: int, count: int) -> list[tuple[float, float]]:
    """(epsilon, mu) pairs on the disentangling test square, avoiding the
    theta^2 = 0 seam and the factorization-denominator zero set."""
    import math

    from phinv.metric import _even_cosh, _even_sinhc

    rng = np.random.default_rng(seed)
    out: list[tuple[float, float]] = []
    while len(out) < count:
        eps = float(rng.uniform(-0.8, 0.8))
        mu = float(rng.uniform(-0.8, 0.8))
        theta_sq = eps * eps - 4 * mu * mu
        if abs(theta_sq) < 1e-3:
            continue
        d = _even_cosh(theta_sq) - eps * _even_sinhc(theta_sq)
        if abs(d) < 0.05:
            continue
        out.append((eps, mu))
    return out


def _k0_diagonal_power(base: float, dim: int) -> np.ndarray:
    """base^(n/2 + 1/4) for n = 0 .. dim - 1."""
    return np.power(base, np.arange(dim) / 2.0 + 0.25)


def dense_gemm_rho(g, dim: int) -> np.ndarray:
    """exp(vtheta_plus K+) vtheta0^K0 exp(vtheta_minus K-) as one full gemm."""
    e_plus = ladder_exp(g.vtheta_plus, dim, raising=True)
    e_minus = ladder_exp(g.vtheta_minus, dim, raising=False)
    return e_plus @ (_k0_diagonal_power(g.vtheta_zero, dim)[:, None] * e_minus)


def dense_gemm_rho_inverse(g, dim: int) -> np.ndarray:
    """The reversed factors with negated and reciprocal parameters, as one
    full gemm."""
    e_minus = ladder_exp(-g.vtheta_minus, dim, raising=False)
    e_plus = ladder_exp(-g.vtheta_plus, dim, raising=True)
    return e_minus @ (_k0_diagonal_power(1.0 / g.vtheta_zero, dim)[:, None] * e_plus)


def dense_gemm_eta(g, dim: int) -> np.ndarray:
    """rho^dag rho as one full gemm."""
    rho = dense_gemm_rho(g, dim)
    return adjoint(rho) @ rho


def dense_hamiltonian(c, dim: int) -> np.ndarray:
    """2 omega K0 + 2 alpha K- + 2 beta K+ summed over the dense generators."""
    ops = cached_operator_set(dim)
    return 2 * c.omega * ops.k_zero + 2 * c.alpha * ops.k_minus + 2 * c.beta * ops.k_plus


def dense_invariant(s: MetricState, dim: int) -> np.ndarray:
    """2 delta1 K0 + 2 delta2 K- + 2 delta3 K+ summed over the dense generators."""
    ops = cached_operator_set(dim)
    d = InvariantCoefficients.from_state(s)
    return 2 * d.delta1 * ops.k_zero + 2 * d.delta2 * ops.k_minus + 2 * d.delta3 * ops.k_plus


def _dense_fd4_richardson(value_at, i: int, h: float) -> np.ndarray:
    v = {j: value_at(j) for j in (i - 4, i - 2, i - 1, i + 1, i + 2, i + 4)}
    d_h = (-v[i + 2] + 8 * v[i + 1] - 8 * v[i - 1] + v[i - 2]) / (12 * h)
    d_2h = (-v[i + 4] + 8 * v[i + 2] - 8 * v[i - 2] + v[i - 4]) / (24 * h)
    return (16 * d_h - d_2h) / 15


def dense_dyson_residual(traj, t_index: int, dim: int) -> float:
    """|d(eta)/dt + i (H_adj eta - eta H)| / max(1, |eta H|) on the interior
    block, with every product a dense matmul."""
    eta_dot = _dense_fd4_richardson(
        lambda j: build_eta(traj.gauss_at(j), dim), t_index, traj.dt
    )
    eta = build_eta(traj.gauss_at(t_index), dim)
    h_mat = dense_hamiltonian(traj.coeffs_at(t_index), dim)
    residual = eta_dot + 1j * (h_mat.conj().T @ eta - eta @ h_mat)
    return interior_norm(residual) / max(1.0, interior_norm(eta @ h_mat))


def dense_invariant_residual(traj, t_index: int, dim: int) -> float:
    """|dI/dt - i [I, H]| / max(1, |i [I, H]|) on the interior block, with the
    time derivative taken over the full dense I."""
    di = _dense_fd4_richardson(
        lambda j: dense_invariant(traj.state_at(j), dim), t_index, traj.dt
    )
    inv = dense_invariant(traj.state_at(t_index), dim)
    h_mat = dense_hamiltonian(traj.coeffs_at(t_index), dim)
    comm = 1j * (inv @ h_mat - h_mat @ inv)
    return interior_norm(di - comm) / max(1.0, interior_norm(comm))


def dense_hermitian_image_check(traj, t_index: int, dim: int) -> float:
    """max of |eta I - I_adj eta| / max(1, |eta I|) and
    |rho I - 2 K0 rho| / max(1, |2 K0 rho|), as dense matmuls."""
    g = traj.gauss_at(t_index)
    inv = dense_invariant(traj.state_at(t_index), dim)
    eta = build_eta(g, dim)
    rho = build_rho(g, dim)
    two_k0 = 2 * cached_operator_set(dim).k_zero
    herm = eta @ inv - inv.conj().T @ eta
    r1 = interior_norm(herm) / max(1.0, interior_norm(eta @ inv))
    image = rho @ inv - two_k0 @ rho
    r2 = interior_norm(image) / max(1.0, interior_norm(two_k0 @ rho))
    return max(r1, r2)


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = ensure_operator(a)
    b = ensure_operator(b)
    if a.shape != b.shape:
        raise ShapeError(f"dim mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def apply(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    a = ensure_operator(a)
    v = ensure_state(v)
    if a.shape[1] != v.shape[0]:
        raise ShapeError(f"dim mismatch: {a.shape} vs {v.shape}")
    return a @ v


def adjoint(a: np.ndarray) -> np.ndarray:
    return ensure_operator(a).conj().T.copy()


def frobenius_distance(a: np.ndarray, b: np.ndarray, exclude_top: int = 0) -> float:
    """Frobenius norm of A - B, optionally on the interior block only.

    exclude_top drops that many of the highest basis levels from both rows
    and columns before taking the norm.
    """
    a = ensure_operator(a)
    b = ensure_operator(b)
    if a.shape != b.shape:
        raise ShapeError(f"dim mismatch: {a.shape} vs {b.shape}")
    if exclude_top < 0 or exclude_top >= a.shape[0]:
        raise ShapeError(f"exclude_top={exclude_top} out of range for dim {a.shape[0]}")
    keep = a.shape[0] - exclude_top
    return float(np.linalg.norm(a[:keep, :keep] - b[:keep, :keep]))


def nilpotent_exp(a: np.ndarray, bandwidth: int) -> np.ndarray:
    """Exponential of a strictly one-sided banded (hence nilpotent) matrix.

    The matrix must have every nonzero entry at offset >= bandwidth on a
    single triangular side; the finite Taylor sum of ceil(dim/bandwidth)
    terms is then exact up to rounding.
    """
    a = ensure_operator(a)
    if bandwidth < 1:
        raise StructureError(f"bandwidth must be >= 1, got {bandwidth}")
    dim = a.shape[0]
    rows, cols = np.nonzero(a)
    if rows.size:
        offsets = rows - cols
        if np.all(offsets >= bandwidth):
            pass
        elif np.all(offsets <= -bandwidth):
            pass
        else:
            raise StructureError(
                f"matrix is not strictly banded on one side with bandwidth {bandwidth}"
            )
    terms = math.ceil(dim / bandwidth)
    out = np.eye(dim, dtype=complex)
    power = np.eye(dim, dtype=complex)
    for k in range(1, terms + 1):
        power = power @ a / k
        out += power
    return out


def diagonal_power(base: float, d: np.ndarray) -> np.ndarray:
    """base ** D for a diagonal D, entrywise on the diagonal."""
    if base <= 0:
        raise DomainError(f"base must be positive, got {base}")
    d = ensure_operator(d)
    off = d - np.diag(np.diag(d))
    if np.any(off != 0):
        raise StructureError("diagonal_power requires a diagonal matrix")
    return np.diag(np.power(base, np.real(np.diag(d)))).astype(complex)


def conjugate_k(g, which: str, dim: int) -> np.ndarray:
    """Closed form of rho K rho^{-1} expanded over K+, K0, K-."""
    ops = cached_operator_set(dim)
    vp, vz, vm, chi = g.vtheta_plus, g.vtheta_zero, g.vtheta_minus, g.chi
    if which == "minus":
        combo = -2 * vp * ops.k_zero + ops.k_minus + vp * vp * ops.k_plus
    elif which == "zero":
        combo = -(vm * vp + chi) * ops.k_zero + vm * ops.k_minus + chi * vp * ops.k_plus
    elif which == "plus":
        combo = -2 * vm * chi * ops.k_zero + vm * vm * ops.k_minus + chi * chi * ops.k_plus
    else:
        raise ValueError(f"which must be 'plus', 'zero', or 'minus', got {which!r}")
    return combo / vz


def raw_metric_rates(s: MetricState, c) -> tuple[float, float]:
    """Unreduced metric-flow rates in terms of the full coefficients.

    The vtheta0 rate divides by Phi, so Phi = 0 is outside its domain; the
    reduced form in phinv.metric_rhs has no such division.
    """
    phi, chi, th0 = s.phi_cap, s.chi, s.vtheta_zero
    im_o, im_a, im_b = c.omega.imag, c.alpha.imag, c.beta.imag
    dphi = 2 * (-phi * im_o + im_a + phi * phi * im_b)
    if phi == 0.0:
        raise DomainError("raw vtheta0 rate divides by Phi")
    dth0 = (2 * th0 / phi) * (
        -2 * phi * im_o + im_a + (2 * phi * phi + chi) * im_b
    )
    return dphi, dth0


def uv_coefficients(s: MetricState, c, dphi: float, dvtheta0: float) -> tuple[complex, complex]:
    """U and V, the K- and K+ coefficients of the transformed generator, from
    their unsimplified definitions (no division by Phi). Along constrained
    trajectories both vanish."""
    phi, chi, th0 = s.phi_cap, s.chi, s.vtheta_zero
    om, al, be = c.omega, c.alpha, c.beta
    u = (om * phi - al - be * phi * phi + 0.5j * dphi) / th0
    v = (om * chi * phi - al * phi * phi - be * chi * chi
         + 0.5j * (th0 * dphi + phi * phi * dphi - phi * dvtheta0)) / th0
    return u, v
