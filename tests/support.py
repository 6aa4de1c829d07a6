"""Shared test oracles, written independently of the library code paths.

reference_expm is a plain scaling-and-squaring Taylor exponential;
dense_inverse is hand-rolled Gaussian elimination with partial pivoting;
ladder_exp_loop builds exp(tau K+-) band by band with tau inside the product
recurrence, where phinv reads a per-dim coefficient table; the dense_*
meters are the residual meters as dense matrix algebra over the full
generator matrices, where phinv multiplies by three diagonals; the
dense_gemm_* builders form rho, rho^-1 and eta from the same factors by full
dense products, where phinv multiplies the factors' parity blocks. They
exist so the factored/banded production routes are checked against
algorithms that share none of their structure.

build_operator_set (and its per-dim cache cached_operator_set) is the dense
generator oracle: a, a_dag, K+-, K0, x and p as full complex matrices from
a[n-1, n] = sqrt(n) and matrix products, where phinv writes the su(1,1)
diagonals from their closed form. InvariantCoefficients holds the
invariant's coefficients delta1, delta2, delta3, which phinv folds into its
bands; HamiltonianCoefficients holds H's (omega, alpha, beta) at one time,
and coeffs_at reads them off a trajectory's dense grid at a report index,
where phinv reads H's bands through MetricTrajectory.h_bands.
su11_operator is one su(1,1) combination as a BandOperator, from phinv's
band formula; the package itself builds bands only.

ensure_operator, commutator, apply, adjoint, frobenius_distance,
nilpotent_exp and diagonal_power are the small exact matrix toolkit the
operator-algebra tests are written in, with phinv's input checks (square,
finite, matching shapes); the last two raise StructureError on an argument
without the structure they need.

conjugate_k, raw_metric_rates and uv_coefficients are closed forms of the
paper that the pipeline does not evaluate: the conjugated su(1,1)
generators, the unreduced metric-flow rates, and the K- and K+ coefficients
U and V of the transformed generator. The tests check the first against
phinv's metric, the second against its reduced flow, and that the last two
vanish along its constrained trajectories.

whole_horizon_flow is the metric flow's step loop as integrate_metric ran
it before it converted its stage samples a block at a time: every
substep's samples are turned into Python floats before the first step.

propagate_loop is the RK4 integrator as a plain loop, one step and one
state at a time with a norm check after each step: the reference for
propagate, which takes a diagonal generator's steps a block at a time as a
running product of per-level factors.

gauss_params is the other route to the metric factors: it disentangles
exp(epsilon 2 K0 + mu 2 (K+ + K-)) from the generator pair, where phinv
reads the factors off the flow state (Phi, vtheta0). gauss_factors gives
its three numbers, chi computed on its own rather than as Phi^2 - vtheta0,
and check_gauss_identities the relations between them.

reference_parse_csv reads series.csv with one float() per cell, where
phinv's reader hands the data lines to numpy's text reader in one call.

HARMONIC_DRIVE is the generator-mode drive of integrate_metric for the
harmonic oscillator at omega = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from phinv import (
    DomainError,
    InstabilityError,
    MetricState,
    NumericsError,
    build_eta,
    build_rho,
    build_rho_inverse,
    interior_norm,
)
from phinv.fock import BandOperator, ParityBlocks, ensure_state, k0_operator, su11_bands
from phinv.metric import ladder_exp
from phinv.model import STRIDE, invariant_op, metric_rhs
from phinv.propagator import INSTABILITY_FACTOR, _fd4_richardson
from phinv.runner import CSV_EOL, RAYLEIGH_MAX_N

HARMONIC_DRIVE = {"re_omega": lambda t: 1.0, "im_omega": lambda t: 0.0, "im_beta": lambda t: 0.0}


def reference_parse_csv(csv_text: str) -> dict[str, np.ndarray]:
    """A well-formed series.csv as named columns, one float() per cell."""
    header, *rows = [r for r in csv_text.split(CSV_EOL) if r != ""]
    data = np.array([[float(cell) for cell in r.split(",")] for r in rows])
    return {name: data[:, j] for j, name in enumerate(header.split(","))}


def per_time_metric_meters(traj, states: np.ndarray, dim: int) -> dict[str, np.ndarray]:
    """The eta-norm, Rayleigh, Dyson and Hermitian-image series the runner
    reports, one report time at a time on single-time parity blocks, as the
    runner's loop formed them before the meters took windows of report
    times. Dyson is nan outside its 4-point margin."""
    n = traj.n_times
    levels = np.arange(min(RAYLEIGH_MAX_N, dim // 4) + 1) + 0.5
    out = {name: np.full(n, math.nan) for name in ("eta_norm", "rayleigh", "dyson", "image")}
    for i in range(n):
        s = traj.state_at(i)
        eta, rho, inv = build_eta(s, dim), build_rho(s, dim), invariant_op(s, dim)
        out["eta_norm"][i] = float(np.real(np.vdot(states[i], eta @ states[i])))
        v = build_rho_inverse(s, dim)[:, : len(levels)]
        den = np.sum(v * (eta @ v), axis=0)
        num = np.sum(v * (eta @ (inv @ v)), axis=0)
        out["rayleigh"][i] = float(np.max(np.abs(num / den - levels)))
        if 4 <= i < n - 4:
            stencil = np.zeros((9,) + eta.blocks.shape)
            for j in (-4, -2, -1, 1, 2, 4):
                stencil[4 + j] = build_eta(traj.state_at(i + j), dim).blocks
            eta_dot = _fd4_richardson(stencil, traj.dt)[0]
            h = traj.h_bands(i, dim)
            x, y = eta @ BandOperator(h.real), eta @ BandOperator(h.imag)
            re = ParityBlocks(eta_dot + (y.blocks + y.T.blocks), dim)
            im = ParityBlocks(x.T.blocks - x.blocks, dim)
            scale = max(1.0, math.hypot(interior_norm(x), interior_norm(y)))
            out["dyson"][i] = math.hypot(interior_norm(re), interior_norm(im)) / scale
        eta_inv = eta @ inv
        herm = ParityBlocks(eta_inv.blocks - eta_inv.T.blocks, dim)
        r1 = interior_norm(herm) / max(1.0, interior_norm(eta_inv))
        # 2 K0 rho, entry [i, j] the product 2 K0[i, i] rho[i, j].
        k0_rho = ParityBlocks.from_dense(k0_operator(dim, 2.0).bands[0][:, None] * rho.dense())
        image = ParityBlocks((rho @ inv).blocks - k0_rho.blocks, dim)
        r2 = interior_norm(image) / max(1.0, interior_norm(k0_rho))
        out["image"][i] = max(r1, r2)
    return out


class StructureError(NumericsError):
    """Matrix lacks the structure an algorithm requires (band, diagonal)."""


@dataclass(frozen=True)
class OperatorSet:
    """The ladder, su(1,1), and quadrature operators at one dimension."""

    dim: int
    a: np.ndarray
    a_dag: np.ndarray
    k_plus: np.ndarray
    k_minus: np.ndarray
    k_zero: np.ndarray
    x: np.ndarray
    p: np.ndarray


def build_operator_set(dim: int) -> OperatorSet:
    """Populate a, a_dag, K_plus, K_minus, K_zero, x, p at the given dimension.

    a[n-1, n] = sqrt(n); K_plus = a_dag^2/2, K_minus = a^2/2,
    K_zero = diag(n/2 + 1/4); x = (a + a_dag)/sqrt(2), p = i(a_dag - a)/sqrt(2).
    """
    if dim < 4:
        raise DomainError(f"dim must be >= 4, got {dim}")
    n = np.arange(dim)
    a = np.zeros((dim, dim), dtype=complex)
    a[n[:-1], n[1:]] = np.sqrt(n[1:])
    a_dag = a.conj().T.copy()
    k_plus = a_dag @ a_dag / 2
    k_minus = a @ a / 2
    k_zero = np.diag((n / 2 + 0.25).astype(complex))
    x = (a + a_dag) / math.sqrt(2)
    p = 1j * (a_dag - a) / math.sqrt(2)
    return OperatorSet(dim, a, a_dag, k_plus, k_minus, k_zero, x, p)


@lru_cache(maxsize=8)
def cached_operator_set(dim: int) -> OperatorSet:
    """Shared read-only OperatorSet per dimension; callers must not mutate."""
    return build_operator_set(dim)


@dataclass(frozen=True)
class InvariantCoefficients:
    """The invariant's K0, K- and K+ coefficients over 2, from the paper:
    I = 2 delta1 K0 + 2 delta2 K- + 2 delta3 K+."""

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


class HamiltonianCoefficients(NamedTuple):
    """H's (omega, alpha, beta) at one time."""

    omega: complex
    alpha: complex
    beta: complex


def coeffs_at(traj, t_index: int) -> HamiltonianCoefficients:
    """(omega, alpha, beta) at a report index, from the dense grid's arrays."""
    j = t_index * traj.stride
    return HamiltonianCoefficients(*(complex(a[j]) for a in (traj.omega, traj.alpha, traj.beta)))


def su11_operator(dim: int, zero: complex, minus: complex, plus: complex) -> BandOperator:
    """zero K0 + minus K- + plus K+ as a BandOperator, one operator's case of
    phinv's su11_bands."""
    return BandOperator(su11_bands(np.array([zero, minus, plus]), dim))


def ensure_operator(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"operator must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("operator has non-finite entries")
    return a


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


def basis_state(dim: int, n: int) -> np.ndarray:
    """|n> as a complex dim-vector."""
    if not 0 <= n < dim:
        raise DomainError(f"basis index {n} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return v


_SERIES_CUTOFF = 1e-6


def _even_cosh(theta_sq: float) -> float:
    """cosh(theta) as an even analytic function of theta^2."""
    if abs(theta_sq) < _SERIES_CUTOFF:
        total, term = 0.0, 1.0
        for k in range(8):
            if k:
                term *= theta_sq / ((2 * k - 1) * (2 * k))
            total += term
        return total
    if theta_sq > 0:
        return math.cosh(math.sqrt(theta_sq))
    return math.cos(math.sqrt(-theta_sq))


def _even_sinhc(theta_sq: float) -> float:
    """sinh(theta)/theta as an even analytic function of theta^2."""
    if abs(theta_sq) < _SERIES_CUTOFF:
        total, term = 0.0, 1.0
        for k in range(8):
            if k:
                term *= theta_sq / ((2 * k) * (2 * k + 1))
            total += term
        return total
    if theta_sq > 0:
        t = math.sqrt(theta_sq)
        return math.sinh(t) / t
    t = math.sqrt(-theta_sq)
    return math.sin(t) / t


def gauss_factors(epsilon: float, mu: float) -> tuple[float, float, float]:
    """(vtheta_plus, vtheta_zero, chi) of the generator pair (epsilon, mu),
    with vtheta_minus = vtheta_plus.

    Evaluated through even functions of theta^2 = epsilon^2 - 4 mu^2, so the
    hyperbolic/trigonometric branch change is automatic and continuous.
    Raises DomainError where the factorization denominator vanishes
    or overflows.
    """
    theta_sq = epsilon * epsilon - 4 * mu * mu
    c = float(_even_cosh(theta_sq))
    s = float(_even_sinhc(theta_sq))
    d = float(c - epsilon * s)
    if not math.isfinite(d) or not math.isfinite(d * d):
        raise DomainError(
            f"factorization overflows at (epsilon={epsilon}, mu={mu})"
        )
    if abs(d) <= 1e-12 * max(1.0, abs(c), abs(epsilon * s)):
        raise DomainError(
            f"factorization denominator vanishes at (epsilon={epsilon}, mu={mu})"
        )
    return 2 * mu * s / d, 1.0 / (d * d), -(c + epsilon * s) / d


def check_gauss_identities(
    vtheta_plus: float, vtheta_zero: float, vtheta_minus: float, chi: float
) -> None:
    """The relations a Hermitian metric map's factors satisfy, with
    Phi = -vtheta_plus: vtheta_plus = vtheta_minus, vtheta_zero =
    Phi^2 - chi and (Phi^2 + chi)^2 - 4 chi Phi^2 = vtheta_zero^2."""
    th0 = vtheta_zero
    if not th0 > 0:
        raise DomainError(f"vtheta_zero must be positive, got {th0}")
    if abs(vtheta_plus - vtheta_minus) > 1e-12 * max(1.0, abs(vtheta_plus)):
        raise NumericsError("vtheta_plus != vtheta_minus (non-Hermitian rho)")
    phi = -vtheta_plus
    scale = max(1.0, abs(th0))
    if abs(th0 - (phi * phi - chi)) > 1e-12 * scale:
        raise NumericsError("vtheta_zero != phi_cap^2 - chi")
    lhs = (phi * phi + chi) ** 2 - 4 * chi * phi * phi
    if abs(lhs - th0 * th0) > 1e-12 * max(1.0, th0 * th0):
        raise NumericsError("(phi^2+chi)^2 - 4 chi phi^2 != vtheta_zero^2")


def gauss_params(epsilon: float, mu: float) -> MetricState:
    """The metric state whose factors disentangle the generator pair
    (epsilon, mu), after checking the factor identities."""
    vtheta_plus, vtheta_zero, chi = gauss_factors(epsilon, mu)
    check_gauss_identities(vtheta_plus, vtheta_zero, vtheta_plus, chi)
    return MetricState(-vtheta_plus, vtheta_zero)


def random_gauss_inputs(seed: int, count: int) -> list[tuple[float, float]]:
    """(epsilon, mu) pairs on the disentangling test square, avoiding the
    theta^2 = 0 seam and the factorization-denominator zero set."""
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
    e_plus = ladder_exp(g.vtheta_plus, dim, raising=True).dense()
    e_minus = ladder_exp(g.vtheta_minus, dim, raising=False).dense()
    return e_plus @ (_k0_diagonal_power(g.vtheta_zero, dim)[:, None] * e_minus)


def dense_gemm_rho_inverse(g, dim: int) -> np.ndarray:
    """The reversed factors with negated and reciprocal parameters, as one
    full gemm."""
    e_minus = ladder_exp(-g.vtheta_minus, dim, raising=False).dense()
    e_plus = ladder_exp(-g.vtheta_plus, dim, raising=True).dense()
    return e_minus @ (_k0_diagonal_power(1.0 / g.vtheta_zero, dim)[:, None] * e_plus)


def dense_gemm_eta(g, dim: int) -> np.ndarray:
    """rho^dag rho as one full gemm."""
    rho = dense_gemm_rho(g, dim)
    return adjoint(rho) @ rho


def dense_hamiltonian(omega, alpha, beta, dim: int) -> np.ndarray:
    """2 omega K0 + 2 alpha K- + 2 beta K+ summed over the dense generators."""
    ops = cached_operator_set(dim)
    return 2 * omega * ops.k_zero + 2 * alpha * ops.k_minus + 2 * beta * ops.k_plus


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
        lambda j: build_eta(traj.state_at(j), dim).dense(), t_index, traj.dt
    )
    eta = build_eta(traj.state_at(t_index), dim).dense()
    h_mat = dense_hamiltonian(*coeffs_at(traj, t_index), dim)
    residual = eta_dot + 1j * (h_mat.conj().T @ eta - eta @ h_mat)
    return interior_norm(residual) / max(1.0, interior_norm(eta @ h_mat))


def dense_invariant_residual(traj, t_index: int, dim: int) -> float:
    """|dI/dt - i [I, H]| / max(1, |i [I, H]|) on the interior block, with the
    time derivative taken over the full dense I."""
    di = _dense_fd4_richardson(
        lambda j: dense_invariant(traj.state_at(j), dim), t_index, traj.dt
    )
    inv = dense_invariant(traj.state_at(t_index), dim)
    h_mat = dense_hamiltonian(*coeffs_at(traj, t_index), dim)
    comm = 1j * (inv @ h_mat - h_mat @ inv)
    return interior_norm(di - comm) / max(1.0, interior_norm(comm))


def dense_hermitian_image_check(traj, t_index: int, dim: int) -> float:
    """max of |eta I - I_adj eta| / max(1, |eta I|) and
    |rho I - 2 K0 rho| / max(1, |2 K0 rho|), as dense matmuls."""
    s = traj.state_at(t_index)
    inv = dense_invariant(s, dim)
    eta = build_eta(s, dim).dense()
    rho = build_rho(s, dim).dense()
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
        raise DomainError(f"dim mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def apply(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    a = ensure_operator(a)
    v = ensure_state(v)
    if a.shape[1] != v.shape[0]:
        raise DomainError(f"dim mismatch: {a.shape} vs {v.shape}")
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
        raise DomainError(f"dim mismatch: {a.shape} vs {b.shape}")
    if exclude_top < 0 or exclude_top >= a.shape[0]:
        raise DomainError(f"exclude_top={exclude_top} out of range for dim {a.shape[0]}")
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


def propagate_loop(h_of_t, psi0: np.ndarray, times: np.ndarray, *, substeps: int = 8):
    """Classic RK4 for i d/dt psi = H(t) psi, step by step: each report
    interval in `substeps` steps, InstabilityError at the first step whose
    state is not finite or whose norm exceeds INSTABILITY_FACTOR times the
    initial norm. Returns the states at the given times."""
    psi0 = np.asarray(psi0, dtype=complex)
    cap = INSTABILITY_FACTOR * max(float(np.linalg.norm(psi0)), 1e-300)
    states = np.empty((len(times), len(psi0)), dtype=complex)
    states[0] = psi = psi0.copy()
    for i in range(len(times) - 1):
        t0, t1 = float(times[i]), float(times[i + 1])
        h = (t1 - t0) / substeps
        for k in range(substeps):
            t = t0 + k * h
            k1 = -1j * (h_of_t(t) @ psi)
            k2 = -1j * (h_of_t(t + 0.5 * h) @ (psi + 0.5 * h * k1))
            k3 = -1j * (h_of_t(t + 0.5 * h) @ (psi + 0.5 * h * k2))
            k4 = -1j * (h_of_t(t + h) @ (psi + h * k3))
            psi = psi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            norm = float(np.linalg.norm(psi))
            if not np.isfinite(norm) or norm > cap:
                raise InstabilityError(
                    t + h, f"state norm {norm:.3e} at t={t + h:.4f} (cap {cap:.1e})"
                )
        states[i + 1] = psi
    return states


def whole_horizon_flow(initial: MetricState, drive, t_max: float,
                       dt: float) -> tuple[np.ndarray, np.ndarray]:
    """(Phi, vtheta0) on integrate_metric's half-step grid, by its two RK4
    half steps per substep, with every stage sample of the horizon held as
    (Im omega, Im beta) tuples at once. It checks no guard: the drives it
    is called on stay inside them."""
    steps = round(t_max / dt)
    h = dt / STRIDE
    n_dense = steps * STRIDE
    dense_times = np.linspace(0.0, t_max, n_dense + 1)

    def sample(name, times):
        return np.broadcast_to(np.asarray(drive[name](times), dtype=float), times.shape)

    def rk4(p, q, h, d0, d_mid, d_end):
        a1, b1 = metric_rhs(p, q, *d0)
        a2, b2 = metric_rhs(p + 0.5 * h * a1, q + 0.5 * h * b1, *d_mid)
        a3, b3 = metric_rhs(p + 0.5 * h * a2, q + 0.5 * h * b2, *d_mid)
        a4, b4 = metric_rhs(p + h * a3, q + h * b3, *d_end)
        return (
            p + (h / 6.0) * (a1 + 2 * a2 + 2 * a3 + a4),
            q + (h / 6.0) * (b1 + 2 * b2 + 2 * b3 + b4),
        )

    h2 = h / 2
    t = dense_times[:-1]
    t_mid = t + 0.5 * h
    stage_times = np.stack([t, t_mid, t + h, t + 0.5 * h2, t_mid + 0.5 * h2, t_mid + h2])
    d0, d_mid, _, d_q1, d_q3, d_end2 = (
        list(zip(io, ib)) for io, ib in zip(
            sample("im_omega", stage_times).tolist(), sample("im_beta", stage_times).tolist()
        )
    )
    p, q = initial.phi_cap, initial.vtheta_zero
    phi = np.empty(2 * n_dense + 1)
    th0 = np.empty(2 * n_dense + 1)
    phi[0], th0[0] = p, q
    for i in range(n_dense):
        mid = rk4(p, q, h2, d0[i], d_q1[i], d_mid[i])
        p, q = rk4(*mid, h2, d_mid[i], d_q3[i], d_end2[i])
        phi[2 * i + 1], th0[2 * i + 1] = mid
        phi[2 * i + 2], th0[2 * i + 2] = p, q
    return phi, th0
