"""Time-dependent metric from the SU(1,1) Gauss factorization.

The Hermitian map rho = exp[vtheta_plus*K+] * vtheta0^{K0} * exp[vtheta_minus*K-]
and the metric eta = rho^dag rho are built in factored form only, which gives
an analytic inverse (reversed factors, negated parameters) and keeps every
factor exactly representable after truncation.

K+ and K- shift n by 2 and K0 keeps it, so every factor, and with them rho,
rho^{-1} and eta, is block-diagonal in the parity of n: each dense product
is formed as two products of the even and of the odd levels, a quarter of
the work, and written back into a dense matrix whose other entries are the
exact zeros of the full product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import NumericsError, SingularMetricError
from .fock import ensure_operator

_SERIES_CUTOFF = 1e-6
_PARITY_SECTORS = (slice(0, None, 2), slice(1, None, 2))


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


@dataclass(frozen=True)
class GaussParams:
    """Factorization data of the metric map."""

    vtheta_plus: float
    vtheta_zero: float
    vtheta_minus: float
    chi: float
    phi_cap: float

    def validate(self) -> "GaussParams":
        th0 = self.vtheta_zero
        if not th0 > 0:
            raise SingularMetricError(f"vtheta_zero must be positive, got {th0}")
        if abs(self.vtheta_plus - self.vtheta_minus) > 1e-12 * max(1.0, abs(self.vtheta_plus)):
            raise NumericsError("vtheta_plus != vtheta_minus (non-Hermitian rho)")
        phi, chi = self.phi_cap, self.chi
        scale = max(1.0, abs(th0))
        if abs(th0 - (phi * phi - chi)) > 1e-12 * scale:
            raise NumericsError("vtheta_zero != phi_cap^2 - chi")
        lhs = (phi * phi + chi) ** 2 - 4 * chi * phi * phi
        if abs(lhs - th0 * th0) > 1e-12 * max(1.0, th0 * th0):
            raise NumericsError("(phi^2+chi)^2 - 4 chi phi^2 != vtheta_zero^2")
        return self


def gauss_params(epsilon: float, mu: float) -> GaussParams:
    """Factorization parameters from the generator pair (epsilon, mu).

    Evaluated through even functions of theta^2 = epsilon^2 - 4 mu^2, so the
    hyperbolic/trigonometric branch change is automatic and continuous.
    """
    theta_sq = epsilon * epsilon - 4 * mu * mu
    c = float(_even_cosh(theta_sq))
    s = float(_even_sinhc(theta_sq))
    d = float(c - epsilon * s)
    if not math.isfinite(d) or not math.isfinite(d * d):
        raise SingularMetricError(
            f"factorization overflows at (epsilon={epsilon}, mu={mu})"
        )
    if abs(d) <= 1e-12 * max(1.0, abs(c), abs(epsilon * s)):
        raise SingularMetricError(
            f"factorization denominator vanishes at (epsilon={epsilon}, mu={mu})"
        )
    vtheta_plus = 2 * mu * s / d
    vtheta_zero = 1.0 / (d * d)
    chi = -(c + epsilon * s) / d
    return GaussParams(
        vtheta_plus=vtheta_plus,
        vtheta_zero=vtheta_zero,
        vtheta_minus=vtheta_plus,
        chi=chi,
        phi_cap=-vtheta_plus,
    ).validate()


def params_from_state(phi_cap: float, vtheta_zero: float) -> GaussParams:
    """Factorization parameters straight from the ODE state (Phi, vtheta0)."""
    if not vtheta_zero > 0:
        raise SingularMetricError(f"vtheta_zero must be positive, got {vtheta_zero}")
    chi = phi_cap * phi_cap - vtheta_zero
    return GaussParams(
        vtheta_plus=-phi_cap,
        vtheta_zero=vtheta_zero,
        vtheta_minus=-phi_cap,
        chi=chi,
        phi_cap=phi_cap,
    ).validate()


@lru_cache(maxsize=None)
def _ladder_table(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Band coefficients C and tau exponents K of exp(tau K+), and their
    transposes for exp(tau K-): C[n+2k, n] = sqrt((n+2k)!/n!) / (2^k k!),
    K[n+2k, n] = k, the diagonal C = 1 with K = 0, zero elsewhere.

    C comes from the product recurrence over k; it depends on dim only.
    """
    c = np.zeros((dim, dim))
    k_of = np.zeros((dim, dim), dtype=np.intp)
    coef = np.ones(dim)
    n_idx = np.arange(dim, dtype=float)
    for k in range(1, (dim - 1) // 2 + 1):
        width = dim - 2 * k
        coef = coef[:width] / (2 * k) * np.sqrt(
            (n_idx[:width] + 2 * k - 1) * (n_idx[:width] + 2 * k)
        )
        rows = np.arange(width) + 2 * k
        cols = np.arange(width)
        c[rows, cols] = coef
        k_of[rows, cols] = k
    np.fill_diagonal(c, 1.0)
    tables = (c, k_of, np.ascontiguousarray(c.T), np.ascontiguousarray(k_of.T))
    for a in tables:
        a.setflags(write=False)
    return tables


def ladder_exp(tau: float, dim: int, raising: bool) -> np.ndarray:
    """exp(tau * K+) or exp(tau * K-) from the closed-form band entries.

    The (n+2k, n) entry of exp(tau a_dag^2 / 2) is
    (tau/2)^k / k! * sqrt((n+2k)!/n!) = C[n+2k, n] tau^k; the lowering case
    is its transpose. C and the exponent map K come from a per-dim table, so
    a call is one gather of the powers of tau and one product. Entry for
    entry this equals the truncated Taylor sum of the truncated generator,
    just without the chain of matrix products.
    """
    c, k_of, c_t, k_of_t = _ladder_table(dim)
    powers = np.full((dim - 1) // 2 + 1, float(tau))
    powers[0] = 1.0
    np.cumprod(powers, out=powers)
    if raising:
        return c * powers[k_of]
    return c_t * powers[k_of_t]


def _k0_power(base: float, dim: int) -> np.ndarray:
    """Diagonal of base^{K0} with K0 = diag(n/2 + 1/4); the exponents
    0.25, 0.75, ... are exact, so one arange gives them."""
    return np.power(base, np.arange(0.25, dim / 2, 0.5))


def _sector_matmul(
    left: np.ndarray, right: np.ndarray, mid: np.ndarray | None = None
) -> np.ndarray:
    """left @ diag(mid) @ right (left @ right without mid) for real operators
    that keep the parity of n.

    Each parity sector is multiplied on its own and written into a dense
    zero matrix; the entries and terms left out are exact zeros of the full
    product. mid scales the rows of right's sector before the product, as
    in left @ (mid[:, None] * right).
    """
    out = np.zeros(left.shape)
    for s in _PARITY_SECTORS:
        r = right[s, s] if mid is None else mid[s, None] * right[s, s]
        np.matmul(left[s, s], r, out=out[s, s])
    return out


def build_rho(g: GaussParams, dim: int) -> np.ndarray:
    """Factored metric map; the lowering factor acts first, so the truncated
    product is the exact truncation of the full-space operator.

    Results are cached by parameter value and returned read-only; residual
    sweeps revisit the same state many times through overlapping stencils.
    """
    return _rho_cached(g.vtheta_plus, g.vtheta_zero, g.vtheta_minus, dim)


@lru_cache(maxsize=256)
def _rho_cached(vp: float, vz: float, vm: float, dim: int) -> np.ndarray:
    e_plus = ladder_exp(vp, dim, raising=True)
    mid = _k0_power(vz, dim)
    e_minus = ladder_exp(vm, dim, raising=False)
    out = _sector_matmul(e_plus, e_minus, mid)
    out.setflags(write=False)
    return out


def build_rho_inverse(g: GaussParams, dim: int) -> np.ndarray:
    """Analytic inverse: reversed factors with negated/reciprocal parameters."""
    return _rho_inv_cached(g.vtheta_plus, g.vtheta_zero, g.vtheta_minus, dim)


@lru_cache(maxsize=256)
def _rho_inv_cached(vp: float, vz: float, vm: float, dim: int) -> np.ndarray:
    e_minus = ladder_exp(-vm, dim, raising=False)
    mid = _k0_power(1.0 / vz, dim)
    e_plus = ladder_exp(-vp, dim, raising=True)
    out = _sector_matmul(e_minus, e_plus, mid)
    out.setflags(write=False)
    return out


def build_eta(g: GaussParams, dim: int) -> np.ndarray:
    return _eta_cached(g.vtheta_plus, g.vtheta_zero, g.vtheta_minus, dim)


@lru_cache(maxsize=256)
def _eta_cached(vp: float, vz: float, vm: float, dim: int) -> np.ndarray:
    rho = ensure_operator(_rho_cached(vp, vz, vm, dim))
    out = _sector_matmul(rho.T, rho)
    out.setflags(write=False)
    return out
