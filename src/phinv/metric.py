"""Time-dependent metric from the SU(1,1) Gauss factorization.

The Hermitian map rho = exp[vtheta_plus*K+] * vtheta0^{K0} * exp[vtheta_minus*K-]
and the metric eta = rho^dag rho are built in factored form only, which gives
an analytic inverse (reversed factors, negated parameters) and keeps every
factor exactly representable after truncation. The builders take a
MetricState: the flow state (Phi, vtheta0) fixes the factors, with
vtheta_plus = vtheta_minus = -Phi.

K+ and K- shift n by 2 and K0 keeps it, so every factor, and with them rho,
rho^{-1} and eta, is block-diagonal in the parity of n: each dense product
is formed as two products of the even and of the odd levels, a quarter of
the work, and written back into a dense matrix whose other entries are the
exact zeros of the full product.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .fock import ensure_operator

if TYPE_CHECKING:
    from .model import MetricState

_PARITY_SECTORS = (slice(0, None, 2), slice(1, None, 2))


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


def build_rho(g: MetricState, dim: int) -> np.ndarray:
    """Factored metric map at the metric state g; the lowering factor acts
    first, so the truncated product is the exact truncation of the
    full-space operator.

    Results are cached by (vtheta_plus, vtheta_zero, vtheta_minus, dim) and
    returned read-only; residual sweeps revisit the same state many times
    through overlapping stencils.
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


def build_rho_inverse(g: MetricState, dim: int) -> np.ndarray:
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


def build_eta(g: MetricState, dim: int) -> np.ndarray:
    """eta = rho^T rho (rho is real), cached like rho."""
    return _eta_cached(g.vtheta_plus, g.vtheta_zero, g.vtheta_minus, dim)


@lru_cache(maxsize=256)
def _eta_cached(vp: float, vz: float, vm: float, dim: int) -> np.ndarray:
    rho = ensure_operator(_rho_cached(vp, vz, vm, dim))
    out = _sector_matmul(rho.T, rho)
    out.setflags(write=False)
    return out
