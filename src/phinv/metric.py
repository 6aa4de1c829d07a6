"""Time-dependent metric from the SU(1,1) Gauss factorization.

The Hermitian map rho = exp[vtheta_plus*K+] * vtheta0^{K0} * exp[vtheta_minus*K-]
and the metric eta = rho^dag rho are built in factored form only, which gives
an analytic inverse (reversed factors, negated parameters) and keeps every
factor exactly representable after truncation. The builders take a
MetricState: the flow state (Phi, vtheta0) fixes the factors, with
vtheta_plus = vtheta_minus = -Phi.

K+ and K- shift n by 2 and K0 keeps it, so every factor, and with them rho,
rho^{-1} and eta, is block-diagonal in the parity of n. build_rho and
build_eta return a fock.ParityBlocks: the even-level and the odd-level block
in one (2, m, m) array, m = ceil(dim / 2), the odd block zero-padded in its
last row and column when dim is odd, and `.dense()` for the dense matrix.
Each is one batched product of the factors' blocks, half the memory and a
quarter of the work of the dense product. rho^{-1} is read only through its
columns rho^{-1}|n> for low n, the invariant's eigenstates, so its cache
keeps only the blocks' columns of the first K = rho_inverse_columns(dim, top)
levels, where top is the run's highest tracked level, and
build_rho_inverse returns them as a (dim, K) array in natural level order.

The two caches keep the keys and the calls to ladder_exp per miss of the
dense builders (rho^{-1}'s key adds K, which is the same for every read in a
run), and hold 256 states each: at dim 192 a (2, 96, 96) rho block of 147 KB
(37.7 MB in all) and, for a run whose top is at most 6, a (2, 96, 4) rho^{-1}
block of 6 KB (1.6 MB; 9.8 MB when a run tracks level 48); the order of the
runner's sweeps over the report grid sets how often they miss. A run reads
the metric as <v, eta v> = |rho v|^2, since forming eta squares rho's
condition number; eta itself, read only by the Hermitian image, is not cached.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .fock import ParityBlocks

if TYPE_CHECKING:
    from .model import MetricState


@lru_cache(maxsize=None)
def _ladder_table(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Band coefficients C and tau exponents K of exp(tau K+), and their
    transposes for exp(tau K-), as (2, m, m) parity blocks:
    C[n+2k, n] = sqrt((n+2k)!/n!) / (2^k k!), K[n+2k, n] = k, the diagonal
    C = 1 with K = 0, zero elsewhere and in the padding.

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
    c, k_of = ParityBlocks.from_dense(c).blocks, ParityBlocks.from_dense(k_of).blocks
    tables = (
        c,
        k_of,
        np.ascontiguousarray(c.transpose(0, 2, 1)),
        np.ascontiguousarray(k_of.transpose(0, 2, 1)),
    )
    for a in tables:
        a.setflags(write=False)
    return tables


def ladder_exp(tau: float, dim: int, raising: bool) -> ParityBlocks:
    """exp(tau * K+) or exp(tau * K-) from the closed-form band entries.

    The (n+2k, n) entry of exp(tau a_dag^2 / 2) is
    (tau/2)^k / k! * sqrt((n+2k)!/n!) = C[n+2k, n] tau^k; the lowering case
    is its transpose. C and the exponent map K come from a per-dim table of
    parity blocks, so a call is one gather of the powers of tau and one
    product. Entry for entry this equals the truncated Taylor sum of the
    truncated generator, just without the chain of matrix products.
    """
    c, k_of, c_t, k_of_t = _ladder_table(dim)
    powers = np.full((dim - 1) // 2 + 1, float(tau))
    powers[0] = 1.0
    np.cumprod(powers, out=powers)
    if raising:
        return ParityBlocks(c * powers[k_of], dim)
    return ParityBlocks(c_t * powers[k_of_t], dim)


def _k0_power(base: float, dim: int) -> np.ndarray:
    """Diagonal of base^{K0} with K0 = diag(n/2 + 1/4) as (2, m) parity rows,
    0 in the padding; the exponents 0.25, 0.75, ... are exact, so one arange
    gives them."""
    m = (dim + 1) // 2
    out = np.zeros(2 * m)
    out[:dim] = np.power(base, np.arange(0.25, dim / 2, 0.5))
    return out.reshape(m, 2).T


def build_rho(g: MetricState, dim: int) -> ParityBlocks:
    """Factored metric map at the metric state g; the lowering factor acts
    first, so the truncated product is the exact truncation of the
    full-space operator.

    Results are cached by (vtheta_plus, vtheta_zero, vtheta_minus, dim) and
    returned with read-only blocks; residual sweeps revisit the same state
    many times through overlapping stencils.
    """
    return _rho_cached(g.vtheta_plus, g.vtheta_zero, g.vtheta_minus, dim)


def _readonly(blocks: np.ndarray, dim: int) -> ParityBlocks:
    """A builder's cached result; a map that overflowed raises instead."""
    if not np.all(np.isfinite(blocks)):
        raise DomainError("operator has non-finite entries")
    blocks.setflags(write=False)
    return ParityBlocks(blocks, dim)


@lru_cache(maxsize=256)
def _rho_cached(vp: float, vz: float, vm: float, dim: int) -> ParityBlocks:
    e_plus = ladder_exp(vp, dim, raising=True).blocks
    mid = _k0_power(vz, dim)
    e_minus = ladder_exp(vm, dim, raising=False).blocks
    return _readonly(np.matmul(e_plus, mid[:, :, None] * e_minus), dim)


def rho_inverse_columns(dim: int, top: int = 0) -> int:
    """K, the number of columns of rho^{-1} that build_rho_inverse keeps for
    a run whose highest tracked level is top.

    A run reads rho^{-1}|n> for its tracked levels and for n <= 6 in the
    Rayleigh and cross-representation meters; no caller reads further, so
    the columns past them are not kept. Every read in one run asks for the
    same K, so the cache holds one entry per state.
    """
    return min(dim, max(top, 6) + 1)


def build_rho_inverse(g: MetricState, dim: int, top: int = 0) -> np.ndarray:
    """The first rho_inverse_columns(dim, top) columns of the analytic
    inverse (reversed factors with negated/reciprocal parameters), a
    read-only real (dim, K) array in natural level order: column n is
    rho^{-1}|n>. top is the highest level the caller's run tracks; a caller
    that reads a level above 6 passes it, or a higher one, as top."""
    k = rho_inverse_columns(dim, top)
    blocks = _rho_inv_cached(g.vtheta_plus, g.vtheta_zero, g.vtheta_minus, dim, k)
    out = np.zeros((dim, k))
    for p in (0, 1):
        out[p::2, p::2] = blocks[p, : (dim - p + 1) // 2, : (k - p + 1) // 2]
    out.setflags(write=False)
    return out


@lru_cache(maxsize=256)
def _rho_inv_cached(vp: float, vz: float, vm: float, dim: int, k: int) -> np.ndarray:
    """The first k columns as (2, m, ceil(k / 2)) parity blocks. The full
    product is formed, and checked for overflow, before it is cut, so the
    kept entries are those of the full blocks."""
    e_minus = ladder_exp(-vm, dim, raising=False).blocks
    e_plus = ladder_exp(-vp, dim, raising=True).blocks
    # ladder_exp returns a fresh array: scaling it in place spares a miss
    # one more temporary of the full size.
    e_plus *= _k0_power(1.0 / vz, dim)[:, :, None]
    full = _readonly(np.matmul(e_minus, e_plus), dim).blocks
    cut = full[..., : (k + 1) // 2].copy()
    cut.setflags(write=False)
    return cut


def metric_window(dim: int) -> int:
    """Report times per window of the meters that build rho: 256 KB of (2, m, m)
    float64 blocks per stack (16 at dim 64, 1 at dim 192), at most 32."""
    m = (dim + 1) // 2
    return max(1, min(32, 256 * 1024 // (16 * m * m)))


def build_eta(g: MetricState, dim: int) -> ParityBlocks:
    """eta = rho^T rho (rho is real) from the cached rho, read-only, uncached."""
    rho = _rho_cached(g.vtheta_plus, g.vtheta_zero, g.vtheta_minus, dim).blocks
    return _readonly(np.matmul(rho.transpose(0, 2, 1), rho), dim)
