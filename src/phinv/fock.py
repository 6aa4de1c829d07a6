"""Truncated Fock-space operators and their interior-block norms.

Operators live on the basis {|0>, ..., |N-1>}; states are complex N-vectors.
The ladder and quadrature operators are dense complex numpy arrays. A
combination of the su(1,1) generators K0, K- and K+ (the Hamiltonian, the
invariant, 2 K0) is a BandOperator: it is nonzero only on the diagonals at
offsets 0 and +-2, so it is stored as those three diagonals (a multiple of
K0 as its main diagonal alone) and multiplies a vector in O(N) and a matrix
in O(N^2). The product of two such operators, a commutator term, is again a
BandOperator, on the diagonals at offsets 0, +-2 and +-4, formed in O(N).
Its dense form holds the same entries as the sum of the dense generators.
Identities involving raising operators are only exact away from the
truncation edge, so comparisons support an interior block that excludes the
top few levels; `interior_norm` takes it on a dense array or on the bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, DomainError, ShapeError

TAIL_LEVELS = 4


def ensure_operator(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"operator must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise DomainError("operator has non-finite entries")
    return a


def ensure_state(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    if v.ndim != 1:
        raise ShapeError(f"state must be a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError("state has non-finite entries")
    return v


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
        raise DimensionError(f"dim must be >= 4, got {dim}")
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


@lru_cache(maxsize=8)
def _su11_diagonals(dim: int) -> np.ndarray:
    """K0's diagonal, K-'s diagonal at +2 and K+'s at -2, read from the
    cached dense operators into a read-only (3, dim) real stack (the last
    two slots of rows 1 and 2 are zero)."""
    ops = cached_operator_set(dim)
    out = np.zeros((3, dim))
    out[0] = np.diagonal(ops.k_zero).real
    out[1, :-2] = np.diagonal(ops.k_minus, 2).real
    out[2, :-2] = np.diagonal(ops.k_plus, -2).real
    out.setflags(write=False)
    return out


class BandOperator:
    """An operator whose nonzero entries lie on diagonals at even offsets.

    bands is a (2m + 1, dim) array holding the diagonals at offsets 0, +2,
    -2, ..., +2m, -2m in that row order. The entry [n, n + k] of the offset-k
    diagonal sits in slot min(n, n + k) of its row, so a row at offset +-k
    fills its first dim - k slots and keeps the rest zero. The su(1,1)
    combinations have three rows; a diagonal operator may hold row 0 alone, a
    (1, dim) array. `.adjoint()` swaps each +k row with its -k row and
    conjugates. `op @ v`, `op @ M`, `M @ op` and `op @ other_op` skip the
    exact-zero terms of the dense product and add the remaining ones in the
    order `op @ M` does, row by row of the left operand; `op @ other_op` is
    a BandOperator again. Any other arithmetic with an array goes through
    the dense matrix, which `.dense()` and `np.asarray(op)` return as a
    complex array.
    """

    # Makes ndarray @ op defer to __rmatmul__ instead of converting op.
    __array_ufunc__ = None

    def __init__(self, bands: np.ndarray):
        self.bands = bands

    def dense(self) -> np.ndarray:
        b = self.bands
        i = np.arange(b.shape[1])
        out = np.zeros((len(i), len(i)), dtype=complex)
        out[i, i] = b[0]
        for k in range(2, len(b), 2):
            out[i[:-k], i[k:]] = b[k - 1, :-k]
            out[i[k:], i[:-k]] = b[k, :-k]
        return out

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        out = self.dense()
        return out if dtype is None else out.astype(dtype, copy=False)

    def adjoint(self) -> "BandOperator":
        # Conjugate, and swap each +k row with its -k row; slots stay put.
        b = self.bands.conj()
        rows = [0] + [r for k in range(1, len(b), 2) for r in (k + 1, k)]
        return BandOperator(b[rows])

    def __matmul__(self, other):
        if isinstance(other, BandOperator):
            return BandOperator(_band_product(self.bands, other.bands))
        other = np.asarray(other)
        b = self.bands if other.ndim == 1 else self.bands[:, :, None]
        out = b[0] * other
        for k in range(2, len(b), 2):
            head, tail = out[:-k], out[k:]
            head += b[k - 1, :-k] * other[k:]
            tail += b[k, :-k] * other[:-k]
        return out

    def __rmatmul__(self, other) -> np.ndarray:
        other = np.asarray(other)
        b = self.bands
        out = other * b[0]
        for k in range(2, len(b), 2):
            left, right = out[..., :-k], out[..., k:]
            right += other[..., :-k] * b[k - 1, :-k]
            left += other[..., k:] * b[k, :-k]
        return out

    def __add__(self, other) -> np.ndarray:
        return self.dense() + other

    __radd__ = __add__

    def __sub__(self, other) -> np.ndarray:
        return self.dense() - other

    def __rsub__(self, other) -> np.ndarray:
        return other - self.dense()


def _band_offset(row: int) -> int:
    """Offset of the diagonal stored in a bands row: 0, +2, -2, +4, -4, ..."""
    return row + 1 if row % 2 else -row


def _band_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bands of the product of two band stacks.

    The entry [n, n + d] collects a[n, n + p] * b[n + p, n + d] over the
    rows p of a in their stored order, starting from zero, which is the sum
    `BandOperator(a) @ dense(b)` forms entry by entry once its exact zeros
    are dropped.
    """
    dim = a.shape[1]
    out = np.zeros((len(a) + len(b) - 1, dim), dtype=np.result_type(a, b))
    for i, row_a in enumerate(a):
        p = _band_offset(i)
        for j, row_b in enumerate(b):
            q = _band_offset(j)
            d = p + q
            # n runs over lo <= n < hi, where n, n + p and n + d are levels;
            # each row is read from its slot min(row index, column index).
            lo, hi = max(0, -p, -d), dim - max(0, p, d)
            if hi <= lo:
                continue
            sa, sb, so = min(0, p), p + min(0, q), min(0, d)
            target = out[d - 1 if d > 0 else -d, lo + so : hi + so]
            target += row_a[lo + sa : hi + sa] * row_b[lo + sb : hi + sb]
    return out


def su11_operator(dim: int, zero: complex, minus: complex, plus: complex) -> BandOperator:
    """zero K0 + minus K- + plus K+ as a BandOperator.

    Each stored entry is the coefficient times the dense generator's entry,
    so `.dense()` equals the sum of the scaled dense generators. Real
    coefficients give real bands.
    """
    return BandOperator(np.array([zero, minus, plus])[:, None] * _su11_diagonals(dim))


def k0_operator(dim: int, coeff: float) -> BandOperator:
    """coeff K0 as a diagonal BandOperator, the same entries as coeff times
    the dense K0."""
    return BandOperator(coeff * _su11_diagonals(dim)[:1])


def interior_norm(a: np.ndarray | BandOperator, exclude_top: int = 3) -> float:
    """Frobenius norm of the block that drops the top `exclude_top` levels
    from both rows and columns, of a dense array or of a BandOperator.

    A dense block is summed where it lies (np.linalg.norm would first copy
    the non-contiguous slice); a band row at offset +-k keeps its first
    dim - exclude_top - k slots.
    """
    if isinstance(a, BandOperator):
        keep = a.bands.shape[1] - exclude_top
        parts = [row[: max(keep - abs(_band_offset(r)), 0)] for r, row in enumerate(a.bands)]
        return float(np.linalg.norm(np.concatenate(parts)))
    keep = a.shape[0] - exclude_top
    block = a[:keep, :keep]
    parts = (block.real, block.imag) if np.iscomplexobj(block) else (block,)
    return math.sqrt(sum(float(np.einsum("ij,ij->", x, x)) for x in parts))


def tail_support(v: np.ndarray) -> float:
    """Fraction of squared magnitude living in the top TAIL_LEVELS basis levels."""
    v = ensure_state(v)
    total = float(np.sum(np.abs(v) ** 2))
    if total == 0.0:
        return 0.0
    return float(np.sum(np.abs(v[-TAIL_LEVELS:]) ** 2)) / total


def basis_column(m: np.ndarray, n: int) -> np.ndarray:
    """Column n of the square matrix m, m|n>, as a new complex vector."""
    dim = m.shape[1]
    if not 0 <= n < dim:
        raise ShapeError(f"basis index {n} out of range for dim {dim}")
    return m[:, n].astype(complex)


def basis_state(dim: int, n: int) -> np.ndarray:
    if not 0 <= n < dim:
        raise ShapeError(f"basis index {n} out of range for dim {dim}")
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return v
