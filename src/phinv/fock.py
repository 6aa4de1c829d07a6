"""Truncated Fock-space operators and their interior-block norms.

Operators live on the basis {|0>, ..., |N-1>}; states are complex N-vectors.
A combination of the su(1,1) generators K0 = a_dag a / 2 + 1/4,
K- = a^2 / 2 and K+ = a_dag^2 / 2 (the Hamiltonian, the invariant, 2 K0) is
a BandOperator: it is nonzero only on the diagonals at offsets 0 and +-2,
so it is stored as those three diagonals, written from their closed form
(a multiple of K0 as its main diagonal alone), and multiplies a vector in
O(N) and a matrix in O(N^2). The product of two such operators, a
commutator term, is again a BandOperator, on the diagonals at offsets 0,
+-2 and +-4, formed in O(N). Its dense form holds the same entries as the
sum of the dense generators built from a[n-1, n] = sqrt(n).
An operator that keeps the parity of n (the metric map rho, its inverse,
eta) is a ParityBlocks: its even-level and odd-level blocks in one
(2, m, m) array, m = ceil(N/2), so it stores and multiplies half the
entries of the dense matrix, none of them the dense matrix's exact zeros.
Products, transposes and interior norms of both kinds also run over a stack
of operators along a leading time axis, each time as it would alone.
Identities involving raising operators are only exact away from the
truncation edge, so comparisons support an interior block that excludes the
top few levels; `interior_norm` takes it on a dense array, on the bands or
on the parity blocks.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import DomainError

TAIL_LEVELS = 4


def ensure_state(v: np.ndarray) -> np.ndarray:
    v = np.asarray(v)
    if v.ndim != 1:
        raise DomainError(f"state must be a vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError("state has non-finite entries")
    return v


@lru_cache(maxsize=8)
def _su11_diagonals(dim: int) -> np.ndarray:
    """K0's diagonal n/2 + 1/4, K-'s diagonal at +2 and K+'s at -2, both
    sqrt(n+1) sqrt(n+2) / 2, as a read-only (3, dim) real stack (the last
    two slots of rows 1 and 2 are zero). Each entry is the one the dense
    products a a / 2 and a_dag a_dag / 2 hold, with a[n-1, n] = sqrt(n)."""
    if dim < 4:
        raise DomainError(f"dim must be >= 4, got {dim}")
    n = np.arange(dim)
    out = np.zeros((3, dim))
    out[0] = n / 2 + 0.25
    out[1, :-2] = out[2, :-2] = np.sqrt(n[:-2] + 1) * np.sqrt(n[:-2] + 2) / 2
    out.setflags(write=False)
    return out


class BandOperator:
    """An operator whose nonzero entries lie on diagonals at even offsets.

    bands is a (2m + 1, dim) array holding the diagonals at offsets 0, +2,
    -2, ..., +2m, -2m in that row order. The entry [n, n + k] of the offset-k
    diagonal sits in slot min(n, n + k) of its row, so a row at offset +-k
    fills its first dim - k slots and keeps the rest zero. The su(1,1)
    combinations have three rows; a diagonal operator may hold row 0 alone, a
    (1, dim) array. `op @ v`, `op @ M` and `op @ other_op` skip the
    exact-zero terms of the dense product and add the remaining ones in the
    order `op @ M` does, row by row of the left operand; `op @ other_op` is
    a BandOperator again (a diagonal op times a ParityBlocks is
    `(blocks.T @ op).T`). `.dense()` returns the dense matrix as a complex
    array; there is no other arithmetic with arrays. A stack of operators
    over time, bands of shape (T, rows, dim), multiplies a (T, dim) stack of
    states or a (T, dim, k) stack of matrices, and is taken by
    `interior_norm`.
    """

    # Makes ndarray @ op and ndarray + op raise instead of converting op.
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

    def __matmul__(self, other):
        if isinstance(other, BandOperator):
            return BandOperator(_band_product(self.bands, other.bands))
        if isinstance(other, ParityBlocks):
            return NotImplemented
        # Levels run along the last axis of the bands and of the states: a
        # matrix's columns are states, and a stack takes one state per time.
        b, v = self.bands, np.asarray(other)
        matrix = v.ndim == b.ndim
        if matrix:
            b, v = b[..., None, :, :], v.swapaxes(-1, -2)
        out = b[..., 0, :] * v
        for k in range(2, b.shape[-2], 2):
            head, tail = out[..., :-k], out[..., k:]
            head += b[..., k - 1, :-k] * v[..., k:]
            tail += b[..., k, :-k] * v[..., :-k]
        return out.swapaxes(-1, -2) if matrix else out


class ParityBlocks:
    """A real or complex operator that keeps the parity of n, held as its
    parity blocks.

    blocks is a (2, m, m) array with m = ceil(dim / 2): blocks[0][i, j] is
    the entry [2i, 2j] and blocks[1][i, j] the entry [2i + 1, 2j + 1]. For an
    odd dim the odd block has m - 1 levels and is zero-padded in its last
    row and column. `op @ v` takes a state or a (dim, k) matrix in natural
    order and returns one; `op @ band` with a BandOperator and `.T` return a
    ParityBlocks. Inside a block a band's rows at offsets +-2k are the rows
    at +-k. `.dense()` returns the dense matrix; other arithmetic runs on
    `.blocks`. Blocks of shape (T, 2, m, m) are a stack over time: `op @ v`
    takes a (T, dim) or (T, dim, k) stack, `op @ band` bands over the same
    times, and `.T`, `.columns` and `interior_norm` work per time.
    """

    # Makes ndarray @ op and ndarray + op raise instead of converting op.
    __array_ufunc__ = None

    def __init__(self, blocks: np.ndarray, dim: int):
        self.blocks = blocks
        self.dim = dim

    @classmethod
    def from_dense(cls, a: np.ndarray) -> "ParityBlocks":
        """The parity blocks of a square matrix; entries that join an even
        and an odd level are dropped."""
        dim = len(a)
        m = (dim + 1) // 2
        blocks = np.zeros((2, m, m), dtype=a.dtype)
        blocks[0] = a[0::2, 0::2]
        blocks[1, : dim // 2, : dim // 2] = a[1::2, 1::2]
        return cls(blocks, dim)

    def dense(self) -> np.ndarray:
        dim = self.dim
        out = np.zeros((dim, dim), dtype=self.blocks.dtype)
        out[0::2, 0::2] = self.blocks[0]
        out[1::2, 1::2] = self.blocks[1, : dim // 2, : dim // 2]
        return out

    @property
    def T(self) -> "ParityBlocks":
        return ParityBlocks(self.blocks.swapaxes(-1, -2), self.dim)

    def columns(self, stop: int) -> np.ndarray:
        """Columns 0 .. stop - 1 as a (..., dim, stop) array in natural order."""
        out = np.zeros(self.blocks.shape[:-3] + (self.dim, stop), dtype=self.blocks.dtype)
        for p in (0, 1):
            rows, cols = (self.dim - p + 1) // 2, (stop - p + 1) // 2
            out[..., p::2, p::2] = self.blocks[..., p, :rows, :cols]
        return out

    def __matmul__(self, other):
        if isinstance(other, BandOperator):
            # Each column j of a block collects the block's columns j -+ k
            # scaled by the band's +-k rows: the diagonal term, then for each
            # k the +k term and the -k term.
            b = _sector_bands(other.bands, self.dim)[..., None, :]
            a = self.blocks
            out = a * b[0]
            for k in range(1, (len(b) + 1) // 2):
                left, right = out[..., :-k], out[..., k:]
                right += a[..., :-k] * b[2 * k - 1, ..., :-k]
                left += a[..., k:] * b[2 * k, ..., :-k]
            return ParityBlocks(out, self.dim)
        if isinstance(other, ParityBlocks):
            return NotImplemented
        return self._apply(np.asarray(other))

    def _apply(self, v: np.ndarray) -> np.ndarray:
        """op @ v for a natural-order (..., dim) or (..., dim, k) array: one
        batched product over both blocks (of each time), read from and
        written to natural order through strided views. Real blocks take a
        complex v as its real and imaginary columns, so the blocks are never
        cast to complex."""
        dim, m, lead = self.dim, self.blocks.shape[-1], self.blocks.shape[:-3]
        cols = np.ascontiguousarray(v.reshape(lead + (dim, -1)))
        if dim != 2 * m:
            cols = np.concatenate([cols, np.zeros_like(cols[..., :1, :])], axis=-2)
        out = np.empty(lead + (m, 2, cols.shape[-1]), dtype=np.result_type(self.blocks, cols))
        x, y = cols.reshape(out.shape).swapaxes(-3, -2), out.swapaxes(-3, -2)
        if x.dtype.kind == "c" and self.blocks.dtype.kind != "c":
            x, y = x.view(np.float64), y.view(np.float64)
        np.matmul(self.blocks, x, out=y)
        return out.reshape(lead + (2 * m, -1))[..., :dim, :].reshape(v.shape)


def _sector_bands(bands: np.ndarray, dim: int) -> np.ndarray:
    """A band stack's rows split by parity, a (rows, ..., 2, m) array: slot
    i of sector p is the natural slot 2i + p, zero past the end of an odd
    dim. Stored rows at offsets 0, +-2, +-4, ... are a sector's 0, +-1, ..."""
    m = (dim + 1) // 2
    if dim != 2 * m:
        bands = np.concatenate([bands, np.zeros_like(bands[..., :1])], axis=-1)
    return np.moveaxis(bands.reshape(bands.shape[:-1] + (m, 2)).swapaxes(-1, -2), -3, 0)


def _band_offset(row: int) -> int:
    """Offset of the diagonal stored in a bands row: 0, +2, -2, +4, -4, ..."""
    return row + 1 if row % 2 else -row


def _band_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Bands of the product of two band stacks, (rows, dim) arrays or stacks
    of them over a leading time axis, (T, rows, dim).

    The entry [n, n + d] collects a[n, n + p] * b[n + p, n + d] over the
    rows p of a in their stored order, starting from zero, which is the sum
    `BandOperator(a) @ dense(b)` forms entry by entry once its exact zeros
    are dropped; each time of a stack is formed as that time alone would be.
    """
    rows_a, rows_b, dim = a.shape[-2], b.shape[-2], a.shape[-1]
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = np.zeros(lead + (rows_a + rows_b - 1, dim), dtype=np.result_type(a, b))
    for i in range(rows_a):
        p = _band_offset(i)
        for j in range(rows_b):
            q = _band_offset(j)
            d = p + q
            # n runs over lo <= n < hi, where n, n + p and n + d are levels;
            # each row is read from its slot min(row index, column index).
            lo, hi = max(0, -p, -d), dim - max(0, p, d)
            if hi <= lo:
                continue
            sa, sb, so = min(0, p), p + min(0, q), min(0, d)
            target = out[..., d - 1 if d > 0 else -d, lo + so : hi + so]
            target += a[..., i, lo + sa : hi + sa] * b[..., j, lo + sb : hi + sb]
    return out


def su11_bands(coeffs: np.ndarray, dim: int) -> np.ndarray:
    """Bands of zero K0 + minus K- + plus K+ from the coefficients
    (zero, minus, plus) on a last axis: a (3, dim) array for one operator, a
    (T, 3, dim) stack for a run of times. Each stored entry is the
    coefficient times the dense generator's entry; real coefficients give
    real bands."""
    return coeffs[..., None] * _su11_diagonals(dim)


def k0_operator(dim: int, coeff: float) -> BandOperator:
    """coeff K0 as a diagonal BandOperator, the same entries as coeff times
    the dense K0."""
    return BandOperator(coeff * _su11_diagonals(dim)[:1])


def interior_norm(
    a: np.ndarray | BandOperator | ParityBlocks, exclude_top: int = 3
) -> float | np.ndarray:
    """Frobenius norm of the block that drops the top `exclude_top` levels
    from both rows and columns, of a dense array, a BandOperator or a
    ParityBlocks. A stack of operators over time gives the T norms, each
    the norm of that time's operator.

    A dense block is summed where it lies (np.linalg.norm would first copy
    the non-contiguous slice); a band row at offset +-k keeps its first
    dim - exclude_top - k slots; of keep = dim - exclude_top levels, the even
    block keeps its first ceil(keep / 2) and the odd block floor(keep / 2).
    """
    if isinstance(a, BandOperator):
        b = a.bands
        keep = b.shape[-1] - exclude_top
        parts = [b[..., r, : max(keep - abs(_band_offset(r)), 0)] for r in range(b.shape[-2])]
        norms = np.linalg.norm(np.concatenate(parts, axis=-1), axis=-1)
        return float(norms) if norms.ndim == 0 else norms
    if isinstance(a, ParityBlocks):
        keep = a.dim - exclude_top
        even, odd = (keep + 1) // 2, keep // 2
        blocks = (a.blocks[..., 0, :even, :even], a.blocks[..., 1, :odd, :odd])
    else:
        keep = a.shape[0] - exclude_top
        blocks = (a[:keep, :keep],)
    total = 0.0
    for b in blocks:
        parts = (b.real, b.imag) if b.dtype.kind == "c" else (b,)
        total = total + sum(np.einsum("...ij,...ij->...", c, c) for c in parts)
    norms = np.sqrt(total)
    return float(norms) if norms.ndim == 0 else norms


def tail_support(v: np.ndarray) -> float:
    """Fraction of squared magnitude living in the top TAIL_LEVELS basis levels."""
    v = ensure_state(v)
    total = float(np.sum(np.abs(v) ** 2))
    if total == 0.0:
        return 0.0
    return float(np.sum(np.abs(v[-TAIL_LEVELS:]) ** 2)) / total
