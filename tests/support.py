"""Shared test oracles, written independently of the library code paths.

reference_expm is a plain scaling-and-squaring Taylor exponential;
dense_inverse is hand-rolled Gaussian elimination with partial pivoting;
ladder_exp_loop builds exp(tau K+-) band by band with tau inside the product
recurrence, where phinv reads a per-dim coefficient table. They exist so
the factored/banded production routes are checked against algorithms that
share none of their structure.
"""

from __future__ import annotations

import numpy as np

from phinv import MetricState


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
