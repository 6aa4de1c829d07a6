"""Position-space form of the invariant and its eigenfunctions.

The invariant's eigenfunctions are weight-orthonormal Gaussians times
Hermite polynomials. This module builds their shape coefficients from a
metric state, evaluates them, checks orthonormality by Simpson quadrature,
builds the canonical quadratic (x, p) form of the invariant, and compares
the closed-form eigenfunctions against the Fock-basis eigenvectors
synthesized on the same grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .fock import interior_norm
from .metric import build_rho_inverse
from .model import MetricState, invariant_op

HERMITE_CAP = 30
EDGE_DECAY = 1e-12
DEFAULT_POINTS = 2001


@dataclass(frozen=True)
class GaussianShape:
    """Quadratic-exponent coefficients of the eigenfunction family.

    width_coeff scales the Hermite argument and the classic weight
    exp(-width x^2); exp_coeff is the Gaussian falloff of each
    eigenfunction; weight_coeff is the exponent of the metric weight factor.
    They satisfy exp_coeff - weight_coeff = width_coeff, which is exactly
    what makes the weighted Gram integrand the standard Hermite one.
    """

    width_coeff: float
    exp_coeff: float
    weight_coeff: float

    def __post_init__(self):
        if not self.width_coeff > 0:
            raise DomainError(
                f"width coefficient {self.width_coeff:.6g} is not positive; "
                "the eigenfunctions are non-normalizable in this regime"
            )
        resid = abs(self.exp_coeff - self.weight_coeff - self.width_coeff)
        scale = max(1.0, abs(self.width_coeff))
        if resid > 1e-12 * scale:
            raise DomainError(
                f"shape identity exp - weight = width violated by {resid:.3e}"
            )

    @classmethod
    def from_state(cls, s: MetricState) -> "GaussianShape":
        phi, chi, th0 = s.phi_cap, s.chi, s.vtheta_zero
        d = (phi - chi) * (1.0 - phi)
        if d == 0:
            raise DomainError("shape denominator (Phi - chi)(1 - Phi) vanishes")
        return cls(
            width_coeff=th0 / d,
            exp_coeff=(th0 + phi * (chi - 1.0)) / d,
            weight_coeff=phi * (chi - 1.0) / d,
        )


def hermite(n: int, y):
    """Physicists' Hermite polynomial by the three-term recurrence."""
    if not 0 <= n <= HERMITE_CAP:
        raise DomainError(f"Hermite order {n} outside [0, {HERMITE_CAP}]")
    y = np.asarray(y, dtype=float)
    h_prev = np.ones_like(y)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h = 2.0 * y
    for k in range(1, n):
        h, h_prev = 2.0 * y * h - 2.0 * k * h_prev, h
    return h if h.ndim else float(h)


@dataclass(frozen=True)
class PositionGrid:
    """Uniform symmetric grid sized so Simpson quadrature is trustworthy."""

    points: np.ndarray
    spacing: float

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 1 or len(pts) < 3 or len(pts) % 2 == 0:
            raise DomainError("grid needs an odd number of points, at least 3")
        steps = np.diff(pts)
        if np.any(np.abs(steps - self.spacing) > 1e-9 * max(1.0, self.spacing)):
            raise DomainError("grid must be uniform")
        if abs(pts[0] + pts[-1]) > 1e-9 * max(1.0, abs(pts[0])):
            raise DomainError("grid must be symmetric about 0")

    @property
    def extent(self) -> float:
        return float(self.points[-1])

    @classmethod
    def for_shape(cls, shape: GaussianShape, n_max: int = 0) -> "PositionGrid":
        """Auto-sized grid: 8 widths of the requested family, extended until
        the highest eigenfunction decays below the edge threshold, with
        spacing that resolves its fastest oscillation by 20+ points, and at
        least DEFAULT_POINTS points."""
        extent = 8.0 / math.sqrt(shape.width_coeff)
        amp = _envelope_edge(shape, n_max, extent)
        while amp > 0.1 * EDGE_DECAY and extent < 64.0 / math.sqrt(shape.width_coeff):
            extent *= 1.2
            amp = _envelope_edge(shape, n_max, extent)
        k_max = math.sqrt((2 * n_max + 1) * max(shape.width_coeff, shape.exp_coeff))
        max_spacing = (2 * math.pi / k_max) / 20.0
        needed = int(math.ceil(2 * extent / max_spacing)) + 1
        n_points = DEFAULT_POINTS
        if needed > n_points:
            n_points = needed if needed % 2 == 1 else needed + 1
        pts = np.linspace(-extent, extent, n_points)
        return cls(points=pts, spacing=float(pts[1] - pts[0]))


def _envelope_edge(shape: GaussianShape, n: int, extent: float) -> float:
    norm = _normalization(shape, n)
    y = math.sqrt(shape.width_coeff) * extent
    h_edge = abs(hermite(n, y))
    return norm * h_edge * math.exp(-0.5 * shape.exp_coeff * extent * extent)


def simpson(y: np.ndarray, x: np.ndarray):
    """Integral of y(x) by composite Simpson's rule over pairs of intervals,
    for an odd number of points (x may be unequally spaced).

    This is scipy.integrate.simpson(y, x=x) for odd len(y), operation for
    operation, so the results are bit-identical; y may be complex.
    """
    y = np.asarray(y)
    x = np.asarray(x, dtype=float)
    if y.ndim != 1 or y.shape != x.shape or len(y) < 3 or len(y) % 2 == 0:
        raise DomainError("simpson needs 1-D y and x of one odd length, at least 3")
    h = np.diff(x)
    h0 = h[0::2]
    h1 = h[1::2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = h0 / h1
    tmp = hsum / 6.0 * (
        y[0:-2:2] * (2.0 - 1.0 / h0divh1)
        + y[1:-1:2] * (hsum * (hsum / hprod))
        + y[2::2] * (2.0 - h0divh1)
    )
    return np.sum(tmp)


def check_edge_decay(shape: GaussianShape, n_max: int, grid: PositionGrid) -> None:
    """Raise DomainError when eigenfunction n_max is still above EDGE_DECAY
    at the grid edge, so quadrature on the grid would miss its tails."""
    edge = _envelope_edge(shape, n_max, grid.extent)
    if edge > EDGE_DECAY:
        raise DomainError(
            f"grid edge amplitude {edge:.3e} exceeds {EDGE_DECAY:.0e}; "
            "quadrature domain does not cover the integrand"
        )


def _normalization(shape: GaussianShape, n: int) -> float:
    return (
        1.0 / math.sqrt(math.factorial(n) * 2.0**n * math.sqrt(math.pi))
    ) * shape.width_coeff**0.25


def eigenfunction(n: int, x, s: MetricState):
    """Closed-form invariant eigenfunction at position x.

    (n! 2^n sqrt(pi))^{-1/2} width^{1/4} H_n(sqrt(width) x)
    exp(-exp_coeff x^2 / 2); orthonormal under the weight
    exp(+weight_coeff x^2).
    """
    shape = GaussianShape.from_state(s)
    x = np.asarray(x, dtype=float)
    norm = _normalization(shape, n)
    y = math.sqrt(shape.width_coeff) * x
    vals = norm * hermite(n, y) * np.exp(-0.5 * shape.exp_coeff * x * x)
    out = np.asarray(vals, dtype=complex)
    return out if out.ndim else complex(out)


def orthonormality_matrix(n_max: int, s: MetricState, grid: PositionGrid) -> float:
    """max |G - 1| for the weighted Gram matrix G of the first n_max+1
    eigenfunctions, by Simpson quadrature."""
    shape = GaussianShape.from_state(s)
    x = grid.points
    check_edge_decay(shape, n_max, grid)
    funcs = np.stack([np.asarray(eigenfunction(n, x, s)) for n in range(n_max + 1)])
    weight = np.exp(shape.weight_coeff * x * x)
    gram = np.empty((n_max + 1, n_max + 1))
    for m in range(n_max + 1):
        for n in range(m, n_max + 1):
            integrand = np.real(np.conj(funcs[m]) * weight * funcs[n])
            val = float(simpson(integrand, x))
            gram[m, n] = gram[n, m] = val
    return float(np.max(np.abs(gram - np.eye(n_max + 1))))


def _quadratures(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense p^2, px + xp and x^2 from x = (a + a_dag)/sqrt(2) and p =
    i(a_dag - a)/sqrt(2), a[n-1, n] = sqrt(n): the one dense route to the
    invariant, independent of the su(1,1) bands. Nothing caches them: a
    caller that needs them for several states builds them once and passes
    them on, as canonical_agreement does."""
    n = np.arange(dim)
    a = np.zeros((dim, dim), dtype=complex)
    a[n[:-1], n[1:]] = np.sqrt(n[1:])
    a_dag = a.conj().T.copy()
    x = (a + a_dag) / math.sqrt(2)
    p = 1j * (a_dag - a) / math.sqrt(2)
    return p @ p, p @ x + x @ p, x @ x


def _canonical_form(s: MetricState, pp, px_xp, xx) -> np.ndarray:
    """The invariant as a quadratic form in the quadratures pp, px_xp, xx:

    (1/(2 vtheta0)) [ (Phi-chi)(1-Phi) p^2 - i Phi (chi-1)(px+xp)
                      - (Phi+chi)(1+Phi) x^2 ].
    The px+xp coefficient vanishes exactly when Phi = 0 or chi = 1.
    """
    phi, chi, th0 = s.phi_cap, s.chi, s.vtheta_zero
    quad = (
        (phi - chi) * (1.0 - phi) * pp
        - 1j * phi * (chi - 1.0) * px_xp
        - (phi + chi) * (1.0 + phi) * xx
    )
    return quad / (2.0 * th0)


def fock_to_position(vec: np.ndarray, grid: PositionGrid) -> np.ndarray:
    """Synthesize a Fock-basis vector as a position wavefunction, or the
    columns of a (dim, k) matrix as a (k, points) array of them, each row
    bit for bit its column alone.

    Oscillator eigenfunctions come from the stable two-term recurrence
    psi_{m+1} = sqrt(2/(m+1)) x psi_m - sqrt(m/(m+1)) psi_{m-1}, seeded with
    the normalized ground Gaussian. A real vector gives a real wavefunction.
    """
    vec = np.asarray(vec)[..., None]
    x = grid.points
    psi_prev = np.zeros_like(x)
    psi = math.pi**-0.25 * np.exp(-0.5 * x * x)
    out = vec[0] * psi
    for m in range(len(vec) - 1):
        psi, psi_prev = (
            math.sqrt(2.0 / (m + 1)) * x * psi - math.sqrt(m / (m + 1.0)) * psi_prev,
            psi,
        )
        out += vec[m + 1] * psi
    return out


def cross_representation_residual(s: MetricState, n, dim: int, top: int = 0):
    """Pointwise mismatch between the two routes to the same eigenfunction:
    a float for one level n, a list of floats for a sequence of levels.

    Route one: rho^{-1}|n> in the Fock basis, synthesized on the grid. Route
    two: the closed-form eigenfunction. Both are L2-normalized on the grid
    (the closed form is weight-normalized, so its plain L2 norm differs by a
    real factor), then aligned by one unit-modulus complex factor. Returns
    max |difference| / max |closed form|. top is the highest level the
    caller's run tracks, so that its reads of rho^{-1} keep the columns its
    other reads keep (build_rho_inverse); a level n above top widens them.
    Levels whose grids coincide are synthesized together; each value is the
    one-level call's, bit for bit.
    """
    one = np.ndim(n) == 0
    levels = [n] if one else list(n)
    for level in levels:
        if not 0 <= level < dim:
            raise DomainError(f"level {level} out of range for dim {dim}")
    columns = [build_rho_inverse(s, dim, max(top, level))[:, level] for level in levels]
    shape = GaussianShape.from_state(s)
    grids = [PositionGrid.for_shape(shape, n_max=level) for level in levels]
    # linspace(-extent, extent, points) fixes a grid.
    keys = [(len(g.points), g.extent) for g in grids]
    synthesized = {}
    for j, key in enumerate(keys):
        if j not in synthesized:
            same = [i for i in range(j, len(keys)) if keys[i] == key]
            rows = fock_to_position(np.stack([columns[i] for i in same], axis=1), grids[j])
            synthesized.update(zip(same, rows))

    def normalized(v: np.ndarray, x: np.ndarray) -> np.ndarray:
        # One rounding rule for the real and the complex route: times the
        # reciprocal norm, as numpy divides a complex array by a real scalar.
        return v * (1.0 / math.sqrt(float(simpson(np.abs(v) ** 2, x))))

    values = []
    for j, level in enumerate(levels):
        x = grids[j].points
        synth = normalized(synthesized[j], x)
        closed = normalized(np.asarray(eigenfunction(level, x, s)), x)
        overlap = complex(simpson(np.conj(synth) * closed, x))
        if overlap == 0:
            values.append(float(np.max(np.abs(closed - synth))))
        else:
            resid = np.max(np.abs(closed - overlap / abs(overlap) * synth))
            values.append(float(resid / np.max(np.abs(closed))))
    return values[0] if one else values


def canonical_agreement(states, dim: int):
    """Interior-block Frobenius distance between the canonical (x, p) form
    and the ladder-coefficient form of the invariant: a float for one
    MetricState, a list of floats for a sequence of them, which builds the
    dense quadratures once for all of them. Each value is the one-state
    call's, bit for bit."""
    quadratures = _quadratures(dim)
    one = isinstance(states, MetricState)
    values = [
        interior_norm(_canonical_form(s, *quadratures) - invariant_op(s, dim).dense())
        for s in ([states] if one else states)
    ]
    return values[0] if one else values
