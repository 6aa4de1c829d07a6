import math

import numpy as np
import pytest

from phinv import (
    DomainError,
    GaussianShape,
    MetricState,
    PositionGrid,
    cross_representation_residual,
    orthonormality_matrix,
)
from phinv.model import invariant_op
from phinv.position import (
    canonical_agreement,
    eigenfunction,
    fock_to_position,
    hermite,
    simpson,
)

from support import basis_state, cached_operator_set, canonical_invariant, random_metric_states


def test_hermite_values():
    assert hermite(0, 1.7) == 1.0
    assert hermite(1, 0.5) == pytest.approx(1.0, abs=1e-14)
    assert hermite(2, 1.0) == pytest.approx(2.0, abs=1e-14)
    assert hermite(3, 0.5) == pytest.approx(-5.0, abs=1e-13)
    arr = hermite(2, np.array([0.0, 1.0]))
    assert np.allclose(arr, [-2.0, 2.0])


def test_hermite_order_bounds():
    with pytest.raises(DomainError):
        hermite(-1, 0.0)
    with pytest.raises(DomainError):
        hermite(31, 0.0)


def test_shape_coefficients_worked_point():
    shape = GaussianShape.from_state(MetricState(0.2, 1.0))
    assert shape.width_coeff == pytest.approx(1.0 / 0.928, abs=1e-12)
    assert shape.exp_coeff == pytest.approx(0.608 / 0.928, abs=1e-12)
    assert shape.weight_coeff == pytest.approx(-0.392 / 0.928, abs=1e-12)


def test_shape_coefficients_harmonic():
    shape = GaussianShape.from_state(MetricState(0.0, 1.0))
    assert (shape.width_coeff, shape.exp_coeff, shape.weight_coeff) == (1.0, 1.0, 0.0)


def test_shape_identity_on_random_states():
    for s in random_metric_states(seed=11, count=60):
        shape = GaussianShape.from_state(s)
        resid = abs(shape.exp_coeff - shape.weight_coeff - shape.width_coeff)
        assert resid <= 1e-12
        assert shape.width_coeff > 0


def test_shape_rejects_non_normalizable_regime():
    with pytest.raises(DomainError):
        GaussianShape.from_state(MetricState(1.5, 1.0))


def test_shape_validates_identity_directly():
    with pytest.raises(DomainError):
        GaussianShape(width_coeff=1.0, exp_coeff=1.0, weight_coeff=0.5)


def test_harmonic_ground_eigenfunction():
    x = np.linspace(-4.0, 4.0, 81)
    vals = eigenfunction(0, x, MetricState(0.0, 1.0))
    expected = math.pi**-0.25 * np.exp(-0.5 * x * x)
    assert np.max(np.abs(vals - expected)) <= 1e-14
    single = eigenfunction(0, 0.0, MetricState(0.0, 1.0))
    assert isinstance(single, complex)
    assert single == pytest.approx(math.pi**-0.25)


def test_eigenfunction_decays_at_grid_edge():
    s = MetricState(0.5, 1.0)
    grid = PositionGrid.for_shape(GaussianShape.from_state(s), n_max=4)
    assert abs(eigenfunction(4, grid.extent, s)) <= 1e-12


def test_grid_validation():
    with pytest.raises(DomainError, match="odd number of points"):
        PositionGrid(points=np.linspace(-1.0, 1.0, 10), spacing=2.0 / 9)
    with pytest.raises(DomainError, match="symmetric about 0"):
        PositionGrid(points=np.linspace(-1.0, 1.5, 11), spacing=0.25)
    with pytest.raises(DomainError, match="must be uniform"):
        PositionGrid(points=np.array([-1.0, -0.4, 0.0, 0.4, 1.0]), spacing=0.5)


def test_grid_auto_extension():
    shape = GaussianShape.from_state(MetricState(0.5, 1.0))
    grid = PositionGrid.for_shape(shape, n_max=6)
    # slow falloff (exp_coeff = 0.2) forces the edge far beyond 8 widths
    assert grid.extent > 8.0 / math.sqrt(shape.width_coeff) + 1.0
    assert len(grid.points) % 2 == 1


def test_weighted_gram_harmonic():
    s = MetricState(0.0, 1.0)
    grid = PositionGrid.for_shape(GaussianShape.from_state(s), n_max=6)
    assert orthonormality_matrix(6, s, grid) <= 1e-10


def test_weighted_gram_skewed_state():
    s = MetricState(0.5, 1.0)
    grid = PositionGrid.for_shape(GaussianShape.from_state(s), n_max=6)
    assert orthonormality_matrix(6, s, grid) <= 1e-6


def test_gram_requires_the_weight():
    s = MetricState(0.5, 1.0)
    grid = PositionGrid.for_shape(GaussianShape.from_state(s), n_max=4)
    x = grid.points
    funcs = [np.asarray(eigenfunction(n, x, s)) for n in range(5)]
    # The plain L2 Gram, without the metric weight exp(weight_coeff x^2).
    gram = np.array([[simpson(np.real(np.conj(f) * g), x) for g in funcs] for f in funcs])
    assert np.max(np.abs(gram - np.eye(5))) > 1e-2
    assert orthonormality_matrix(4, s, grid) <= 1e-6


def test_gram_rejects_undersized_grid():
    s = MetricState(0.5, 1.0)
    grid = PositionGrid(points=np.linspace(-2.0, 2.0, 41), spacing=0.1)
    with pytest.raises(DomainError):
        orthonormality_matrix(4, s, grid)


def test_canonical_form_harmonic():
    ops = cached_operator_set(16)
    expected = (ops.p @ ops.p + ops.x @ ops.x) / 2.0
    assert np.max(np.abs(canonical_invariant(MetricState(0.0, 1.0), 16) - expected)) <= 1e-13
    # x^2 and p^2 pick up truncation error on the top two levels only
    assert np.max(np.abs((expected - 2.0 * ops.k_zero)[:-2, :-2])) <= 1e-13


def test_canonical_matches_ladder_form():
    assert canonical_agreement(MetricState(0.5, 1.0), 64) <= 1e-9
    worst = max(canonical_agreement(s, 64) for s in random_metric_states(seed=5, count=50))
    assert worst <= 1e-9


@pytest.mark.parametrize("dim", [16, 65])
def test_canonical_agreement_on_a_sequence_is_each_state_alone(dim):
    states = random_metric_states(seed=7, count=11)
    values = canonical_agreement(states, dim)
    assert values == [canonical_agreement(s, dim) for s in states]
    assert all(type(v) is float for v in values)
    assert canonical_agreement(tuple(states[:1]), dim) == [canonical_agreement(states[0], dim)]
    assert canonical_agreement([], dim) == []


def test_canonical_cross_term_vanishes_at_zero_phi():
    ops = cached_operator_set(32)
    mat = canonical_invariant(MetricState(0.0, 0.7), 32)
    cross = ops.p @ ops.x + ops.x @ ops.p
    # at Phi = 0 the quadratic form has no px + xp piece, so it stays real
    assert np.max(np.abs(mat.imag)) <= 1e-13
    assert abs(np.vdot(cross, mat)) / np.linalg.norm(cross) ** 2 <= 1e-13


def test_fock_to_position_low_levels():
    grid = PositionGrid(points=np.linspace(-6.0, 6.0, 241), spacing=0.05)
    x = grid.points
    ground = fock_to_position(basis_state(8, 0).astype(complex), grid)
    assert np.max(np.abs(ground - math.pi**-0.25 * np.exp(-0.5 * x * x))) <= 1e-13
    first = fock_to_position(basis_state(8, 1).astype(complex), grid)
    expected = math.sqrt(2.0) * x * math.pi**-0.25 * np.exp(-0.5 * x * x)
    assert np.max(np.abs(first - expected)) <= 1e-13


def test_cross_representation_agreement():
    for n in range(4):
        assert cross_representation_residual(MetricState(0.0, 1.0), n, 64) <= 1e-10
    worst = max(cross_representation_residual(MetricState(0.2, 1.0), n, 64) for n in range(4))
    assert worst <= 1e-6


def test_cross_representation_on_invariant_eigenvector():
    s = MetricState(0.3, 1.1)
    assert cross_representation_residual(s, 2, 64) <= 1e-6
    inv = invariant_op(s, 64).dense()
    ops = cached_operator_set(64)
    from phinv import build_rho_inverse

    vec = build_rho_inverse(s, 64)[:, 2]
    resid = inv @ vec - 2.5 * vec
    assert np.linalg.norm(resid[:-8]) / np.linalg.norm(vec) <= 1e-10
