import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from support import (
    StructureError,
    random_metric_states,
    adjoint,
    apply,
    basis_state,
    build_operator_set,
    cached_operator_set,
    commutator,
    dense_gemm_rho_inverse,
    dense_hamiltonian,
    dense_invariant,
    diagonal_power,
    frobenius_distance,
    ladder_exp_loop,
    nilpotent_exp,
    propagate_loop,
    reference_expm,
    su11_operator,
)

from phinv import (
    DomainError,
    interior_norm,
    propagate,
    tail_support,
)
from phinv.fock import BandOperator, ParityBlocks, _band_product, k0_operator
from phinv.metric import build_eta, build_rho, ladder_exp
from phinv.model import MetricState, hamiltonian_coeffs, invariant_op
from phinv.propagator import _richardson


def test_minimum_dimension_enforced():
    with pytest.raises(DomainError, match="dim must be >= 4, got 3"):
        su11_operator(3, 1.0, 1.0, 1.0)
    assert su11_operator(4, 1.0, 1.0, 1.0).dense().shape == (4, 4)


def test_number_operator_diagonal():
    ops = build_operator_set(4)
    num = ops.a_dag @ ops.a
    assert np.allclose(num, np.diag([0.0, 1.0, 2.0, 3.0]), atol=1e-15)


def test_k_zero_diagonal():
    ops = build_operator_set(4)
    assert np.allclose(ops.k_zero, np.diag([0.25, 0.75, 1.25, 1.75]), atol=1e-15)


def test_two_quantum_lowering_amplitudes():
    ops = build_operator_set(4)
    asq = ops.a @ ops.a
    assert abs(asq[0, 2] - np.sqrt(2)) < 1e-15
    assert abs(asq[1, 3] - np.sqrt(6)) < 1e-15


def test_canonical_commutator_interior(ops64):
    dev = commutator(ops64.a, ops64.a_dag) - np.eye(64)
    assert frobenius_distance(dev, np.zeros((64, 64)), exclude_top=1) <= 1e-12
    xp = commutator(ops64.x, ops64.p)
    assert frobenius_distance(xp, 1j * np.eye(64), exclude_top=1) <= 1e-12


def test_k0_ladder_commutators_full_matrix(ops64):
    assert np.linalg.norm(commutator(ops64.k_zero, ops64.k_plus) - ops64.k_plus) <= 1e-12
    assert np.linalg.norm(commutator(ops64.k_zero, ops64.k_minus) + ops64.k_minus) <= 1e-12


def test_ladder_commutator_interior(ops64):
    dev = commutator(ops64.k_plus, ops64.k_minus) + 2 * ops64.k_zero
    assert frobenius_distance(dev, np.zeros((64, 64)), exclude_top=2) <= 1e-12
    # the deviation is real and confined to the top two levels
    assert np.linalg.norm(dev[:-2, :-2]) <= 1e-12


def test_nilpotent_exp_zero_argument(ops64):
    out = nilpotent_exp(np.zeros((64, 64), dtype=complex), 2)
    assert np.array_equal(out, np.eye(64))


def test_nilpotent_exp_truncates_exactly_small_dim():
    ops = build_operator_set(4)
    theta = 0.37
    out = nilpotent_exp(theta * ops.k_minus, 2)
    # a^4 vanishes identically on four levels, so the series stops after
    # the linear term
    assert np.allclose(out, np.eye(4) + theta * ops.k_minus, atol=1e-15)


def test_nilpotent_exp_group_inverse():
    # at 64 levels the exponential factors reach 1e8 scales for |theta|
    # near 1, so the absolute statement holds on 16 levels and for small
    # theta, and the factor-normalized statement holds everywhere
    ops16 = build_operator_set(16)
    for theta in (-1.0, -0.4, 0.25, 1.0):
        prod = nilpotent_exp(theta * ops16.k_plus, 2) @ nilpotent_exp(-theta * ops16.k_plus, 2)
        assert np.linalg.norm(prod - np.eye(16)) <= 1e-13
    ops64 = cached_operator_set(64)
    for theta in (-0.1, 0.1):
        prod = nilpotent_exp(theta * ops64.k_plus, 2) @ nilpotent_exp(-theta * ops64.k_plus, 2)
        assert np.linalg.norm(prod - np.eye(64)) <= 1e-13
    for theta in (-1.0, -0.4, 0.25, 1.0):
        a = nilpotent_exp(theta * ops64.k_plus, 2)
        b = nilpotent_exp(-theta * ops64.k_plus, 2)
        res = np.linalg.norm(a @ b - np.eye(64))
        assert res / (np.linalg.norm(a) * np.linalg.norm(b)) <= 1e-15


def test_nilpotent_exp_rejects_nonbanded(ops64):
    dense = np.ones((8, 8), dtype=complex)
    with pytest.raises(StructureError):
        nilpotent_exp(dense, 2)
    with pytest.raises(StructureError):
        nilpotent_exp(ops64.k_plus + ops64.k_minus, 2)


def test_nilpotent_exp_matches_reference_exponential(ops64):
    # banded arguments of modest norm: series and scaling-squaring agree
    for mat in (0.06 * ops64.k_plus, 0.06 * ops64.k_minus, -0.03j * ops64.k_plus):
        assert 0.5 < np.linalg.norm(mat, 2) <= 2.0
        dev = np.linalg.norm(nilpotent_exp(mat, 2) - reference_expm(mat))
        assert dev <= 1e-12


def test_diagonal_power_examples():
    k0 = np.diag([0.25, 0.75])
    out = diagonal_power(np.exp(2.0), k0)
    assert np.allclose(out, np.diag([np.exp(0.5), np.exp(1.5)]), rtol=1e-14)
    with pytest.raises(DomainError):
        diagonal_power(0.0, k0)
    with pytest.raises(DomainError):
        diagonal_power(-1.0, k0)
    with pytest.raises(StructureError):
        diagonal_power(2.0, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_ladder_exp_matches_series(ops64):
    ops16 = build_operator_set(16)
    for tau in (0.3, -0.7, 1.2):
        for dim, ops in ((16, ops16), (64, ops64)):
            for raising in (True, False):
                gen = tau * (ops.k_plus if raising else ops.k_minus)
                ref = nilpotent_exp(gen, 2)
                fast = ladder_exp(tau, dim, raising).dense()
                rel = np.linalg.norm(fast - ref) / max(1.0, np.linalg.norm(ref))
                assert rel <= 1e-12


def test_ladder_exp_transpose_symmetry():
    up = ladder_exp(0.45, 32, True)
    down = ladder_exp(0.45, 32, False)
    assert np.array_equal(up.dense(), down.T.dense())


def test_ladder_exp_matches_loop_oracle():
    """The table-driven ladder_exp against the band-by-band recurrence, entry
    by entry. Entries below 1e-250 are left out: there tau^k underflows on
    one route before the other."""
    worst = 0.0
    for dim in (16, 64, 128, 192, 256):
        for tau in (0.0, 0.2, -0.2, 0.3, -0.5, 0.7, 1.2, -1.5):
            for raising in (True, False):
                want = ladder_exp_loop(tau, dim, raising)
                got = ladder_exp(tau, dim, raising).dense()
                assert got.shape == want.shape
                assert np.count_nonzero(got) == np.count_nonzero(want)
                big = np.abs(want) > 1e-250
                assert np.all(np.abs(got[~big]) <= 1e-240)
                rel = np.abs(got[big] - want[big]) / np.abs(want[big])
                worst = max(worst, float(np.max(rel)))
    assert worst <= 1e-13


def test_interior_norm_excludes_top_levels():
    a = np.zeros((10, 10))
    a[9, 9] = 1e6
    a[7, 2] = 1e6
    assert interior_norm(a, exclude_top=3) == 0.0
    assert interior_norm(a, exclude_top=2) == 1e6


@pytest.mark.parametrize("dim", [8, 65, 192])
def test_interior_norm_matches_the_copied_block(dim):
    rng = np.random.default_rng(dim)
    for a in (rng.normal(size=(dim, dim)), _complex_normals(rng, dim, dim)):
        want = float(np.linalg.norm(a[: dim - 3, : dim - 3].copy()))
        assert abs(interior_norm(a) - want) <= 1e-15 * want


def test_frobenius_distance_exclusion():
    a = np.eye(6)
    b = np.eye(6)
    b[5, 5] = 7.0
    assert frobenius_distance(a, b, exclude_top=1) == 0.0
    assert frobenius_distance(a, b) == 6.0


def test_tail_support_fractions():
    v = basis_state(16, 15)
    assert tail_support(v) == pytest.approx(1.0)
    v = basis_state(16, 0)
    assert tail_support(v) == 0.0
    v = np.zeros(16)
    v[0] = 1.0
    v[12] = 1.0
    assert tail_support(v) == pytest.approx(0.5)


def test_basis_state_and_apply():
    v = basis_state(8, 3)
    assert v.shape == (8,)
    assert v[3] == 1.0
    assert np.linalg.norm(v) == 1.0
    ops = build_operator_set(8)
    w = apply(ops.a_dag, v)
    assert abs(w[4] - 2.0) < 1e-15
    with pytest.raises(DomainError, match="basis index 9 out of range for dim 8"):
        basis_state(8, 9)
    with pytest.raises(DomainError, match="dim mismatch"):
        apply(ops.a, basis_state(16, 0))


@given(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
)
def test_commutator_antisymmetry(i, j):
    rng = np.random.default_rng(17 * i + j)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    b = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    assert np.allclose(commutator(a, b), -commutator(b, a), atol=1e-12)


def test_adjoint_involution(ops64):
    assert np.array_equal(adjoint(adjoint(ops64.k_plus)), ops64.k_plus)
    assert np.array_equal(adjoint(ops64.k_plus), ops64.k_minus)
    assert np.array_equal(adjoint(ops64.a), ops64.a_dag)


def test_cached_operator_set_identity():
    assert cached_operator_set(32) is cached_operator_set(32)


def _complex_normals(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _relative_gap(got, want) -> float:
    return float(np.linalg.norm(got - want)) / max(float(np.linalg.norm(want)), 1e-300)


@given(st.integers(min_value=4, max_value=64), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_band_operator_products_match_dense(dim, seed):
    rng = np.random.default_rng(seed)
    v = _complex_normals(rng, dim)
    m = _complex_normals(rng, dim, dim)
    rows = _complex_normals(rng, 3, dim)
    su11 = [su11_operator(dim, *_complex_normals(rng, 3)) for _ in range(2)]
    # su11[0] @ su11[1] has five band rows, at offsets 0, +-2 and +-4.
    for op in (*su11, k0_operator(dim, rng.normal()), su11[0] @ su11[1]):
        dense = op.dense()
        assert _relative_gap(op @ v, dense @ v) <= 1e-14
        assert _relative_gap(op @ m, dense @ m) <= 1e-14
        # A matrix's columns are multiplied as states alone are.
        assert np.array_equal(op @ m, np.stack([op @ col for col in m.T], axis=1))
        # Products from the right and sums with arrays are not defined: a
        # caller densifies on purpose.
        with pytest.raises(TypeError):
            m @ op
        with pytest.raises(TypeError):
            rows @ op
        with pytest.raises(TypeError):
            op + m
        with pytest.raises(TypeError):
            m - op


@given(st.integers(min_value=4, max_value=64), st.integers(min_value=0, max_value=2**32 - 1))
@example(8, 0)
@example(9, 1)
@example(192, 2)
@example(255, 3)
@example(256, 4)
@settings(max_examples=60, deadline=None)
def test_band_operator_dense_form_is_the_dense_sum(dim, seed):
    rng = np.random.default_rng(seed)
    c = [complex(z) for z in _complex_normals(rng, 3)]
    s = MetricState(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.3, 2.0)))
    h, inv = su11_operator(dim, *hamiltonian_coeffs(*c)).dense(), invariant_op(s, dim).dense()
    assert h.dtype == inv.dtype == complex
    assert np.array_equal(h, dense_hamiltonian(*c, dim))
    assert np.array_equal(inv, dense_invariant(s, dim))
    k_zero = cached_operator_set(dim).k_zero
    assert np.array_equal(k0_operator(dim, 2.0).dense(), 2 * k_zero)
    w = float(rng.normal())
    assert np.array_equal(k0_operator(dim, -2.0 * w).dense(), -2.0 * w * k_zero)


@given(st.integers(min_value=4, max_value=64), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_propagate_band_and_dense_generators_agree(dim, seed):
    rng = np.random.default_rng(seed)
    ops = cached_operator_set(dim)
    z, m, p = _complex_normals(rng, 3) / dim

    def dense_h(t):
        return 2 * z * (1 + t) * ops.k_zero + 2 * m * np.cos(t) * ops.k_minus + 2 * p * ops.k_plus

    def band_h(t):
        return su11_operator(dim, 2 * z * (1 + t), 2 * m * np.cos(t), 2 * p)

    psi0 = _complex_normals(rng, dim)
    psi0 /= np.linalg.norm(psi0)
    times = np.linspace(0.0, 0.5, 11)
    want = propagate_loop(dense_h, psi0, times, substeps=4)
    got = propagate(band_h, psi0, times, substeps=4)
    assert _relative_gap(got, want) <= 1e-13


def _random_bands(rng, dim: int, rows: int, is_complex: bool) -> BandOperator:
    """Random diagonals at offsets 0, +-2 (rows 3) and +-4 (rows 5) with the
    slots past each diagonal's end zero, as the band layout requires."""
    bands = _complex_normals(rng, rows, dim) if is_complex else rng.normal(size=(rows, dim))
    for r in range(1, rows):
        bands[r, dim - 2 * ((r + 1) // 2) :] = 0
    return BandOperator(bands)


@given(st.integers(min_value=4, max_value=64), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
# At dim 4 the kept interior is the single entry [0, 0]; for this seed it is
# a00^2 + a02 a20 of a real 3-row band, about -0.0032 from terms of order 1,
# so the two summation orders round it apart by more than 1e-14 of itself.
@example(dim=4, seed=1485)
def test_band_product_and_band_interior_norm_match_dense(dim, seed):
    rng = np.random.default_rng(seed)
    ops = [_random_bands(rng, dim, rows, c) for rows in (1, 3) for c in (False, True)]
    for a in ops:
        assert abs(interior_norm(a) - interior_norm(a.dense())) <= 1e-14 * interior_norm(a.dense())
        for b in ops:
            prod = a @ b
            assert isinstance(prod, BandOperator)
            assert prod.bands.shape == (len(a.bands) + len(b.bands) - 1, dim)
            want = a.dense() @ b.dense()
            assert _relative_gap(prod.dense(), want) <= 1e-14
            # The terms are added in the order of the band x dense product.
            assert np.array_equal(prod.dense(), a @ b.dense())
            # Rounding scales with the summed terms, not with their sum.
            terms = interior_norm(np.abs(a.dense()) @ np.abs(b.dense()))
            norm = interior_norm(want)
            assert abs(interior_norm(prod) - norm) <= 1e-14 * max(terms, 1e-300)


def _dense_times_band(m: np.ndarray, band: BandOperator) -> np.ndarray:
    """m @ band.dense() from the band's rows alone, each entry's nonzero terms
    added stage by stage: the diagonal term, then for each offset k the term
    through the +k row and the one through the -k row."""
    b = band.bands
    out = m * b[0]
    for k in range(2, len(b), 2):
        out[:, k:] += m[:, :-k] * b[k - 1, :-k]
        out[:, :-k] += m[:, k:] * b[k, :-k]
    return out


@pytest.mark.parametrize("dim", [8, 9, 64, 65])
def test_parity_blocks_match_their_dense_matrix(dim):
    rng = np.random.default_rng(dim)
    a, b, c, d = (ParityBlocks.from_dense(rng.normal(size=(dim, dim))) for _ in range(4))
    ad = a.dense()
    assert not ad[0::2, 1::2].any() and not ad[1::2, 0::2].any()
    for v in (
        rng.normal(size=dim),
        _complex_normals(rng, dim),
        rng.normal(size=(dim, 7)),
        _complex_normals(rng, dim, 7),
    ):
        got, want = a @ v, ad @ v
        assert got.shape == want.shape and got.dtype == want.dtype
        assert _relative_gap(got, want) <= 1e-15
    for rows in (1, 3):
        for is_complex in (False, True):
            band = _random_bands(rng, dim, rows, is_complex)
            if rows == 1:
                # A diagonal band scales the columns, one product per entry.
                assert np.array_equal((a @ band).dense(), _dense_times_band(ad, band))
            else:
                # A wider band is one batched product with its dense parity
                # blocks (real for a real band).
                dense = band.dense() if is_complex else band.dense().real
                want = np.matmul(a.blocks, ParityBlocks.from_dense(dense).blocks)
                assert np.array_equal((a @ band).blocks, want)
            assert _relative_gap((a @ band).dense(), ad @ band.dense()) <= 1e-15
            with pytest.raises(TypeError):
                band @ a
    # A diagonal band times the blocks is the transpose of the blocks'
    # transpose times it: each entry is the one product the dense form takes.
    k0 = k0_operator(dim, 2.0)
    assert np.array_equal((a.T @ k0).T.dense(), k0 @ ad)
    assert np.array_equal(a.T.dense(), ad.T)
    # The Dyson meter's stencil runs over a stack of blocks along time; it
    # rounds each entry as the stencil over the dense matrices does.
    rows = [a, b, c, d, a.T, b.T, c.T, d.T, a]
    got = _richardson(np.stack([r.blocks for r in rows]), 0.01)[0]
    want = _richardson(np.stack([r.dense() for r in rows]), 0.01)[0]
    assert np.array_equal(ParityBlocks(got, dim).dense(), want)
    for top in (3, 4):
        want = interior_norm(ad, exclude_top=top)
        assert abs(interior_norm(a, exclude_top=top) - want) <= 1e-15 * want


@pytest.mark.parametrize("dim", [8, 9, 64, 65, 192, 193])
def test_the_blas_band_product_is_the_stagewise_one_to_rounding(dim):
    """ParityBlocks @ band, taken on BLAS for 3 rows or more, is the
    stagewise sum of each entry's nonzero terms to within 4 ulps of the
    entry's summed term magnitudes, for real and complex bands of 1, 3 and 5
    rows; a 1-row band gives that sum bit for bit."""
    rng = np.random.default_rng(dim)
    a = ParityBlocks.from_dense(rng.normal(size=(dim, dim)))
    ad = a.dense()
    for rows in (1, 3, 5):
        for is_complex in (False, True):
            band = _random_bands(rng, dim, rows, is_complex)
            got, want = (a @ band).dense(), _dense_times_band(ad, band)
            assert got.dtype == want.dtype
            if rows == 1:
                assert np.array_equal(got, want)
            terms = np.abs(ad) @ np.abs(band.dense())
            assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * terms)


@given(st.integers(min_value=4, max_value=65), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
@example(dim=16, seed=0)
@example(dim=17, seed=1)
@example(dim=64, seed=2)
@example(dim=65, seed=3)
def test_stacked_parity_blocks_are_each_time_alone(dim, seed):
    """A stack of metric operators along time, blocks of shape (T, 2, m, m),
    multiplies bands, states and matrices, transposes and gives interior
    norms, and each time is bit for bit that time alone."""
    rng = np.random.default_rng(seed)
    states = random_metric_states(seed, 5)
    t = len(states)
    inv = np.stack([invariant_op(g, dim).bands for g in states])
    h = su11_operator(dim, 1.0, 0.3 + 0.1j, -0.2j).bands * rng.normal(size=(t, 1, 1))
    bands = [inv, h, _band_product(inv, h), np.stack([k0_operator(dim, 2.0).bands] * t)]
    vectors = [
        _complex_normals(rng, t, dim),
        rng.normal(size=(t, dim, 7)),
        _complex_normals(rng, t, dim, 3),
    ]
    def rho_inverse(g, dim):
        return ParityBlocks.from_dense(dense_gemm_rho_inverse(g, dim))

    for build in (build_rho, rho_inverse, build_eta):
        alone = [build(g, dim) for g in states]
        stack = ParityBlocks(np.stack([a.blocks for a in alone]), dim)
        for b in bands:
            got = stack @ BandOperator(b)
            assert got.blocks.shape == stack.blocks.shape
            norms = interior_norm(got)
            for k, a in enumerate(alone):
                one = a @ BandOperator(b[k])
                assert np.array_equal(got.blocks[k], one.blocks)
                assert norms[k] == interior_norm(one)
        for v in vectors:
            got = stack @ v
            assert got.shape == v.shape
            for k, a in enumerate(alone):
                assert np.array_equal(got[k], a @ v[k])
            if v.ndim == 3:
                got = BandOperator(inv) @ v
                for k in range(t):
                    assert np.array_equal(got[k], BandOperator(inv[k]) @ v[k])
        norms = interior_norm(stack.T)
        for k, a in enumerate(alone):
            assert np.array_equal(stack.T.blocks[k], a.T.blocks)
            assert norms[k] == interior_norm(a.T)
