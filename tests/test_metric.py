import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from support import (
    _even_cosh,
    _even_sinhc,
    basis_state,
    cached_operator_set,
    check_gauss_identities,
    conjugate_k,
    dense_gemm_eta,
    dense_gemm_rho,
    dense_gemm_rho_inverse,
    dense_inverse,
    frobenius_distance,
    gauss_factors,
    gauss_params,
    random_gauss_inputs,
    random_metric_states,
    reference_expm,
)

from phinv import (
    DomainError,
    MetricState,
    NumericsError,
    build_eta,
    build_rho,
    build_rho_inverse,
    interior_norm,
)
from phinv.fock import ParityBlocks
from phinv.metric import _k0_power, _rho_inv_cached, ladder_exp, rho_inverse_columns


def k_matrix(ops, which):
    return {"minus": ops.k_minus, "zero": ops.k_zero, "plus": ops.k_plus}[which]


def test_identity_point():
    g = gauss_params(0.0, 0.0)
    assert g.vtheta_plus == 0.0
    assert g.vtheta_minus == 0.0
    assert g.vtheta_zero == pytest.approx(1.0, abs=1e-15)
    assert g.chi == pytest.approx(-1.0, abs=1e-15)
    assert g.phi_cap == 0.0


def test_diagonal_family_point():
    g = gauss_params(1.0, 0.0)
    assert g.phi_cap == pytest.approx(0.0, abs=1e-15)
    assert g.vtheta_zero == pytest.approx(np.exp(2.0), rel=1e-14)
    assert g.chi == pytest.approx(-np.exp(2.0), rel=1e-14)


def test_trigonometric_branch_point():
    # theta^2 = eps^2 - 4 mu^2 = -0.36: cosh and sinh(theta)/theta become
    # cos(0.6) and sin(0.6)/0.6
    g = gauss_params(0.0, 0.3)
    assert g.vtheta_plus == pytest.approx(np.tan(0.6), rel=1e-13)
    assert g.vtheta_minus == pytest.approx(np.tan(0.6), rel=1e-13)
    assert g.vtheta_zero == pytest.approx(1.0 / np.cos(0.6) ** 2, rel=1e-13)
    assert g.chi == pytest.approx(-1.0, abs=1e-13)


def test_singular_denominator_rejected():
    # root of cosh(theta) - eps*sinh(theta)/theta at fixed mu = 0.6
    mu = 0.6

    def denom(eps):
        tsq = eps * eps - 4 * mu * mu
        return _even_cosh(tsq) - eps * _even_sinhc(tsq)

    eps_root = brentq(denom, 0.5, 0.7, xtol=1e-15)
    with pytest.raises(DomainError, match="factorization denominator vanishes"):
        gauss_params(eps_root, mu)


def test_invalid_direct_construction_rejected():
    with pytest.raises(DomainError, match="vtheta_zero must be positive"):
        check_gauss_identities(vtheta_plus=0.1, vtheta_zero=-1.0, vtheta_minus=0.1, chi=-1.0)
    with pytest.raises(NumericsError):
        check_gauss_identities(vtheta_plus=0.1, vtheta_zero=1.0, vtheta_minus=0.3, chi=-0.99)
    with pytest.raises(DomainError, match="vtheta_zero must be positive"):
        MetricState(-0.1, -1.0)


@given(
    st.floats(min_value=-0.8, max_value=0.8),
    st.floats(min_value=-0.8, max_value=0.8),
)
@settings(max_examples=200)
def test_gauss_identities_hold(eps, mu):
    try:
        vtheta_plus, th0, chi = gauss_factors(eps, mu)
    except DomainError:
        return
    phi = -vtheta_plus
    scale = max(1.0, abs(th0))
    assert abs(th0 - (phi * phi - chi)) <= 1e-12 * scale
    assert abs((phi * phi + chi) ** 2 - 4 * chi * phi * phi - th0 * th0) <= 1e-12 * scale * scale
    g = gauss_params(eps, mu)
    assert (g.phi_cap, g.vtheta_zero) == (phi, th0)
    assert g.vtheta_plus == g.vtheta_minus == vtheta_plus


def test_metric_state_factor_parameters():
    g = MetricState(0.3, 1.2)
    assert g.phi_cap == 0.3
    assert g.vtheta_plus == -0.3
    assert g.vtheta_minus == -0.3
    assert g.chi == pytest.approx(0.09 - 1.2, abs=1e-15)
    with pytest.raises(DomainError, match="vtheta_zero must be positive"):
        MetricState(0.3, 0.0)


def test_build_rho_identity_params():
    g = gauss_params(0.0, 0.0)
    assert np.allclose(build_rho(g, 16).dense(), np.eye(16), atol=1e-15)
    ri = build_rho_inverse(g, 16)
    assert np.allclose(ri, np.eye(16)[:, : ri.shape[1]], atol=1e-15)
    assert np.allclose(build_eta(g, 16).dense(), np.eye(16), atol=1e-15)


def test_build_rho_diagonal_small_dim():
    g = gauss_params(1.0, 0.0)
    r = build_rho(g, 3).dense()
    assert np.allclose(r, np.diag(np.exp([0.5, 1.5, 2.5])), rtol=1e-14)


def test_rho_hermitian_relative_on_grid():
    for eps, mu in random_gauss_inputs(41, 25):
        r = build_rho(gauss_params(eps, mu), 64).dense()
        assert np.linalg.norm(r - r.conj().T) <= 1e-12 * np.linalg.norm(r)


def test_rho_hermitian_absolute_for_tame_factors():
    # the absolute statement is meaningful where the factored product
    # itself stays at unit-thousands scale
    checked = 0
    for s in random_metric_states(42, 60):
        r = build_rho(s, 64).dense()
        if np.linalg.norm(r) <= 1e3:
            checked += 1
            assert np.linalg.norm(r - r.conj().T) <= 1e-12
    assert checked >= 10


def test_rho_inverse_absolute_small_dim():
    g = gauss_params(0.0, 0.3)
    r, ri = build_rho(g, 16).dense(), dense_gemm_rho_inverse(g, 16)
    assert np.linalg.norm(r @ ri - np.eye(16)) <= 1e-11


def test_rho_inverse_backward_stable_product():
    # at 64 levels the factors reach 1e16 scales for strong squeezing, so
    # the meaningful float statement normalizes by the factor norms
    g = gauss_params(0.0, 0.3)
    r, ri = build_rho(g, 64).dense(), dense_gemm_rho_inverse(g, 64)
    res = np.linalg.norm(r @ ri - np.eye(64))
    assert res / (np.linalg.norm(r) * np.linalg.norm(ri)) <= 1e-16
    for s in random_metric_states(43, 25):
        r, ri = build_rho(s, 64).dense(), dense_gemm_rho_inverse(s, 64)
        res = np.linalg.norm(r @ ri - np.eye(64))
        assert res / (np.linalg.norm(r) * np.linalg.norm(ri)) <= 1e-14


def test_rho_inverse_matches_dense_elimination():
    for g in random_metric_states(12, 12) + [gauss_params(0.5, 0.2)]:
        want = dense_inverse(build_rho(g, 24).dense())
        assert interior_norm(dense_gemm_rho_inverse(g, 24) - want) <= 1e-9


def test_eta_is_rho_squared_and_positive():
    g = gauss_params(0.5, 0.2)
    eta = build_eta(g, 64).dense()
    r = build_rho(g, 64).dense()
    assert np.linalg.norm(eta - r @ r) <= 1e-12 * np.linalg.norm(eta)
    assert np.linalg.norm(eta - eta.conj().T) <= 1e-14 * np.linalg.norm(eta)
    rng = np.random.default_rng(7)
    for _ in range(8):
        v = rng.normal(size=64) + 1j * rng.normal(size=64)
        assert (v.conj() @ (eta @ v)).real > 0.0


def test_conjugation_trivial_cases(ops64):
    g = gauss_params(0.0, 0.0)
    for which in ("plus", "zero", "minus"):
        assert np.allclose(conjugate_k(g, which, 64), k_matrix(ops64, which), atol=1e-15)
    g = gauss_params(1.0, 0.0)
    assert np.allclose(conjugate_k(g, "zero", 64), ops64.k_zero, atol=1e-13)


def test_conjugation_closed_form_minus():
    ops = cached_operator_set(64)
    g = gauss_params(0.0, 0.3)
    vp, vz = g.vtheta_plus, g.vtheta_zero
    expected = (-2 * vp * ops.k_zero + ops.k_minus + vp * vp * ops.k_plus) / vz
    assert np.linalg.norm(conjugate_k(g, "minus", 64) - expected) <= 1e-13
    # multiplied-through identity rho K- = combo rho, which stays finite
    # where the direct triple product does not
    r = build_rho(g, 64).dense()
    lhs = r @ ops.k_minus
    rel = interior_norm(lhs - expected @ r) / max(1.0, interior_norm(lhs))
    assert rel <= 1e-12


def test_conjugation_multiplied_through_grid(ops64):
    for eps, mu in random_gauss_inputs(13, 20):
        g = gauss_params(eps, mu)
        r = build_rho(g, 64).dense()
        for which in ("minus", "zero", "plus"):
            lhs = r @ k_matrix(ops64, which)
            rel = interior_norm(lhs - conjugate_k(g, which, 64) @ r) / max(
                1.0, interior_norm(lhs)
            )
            assert rel <= 1e-12


def test_conjugation_direct_deep_interior(ops64):
    # the triple product only matches the closed form away from the
    # truncation boundary; at weak coupling the boundary paths die out
    # below half depth and the direct comparison is clean
    for eps, mu in ((0.1, 0.02), (0.05, 0.02)):
        g = gauss_params(eps, mu)
        r, ri = build_rho(g, 64).dense(), dense_gemm_rho_inverse(g, 64)
        for which in ("minus", "zero", "plus"):
            direct = r @ k_matrix(ops64, which) @ ri
            dev = frobenius_distance(direct, conjugate_k(g, which, 64), exclude_top=24)
            assert dev <= 1e-11


def test_disentangle_against_frozen_reference(frozen_disentangle_reference):
    points = frozen_disentangle_reference["points"]
    assert len(points) == 4
    for entry in points.values():
        g = gauss_params(entry["eps"], entry["mu"])
        r = build_rho(g, 64).dense()
        for n_str, col_strs in entry["cols"].items():
            n = int(n_str)
            ref = np.array([float(x) for x in col_strs])
            dev = np.linalg.norm(r[:, n].real - ref) / max(1.0, np.linalg.norm(ref))
            assert dev <= 1e-12


def test_disentangle_reference_expm_deep_block(ops64):
    # float64 cross-check of the factorization against the unfactored
    # exponential, in the weak-coupling regime where the exponential of the
    # truncated generator agrees with the truncation of the exponential
    cases = [((0.1, 0.02), 24, 1e-10), ((0.2, 0.03), 24, 1e-8), ((0.1, 0.02), 32, 1e-11)]
    for (eps, mu), cut, tol in cases:
        g = gauss_params(eps, mu)
        gen = 2 * eps * ops64.k_zero + 2 * mu * (ops64.k_plus + ops64.k_minus)
        dev = frobenius_distance(build_rho(g, 64).dense(), reference_expm(gen), exclude_top=cut)
        assert dev <= tol


def test_crop_stability():
    # lowering factor acts first, so no path leaves the retained block:
    # the 96-level product cropped to 64 levels is the 64-level product
    for eps, mu in ((0.0, 0.3), (0.45, 0.4)):
        g = gauss_params(eps, mu)
        big = build_rho(g, 96).dense()[:64, :64]
        small = build_rho(g, 64).dense()
        assert np.linalg.norm(big - small) <= 1e-13 * max(1.0, np.linalg.norm(small))


def test_branch_continuation_across_seam():
    for mu in (0.2, 0.35):
        eps_c = 2 * mu
        above = gauss_params(np.sqrt(eps_c**2 + 1e-6), mu)
        below = gauss_params(np.sqrt(eps_c**2 - 1e-6), mu)
        for field in ("vtheta_plus", "vtheta_zero", "chi"):
            assert abs(getattr(above, field) - getattr(below, field)) <= 1e-4


def test_rho_caching_returns_readonly():
    g = gauss_params(0.2, 0.1)
    r1 = build_rho(g, 32)
    r2 = build_rho(g, 32)
    assert r1 is r2
    with pytest.raises(ValueError):
        r1.blocks[0, 0, 0] = 99.0
    # eta holds the two 96 x 96 blocks at dim 192, half the dense matrix.
    eta = build_eta(g, 192)
    assert eta.blocks.nbytes == 2 * 96 * 96 * 8 == eta.dense().nbytes // 2
    with pytest.raises(ValueError):
        eta.blocks[1, 5, 5] = 1.0


def test_eta_rejects_a_non_finite_rho():
    # vtheta0^{K0} overflows on the top levels at dim 192.
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.all(np.isfinite(np.power(1e7, np.arange(192) / 2 + 0.25)))
        with pytest.raises(DomainError, match="non-finite"):
            build_eta(MetricState(0.0, 1e7), 192)


@pytest.mark.parametrize(
    "build, g",
    [
        (lambda g, dim: build_rho(g, dim).blocks, MetricState(0.0, 1e7)),
        (build_rho_inverse, MetricState(0.0, 1e-7)),
    ],
    ids=["rho", "rho_inverse"],
)
def test_rho_and_its_inverse_reject_non_finite_blocks(build, g):
    # vtheta0^{K0} (rho) and vtheta0^{-K0} (rho^-1) overflow at dim 192. At
    # Phi = 0 rho^-1 is diagonal and overflows only past the columns it keeps,
    # yet this raises: the kept columns of the scaled inner factor meet its
    # overflowed rows in their zeros, and inf times 0 is nan.
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="non-finite"):
            build(g, 192)
        assert np.all(np.isfinite(build(g, 16)))


@pytest.mark.parametrize("dim", [8, 9, 64, 65, 192])
def test_parity_sector_builders_match_dense_gemm(dim):
    m = (dim + 1) // 2
    for g in random_metric_states(29, 3) + [MetricState(0.45, 0.7)]:
        for build, oracle in ((build_rho, dense_gemm_rho), (build_eta, dense_gemm_eta)):
            got, want = build(g, dim), oracle(g, dim)
            assert not got.blocks.flags.writeable
            assert got.blocks.shape == (2, m, m)
            if dim % 2:
                assert not got.blocks[1, -1].any() and not got.blocks[1, :, -1].any()
            dense = got.dense()
            assert dense.shape == want.shape and dense.dtype == want.dtype
            assert np.max(np.abs(dense - want)) <= 1e-15 * np.max(np.abs(want))
        # rho^-1 keeps its first columns, in natural order, with zeros where
        # an even and an odd level meet: those of levels up to 6, and up to
        # dim // 4, the highest level a run may track.
        want = dense_gemm_rho_inverse(g, dim)
        for top in (0, dim // 4):
            got, k = build_rho_inverse(g, dim, top), rho_inverse_columns(dim, top)
            assert not got.flags.writeable
            assert got.shape == (dim, k) and got.dtype == want.dtype
            assert not got[0::2, 1::2].any() and not got[1::2, 0::2].any()
            assert np.max(np.abs(got - want[:, :k])) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("dim", [4, 5, 8, 9, 64, 65, 192])
def test_rho_inverse_keeps_the_first_columns_of_the_full_product(dim):
    """Column n of build_rho_inverse is, bit for bit, column n of the
    product of the inverse's outer factor with the kept columns of the
    inner ones, and to rounding that column of the full parity-block product
    and that product applied to |n>, for the columns of levels up to 6 and
    up to dim // 4."""
    for g in random_metric_states(31, 3) + [MetricState(0.45, 0.7)]:
        e_minus = ladder_exp(-g.vtheta_minus, dim, raising=False).blocks
        e_plus = ladder_exp(-g.vtheta_plus, dim, raising=True).blocks
        mid = _k0_power(1.0 / g.vtheta_zero, dim)
        full = ParityBlocks(np.matmul(e_minus, mid[:, :, None] * e_plus), dim)
        for top in (0, dim // 4):
            got = build_rho_inverse(g, dim, top)
            k = rho_inverse_columns(dim, top)
            assert got.shape == (dim, k)
            kept = np.matmul(e_minus, mid[:, :, None] * e_plus[..., : (k + 1) // 2])
            for p in (0, 1):
                block = kept[p, : (dim - p + 1) // 2, : (k - p + 1) // 2]
                assert np.array_equal(got[p::2, p::2], block)
            for n in range(k):
                want = full @ basis_state(dim, n)
                assert np.max(np.abs(got[:, n] - want)) <= 1e-15 * np.max(np.abs(want))


def test_the_inverse_judges_overflow_on_the_columns_it_keeps():
    """At dim 192 rho^-1 keeps 7 columns. At Phi = 0.7, vtheta0 = 6.31e-4 its
    factors are finite and those columns overflow, which raises. At Phi =
    0.5, vtheta0 = 1e-3 the full product overflows only from level 62 on,
    past the kept columns: that map is built, and its columns are the dense
    product's to rounding."""
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="non-finite"):
            build_rho_inverse(MetricState(0.7, 6.31e-4), 192)
        g = MetricState(0.5, 1e-3)
        want = dense_gemm_rho_inverse(g, 192)
    got = build_rho_inverse(g, 192)
    assert not np.all(np.isfinite(want)) and np.all(np.isfinite(want[:, :7]))
    assert np.max(np.abs(got - want[:, :7])) <= 1e-15 * np.max(np.abs(want[:, :7]))


def test_the_inverse_cache_holds_only_the_kept_columns():
    # At dim 192 a run whose top level is at most 6 keeps 7 columns, 4
    # columns of each 96-level parity block, in an array of their own rather
    # than a view of the full product.
    g = MetricState(0.2, 1.0)
    build_rho_inverse(g, 192)
    k = rho_inverse_columns(192, 6)
    entry = _rho_inv_cached(g.vtheta_plus, g.vtheta_zero, g.vtheta_minus, 192, k)
    assert isinstance(entry, np.ndarray) and entry.base is None
    assert entry.size <= 2 * 96 * 4
