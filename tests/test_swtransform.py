"""Exact block decomposition: projectors, direct rotation, uniqueness,
closed-form oracle, and the induced chart."""

import numpy as np
import pytest

from degengeo.errors import (
    BasePointNotCanonical,
    DegenerateBoundary,
    SubspacesTooFar,
)
from degengeo.hermitian import (
    conjugate,
    frobenius_norm,
    operator_2_norm,
    random_hermitian,
    random_unitary,
    traceless_from_coordinates,
)
from degengeo.models import example_pr, example_pr_reference
from degengeo.projection import collapse_projection
from degengeo.spectra import eigh, half_gap
from degengeo.swtransform import (
    chart_coordinates,
    direct_rotation,
    projector_lowest_k,
    sw_decompose,
    sw_decompose_general,
    unitary_exp,
)


def random_base(n, k, rng, gap=1.0):
    """Diagonal ascending base with an exactly degenerate lowest-k window."""
    deg = float(rng.standard_normal())
    rest = deg + gap + np.sort(rng.uniform(0.0, 2.0, size=n - k))
    return np.diag(np.concatenate([np.full(k, deg), rest])).astype(complex)


def perturbed(h0, k, rng, fraction=0.5):
    """H0 plus a random Hermitian scaled inside the uniqueness ball."""
    n = h0.shape[0]
    v = random_hermitian(n, rng)
    r0 = half_gap(h0, k)
    return h0 + v * (fraction * r0 / operator_2_norm(v))


# ---------------------------------------------------------------------------
# projectors and the direct rotation
# ---------------------------------------------------------------------------


def test_projector_diagonal_case():
    spec = eigh(np.diag([0.0, 0.0, 1.0]).astype(complex))
    np.testing.assert_allclose(
        projector_lowest_k(spec, 2), np.diag([1.0, 1.0, 0.0]), atol=1e-14
    )


def test_projector_identities():
    rng = np.random.default_rng(0)
    h = random_hermitian(6, rng)
    p = projector_lowest_k(eigh(h), 3)
    assert np.trace(p).real == pytest.approx(3.0, abs=1e-12)
    assert frobenius_norm(p @ p - p) <= 1e-12
    assert frobenius_norm(p - p.conj().T) <= 1e-13


def test_projector_covariance():
    rng = np.random.default_rng(1)
    h = random_hermitian(6, rng)
    u = random_unitary(6, rng)
    p = projector_lowest_k(eigh(h), 2)
    p_conj = projector_lowest_k(eigh(conjugate(h, u)), 2)
    assert frobenius_norm(p_conj - u @ p @ u.conj().T) <= 1e-10


def test_projector_boundary_error():
    spec = eigh(np.diag([0.0, 1.0, 1.0]).astype(complex))
    with pytest.raises(DegenerateBoundary):
        projector_lowest_k(spec, 2)


def test_direct_rotation_identity():
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    np.testing.assert_allclose(direct_rotation(p, p), np.eye(3), atol=1e-14)


def test_direct_rotation_maps_subspaces():
    rng = np.random.default_rng(2)
    h0 = random_base(5, 2, rng)
    h = perturbed(h0, 2, rng)
    p0 = projector_lowest_k(eigh(h0), 2)
    p = projector_lowest_k(eigh(h), 2)
    w = direct_rotation(p, p0)
    assert frobenius_norm(w @ w.conj().T - np.eye(5)) <= 1e-12
    assert frobenius_norm(w @ p0 @ w.conj().T - p) <= 1e-9
    # Diagonal base point: the window block of W is Hermitian positive
    # definite.
    block = w[:2, :2]
    assert frobenius_norm(block - block.conj().T) <= 1e-12
    assert np.min(np.linalg.eigvalsh((block + block.conj().T) / 2)) > 0.0


def test_direct_rotation_subspaces_too_far():
    p = np.diag([1.0, 0.0]).astype(complex)
    p0 = np.diag([0.0, 1.0]).astype(complex)
    with pytest.raises(SubspacesTooFar):
        direct_rotation(p, p0)


def test_unitary_exp_is_unitary():
    rng = np.random.default_rng(3)
    s = random_hermitian(5, rng)
    e = unitary_exp(s)
    assert frobenius_norm(e @ e.conj().T - np.eye(5)) <= 1e-13


# ---------------------------------------------------------------------------
# the decomposition itself
# ---------------------------------------------------------------------------


def test_block_diagonal_input_gives_zero_exponent():
    h0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    h = np.array(
        [[0.1 + 0.05, 0.02 - 0.01j, 0.0],
         [0.02 + 0.01j, 0.1 - 0.05, 0.0],
         [0.0, 0.0, 1.2]],
        dtype=complex,
    )
    dec = sw_decompose(h, h0, 2)
    assert frobenius_norm(dec.s) <= 1e-12
    block = h[:2, :2] - (np.trace(h[:2, :2]).real / 2) * np.eye(2)
    np.testing.assert_allclose(dec.h_eff[:2, :2], block, atol=1e-12)
    assert dec.c == pytest.approx(0.1, abs=1e-12)


def test_closed_form_oracle_single_point():
    h0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    dec = sw_decompose(example_pr(0.3, 0.0), h0, 2)
    ref = example_pr_reference(0.3, 0.0)
    for got, want in [(dec.s, ref.s), (dec.b, ref.b), (dec.h_eff, ref.h_eff)]:
        assert np.max(np.abs(got - want)) <= 1e-9
    assert dec.c == pytest.approx(ref.c, abs=1e-9)
    # H_eff = (1 - sqrt(1 + 4 p^2))/4 * sigma_z on the window
    coeff = (1.0 - np.sqrt(1.36)) / 4.0
    assert dec.h_eff[0, 0].real == pytest.approx(coeff, abs=1e-12)
    assert dec.h_eff[1, 1].real == pytest.approx(-coeff, abs=1e-12)


def test_round_trip_and_structure():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(2, min(n, 4)))
        h0 = random_base(n, k, rng)
        h = perturbed(h0, k, rng, fraction=0.8)
        dec = sw_decompose(h, h0, k)
        assert dec.within_r0 and dec.s_norm_ok
        assert dec.residual <= 1e-9 * max(1.0, frobenius_norm(h))
        # structural exactness
        assert abs(np.trace(dec.h_eff)) <= 1e-11 * max(
            frobenius_norm(dec.h_eff), 1e-30
        )
        assert np.max(np.abs(dec.s[:k, :k])) == 0.0
        assert np.max(np.abs(dec.s[k:, k:])) == 0.0
        assert np.max(np.abs(dec.h_eff[k:, :])) == 0.0
        assert np.max(np.abs(dec.b[:k, :])) == 0.0


def test_uniqueness_fixed_point():
    rng = np.random.default_rng(5)
    h0 = random_base(6, 2, rng)
    h = perturbed(h0, 2, rng)
    dec = sw_decompose(h, h0, 2)
    dec2 = sw_decompose(dec.reconstruct(), h0, 2)
    assert frobenius_norm(dec2.s - dec.s) <= 1e-8
    assert frobenius_norm(dec2.b - dec.b) <= 1e-8
    assert frobenius_norm(dec2.h_eff - dec.h_eff) <= 1e-8
    assert dec2.c == pytest.approx(dec.c, abs=1e-8)


def test_lowest_k_property():
    rng = np.random.default_rng(6)
    h0 = random_base(7, 3, rng)
    h = perturbed(h0, 3, rng)
    dec = sw_decompose(h, h0, 3)
    block_vals = np.linalg.eigvalsh(dec.block_diagonal()[:3, :3])
    np.testing.assert_allclose(
        block_vals, np.linalg.eigvalsh(h)[:3], atol=1e-9
    )
    rest_vals = np.linalg.eigvalsh(dec.block_diagonal()[3:, 3:])
    assert np.max(block_vals) < np.min(rest_vals)


def test_base_point_errors():
    h = example_pr(0.1, 0.1)
    with pytest.raises(BasePointNotCanonical):
        sw_decompose(h, np.diag([0.0, 1.0, 2.0]).astype(complex), 2)
    with pytest.raises(BasePointNotCanonical):
        sw_decompose(h, np.diag([1.0, 0.0, 0.0]).astype(complex), 2)
    nondiag = np.array(
        [[0.0, 0.1, 0.0], [0.1, 0.0, 0.0], [0.0, 0.0, 1.0]], dtype=complex
    )
    with pytest.raises(BasePointNotCanonical):
        sw_decompose(h, nondiag, 2)


def test_boundary_input_error():
    h0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    h = np.diag([0.0, 0.5, 0.5]).astype(complex)
    with pytest.raises(DegenerateBoundary):
        sw_decompose(h, h0, 2)


def test_first_order_agreement():
    # H = H0 + eps V: H_eff matches the traceless window block of eps V
    # up to O(eps^2).
    rng = np.random.default_rng(7)
    h0 = random_base(5, 2, rng)
    v = random_hermitian(5, rng)
    for eps in (1e-3, 1e-4):
        dec = sw_decompose(h0 + eps * v, h0, 2)
        block = eps * v[:2, :2]
        block = block - (np.trace(block).real / 2) * np.eye(2)
        dev = frobenius_norm(dec.h_eff[:2, :2] - block)
        assert dev <= 50.0 * eps ** 2


# ---------------------------------------------------------------------------
# general (non-diagonal) base points
# ---------------------------------------------------------------------------


def test_general_matches_diagonal_for_diagonal_base():
    rng = np.random.default_rng(8)
    h0 = random_base(5, 2, rng)
    h = perturbed(h0, 2, rng)
    dec = sw_decompose(h, h0, 2)
    gen = sw_decompose_general(h, h0, 2)
    # The diagonalizing gauge of a degenerate diagonal matrix may rotate the
    # window block, under which H_eff transforms by conjugation; spectra and
    # the reconstruction agree.
    np.testing.assert_allclose(
        np.linalg.eigvalsh(gen.heff_block()),
        np.linalg.eigvalsh(dec.heff_block()),
        atol=1e-10,
    )
    assert frobenius_norm(gen.reconstruct() - h) <= 1e-9


def test_general_round_trip_conjugated():
    rng = np.random.default_rng(9)
    for _ in range(10):
        h0 = random_base(6, 2, rng)
        u = random_unitary(6, rng)
        g0 = conjugate(h0, u)
        h = conjugate(perturbed(h0, 2, rng), u)
        dec = sw_decompose_general(h, g0, 2)
        assert frobenius_norm(dec.reconstruct() - h) <= 1e-9
        # projector-form block conditions
        p0 = dec.window_projector()
        comp = np.eye(6) - p0
        assert frobenius_norm(p0 @ dec.s @ p0) <= 1e-11
        assert frobenius_norm(comp @ dec.s @ comp) <= 1e-11
        assert frobenius_norm(dec.h_eff - p0 @ dec.h_eff @ p0) <= 1e-11
        assert frobenius_norm(dec.b - comp @ dec.b @ comp) <= 1e-11


def test_heff_spectrum_base_point_independent():
    rng = np.random.default_rng(10)
    h0 = random_base(5, 2, rng)
    h = perturbed(h0, 2, rng, fraction=0.3)
    dec1 = sw_decompose(h, h0, 2)
    # A second base point with a different eigenbasis, still close enough:
    # rotate a slightly different diagonal base by a small unitary.
    s_small = random_hermitian(5, rng) * 0.02
    u = unitary_exp(s_small)
    g0 = conjugate(random_base(5, 2, rng, gap=1.2), u)
    dec2 = sw_decompose_general(h, g0, 2)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(dec1.heff_block()),
        np.linalg.eigvalsh(dec2.heff_block()),
        atol=1e-8,
    )


def test_gauge_freedom_of_degenerate_block():
    # Rotating the base inside its degenerate window leaves the spectrum of
    # H_eff unchanged.
    rng = np.random.default_rng(11)
    h0 = random_base(5, 2, rng)
    h = perturbed(h0, 2, rng)
    dec1 = sw_decompose_general(h, h0, 2)
    block_rot = np.eye(5, dtype=complex)
    block_rot[:2, :2] = random_unitary(2, rng)
    g0 = conjugate(h0, block_rot)  # same matrix, rotated eigenbasis freedom
    dec2 = sw_decompose_general(h, g0, 2)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(dec1.heff_block()),
        np.linalg.eigvalsh(dec2.heff_block()),
        atol=1e-10,
    )


# ---------------------------------------------------------------------------
# the chart
# ---------------------------------------------------------------------------


def test_chart_counts_and_y_norm():
    rng = np.random.default_rng(12)
    h0 = random_base(5, 2, rng)
    h = perturbed(h0, 2, rng)
    dec = sw_decompose(h, h0, 2)
    cc = chart_coordinates(dec)
    assert len(cc.x) == 25 - 4 + 1
    assert len(cc.y) == 3
    assert np.linalg.norm(cc.y) == pytest.approx(
        frobenius_norm(dec.h_eff), abs=1e-12
    )
    # x is the entrywise loop over the canonical order, restricted to the
    # off-block pairs of S and the complementary block of B.
    members = [True, True, False, False, False]
    ref = []
    for m in range(5):
        for a in range(m):
            if members[a] != members[m]:
                ref += [np.sqrt(2.0) * dec.s[a, m].real,
                        -np.sqrt(2.0) * dec.s[a, m].imag]
    for m in range(2, 5):
        for a in range(2, m):
            ref += [np.sqrt(2.0) * dec.b[a, m].real,
                    -np.sqrt(2.0) * dec.b[a, m].imag]
        ref.append(dec.b[m, m].real)
    ref.append(dec.c * np.sqrt(2.0))
    np.testing.assert_array_equal(cc.x, ref)


def test_chart_one_dimensional_window():
    # A k = 1 window has k^2 - 1 = 0 transverse coordinates: all n^2 chart
    # coordinates lie along the manifold.
    h = random_hermitian(6, np.random.default_rng(15))
    dec = sw_decompose_general(h, collapse_projection(h, 1).h_sigma, 1)
    cc = chart_coordinates(dec)
    assert cc.x.shape == (36,)
    assert cc.y.shape == (0,)
    np.testing.assert_array_equal(traceless_from_coordinates(cc.y, 1),
                                  np.zeros((1, 1)))


def test_chart_zero_locus_on_manifold():
    rng = np.random.default_rng(13)
    h0 = random_base(5, 2, rng)
    # move along the manifold: conjugate a degenerate matrix near H0
    s = random_hermitian(5, rng) * 0.05
    g = conjugate(h0 + 0.1 * np.diag([0, 0, 1.0, 2.0, 0.5]), unitary_exp(s))
    dec = sw_decompose(g, h0, 2)
    cc = chart_coordinates(dec)
    assert np.linalg.norm(cc.y) <= 1e-10


def test_chart_pauli_reconstruction_k2():
    rng = np.random.default_rng(14)
    h0 = random_base(4, 2, rng)
    h = perturbed(h0, 2, rng)
    dec = sw_decompose(h, h0, 2)
    cc = chart_coordinates(dec)
    np.testing.assert_allclose(
        traceless_from_coordinates(cc.y, 2), dec.heff_block(), atol=1e-12
    )


def test_chart_transverse_vs_tangent_response():
    # Perturbing the base along each x-direction leaves the manifold only at
    # second order; along each y-direction the response is linear with unit
    # coefficient.
    from degengeo.hermitian import canonical_basis, traceless_basis

    n, k = 4, 2
    h0 = np.diag([0.0, 0.0, 1.0, 2.0]).astype(complex)
    eps = 1e-4
    x_dirs = []
    for idx, mat in canonical_basis(n):
        if idx.b <= k:
            continue  # window block: y-directions and the trace live there
        x_dirs.append(mat)
    scalar = np.zeros((n, n), dtype=complex)
    scalar[:k, :k] = np.eye(k) / np.sqrt(k)
    x_dirs.append(scalar)
    assert len(x_dirs) == n * n - k * k + 1
    for d in x_dirs:
        dec = sw_decompose(h0 + eps * d, h0, k)
        assert np.linalg.norm(chart_coordinates(dec).y) <= 10.0 * eps ** 2
    for ym in traceless_basis(k):
        d = np.zeros((n, n), dtype=complex)
        d[:k, :k] = ym
        dec = sw_decompose(h0 + eps * d, h0, k)
        assert np.linalg.norm(chart_coordinates(dec).y) == pytest.approx(
            eps, rel=1e-6
        )
