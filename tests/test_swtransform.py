"""Exact block decomposition: projectors, direct rotation, uniqueness,
closed-form oracle, principal-angle properties at high precision, and the
induced chart."""

import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from degengeo import swtransform
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
from degengeo.spectra import eigh, window_distance, window_half_gap
from degengeo.swtransform import (
    Anchor,
    chart_coordinates,
    direct_rotation,
    projector_lowest_k,
    sw_decompose,
    sw_decompose_general,
)


def exp_i(s):
    """Reference e^{iS} for Hermitian S, through the eigendecomposition of
    S, so the result is unitary to machine precision."""
    s = np.asarray(s)
    vals, vecs = np.linalg.eigh(s)
    return (vecs * np.exp(1j * vals)) @ vecs.conj().T


def random_base(n, k, rng, gap=1.0):
    """Diagonal ascending base with an exactly degenerate lowest-k window."""
    deg = float(rng.standard_normal())
    rest = deg + gap + np.sort(rng.uniform(0.0, 2.0, size=n - k))
    return np.diag(np.concatenate([np.full(k, deg), rest])).astype(complex)


def perturbed(h0, k, rng, fraction=0.5):
    """H0 plus a random Hermitian scaled inside the uniqueness ball."""
    n = h0.shape[0]
    v = random_hermitian(n, rng)
    r0 = window_half_gap(np.diag(h0).real, k, 0)
    return h0 + v * (fraction * r0 / operator_2_norm(v))


def windowed_diagonal(n, k, offset, rng):
    """An ascending diagonal, exactly degenerate on the window, whose window
    has gaps of at least 1 to its neighbours."""
    deg = float(rng.standard_normal())
    below = deg - 1.0 - np.sort(rng.uniform(0.0, 2.0, size=offset))[::-1]
    above = deg + 1.0 + np.sort(rng.uniform(0.0, 2.0, size=n - k - offset))
    return np.concatenate([below, np.full(k, deg), above])


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


def test_direct_rotation_is_the_decomposition_rotation():
    # The rotation of a decomposition, the e^{iS} its principal angles gave,
    # is the direct rotation from P0 to the P it produces, and so is
    # Kato's (P P0 + (I - P)(I - P0)) (I - (P - P0)^2)^{-1/2}; offset window
    # with k > n - k.
    h0 = np.diag([-1.0, 0.5, 0.5, 0.5, 2.0]).astype(complex)
    v = random_hermitian(5, np.random.default_rng(16))
    dec = sw_decompose(h0 + v * (0.6 / operator_2_norm(v)), h0, 3, offset=1)
    p0 = dec.window_projector()
    p = conjugate(p0, dec.e)
    w = direct_rotation(p, p0)
    assert np.max(np.abs(w - dec.e)) <= 1e-13
    sin2, vecs = np.linalg.eigh((p - p0) @ (p - p0))
    eye = np.eye(5)
    kato = ((p @ p0 + (eye - p) @ (eye - p0))
            @ (vecs / np.sqrt(1.0 - sin2)) @ vecs.conj().T)
    assert np.max(np.abs(w - kato)) <= 1e-13


def test_direct_rotation_unitary_near_right_angle():
    # An angle 1e-5 short of pi/2, about the largest the threshold on
    # ||P - P0||_2 admits: W stays unitary and still maps P0 to P.
    th = np.pi / 2 - 1e-5
    u = np.eye(4, dtype=complex)
    u[np.ix_([0, 2], [0, 2])] = [[np.cos(th), -np.sin(th)],
                                 [np.sin(th), np.cos(th)]]
    p0 = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
    p = conjugate(p0, u)
    w = direct_rotation(p, p0)
    assert np.max(np.abs(w @ w.conj().T - np.eye(4))) <= 1e-14
    assert np.max(np.abs(conjugate(p0, w) - p)) <= 1e-14


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
        assert dec.within_r0 and dec.max_angle < np.pi / 2
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
# the principal-angle closed form
# ---------------------------------------------------------------------------


def rotated_pair(n, k, offset, angles, seed):
    """(H, H0): a diagonal base degenerate on the window, and H with that
    window turned by the given principal angles. The window block gets a
    traceless part and the complement block a random Hermitian part, both
    small; window column j is rotated towards complement column j by
    angles[j], so the angles are exactly the principal ones."""
    rng = np.random.default_rng(seed)
    members = np.zeros(n, dtype=bool)
    members[offset : offset + k] = True
    diag = np.zeros(n)
    diag[:offset] = -2.0 - np.arange(offset)[::-1]
    diag[offset + k:] = 2.0 + np.arange(n - offset - k)
    h0 = np.diag(diag).astype(complex)
    local = h0.copy()
    win, comp = np.ix_(members, members), np.ix_(~members, ~members)
    block = random_hermitian(k, rng) * 0.1
    local[win] += block - np.trace(block).real / k * np.eye(k)
    local[comp] += random_hermitian(n - k, rng) * 0.1
    rot = np.eye(n, dtype=complex)
    for a, c, th in zip(np.flatnonzero(members), np.flatnonzero(~members),
                        angles):
        rot[np.ix_([a, c], [a, c])] = [[np.cos(th), -np.sin(th)],
                                       [np.sin(th), np.cos(th)]]
    return conjugate(local, rot), h0


ANGLES = (1e-8, 0.3, 1.5, np.pi / 2 - 1e-5)
SHAPES = ((6, 2, 0), (5, 1, 2), (3, 2, 1))  # (n, k, offset); n - k < k last


@pytest.mark.parametrize("theta", ANGLES)
@pytest.mark.parametrize("n, k, offset", SHAPES)
def test_closed_form_properties_at_50_digits(theta, n, k, offset):
    # The double-precision parts, checked at 50 digits: e^{iS} is unitary,
    # carries the window projector P0 onto the window eigenprojector P of H
    # and rebuilds H; S is off-block and ||S||_2 is the largest principal
    # angle between ran(P0) and ran(P).
    angles = (theta, 0.2)[:min(k, n - k)]
    h, h0 = rotated_pair(n, k, offset, angles, seed=n + k)
    dec = sw_decompose(h, h0, k, offset=offset)
    members = np.zeros(n, dtype=bool)
    members[offset : offset + k] = True
    assert np.all(dec.s[np.ix_(members, members)] == 0.0)
    assert np.all(dec.s[np.ix_(~members, ~members)] == 0.0)
    assert dec.within_r0 == (operator_2_norm(h - h0) < 1.0)
    assert dec.max_angle < np.pi / 2

    with mp.workdps(50):
        e = mp.expm(1j * mp.matrix(dec.s))
        eye = mp.eye(n)
        assert mp.mnorm(e * e.H - eye, 1) <= mp.mpf(10) ** -45
        vals, vecs = mp.eighe(mp.matrix(h))
        order = sorted(range(n), key=lambda j: vals[j])
        window = [order[j] for j in range(offset, offset + k)]
        v = mp.matrix(n, k)
        for col, j in enumerate(window):
            for i in range(n):
                v[i, col] = vecs[i, j]
        p = v * v.H
        p0 = mp.matrix(dec.window_projector())
        assert mp.mnorm(e * p0 * e.H - p, 1) <= 1e-13
        blocks = mp.matrix(dec.block_diagonal())
        scale = max(1.0, frobenius_norm(h))
        assert mp.mnorm(e * blocks * e.H - mp.matrix(h), 1) <= 1e-13 * scale
        cosines = mp.svd_c(v[offset : offset + k, 0:k], compute_uv=False)
        largest = mp.acos(min(cosines[j] for j in range(k)))
        s_vals = mp.eighe(mp.matrix(dec.s), eigvals_only=True)
        s_norm = max(abs(s_vals[j]) for j in range(n))
        assert abs(s_norm - largest) <= 1e-13
        assert abs(largest - max(angles)) <= 1e-13


@pytest.mark.parametrize("short, refused", [(1e-5, False), (1e-6, True)])
def test_refusal_threshold_near_right_angle(short, refused):
    # ||P - P0||_2 = sin(theta) >= 1 - 1e-12 is refused: pi/2 - 1e-5 is
    # inside, pi/2 - 1e-6 outside.
    h, h0 = rotated_pair(4, 2, 0, (np.pi / 2 - short, 0.1), seed=3)
    if refused:
        with pytest.raises(SubspacesTooFar, match="no direct rotation"):
            sw_decompose(h, h0, 2)
    else:
        dec = sw_decompose(h, h0, 2)
        assert dec.max_angle < np.pi / 2
        assert dec.max_angle == pytest.approx(np.pi / 2 - short, abs=1e-12)


def test_one_factorization_per_decomposition(linalg_calls):
    # One eigh of H and one k x k SVD of the window rows of the window
    # eigenvectors; ||H - H0||_F < r0 here, so the Frobenius bound decides
    # the uniqueness-ball flag without an eigvalsh.
    rng = np.random.default_rng(17)
    h0 = random_base(9, 3, rng)
    h = perturbed(h0, 3, rng)
    assert frobenius_norm(h - h0) < window_half_gap(np.diag(h0).real, 3, 0)
    linalg_calls.clear()
    sw_decompose(h, h0, 3)
    assert sorted(linalg_calls) == [("eigh", (9, 9)), ("svd", (3, 3))]


@pytest.mark.parametrize("general", [False, True])
def test_rotation_is_the_exponential_of_s(general):
    # The rotation a decomposition keeps is exp(iS) of its own S, for
    # diagonal and general bases and random windows, up to angles near the
    # pi/2 cut.
    rng = np.random.default_rng(18)
    worst = 0.0
    for case in range(45):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(1, n))
        offset = int(rng.integers(0, n - k + 1))
        top = (0.3, 1.5, np.pi / 2 - 1e-5)[case % 3]
        angles = rng.uniform(0.0, top, size=min(k, n - k))
        angles[0] = top
        h, h0 = rotated_pair(n, k, offset, angles, seed=case)
        if general:
            u = random_unitary(n, rng)
            dec = sw_decompose_general(conjugate(h, u), conjugate(h0, u), k,
                                       offset=offset)
        else:
            dec = sw_decompose(h, h0, k, offset=offset)
        worst = max(worst, np.max(np.abs(dec.e - exp_i(dec.s))))
    assert worst <= 1e-13


def test_reconstruct_runs_no_eigendecomposition(linalg_calls):
    rng = np.random.default_rng(19)
    h0 = random_base(6, 2, rng)
    h = perturbed(h0, 2, rng)
    u = random_unitary(6, rng)
    decs = (sw_decompose(h, h0, 2),
            sw_decompose_general(conjugate(h, u), conjugate(h0, u), 2))
    linalg_calls.clear()
    rebuilt = [dec.reconstruct() for dec in decs]
    assert linalg_calls == []
    assert frobenius_norm(rebuilt[0] - h) <= 1e-9
    assert frobenius_norm(rebuilt[1] - conjugate(h, u)) <= 1e-9


# ---------------------------------------------------------------------------
# the O(n^2 k) assembly against full n x n conjugations
# ---------------------------------------------------------------------------


def full_conjugation_reference(h, gauge, vals0, k, offset):
    """The decomposition by n x n conjugations: H taken into the gauge (the
    columns that diagonalize the base, eigenvalues vals0 ascending), e^{iS}
    built there as a dense matrix from the principal angles, E^dagger H E
    formed by two n x n products and its blocks read off, and every part
    conjugated back to H's frame. Also returns the window block of H_eff in
    the gauge."""
    n = h.shape[0]
    members = np.zeros(n, dtype=bool)
    members[offset : offset + k] = True
    win, comp = np.ix_(members, members), np.ix_(~members, ~members)
    off = np.ix_(~members, members)
    d = np.array(vals0, dtype=float)
    d[members] = d[members].mean()
    local = conjugate(h, gauge.conj().T)
    v = np.linalg.eigh(local)[1][:, offset : offset + k]
    x, cos, yh = np.linalg.svd(v[members])
    theta = np.arccos(np.minimum(cos, 1.0))
    z_sin = v[~members] @ yh.conj().T
    u = x @ yh
    s = np.zeros((n, n), dtype=complex)
    s[off] = -1j * (z_sin / np.sinc(theta / np.pi)) @ x.conj().T
    s[np.ix_(members, ~members)] = s[off].conj().T
    e = np.zeros((n, n), dtype=complex)
    e[:, members] = v @ u.conj().T
    e[np.ix_(members, ~members)] = -u @ v[~members].conj().T
    e[comp] = np.eye(n - k) - (z_sin / (1.0 + cos)) @ z_sin.conj().T
    bd = conjugate(local, e.conj().T)
    mean = np.trace(bd[win]).real / k
    h_eff = np.zeros((n, n), dtype=complex)
    h_eff[win] = bd[win] - mean * np.eye(k)
    b = np.zeros((n, n), dtype=complex)
    b[comp] = bd[comp] - np.diag(d[~members])
    parts = {name: conjugate(m, gauge) for name, m in (
        ("h0", np.diag(d)), ("s", s), ("b", b), ("h_eff", h_eff))}
    return dict(parts, c=mean - d[offset], e=gauge @ e @ gauge.conj().T,
                window=h_eff[win])


def decomposed_case(n, k, offset, share, general, rng):
    """(H, decomposition, gauge, base eigenvalues, r0) for H = base + V with
    ||V||_2 = share * r0, against a diagonal base or a random conjugate of
    it."""
    diag = windowed_diagonal(n, k, offset, rng)
    r0 = window_half_gap(diag, k, offset)
    v = random_hermitian(n, rng)
    h = np.diag(diag) + v * (share * r0 / operator_2_norm(v))
    if not general:
        dec = sw_decompose(h, np.diag(diag).astype(complex), k, offset=offset)
        return h, dec, np.eye(n), diag, r0
    u = random_unitary(n, rng)
    g, h = conjugate(np.diag(diag), u), conjugate(h, u)
    base = eigh(g)
    dec = sw_decompose_general(h, g, k, offset=offset)
    return h, dec, base.vectors, base.eigenvalues, r0


@pytest.mark.parametrize("general", [False, True])
def test_low_rank_assembly_matches_the_full_conjugations(general):
    # Random n = 3..40 with every window size and offsets: the parts
    # assembled from rank-2k pieces agree with the n x n conjugations,
    # rebuild H, keep the block conditions, and ||S||_2 is the largest
    # principal angle.
    rng = np.random.default_rng(40 + general)
    sizes = [(3, 1), (3, 2), (40, 1), (40, 39)] + [
        (n, int(rng.integers(1, n))) for n in rng.integers(3, 41, size=36)]
    for n, k in sizes:
        offset = int(rng.integers(0, n - k + 1))
        share = rng.uniform(0.05, 0.95)
        h, dec, gauge, vals0, r0 = decomposed_case(n, k, offset, share,
                                                   general, rng)
        tol = 1e-12 * max(1.0, operator_2_norm(h))
        ref = full_conjugation_reference(h, gauge, vals0, k, offset)
        for name in ("h0", "s", "b", "h_eff"):
            assert np.max(np.abs(getattr(dec, name) - ref[name])) <= tol
        assert abs(dec.c - ref["c"]) <= tol
        assert np.max(np.abs(dec.e - ref["e"])) <= tol
        assert np.max(np.abs(dec.heff_window - ref["window"])) <= tol
        assert dec.residual <= tol
        assert frobenius_norm(dec.reconstruct() - h) <= tol
        p0 = dec.window_projector()
        q0 = np.eye(n) - p0
        for part in (p0 @ dec.s @ p0, q0 @ dec.s @ q0,
                     dec.h_eff - p0 @ dec.h_eff @ p0,
                     dec.b - q0 @ dec.b @ q0):
            assert frobenius_norm(part) <= tol
        assert abs(np.trace(dec.h_eff)) <= tol
        assert abs(dec.max_angle - operator_2_norm(dec.s)) <= tol
        assert dec.within_r0


@pytest.mark.parametrize("general", [False, True])
def test_within_r0_where_the_frobenius_bounds_do_not_decide(general,
                                                          linalg_calls):
    # ||H - H0||_2 a hair inside or outside r0 while r0 <= ||H - H0||_F <=
    # sqrt(n) r0: neither bound decides, one eigvalsh of H - H0 does, and
    # the flag is operator_2_norm(H - H0) < r0.
    rng = np.random.default_rng(44 + general)
    n, k, offset = 16, 3, 5
    for share in (0.99, 0.999, 1.001, 1.01):
        linalg_calls.clear()
        h, dec, _, _, r0 = decomposed_case(n, k, offset, share, general, rng)
        calls = list(linalg_calls)
        fro = frobenius_norm(h - dec.h0)
        assert r0 <= fro <= np.sqrt(n) * r0
        assert ("eigvalsh", (n, n)) in calls
        assert dec.within_r0 == (operator_2_norm(h - dec.h0) < r0)
        assert dec.within_r0 == (share < 1.0)


@pytest.mark.parametrize("window, inside", [((0.0, 0.1, 0.2), True),
                                            ((0.0, 1.0, 2.0), False)])
def test_decomposing_the_anchor_matrix_reuses_its_spectrum(window, inside,
                                                         linalg_calls):
    # H against its own collapse: one eigh and one k x k SVD. S vanishes,
    # ||H_eff|| is the window distance, and the ball flag is read off the
    # window deviations from their mean mu, max|lambda_w - mu| < r0.
    rng = np.random.default_rng(46)
    vals = np.array([-3.0, -0.5, *window, 2.5, 4.0])
    n, k, offset = len(vals), 3, 2
    h = conjugate(np.diag(vals), random_unitary(n, rng))
    linalg_calls.clear()
    dec = Anchor.at(h, k, offset).decompose(h)
    assert sorted(linalg_calls) == [("eigh", (n, n)), ("svd", (k, k))]
    collapsed = vals.copy()
    collapsed[offset : offset + k] = np.mean(window)
    r0 = window_half_gap(collapsed, k, offset)
    assert dec.within_r0 == inside
    assert dec.within_r0 == (operator_2_norm(h - dec.h0) < r0)
    assert frobenius_norm(dec.s) <= 1e-13
    assert frobenius_norm(dec.h_eff) == pytest.approx(
        window_distance(vals, k, offset), abs=1e-13)
    assert dec.residual <= 1e-13


def test_package_imports_without_scipy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, degengeo, degengeo.cli; "
            "assert 'scipy' not in sys.modules, 'scipy was imported'")
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


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
        np.linalg.eigvalsh(gen.heff_window),
        np.linalg.eigvalsh(dec.heff_window),
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
    u = exp_i(s_small)
    g0 = conjugate(random_base(5, 2, rng, gap=1.2), u)
    dec2 = sw_decompose_general(h, g0, 2)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(dec1.heff_window),
        np.linalg.eigvalsh(dec2.heff_window),
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
        np.linalg.eigvalsh(dec1.heff_window),
        np.linalg.eigvalsh(dec2.heff_window),
        atol=1e-10,
    )


# ---------------------------------------------------------------------------
# anchors
# ---------------------------------------------------------------------------


def test_anchor_refuses_unseparated_window_when_made():
    with pytest.raises(BasePointNotCanonical,
                       match="eigenvalues 1 and 2 coincide"):
        Anchor.at(np.diag([0.0, 0.0, 1.0]).astype(complex), 1)
    with pytest.raises(BasePointNotCanonical,
                       match="eigenvalues 2 and 3 coincide"):
        Anchor.at(np.diag([-1.0, 0.0, 0.0, 1.0]).astype(complex), 1, 2)
    # The check is on the collapsed base: the mean 0.5 of the window
    # (0, 1) is separated from the 1 above it.
    anchor = Anchor.at(np.diag([0.0, 1.0, 1.0]).astype(complex), 2)
    np.testing.assert_array_equal(anchor.levels, [0.5, 0.5, 1.0])
    assert not anchor.levels.flags.writeable


def test_anchor_decompositions_skip_base_validation(monkeypatch):
    calls = []
    real = swtransform._validate_canonical_base

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(swtransform, "_validate_canonical_base", counted)
    rng = np.random.default_rng(20)
    h0 = random_base(5, 2, rng)
    u = random_unitary(5, rng)
    h = perturbed(h0, 2, rng)
    anchor = Anchor.at(conjugate(h0, u), 2)
    anchor.decompose(conjugate(h, u))
    anchor.heff_block(conjugate(h, u))
    sw_decompose_general(conjugate(h, u), conjugate(h0, u), 2)
    assert calls == []
    sw_decompose(h, h0, 2)
    assert len(calls) == 1


def windowed_anchor_pair(n, k, offset, rng):
    """An anchor at a random conjugate G of a diagonal base that is exactly
    degenerate on the window, and H = G + V with ||V||_2 = r0 / 2."""
    diag = windowed_diagonal(n, k, offset, rng)
    g = conjugate(np.diag(diag).astype(complex), random_unitary(n, rng))
    v = random_hermitian(n, rng)
    r0 = window_half_gap(diag, k, offset)
    return Anchor.at(g, k, offset), g + v * (0.5 * r0 / operator_2_norm(v))


@pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 32])
def test_heff_block_is_the_decomposition_window_block(n):
    # U Lambda_w U^dagger from the polar factor agrees with the window block
    # of the full rotation, and its norm is the distance theorem's window
    # distance, for every window size, ground and middle windows.
    rng = np.random.default_rng(100 + n)
    for k in range(1, n):
        for offset in sorted({0, (n - k) // 2}):
            anchor, h = windowed_anchor_pair(n, k, offset, rng)
            bound = 1e-13 * max(1.0, frobenius_norm(h))
            block = anchor.heff_block(h)
            w = slice(offset, offset + k)
            dec = anchor.decompose(h)
            want = conjugate(dec.h_eff, anchor.gauge.conj().T)[w, w]
            assert block.tobytes() == dec.heff_window.tobytes()
            assert block.shape == (k, k)
            assert np.array_equal(block, block.conj().T)
            assert np.max(np.abs(block - want)) <= bound
            distance = window_distance(np.linalg.eigvalsh(h), k, offset)
            assert abs(frobenius_norm(block) - distance) <= bound


@pytest.mark.parametrize("n, k, offset", [(5, 2, 0), (8, 3, 2), (16, 2, 7),
                                          (4, 4, 0)])
def test_heff_block_stack_matches_each_matrix(n, k, offset):
    # A stack goes through one call and gives each matrix's block to the
    # last bit; k = n takes the window-block branch, stacks included.
    rng = np.random.default_rng(30 + n)
    if k == n:
        anchor = Anchor.at(random_hermitian(n, rng), k, offset)
        hs = np.stack([random_hermitian(n, rng) for _ in range(4)])
    else:
        anchor, h = windowed_anchor_pair(n, k, offset, rng)
        hs = np.stack([h + 1e-3 * j * random_hermitian(n, rng)
                       for j in range(4)])
    blocks = anchor.heff_block(hs)
    assert blocks.shape == (4, k, k)
    for block, h in zip(blocks, hs):
        assert block.tobytes() == anchor.heff_block(h).tobytes()
    nested = anchor.heff_block(hs.reshape(2, 2, n, n))
    assert nested.tobytes() == blocks.tobytes()


def test_heff_block_raises_as_decompose():
    anchor = Anchor.at(np.diag([0.0, 0.0, 2.0, 3.0]).astype(complex), 2)
    good = np.diag([0.0, 0.1, 2.0, 3.0]).astype(complex)
    # Eigenvalues 2 and 3 of H coincide: the window is not separated.
    touching = np.diag([0.0, 1.0, 1.0, 3.0]).astype(complex)
    # The window eigenvectors of H span the anchor's complement.
    orthogonal = np.diag([2.0, 3.0, 0.0, 0.5]).astype(complex)
    for bad, error, match in [(touching, DegenerateBoundary, "coincide"),
                              (orthogonal, SubspacesTooFar,
                               "no direct rotation")]:
        with pytest.raises(error, match=match):
            anchor.decompose(bad)
        with pytest.raises(error, match=match):
            anchor.heff_block(bad)
        with pytest.raises(error, match=match):
            anchor.heff_block(np.stack([good, good, bad, good]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        anchor.heff_block(np.eye(3))


def test_whole_spectrum_anchor():
    # The cascade anchors a level whose eigenvalues all cluster together
    # with k = n: its effective block is the traceless part of h, and there
    # is nothing to decompose.
    rng = np.random.default_rng(21)
    anchor = Anchor.at(random_hermitian(3, rng), 3)
    h = random_hermitian(3, rng)
    local = conjugate(h, anchor.gauge.conj().T)
    np.testing.assert_allclose(
        anchor.heff_block(h),
        local - np.trace(local).real / 3.0 * np.eye(3),
        atol=1e-15,
    )
    with pytest.raises(BasePointNotCanonical,
                       match="window covers the whole spectrum"):
        anchor.decompose(h)


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
    g = conjugate(h0 + 0.1 * np.diag([0, 0, 1.0, 2.0, 0.5]), exp_i(s))
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
        traceless_from_coordinates(cc.y, 2), dec.heff_window, atol=1e-12
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


def test_diagonal_base_rule_is_the_strict_path_test():
    # One rule decides both whether sw_decompose accepts a base as diagonal
    # and which decomposition `decompose --base` runs. On Hermitian bases
    # (real diagonal) it is max|H0 - diag(H0)| <= 1e-12 * max(1, max|H0|).
    rng = np.random.default_rng(21)
    h = example_pr(0.1, 0.1)
    for scale in (0.5, 1.0, 40.0):
        base = scale * np.diag([0.0, 0.0, 1.0]).astype(complex)
        for rel in (0.0, 1e-13, 0.9e-12, 1.1e-12, 1e-9):
            noise = rel * max(1.0, scale) * np.exp(2j * np.pi * rng.random())
            noisy = base.copy()
            noisy[0, 2], noisy[2, 0] = noise, np.conj(noise)
            diagonal = swtransform.is_diagonal_base(noisy)
            assert diagonal is (rel <= 1e-12)
            if diagonal:
                sw_decompose(scale * h, noisy, 2)
            else:
                with pytest.raises(BasePointNotCanonical,
                                   match="base point must be diagonal"):
                    sw_decompose(scale * h, noisy, 2)


@pytest.mark.parametrize("call, error, match", [
    # Projectors of rank 1 and 2 have no rotation between them.
    (lambda: direct_rotation(np.diag([1.0, 0.0, 0.0]),
                             np.diag([1.0, 1.0, 0.0])),
     SubspacesTooFar, "no direct rotation exists"),
    (lambda: sw_decompose(np.diag([0.0, 0.1, 0.2]), np.zeros((3, 3)), 3),
     BasePointNotCanonical, "window covers the whole spectrum"),
    # An anchor made from a spectrum alone serves window blocks only.
    (lambda: Anchor.from_spectrum(eigh(np.diag([0.0, 0.0, 1.0])), 2)
     .decompose(np.diag([0.0, 0.1, 1.0])),
     ValueError, "made without its matrix"),
])
def test_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()
