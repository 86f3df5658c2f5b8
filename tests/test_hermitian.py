"""Inner products, norms, bases, and construction invariants."""

import numpy as np
import pytest

from degengeo.hermitian import (
    canonical_basis,
    conjugate,
    coordinate_pairs,
    coordinates,
    frobenius_inner,
    frobenius_norm,
    from_coordinates,
    hermitian,
    operator_2_norm,
    random_hermitian,
    random_unitary,
    traceless_basis,
    traceless_coordinates,
    traceless_from_coordinates,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_construction_symmetrizes_and_freezes():
    h = hermitian([[1.0, 2.0 + 1e-14j], [2.0, 3.0]])
    assert np.array_equal(h, h.conj().T)
    with pytest.raises(ValueError):
        h[0, 0] = 5.0


def test_construction_rejects_asymmetry():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian([[1.0, 2.0], [2.1, 3.0]])


def test_construction_rejects_nonfinite_and_nonsquare():
    with pytest.raises(ValueError, match="finite"):
        hermitian([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="square"):
        hermitian(np.zeros((2, 3)))


def test_inner_identity():
    assert frobenius_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)


def test_inner_normalized_paulis_orthogonal():
    assert frobenius_inner(SX / np.sqrt(2), SY / np.sqrt(2)) == pytest.approx(
        0.0, abs=1e-15
    )


def test_inner_conjugation_invariant():
    rng = np.random.default_rng(0)
    for _ in range(5):
        h = random_hermitian(5, rng)
        k = random_hermitian(5, rng)
        u = random_unitary(5, rng)
        assert frobenius_inner(conjugate(h, u), conjugate(k, u)) == pytest.approx(
            frobenius_inner(h, k), abs=1e-12
        )


def test_inner_positive_definite():
    rng = np.random.default_rng(1)
    for _ in range(20):
        h = random_hermitian(4, rng)
        assert frobenius_inner(h, h) >= 0.0
    assert frobenius_inner(np.zeros((3, 3)), np.zeros((3, 3))) == 0.0


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        frobenius_inner(np.eye(2), np.eye(3))


def test_norms_explicit():
    d = np.diag([3.0, -4.0]).astype(complex)
    assert operator_2_norm(d) == pytest.approx(4.0)
    assert frobenius_norm(d) == pytest.approx(5.0)
    assert frobenius_norm(np.zeros((4, 4))) == 0.0


def test_norm_inequality_chain():
    rng = np.random.default_rng(2)
    for _ in range(100):
        h = random_hermitian(6, rng)
        two = operator_2_norm(h)
        fro = frobenius_norm(h)
        assert two <= fro + 1e-12
        assert fro <= np.sqrt(6) * two + 1e-12


def test_canonical_basis_orthonormal():
    basis = canonical_basis(2)
    assert len(basis) == 4
    for i, (_, a) in enumerate(basis):
        for j, (_, b) in enumerate(basis):
            expect = 1.0 if i == j else 0.0
            assert frobenius_inner(a, b) == pytest.approx(expect, abs=1e-14)


def test_canonical_basis_kind_counts():
    kinds = [idx.kind for idx, _ in canonical_basis(3)]
    assert len(kinds) == 9
    assert kinds.count("real-offdiag") == 3
    assert kinds.count("imag-offdiag") == 3
    assert kinds.count("diag") == 3


def test_canonical_block_ordering():
    # The first k^2 elements must span exactly the upper-left k x k block.
    n = 4
    basis = canonical_basis(n)
    for k in range(1, n):
        for pos, (_, mat) in enumerate(basis):
            inside = (
                np.max(np.abs(mat[k:, :])) == 0
                and np.max(np.abs(mat[:, k:])) == 0
            )
            assert inside == (pos < k * k)


def test_coordinate_round_trip():
    rng = np.random.default_rng(3)
    h = random_hermitian(4, rng)
    v = coordinates(h)
    assert v.shape == (16,)
    back = from_coordinates(v, 4)
    assert frobenius_norm(back - h) <= 1e-13 * frobenius_norm(h)
    # Coordinates really are the canonical-basis expansion.
    for (_, mat), c in zip(canonical_basis(4), v):
        assert frobenius_inner(h, mat) == pytest.approx(c, abs=1e-12)


def test_coordinates_match_entrywise_loop():
    # The index gathers must reproduce the entrywise loops over the
    # canonical order exactly.
    rng = np.random.default_rng(4)
    for n in (1, 2, 5):
        h = random_hermitian(n, rng)
        ref = []
        for m in range(n):
            for a in range(m):
                ref += [np.sqrt(2.0) * h[a, m].real,
                        -np.sqrt(2.0) * h[a, m].imag]
            ref.append(h[m, m].real)
        v = coordinates(h)
        np.testing.assert_array_equal(v, ref)
        back = np.zeros((n, n), dtype=complex)
        pos = 0
        for m in range(n):
            for a in range(m):
                back[a, m] = (v[pos] - 1j * v[pos + 1]) / np.sqrt(2.0)
                back[m, a] = np.conj(back[a, m])
                pos += 2
            back[m, m] = v[pos]
            pos += 1
        np.testing.assert_array_equal(from_coordinates(v, n), back)
        a, m = coordinate_pairs(n)
        labels = [(idx.a - 1, idx.b - 1) for idx, _ in canonical_basis(n)]
        assert list(zip(a.tolist(), m.tolist())) == labels


def test_traceless_basis_paulis():
    b = traceless_basis(2)
    assert len(b) == 3
    np.testing.assert_allclose(b[0], SX / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(b[1], SY / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(b[2], SZ / np.sqrt(2), atol=1e-15)


def test_traceless_basis_diagonal_members_k3():
    b = traceless_basis(3)
    lam3 = np.diag([1.0, -1.0, 0.0]) / np.sqrt(2)
    lam8 = np.diag([1.0, 1.0, -2.0]) / np.sqrt(6)
    np.testing.assert_allclose(b[-2], lam3, atol=1e-15)
    np.testing.assert_allclose(b[-1], lam8, atol=1e-15)


def test_traceless_basis_unit_norm_k5():
    for mat in traceless_basis(5):
        assert abs(np.trace(mat)) <= 1e-14
        assert frobenius_norm(mat) == pytest.approx(1.0, abs=1e-14)


def test_traceless_coordinates_round_trip():
    rng = np.random.default_rng(4)
    block = random_hermitian(3, rng)
    block = block - (np.trace(block).real / 3) * np.eye(3)
    y = traceless_coordinates(block)
    back = traceless_from_coordinates(y, 3)
    assert frobenius_norm(back - block) <= 1e-13


def test_conjugate_identity_and_invariances():
    rng = np.random.default_rng(5)
    h = random_hermitian(6, rng)
    np.testing.assert_allclose(conjugate(h, np.eye(6)), h, atol=1e-15)
    u = random_unitary(6, rng)
    g = conjugate(h, u)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(g), np.linalg.eigvalsh(h), atol=1e-10
    )
    assert frobenius_norm(g) == pytest.approx(frobenius_norm(h), abs=1e-12)
