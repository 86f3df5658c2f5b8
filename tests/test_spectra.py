"""Eigendecomposition, stratum classification, and gap quantities."""

import numpy as np
import pytest

from degengeo.hermitian import conjugate, random_hermitian, random_unitary
from degengeo.spectra import (
    classify_stratum,
    eigh,
    half_gap,
    is_in_sigma_k,
    is_on_boundary,
    stratum_codimension,
    window_distance,
    window_spread,
)


def test_eigh_sorts_diagonal_input():
    spec = eigh(np.diag([2.0, 0.0, 1.0]).astype(complex))
    np.testing.assert_allclose(spec.eigenvalues, [0.0, 1.0, 2.0])


def test_eigh_pauli_x():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    np.testing.assert_allclose(eigh(sx).eigenvalues, [-1.0, 1.0], atol=1e-15)


def test_eigh_residual_random():
    rng = np.random.default_rng(0)
    h = random_hermitian(8, rng)
    spec = eigh(h)
    lam = np.diag(spec.eigenvalues)
    u = spec.vectors
    assert np.linalg.norm(u.conj().T @ h @ u - lam, "fro") <= 1e-10
    assert np.linalg.norm(u.conj().T @ u - np.eye(8), "fro") <= 1e-10


def test_eigh_phase_convention_deterministic():
    rng = np.random.default_rng(1)
    h = random_hermitian(5, rng)
    u1 = eigh(h).vectors
    u2 = eigh(h.copy()).vectors
    np.testing.assert_array_equal(u1, u2)
    for j in range(5):
        i = int(np.argmax(np.abs(u1[:, j])))
        assert u1[i, j].imag == pytest.approx(0.0, abs=1e-15)
        assert u1[i, j].real > 0


def _eigh_loop(h):
    """Reference: the per-column phase loop, with the scalar abs()."""
    vals, vecs = np.linalg.eigh(h)
    vecs = vecs.copy()
    for j in range(vecs.shape[1]):
        i = int(np.argmax(np.abs(vecs[:, j])))
        pivot = vecs[i, j]
        if abs(pivot) > 0.0:
            vecs[:, j] *= np.conj(pivot) / abs(pivot)
    return vals, vecs


def _hermitian_stack(rng, shape, n, dtype):
    a = rng.standard_normal((*shape, n, n))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((*shape, n, n))
    return (a + np.swapaxes(a.conj(), -1, -2)) / 2.0


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [1, 2, 3, 16, 64])
def test_eigh_stack_matches_per_matrix_and_loop_bytes(n, dtype):
    rng = np.random.default_rng(n)
    stack = _hermitian_stack(rng, (2, 3), n, dtype)
    diagonal = np.diag(rng.standard_normal(n)).astype(dtype)
    for h in (*stack.reshape(-1, n, n), diagonal):
        vals, vecs = _eigh_loop(h)
        spec = eigh(h)
        assert spec.eigenvalues.tobytes() == vals.tobytes()
        assert spec.vectors.tobytes() == vecs.tobytes()
        assert isinstance(spec.residual, float)
    spec = eigh(stack)
    assert spec.eigenvalues.shape == (2, 3, n)
    assert spec.vectors.shape == (2, 3, n, n)
    assert spec.residual.shape == (2, 3) and spec.n == n
    for idx in np.ndindex(2, 3):
        one = eigh(stack[idx])
        assert spec.eigenvalues[idx].tobytes() == one.eigenvalues.tobytes()
        assert spec.vectors[idx].tobytes() == one.vectors.tobytes()
        assert spec.operator_2_norm()[idx] == one.operator_2_norm()


def test_eigh_refuses_one_bad_matrix_of_a_stack(monkeypatch):
    rng = np.random.default_rng(3)
    stack = _hermitian_stack(rng, (4,), 5, complex)
    real = np.linalg.eigh

    def corrupted(a):
        vals, vecs = real(a)
        if vals.ndim == 2:
            vals = vals.copy()
            vals[2, 0] += 1e-6
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    with pytest.raises(np.linalg.LinAlgError, match=r"matrix \(2,\)"):
        eigh(stack)
    for h in stack:
        eigh(h)


def test_window_spread_rows_and_floats():
    rng = np.random.default_rng(5)
    vals = np.sort(rng.standard_normal((7, 6)), axis=-1)
    for k, offset in ((1, 0), (2, 0), (3, 2), (6, 0)):
        mean, dev, std = window_spread(vals, k, offset)
        dist = window_distance(vals, k, offset)
        assert mean.shape == std.shape == dist.shape == (7,)
        assert dev.shape == (7, k)
        for i, row in enumerate(vals):
            m1, d1, s1 = window_spread(row, k, offset)
            assert type(m1) is float and type(s1) is float
            assert type(window_distance(row, k, offset)) is float
            assert (m1, s1) == (mean[i], std[i])
            assert d1.tobytes() == dev[i].tobytes()
            assert window_distance(row, k, offset) == dist[i]
    with pytest.raises(ValueError):
        window_spread(vals, 3, 4)


def _spec_of(vals):
    return eigh(np.diag(np.array(vals, dtype=float)).astype(complex))


def test_classify_groups():
    assert classify_stratum(_spec_of([0, 0, 1, 2])).parts == (2, 1, 1)
    assert classify_stratum(_spec_of([0, 0, 1, 1])).parts == (2, 2)
    assert classify_stratum(_spec_of([0, 0.5, 1, 2])).parts == (1, 1, 1, 1)


def test_classify_chained_grouping():
    # a~b and b~c group all three even though a-c exceeds the tolerance
    spec = _spec_of([0.0, 5e-9, 1e-8, 1.0])
    assert classify_stratum(spec, rel_tol=1e-8).parts == (3, 1)


def test_classify_membership_helpers():
    part = classify_stratum(_spec_of([0, 0, 1, 2]))
    assert is_in_sigma_k(part, 2)
    assert not is_in_sigma_k(part, 3)
    assert is_on_boundary(part, 1)
    assert not is_on_boundary(part, 2)
    assert is_on_boundary(classify_stratum(_spec_of([0, 1, 1, 2])), 2)


def test_classify_conjugated():
    rng = np.random.default_rng(2)
    d = np.diag([0.0, 0.0, 1.0, 2.0]).astype(complex)
    for _ in range(10):
        u = random_unitary(4, rng)
        part = classify_stratum(eigh(conjugate(d, u)))
        assert part.parts == (2, 1, 1)


def test_codimension():
    part = classify_stratum(_spec_of([0, 0, 1, 2]))
    assert stratum_codimension(part) == 3
    assert stratum_codimension(classify_stratum(_spec_of([0, 1, 2, 3]))) == 0
    for n, k in [(5, 3), (6, 4)]:
        vals = [0.0] * k + list(range(1, n - k + 1))
        assert stratum_codimension(classify_stratum(_spec_of(vals))) == k * k - 1


def test_codimension_dimension_bookkeeping():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        vals = np.sort(rng.standard_normal(n))
        part = classify_stratum(_spec_of(vals))
        dim = n * n - stratum_codimension(part)
        assert dim + stratum_codimension(part) == n * n


def test_eigenvalue_continuity_weyl_inequality():
    rng = np.random.default_rng(4)
    for _ in range(20):
        h = random_hermitian(6, rng)
        e = random_hermitian(6, rng)
        eps = 10.0 ** rng.uniform(-6, -3)
        e = e * (eps / np.max(np.abs(np.linalg.eigvalsh(e))))
        shift = np.abs(
            np.linalg.eigvalsh(h + e) - np.linalg.eigvalsh(h)
        ).max()
        assert shift <= eps + 1e-10


def test_half_gap():
    assert half_gap(np.diag([0.0, 0.0, 1.0]), 2) == pytest.approx(0.5)
    assert half_gap(np.diag([0.0, 1.0, 2.0]), 1) == pytest.approx(0.5)
    assert half_gap(np.diag([0.0, 1.0, 1.0]), 2) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        half_gap(np.diag([0.0, 1.0]), 2)
