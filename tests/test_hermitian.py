"""Inner products, norms, bases, and construction invariants."""

import importlib
import itertools
import re
import warnings

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
from degengeo.matrixio import read_matrix, write_matrix

# The package exports the function `hermitian`, which shadows the module.
hermitian_module = importlib.import_module("degengeo.hermitian")

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_construction_symmetrizes_and_freezes():
    h = hermitian([[1.0, 2.0 + 1e-14j], [2.0, 3.0]])
    assert np.array_equal(h, h.conj().T)
    with pytest.raises(ValueError):
        h[0, 0] = 5.0


def test_construction_keeps_the_signs_of_zero_parts(tmp_path):
    # Over the 2 x 2 Hermitian inputs whose parts range over {0.0, -0.0,
    # 1.0} (diagonal imaginary parts over {0.0, -0.0}), `hermitian` returns
    # its own output to the bit, and so does a write and a read of it: the
    # halving of (A + A^dagger) keeps the sign of every zero part.
    parts, zeros = (0.0, -0.0, 1.0), (0.0, -0.0)
    path = tmp_path / "h.json"
    for a, b, re_, im, za, zb in itertools.product(parts, parts, parts, parts,
                                                   zeros, zeros):
        z = complex(re_, im)
        h = hermitian([[complex(a, za), z], [z.conjugate(), complex(b, zb)]])
        assert hermitian(h).tobytes() == h.tobytes()
        write_matrix(path, h)
        assert read_matrix(path).tobytes() == h.tobytes()


def test_construction_rejects_asymmetry():
    with pytest.raises(ValueError, match="not Hermitian"):
        hermitian([[1.0, 2.0], [2.1, 3.0]])
    # A - A^dagger overflows: an asymmetry of inf, with no RuntimeWarning.
    with pytest.raises(ValueError, match="not Hermitian: asymmetry inf"):
        hermitian([[1.6e308j]])


def test_construction_rejects_nonfinite_and_nonsquare():
    with pytest.raises(ValueError, match="finite"):
        hermitian([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError, match="square"):
        hermitian(np.zeros((2, 3)))


def test_construction_refuses_parts_above_half_the_largest_double():
    # (A + A^dagger)/2 of a diagonal entry above max/2 overflows to
    # inf + nan j: such entries are refused, naming the bound, with no
    # warning; entries at the bound are kept bit for bit.
    top = np.finfo(float).max / 2
    message = re.escape(f"parts of at most {top} (half the largest double)")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a in (np.diag([0.0, 1.6e308, 1.7e308]),
                  np.diag([0.0, -1.7e308, 1.0]),
                  [[0.0, 1e308j], [-1e308j, 0.0]]):
            with pytest.raises(ValueError, match=message):
                hermitian(a)
        a = np.diag([0.0, top, -top]) + 1j * np.triu(np.full((3, 3), top), 1)
        a += np.triu(a, 1).conj().T
        assert np.array_equal(hermitian(a), a)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_operator_norm_refuses_non_finite_matrices(bad):
    # eigvalsh returns [0, 0, -0] for diag(0, 1, nan) without an error, and
    # NaNs for diag(0, 1, inf): the norm would read 0.0 or nan.
    h = np.diag([0.0, 1.0, bad])
    with pytest.raises(np.linalg.LinAlgError, match="non-finite entry"):
        operator_2_norm(h)
    with pytest.raises(np.linalg.LinAlgError, match="non-finite entry"):
        operator_2_norm(np.stack([np.eye(3), h.astype(complex)]))


def test_ball_rule_is_the_operator_norm_test(linalg_calls):
    # ||X||_2 < r0 from ||X||_F / sqrt(n) <= ||X||_2 <= ||X||_F where a
    # bound decides, and from one eigvalsh of a matrix left open, as a bool.
    within_ball = hermitian_module._within_ball
    rng = np.random.default_rng(8)
    x = random_hermitian(8, rng)
    two, fro = operator_2_norm(x), frobenius_norm(x)
    assert fro / np.sqrt(8) < 0.99 * two and two < 0.99 * fro
    for r0, decided in [(1.01 * fro, True), (0.99 * fro / np.sqrt(8), True),
                        (1.001 * two, False), (0.999 * two, False)]:
        linalg_calls.clear()
        inside = within_ball(x, r0)
        assert type(inside) is bool and inside == (two < r0)
        assert linalg_calls == ([] if decided else [("eigvalsh", (8, 8))])
    scales = np.array([0.1, 0.95, 1.05, 10.0]) / two
    linalg_calls.clear()
    inside = [within_ball(x * scale, 1.0) for scale in scales]
    assert linalg_calls == [("eigvalsh", (8, 8))] * 2
    assert inside == [operator_2_norm(x * scale) < 1.0 for scale in scales]
    assert inside == [True, True, False, False]


def test_square_bound_decides_inside_the_frobenius_band(linalg_calls):
    # For r0 between ||X||_F / sqrt(n) and ||X||_F the decision is still
    # operator_2_norm(x) < r0. An eigvalsh runs only where r0 also lies
    # between n^(-1/4) ||X^2||_F^(1/2) and ||X^2||_F^(1/2), the bounds of
    # ||X||_2 from the square of a Hermitian X.
    within_ball = hermitian_module._within_ball
    rng = np.random.default_rng(21)
    for n in (2, 3, 8, 64):
        for _ in range(3):
            x = random_hermitian(n, rng)
            two, fro = operator_2_norm(x), frobenius_norm(x)
            root = np.sqrt(frobenius_norm(x @ x))
            assert two <= root * (1 + 1e-12)
            assert root <= n ** 0.25 * two * (1 + 1e-12)
            for r0 in np.geomspace(fro / np.sqrt(n), fro, 33)[1:-1]:
                linalg_calls.clear()
                assert within_ball(x, r0) == (two < r0)
                band = root / n ** 0.25 < r0 < root
                assert linalg_calls == ([("eigvalsh", (n, n))] if band
                                        else [])


@pytest.mark.parametrize("n", [64, 256])
def test_square_bound_decides_the_dense_perturbations(linalg_calls, n):
    # A GUE-like X with ||X||_2 = r0 / 4, like the perturbations of the
    # dense decompositions: ||X||_F is about sqrt(n) r0 / 8, at or above
    # r0, but ||X^2||_F^(1/2) is about (n / 8)^(1/4) r0 / 4 < r0, so no
    # eigvalsh runs, for X or -X.
    rng = np.random.default_rng(n)
    x = random_hermitian(n, rng)
    r0 = 4.0 * operator_2_norm(x)
    assert frobenius_norm(x) >= r0
    assert np.sqrt(frobenius_norm(x @ x)) < 0.65 * r0
    linalg_calls.clear()
    assert hermitian_module._within_ball(x, r0) is True
    assert hermitian_module._within_ball(-x, r0) is True
    assert linalg_calls == []


@pytest.mark.parametrize("share", [0.999, 0.9999999, 1.0000001, 1.001])
def test_ball_radius_straddling_the_norm_takes_eigvalsh(linalg_calls,
                                                        share):
    # r0 a hair above or below ||X||_2, for an X none of the bounds
    # decides there: one eigvalsh decides, for X alone and again beside
    # 0.1 X and 10 X, which the bounds decide.
    within_ball = hermitian_module._within_ball
    x = random_hermitian(8, np.random.default_rng(22))
    two = operator_2_norm(x)
    root = np.sqrt(frobenius_norm(x @ x))
    assert root > 1.01 * two and root / 8 ** 0.25 < 0.99 * two
    r0 = share * two
    linalg_calls.clear()
    assert within_ball(x, r0) == (share > 1.0)
    assert [within_ball(scale * x, r0) for scale in (1.0, 0.1, 10.0)] == [
        share > 1.0, True, False]
    assert linalg_calls == [("eigvalsh", (8, 8))] * 2


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


def test_traceless_basis_built_once_per_k():
    # The cached basis gives the coordinates of the uncached build to the
    # last bit; callers get a fresh list of read-only matrices.
    rng = np.random.default_rng(6)
    for k in range(1, 7):
        block = random_hermitian(k, rng)
        block = block - (np.trace(block).real / k) * np.eye(k)
        uncached = hermitian_module._traceless_basis.__wrapped__(k)
        want = np.array([frobenius_inner(block, c) for c in uncached])
        assert traceless_coordinates(block).tobytes() == want.tobytes()
        first, second = traceless_basis(k), traceless_basis(k)
        assert first is not second and len(first) == k * k - 1
        first.clear()
        assert len(traceless_basis(k)) == k * k - 1
        for mat, ref in zip(second, uncached):
            assert not mat.flags.writeable
            assert mat.tobytes() == ref.tobytes()
    with pytest.raises(ValueError, match="k >= 1"):
        traceless_basis(0)


def test_conjugate_stack_matches_each_matrix():
    rng = np.random.default_rng(7)
    u = random_unitary(4, rng)
    hs = np.stack([random_hermitian(4, rng) for _ in range(3)])
    stacked = conjugate(hs, u)
    assert stacked.shape == (3, 4, 4) and not stacked.flags.writeable
    for g, h in zip(stacked, hs):
        assert g.tobytes() == conjugate(h, u).tobytes()
    with pytest.raises(ValueError, match="dimension mismatch"):
        conjugate(hs, random_unitary(3, rng))


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


@pytest.mark.parametrize("call, match", [
    (lambda: canonical_basis(0), "n must be >= 1"),
    (lambda: from_coordinates(np.zeros(8), 3), "expected 9 coordinates"),
    (lambda: from_coordinates(np.zeros((3, 3)), 3), "expected 9 coordinates"),
    (lambda: traceless_from_coordinates(np.zeros(4), 2),
     "expected 3 coordinates"),
])
def test_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()
