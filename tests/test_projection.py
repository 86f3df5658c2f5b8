"""Closest-point projection, distance formula, alternate projections, and
orthogonality."""

import numpy as np
import pytest

from degengeo.errors import DegenerateBoundary, NotInSigmaK
from degengeo.hermitian import (
    conjugate,
    frobenius_norm,
    hermitian,
    operator_2_norm,
    random_hermitian,
    random_unitary,
)
from degengeo.projection import (
    collapse_projection,
    distance_to_sigma,
    orthogonality_check,
    project_with_index_set,
    sample_sigma_k,
)
from degengeo.spectra import eigh
from degengeo.swtransform import sw_decompose

from test_swtransform import perturbed, random_base


def test_collapse_explicit():
    pr = collapse_projection(np.diag([0.0, 1.0, 2.0]).astype(complex), 2)
    np.testing.assert_allclose(pr.h_sigma, np.diag([0.5, 0.5, 2.0]), atol=1e-14)
    assert pr.distance == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-12)
    assert pr.std_dev == pytest.approx(0.5)
    assert pr.mean_lambda == pytest.approx(0.5)
    assert pr.unique


def test_collapse_fixed_point_on_manifold():
    rng = np.random.default_rng(0)
    g = sample_sigma_k(5, 2, rng)
    pr = collapse_projection(g, 2)
    assert frobenius_norm(pr.h_sigma - g) <= 1e-10
    assert pr.distance <= 1e-10


def test_collapse_distance_equals_sqrtk_stddev():
    rng = np.random.default_rng(1)
    for _ in range(20):
        h = random_hermitian(6, rng)
        pr = collapse_projection(h, 3)
        assert pr.distance == pytest.approx(
            np.sqrt(3) * pr.std_dev, rel=1e-12
        )


def test_collapse_boundary_not_unique():
    h = np.diag([0.0, 0.5, 0.5]).astype(complex)
    pr = collapse_projection(h, 2)
    assert not pr.unique
    # distance is still the distance to the manifold
    assert pr.distance == pytest.approx(
        distance_to_sigma(h, 2), abs=1e-12
    )


def test_collapse_minimality_sampled():
    rng = np.random.default_rng(2)
    h = random_hermitian(5, rng)
    pr = collapse_projection(h, 2)
    for _ in range(2000):
        g = sample_sigma_k(5, 2, rng)
        assert frobenius_norm(h - g) >= pr.distance - 1e-12


def test_distance_scaling_and_explicit():
    rng = np.random.default_rng(3)
    h = random_hermitian(6, rng)
    # positive scaling preserves the window; both sides are homogeneous
    for c in (0.5, 2.0, 3.7):
        assert distance_to_sigma(c * h, 2) == pytest.approx(
            c * distance_to_sigma(h, 2), rel=1e-12
        )
    h = np.diag([0.0, 0.0, 3.0, 10.0, 11.0]).astype(complex)
    assert distance_to_sigma(h, 3) == pytest.approx(np.sqrt(6.0), rel=1e-12)


def test_distance_equals_heff_norm():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(3, 8))
        k = int(rng.integers(2, min(n, 4)))
        h0 = random_base(n, k, rng)
        h = perturbed(h0, k, rng)
        dec = sw_decompose(h, h0, k)
        assert distance_to_sigma(h, k) == pytest.approx(
            frobenius_norm(dec.h_eff), rel=1e-9
        )


def test_offset_window_projection():
    h = np.diag([-3.0, 0.0, 1.0, 5.0]).astype(complex)
    pr = collapse_projection(h, 2, offset=1)
    np.testing.assert_allclose(
        pr.h_sigma, np.diag([-3.0, 0.5, 0.5, 5.0]), atol=1e-14
    )
    assert pr.distance == pytest.approx(distance_to_sigma(h, 2, offset=1))
    for offset in (-1, 3):
        with pytest.raises(ValueError, match="invalid window"):
            distance_to_sigma(h, 2, offset=offset)
        with pytest.raises(ValueError, match="invalid window"):
            collapse_projection(h, 2, offset=offset)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_distance_refuses_non_finite_entries(bad):
    # eigvalsh returns [0, 0, -0] for diag(0, 1, nan) without an error, and
    # NaNs for diag(0, 1, inf): the distance would read 0.0 (on Sigma_2) or
    # nan. One bad matrix in a stack refuses the stack.
    h = np.diag([0.0, 1.0, bad])
    with pytest.raises(np.linalg.LinAlgError, match="non-finite entry"):
        distance_to_sigma(h, 2)
    stack = np.stack([np.diag([0.0, 1.0, 2.0]), h])
    with pytest.raises(np.linalg.LinAlgError, match="non-finite entry"):
        distance_to_sigma(stack, 2)
    assert distance_to_sigma(stack[:1], 2).tolist() == [np.sqrt(0.5)]


def test_distance_refuses_a_matrix_that_is_not_hermitian():
    # eigvalsh reads one triangle: a Jordan block has the eigenvalues
    # (0, 0, 3) there, and the distance would read 0.0. It is refused as
    # `hermitian` and `collapse_projection` refuse it, in a stack too; the
    # norm of the whole stack is refused with it.
    jordan = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 3]], dtype=float)
    with pytest.raises(ValueError) as want:
        hermitian(jordan)
    stack = np.stack([np.diag([0.0, 1.0, 2.0]), jordan, jordan.T])
    for h in (jordan, stack):
        with pytest.raises(ValueError, match="not Hermitian") as got:
            distance_to_sigma(h, 2)
        assert str(got.value) == str(want.value)
        with pytest.raises(ValueError, match="not Hermitian"):
            operator_2_norm(h)
    with pytest.raises(np.linalg.LinAlgError, match="residual"):
        collapse_projection(jordan, 2)
    assert distance_to_sigma(stack[:1], 2).tolist() == [np.sqrt(0.5)]


def test_index_set_matches_collapse():
    rng = np.random.default_rng(5)
    h = random_hermitian(5, rng)
    g = project_with_index_set(h, {1, 2})
    pr = collapse_projection(h, 2)
    assert frobenius_norm(g - pr.h_sigma) <= 1e-12


def test_index_set_precondition():
    h = np.diag([0.0, 1.0, 10.0]).astype(complex)
    with pytest.raises(NotInSigmaK):
        project_with_index_set(h, {1, 3})


def test_index_set_refuses_non_integer_indices():
    # 1.5 is no eigenvalue index; it is not rounded onto 1.
    h = np.diag([0.0, 1.0, 10.0]).astype(complex)
    for indices in ([1.5, 2], [np.float64(1.0), 2], ["1", 2]):
        with pytest.raises(ValueError, match="indices must be integers"):
            project_with_index_set(h, indices)
    assert (project_with_index_set(h, [np.int64(1), 2]).tobytes()
            == project_with_index_set(h, [1, 2]).tobytes())


def test_index_set_mean_does_not_overflow():
    # The selected eigenvalues sum past the largest double. Their mean,
    # 8.37e307, is the window mean `collapse_projection` takes, below the
    # omitted 8.9e307, so both give the same matrix.
    h = hermitian(np.diag([8.0e307, 8.5e307, 8.6e307, 8.9e307]))
    pr = collapse_projection(h, 3)
    assert pr.mean_lambda == pytest.approx(8.3666666666666667e307)
    g = project_with_index_set(h, [1, 2, 3])
    assert g.tobytes() == pr.h_sigma.tobytes()


def test_index_set_is_farther():
    h = np.diag([0.0, 4.0, 5.0]).astype(complex)
    g = project_with_index_set(h, {1, 3})
    vals = np.linalg.eigvalsh(g)
    np.testing.assert_allclose(vals, [2.5, 2.5, 4.0], atol=1e-12)
    pr = collapse_projection(h, 2)
    assert frobenius_norm(h - g) > pr.distance


def test_index_set_strictly_farther_randomized():
    rng = np.random.default_rng(6)
    count = 0
    while count < 25:
        h = random_hermitian(5, rng)
        vals = np.linalg.eigvalsh(h)
        # admissible alternate set {1, 3}: mean below lowest omitted
        if (vals[0] + vals[2]) / 2 >= vals[1]:
            continue
        count += 1
        g = project_with_index_set(h, {1, 3})
        pr = collapse_projection(h, 2)
        assert frobenius_norm(h - g) > pr.distance


def test_orthogonality_random():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        k = int(rng.integers(2, min(n, 5)))
        h = random_hermitian(n, rng)
        if not collapse_projection(h, k).unique:
            continue
        assert orthogonality_check(h, k) <= 1e-9


def test_orthogonality_one_eigendecomposition(linalg_calls):
    # The eigenframe comes from the spectrum that collapse_projection took.
    h = random_hermitian(6, np.random.default_rng(9))
    assert collapse_projection(h, 2).spectrum.vectors.tobytes() == (
        eigh(h).vectors.tobytes())
    linalg_calls.clear()
    assert orthogonality_check(h, 2) <= 1e-9
    assert [shape for name, shape in linalg_calls if name == "eigh"] == [
        (6, 6)]


def test_orthogonality_on_manifold_is_zero():
    rng = np.random.default_rng(8)
    g = sample_sigma_k(5, 2, rng)
    assert orthogonality_check(g, 2) == 0.0


def test_orthogonality_boundary_error():
    h = np.diag([0.0, 0.5, 0.5]).astype(complex)
    with pytest.raises(DegenerateBoundary):
        orthogonality_check(h, 2)


def test_orthogonal_line_projects_back():
    # Spreading the window eigenvalues linearly moves along the line that
    # projects back to the same manifold point.
    rng = np.random.default_rng(9)
    h = random_hermitian(5, rng)
    pr = collapse_projection(h, 3)
    spec = eigh(pr.h_sigma)
    u = spec.vectors
    d = np.array([-1.0, 0.3, 0.7])  # traceless spread on the window
    for t in (0.02, -0.05, 0.1):
        vals = spec.eigenvalues.copy()
        vals[:3] = vals[:3] + t * d
        g = conjugate(np.diag(vals).astype(complex), u)
        back = collapse_projection(g, 3)
        assert frobenius_norm(back.h_sigma - pr.h_sigma) <= 1e-9


def test_deeper_collapse_is_farther():
    rng = np.random.default_rng(10)
    for _ in range(10):
        h = random_hermitian(6, rng)
        d2 = collapse_projection(h, 2).distance
        d3 = collapse_projection(h, 3).distance
        d4 = collapse_projection(h, 4).distance
        assert d2 < d3 < d4


def test_sampler_members_are_on_manifold():
    rng = np.random.default_rng(11)
    for _ in range(10):
        g = sample_sigma_k(6, 3, rng)
        vals = np.linalg.eigvalsh(g)
        assert vals[2] - vals[0] <= 1e-10
        assert vals[3] - vals[2] >= 1e-3 - 1e-12


def _rebuilt_inline(u, vals):
    # The spectral rebuild as each constructor wrote it out before sharing
    # one helper.
    g = (u * vals) @ u.conj().T
    return (g + g.conj().T) / 2.0


def test_constructors_rebuild_bit_for_bit_and_read_only():
    rng = np.random.default_rng(12)
    h = random_hermitian(6, rng)
    pr = collapse_projection(h, 3, offset=1)
    vals = pr.spectrum.eigenvalues.copy()
    vals[1:4] = pr.mean_lambda
    assert pr.h_sigma.tobytes() == _rebuilt_inline(pr.spectrum.vectors,
                                                   vals).tobytes()
    g = project_with_index_set(h, [1, 2])
    vals = pr.spectrum.eigenvalues.copy()
    vals[:2] = np.mean(vals[:2])
    assert g.tobytes() == _rebuilt_inline(pr.spectrum.vectors,
                                          vals).tobytes()
    sampled = sample_sigma_k(5, 2, np.random.default_rng(13))
    copy_rng = np.random.default_rng(13)
    deg = float(copy_rng.standard_normal())
    rest = deg + 1e-3 + np.sort(copy_rng.uniform(0.0, 2.0, size=3))
    u = random_unitary(5, copy_rng)
    assert sampled.tobytes() == _rebuilt_inline(
        u, np.concatenate([np.full(2, deg), rest])).tobytes()
    for m in (pr.h_sigma, g, sampled):
        assert not m.flags.writeable


@pytest.mark.parametrize("indices, match", [
    ([0, 1], r"within 1\.\.3"),
    ([1, 4], r"within 1\.\.3"),
    ([1, 2, 3], "omit at least one eigenvalue"),
])
def test_index_set_refusals(indices, match):
    h = np.diag([0.0, 1.0, 2.0]).astype(complex)
    with pytest.raises(ValueError, match=match):
        project_with_index_set(h, indices)
