"""Closest-point projection, distance formula, alternate projections, and
orthogonality."""

import numpy as np
import pytest

from degengeo.errors import DegenerateBoundary, NotInSigmaK
from degengeo.hermitian import (
    conjugate,
    frobenius_norm,
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


def test_index_set_matches_collapse():
    rng = np.random.default_rng(5)
    h = random_hermitian(5, rng)
    spec = eigh(h)
    g = project_with_index_set(h, {1, 2}, gauge=spec)
    pr = collapse_projection(h, 2)
    assert frobenius_norm(g - pr.h_sigma) <= 1e-12


def test_index_set_precondition():
    h = np.diag([0.0, 1.0, 10.0]).astype(complex)
    with pytest.raises(NotInSigmaK):
        project_with_index_set(h, {1, 3})


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
