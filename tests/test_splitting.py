"""Splitting functions, order estimation, signed splitting, and the cascade."""

import numpy as np
import pytest

from degengeo.errors import DegenError, InconclusiveFit
from degengeo.hermitian import frobenius_norm, random_hermitian, random_unitary
from degengeo.models import (
    example_pr,
    ising,
    ssh,
    ssh_hopping_disorder,
    transverse_perturbation,
)
from degengeo.splitting import (
    FIVE_METHODS,
    _negative_permutation,
    cascade,
    default_ladder,
    estimate_all_orders,
    estimate_order,
    family,
    linear_family,
    signed_stddev,
    signed_stddev_fit_residual,
    splitting_samples,
)

from test_swtransform import random_base


def sz_block_family(n=3):
    """diag(0, 0, 1, ...) plus t * (sigma_z on the window)."""
    h0 = np.diag([0.0, 0.0] + list(range(1, n - 1))).astype(complex)
    h1 = np.zeros((n, n), dtype=complex)
    h1[0, 0], h1[1, 1] = 1.0, -1.0
    return linear_family(h0, h1, 2)


def polynomial_spectrum_family(n, k, order, rng, conjugate=True):
    """Diagonal polynomial eigenvalue branches of a prescribed splitting
    order, conjugated by a fixed random unitary."""
    coeffs = rng.uniform(0.5, 1.5, size=k) * rng.choice([-1.0, 1.0], size=k)
    while len(set(np.round(coeffs, 6))) < k:
        coeffs = rng.uniform(0.5, 1.5, size=k)
    upper = 1.0 + np.sort(rng.uniform(0.0, 2.0, size=n - k))
    slopes = rng.standard_normal(n - k)
    v = random_unitary(n, rng) if conjugate else np.eye(n, dtype=complex)

    def evaluator(t):
        lam = np.concatenate(
            [coeffs * t ** order, upper + slopes * t]
        )
        return (v * lam) @ v.conj().T

    return family(evaluator, k)


def test_family_rejects_nondegenerate_start():
    with pytest.raises(ValueError, match="degenerate"):
        linear_family(np.diag([0.0, 0.1, 1.0]).astype(complex),
                      np.eye(3, dtype=complex), 2)


def test_samples_linear_family_explicit():
    fam = sz_block_family()
    ts = np.array([0.01, 0.1, 0.25])
    for s in splitting_samples(fam, ts):
        assert s.std_dev == pytest.approx(s.t, rel=1e-12)
        assert s.pairwise[(1, 2)] == pytest.approx(-2.0 * s.t, rel=1e-12)
        assert s.heff_norm == pytest.approx(
            np.sqrt(2) * s.std_dev, rel=1e-9
        )


def test_samples_distance_identity():
    # sqrt(k) * stddev(t) = ||H_eff(t)|| for every sample
    rng = np.random.default_rng(0)
    fam = polynomial_spectrum_family(5, 3, 2, rng)
    for s in splitting_samples(fam, default_ladder(3, 8)[::-1]):
        assert np.sqrt(3) * s.std_dev == pytest.approx(
            s.heff_norm, rel=1e-9, abs=1e-12
        )


def test_degenerate_start_has_zero_splitting():
    fam = sz_block_family()
    vals = np.linalg.eigvalsh(fam(0.0))
    assert vals[1] - vals[0] <= 1e-14


def test_samples_reject_zero_and_unsorted():
    fam = sz_block_family()
    with pytest.raises(ValueError):
        splitting_samples(fam, np.array([0.0, 0.1]))
    with pytest.raises(ValueError):
        splitting_samples(fam, np.array([0.2, 0.1]))


def test_heff_samples_note_decomposition_errors_only():
    # At t = 1 the window touches the third level: a DegenError, reported
    # as the sample's note. A matrix of the wrong size is an evaluator bug
    # and propagates.
    fam = family(lambda t: np.diag([0.0, t, 1.0]).astype(complex), 2)
    near, touching = splitting_samples(fam, [0.25, 1.0], with_heff=True)
    assert near.note is None and near.heff_norm is not None
    assert touching.heff_norm is None
    assert touching.note.startswith("decomposition failed:")

    def wrong_size(t):
        return np.diag([0.0, t, 1.0, 2.0][: 3 if t == 0.0 else 4]).astype(complex)

    with pytest.raises(ValueError, match="dimension mismatch"):
        splitting_samples(family(wrong_size, 2), [0.5], with_heff=True)


@pytest.mark.parametrize("error", [KeyError, TypeError])
def test_estimate_one_sided_evaluator(error):
    # A tabulated family raises KeyError off its ladder, here for t < 0, and
    # the scale falls back to a one-sided difference; other errors propagate.
    h0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    h1 = np.diag([1.0, -1.0, 0.0]).astype(complex)

    def evaluator(t):
        if t < 0.0:
            raise error(t)
        return h0 + t * h1

    fam = family(evaluator, 2)
    if error is KeyError:
        assert estimate_order(fam).r == 1
    else:
        with pytest.raises(error):
            estimate_order(fam)


def test_estimate_linear_not_tangent_is_order_one():
    rng = np.random.default_rng(1)
    h0 = random_base(4, 2, rng)
    h1 = random_hermitian(4, rng)  # generic: not tangent
    fam = linear_family(h0, h1, 2)
    assert estimate_order(fam).r == 1


def test_estimate_constant_family_is_infinite():
    h0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    fam = family(lambda t: h0, 2)
    assert estimate_order(fam).r == np.inf


def test_estimate_inconclusive_on_fractional_order():
    h0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    h1 = np.zeros((3, 3), dtype=complex)
    h1[0, 0], h1[1, 1] = 1.0, -1.0

    def evaluator(t):
        return h0 + abs(t) ** 2.5 * h1

    fam = family(evaluator, 2)
    with pytest.raises(InconclusiveFit):
        estimate_order(fam)


def test_five_methods_agree_on_constructed_orders():
    rng = np.random.default_rng(2)
    for order in (1, 2, 3):
        fam = polynomial_spectrum_family(6, 3, order, rng)
        estimates, agree = estimate_all_orders(fam)
        assert agree
        assert {e.r for e in estimates.values()} == {order}


def test_heff_and_distance_match_stddev_order():
    rng = np.random.default_rng(3)
    fam = polynomial_spectrum_family(5, 2, 2, rng)
    assert estimate_order(fam, "heff").r == 2
    assert estimate_order(fam, "distance").r == 2


def test_single_component_methods():
    rng = np.random.default_rng(4)
    fam = polynomial_spectrum_family(5, 3, 2, rng)
    assert estimate_order(fam, "pairwise", pair=(1, 3)).r == 2
    assert estimate_order(fam, "mean", index=1).r == 2


def test_order_via_heff_independent_of_base_point():
    # The heff route must return the same order against a different valid
    # diagonal base point.
    from degengeo.swtransform import sw_decompose
    from degengeo.splitting import _fit_order, ZERO_FLOOR_RTOL

    rng = np.random.default_rng(5)
    fam = polynomial_spectrum_family(5, 2, 2, rng, conjugate=False)
    ladder = np.sort(default_ladder(3, 10))
    bases = [
        np.diag([0.0, 0.0, 1.0, 2.0, 3.0]).astype(complex),
        np.diag([-0.5, -0.5, 0.8, 1.7, 2.9]).astype(complex),
    ]
    orders = []
    for base in bases:
        vals = [
            frobenius_norm(sw_decompose(fam(t), base, 2).h_eff)
            for t in ladder
        ]
        est = _fit_order(ladder, vals, ZERO_FLOOR_RTOL, "heff")
        orders.append(est.r)
    assert orders[0] == orders[1] == 2


def test_tangency_dichotomy():
    rng = np.random.default_rng(6)
    h0 = random_base(5, 2, rng)
    for _ in range(10):
        h1 = random_hermitian(5, rng)
        block = h1[:2, :2]
        traceless = block - (np.trace(block).real / 2) * np.eye(2)
        # tangent direction: remove the transverse (traceless window) part
        h1_tan = h1.copy()
        h1_tan[:2, :2] = block - traceless
        r_tan = estimate_order(linear_family(h0, h1_tan, 2)).r
        r_gen = estimate_order(linear_family(h0, h1, 2)).r
        assert r_gen == 1
        assert r_tan >= 2


def test_signed_stddev_explicit():
    fam = sz_block_family()
    ts = np.array([-0.2, -0.1, 0.05, 0.15])
    np.testing.assert_allclose(signed_stddev(fam, 1, ts), ts, atol=1e-12)


def test_signed_stddev_even_order_is_plain():
    def evaluator(t):
        return example_pr(t, 0.0)

    fam = family(evaluator, 2)
    ts = np.array([-0.1, 0.1])
    vals = signed_stddev(fam, 2, ts)
    assert vals[0] == pytest.approx(vals[1], rel=1e-12)
    assert vals[0] > 0


def test_signed_stddev_smoothness():
    rng = np.random.default_rng(7)
    h0 = ssh(3, 0.0, 1.0)
    amps = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    h1 = ssh_hopping_disorder(3, amps)
    fam = family(lambda t: h0 + t * h1, 2, offset=2)
    r = estimate_order(fam).r
    assert r == 3
    ts = np.linspace(-0.15, 0.15, 31)
    ts = ts[ts != 0.0]
    scale = max(1.0, frobenius_norm(h0))
    residual = signed_stddev_fit_residual(fam, r, ts)
    assert residual <= 1e-6 * scale
    # the wrong parity leaves a kink at 0 that the fit cannot absorb
    kinked = signed_stddev_fit_residual(fam, r - 1, ts, degree=r + 3)
    assert kinked > 1e-6 * scale


def test_cascade_single_crossing():
    h0 = np.diag([0.0, 0.0, 2.0, 3.0]).astype(complex)
    h1 = np.zeros((4, 4), dtype=complex)
    h1[0, 0], h1[1, 1] = 1.0, -1.0
    fam = linear_family(h0, h1, 2)
    res = cascade(fam)
    assert res.pair_levels == {(1, 2): 1}
    assert res.negative_permutation == (2, 1)
    assert res.capped == ()


def test_cascade_second_order_counterexample():
    fam = family(lambda t: example_pr(t, 0.0), 2)
    res = cascade(fam, t_probe=2.0 ** -5)
    assert res.pair_levels == {(1, 2): 2}
    # even branches: no swap across zero
    assert res.negative_permutation == (1, 2)


def test_cascade_ising_ground_pair():
    rng = np.random.default_rng(8)
    h0 = ising(3)
    h1 = transverse_perturbation(3, rng.standard_normal(3),
                                 rng.standard_normal(3))
    fam = family(lambda t: h0 + t * h1, 2)
    res = cascade(fam, t_probe=2.0 ** -5)
    assert res.pair_levels == {(1, 2): 3}
    assert res.negative_permutation == (2, 1)


@pytest.mark.parametrize("model, size", [("ising", 3), ("ising", 5),
                                         ("ssh", 5)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cascade_permutation_parity(model, size, seed):
    """The degenerate pair of ising(q) and ssh(N) splits at order q (N);
    the branches cross at t = 0 exactly when that order is odd."""
    rng = np.random.default_rng(seed)
    if model == "ising":
        h0 = ising(size)
        h1 = transverse_perturbation(size, rng.standard_normal(size),
                                     rng.standard_normal(size))
        offset = 0
    else:
        h0 = ssh(size, 0.0, 1.0)
        amps = (rng.standard_normal(2 * size - 1)
                + 1j * rng.standard_normal(2 * size - 1))
        h1 = ssh_hopping_disorder(size, amps)
        offset = size - 1
    res = cascade(family(lambda t: h0 + t * h1, 2, offset=offset))
    assert res.pair_levels == {(1, 2): size}
    assert res.negative_permutation == ((2, 1) if size % 2 else (1, 2))


def test_cascade_mixed_orders():
    rng = np.random.default_rng(9)
    v = random_unitary(5, rng)

    def evaluator(t):
        lam = np.array([t, -t, 2.0 * t ** 2, 2.0, 3.0 + t])
        return (v * lam) @ v.conj().T

    fam = family(evaluator, 3)
    res = cascade(fam, t_probe=2.0 ** -6)
    # branches t, -t, 2t^2: pairs (t,-t) split at level 1; both split from
    # 2t^2 at level 1 as well; ordering of branches at positive t is
    # (-t, 2t^2, t) -> window indices 1, 2, 3.
    assert res.pair_levels[(1, 3)] == 1
    assert res.pair_levels[(1, 2)] == 1
    assert res.pair_levels[(2, 3)] == 1
    # -t and t swap across zero, the quadratic branch stays in the middle
    assert res.negative_permutation == (3, 2, 1)


def test_cascade_permutation_rejects_inconsistent_levels():
    # (1, 2) and (2, 3) cross while (1, 3) does not: no ordering does that
    with pytest.raises(DegenError, match="pair levels"):
        _negative_permutation(3, {(1, 2): 1, (2, 3): 1, (1, 3): 2})


def test_cascade_depth_cap():
    h0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    fam = family(lambda t: h0, 2)
    res = cascade(fam, depth_cap=3)
    assert res.pair_levels == {}
    assert res.capped == ((1, 2),)
    # capped pairs count as not crossing
    assert res.negative_permutation == (1, 2)
