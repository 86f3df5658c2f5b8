"""Splitting functions, order estimation, signed splitting, and the cascade."""

from dataclasses import replace
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degengeo import swtransform
from degengeo.errors import DegenError, InconclusiveFit
from degengeo.hermitian import (
    frobenius_norm,
    random_hermitian,
    random_unitary,
)
from degengeo.models import (
    example_pr,
    five_qubit_code,
    ising,
    one_local,
    ssh,
    ssh_hopping_disorder,
    transverse_perturbation,
)
from degengeo.spectra import (
    classify_stratum,
    eigh,
    window_distance,
    window_spread,
)
from degengeo.splitting import (
    CLUSTER_RTOL,
    FIVE_METHODS,
    CascadeResult,
    _components,
    _fit_order,
    _heff_norms,
    _negative_permutation,
    _window_ladder,
    _zero_floor,
    cascade,
    default_ladder,
    estimate_all_orders,
    estimate_order,
    family,
    linear_family,
    signed_stddev,
)
from degengeo.swtransform import Anchor
from degengeo.weyl import ParamFamily

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


def heff_norms(fam, ts):
    """||H_eff(t)||_F at the ts in ascending order, None where the
    decomposition fails: the norms `estimate_order(fam, "heff", ts)` fits."""
    ts = np.sort(np.asarray(ts, dtype=float))
    return _heff_norms(fam.start_anchor(), fam.stack(ts[:, None]))


def ladder_series(fam, ts, method):
    """The sorted ladder as floats and the component series {label: values}
    of `method` on it, as estimate_order reads them."""
    ts, win = _window_ladder(fam, ts)
    return ts, _components(win, method)


def test_family_rejects_nondegenerate_start():
    with pytest.raises(ValueError, match="degenerate"):
        linear_family(np.diag([0.0, 0.1, 1.0]).astype(complex),
                      np.eye(3, dtype=complex), 2)


def test_family_rejects_a_single_level_window():
    # One level cannot split: every pairwise measure would be empty.
    h0 = np.diag([0.0, 0.5, 1.0]).astype(complex)
    with pytest.raises(ValueError, match="k >= 2 levels"):
        linear_family(h0, np.eye(3, dtype=complex), 1)


@pytest.mark.parametrize("which", ["H0", "H1"])
def test_linear_family_refuses_a_matrix_that_is_not_hermitian(which):
    # eigvalsh reads the lower triangle only: with V[0, 5] += 0.7 the orders
    # would be fitted to a matrix that heff and cascade refuse.
    rng = np.random.default_rng(0)
    h0 = np.array(ising(3))
    v = np.array(transverse_perturbation(3, rng.standard_normal(3),
                                         rng.standard_normal(3)))
    bad = h0 if which == "H0" else v
    bad[0, 5] += 0.7
    with pytest.raises(ValueError,
                       match=f"^{which}: input is not Hermitian: asymmetry"):
        linear_family(h0, v, 2)


@pytest.mark.parametrize("method, ladder, error, match", [
    ("bogus", None, ValueError, "unknown method 'bogus'"),
    ("stddev", [], InconclusiveFit, "^stddev: no usable samples$"),
    # Past t = 1 the window vectors of H(t) are e1 and e3, orthogonal to
    # the anchor's e2: every decomposition of the ladder fails.
    ("heff", [2.0, 3.0, 4.0, 5.0], InconclusiveFit,
     "^heff: no usable samples$"),
])
def test_estimate_refusals(method, ladder, error, match):
    fam = family(lambda t: np.diag([0.0, t, 1.0]).astype(complex), 2)
    with pytest.raises(error, match=match):
        estimate_order(fam, method, ladder)


def test_samples_linear_family_explicit():
    fam = sz_block_family()
    ts, stds = ladder_series(fam, [0.01, 0.1, 0.25], "stddev")
    diffs = ladder_series(fam, ts, "pairwise")[1]["pairwise(1, 2)"]
    for t, std, diff, norm in zip(ts, stds["stddev"], diffs,
                                  heff_norms(fam, ts), strict=True):
        assert std == pytest.approx(t, rel=1e-12)
        assert diff == pytest.approx(-2.0 * t, rel=1e-12)
        assert norm == pytest.approx(np.sqrt(2) * std, rel=1e-9)


def test_samples_distance_identity():
    # sqrt(k) * stddev(t) = ||H_eff(t)|| for every sample
    rng = np.random.default_rng(0)
    fam = polynomial_spectrum_family(5, 3, 2, rng)
    ts = default_ladder(3, 8)[::-1]
    stds = ladder_series(fam, ts, "stddev")[1]["stddev"]
    for std, norm in zip(stds, heff_norms(fam, ts), strict=True):
        assert np.sqrt(3) * std == pytest.approx(
            norm, rel=1e-9, abs=1e-12
        )


def test_degenerate_start_has_zero_splitting():
    fam = sz_block_family()
    vals = np.linalg.eigvalsh(fam(0.0))
    assert vals[1] - vals[0] <= 1e-14


def test_samples_reject_zero_and_repeated():
    fam = sz_block_family()
    for estimate in (estimate_order, estimate_all_orders):
        with pytest.raises(ValueError, match="nonzero"):
            estimate(fam, ladder=np.array([0.0, 0.1]))
        with pytest.raises(ValueError, match="distinct"):
            estimate(fam, ladder=np.array([0.2, 0.1, 0.2]))


def test_samples_sort_a_descending_ladder():
    # default_ladder() runs from 2^-3 down to 2^-16; the window eigenvalues
    # come back in ascending t, bit for bit as for the sorted ladder, and
    # every order fits the same values.
    fam = sz_block_family()
    ladder = default_ladder()
    got_ts, got = _window_ladder(fam, ladder)
    want_ts, want = _window_ladder(fam, np.sort(ladder))
    assert got_ts == want_ts == sorted(ladder.tolist())
    assert got.shape == want.shape == (len(ladder), fam.k)
    assert got.tobytes() == want.tobytes()
    assert repr(estimate_all_orders(fam, ladder)) == repr(
        estimate_all_orders(fam, np.sort(ladder)))
    assert repr(estimate_order(fam, "heff", ladder)) == repr(
        estimate_order(fam, "heff", np.sort(ladder)))


def test_heff_samples_note_decomposition_errors_only():
    # At t = 1 the window touches the third level: a DegenError, and the
    # sample has no norm. A matrix of the wrong size is an evaluator bug
    # and propagates.
    fam = family(lambda t: np.diag([0.0, t, 1.0]).astype(complex), 2)
    near, touching = heff_norms(fam, [0.25, 1.0])
    assert near is not None
    assert touching is None

    def wrong_size(t):
        return np.diag([0.0, t, 1.0, 2.0][: 3 if t == 0.0 else 4]).astype(complex)

    with pytest.raises(ValueError, match="dimension mismatch"):
        estimate_order(family(wrong_size, 2), "heff", [0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("heff", [False, True])
def test_samples_refuse_a_non_finite_family(bad, heff):
    # eigvalsh raises on NaN but may return NaN eigenvalues on inf; both
    # are refused before any spectrum is taken, by the eigenvalue ladder and
    # by the heff order.
    def evaluator(t):
        h = np.diag([0.0, t, 1.0]).astype(complex)
        if t == 0.5:
            h[2, 2] = bad
        return h

    with pytest.raises(np.linalg.LinAlgError, match="not finite at t = 0.5"):
        if heff:
            estimate_order(family(evaluator, 2), "heff", [0.25, 0.5])
        else:
            estimate_order(family(evaluator, 2), "stddev", [0.25, 0.5])


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


def _component_fit(fam, method, label):
    """The fit of the component series `label` of `method` on the default
    ladder, against the zero floor that estimate_order uses."""
    ts, series = ladder_series(fam, default_ladder(), method)
    return _fit_order(ts, series[label], _zero_floor(fam, ts, method), label)


def test_single_component_methods():
    rng = np.random.default_rng(4)
    fam = polynomial_spectrum_family(5, 3, 2, rng)
    assert _component_fit(fam, "pairwise", "pairwise(1, 3)").r == 2
    assert _component_fit(fam, "mean", "mean(1)").r == 2


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
    # A degree r + 3 polynomial fits sgn(t)^r std(t) through t = 0; the
    # wrong parity leaves a kink at 0 that the fit cannot absorb.
    for parity, fits in ((r, True), (r - 1, False)):
        vals = signed_stddev(fam, parity, ts)
        fit = np.polynomial.Polynomial.fit(ts, vals, r + 3)
        assert (np.max(np.abs(fit(ts) - vals)) <= 1e-6 * scale) == fits


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


def test_cascade_factorization_plan(linalg_calls):
    # A k = 2 cascade of ising(4) reaches level 4. The first level takes
    # its four probes through one (4, 16, 16) eigh and one (4, 2, 2) SVD.
    # Every level reads the split of its extrapolated 2 x 2 start off the
    # distance theorem, and deeper levels are whole blocks, whose effective
    # blocks need no factorization. Any new factorization on this path
    # shows here.
    fam = model_family("ising", 4, 0)
    linalg_calls.clear()
    res = cascade(fam)
    assert res.pair_levels == {(1, 2): 4}
    assert linalg_calls == [("eigh", (4, 16, 16)), ("svd", (4, 2, 2))]


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


@pytest.mark.parametrize("kwargs", [
    {"t_probe": 0.0}, {"t_probe": -2.0 ** -6}, {"t_probe": np.inf},
    {"t_probe": np.nan}, {"t_probe": 5e-324}, {"depth_cap": 0},
    {"depth_cap": -1},
])
def test_cascade_refuses_bad_arguments(kwargs):
    # The pair of ising(3) splits at order 3; t_probe = 0 used to divide by
    # zero and report level 1. Half of 5e-324 is 0, which put two probes at
    # +-0.
    fam = model_family("ising", 3, 0)
    name = next(iter(kwargs))
    with pytest.raises(ValueError, match=name):
        cascade(fam, **kwargs)
    assert cascade(fam).pair_levels == {(1, 2): 3}


@pytest.mark.parametrize("model, size, k, t_probe, level", [
    ("ising", 3, 2, 1e-200, 2), ("ssh", 4, 3, 1e-310, 1)])
def test_cascade_names_a_level_that_overflows(model, size, k, t_probe,
                                              level):
    # Each level is divided by t. These probes overflow a level, which was
    # refused by the solver that met its NaN ("eigendecomposition residual
    # nan exceeds nan", "Eigenvalues did not converge"), after overflow
    # warnings; the ssh window is the ground window of the chain.
    h = model_family(model, size, 1)
    fam = family(h, k, offset=h.offset if k == 2 else 0)
    with pytest.raises(np.linalg.LinAlgError,
                       match=rf"^cascade level {level} overflows at "
                             rf"t_probe={t_probe!r}: its start value is not "
                             r"finite$"):
        cascade(fam, t_probe=t_probe)


def test_cascade_names_a_probe_that_is_not_finite():
    # The probe stack is refused by name, where the first eigendecomposition
    # once failed on it without naming the probe.
    def evaluator(t):
        h = np.diag([t, -t, 2.0, 3.0]).astype(complex)
        return h * np.nan if t == 2.0 ** -7 else h

    with pytest.raises(np.linalg.LinAlgError,
                       match=r"^the family is not finite at t = 0\.0078125$"):
        cascade(family(evaluator, 2))


# ---------------------------------------------------------------------------
# The cascade's levels as probe samples, against the closure tower
# ---------------------------------------------------------------------------


def closure_tower_cascade(fam, t_probe=2.0 ** -6, depth_cap=8):
    """Reference cascade in which each level is the function
    t -> anchor.heff_block(g(t)) / t over the level above, so every probe of
    a level re-evaluates all the levels above it."""

    def extrapolate_zero(f, t):
        a1 = (f(t) + f(-t)) / 2.0
        a2 = (f(t / 2.0) + f(-t / 2.0)) / 2.0
        return (4.0 * a2 - a1) / 3.0

    def scaled_heff(anchor, g):
        return lambda t: anchor.heff_block(g(t)) / t

    k = fam.k
    level_one = scaled_heff(Anchor.at(fam(0.0), k, fam.offset), fam)
    pair_levels = {}
    capped = []
    queue = [(tuple(range(1, k + 1)), level_one, 1)]
    while queue:
        idx, g, level = queue.pop()
        g0 = extrapolate_zero(g, t_probe)
        spec0 = eigh((g0 + g0.conj().T) / 2.0)
        parts = classify_stratum(spec0, CLUSTER_RTOL).parts
        clusters = [(stop - size, stop)
                    for size, stop in zip(parts, accumulate(parts))]
        for ci, (lo, hi) in enumerate(clusters):
            for lo2, hi2 in clusters[ci + 1 :]:
                for p in range(lo, hi):
                    for q in range(lo2, hi2):
                        i, j = sorted((idx[p], idx[q]))
                        pair_levels[(i, j)] = level
        for lo, hi in clusters:
            if hi - lo < 2:
                continue
            sub_idx = idx[lo:hi]
            if level >= depth_cap:
                capped.extend(
                    (sub_idx[p], sub_idx[q])
                    for p in range(hi - lo)
                    for q in range(p + 1, hi - lo)
                )
                continue
            anchor = Anchor.from_spectrum(spec0, hi - lo, lo)
            queue.append((sub_idx, scaled_heff(anchor, g), level + 1))
    notes = []
    if capped:
        notes.append(
            f"{len(capped)} pair(s) still degenerate at depth {depth_cap}"
        )
    return CascadeResult(
        pair_levels=pair_levels,
        negative_permutation=_negative_permutation(k, pair_levels),
        capped=tuple(sorted(capped)),
        depth_cap=depth_cap,
        notes=tuple(notes),
    )


def model_family(model, size, seed, evaluations=None):
    """The seeded family t -> H0 + t V of `degengeo order` for the model;
    appends each evaluated t to `evaluations` when one is given."""
    rng = np.random.default_rng(seed)
    offset = 0
    if model == "ising":
        h0 = ising(size)
        h1 = transverse_perturbation(size, rng.standard_normal(size),
                                     rng.standard_normal(size))
    elif model == "ssh":
        h0 = ssh(size, 0.0, 1.0)
        h1 = ssh_hopping_disorder(size, rng.standard_normal(2 * size - 1)
                                  + 1j * rng.standard_normal(2 * size - 1))
        offset = size - 1
    else:
        h0 = five_qubit_code()
        h1 = one_local(5, rng.standard_normal(15))

    def evaluator(t):
        if evaluations is not None:
            evaluations.append(t)
        return h0 + t * h1

    return family(evaluator, 2, offset=offset)


def mixed_order_family():
    v = random_unitary(5, np.random.default_rng(9))

    def evaluator(t):
        lam = np.array([t, -t, 2.0 * t ** 2, 2.0, 3.0 + t])
        return (v * lam) @ v.conj().T

    return family(evaluator, 3)


def assert_same_cascade(res, ref):
    assert res.pair_levels == ref.pair_levels
    assert list(res.pair_levels) == list(ref.pair_levels)
    assert res.negative_permutation == ref.negative_permutation
    assert res.capped == ref.capped
    assert res.notes == ref.notes


@pytest.mark.parametrize("model, size", [("ising", 3), ("ising", 4),
                                         ("ising", 5), ("ssh", 3),
                                         ("ssh", 4), ("ssh", 5),
                                         ("five-qubit", 5)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cascade_matches_closure_tower(model, size, seed):
    fam = model_family(model, size, seed)
    assert_same_cascade(cascade(fam), closure_tower_cascade(fam))


@settings(max_examples=100, deadline=None)
@given(case=st.sampled_from([("ising", 3), ("ising", 4), ("ising", 5),
                             ("ssh", 3), ("ssh", 4), ("ssh", 5),
                             ("five-qubit", 5), ("ssh-ground", 3),
                             ("ssh-ground", 4), ("ssh-ground", 5)]),
       seed=st.integers(0, 999),
       a=st.one_of(st.integers(-20, 800).map(lambda e: 2.0 ** e),
                   st.floats(1e-6, 1e250)))
@example(case=("ising", 3), seed=7, a=1e4)
@example(case=("five-qubit", 5), seed=0, a=1e6)
def test_cascade_is_scale_covariant(case, seed, a):
    # The splitting orders of a H(t) are those of H(t) for every a > 0, and
    # so are the cascade's results. "ssh-ground" is the ground window of the
    # dimerized chain, of cells - 1 levels.
    model, size = case
    h = model_family(model.removesuffix("-ground"), size, seed)
    k, offset = (size - 1, 0) if model == "ssh-ground" else (2, h.offset)

    def scaled(b):
        return family(lambda t: b * h(t), k, offset=offset)

    assert_same_cascade(cascade(scaled(a)), cascade(scaled(1.0)))


@pytest.mark.parametrize("make, kwargs", [
    (mixed_order_family, {}),
    (lambda: family(lambda t: np.diag([0.0, 0.0, 1.0]).astype(complex), 2),
     {"depth_cap": 3}),
    (lambda: family(lambda t: example_pr(t, 0.0), 2), {"t_probe": 2.0 ** -5}),
])
def test_cascade_matches_closure_tower_special_families(make, kwargs):
    fam = make()
    assert_same_cascade(cascade(fam, **kwargs),
                        closure_tower_cascade(fam, **kwargs))


def pair_and_single_family():
    """A k = 3 window whose level-1 start value has eigenvalues -4/3, 2/3
    and 2/3: branches -t, t and t + 2t^2, plus a t^2 coupling X, all in a
    random frame. The pair splits at level 2 against an anchor on a proper
    sub-block of the 3 x 3 level."""
    rng = np.random.default_rng(12)
    v = random_unitary(5, rng)
    x = np.zeros((5, 5), dtype=complex)
    x[:3, :3] = random_hermitian(3, rng, scale=0.5)

    def evaluator(t):
        lam = np.diag([-t, t, t + 2.0 * t ** 2, 2.0, 3.0])
        return v @ (lam + t ** 2 * x) @ v.conj().T

    return family(evaluator, 3)


def test_cascade_anchors_a_proper_sub_block(linalg_calls, monkeypatch):
    fam = pair_and_single_family()
    calls = []
    real = Anchor.heff_block

    def counted(self, h):
        calls.append((self.k, h.shape))
        return real(self, h)

    monkeypatch.setattr(Anchor, "heff_block", counted)
    linalg_calls.clear()
    res = cascade(fam)
    assert res.pair_levels == {(1, 2): 1, (1, 3): 1, (2, 3): 2}
    assert res.negative_permutation == (3, 1, 2)
    # Level 1 against the start anchor, level 2 against an anchor on the
    # pair, a 2-level window of the 3 x 3 level. The 3-level start value
    # takes one eigh, the 2-level one none.
    assert calls == [(3, (4, 5, 5)), (2, (4, 3, 3))]
    assert linalg_calls == [("eigh", (4, 5, 5)), ("svd", (4, 3, 3)),
                            ("eigh", (3, 3)), ("eigh", (4, 3, 3)),
                            ("svd", (4, 2, 2))]
    assert_same_cascade(res, closure_tower_cascade(fam))


@pytest.mark.parametrize("order", [3, 4, 5])
def test_cascade_decomposes_each_probe_once_per_level(order, monkeypatch):
    # The pair of ising(r) splits at order r: r levels of four probes each.
    # Level 1 takes them through one stacked heff_block call; each deeper
    # level's cluster is its whole 2 x 2 block, whose effective block is
    # the traceless part in any basis, so it takes none. H(t) is evaluated
    # at the four probes only: the start anchor comes from the spectrum
    # `family` checked.
    evaluations = []
    fam = model_family("ising", order, 0, evaluations)
    calls = []
    real = Anchor.heff_block

    def counted(self, h):
        calls.append(h.shape)
        return real(self, h)

    monkeypatch.setattr(Anchor, "heff_block", counted)
    evaluations.clear()
    res = cascade(fam)
    assert res.pair_levels == {(1, 2): order}
    assert calls == [(4, fam.n, fam.n)]
    assert len(evaluations) == 4
    t = 2.0 ** -6
    assert sorted(evaluations) == sorted([t, -t, t / 2.0, -t / 2.0])


def test_cascade_factorization_count(linalg_calls):
    # ising(4): one stacked eigh of the four level-1 probes and one stacked
    # k x k SVD of their window rows; no eigvalsh, and no eigh of H(0), whose
    # spectrum `family` kept.
    # None of the four levels factors its 2 x 2 start value, and the deeper
    # levels, whole 2 x 2 blocks, need no anchor.
    fam = model_family("ising", 4, 0)
    n = fam.n
    linalg_calls.clear()
    res = cascade(fam)
    assert res.pair_levels == {(1, 2): 4}
    assert linalg_calls == [("eigh", (4, n, n)), ("svd", (4, 2, 2))]


@pytest.mark.parametrize("heff", [False, True])
def test_samples_take_one_stacked_eigvalsh(heff, linalg_calls):
    fam = model_family("ssh", 4, 1)
    ts = np.sort(default_ladder(3, 12))
    linalg_calls.clear()
    got_ts, win = _window_ladder(fam, ts)
    norms = heff_norms(fam, ts) if heff else None
    eigvalsh = [call for call in linalg_calls if call[0] == "eigvalsh"]
    # The ladder's spectra; with heff, the effective blocks come from one
    # stacked eigh and one stacked k x k SVD, with no n x n eigh of H(0) or
    # of a single sample.
    assert eigvalsh == [("eigvalsh", (len(ts), fam.n, fam.n))]
    others = [call for call in linalg_calls if call[0] != "eigvalsh"]
    assert others == ([("eigh", (len(ts), fam.n, fam.n)),
                       ("svd", (len(ts), fam.k, fam.k))] if heff else [])
    stds = _components(win, "stddev")["stddev"]
    mean_devs = np.column_stack(list(_components(win, "mean").values()))
    pairwise = _components(win, "pairwise")
    assert list(pairwise) == ["pairwise(1, 2)"]
    for sample, t in enumerate(ts):
        vals = np.linalg.eigvalsh(fam(t))
        _, mean_dev, std = window_spread(vals, fam.k, fam.offset)
        one = vals[fam.offset : fam.offset + fam.k]
        assert got_ts[sample] == t
        assert stds[sample] == std
        assert np.array_equal(mean_devs[sample], mean_dev)
        assert pairwise["pairwise(1, 2)"][sample] == float(one[0] - one[1])
        if heff:
            # The short path and the full decomposition round differently;
            # both agree with the distance theorem at rounding level.
            bound = 1e-13 * max(1.0, frobenius_norm(fam(t)))
            dec = Anchor.at(fam(0.0), fam.k, fam.offset).decompose(fam(t))
            assert abs(norms[sample] - frobenius_norm(dec.h_eff)) <= bound
            distance = window_distance(vals, fam.k, fam.offset)
            assert abs(norms[sample] - distance) <= bound


def test_signed_stddev_takes_one_stacked_eigvalsh(linalg_calls):
    fam = model_family("ising", 3, 2)
    ts = np.linspace(-0.15, 0.15, 30)
    linalg_calls.clear()
    vals = signed_stddev(fam, 3, ts)
    assert linalg_calls == [("eigvalsh", (len(ts), fam.n, fam.n))]
    reference = [
        float(np.sign(t)) ** 3
        * window_spread(np.linalg.eigvalsh(fam(t)), fam.k, fam.offset)[2]
        for t in ts
    ]
    assert vals.tolist() == reference


def test_empty_ladders():
    fam = sz_block_family()
    ts, win = _window_ladder(fam, [])
    assert ts == [] and win.shape == (0, fam.k)
    assert heff_norms(fam, []) == []
    empty = signed_stddev(fam, 1, [])
    assert empty.shape == (0,) and empty.dtype == np.float64


@pytest.mark.parametrize("ladder", [default_ladder(), default_ladder(3, 8),
                                    [0.5, 0.25, 0.125, 2.0 ** -6]])
def test_all_orders_evaluate_the_family_ladder_plus_three_times(ladder):
    # L samples, then H(0), H(t1) and H(-t1) once for the zero floor that
    # all five measures share.
    evaluations = []
    fam = model_family("ising", 3, 0, evaluations)
    evaluations.clear()
    estimates, agree = estimate_all_orders(fam, ladder)
    assert agree and estimates["stddev"].r == 3
    assert len(evaluations) == len(ladder) + 3
    assert sorted(evaluations[-3:]) == [-min(ladder), 0.0, min(ladder)]


def test_all_orders_share_one_floor_with_estimate_order():
    # The shared floor is the one estimate_order takes per measure.
    fam = model_family("ssh", 4, 1)
    ladder = default_ladder()
    estimates, _ = estimate_all_orders(fam, ladder)
    for method in FIVE_METHODS:
        alone = estimate_order(fam, method, ladder)
        assert repr(alone) == repr(estimates[method])


def _diagonal_window_family(window):
    """H(t) = diag(*window(|t|), 5): a tabulated-looking family whose window
    eigenvalues, in ascending order, are exactly window(|t|)."""
    def evaluator(t):
        return np.diag([*window(abs(t)), 5.0]).astype(complex)

    return family(evaluator, len(window(0.0)))


def test_fit_needs_four_samples_above_the_zero_floor():
    # The splitting is exactly zero below t = 2^-5: three samples of the
    # default ladder are left, too few for a slope.
    fam = _diagonal_window_family(
        lambda t: (-t, t) if t >= 2.0 ** -5 else (0.0, 0.0))
    with pytest.raises(InconclusiveFit,
                       match="stddev: only 3 samples above the zero floor"):
        estimate_order(fam)


def test_aggregate_methods_skip_components_that_do_not_fit():
    # lambda_2 - lambda_1 = t^2.5 has no integer order; the other
    # differences are of order one, so the aggregates take those.
    fam = _diagonal_window_family(lambda t: (-t, -t + t ** 2.5, t))
    assert repr(estimate_order(fam, "pairwise")) == repr(replace(
        _component_fit(fam, "pairwise", "pairwise(1, 3)"),
        method="pairwise:min via pairwise(1, 3)"))
    neighbor = estimate_order(fam, "neighbor")
    assert (neighbor.r, neighbor.method) == (
        1, "neighbor:min via pairwise(2, 3)")
    with pytest.raises(InconclusiveFit):
        _component_fit(fam, "pairwise", "pairwise(1, 2)")


def test_aggregate_methods_refuse_when_no_component_fits():
    fam = _diagonal_window_family(lambda t: (-t ** 2.5, t ** 2.5))
    for method in ("pairwise", "neighbor"):
        with pytest.raises(InconclusiveFit, match=(
                f"{method}: no component produced a usable fit "
                r"\(pairwise\(1, 2\): slope 2.500 is not near")):
            estimate_order(fam, method)


@pytest.mark.parametrize("method", ["stddev", "heff"])
def test_empty_ladder_has_no_usable_samples(method):
    fam = model_family("ising", 3, 0)
    with pytest.raises(InconclusiveFit, match=f"{method}: no usable samples"):
        estimate_order(fam, method=method, ladder=[])


def test_all_orders_of_an_empty_ladder_have_no_usable_samples():
    fam = model_family("ising", 3, 0)
    with pytest.raises(InconclusiveFit, match="all orders: no usable samples"):
        estimate_all_orders(fam, [])


def per_sample_heff(fam, ts):
    """||H_eff||_F of each sample as one decomposition per sample against a
    fresh anchor at H(0) gives it, None where it raises: the reference for
    the stacked ladder of `_heff_norms`."""
    anchor = Anchor.at(fam(0.0), fam.k, fam.offset)
    out = []
    for t in np.sort(ts):
        try:
            out.append(frobenius_norm(anchor.heff_block(fam(t))))
        except (DegenError, np.linalg.LinAlgError):
            out.append(None)
    return out


def outcome(call):
    """repr of what call() returns, or the type and message of the error it
    raises, with the estimate an InconclusiveFit carries."""
    try:
        return repr(call())
    except (DegenError, ValueError, np.linalg.LinAlgError) as exc:
        return (type(exc).__name__, str(exc),
                repr(getattr(exc, "estimate", None)))


def assert_samples_match_per_sample(fam, ts):
    norms = per_sample_heff(fam, ts)
    assert heff_norms(fam, ts) == norms
    got_ts, win = _window_ladder(fam, ts)
    stds = _components(win, "stddev")["stddev"]
    mean_devs = np.column_stack(list(_components(win, "mean").values()))
    for t, std, devs in zip(got_ts, stds, mean_devs, strict=True):
        _, mean_dev, want = window_spread(np.linalg.eigvalsh(fam(t)), fam.k,
                                          fam.offset)
        assert std == want
        assert devs.tobytes() == mean_dev.tobytes()
    # The heff order is the fit on the per-sample norms, or fails with the
    # same message.
    ts = np.sort(ts).tolist()
    assert outcome(lambda: estimate_order(fam, "heff", ts)) == outcome(
        lambda: _fit_order(ts, norms, _zero_floor(fam, ts, "heff"), "heff"))
    return norms


@pytest.mark.parametrize("model, size", [("ising", 3), ("ising", 4),
                                         ("ising", 5), ("ssh", 3),
                                         ("ssh", 4), ("ssh", 5),
                                         ("five-qubit", 5)])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_stacked_heff_ladder_matches_per_sample_bits(model, size, seed):
    fam = model_family(model, size, seed)
    for ts in (default_ladder(), np.geomspace(0.05, 4.0, 9)):
        assert_samples_match_per_sample(fam, ts)


@pytest.mark.parametrize("model, size", [("ising", 4), ("five-qubit", 5)])
def test_heff_order_takes_one_stacked_eigh_and_svd(model, size, linalg_calls):
    # The heff order fits the effective-block norms alone: no eigvalsh of
    # the ladder's spectra, and no eigh of H(0), whose spectrum `family`
    # kept.
    fam = model_family(model, size, 0)
    linalg_calls.clear()
    estimate_order(fam, method="heff")
    assert linalg_calls == [("eigh", (14, fam.n, fam.n)), ("svd", (14, 2, 2))]


@pytest.mark.parametrize("make", [lambda: model_family("ising", 4, 0),
                                  pair_and_single_family],
                         ids=["ising4", "pair_and_single"])
def test_heff_route_conjugates_no_matrix(make, monkeypatch):
    # The heff order and the cascade, a sub-block anchor at level 2
    # included, read every effective block off the matrices as given: no
    # matrix is conjugated into an anchor's gauge.
    calls = []
    real = swtransform.conjugate

    def counted(h, u):
        calls.append(np.shape(h))
        return real(h, u)

    monkeypatch.setattr(swtransform, "conjugate", counted)
    fam = make()
    estimate_order(fam, "heff")
    cascade(fam)
    assert calls == []


@pytest.mark.parametrize("ladder, error, message", [
    ([0.1, 0.0, 0.2], "ValueError", "sample points must be nonzero"),
    ([0.2, 0.1, 0.2], "ValueError", "sample points must be distinct"),
    ([0.1, np.nan], "LinAlgError", "the family is not finite at t = nan"),
    ([np.inf, 0.1], "LinAlgError", "the family is not finite at t = inf"),
    ([], "InconclusiveFit", "heff: no usable samples"),
])
def test_heff_order_refuses_bad_ladders_as_the_samples_do(ladder, error,
                                                         message):
    fam = family(lambda t: np.diag([0.0, t, 1.0]).astype(complex), 2)
    want = (error, message, "None")
    assert outcome(lambda: estimate_order(fam, "heff", ladder)) == want
    # The measures of the samples refuse it alike, under their own label.
    assert outcome(lambda: estimate_order(fam, "stddev", ladder)) == (
        error, message.replace("heff", "stddev"), "None")


def test_one_failing_sample_keeps_per_sample_notes_and_values():
    # Window levels (0, t) below 1, 2, 3, 4 in a fixed random basis: at
    # t = 1 the window touches the next level, the only sample whose
    # decomposition fails, and the stacked call fails with it. The sample
    # at t = 0.6, outside the uniqueness ball of radius 1/2, keeps its norm.
    v = random_unitary(6, np.random.default_rng(14))
    fam = family(lambda t: (v * [0.0, t, 1.0, 2.0, 3.0, 4.0]) @ v.conj().T, 2)
    ts = [0.1, 0.2, 0.3, 0.4, 0.6, 1.0]
    norms = assert_samples_match_per_sample(fam, ts)
    assert [norm is None for norm in norms] == [False] * 5 + [True]
    anchor = fam.start_anchor()
    with pytest.raises(DegenError, match="eigenvalues 2 and 3 coincide"):
        anchor.heff_block(fam(1.0))
    with pytest.raises(DegenError, match="eigenvalues 2 and 3 coincide"):
        anchor.heff_block(fam.stack(np.array(ts)[:, None]))


def test_hand_built_family_diagonalizes_h0_itself(linalg_calls):
    # A one-parameter family made without `family` has no start spectrum:
    # its start anchor takes one eigh of H(0), and every result is the same.
    fam = model_family("ssh", 4, 2)
    hand = ParamFamily(evaluator=fam.evaluator, m=1, n=fam.n, k=fam.k,
                       offset=fam.offset)
    assert hand.start is None and fam.start is not None and hand == fam
    linalg_calls.clear()
    hand.start_anchor()
    assert linalg_calls == [("eigh", (fam.n, fam.n))]
    ladder = default_ladder()
    assert outcome(lambda: estimate_all_orders(hand, ladder)) == outcome(
        lambda: estimate_all_orders(fam, ladder))
    assert repr(estimate_order(hand, method="heff")) == repr(
        estimate_order(fam, method="heff"))
    assert repr(cascade(hand)) == repr(cascade(fam))


def test_replaced_evaluator_drops_the_start_spectrum():
    # `replace` must not carry the old H(0)'s spectrum over to a new
    # evaluator: the copy diagonalizes its own H(0) and matches a fresh
    # `family` of that evaluator.
    # The new family is the old one in a rotated basis, so a stale start
    # spectrum would have the right eigenvalues and the wrong eigenvectors.
    old = model_family("ising", 3, 0)
    v = random_unitary(old.n, np.random.default_rng(15))
    new = family(lambda t: v @ old(t) @ v.conj().T, old.k, old.offset)
    swapped = replace(old, evaluator=new.evaluator)
    assert swapped.start is None
    ladder = default_ladder()
    assert outcome(lambda: estimate_all_orders(swapped, ladder)) == outcome(
        lambda: estimate_all_orders(new, ladder))
    assert repr(estimate_order(swapped, method="heff")) == repr(
        estimate_order(new, method="heff"))
    assert repr(cascade(swapped)) == repr(cascade(new))
    with pytest.raises(TypeError, match="start"):
        ParamFamily(evaluator=new.evaluator, m=1, n=new.n, k=new.k,
                    start=new.start)


# The closed-form slope against the least-squares solver it replaces.


def _polyfit_slope(ts, vals):
    return np.polyfit(np.log(np.abs(ts)), np.log(np.abs(vals)), 1)[0]


@pytest.mark.parametrize("seed", range(8))
def test_closed_form_slope_matches_polyfit(seed):
    # Random geometric ladders, one-sided and +-, with real slopes (most
    # not near an integer, so the fit raises with its estimate), samples
    # censored by the zero floor and samples missing (None).
    rng = np.random.default_rng(seed)
    for trial in range(25):
        exps = rng.uniform(2.0, 20.0, size=rng.integers(4, 16))
        ts = 2.0 ** -exps
        if trial % 2:
            ts = np.concatenate([ts, -ts[: rng.integers(1, len(ts) + 1)]])
        ts = list(rng.permutation(ts))
        power = rng.uniform(0.5, 7.0)
        vals = [float(rng.uniform(0.5, 2.0) * abs(t) ** power
                      * np.exp(0.1 * rng.standard_normal())) for t in ts]
        floor = 0.0
        kept = 4 + trial % 4
        if trial % 3 == 1 and kept < len(vals):  # censor all but `kept`
            floor = sorted(abs(v) for v in vals)[-kept - 1]
        if trial % 5 == 2:
            vals[rng.integers(len(vals))] = None
        keep = [i for i, v in enumerate(vals)
                if v is not None and abs(v) > floor]
        if len(keep) < 4:
            continue
        expected = _polyfit_slope([ts[i] for i in keep],
                                  [vals[i] for i in keep])
        try:
            est = _fit_order(ts, vals, floor, "stddev")
        except InconclusiveFit as exc:
            est = exc.estimate
        assert est.slope == pytest.approx(expected, rel=1e-12, abs=0.0)
        assert est.samples == tuple((ts[i], vals[i]) for i in keep)


def test_closed_form_slope_refuses_no_spread_and_infinite_values():
    from degengeo.splitting import _fit_order

    # Four distinct ts whose logs round to one double, and an infinite
    # sample: no finite slope, and no RuntimeWarning on the way.
    t = 1e-3
    ts = [t, np.nextafter(t, 1.0), -t, -np.nextafter(t, 1.0)]
    assert len({np.log(abs(x)) for x in ts}) == 1
    with pytest.raises(InconclusiveFit,
                       match="stddev: the samples give no finite log-log"):
        _fit_order(ts, [1.0, 2.0, 3.0, 4.0], 0.0, "stddev")
    ts = list(default_ladder(3, 8))
    vals = [t ** 2 for t in ts]
    vals[2] = np.inf
    with pytest.raises(InconclusiveFit,
                       match="mean: the samples give no finite log-log"):
        _fit_order(ts, vals, 0.0, "mean")


def test_orders_need_no_least_squares_solver(monkeypatch):
    rng = np.random.default_rng(1)
    h0 = ising(3)
    h1 = transverse_perturbation(3, rng.standard_normal(3),
                                 rng.standard_normal(3))
    fam = family(lambda t: h0 + t * h1, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("a least-squares solver was called")

    expected = estimate_all_orders(fam)
    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    estimates, agreement = estimate_all_orders(fam)
    assert agreement and {e.r for e in estimates.values()} == {3}
    assert repr(estimates) == repr(expected[0])
    for method in (*FIVE_METHODS, "heff", "distance"):
        assert estimate_order(fam, method).r == 3
    assert _component_fit(fam, "pairwise", "pairwise(1, 2)").r == 3
    assert _component_fit(fam, "mean", "mean(2)").r == 3
