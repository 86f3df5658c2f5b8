"""Effective maps, Jacobian rank, Weyl classification, and grid scans."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degengeo import weyl
from degengeo.errors import DegenError, StepTooSmall, SubspacesTooFar
from degengeo.hermitian import random_hermitian
from degengeo.models import example_pr, weyl_example
from degengeo.projection import collapse_projection
from degengeo.splitting import estimate_order, family
from degengeo.weyl import (
    _newton_refine,
    classify_point,
    effective_map,
    first_order_effective_map,
    jacobian,
    jacobian_with_check,
    param_family,
    scan_grid,
)

ORIGIN = np.zeros(3)


def weyl_family():
    return param_family(lambda p: weyl_example(*p), 3)


def pr_family():
    # the two-parameter counterexample embedded with an inert third axis
    return param_family(lambda p: example_pr(p[0], p[1]), 3)


def pr_closed_form(p, r):
    q2 = p * p + r * r
    if q2 == 0.0:
        return np.zeros(3)
    f = (1.0 - np.sqrt(1.0 + 4.0 * q2)) / (2.0 * np.sqrt(2.0) * q2)
    return f * np.array([2.0 * p * r, 0.0, p * p - r * r])


def test_effective_map_vanishes_at_anchor():
    h = effective_map(weyl_family(), ORIGIN)
    assert np.linalg.norm(h(ORIGIN)) <= 1e-12


def test_effective_map_pr_closed_form():
    fam = pr_family()
    h = effective_map(fam, ORIGIN)
    for p, r in [(0.1, 0.05), (0.02, -0.08), (-0.07, 0.03)]:
        got = h(np.array([p, r, 0.0]))
        np.testing.assert_allclose(got, pr_closed_form(p, r), atol=1e-10)


def test_first_order_map_weyl_model():
    h1 = first_order_effective_map(weyl_family(), ORIGIN)
    for p in [np.array([0.1, -0.05, 0.02]), np.array([0.0, 0.3, 0.0])]:
        np.testing.assert_allclose(h1(p), np.sqrt(2.0) * p, atol=1e-12)


def test_first_order_map_constant_family():
    h0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    fam = param_family(lambda p: h0, 3)
    h1 = first_order_effective_map(fam, ORIGIN)
    assert np.linalg.norm(h1(np.array([0.2, 0.1, -0.3]))) == 0.0


def test_first_order_rank_matches_exact_rank():
    # randomized cubic-polynomial families through a degenerate origin
    rng = np.random.default_rng(0)
    h0 = np.diag([0.0, 0.0, 1.0, 1.5]).astype(complex)
    matches = 0
    for _ in range(50):
        lin = [random_hermitian(4, rng, scale=0.3) for _ in range(3)]
        quad = [random_hermitian(4, rng, scale=0.2) for _ in range(3)]
        cub = [random_hermitian(4, rng, scale=0.2) for _ in range(3)]

        def evaluator(p, lin=lin, quad=quad, cub=cub):
            h = h0.astype(complex).copy()
            for i in range(3):
                h = h + p[i] * lin[i] + p[i] ** 2 * quad[i] + p[i] ** 3 * cub[i]
            return h

        fam = param_family(evaluator, 3)
        exact = jacobian(effective_map(fam, ORIGIN), ORIGIN)
        first = jacobian(first_order_effective_map(fam, ORIGIN), ORIGIN)
        rank = lambda j: np.sum(  # noqa: E731
            np.linalg.svd(j, compute_uv=False) > 1e-7
        )
        if rank(exact) == rank(first):
            matches += 1
    assert matches == 50


def test_jacobian_linear_map_exact():
    a = np.array([[1.0, 2.0, 0.5], [0.0, -1.0, 3.0], [2.0, 0.0, 1.0]])
    jac = jacobian(lambda p: a @ p, np.array([0.3, -0.2, 1.0]))
    np.testing.assert_allclose(jac, a, atol=1e-9)


def test_jacobian_weyl_model_is_sqrt2_identity():
    jac = jacobian(effective_map(weyl_family(), ORIGIN), ORIGIN)
    np.testing.assert_allclose(jac, np.sqrt(2.0) * np.eye(3), atol=1e-6)
    assert np.linalg.det(jac) > 0.0


def test_jacobian_pr_model_vanishes():
    jac = jacobian(effective_map(pr_family(), ORIGIN), ORIGIN)
    assert np.max(np.abs(jac)) <= 1e-6


def test_jacobian_richardson_check():
    _, noise = jacobian_with_check(
        effective_map(weyl_family(), ORIGIN), ORIGIN
    )
    assert noise <= 1e-5
    with pytest.raises(StepTooSmall):
        jacobian(lambda p: p, ORIGIN, step=0.0)


def test_classify_weyl_point():
    rep = classify_point(weyl_family(), ORIGIN)
    assert rep.classification == "weyl"
    assert rep.charge == 1
    assert rep.rank == 3


def test_classify_non_generic():
    rep = classify_point(pr_family(), ORIGIN)
    assert rep.classification == "non-generic-degeneracy"
    assert rep.rank < 3
    assert rep.charge == 0


def test_classify_away_from_degeneracy():
    rep = classify_point(weyl_family(), np.array([0.2, 0.1, -0.1]))
    assert rep.classification == "no-degeneracy"


def test_classify_first_order_matches_exact():
    for fam in (weyl_family(), pr_family()):
        exact = classify_point(fam, ORIGIN)
        first = classify_point(fam, ORIGIN, use_first_order=True)
        assert exact.classification == first.classification
        assert exact.charge == first.charge


def test_classify_point_takes_h_at_p0_once(linalg_calls):
    # The projection's eigendecomposition of H(p0) also anchors the map, so
    # each 3 x 3 eigh and family evaluation is one of: the projection, the
    # 12 points of the two Jacobians, and h(p0).
    evals = []

    def evaluator(p):
        evals.append(p)
        return weyl_example(*p)

    fam = param_family(evaluator, 3)
    evals.clear()
    linalg_calls.clear()
    classify_point(fam, ORIGIN)
    eighs = [shape for name, shape in linalg_calls if name == "eigh"]
    assert eighs == [(3, 3)] * 14
    assert len(evals) == 14


@pytest.mark.parametrize("error", [SubspacesTooFar, TypeError])
def test_newton_backtracks_on_decomposition_errors_only(monkeypatch, error):
    # Like the exact effective map, this map is defined only near its
    # anchor; beyond 0.6 it raises. A DegenError there halves the step, any
    # other error propagates.
    def local_map(fam, p0):
        def h(p):
            if abs(p[0] - p0[0]) > 0.6:
                raise error("evaluated too far from the anchor")
            return p - 1.0
        return h

    monkeypatch.setattr(weyl, "effective_map", local_map)
    if error is SubspacesTooFar:
        root, anchors = _newton_refine(None, np.zeros(1))
        np.testing.assert_allclose(root, [1.0], atol=1e-10)
        assert anchors >= 3
    else:
        with pytest.raises(error):
            _newton_refine(None, np.zeros(1))


def _local_minima_loop(values):
    """Reference: visit the grid in C order and keep the points that no axis
    neighbour lies strictly below."""
    minima = []
    for idx in np.ndindex(values.shape):
        best = True
        for axis in range(values.ndim):
            for delta in (-1, 1):
                nb = list(idx)
                nb[axis] += delta
                if (0 <= nb[axis] < values.shape[axis]
                        and values[tuple(nb)] < values[idx]):
                    best = False
        if best:
            minima.append(idx)
    return minima


def test_local_minima_match_neighbour_loop():
    # Small-integer fields are full of ties, which count as minima on every
    # side; grids of one to three axes, sizes 1 to 6.
    rng = np.random.default_rng(21)
    for _ in range(200):
        shape = tuple(rng.integers(1, 7, size=rng.integers(1, 4)))
        values = rng.integers(0, 3, size=shape)
        assert weyl._local_minima(values) == _local_minima_loop(values)


def _distance_field_loop(fam, axes):
    """Reference: one closest-point projection per grid point."""
    dist = np.empty(tuple(len(a) for a in axes))
    for i, x in enumerate(axes[0]):
        for j, y in enumerate(axes[1]):
            for l, z in enumerate(axes[2]):
                pr = collapse_projection(
                    fam(np.array([x, y, z])), fam.k, offset=fam.offset
                )
                dist[i, j, l] = pr.distance
    return dist


def random_family(seed):
    """A linear 5 x 5 family with a twofold window at offset 1, degenerate
    at the origin."""
    rng = np.random.default_rng(seed)
    h0 = np.diag([-1.5, 0.0, 0.0, 1.0, 2.0]).astype(complex)
    dirs = [0.4 * random_hermitian(5, rng) for _ in range(3)]

    def evaluator(p):
        return h0 + p[0] * dirs[0] + p[1] * dirs[1] + p[2] * dirs[2]

    return param_family(evaluator, 3, offset=1)


def _scan_outcome(fam, box, res):
    """The reports of a scan as comparable tuples, or the error it raised."""
    try:
        reports = scan_grid(fam, box, res)
    except (DegenError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)
    return [(r.p.tobytes(), r.distance, r.jacobian.tobytes(), r.rank,
             r.charge, r.classification, r.diagnostics) for r in reports]


def _check_scan_matches_point_loop(monkeypatch, fam, centre, res):
    box = [(c - 0.5, c + 0.5) for c in centre]
    axes = weyl._grid_axes(box, res)
    field = weyl._distance_field(fam, axes)
    reference = _distance_field_loop(fam, axes)
    np.testing.assert_allclose(field, reference, rtol=0.0, atol=1e-13)
    assert weyl._local_minima(field) == weyl._local_minima(reference)
    outcome = _scan_outcome(fam, box, res)
    monkeypatch.setattr(weyl, "_distance_field", _distance_field_loop)
    assert outcome == _scan_outcome(fam, box, res)


_centres = st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3)


@settings(max_examples=10, deadline=None)
@given(centre=_centres, res=st.integers(3, 9))
def test_scan_field_matches_point_loop_builtin(centre, res):
    with pytest.MonkeyPatch.context() as mp:
        _check_scan_matches_point_loop(mp, weyl_family(), centre, res)


@settings(max_examples=8, deadline=None)
@given(centre=_centres, res=st.integers(3, 9), seed=st.integers(0, 2**16))
def test_scan_field_matches_point_loop_offset_window(centre, res, seed):
    with pytest.MonkeyPatch.context() as mp:
        _check_scan_matches_point_loop(mp, random_family(seed), centre, res)


@pytest.mark.parametrize("fam, res", [(weyl_family(), 4),
                                      (random_family(0), 6)])
def test_scan_field_one_eigh_per_grid_line(linalg_calls, fam, res):
    # A threshold below every distance seeds nothing, so every call left is
    # the field's: one stacked eigh per line of the last axis.
    assert scan_grid(fam, [(-0.5, 0.5)] * 3, res, seed_threshold=-1.0) == []
    assert linalg_calls == [("eigh", (res, fam.n, fam.n))] * res ** 2


def test_scan_finds_single_weyl_point():
    reports = scan_grid(weyl_family(), [(-0.5, 0.5)] * 3, 11)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.classification == "weyl"
    assert rep.charge == 1
    assert np.linalg.norm(rep.p) <= 1e-6


def test_scan_charge_stable_under_resolution():
    for res in (7, 10, 13):
        reports = scan_grid(weyl_family(), [(-0.4, 0.6)] * 3, res)
        assert len(reports) == 1
        assert reports[0].charge == 1


def test_scan_perturbed_family_tracks_the_point():
    k = np.zeros((3, 3), dtype=complex)
    k[0, 1] = k[1, 0] = 0.05
    fam = param_family(lambda p: weyl_example(*p) + k, 3)
    reports = scan_grid(fam, [(-0.5, 0.5)] * 3, 11)
    assert len(reports) == 1
    rep = reports[0]
    assert rep.classification == "weyl"
    assert rep.charge == 1
    assert 0.0 < np.linalg.norm(rep.p) < 0.2


def test_scan_empty_region():
    reports = scan_grid(weyl_family(), [(1.0, 2.0)] * 3, 5)
    assert reports == []


def test_transversality_equivalence_full_rank_families():
    # full-rank linear families are Weyl points and every probed line
    # splits at first order
    rng = np.random.default_rng(1)
    h0 = np.diag([0.0, 0.0, 1.0, 2.0]).astype(complex)
    for _ in range(20):
        dirs = [random_hermitian(4, rng) for _ in range(3)]

        def evaluator(p, dirs=dirs):
            return h0 + p[0] * dirs[0] + p[1] * dirs[1] + p[2] * dirs[2]

        fam = param_family(evaluator, 3)
        rep = classify_point(fam, ORIGIN)
        if rep.classification != "weyl":
            continue  # a rank-deficient draw is possible, just unlikely
        for _ in range(3):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            line = family(
                lambda t, d=direction: fam(ORIGIN + t * d), 2
            )
            assert estimate_order(line).r == 1


def test_pr_model_lines_split_at_second_order():
    fam = pr_family()
    rng = np.random.default_rng(2)
    for _ in range(5):
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        line = family(
            lambda t, d=direction: example_pr(t * d[0], t * d[1]), 2
        )
        assert estimate_order(line).r == 2
