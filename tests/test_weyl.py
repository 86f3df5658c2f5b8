"""Effective maps, Jacobian rank, Weyl classification, and grid scans."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degengeo import swtransform, weyl
from degengeo.errors import DegenError, StepTooSmall
from degengeo.hermitian import random_hermitian
from degengeo.models import WEYL_EXAMPLE_TERMS, example_pr, weyl_example
from degengeo.projection import collapse_projection, distance_to_sigma
from degengeo.splitting import estimate_order, family
from degengeo.swtransform import Anchor
from degengeo.weyl import (
    _newton_refine,
    classify_point,
    effective_map,
    first_order_effective_map,
    jacobian,
    jacobian_with_check,
    param_family,
    polynomial_family,
    scan_grid,
)

ORIGIN = np.zeros(3)


def weyl_family():
    return param_family(lambda p: weyl_example(*p), 3)


def polynomial_weyl_family():
    return polynomial_family(WEYL_EXAMPLE_TERMS)


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


@pytest.mark.parametrize("step", [0.0, -1e-5, np.nan, np.inf, -np.inf])
def test_jacobian_refuses_a_step_that_is_not_positive_and_finite(step):
    with pytest.raises(StepTooSmall, match="positive and finite"):
        jacobian(lambda p: p, ORIGIN, step=step)


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
    # classify_point differentiates the window map at p0; the exact
    # effective map's Jacobian there must have the rank it reports, and a
    # determinant of the sign of its charge.
    for fam in (weyl_family(), pr_family()):
        rep = classify_point(fam, ORIGIN)
        jac = jacobian(effective_map(fam, ORIGIN), ORIGIN)
        assert weyl._rank(jac) == rep.rank
        assert int(np.sign(np.linalg.det(jac))) == rep.charge


def test_classify_point_takes_h_at_p0_once(linalg_calls):
    # One eigendecomposition of H(p0) gives the distance, the threshold and
    # the anchor; for an evaluator family the other 12 family evaluations
    # are the points of the two central differences, which need no
    # factorization.
    evals = []

    def evaluator(p):
        evals.append(p)
        return weyl_example(*p)

    fam = param_family(evaluator, 3)
    evals.clear()
    linalg_calls.clear()
    classify_point(fam, ORIGIN)
    eighs = [shape for name, shape in linalg_calls if name == "eigh"]
    assert eighs == [(3, 3)]
    assert len(evals) == 13


@pytest.mark.parametrize("bad", ["unseparated", "LinAlgError", "TypeError"])
def test_newton_halves_step_on_bad_candidates_only(bad):
    # Window levels -+d(x) with d = e^x - e, root at x = 1, and a fixed
    # third level at 5. From 0 the full Newton step lands near 1.7, where
    # the family is bad: it returns a matrix of window distance 0 whose
    # window touches the third level, or raises. The first two halve the
    # step, and Newton still converges to 1; any other error propagates.
    visited = []

    def evaluator(p):
        x = p[0]
        if x > 1.05:
            visited.append(x)
            if bad == "unseparated":
                return np.zeros((3, 3))
            raise {"LinAlgError": np.linalg.LinAlgError,
                   "TypeError": TypeError}[bad]("bad candidate")
        d = np.exp(x) - np.e
        return np.diag([-d, d, 5.0])

    fam = weyl.ParamFamily(evaluator, m=1, n=3)
    if bad == "TypeError":
        with pytest.raises(TypeError):
            _newton_refine(fam, np.zeros(1))
        return
    root, anchors = _newton_refine(fam, np.zeros(1))
    np.testing.assert_allclose(root, [1.0], atol=1e-10)
    assert visited and anchors >= 3


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


def random_terms(seed, n=5):
    """Terms of a linear n x n family with a twofold window at offset 1,
    degenerate at the origin."""
    rng = np.random.default_rng(seed)
    h0 = np.diag([-1.5, 0.0, 0.0, *np.arange(1.0, n - 2)]).astype(complex)
    dirs = [0.4 * np.sqrt(5.0 / n) * random_hermitian(n, rng)
            for _ in range(3)]
    return {(0, 0, 0): h0, (1, 0, 0): dirs[0], (0, 1, 0): dirs[1],
            (0, 0, 1): dirs[2]}


def random_family(seed, n=5):
    """The family of `random_terms` as an evaluator."""
    h0, *dirs = random_terms(seed, n).values()

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
    # The model wrapped as an evaluator and given as its terms.
    for fam in (weyl_family(), polynomial_weyl_family()):
        with pytest.MonkeyPatch.context() as mp:
            _check_scan_matches_point_loop(mp, fam, centre, res)


@settings(max_examples=8, deadline=None)
@given(centre=_centres, res=st.integers(3, 9), seed=st.integers(0, 2**16))
def test_scan_field_matches_point_loop_offset_window(centre, res, seed):
    with pytest.MonkeyPatch.context() as mp:
        _check_scan_matches_point_loop(mp, random_family(seed), centre, res)


def test_stack_of_terms_matches_each_point():
    # A linear family given as terms: the broadcast over a grid has the bits
    # of evaluating each point, and of the evaluator family's sum.
    rng = np.random.default_rng(8)
    for seed in range(3):
        fam = polynomial_family(random_terms(seed, n=6), offset=1)
        evaluated = random_family(seed, n=6)
        axes = weyl._grid_axes([(c - 0.5, c + 0.5)
                                for c in rng.uniform(-0.3, 0.3, size=3)], 5)
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
        stacked = fam.stack(grid)
        assert stacked.shape == (5, 5, 5, 6, 6)
        points = grid.reshape(-1, 3)
        assert np.array_equal(stacked.reshape(-1, 6, 6),
                              np.stack([fam(p) for p in points]))
        assert np.array_equal(stacked.reshape(-1, 6, 6),
                              np.stack([evaluated(p) for p in points]))


def test_polynomial_family_checks_its_terms():
    fam = polynomial_family({(0, np.int64(1)): np.eye(2),
                             (2, 0): np.ones((2, 2))})
    assert (fam.m, fam.n, list(fam.terms)) == (2, 2, [(0, 1), (2, 0)])
    np.testing.assert_array_equal(fam([3.0, 5.0]), [[14, 9], [9, 14]])
    eye = np.eye(2)
    for terms in [{}, {(0, 1): eye, (1,): eye}, {(0, -1): eye},
                  {(0, 1): eye, (1, 0): np.eye(3)}, {(0, 1): np.ones((2, 3))}]:
        with pytest.raises(ValueError):
            polynomial_family(terms)
    with pytest.raises(TypeError):
        polynomial_family({(0.5, 1): eye})


def test_polynomial_field_calls_no_evaluator(monkeypatch):
    def per_point(self, p):
        raise AssertionError("the polynomial field evaluated a point")

    fam = polynomial_weyl_family()
    monkeypatch.setattr(weyl.ParamFamily, "__call__", per_point)
    field = weyl._distance_field(fam, weyl._grid_axes([(-0.5, 0.5)] * 3, 11))
    assert field.shape == (11, 11, 11)


@pytest.mark.parametrize("res", [11, 21])
def test_polynomial_field_equals_evaluator_field(res):
    # The built-in model as terms and wrapped as an evaluator: the same
    # field bits, on a centred grid and on random off-grid centres.
    rng = np.random.default_rng(res)
    for centre in [np.zeros(3), *rng.uniform(-0.045, 0.045, size=(2, 3))]:
        axes = weyl._grid_axes([(c - 0.5, c + 0.5) for c in centre], res)
        assert np.array_equal(
            weyl._distance_field(polynomial_weyl_family(), axes),
            weyl._distance_field(weyl_family(), axes))


@pytest.mark.parametrize("fam, res, calls", [
    # n = 3, res 4: all 16 lines (576 entries) in one call.
    pytest.param(weyl_family(), 4, [(64, 3, 3)], id="fam0-4"),
    # n = 5, res 6: 4096 // 150 = 27 lines a call, then the other 9.
    pytest.param(random_family(0), 6, [(162, 5, 5), (54, 5, 5)],
                 id="fam1-6"),
    # n = 3, res 21: a plane of 21 lines (3969 entries) a call.
    pytest.param(polynomial_weyl_family(), 21, [(441, 3, 3)] * 21,
                 id="fam2-21"),
    # n = 16, res 15: one line (3840 entries) a call.
    pytest.param(random_family(3, n=16), 15, [(15, 16, 16)] * 225,
                 id="fam3-15"),
])
def test_scan_field_one_eigh_per_chunk_of_grid_lines(linalg_calls, fam, res,
                                                      calls):
    # One stacked eigh per chunk of whole lines along the last axis: as many
    # lines as fit in FIELD_CHUNK_ENTRIES matrix entries, at least one.
    weyl._distance_field(fam, weyl._grid_axes([(-0.5, 0.5)] * 3, res))
    assert linalg_calls == [("eigh", shape) for shape in calls]


@pytest.mark.parametrize("fam", [weyl_family(), random_family(3, n=16)])
def test_scan_runs_no_decomposition(monkeypatch, linalg_calls, fam):
    # Outside the field, each Newton iterate takes one eigh (its anchor),
    # each line-search candidate one eigvalsh, and each classified point
    # one eigh; the Schrieffer-Wolff decomposition never runs.
    counts = dict.fromkeys(["_decompose", "_window_distance_at",
                            "classify_point", "at"], 0)

    def count(owner, name, wrap=lambda f: f):
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrap(counted))

    count(swtransform, "_decompose")
    count(weyl, "_window_distance_at")
    count(weyl, "classify_point")
    count(Anchor, "at", lambda f: classmethod(lambda cls, *a: f(*a)))
    box = [(c - 0.3, c + 0.3) for c in (0.031, -0.017, 0.012)]
    reports = scan_grid(fam, box, 7)
    assert [r.classification for r in reports] == ["weyl"]
    square = [name for name, shape in linalg_calls if shape == (fam.n,) * 2]
    assert counts["_decompose"] == 0
    assert counts["at"] > counts["classify_point"] == 1
    assert square.count("eigh") == counts["at"] + counts["classify_point"]
    assert square.count("eigvalsh") == counts["_window_distance_at"] > 0


@pytest.mark.parametrize("fam", [polynomial_weyl_family(), weyl_family(),
                                 random_family(3, n=16)])
def test_scan_evaluates_each_point_once(monkeypatch, fam):
    # Outside the grid field, Newton evaluates each iterate, line-search
    # candidate and difference point once (an accepted candidate's matrix is
    # the next iterate's); the only repeat is classify_point's H(root).
    points = []
    real = weyl.ParamFamily.__call__

    def recorded(self, p):
        points.append(tuple(np.asarray(p, dtype=float).tolist()))
        return real(self, p)

    field = weyl._distance_field

    def field_then_forget(*args):
        values = field(*args)
        points.clear()
        return values

    monkeypatch.setattr(weyl.ParamFamily, "__call__", recorded)
    monkeypatch.setattr(weyl, "_distance_field", field_then_forget)
    box = [(c - 0.3, c + 0.3) for c in (0.1, -0.05, 0.02)]
    reports = scan_grid(fam, box, 11)
    assert reports
    repeats = [p for p in set(points) if points.count(p) > 1]
    assert sorted(repeats) == sorted(tuple(r.p.tolist()) for r in reports)
    assert len(points) == len(set(points)) + len(reports)


def test_window_map_matches_exact_map_at_its_anchor():
    # At random anchors of random linear families (n = 3-16, k = 2-4,
    # random offsets) the exact and window maps share value and Jacobian,
    # and |h(q)| of the exact map is the distance of H(q) from the manifold
    # wherever its decomposition exists: the line search's merit.
    rng = np.random.default_rng(11)
    merits = 0
    for _ in range(30):
        n = int(rng.integers(3, 17))
        k = int(rng.integers(2, min(4, n - 1) + 1))
        offset = int(rng.integers(0, n - k + 1))
        mats = [random_hermitian(n, rng) for _ in range(4)]

        def evaluator(p, mats=mats):
            return mats[0] + p[0] * mats[1] + p[1] * mats[2] + p[2] * mats[3]

        fam = param_family(evaluator, 3, k=k, offset=offset)
        p0 = rng.uniform(-1.0, 1.0, size=3)
        scale = max(np.linalg.norm(m) for m in (fam(p0), *mats[1:]))
        exact = effective_map(fam, p0)
        first = first_order_effective_map(fam, p0)
        assert np.linalg.norm(exact(p0) - first(p0)) <= 1e-12 * scale
        assert (np.max(np.abs(jacobian(exact, p0) - jacobian(first, p0)))
                <= 1e-6 * scale)
        for _ in range(3):
            q = p0 + rng.uniform(-1e-2, 1e-2, size=3)
            try:
                norm = np.linalg.norm(exact(q))
            except DegenError:
                continue
            assert abs(norm - distance_to_sigma(fam(q), k, offset)) <= (
                1e-12 * scale)
            merits += 1
    assert merits >= 45


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


# ---------------------------------------------------------------------------
# Exact Jacobians of polynomial families
# ---------------------------------------------------------------------------


def random_polynomial_terms(rng, n, m, degree):
    """Random Hermitian coefficients of a polynomial family in m parameters:
    a diagonal constant term with distinct levels, and about half of the
    other exponent tuples of total degree at most `degree`."""
    terms = {(0,) * m: np.diag(np.sort(rng.uniform(-2.0, 2.0, n)))
             .astype(complex)}
    for alpha in np.ndindex(*(degree + 1,) * m):
        if 0 < sum(alpha) <= degree and rng.random() < 0.5:
            terms[alpha] = random_hermitian(n, rng, scale=0.5)
    return terms


def _gradient_loop(terms, p):
    """Reference: dH/dp_i = sum_alpha alpha_i p^(alpha - e_i) C_alpha, term
    by term."""
    grad = np.zeros((len(p),) + next(iter(terms.values())).shape, complex)
    for alpha, coeff in terms.items():
        for i, a in enumerate(alpha):
            if a:
                lowered = np.array(alpha) - np.eye(len(p), dtype=int)[i]
                grad[i] += a * np.prod(np.asarray(p) ** lowered) * coeff
    return grad


def test_exact_jacobian_matches_central_difference():
    # Random polynomial families (n = 3-8, m = 2-4, degree <= 3, random
    # windows) at random anchors: the gradient is the term-by-term
    # derivative, and the exact Jacobian of the window map is its central
    # difference to a relative 1e-7.
    rng = np.random.default_rng(17)
    for _ in range(40):
        n, m = int(rng.integers(3, 9)), int(rng.integers(2, 5))
        k = int(rng.integers(2, min(4, n - 1) + 1))
        offset = int(rng.integers(0, n - k + 1))
        terms = random_polynomial_terms(rng, n, m, int(rng.integers(1, 4)))
        fam = polynomial_family(terms, k=k, offset=offset)
        p0 = rng.uniform(-0.5, 0.5, size=m)
        grad = fam.gradient(p0)
        assert grad.shape == (m, n, n)
        np.testing.assert_allclose(grad, _gradient_loop(terms, p0),
                                   rtol=0.0, atol=1e-12)
        anchor = Anchor.at(fam(p0), k, offset)
        exact, diagnostics = weyl._window_jacobian(anchor, fam, p0)
        assert diagnostics == {"jacobian": "exact"}
        central = jacobian(weyl._window_map(anchor, fam), p0)
        assert exact.shape == central.shape == (k * k - 1, m)
        assert (np.max(np.abs(exact - central))
                <= 1e-7 * np.max(np.abs(central)))


def test_gradient_needs_coefficients():
    with pytest.raises(ValueError, match="polynomial family"):
        weyl_family().gradient(ORIGIN)
    with pytest.raises(ValueError, match="shape"):
        polynomial_weyl_family().gradient(np.zeros(2))


def _scan_points(fam, box, res):
    return [(r.p, r.rank, r.charge, r.classification)
            for r in scan_grid(fam, box, res)]


@pytest.mark.parametrize("res", [5, 11, 21])
def test_exact_and_central_difference_scans_agree(res):
    # The built-in model as terms (exact Jacobians) and wrapped as an
    # evaluator (central differences): the same points, ranks and charges.
    found = 0
    for centre, half in [((0.0, 0.0, 0.0), 0.5), ((0.1, -0.05, 0.02), 0.3),
                         ((0.17, 0.08, -0.21), 0.3),
                         ((-0.04, 0.13, 0.09), 0.2)]:
        box = [(c - half, c + half) for c in centre]
        exact = _scan_points(polynomial_weyl_family(), box, res)
        central = _scan_points(weyl_family(), box, res)
        assert len(exact) == len(central)
        for (p, *verdict), (q, *want) in zip(exact, central):
            assert np.max(np.abs(p - q)) <= 1e-10
            assert verdict == want
        found += len(exact)
    assert found >= 3


def test_scan_diagnostics_name_the_derivative():
    box = [(c - 0.3, c + 0.3) for c in (0.1, -0.05, 0.02)]
    [exact] = scan_grid(polynomial_weyl_family(), box, 11)
    [central] = scan_grid(weyl_family(), box, 11)
    assert exact.diagnostics["jacobian"] == "exact"
    assert "jacobian_noise" not in exact.diagnostics
    assert central.diagnostics["jacobian"] == "central-difference"
    assert central.diagnostics["jacobian_noise"] <= 1e-5


def _count_calls(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _refuse(monkeypatch, *names):
    def refused(*args, **kwargs):
        raise AssertionError("a polynomial family was differenced")

    for name in names:
        monkeypatch.setattr(weyl, name, refused)


def test_polynomial_scan_evaluates_few_points(monkeypatch):
    # The off-centre built-in res-11 scan: four Newton iterates from one
    # seed, and the classification. With exact Jacobians its points are the
    # iterates, the line-search candidates and the root, no more than 8.
    values = _count_calls(monkeypatch, weyl.ParamFamily, "__call__")
    gradients = _count_calls(monkeypatch, weyl.ParamFamily, "gradient")
    _refuse(monkeypatch, "jacobian", "jacobian_with_check")
    box = [(c - 0.3, c + 0.3) for c in (0.1, -0.05, 0.02)]
    [report] = scan_grid(polynomial_weyl_family(), box, 11)
    assert report.classification == "weyl" and report.charge == 1
    assert len(values) <= 8
    assert len(gradients) == report.diagnostics["newton_anchors"]


def test_classify_point_on_a_polynomial_family(monkeypatch, linalg_calls):
    # One value, one gradient and one eigendecomposition; no difference.
    values = _count_calls(monkeypatch, weyl.ParamFamily, "__call__")
    gradients = _count_calls(monkeypatch, weyl.ParamFamily, "gradient")
    _refuse(monkeypatch, "jacobian", "jacobian_with_check")
    rep = classify_point(polynomial_weyl_family(), ORIGIN)
    assert (len(values), len(gradients)) == (1, 1)
    assert [name for name, _ in linalg_calls].count("eigh") == 1
    assert (rep.classification, rep.rank, rep.charge) == ("weyl", 3, 1)
    np.testing.assert_allclose(rep.jacobian, np.sqrt(2.0) * np.eye(3),
                               rtol=0.0, atol=1e-15)
    assert rep.diagnostics == {"jacobian": "exact"}


def _dict_order_sum(terms, p):
    """Reference: sum_alpha p^alpha C_alpha for one point, each power a
    repeated product, the terms added in dict order to 0."""
    total = 0
    for alpha, coeff in terms.items():
        powers = [np.prod([x] * a) if a else 1.0 for x, a in zip(p, alpha)]
        total = total + np.prod(powers) * coeff
    return total


def test_values_are_the_dict_order_sum():
    # __call__, stack and polynomial_value give the reference's bits at
    # every sign pattern of zero and at random points, for the built-in
    # model and for random cubic families.
    rng = np.random.default_rng(23)
    families = [WEYL_EXAMPLE_TERMS,
                *(random_polynomial_terms(rng, 4, 3, 3) for _ in range(3))]
    points = np.array([*itertools.product([0.0, -0.0, 0.3, -0.7], repeat=3),
                       *rng.uniform(-2.0, 2.0, size=(50, 3))])
    for terms in families:
        fam = polynomial_family(terms)
        want = np.stack([_dict_order_sum(terms, p) for p in points])
        got = [fam.stack(points), np.stack([fam(p) for p in points]),
               weyl.polynomial_value(terms, points),
               np.stack([weyl.polynomial_value(terms, p) for p in points])]
        for mats in got:
            assert mats.dtype == want.dtype
            assert mats.tobytes() == want.tobytes()


def test_polynomial_family_refuses_bad_coefficients():
    # hermitian.hermitian's rule and message, per coefficient.
    x = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    for coeff, match in [(x, "not Hermitian"),
                         (np.diag([0.0, np.nan, 1.0]), "must be finite"),
                         (np.diag([0.0, -np.inf, 1.0]), "must be finite")]:
        terms = dict(WEYL_EXAMPLE_TERMS)
        terms[(1, 0, 0)] = coeff
        with pytest.raises(ValueError, match=rf"\(1, 0, 0\): .*{match}"):
            polynomial_family(terms)
    # An asymmetry within ASYMMETRY_RTOL passes, and no coefficient is
    # hermitized: its bytes, and a -0.0, are kept.
    near = np.array([[-0.0, 1.0 + 1e-13j], [1.0, 2.0]])
    fam = polynomial_family({(0,): near, (1,): np.eye(2, dtype=complex)})
    assert fam.terms[(0,)].tobytes() == near.tobytes()


def test_polynomial_family_keeps_its_own_coefficients():
    # The family copies the coefficients: changing the caller's array later
    # changes neither the values nor `terms`, and the copies are read-only.
    coeffs = {alpha: np.array(c) for alpha, c in WEYL_EXAMPLE_TERMS.items()}
    fam = polynomial_family(coeffs)
    p = np.array([0.3, -0.2, 0.1])
    before = fam(p).copy()
    coeffs[(1, 0, 0)][0, 1] = coeffs[(1, 0, 0)][1, 0] = 7.0
    assert np.array_equal(fam(p), before)
    assert np.array_equal(fam.stack(p[None]), before[None])
    assert np.array_equal(fam.terms[(1, 0, 0)], WEYL_EXAMPLE_TERMS[(1, 0, 0)])
    for coeff in fam.terms.values():
        assert not coeff.flags.writeable
