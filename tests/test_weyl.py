"""Effective maps, Jacobian rank, Weyl classification, and grid scans."""

import itertools
import re
import threading
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degengeo import swtransform, weyl
from degengeo.errors import DegenError, NewtonDiverged, StepTooSmall
from degengeo.hermitian import random_hermitian
from degengeo.models import WEYL_EXAMPLE_TERMS, example_pr, weyl_example
from degengeo.projection import collapse_projection, distance_to_sigma
from degengeo.splitting import estimate_order, family, linear_family
from degengeo.swtransform import Anchor
from degengeo.weyl import (
    MonomialTable,
    _newton_refine,
    _window_distance_at,
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


def test_line_search_merit_refuses_a_matrix_that_is_not_finite():
    # diag(x, -x, 2) with its third level NaN past x = 0.2: eigvalsh alone
    # gives diag(0.3, -0.3, NaN) window distance 0, a descent step.
    def evaluator(p):
        h = np.diag([p[0], -p[0], 2.0])
        if p[0] > 0.2:
            h[2, 2] = np.nan
        return h

    fam = weyl.ParamFamily(evaluator, m=3, n=3)
    assert _window_distance_at(fam, np.array([0.3, 0.1, 0.1])) == (np.inf,
                                                                   None)


def nan_past_half(p):
    """Window block (x^3 - 0.001) sigma_z + y sigma_x + z sigma_y next to a
    third level at 1, which is NaN past x = 0.5. At the origin, the one
    minimum of the res-5 field on [-0.3, 0.3]^3, d(x^3)/dx vanishes, so the
    central-difference Newton step lands near x = 1e7, and every halving
    down to 1/64 of it stays past x = 0.5."""
    x, y, z = p
    d = x ** 3 - 0.001
    h = np.array([[d, y - 1j * z, 0.0], [y + 1j * z, -d, 0.0],
                  [0.0, 0.0, 1.0]])
    if x > 0.5:
        h[2, 2] = np.nan
    return h


def test_newton_gives_up_a_step_into_a_family_that_is_not_finite():
    fam = weyl.ParamFamily(nan_past_half, m=3, n=3)
    assert scan_grid(fam, [(-0.3, 0.3)] * 3, 5) == []
    with pytest.raises(NewtonDiverged, match="^no descent step found"):
        _newton_refine(fam, ORIGIN)


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


def _near_tie(values, idx, atol):
    """Whether the grid point idx of values has an axis neighbour whose value
    is within atol of its own."""
    for axis in range(values.ndim):
        for delta in (-1, 1):
            other = list(idx)
            other[axis] += delta
            if (0 <= other[axis] < values.shape[axis]
                    and abs(values[tuple(other)] - values[idx]) <= atol):
                return True
    return False


def _check_scan_matches_point_loop(monkeypatch, fam, centre, res):
    box = [(c - 0.5, c + 0.5) for c in centre]
    axes = weyl._grid_axes(box, res)
    field = weyl._distance_field(fam, axes)
    reference = _distance_field_loop(fam, axes)
    atol = 1e-13
    np.testing.assert_allclose(field, reference, rtol=0.0, atol=atol)
    # Fields that agree to atol may break a near-tie between neighbours
    # apart differently: a seed on one side only must sit at such a tie.
    seeds = set(weyl._local_minima(field)), set(weyl._local_minima(reference))
    for values, own, other in ((field, *seeds), (reference, *seeds[::-1])):
        assert all(_near_tie(values, idx, atol) for idx in own - other)
    outcome = _scan_outcome(fam, box, res)
    monkeypatch.setattr(weyl, "_distance_field", _distance_field_loop)
    assert outcome == _scan_outcome(fam, box, res)


_centres = st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3)


@settings(max_examples=10, deadline=None)
@given(centre=_centres, res=st.integers(3, 9))
# An exact tie between x = -0.1 and x = 0.1, which the point loop breaks by
# 1 ulp: seeds [(1, 4, 1), (2, 4, 1)] on the field, [(1, 4, 1)] on the loop.
@example(centre=[0.2, -0.29999999999999993, 0.25], res=6)
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


def _serial_field(monkeypatch):
    """Make `_distance_field` take the serial loop for every family."""
    monkeypatch.setattr(weyl, "_on_two_threads", lambda solve, draw, keys:
                        [solve(draw(key)) for key in keys])


def _traced_family(evaluate, seen):
    """The evaluator family of evaluate (offset 1), recording the thread and
    the point of every call after its construction in seen."""
    def evaluator(p):
        seen.append((threading.get_ident(), tuple(p.tolist())))
        return evaluate(p)

    fam = param_family(evaluator, 3, offset=1)
    seen.clear()
    return fam


def _solve_threads(monkeypatch):
    """The threads the field's eigenvalue solves run on, in call order."""
    threads = []
    real = weyl.checked_eigvals

    def recorded(h):
        threads.append(threading.get_ident())
        return real(h)

    monkeypatch.setattr(weyl, "checked_eigvals", recorded)
    return threads


@pytest.mark.parametrize("seed, res", [(0, 5), (1, 7), (2, 15)])
def test_pipelined_field_equals_the_polynomial_field(monkeypatch, seed, res):
    # n = 16: 3, 2 and 1 grid lines a chunk, 9, 25 and 225 chunks. The
    # polynomial family's chunks, and the same family wrapped as an
    # evaluator, are solved on this thread and at most one other, and the
    # field keeps every bit.
    poly = polynomial_family(random_terms(seed, n=16), offset=1)
    evaluated = param_family(poly, 3, offset=1)
    centre = np.random.default_rng(seed).uniform(-0.1, 0.1, size=3)
    axes = weyl._grid_axes([(c - 0.4, c + 0.4) for c in centre], res)
    threads = _solve_threads(monkeypatch)
    shared = weyl._distance_field(poly, axes)
    assert len(set(threads) - {threading.get_ident()}) <= 1
    threads.clear()
    pipelined = weyl._distance_field(evaluated, axes)
    assert len(set(threads) - {threading.get_ident()}) <= 1
    assert np.array_equal(pipelined, shared)


@pytest.mark.parametrize("n, res", [(3, 5), (3, 11), (3, 21), (16, 7),
                                    (16, 15)])
def test_shared_field_equals_the_serial_loop(monkeypatch, n, res):
    # Off-centre grids of 1, 3 (41, 41 and 39 grid lines), 21, 25 and 225
    # chunks. Two threads building and solving a polynomial family's chunks
    # give the serial loop's bits, run after run.
    if n == 3:
        fam = polynomial_weyl_family()
        centre = np.array([0.031, -0.017, 0.012])
    else:
        fam = polynomial_family(random_terms(res, n=16), offset=1)
        centre = np.random.default_rng(res).uniform(-0.1, 0.1, size=3)
    axes = weyl._grid_axes([(c - 0.4, c + 0.4) for c in centre], res)
    shared = {weyl._distance_field(fam, axes).tobytes() for _ in range(2)}
    _serial_field(monkeypatch)
    assert shared == {weyl._distance_field(fam, axes).tobytes()}


def test_shared_field_runs_on_one_worker(monkeypatch):
    # n = 3, res 21: 21 chunks. The first solve of each thread waits for a
    # solve on another thread, so the calling thread and one worker each
    # solve a chunk, the two at once; no third thread runs, and none is
    # left afterwards. The worker may have returned before the calling
    # thread's last solve, so later solves see at most one worker.
    before = threading.active_count()
    meeting = threading.Barrier(2, timeout=30)
    seen, firsts, counts = [], [], []
    real = weyl.checked_eigvals

    def solve(h):
        counts.append(threading.active_count())
        if threading.get_ident() not in seen:
            seen.append(threading.get_ident())
            firsts.append(counts[-1])
            meeting.wait()
        return real(h)

    monkeypatch.setattr(weyl, "checked_eigvals", solve)
    axes = weyl._grid_axes([(-0.5, 0.5)] * 3, 21)
    field = weyl._distance_field(polynomial_weyl_family(), axes)
    assert threading.active_count() == before
    assert len(seen) == 2 and threading.get_ident() in seen
    assert firsts == [before + 1] * 2
    assert len(counts) == 21 and max(counts) == before + 1
    with pytest.MonkeyPatch.context() as mp:
        _serial_field(mp)
        mp.setattr(weyl, "checked_eigvals", real)
        assert np.array_equal(field, weyl._distance_field(
            polynomial_weyl_family(), axes))


def test_shared_field_raises_the_first_failing_chunk(monkeypatch):
    # n = 3, res 21: 21 chunks of one plane each. Chunks 2 and 3 fail, and
    # chunk 2's solve waits until chunk 3 has failed on the other thread
    # (chunk 4 would wait for chunk 2): chunk 2's message is raised all the
    # same, no chunk after the failure is taken, and the worker is gone.
    # The serial loop raises the same.
    fam = polynomial_weyl_family()
    axes = weyl._grid_axes([(-0.5, 0.5)] * 3, 21)
    chunks = [fam.stack(np.stack(np.meshgrid(x, *axes[1:], indexing="ij"),
                                 axis=-1)).reshape(-1, 3, 3)
              for x in axes[0]]
    real = weyl.checked_eigvals

    def run(wait):
        late_failure = threading.Event()
        solved = []

        def solve(h):
            index = next(i for i, c in enumerate(chunks)
                         if np.array_equal(c, h))
            solved.append(index)
            if index == 2 and wait:
                assert late_failure.wait(timeout=30)
            if index in (2, 3):
                if index == 3:
                    late_failure.set()
                raise np.linalg.LinAlgError(f"chunk {index} failed")
            return real(h)

        before = threading.active_count()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(weyl, "checked_eigvals", solve)
            if not wait:
                _serial_field(mp)
            with pytest.raises(np.linalg.LinAlgError) as caught:
                weyl._distance_field(fam, axes)
        assert threading.active_count() == before
        return str(caught.value), sorted(solved)

    assert run(wait=True) == ("chunk 2 failed", [0, 1, 2, 3])
    assert run(wait=False) == ("chunk 2 failed", [0, 1, 2])


def test_pipelined_field_evaluates_as_the_serial_loop(monkeypatch):
    # The evaluator is called one call at a time, at the grid points in C
    # order, in the two-thread field as in the serial loop: each call holds
    # a lock, and sleeps with it so that the other thread gets to run, and a
    # call that finds the lock taken fails the field.
    fam = random_family(4, n=16)
    axes = weyl._grid_axes([(-0.3, 0.5), (-0.4, 0.2), (0.0, 0.6)], 6)
    busy = threading.Lock()

    def exclusive(p):
        if not busy.acquire(blocking=False):
            raise AssertionError(f"overlapping evaluator call at {p}")
        try:
            time.sleep(1e-4)
            return fam(p)
        finally:
            busy.release()

    runs = []
    for serial in (False, True):
        seen = []
        traced = _traced_family(exclusive, seen)
        with pytest.MonkeyPatch.context() as mp:
            if serial:
                _serial_field(mp)
            field = weyl._distance_field(traced, axes)
        runs.append((seen, field))
    (threaded, field), (serial, reference) = runs
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    in_c_order = [tuple(p) for p in grid.reshape(-1, 3).tolist()]
    assert [p for _, p in threaded] == [p for _, p in serial] == in_c_order
    assert np.array_equal(field, reference)


@pytest.mark.parametrize("fam", [polynomial_weyl_family(), weyl_family()],
                         ids=["polynomial", "evaluator"])
def test_field_draws_at_most_one_chunk_past_the_lowest_unsolved(monkeypatch,
                                                                 fam):
    # n = 3, res 21: 21 chunks. While the solve of chunk 0 is held, the
    # other thread draws and solves chunk 1, then waits: the held solve
    # gives it 0.2 s to start drawing chunk 2 before letting the field go
    # on, and fails the field if it does.
    drawn, current = [], {}
    second_solved, third_drawn = threading.Event(), threading.Event()
    real_stack, real_solve = weyl.ParamFamily.stack, weyl.checked_eigvals

    def stack(self, points):
        current[threading.get_ident()] = len(drawn)
        drawn.append(threading.get_ident())
        if len(drawn) == 3:
            third_drawn.set()
        return real_stack(self, points)

    def solve(h):
        index = current[threading.get_ident()]
        if index == 0:
            assert second_solved.wait(timeout=30), "chunk 1 was not solved"
            assert not third_drawn.wait(timeout=0.2), "chunk 2 was drawn"
        vals = real_solve(h)
        if index == 1:
            second_solved.set()
        return vals

    monkeypatch.setattr(weyl.ParamFamily, "stack", stack)
    monkeypatch.setattr(weyl, "checked_eigvals", solve)
    field = weyl._distance_field(fam, weyl._grid_axes([(-0.5, 0.5)] * 3, 21))
    assert field.shape == (21, 21, 21) and len(drawn) == 21
    assert len(set(drawn)) == 2


def _failing_family(bad_chunk, raising_chunk, res):
    """An n = 16 evaluator family whose field, at resolution res, has one
    non-Hermitian matrix (the fourth) in chunk bad_chunk and whose evaluator
    raises in chunk raising_chunk (None: never), and the points it was
    called at."""
    fam = random_family(5, n=16)
    per_chunk = res * max(1, weyl.FIELD_CHUNK_ENTRIES // (res * 16 ** 2))
    seen = []

    def evaluate(p):
        chunk, index = divmod(len(seen) - 1, per_chunk)
        if chunk == raising_chunk:
            raise RuntimeError(f"no matrix at {p.tolist()}")
        h = fam(p)
        if chunk == bad_chunk and index == 3:
            h = h.copy()
            h[0, 5] += 0.5
        return h

    return _traced_family(evaluate, seen), seen


def _field_error(fam, axes):
    with pytest.raises(Exception) as caught:
        weyl._distance_field(fam, axes)
    return type(caught.value), str(caught.value)


def _not_finite_past(x0):
    """An n = 16 evaluator family whose matrices are NaN where x > x0."""
    fam = random_family(5, n=16)

    def evaluate(p):
        return fam(p) if p[0] <= x0 else np.full((16, 16), np.nan)

    return param_family(evaluate, 3, offset=1)


@pytest.mark.parametrize("fam, box, res, p", [
    # Built-in model: H(p) overflows on every plane of the grid, in a
    # field of one chunk and in one of 21 chunks on two threads.
    pytest.param(polynomial_weyl_family(), [(-1e200, 1e200)] * 3, 3,
                 [-1e200] * 3, id="overflow-1-chunk"),
    pytest.param(polynomial_weyl_family(), [(-1e200, 1e200)] * 3, 21,
                 [-1e200] * 3, id="overflow-21-chunks"),
    # An evaluator: NaN from the sixth of nine chunks on, first at
    # linspace(-0.4, 0.4, 5)[3].
    pytest.param(_not_finite_past(0.15), [(-0.4, 0.4)] * 3, 5,
                 [0.20000000000000007, -0.4, -0.4], id="nan-evaluator"),
])
def test_field_refuses_a_family_that_is_not_finite(fam, box, res, p):
    # The first chunk that holds a non-finite matrix is refused as it is
    # built (`ParamFamily.stack`), naming its first such point, the serial
    # loop's error; no warning escapes on the way, and no thread is left.
    axes = weyl._grid_axes(box, res)
    message = f"the family is not finite at p = {p!r}"
    before = threading.active_count()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _field_error(fam, axes) == (np.linalg.LinAlgError, message)
        with pytest.MonkeyPatch.context() as mp:
            _serial_field(mp)
            assert _field_error(fam, axes) == (np.linalg.LinAlgError,
                                               message)
    assert threading.active_count() == before


def _nan_where(bad, m):
    """An m-parameter evaluator family of diag(0, 1, 2 + p_0) that is NaN at
    the points of `bad`."""
    def evaluate(p):
        h = np.diag([0.0, 1.0, 2.0 + p[0]]).astype(complex)
        return h * np.nan if p.tolist() in bad else h

    return param_family(evaluate, m)


@pytest.mark.parametrize("fam, points, at", [
    (_nan_where([[0.75], [0.5]], 1), [[0.25], [0.75], [0.5]], "t = 0.75"),
    (_nan_where([[2.0, 0.0, 1.0], [1.0, 0.0, 0.5]], 3),
     [[[0.0, 0.0, 0.0], [1.0, 0.0, 0.5]], [[2.0, 0.0, 1.0], [3.0, 0.0, 0.0]]],
     "p = [1.0, 0.0, 0.5]"),
    # H(p) = diag(0, 1, 2) + x^2 diag(1, 1, -1) overflows past x = 1e154.
    (polynomial_family({(0, 0, 0): np.diag([0.0, 1.0, 2.0]),
                        (2, 0, 0): np.diag([1.0, 1.0, -1.0])}),
     [[3.0, 0.0, 0.0], [1e300, 0.0, 0.0], [1e200, 1.0, 0.0]],
     "p = [1e+300, 0.0, 0.0]"),
])
def test_stack_refuses_a_family_that_is_not_finite(fam, points, at):
    # The stack names its first non-finite point in C order, by "t" for a
    # one-parameter family, with no warning on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        message = f"^the family is not finite at {re.escape(at)}$"
        with pytest.raises(np.linalg.LinAlgError, match=message):
            fam.stack(np.array(points))
        first = np.array(points).reshape(-1, fam.m)[:1]
        assert np.isfinite(fam.stack(first)).all()


@pytest.mark.parametrize("bad_chunk, raising_chunk", [
    (2, 3), (2, None), (None, 3), (0, 1), (7, 8), (8, None), (None, 8)])
def test_pipelined_field_raises_in_chunk_order(monkeypatch, bad_chunk,
                                               raising_chunk):
    # res 5, n = 16: nine chunks of three grid lines. An eigendecomposition
    # that fails in chunk i wins over an evaluator error in chunk i + 1,
    # with the serial loop's message; the evaluator runs at most one chunk
    # past the failing one, and the worker is gone when the field raises.
    axes = weyl._grid_axes([(-0.4, 0.4)] * 3, 5)
    before = threading.active_count()
    fam, seen = _failing_family(bad_chunk, raising_chunk, 5)
    pipelined = _field_error(fam, axes)
    evaluated = len(seen)
    assert threading.active_count() == before
    with pytest.MonkeyPatch.context() as mp:
        _serial_field(mp)
        fam, seen = _failing_family(bad_chunk, raising_chunk, 5)
        serial = _field_error(fam, axes)
    assert pipelined == serial
    if bad_chunk is not None:
        assert serial[0] is np.linalg.LinAlgError
        assert serial[1].startswith("eigendecomposition residual of matrix "
                                    "(3,) ")
        assert len(seen) <= evaluated <= len(seen) + 15
    else:
        assert serial[0] is RuntimeError
        assert evaluated == len(seen)


def test_scan_leaves_no_thread_behind():
    # One worker thread while the field is evaluated, none after the scan
    # returns or raises.
    before = threading.active_count()
    counts = []

    def counted(p):
        counts.append(threading.active_count())
        return fam(p)

    fam = random_family(6, n=16)
    box = [(c - 0.3, c + 0.3) for c in (0.031, -0.017, 0.012)]
    reports = scan_grid(param_family(counted, 3, offset=1), box, 7)
    assert [r.classification for r in reports] == ["weyl"]
    assert max(counts) == before + 1
    assert threading.active_count() == before
    bad, _ = _failing_family(4, 5, 7)
    with pytest.raises(np.linalg.LinAlgError):
        scan_grid(bad, box, 7)
    assert threading.active_count() == before


@pytest.mark.parametrize("fam, res", [
    # Fields of one chunk, polynomial and evaluator: 125, 8, 64 and 125
    # matrices.
    pytest.param(polynomial_weyl_family(), 5, id="polynomial-n3"),
    pytest.param(polynomial_family(random_terms(3, n=16), offset=1), 2,
                 id="polynomial-n16"),
    pytest.param(weyl_family(), 4, id="one-chunk-n3"),
    pytest.param(random_family(1, n=5), 5, id="one-chunk-n5"),
])
def test_serial_fields_start_no_thread(monkeypatch, fam, res):
    started = []
    real = threading.Thread.start

    def start(self):
        started.append(self)
        real(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    threads = _solve_threads(monkeypatch)
    axes = weyl._grid_axes([(-0.5, 0.5)] * 3, res)
    assert res ** 3 * fam.n ** 2 <= weyl.FIELD_CHUNK_ENTRIES
    weyl._distance_field(fam, axes)
    assert started == []
    assert threads == [threading.get_ident()]


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
    # __call__, stack and MonomialTable.value give the reference's bits at
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
               MonomialTable.of(terms).value(points),
               np.stack([MonomialTable.of(terms).value(p) for p in points])]
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


def test_replaced_polynomial_family_drops_its_coefficients():
    # `replace` with another evaluator keeps no coefficients of the old
    # one: the copy has no table, and its stack equals its calls, which are
    # the new evaluator's, so no exact gradient is offered either.
    def shifted(p):
        return weyl_example(*p) + 6.0 * np.eye(3)

    swapped = replace(polynomial_weyl_family(), evaluator=shifted)
    assert swapped.table is None and swapped.terms is None
    points = np.array([[0.3, -0.2, 0.1], [0.0, 0.0, 0.0], [-0.5, 0.4, 0.2]])
    stacked = swapped.stack(points)
    assert np.array_equal(stacked, np.stack([swapped(p) for p in points]))
    assert np.array_equal(stacked, np.stack([shifted(p) for p in points]))
    with pytest.raises(ValueError, match="exact gradient"):
        swapped.gradient(points[0])


def test_one_parameter_families_are_param_families():
    # `family` and `linear_family` give m = 1 evaluator families, which take
    # a scalar t as the point [t]; a family with m = 3 refuses a scalar.
    h0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    h1 = np.diag([1.0, -1.0, 0.0]).astype(complex)
    for fam in (family(lambda t: h0 + t * h1, 2), linear_family(h0, h1, 2)):
        assert type(fam) is weyl.ParamFamily
        assert (fam.m, fam.n, fam.k, fam.offset) == (1, 3, 2, 0)
        assert fam.table is None and fam.start is not None
        assert np.array_equal(fam(0.5), h0 + 0.5 * h1)
        assert np.array_equal(fam(0.5), fam([0.5]))
        assert np.array_equal(fam.stack([[0.5], [-0.25]]),
                              [fam(0.5), fam(-0.25)])
    with pytest.raises(ValueError, match=r"shape \(3,\)"):
        weyl_family()(0.5)


def test_stack_of_no_points_is_empty():
    # No points give a (0, n, n) stack, with no evaluator call.
    def unused(p):
        raise AssertionError("the evaluator was called")

    for m in (1, 3):
        fam = weyl.ParamFamily(unused, m=m, n=4)
        assert fam.stack(np.empty((0, m))).shape == (0, 4, 4)
