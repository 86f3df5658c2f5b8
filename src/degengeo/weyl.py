"""Degeneracy analysis of parameter-dependent Hamiltonians: the effective
map into the transverse coordinates of the degeneracy manifold, its Jacobian
rank, Weyl-point classification with topological charge, and grid scanning
with Newton refinement.

A smooth map p -> H(p) meeting the twofold-degeneracy manifold at an
isolated point is a Weyl point exactly when the induced map h (the
effective-Hamiltonian coordinates relative to a fixed gauge) has full-rank
Jacobian there; its topological charge is the sign of the determinant.

Scans never decompose. At its own anchor the exact map shares value and
Jacobian with the window map (traceless window block in the anchor gauge, no
rotation): every higher Schrieffer-Wolff term carries two off-block factors
of H(p) - H(p0). By the distance theorem ||h(p)|| is the window distance of
H(p)'s eigenvalues. So Newton and the classifier read one spectrum and the
window block at each anchor, the line search and the grid field only
eigenvalues; `effective_map` stays as the oracle for these shortcuts.

A family is an evaluator p -> H(p), or polynomial coefficients
{alpha: C_alpha} with H(p) = sum_alpha p^alpha C_alpha, held as one
`MonomialTable`; `splitting` takes its m = 1 case. Every evaluation, of one
point or of a stack, goes through `ParamFamily.stack`, so each gets the same
shape check and the same refusal, naming the point, of a matrix with a NaN
or infinite entry. The grid field takes as many whole grid lines as fit in
FIELD_CHUNK_ENTRIES matrix entries (at least one) through one checked
eigenvalue solve; a polynomial family builds each chunk in one broadcast
instead of one evaluator call per point. A field of
two or more chunks runs on the calling thread and one worker thread: each
takes the next chunk in C order, builds it under one lock and solves it
outside, holding one chunk at a time, so at most two chunks are alive. An
evaluator may thus be called on either thread, but one call at a time, at
the grid points in C order, and at most one chunk past the lowest unsolved
one.

The window map is linear in H, so its Jacobian is the window map of the
derivatives dH/dp_i. A polynomial family has them in closed form
(`ParamFamily.gradient`), and Newton and the classifier take that exact J,
with no evaluation beyond H(p); an evaluator family gets central
differences of the window map (`_window_jacobian`). The charge sign det J
is then the paper's, of the exact derivative.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NewtonDiverged, StepTooSmall
from .hermitian import _check_hermitian, traceless_coordinates
from .spectra import (Spectrum, checked_eigvals, eigh, unseparated_edge,
                      window_distance)
from .swtransform import Anchor

__all__ = [
    "ParamFamily",
    "param_family",
    "polynomial_family",
    "WeylReport",
    "effective_map",
    "first_order_effective_map",
    "jacobian",
    "jacobian_with_check",
    "classify_point",
    "scan_grid",
]

#: Newton declares a root of the effective map at this norm.
ROOT_TOL = 1e-10

#: Relative tolerance of the SVD rank decision.
RANK_RTOL = 1e-7

#: Converged roots closer than this are considered the same point.
DEDUP_TOL = 1e-6

#: Newton steps before a seed counts as diverged.
NEWTON_MAX_ITER = 60

#: A point is degenerate when its distance from the manifold is at most this
#: times ||H(p)||_2.
POINT_RTOL = 1e-8

#: The grid field stacks whole grid lines up to this many matrix entries
#: (matrices times n^2) per eigenvalue solve, and always at least one line.
#: Each of the field's two threads holds one such chunk at a time, and no
#: chunk is built before the one two places earlier is solved.
FIELD_CHUNK_ENTRIES = 4096


@dataclass(frozen=True, eq=False)
class MonomialTable:
    """Polynomial coefficients {exponent tuple alpha: C_alpha} as arrays:
    the exponents (t, m), the coefficient stack (t, n, n) in the same order,
    and the degree, the largest exponent entry."""

    exponents: np.ndarray
    coeffs: np.ndarray
    degree: int

    @classmethod
    def of(cls, terms):
        exponents = np.array(list(terms))
        return cls(exponents, np.stack(list(terms.values())),
                   int(exponents.max()))

    def _powers(self, points):
        """p_i^d for d = 0..degree, shape (..., degree + 1, m). Repeated
        products: `**` calls pow, about twenty times slower on a stack."""
        m = points.shape[-1]
        powers = np.ones(points.shape[:-1] + (self.degree + 1, m))
        for d in range(1, self.degree + 1):
            powers[..., d, :] = powers[..., d - 1, :] * points
        return powers

    def value(self, points):
        """sum_alpha p^alpha C_alpha at each point of `points`, shape
        (..., m): shape (..., n, n). The terms are added in order,
        elementwise, so a point gives the same bits alone as inside a
        stack."""
        axes = np.arange(points.shape[-1])
        monomials = np.prod(self._powers(points)[..., self.exponents, axes],
                            axis=-1)
        return sum(monomials[..., i, None, None] * coeff
                   for i, coeff in enumerate(self.coeffs))

    def gradient(self, p):
        """Every partial derivative at one point p of shape (m,): the stack
        (m, n, n) of dH/dp_i = sum_alpha alpha_i p^(alpha - e_i) C_alpha,
        one contraction of the coefficient stack."""
        m = len(p)
        axes = np.arange(m)
        powers = self._powers(p)
        factors = powers[self.exponents, axes]
        # weights[i, j, l]: the l-th factor of d(p^alpha_j)/dp_i.
        weights = np.repeat(factors[None], m, axis=0)
        weights[axes, :, axes] = (self.exponents * powers[
            np.maximum(self.exponents - 1, 0), axes]).T
        return np.tensordot(np.prod(weights, axis=-1), self.coeffs, axes=1)


@dataclass(frozen=True)
class ParamFamily:
    """Pure map from an m-dimensional parameter space to Hermitian matrices,
    analyzed around windows of k eigenvalues (ground window by default).
    Every evaluation goes through `stack`, a single point (`__call__`)
    included, and `stack` is the only caller of the evaluator. `table`
    holds the coefficients the evaluator evaluates (`polynomial_family`),
    `start` the spectrum of H(0) (`splitting.family`). Neither is a
    constructor argument, so both belong to this evaluator: a family built
    by hand or by `dataclasses.replace` has neither."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    m: int
    n: int
    k: int = 2
    offset: int = 0
    # compare=False: == on arrays is ambiguous.
    table: MonomialTable | None = field(default=None, init=False,
                                        compare=False)
    start: Spectrum | None = field(default=None, init=False, compare=False,
                                   repr=False)

    @property
    def terms(self):
        """The coefficients {alpha: C_alpha} of a polynomial family, else
        None."""
        if self.table is None:
            return None
        return dict(zip(map(tuple, self.table.exponents.tolist()),
                        self.table.coeffs))

    def _point(self, p):
        # A scalar is a point only when m = 1. (np.atleast_1d, in one call.)
        p = np.array(p, dtype=float, ndmin=1, copy=None)
        if p.shape != (self.m,):
            raise ValueError(f"expected a parameter point of shape ({self.m},)")
        return p

    def __call__(self, p):
        """H(p) at one point p of shape (m,), by `stack`."""
        return self.stack(self._point(p))

    def start_anchor(self):
        """The anchor at H(0), the collapsed start point of every effective
        block of a one-parameter family, from `start` when set."""
        spec = (self.start if self.start is not None
                else eigh(self(np.zeros(self.m))))
        return Anchor.from_spectrum(spec, self.k, self.offset)

    def gradient(self, p):
        """The partial derivatives dH/dp_i at p, shape (m, n, n), from the
        coefficients; ValueError for a family that has none."""
        if self.table is None:
            raise ValueError("only a polynomial family has an exact gradient")
        return self.table.gradient(self._point(p))

    def stack(self, points):
        """H(p) for every point of `points`, shape (..., m): shape
        (..., n, n). One broadcast of the coefficients when the family has
        them, else one evaluator call per point (none for no points).
        Every evaluation of the family comes here. LinAlgError names the
        first point, in C order, whose matrix has a NaN or infinite entry:
        "t = ..." for m = 1, else "p = [...]"."""
        points = np.asarray(points, dtype=float)
        if points.shape[-1:] != (self.m,):
            raise ValueError(f"expected parameter points of shape (..., "
                             f"{self.m})")
        if self.table is not None:
            # Overflow gives inf or NaN entries, refused below by name; it
            # raises no warning on the way.
            with np.errstate(over="ignore", invalid="ignore"):
                mats = self.table.value(points)
        else:
            flat = points.reshape(-1, self.m).tolist()
            if not flat:
                return np.empty(points.shape[:-1] + (self.n, self.n))
            mats = np.stack([self.evaluator(np.array(p)) for p in flat])
            mats = mats.reshape(points.shape[:-1] + mats.shape[1:])
        if not np.isfinite(mats).all():
            finite = np.isfinite(mats).all(axis=(-2, -1))
            p = points.reshape(-1, self.m)[np.argmin(finite)].tolist()
            at = f"t = {p[0]!r}" if self.m == 1 else f"p = {p!r}"
            raise np.linalg.LinAlgError(f"the family is not finite at {at}")
        return mats


def param_family(evaluator, m, k=2, offset=0):
    """Wrap an evaluator, inferring the matrix dimension at the origin."""
    h = np.asarray(evaluator(np.zeros(m)))
    return ParamFamily(evaluator=evaluator, m=m, n=h.shape[0], k=k,
                       offset=offset)


def polynomial_family(terms, k=2, offset=0):
    """The family H(p) = sum_alpha p^alpha C_alpha of the terms
    {exponent tuple alpha: n x n matrix C_alpha}; m is the length of the
    exponent tuples. ValueError unless there is a term, every alpha has m
    nonnegative integer entries, and every C_alpha is an n x n matrix that
    `hermitian._check_hermitian` accepts (finite, and Hermitian to
    ASYMMETRY_RTOL). The family keeps a read-only copy of the coefficients,
    bytes unchanged (coefficients of mixed dtypes share the promoted one),
    in one `MonomialTable` built here."""
    terms = {tuple(map(operator.index, alpha)): np.asarray(coeff)
             for alpha, coeff in terms.items()}
    if not terms:
        raise ValueError("a polynomial family needs at least one term")
    m = len(next(iter(terms)))
    n = len(next(iter(terms.values())))
    if any(len(alpha) != m or min(alpha, default=0) < 0 for alpha in terms):
        raise ValueError(f"exponent tuples must have {m} nonnegative entries")
    if any(coeff.shape != (n, n) for coeff in terms.values()):
        raise ValueError(f"coefficients must be {n} x {n} matrices")
    for alpha, coeff in terms.items():
        try:
            _check_hermitian(coeff)
        except ValueError as exc:
            raise ValueError(f"coefficient {alpha}: {exc}") from exc
    table = MonomialTable.of(terms)
    table.coeffs.setflags(write=False)
    fam = ParamFamily(evaluator=table.value, m=m, n=n, k=k, offset=offset)
    object.__setattr__(fam, "table", table)
    return fam


def effective_map(fam, p0):
    """The exact effective map h at the anchor p0: coordinates of the
    decomposition's effective Hamiltonian of H(p) in the traceless window
    basis, with the gauge fixed once from the eigenbasis of H(p0).

    h(p0) = 0 exactly when H(p0) is on the degeneracy manifold. Evaluations
    too far from the anchor propagate the decomposition's validity errors.
    """
    anchor = Anchor.at(fam(p0), fam.k, fam.offset)
    return lambda p: traceless_coordinates(anchor.heff_block(fam(p)))


def _window_map(anchor, fam):
    """p -> coordinates of the traceless window block of H(p) in the anchor's
    eigenbasis."""
    return lambda p: traceless_coordinates(anchor.window_block(fam(p)))


def first_order_effective_map(fam, p0):
    """The first-order effective Hamiltonian as a map: coordinates of the
    traceless window block of H(p) in the anchor gauge, with no rotation
    applied. At p0 it has `effective_map`'s value and Jacobian (module
    docstring), so the scan and `classify_point` differentiate it instead;
    at a Weyl point the sign of its Jacobian determinant is the charge."""
    return _window_map(Anchor.at(fam(p0), fam.k, fam.offset), fam)


def default_step(p):
    return 1e-5 * max(1.0, float(np.max(np.abs(p))))


def jacobian(h, p, step=None):
    """Central-difference Jacobian of a vector map at p; StepTooSmall unless
    0 < step < inf."""
    p = np.asarray(p, dtype=float)
    if step is None:
        step = default_step(p)
    if not 0.0 < step < np.inf:
        raise StepTooSmall(f"step must be positive and finite, got {step}")
    return np.column_stack([(h(p + e) - h(p - e)) / (2.0 * step)
                            for e in step * np.eye(len(p))])


def jacobian_with_check(h, p):
    """Jacobian plus a step-halving (Richardson) noise estimate: the largest
    relative entry change when the default step is halved. Values above 1e-5
    flag a noisy derivative."""
    p = np.asarray(p, dtype=float)
    step = default_step(p)
    j1 = jacobian(h, p, step)
    j2 = jacobian(h, p, step / 2.0)
    scale = max(float(np.max(np.abs(j1))), 1e-300)
    return j2, float(np.max(np.abs(j2 - j1))) / scale


def _window_jacobian(anchor, fam, p, check=False):
    """The Jacobian at p of the window map at `anchor`, and diagnostics
    naming the derivative taken. The one place that chooses how to
    differentiate a family.

    The window map is linear in H, so for a polynomial family J is exact:
    the traceless coordinates of the window blocks of dH/dp_i, one stacked
    `window_block` of `fam.gradient(p)`. An evaluator family gets the
    central difference `jacobian` (6 evaluations for m = 3), or with
    `check` the step-halving `jacobian_with_check` (12), whose noise
    estimate the diagnostics then carry."""
    if fam.table is not None:
        blocks = anchor.window_block(fam.gradient(p))
        return traceless_coordinates(blocks).T, {"jacobian": "exact"}
    window_map = _window_map(anchor, fam)
    if not check:
        return jacobian(window_map, p), {"jacobian": "central-difference"}
    jac, noise = jacobian_with_check(window_map, p)
    return jac, {"jacobian": "central-difference", "jacobian_noise": noise}


def _rank(jac):
    sv = np.linalg.svd(jac, compute_uv=False)
    if len(sv) == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_RTOL * sv[0]))


@dataclass(frozen=True)
class WeylReport:
    """Classification of one parameter point: the distance of H(p) from the
    degeneracy manifold, the effective map's Jacobian with its SVD rank, the
    topological charge (determinant sign for a full-rank square Jacobian,
    else 0), and the verdict."""

    p: np.ndarray
    distance: float
    jacobian: np.ndarray
    rank: int
    charge: int
    classification: str
    diagnostics: dict = field(default_factory=dict)


def classify_point(fam, p0):
    """Classify a parameter point as `weyl`, `non-generic-degeneracy`, or
    `no-degeneracy`.

    One eigendecomposition of H(p0) gives the distance from the manifold
    (from the window eigenvalues), the degeneracy threshold POINT_RTOL *
    ||H(p0)||_2 and the anchor; the Jacobian is the window map's at that
    anchor, which is the exact map's (module docstring). It is exact for a
    polynomial family (one gradient, diagnostics {"jacobian": "exact"}),
    and for an evaluator family the step-halved central difference
    (diagnostics "jacobian": "central-difference" and its "jacobian_noise",
    see `jacobian_with_check`). A degenerate point
    is a Weyl point when the parameter space is 3-dimensional, the window is
    twofold, and the Jacobian has rank 3; the charge is then the sign of its
    determinant. For other (m, k) the rank is reported and the degenerate
    verdict stays `non-generic-degeneracy` (no Weyl semantics)."""
    p0 = np.asarray(p0, dtype=float)
    spectrum = eigh(fam(p0))
    distance = window_distance(spectrum.eigenvalues, fam.k, fam.offset)
    anchor = Anchor.from_spectrum(spectrum, fam.k, fam.offset)
    jac, diagnostics = _window_jacobian(anchor, fam, p0, check=True)
    rank = _rank(jac)
    if distance > POINT_RTOL * spectrum.operator_2_norm():
        verdict, charge = "no-degeneracy", 0
    elif fam.m == 3 and fam.k == 2 and rank == 3:
        verdict = "weyl"
        charge = int(np.sign(np.linalg.det(jac)))
    else:
        verdict, charge = "non-generic-degeneracy", 0
    return WeylReport(p=p0, distance=distance, jacobian=jac, rank=rank,
                      charge=charge, classification=verdict,
                      diagnostics=diagnostics)


def _window_distance_at(fam, p):
    """The line search's merit at p: the distance of H(p) from the manifold,
    from its eigenvalues, and H(p) itself, so that an accepted candidate is
    not evaluated again; (inf, None), which halves the step, when H(p) has a
    NaN or infinite entry (`ParamFamily.stack` refuses it), when the window
    is not separated from its neighbours, or when the eigensolver fails."""
    try:
        hp = fam(p)
        vals = np.linalg.eigvalsh(hp)
    except np.linalg.LinAlgError:
        return np.inf, None
    if unseparated_edge(vals, fam.k, fam.offset) is not None:
        return np.inf, None
    return window_distance(vals, fam.k, fam.offset), hp


def _newton_refine(fam, seed):
    """Damped Newton iteration on the effective map, re-anchoring the gauge
    at the current iterate each step. Each iterate takes one spectrum and
    the window map at its anchor with its Jacobian there (exact for a
    polynomial family, one central difference for an evaluator family), and
    each line-search candidate only its window distance (module docstring);
    a candidate whose H(p) is not finite, whose window is unseparated, or
    whose eigensolver fails, halves the step. The family is evaluated once
    per point: an accepted candidate's matrix is the next iterate's. Returns
    the root and the number of re-anchorings."""
    p = np.asarray(seed, dtype=float)
    hp = fam(p)
    for anchors in range(1, NEWTON_MAX_ITER + 1):
        anchor = Anchor.at(hp, fam.k, fam.offset)
        norm = window_distance(anchor.spectrum.eigenvalues, fam.k, fam.offset)
        if norm <= ROOT_TOL:
            return p, anchors
        val = traceless_coordinates(anchor.window_block(hp))
        jac, _ = _window_jacobian(anchor, fam, p)
        try:
            full_step = np.linalg.lstsq(jac, -val, rcond=None)[0]
        except np.linalg.LinAlgError as exc:
            raise NewtonDiverged(f"Jacobian solve failed at {p}") from exc
        alpha = 1.0
        while alpha >= 1.0 / 64.0:
            candidate = p + alpha * full_step
            distance, h_candidate = _window_distance_at(fam, candidate)
            if distance < norm:
                p, hp = candidate, h_candidate
                break
            alpha /= 2.0
        else:
            raise NewtonDiverged(f"no descent step found at {p} "
                                 f"(|h| = {norm:.3e})")
    raise NewtonDiverged(f"no convergence after {NEWTON_MAX_ITER} iterations")


def _grid_axes(box, resolution):
    return [np.linspace(lo, hi, resolution) for lo, hi in box]


def _distance_field(fam, axes):
    """Distance of H(p) from the degeneracy manifold at every point of the
    grid spanned by `axes`: sqrt(sum of squared window deviations).

    The grid lines along the last axis are taken in C order, in chunks of as
    many whole lines as fit in FIELD_CHUNK_ENTRIES matrix entries and at
    least one; each chunk's matrices come from one `fam.stack` and go
    through one checked eigenvalue solve (`checked_eigvals`). A field of one
    chunk is one call on the calling thread. A field of two or more chunks
    runs on the calling thread and one worker thread (`_on_two_threads`):
    each takes the next chunk, builds it under one lock and solves it
    outside, and chunk i is built only once chunk i - 2 is solved. So the
    stacked matrices never hold more than two chunks,
    2 max(len(axes[-1]) n^2, FIELD_CHUNK_ENTRIES) entries, and an evaluator
    is called at the serial loop's points in its C order, one call at a
    time, on either thread, at most one chunk past the lowest unsolved one.
    The field has the serial loop's bits, and errors come in chunk order:
    the first failing chunk raises its own message, even when a later chunk
    failed too. A chunk that holds a matrix with a NaN or infinite entry is
    refused as it is built: `fam.stack` names its first such point."""
    shape = tuple(len(a) for a in axes)
    lines = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(
        -1, shape[-1], len(axes))
    per_chunk = max(1, FIELD_CHUNK_ENTRIES // (shape[-1] * fam.n ** 2))
    starts = range(0, len(lines), per_chunk)

    def draw(start):
        points = lines[start : start + per_chunk]
        return points, fam.stack(points)

    def solve(chunk):
        points, mats = chunk
        vals = checked_eigvals(mats.reshape(-1, fam.n, fam.n))
        return window_distance(vals, fam.k, fam.offset).reshape(
            points.shape[:2])

    if len(starts) == 1:
        parts = [solve(draw(0))]
    else:
        parts = _on_two_threads(solve, draw, starts)
    return np.concatenate(parts).reshape(shape)


def _on_two_threads(solve, draw, keys):
    """[solve(draw(key)) for key in keys], run by the calling thread and one
    worker thread.

    Each thread takes the next key and draws its item under one lock, so
    draws never overlap and come in key order, then solves the item outside
    the lock. Key i is drawn only once key i - 2 is solved: at most two
    items are alive, and no draw runs more than one key past the lowest
    unsolved one. Errors come in key order: once a draw or solve has raised,
    no further key is drawn, the solves in progress finish, and the error of
    the lowest failing key is raised. Every key below it was drawn before
    it, so its solve has finished. The worker is joined before this returns
    or raises."""
    keys = list(keys)
    items, results, errors = {}, {}, {}
    turn = threading.Condition()
    taken = 0

    def ready():
        return (errors or taken == len(keys) or taken < 2
                or taken - 2 in results)

    def work():
        nonlocal taken
        while True:
            with turn:
                turn.wait_for(ready)
                if errors or taken == len(keys):
                    return
                i, taken = taken, taken + 1
                try:
                    items[i] = draw(keys[i])
                except BaseException as exc:
                    errors[i] = exc
                    turn.notify()
                    return
            try:
                # Popped, so that the item dies with its solve.
                result = solve(items.pop(i))
            except BaseException as exc:
                with turn:
                    errors[i] = exc
                    turn.notify()
                return
            with turn:
                results[i] = result
                turn.notify()

    worker = threading.Thread(target=work, name="degengeo-field",
                              daemon=True)
    worker.start()
    try:
        work()
    finally:
        # Should this thread leave work() by a raise outside draw and
        # solve, the worker draws no further key either.
        with turn:
            taken = len(keys)
            turn.notify()
        worker.join()
    if errors:
        raise errors[min(errors)]
    return [results[i] for i in range(len(keys))]


def _local_minima(values):
    """Indices, in C order, of the 2m-neighbourhood local minima of a gridded
    scalar field: the points with no axis neighbour strictly below them."""
    values = np.asarray(values, dtype=float)
    padded = np.pad(values, 1, constant_values=np.inf)
    best = np.ones(values.shape, dtype=bool)
    for axis, size in enumerate(values.shape):
        for delta in (-1, 1):
            shifted = [slice(1, -1)] * values.ndim
            shifted[axis] = slice(1 + delta, size + 1 + delta)
            best &= ~(padded[tuple(shifted)] < values)
    return [tuple(map(int, idx)) for idx in np.argwhere(best)]


def scan_grid(fam, box, resolution):
    """Locate and classify degeneracy points of a 3-parameter family.

    The distance of H(p) from the twofold-degeneracy manifold is evaluated
    on a box grid by the distance theorem, as sqrt(k) times the standard
    deviation of the window eigenvalues, with one stacked eigenvalue solve
    per chunk of whole grid lines (`_distance_field`: at most two chunks of
    max(resolution n^2, FIELD_CHUNK_ENTRIES) matrix entries at a time). A
    field of two or more chunks runs on the calling thread and one worker
    thread, which is joined before the field returns or raises. Both build
    and solve chunks; an evaluator family is called on either thread, one
    call at a time, in C order of the grid, at most one chunk past the
    lowest unsolved one. A family that is not finite on the grid raises
    LinAlgError from `ParamFamily.stack`, naming the first such point. The
    field's local minima seed a damped Newton refinement of the effective
    map's zero. Newton and the classifier use the window map at each
    anchor, which has the exact map's value and Jacobian there, so no
    decomposition runs; a polynomial family's Jacobians are exact, with no
    differencing.
    Converged roots inside the box are deduplicated and classified; diverged
    seeds are skipped and counted. Reports come back sorted
    lexicographically by position.
    """
    if fam.m != 3:
        raise ValueError("grid scanning expects a 3-parameter family")
    box = [(float(lo), float(hi)) for lo, hi in box]
    if resolution < 2:
        raise ValueError("resolution must be at least 2 per axis")
    axes = _grid_axes(box, resolution)
    dist = _distance_field(fam, axes)

    roots = []
    skipped = 0
    margin = 1e-9 + DEDUP_TOL
    for idx in _local_minima(dist):
        seed = np.array([axes[a][idx[a]] for a in range(3)])
        try:
            root, anchors = _newton_refine(fam, seed)
        except NewtonDiverged:
            skipped += 1
            continue
        if not all(lo - margin <= x <= hi + margin
                   for x, (lo, hi) in zip(root, box)):
            continue
        if any(np.linalg.norm(root - r) <= DEDUP_TOL for r, _ in roots):
            continue
        roots.append((root, anchors))

    reports = []
    for root, anchors in sorted(roots, key=lambda ra: tuple(ra[0])):
        report = classify_point(fam, root)
        report.diagnostics["newton_anchors"] = anchors
        if skipped:
            report.diagnostics["skipped_seeds"] = skipped
        reports.append(report)
    return reports
