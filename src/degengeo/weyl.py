"""Degeneracy analysis of parameter-dependent Hamiltonians: the effective
map into the transverse coordinates of the degeneracy manifold, its Jacobian
rank, Weyl-point classification with topological charge, and grid scanning
with Newton refinement.

A smooth map p -> H(p) meeting the twofold-degeneracy manifold at an
isolated point is a Weyl point exactly when the induced map h (the
effective-Hamiltonian coordinates relative to a fixed gauge) has full-rank
Jacobian there; its topological charge is the sign of the determinant. The
first-order effective map (traceless window block, no rotation) has the same
Jacobian rank at the degeneracy, so either map decides the classification.

Grid scans seed Newton from the minima of the distance field. By the
distance theorem that field needs only the window eigenvalues of H(p), so it
is read off one stacked eigendecomposition per grid line, never from a
closest-point projection per grid point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DegenError, NewtonDiverged, StepTooSmall
from .hermitian import traceless_coordinates
from .projection import collapse_projection
from .spectra import eigh, window_distance
from .swtransform import Anchor

__all__ = [
    "ParamFamily",
    "param_family",
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


@dataclass(frozen=True)
class ParamFamily:
    """Pure map from an m-dimensional parameter space to Hermitian matrices,
    analyzed around windows of k eigenvalues (ground window by default)."""

    evaluator: Callable[[np.ndarray], np.ndarray]
    m: int
    n: int
    k: int = 2
    offset: int = 0

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        if p.shape != (self.m,):
            raise ValueError(f"expected a parameter point of shape ({self.m},)")
        return np.asarray(self.evaluator(p))


def param_family(evaluator, m, k=2, offset=0):
    """Wrap an evaluator, inferring the matrix dimension at the origin."""
    h = np.asarray(evaluator(np.zeros(m)))
    return ParamFamily(evaluator=evaluator, m=m, n=h.shape[0], k=k,
                       offset=offset)


def effective_map(fam, p0):
    """The exact effective map h at the anchor p0: coordinates of the
    decomposition's effective Hamiltonian of H(p) in the traceless window
    basis, with the gauge fixed once from the eigenbasis of H(p0).

    h(p0) = 0 exactly when H(p0) is on the degeneracy manifold. Evaluations
    too far from the anchor propagate the decomposition's validity errors.
    """
    anchor = Anchor.at(fam(p0), fam.k, fam.offset)
    return lambda p: traceless_coordinates(anchor.heff_block(fam(p)))


def first_order_effective_map(fam, p0):
    """The first-order effective map: coordinates of the traceless window
    block of H(p) in the anchor gauge, with no rotation applied. Its
    Jacobian rank at a degeneracy point equals that of the exact map, so it
    suffices for Weyl classification."""
    anchor = Anchor.at(fam(p0), fam.k, fam.offset)
    return lambda p: traceless_coordinates(anchor.window_block(fam(p)))


def _central_difference(h, p, step):
    p = np.asarray(p, dtype=float)
    cols = []
    for i in range(len(p)):
        e = np.zeros_like(p)
        e[i] = step
        cols.append((h(p + e) - h(p - e)) / (2.0 * step))
    return np.column_stack(cols)


def default_step(p):
    return 1e-5 * max(1.0, float(np.max(np.abs(p))))


def jacobian(h, p, step=None):
    """Central-difference Jacobian of a vector map at p."""
    p = np.asarray(p, dtype=float)
    if step is None:
        step = default_step(p)
    if step <= 0.0:
        raise StepTooSmall(f"step must be positive, got {step}")
    return _central_difference(h, p, step)


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


def _rank(jac, rtol=RANK_RTOL):
    sv = np.linalg.svd(jac, compute_uv=False)
    if len(sv) == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rtol * sv[0]))


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


def classify_point(fam, p0, point_tol=None, use_first_order=False):
    """Classify a parameter point as `weyl`, `non-generic-degeneracy`, or
    `no-degeneracy`.

    A point is degenerate when the distance of H(p0) from the manifold is at
    most point_tol (default 1e-8 times ||H(p0)||_2). A degenerate point is a
    Weyl point when the parameter space is 3-dimensional, the window is
    twofold, and the effective map's Jacobian has rank 3; the charge is then
    the sign of its determinant. For other (m, k) the rank is reported and
    the degenerate verdict stays `non-generic-degeneracy` (no Weyl
    semantics). `use_first_order` classifies through the first-order map."""
    p0 = np.asarray(p0, dtype=float)
    pr = collapse_projection(fam(p0), fam.k, offset=fam.offset)
    if point_tol is None:
        point_tol = 1e-8 * pr.spectrum.operator_2_norm()
    # The map is anchored at H(p0), through the projection's spectrum.
    anchor = Anchor.from_spectrum(pr.spectrum, fam.k, fam.offset)
    block = anchor.window_block if use_first_order else anchor.heff_block
    h = lambda p: traceless_coordinates(block(fam(p)))  # noqa: E731
    jac, noise = jacobian_with_check(h, p0)
    rank = _rank(jac)
    diagnostics = {"jacobian_noise": noise, "h_norm": float(
        np.linalg.norm(h(p0)))}
    if pr.distance > point_tol:
        verdict, charge = "no-degeneracy", 0
    elif fam.m == 3 and fam.k == 2 and rank == 3:
        verdict = "weyl"
        charge = int(np.sign(np.linalg.det(jac)))
    else:
        verdict, charge = "non-generic-degeneracy", 0
    return WeylReport(
        p=p0,
        distance=pr.distance,
        jacobian=jac,
        rank=rank,
        charge=charge,
        classification=verdict,
        diagnostics=diagnostics,
    )


def _newton_refine(fam, seed, max_iter=60):
    """Damped Newton iteration on the effective map, re-anchoring the gauge
    at the current iterate each step (the map is only defined near its
    anchor). Returns the root and the number of re-anchorings."""
    p = np.asarray(seed, dtype=float)
    anchors = 0
    for _ in range(max_iter):
        h = effective_map(fam, p)
        anchors += 1
        val = h(p)
        norm = float(np.linalg.norm(val))
        if norm <= ROOT_TOL:
            return p, anchors
        jac = jacobian(h, p)
        try:
            full_step = np.linalg.lstsq(jac, -val, rcond=None)[0]
        except np.linalg.LinAlgError as exc:
            raise NewtonDiverged(f"Jacobian solve failed at {p}") from exc
        alpha = 1.0
        while alpha >= 1.0 / 64.0:
            candidate = p + alpha * full_step
            try:
                new_norm = float(np.linalg.norm(h(candidate)))
            except (DegenError, np.linalg.LinAlgError):
                new_norm = np.inf
            if new_norm < norm:
                p = candidate
                break
            alpha /= 2.0
        else:
            raise NewtonDiverged(
                f"no descent step found at {p} (|h| = {norm:.3e})"
            )
    raise NewtonDiverged(f"no convergence after {max_iter} iterations")


def _grid_axes(box, resolution):
    return [np.linspace(lo, hi, resolution) for lo, hi in box]


def _distance_field(fam, axes):
    """Distance of H(p) from the degeneracy manifold at every point of the
    grid spanned by `axes`: sqrt(sum of squared window deviations), from one
    eigendecomposition of the stacked matrices of each grid line along the
    last axis, so memory stays O(len(axes[-1]) n^2)."""
    dist = np.empty(tuple(len(a) for a in axes))
    for i, x in enumerate(axes[0]):
        for j, y in enumerate(axes[1]):
            line = np.stack([fam(np.array([x, y, z])) for z in axes[2]])
            dist[i, j] = window_distance(eigh(line).eigenvalues, fam.k,
                                         fam.offset)
    return dist


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


def scan_grid(fam, box, resolution, seed_threshold=None, point_tol=None):
    """Locate and classify degeneracy points of a 3-parameter family.

    The distance of H(p) from the twofold-degeneracy manifold is evaluated
    on a box grid by the distance theorem, as sqrt(k) times the standard
    deviation of the window eigenvalues, with one stacked eigendecomposition
    per grid line; local minima (below `seed_threshold`, when given) seed a
    damped Newton refinement of the effective map's zero. Converged roots
    inside the box are deduplicated and classified; diverged seeds are
    skipped and reported. Reports come back sorted lexicographically by
    position.
    """
    if fam.m != 3:
        raise ValueError("grid scanning expects a 3-parameter family")
    box = [(float(lo), float(hi)) for lo, hi in box]
    if resolution < 2:
        raise ValueError("resolution must be at least 2 per axis")
    axes = _grid_axes(box, resolution)
    dist = _distance_field(fam, axes)

    seeds = []
    for idx in _local_minima(dist):
        if seed_threshold is not None and dist[idx] > seed_threshold:
            continue
        seeds.append(np.array([axes[a][idx[a]] for a in range(3)]))

    roots = []
    skipped = []
    margin = 1e-9 + DEDUP_TOL
    for seed in seeds:
        try:
            root, anchors = _newton_refine(fam, seed)
        except NewtonDiverged as exc:
            skipped.append((seed, str(exc)))
            continue
        inside = all(
            lo - margin <= root[a] <= hi + margin
            for a, (lo, hi) in enumerate(box)
        )
        if not inside:
            continue
        if any(np.linalg.norm(root - r) <= DEDUP_TOL for r, _ in roots):
            continue
        roots.append((root, anchors))

    reports = []
    for root, anchors in sorted(roots, key=lambda ra: tuple(ra[0])):
        report = classify_point(fam, root, point_tol=point_tol)
        report.diagnostics["newton_anchors"] = anchors
        if skipped:
            report.diagnostics["skipped_seeds"] = len(skipped)
        reports.append(report)
    return reports
