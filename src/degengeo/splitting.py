"""One-parameter family analysis: energy-splitting functions, order-of-
vanishing estimation on geometric ladders, and the cascade that resolves
degenerate eigenvalue branches level by level.

A family is a map t -> H(t) with H(0) exactly degenerate on a k-fold window.
Five splitting measures (standard deviation of the window eigenvalues, all
pairwise differences, neighbouring differences, the extreme difference, and
deviations from the mean) vanish at t = 0 with one common integer order,
which also equals the order of the distance from the degeneracy manifold and
of the effective-Hamiltonian norm. The estimators here recover that integer
from log-log slopes; the cascade recovers it per eigenvalue pair together
with the index permutation that makes the eigenvalue branches analytic
through t = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Callable

import numpy as np

from .errors import DegenError, InconclusiveFit
from .hermitian import frobenius_norm
from .spectra import (
    DEGENERACY_RTOL,
    classify_stratum,
    coincidence_tolerance,
    eigh,
    unseparated_edge,
    window_spread,
    window_width,
)
from .swtransform import Anchor

__all__ = [
    "FamilyHandle",
    "family",
    "linear_family",
    "SplittingSample",
    "splitting_samples",
    "OrderEstimate",
    "estimate_order",
    "estimate_all_orders",
    "FIVE_METHODS",
    "signed_stddev",
    "signed_stddev_fit_residual",
    "CascadeResult",
    "cascade",
    "default_ladder",
]

#: The five equivalent splitting measures whose orders provably agree.
FIVE_METHODS = ("stddev", "pairwise", "neighbor", "extreme", "mean")

#: Relative floor below which sampled values count as identically zero.
ZERO_FLOOR_RTOL = 1e-12

#: Accepted deviation of a fitted log-log slope from the nearest integer.
SLOPE_TOL = 0.2

#: Relative gap at or below which the cascade groups the extrapolated
#: eigenvalues of one level into a cluster that stays degenerate.
CLUSTER_RTOL = 1e-4


def default_ladder(start=3, stop=16):
    """Geometric ladder t = 2^-start .. 2^-stop."""
    return np.array([2.0 ** -e for e in range(start, stop + 1)])


@dataclass(frozen=True)
class FamilyHandle:
    """One-parameter family of Hermitian matrices, degenerate at t = 0 on
    the window of k eigenvalues starting after `offset` (ascending order)."""

    evaluator: Callable[[float], np.ndarray]
    n: int
    k: int
    offset: int = 0

    def __call__(self, t):
        return np.asarray(self.evaluator(float(t)))


def family(evaluator, k, offset=0):
    """Wrap an evaluator after checking that H(0) is degenerate on the window.

    The window eigenvalues of H(0) must coincide within the grouping
    tolerance and be strictly separated from their neighbours.
    """
    h0 = np.asarray(evaluator(0.0))
    vals = eigh(h0).eigenvalues
    tol = coincidence_tolerance(vals, DEGENERACY_RTOL)
    width = window_width(vals, k, offset)
    if width > tol:
        raise ValueError(
            f"H(0) window eigenvalues spread {width:.3e} "
            f"exceeds tolerance {tol:.3e}; the family must start degenerate"
        )
    if unseparated_edge(vals, k, offset, tol) is not None:
        raise ValueError("H(0) window is not strictly separated")
    return FamilyHandle(evaluator=evaluator, n=h0.shape[0], k=k,
                        offset=offset)


def linear_family(h0, h1, k, offset=0):
    """The straight line t -> H0 + t H1."""
    h0 = np.asarray(h0)
    h1 = np.asarray(h1)
    return family(lambda t: h0 + t * h1, k, offset=offset)


@dataclass(frozen=True)
class SplittingSample:
    """Window splitting measures of one family sample H(t).

    pairwise maps 1-based window index pairs (i, j), i < j, to
    lambda_i - lambda_j; mean_dev holds lambda_i minus the window mean;
    heff_norm is ||H_eff(t)|| from the decomposition against the collapsed
    start point (None with a note when the decomposition fails there)."""

    t: float
    std_dev: float
    pairwise: dict
    mean_dev: np.ndarray
    heff_norm: float | None
    note: str | None = None


def splitting_samples(fam, ts, with_heff=True):
    """Evaluate all splitting measures of the family on the given nonzero,
    sorted parameter values."""
    ts = np.asarray(ts, dtype=float)
    if np.any(ts == 0.0):
        raise ValueError("sample points must be nonzero")
    if np.any(np.diff(ts) <= 0.0):
        raise ValueError("sample points must be strictly increasing")
    a, k = fam.offset, fam.k
    anchor = Anchor.at(fam(0.0), k, a) if with_heff else None
    out = []
    for t in ts:
        h = fam(t)
        vals = np.linalg.eigvalsh(h)
        win = vals[a : a + k]
        _, mean_dev, std = window_spread(vals, k, a)
        pairwise = {
            (i + 1, j + 1): float(win[i] - win[j])
            for i in range(k)
            for j in range(i + 1, k)
        }
        heff_norm = None
        note = None
        if with_heff:
            try:
                dec = anchor.decompose(h)
                heff_norm = frobenius_norm(dec.h_eff)
                if not dec.within_r0:
                    note = "outside the uniqueness ball of the start point"
            except (DegenError, np.linalg.LinAlgError) as exc:
                note = f"decomposition failed: {exc}"
        out.append(
            SplittingSample(
                t=float(t),
                std_dev=std,
                pairwise=pairwise,
                mean_dev=mean_dev,
                heff_norm=heff_norm,
                note=note,
            )
        )
    return out


@dataclass(frozen=True)
class OrderEstimate:
    """Order of vanishing at t = 0: integer r (or math.inf when the sampled
    values sit at the zero floor), the fitted log-log slope, its deviation
    from r, and the (t, value) pairs used."""

    r: float
    slope: float
    slope_dev: float
    samples: tuple
    method: str


def _family_scale(fam, t1):
    """max(1, ||H(0)||, ||H'(0)||), the reference scale for the zero floor.
    Falls back to a one-sided difference for evaluators defined only on the
    sampled side (tabulated families, which raise KeyError off their
    ladder)."""
    h0 = fam(0.0)
    try:
        d = (fam(t1) - fam(-t1)) / (2.0 * t1)
    except KeyError:
        d = (fam(t1) - h0) / t1
    return max(1.0, frobenius_norm(h0), frobenius_norm(d))


def _fit_order(ts, vals, floor, method):
    pts = [(t, v) for t, v in zip(ts, vals) if v is not None]
    if not pts:
        raise InconclusiveFit(f"{method}: no usable samples")
    above = [(t, v) for t, v in pts if abs(v) > floor]
    if not above:
        return OrderEstimate(
            r=math.inf, slope=math.nan, slope_dev=0.0,
            samples=tuple(pts), method=method,
        )
    if len(above) < 4:
        raise InconclusiveFit(
            f"{method}: only {len(above)} samples above the zero floor"
        )
    log_t = np.log(np.abs([t for t, _ in above]))
    log_v = np.log(np.abs([v for _, v in above]))
    slope, _ = np.polyfit(log_t, log_v, 1)
    r = int(round(slope))
    dev = abs(slope - r)
    est = OrderEstimate(
        r=r, slope=float(slope), slope_dev=float(dev),
        samples=tuple(above), method=method,
    )
    if dev > SLOPE_TOL or r < 1:
        raise InconclusiveFit(
            f"{method}: slope {slope:.3f} is not near a positive integer",
            estimate=est,
        )
    return est


def estimate_order(fam, method="stddev", ladder=None, samples=None,
                   pair=None, index=None):
    """Least-squares log-log slope of one splitting measure on a geometric
    ladder, rounded to the nearest integer.

    method is one of "stddev", "pairwise", "neighbor", "extreme", "mean",
    "heff", "distance". The aggregate methods ("pairwise", "neighbor",
    "mean") fit each component function and return the smallest finite
    order, which is the measure's order of vanishing; pass `pair=(i, j)` or
    `index=i` to fit a single component instead. Samples whose value sits at
    the zero floor are censored from the fit; if everything is censored the
    order is infinite. Raises InconclusiveFit when the slope is not within
    0.2 of a positive integer.

    Precomputed `samples` (from `splitting_samples`) are reused when given.
    """
    if ladder is None:
        ladder = default_ladder()
    if samples is None:
        samples = splitting_samples(fam, np.sort(ladder),
                                    with_heff=(method == "heff"))
    ts = [s.t for s in samples]
    floor = ZERO_FLOOR_RTOL * _family_scale(fam, min(abs(t) for t in ts))
    k = fam.k

    def single(vals, label):
        return _fit_order(ts, vals, floor, label)

    if method == "stddev":
        return single([s.std_dev for s in samples], "stddev")
    if method == "distance":
        return single([np.sqrt(k) * s.std_dev for s in samples], "distance")
    if method == "extreme":
        return single([s.pairwise[(1, k)] for s in samples], "extreme")
    if method == "heff":
        return single([s.heff_norm for s in samples], "heff")
    if method == "pairwise" and pair is not None:
        return single([s.pairwise[tuple(pair)] for s in samples],
                      f"pairwise{tuple(pair)}")
    if method == "mean" and index is not None:
        return single([s.mean_dev[index - 1] for s in samples],
                      f"mean({index})")
    if method == "pairwise":
        series = {
            f"pairwise{key}": [s.pairwise[key] for s in samples]
            for key in (
                (i, j) for i in range(1, k + 1) for j in range(i + 1, k + 1)
            )
        }
    elif method == "neighbor":
        series = {
            f"pairwise({i}, {i + 1})": [s.pairwise[(i, i + 1)]
                                        for s in samples]
            for i in range(1, k)
        }
    elif method == "mean":
        series = {
            f"mean({i + 1})": [s.mean_dev[i] for s in samples]
            for i in range(k)
        }
    else:
        raise ValueError(f"unknown method {method!r}")
    comps = []
    failures = []
    for label, vals in series.items():
        # A component that cannot be fitted (censored by the zero floor)
        # cannot be the minimum-order one; skip it unless nothing fits.
        try:
            comps.append(single(vals, label))
        except InconclusiveFit as exc:
            failures.append(exc)
    if not comps:
        raise InconclusiveFit(
            f"{method}: no component produced a usable fit "
            f"({'; '.join(str(f) for f in failures)})"
        )
    best = min(comps, key=lambda e: e.r)
    return OrderEstimate(
        r=best.r, slope=best.slope, slope_dev=best.slope_dev,
        samples=best.samples, method=f"{method}:min via {best.method}",
    )


def estimate_all_orders(fam, ladder=None):
    """All five splitting-measure orders, as a dict, plus their agreement."""
    if ladder is None:
        ladder = default_ladder()
    samples = splitting_samples(fam, np.sort(ladder), with_heff=False)
    estimates = {
        m: estimate_order(fam, method=m, samples=samples)
        for m in FIVE_METHODS
    }
    orders = {e.r for e in estimates.values()}
    return estimates, len(orders) == 1


def signed_stddev(fam, r, ts):
    """sgn(t)^r times the standard deviation of the window eigenvalues: the
    analytic extension of the splitting function through t = 0."""
    out = []
    for t in np.asarray(ts, dtype=float):
        vals = np.linalg.eigvalsh(fam(t))
        _, _, std = window_spread(vals, fam.k, fam.offset)
        out.append(float(np.sign(t)) ** r * std)
    return np.array(out)


def signed_stddev_fit_residual(fam, r, ts, degree=None):
    """Numerical analyticity check: residual of a polynomial fit (default
    degree r + 3) through signed standard-deviation samples straddling 0.
    Small residual relative to the sample scale indicates a smooth function."""
    ts = np.asarray(ts, dtype=float)
    vals = signed_stddev(fam, r, ts)
    if degree is None:
        degree = r + 3
    coeffs = np.polynomial.polynomial.polyfit(ts, vals, degree)
    fit = np.polynomial.polynomial.polyval(ts, coeffs)
    return float(np.max(np.abs(fit - vals)))


# ---------------------------------------------------------------------------
# Cascade
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CascadeResult:
    """Per-pair separation levels and the negative-side index permutation.

    pair_levels maps 1-based window index pairs (i, j), i < j, to the level
    at which the pair's eigenvalue branches separate; that level equals the
    order of vanishing of their difference. negative_permutation maps the
    branch through the i-th ascending window eigenvalue at t > 0 to the
    position it occupies for t < 0. The branches are analytic through t = 0
    (Rellich), so two branches whose difference vanishes at odd order swap
    there and an even-order pair keeps its order: branch i lands at
    position 1 + #{j < i : level(i, j) even} + #{j > i : level(i, j) odd}.
    Pairs still unresolved at the depth cap are listed in `capped` (their
    order exceeds the cap) and count as not crossing."""

    pair_levels: dict
    negative_permutation: tuple
    capped: tuple = ()
    depth_cap: int = 0
    notes: tuple = field(default_factory=tuple)


def _extrapolate_zero(f, t):
    """Even-part Richardson extrapolation of f to 0, O(t^4) accurate."""
    a1 = (f(t) + f(-t)) / 2.0
    a2 = (f(t / 2.0) + f(-t / 2.0)) / 2.0
    return (4.0 * a2 - a1) / 3.0


def _scaled_heff(anchor, g):
    """The next level's family: the effective block of g(t) against the
    anchor, divided by t."""
    return lambda t: anchor.heff_block(g(t)) / t


def _negative_permutation(k, pair_levels):
    """Positions of the window branches for t < 0, from the parity of the
    pair levels (see CascadeResult); pairs without a level do not cross."""

    def crosses(i, j):
        return pair_levels.get((min(i, j), max(i, j)), 0) % 2 == 1

    perm = tuple(
        1 + sum(not crosses(i, j) for j in range(1, i))
        + sum(crosses(i, j) for j in range(i + 1, k + 1))
        for i in range(1, k + 1)
    )
    if sorted(perm) != list(range(1, k + 1)):
        raise DegenError(
            f"pair levels {pair_levels} admit no ordering of the branches "
            f"for t < 0 (positions {perm})"
        )
    return perm


def cascade(fam, t_probe=2.0 ** -6, depth_cap=8):
    """Resolve the window's eigenvalue branches level by level.

    The first-level family is the effective block of H(t) against the
    collapsed start point, divided by t; each level's start value is
    extrapolated to t = 0, its eigenvalues are clustered, pairs falling in
    distinct clusters separate at the current level, and every surviving
    cluster spawns a deeper family the same way, against the anchor at the
    extrapolated start with that cluster as its window. Eigenvalue branches
    get strictly less degenerate at each level, so the recursion terminates
    unless branches coincide beyond the depth cap. The negative-side
    permutation follows from the parities of the levels.

    t_probe must be small enough that the decompositions along the cascade
    stay valid; errors from invalid probes propagate.
    """
    k = fam.k
    level_one = _scaled_heff(Anchor.at(fam(0.0), k, fam.offset), fam)
    pair_levels = {}
    capped = []
    queue = [(tuple(range(1, k + 1)), level_one, 1)]
    while queue:
        idx, g, level = queue.pop()
        g0 = _extrapolate_zero(g, t_probe)
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
            queue.append((sub_idx, _scaled_heff(anchor, g), level + 1))
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
