"""One-parameter family analysis: energy-splitting functions, order-of-
vanishing estimation on geometric ladders, and the cascade that resolves
degenerate eigenvalue branches level by level.

A family is a map t -> H(t) with H(0) exactly degenerate on a k-fold window.
Five splitting measures (standard deviation of the window eigenvalues, all
pairwise differences, neighbouring differences, the extreme difference, and
deviations from the mean) vanish at t = 0 with one common integer order,
which also equals the order of the distance from the degeneracy manifold and
of the effective-Hamiltonian norm. The estimators here recover that integer
from log-log slopes, one per component series of a measure (an aggregate
takes the least), each series a column expression of the ladder's window
eigenvalues, one (samples, k) array from one stacked eigvalsh; the cascade
recovers it per eigenvalue pair together with the index permutation that
makes the eigenvalue branches analytic through t = 0. A family is a
`weyl.ParamFamily` with m = 1. A cascade level is held as its values at the
four probe points. A cascade level whose cluster fills its block needs no
anchor: the Schrieffer-Wolff chart of a whole block is the identity, so its
effective block is the traceless part in any basis, and only a cluster that
is a proper sub-block is rotated away through an `Anchor`. A level of two
branches needs no eigensolver either: by the distance theorem, its start
value's eigenvalues are its mean diagonal entry -/+ its distance from the
degeneracy manifold over sqrt(2).
`estimate_order(fam, "heff")` fits the effective-block norms alone: the
ladder, as sampled, goes through one stacked `Anchor.heff_block` against the
family's start anchor, one eigh and one k x k SVD. The spectrum of H(0) that
`family` checks is kept on the family, and the heff order and the cascade
build their start anchor from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import accumulate, combinations, product

import numpy as np

from .errors import DegenError, InconclusiveFit
from .hermitian import _check_hermitian, _hermitian_part, frobenius_norm
from .spectra import (
    _coincidence_parts,
    _pair_parts,
    check_degenerate,
    check_separated,
    eigh,
    window_spread,
)
from .swtransform import Anchor, _traceless
from .weyl import ParamFamily

__all__ = [
    "family",
    "linear_family",
    "OrderEstimate",
    "estimate_order",
    "estimate_all_orders",
    "FIVE_METHODS",
    "signed_stddev",
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


# The former name of the one-parameter family; `bench/tracing.py` imports it.
FamilyHandle = ParamFamily


def family(evaluator, k, offset=0):
    """The family t -> evaluator(float t), a `ParamFamily` with m = 1, after
    checking that H(0) is degenerate on the window.

    The window must hold at least two levels, and the window eigenvalues of
    H(0) must coincide within the grouping tolerance and be strictly
    separated from their neighbours. The matrices of a ladder are checked to
    be finite but not to be Hermitian: eigvalsh reads one triangle of each,
    and a check of the whole ladder would cost a large share of its
    eigvalsh time. `linear_family` checks its two matrices once instead.
    """
    if k < 2:
        raise ValueError(f"a family needs a window of k >= 2 levels to "
                         f"split, got k = {k}")
    h0 = np.asarray(evaluator(0.0))
    start = eigh(h0)
    check_degenerate(start.eigenvalues, k, offset, ValueError)
    check_separated(start.eigenvalues, k, offset, ValueError)
    fam = ParamFamily(evaluator=lambda p: evaluator(float(p[0])), m=1,
                      n=h0.shape[0], k=k, offset=offset)
    object.__setattr__(fam, "start", start)
    return fam


def linear_family(h0, h1, k, offset=0):
    """The straight line t -> H0 + t H1; ValueError, naming H0 or H1,
    unless `hermitian._check_hermitian` accepts both."""
    h0 = np.asarray(h0)
    h1 = np.asarray(h1)
    for name, h in (("H0", h0), ("H1", h1)):
        try:
            _check_hermitian(h)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from exc
    return family(lambda t: h0 + t * h1, k, offset=offset)


def _stacked_ladder(fam, ts):
    """The eigenvalues of the family's matrices at ts, from one eigvalsh over
    their stack. Every evaluation of a family goes through
    `ParamFamily.stack`, one point or many, and it refuses a matrix with a
    non-finite entry, which eigvalsh alone does not always do (see
    `hermitian._finite_eigvalsh`)."""
    return np.linalg.eigvalsh(fam.stack(ts[:, None]))


def _ladder_points(ts):
    """The sample points ts as a sorted float array; ValueError unless they
    are nonzero and distinct."""
    ts = np.sort(np.asarray(ts, dtype=float))
    if np.any(ts == 0.0):
        raise ValueError("sample points must be nonzero")
    if np.any(np.diff(ts) == 0.0):
        raise ValueError("sample points must be distinct")
    return ts


def _window_ladder(fam, ladder):
    """The sorted ladder as floats and the window eigenvalues of the family
    at it, an array of shape (len(ladder), k) from one stacked eigvalsh."""
    ts = _ladder_points(ladder)
    a = fam.offset
    return ts.tolist(), _stacked_ladder(fam, ts)[:, a : a + fam.k]


def _heff_norms(anchor, hs):
    """||H_eff||_F of each matrix of the finite stack hs, or None for a
    matrix whose decomposition fails. One stacked `heff_block` takes the
    whole stack: one eigh and one k x k SVD. It raises on its first bad
    matrix; only then is each matrix decomposed on its own, so that the
    others keep their values."""
    try:
        blocks = anchor.heff_block(hs)
    except (DegenError, np.linalg.LinAlgError):
        pass
    else:
        return [frobenius_norm(block) for block in blocks]
    norms = []
    for h in hs:
        try:
            norms.append(frobenius_norm(anchor.heff_block(h)))
        except (DegenError, np.linalg.LinAlgError):
            norms.append(None)
    return norms


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


def _zero_floor(fam, ts, label):
    """ZERO_FLOOR_RTOL * max(1, ||H(0)||, ||H'(0)||), with H'(0) differenced
    at the sample point of ts closest to 0: central, or one-sided for
    evaluators defined only on the sampled side (tabulated families raise
    KeyError off their ladder). Three evaluations; every measure of a sample
    set shares it. Without samples there is nothing to fit, nor with an
    H'(0) estimate that is not finite (a subnormal t overflows the
    quotient), and InconclusiveFit says so under `label`."""
    if not ts:
        raise InconclusiveFit(f"{label}: no usable samples")
    t1 = min(abs(t) for t in ts)
    h0, above = fam(0.0), fam(t1)
    try:
        below, step = fam(-t1), 2.0 * t1
    except KeyError:
        below, step = h0, t1
    with np.errstate(over="ignore", invalid="ignore"):
        derivative = frobenius_norm((above - below) / step)
    if not math.isfinite(derivative):
        raise InconclusiveFit(f"{label}: the estimate of H'(0) from "
                              f"t = {t1!r} is not finite")
    return ZERO_FLOOR_RTOL * max(1.0, frobenius_norm(h0), derivative)


def _slope(x, y):
    """The ordinary least-squares slope of the floats y on the floats x, in
    closed form: sum((x - mean x) (y - mean y)) / sum((x - mean x)^2); NaN
    when the x do not spread or a y is infinite."""
    mean_x, mean_y = sum(x) / len(x), sum(y) / len(y)
    x = [v - mean_x for v in x]
    sxx = sum(v * v for v in x)
    # Four distinct ts whose logs round to one value have no slope.
    if not sxx:
        return math.nan
    return sum(a * (b - mean_y) for a, b in zip(x, y)) / sxx


def _fit_order(ts, vals, floor, method):
    """The order of one series of sampled values vals at ts: the log-log
    slope through the samples above the zero floor, rounded to the nearest
    integer. A value None is no sample; the slope is the closed-form least-
    squares one (`_slope`) of log|value| on log|t| over those samples."""

    def estimate(r, slope, slope_dev, used):
        # The (t, value) pairs of the sample indices used.
        return OrderEstimate(r, slope, slope_dev,
                             tuple((ts[i], vals[i]) for i in used), method)

    usable = [i for i, v in enumerate(vals) if v is not None]
    if not usable:
        raise InconclusiveFit(f"{method}: no usable samples")
    rows = [i for i in usable if abs(vals[i]) > floor]
    if not rows:
        return estimate(math.inf, math.nan, 0.0, usable)
    if len(rows) < 4:
        raise InconclusiveFit(
            f"{method}: only {len(rows)} samples above the zero floor"
        )
    slope = _slope([math.log(abs(ts[i])) for i in rows],
                   [math.log(abs(vals[i])) for i in rows])
    if math.isnan(slope):
        raise InconclusiveFit(f"{method}: the samples give no finite "
                              f"log-log slope")
    r = int(round(slope))
    dev = abs(slope - r)
    est = estimate(r, slope, dev, rows)
    if dev > SLOPE_TOL or r < 1:
        raise InconclusiveFit(
            f"{method}: slope {slope:.3f} is not near a positive integer",
            estimate=est,
        )
    return est


def estimate_order(fam, method="stddev", ladder=None):
    """Log-log slope of one splitting measure on a geometric ladder, the
    ordinary least-squares slope in closed form, rounded to the nearest
    integer.

    method is one of "stddev", "pairwise", "neighbor", "extreme", "mean",
    "heff", "distance". The aggregate methods ("pairwise", "neighbor",
    "mean") fit each component function and return the smallest finite
    order, which is the measure's order of vanishing. Samples whose value
    sits at the zero floor are censored from the fit; if everything is
    censored the order is infinite. Raises InconclusiveFit when the slope is
    not within 0.2 of a positive integer.

    "heff" fits ||H_eff(t)||_F, the distance of H(t) from the degeneracy
    manifold, with None (no sample) where the decomposition fails: the
    ladder, as sampled, goes through one stacked eigh and one stacked k x k
    SVD against the family's start anchor (see `_heff_norms`), with no
    eigvalsh of the ladder's spectra. The other methods read their series
    off the window eigenvalues of the ladder, in ascending t, from one
    stacked eigvalsh (`_window_ladder`). The ladder must be nonzero and
    distinct, or ValueError is raised. The (t, value) pairs of the fitted
    series stay in `OrderEstimate.samples`.
    """
    if ladder is None:
        ladder = default_ladder()
    if method == "heff":
        ts = _ladder_points(ladder)
        norms = _heff_norms(fam.start_anchor(), fam.stack(ts[:, None]))
        ts = ts.tolist()
        return _fit_order(ts, norms, _zero_floor(fam, ts, method), method)
    ts, win = _window_ladder(fam, ladder)
    return _estimate(ts, win, _zero_floor(fam, ts, method), method)


def _components(win, method):
    """The component series {label: values} of a splitting measure on the
    window eigenvalues win, of shape (samples, k): one series named after
    the method for "stddev", "distance" and "extreme", the window pairs
    lambda_i - lambda_j (1-based, i < j) for "pairwise" and "neighbor", and
    the k deviations from the window mean for "mean"."""
    k = win.shape[1]
    if method in ("stddev", "distance", "mean"):
        _, devs, stds = window_spread(win, k)
        if method == "stddev":
            return {method: stds.tolist()}
        if method == "distance":
            return {method: list(np.sqrt(k) * stds)}
        return {f"mean({i + 1})": list(devs[:, i]) for i in range(k)}
    if method == "extreme":
        return {method: (win[:, 0] - win[:, -1]).tolist()}
    if method == "pairwise":
        pairs = combinations(range(1, k + 1), 2)
    elif method == "neighbor":
        pairs = ((i, i + 1) for i in range(1, k))
    else:
        raise ValueError(f"unknown method {method!r}")
    return {f"pairwise{(i, j)}": (win[:, i - 1] - win[:, j - 1]).tolist()
            for i, j in pairs}


def _estimate(ts, win, floor, method):
    """estimate_order on the sorted ladder ts, its window eigenvalues win
    and the zero floor: the fit of a one-series measure, or the smallest
    order over the components of an aggregate that fit."""
    series = _components(win, method)
    if method in series:
        return _fit_order(ts, series[method], floor, method)
    comps = []
    failures = []
    for label, vals in series.items():
        # A component that cannot be fitted (censored by the zero floor)
        # cannot be the minimum-order one; skip it unless nothing fits.
        try:
            comps.append(_fit_order(ts, vals, floor, label))
        except InconclusiveFit as exc:
            failures.append(exc)
    if not comps:
        raise InconclusiveFit(
            f"{method}: no component produced a usable fit "
            f"({'; '.join(str(f) for f in failures)})"
        )
    best = min(comps, key=lambda e: e.r)
    return replace(best, method=f"{method}:min via {best.method}")


def estimate_all_orders(fam, ladder=None):
    """All five splitting-measure orders, as a dict, plus their agreement.
    The five fits share one ladder, its window eigenvalues from one stacked
    eigvalsh, and one zero floor."""
    if ladder is None:
        ladder = default_ladder()
    ts, win = _window_ladder(fam, ladder)
    floor = _zero_floor(fam, ts, "all orders")
    estimates = {m: _estimate(ts, win, floor, m) for m in FIVE_METHODS}
    orders = {e.r for e in estimates.values()}
    return estimates, len(orders) == 1


def signed_stddev(fam, r, ts):
    """sgn(t)^r times the standard deviation of the window eigenvalues: the
    analytic extension of the splitting function through t = 0."""
    ts = np.asarray(ts, dtype=float)
    std = window_spread(_stacked_ladder(fam, ts), fam.k, fam.offset)[2]
    return np.sign(ts) ** r * std


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


def _extrapolate_zero(g):
    """Even-part Richardson extrapolation to 0, O(t^4) accurate, from the
    samples g at t, -t, t/2 and -t/2, in that order."""
    a1 = (g[0] + g[1]) / 2.0
    a2 = (g[2] + g[3]) / 2.0
    return (4.0 * a2 - a1) / 3.0


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
    collapsed start point, divided by t and by a power of two u in (s/2, s]
    for the spread s of H(0)'s eigenvalues (u = 1 when s is 0 or overflows).
    Clusters are held to CLUSTER_RTOL times the larger of 1 and the largest
    |eigenvalue|, whose floor of 1 is absolute; in the unit u they, and so
    the results, are the same for a H(t) as for H(t), a > 0, and dividing by
    u is exact. Each level's start value is extrapolated to t = 0, its
    eigenvalues are clustered, pairs falling in distinct clusters separate
    at the current level, and every surviving cluster spawns a deeper family
    the same way, against the anchor at the extrapolated start with that
    cluster as its window. Eigenvalue branches get strictly less degenerate
    at each level, so the recursion terminates unless branches coincide
    beyond the depth cap. The negative-side permutation follows from the
    parities of the levels.

    A level is held as its values at the probe points t_probe, -t_probe,
    t_probe/2 and -t_probe/2, all the extrapolation reads, and the next
    level is made from them. Level 1 takes its four probe matrices, as one
    (4, n, n) stack, through one `Anchor.heff_block` call against the
    family's start anchor (`ParamFamily.start_anchor`), so H(0) is not
    evaluated again when `family` made the family. A deeper level whose
    cluster is a proper sub-block of the level above takes that level's four
    blocks through one `heff_block` call against the anchor on the cluster.
    A cluster that fills its block takes no anchor, since the chart of a
    whole block is the identity: its blocks are the traceless parts of those
    above, divided by t. That is exact, because the traceless part commutes
    with unitary conjugation, so the eigenvalues, the clusters and every
    deeper level match those in the anchor's gauge. A block of two levels
    thus needs only whether its start value's two eigenvalues coincide,
    which the distance theorem gives without an eigensolver: they are
    m -/+ r, m its mean diagonal entry and r its distance from m I over
    sqrt(2) (`spectra._pair_parts`). A block of three or more takes one
    `eigh`.

    t_probe must be positive and finite, with a nonzero half, and depth_cap
    at least 1, or ValueError is raised. t_probe must also be small enough
    that the decompositions along the cascade stay valid, and large enough
    that no level overflows when it is divided by t: LinAlgError names a
    level whose start value is not finite, and errors from other invalid
    probes propagate.
    """
    # A t_probe whose half underflows to 0 would put two probes at 0.
    if not (0.0 < t_probe / 2.0 and t_probe < math.inf):
        raise ValueError(f"t_probe must be positive and finite, with a "
                         f"nonzero half, got {t_probe!r}")
    if depth_cap < 1:
        raise ValueError(f"depth_cap must be at least 1, got {depth_cap!r}")
    k = fam.k
    ts = np.array([t_probe, -t_probe, t_probe / 2.0, -t_probe / 2.0])
    scale = ts[:, None, None]
    start = fam.start_anchor()
    # The level-1 unit u; every deeper level inherits it.
    spread = float(start.levels[-1] - start.levels[0])
    unit = (math.ldexp(1.0, math.frexp(spread)[1] - 1)
            if 0.0 < spread < math.inf else 1.0)
    probes = fam.stack(ts[:, None])
    queue = [(tuple(range(1, k + 1)), probes, start, 1)]
    pair_levels = {}
    capped = []
    while queue:
        idx, above, anchor, level = queue.pop()
        g = _traceless(above) if anchor is None else anchor.heff_block(above)
        # Dividing by t can overflow; a level that does is refused below.
        with np.errstate(over="ignore", invalid="ignore"):
            g = g / (scale * unit) if level == 1 else g / scale
            g0 = _hermitian_part(_extrapolate_zero(g))
        if not np.isfinite(g0).all():
            raise np.linalg.LinAlgError(
                f"cascade level {level} overflows at t_probe={t_probe!r}: "
                f"its start value is not finite")
        # Only a block of three or more levels can leave a cluster that is a
        # proper sub-block, the one case that needs the eigenvectors; a pair
        # splits by the distance theorem.
        if len(idx) == 2:
            parts = _pair_parts(g0, CLUSTER_RTOL)
        else:
            spec0 = eigh(g0)
            parts = _coincidence_parts(spec0.eigenvalues, CLUSTER_RTOL)[0]
        clusters = [(stop - size, stop)
                    for size, stop in zip(parts, accumulate(parts))]
        for ci, (lo, hi) in enumerate(clusters):
            for lo2, hi2 in clusters[ci + 1 :]:
                for pair in product(idx[lo:hi], idx[lo2:hi2]):
                    pair_levels[tuple(sorted(pair))] = level
        for lo, hi in clusters:
            if hi - lo < 2:
                continue
            sub_idx = idx[lo:hi]
            if level >= depth_cap:
                capped.extend(combinations(sub_idx, 2))
                continue
            sub = (None if hi - lo == len(idx)
                   else Anchor.from_spectrum(spec0, hi - lo, lo))
            queue.append((sub_idx, g, sub, level + 1))
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
