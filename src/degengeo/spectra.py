"""Hermitian eigendecomposition with ascending ordering, checked against one
residual bound (`eigh`, and `checked_eigvals` for a caller that reads only
the eigenvalues), classification of eigenvalue-coincidence patterns into
strata, and spectral-gap quantities. It owns the window rules (membership,
degeneracy, strict separation and the half gap to the neighbours); no other
module reads the coincidence tolerance."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hermitian import _overflow_safe

__all__ = [
    "Spectrum",
    "StratumPartition",
    "eigh",
    "classify_stratum",
    "stratum_codimension",
]

#: Default relative tolerance for declaring adjacent eigenvalues coincident.
#: The underlying geometry has no numerical tolerance; this one is the
#: artifact's configurable choice.
DEGENERACY_RTOL = 1e-8

#: Residual bound accepted from the eigensolver, relative to max(1, ||H||_F).
RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition H = U diag(eigenvalues) U^dagger of one matrix or
    of a stack of them.

    For H of shape (..., n, n), eigenvalues has shape (..., n), ascending
    along the last axis; vectors has shape (..., n, n), column a of each
    matrix the eigenvector of its eigenvalue a; residual is
    ||H U - U diag(eigenvalues)||_F per matrix, a float for one matrix and
    an array of shape (...) for a stack.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    residual: float | np.ndarray

    @property
    def n(self):
        return self.eigenvalues.shape[-1]

    def operator_2_norm(self):
        """max |eigenvalue| per matrix; 0 for the empty matrix."""
        norms = np.max(np.abs(self.eigenvalues), axis=-1, initial=0.0)
        return float(norms) if norms.ndim == 0 else norms


@dataclass(frozen=True)
class StratumPartition:
    """Ordered partition (k_1, ..., k_l) of n recording which consecutive
    eigenvalues coincide, together with the grouping tolerance used."""

    parts: tuple
    tolerance: float


def eigh(h):
    """Full eigendecomposition of a Hermitian matrix, or of a stack of them
    of shape (..., n, n) in one LAPACK call (`np.linalg.eigh`).

    Eigenvalues come out ascending. Each eigenvector's phase is fixed by
    making its largest-modulus component real and positive (the first such
    component on a tie), purely so that repeated runs print identically; no
    algorithm downstream depends on the phase. Each matrix's reconstruction
    residual ||H U - U diag(eigenvalues)||_F is checked against its own
    bound RESIDUAL_RTOL * max(1, ||H_i||_F), and LinAlgError names the first
    matrix that fails it; a matrix with a NaN or infinite entry fails it.

    Eigenvalues, vectors and residuals equal, bit for bit, those of the
    reference: `np.linalg.eigh`, a per-column loop that divides each column
    by its pivot's phase, and `np.linalg.norm` for both Frobenius norms. The
    pivots are gathered by direct indexing and the norms evaluated by the
    expression `np.linalg.norm` uses, without their per-call helper layers.
    """
    h = np.asarray(h)
    vals, vecs = np.linalg.eigh(h)
    n = vals.shape[-1]
    if n == 0:
        # Empty matrices: nothing to phase or to check.
        return _frozen(vals, vecs, np.zeros(vals.shape[:-1]))
    stack = vecs.reshape(-1, n, n)
    rows = np.abs(stack).argmax(axis=1)
    pivots = stack[np.arange(len(stack))[:, None], rows, np.arange(n)]
    # hypot, not np.abs: on complex arrays np.abs can differ from the modulus
    # a scalar abs() returns in the last bit.
    phases = np.conj(pivots) / np.hypot(pivots.real, pivots.imag)
    vecs = vecs * phases.reshape(vals.shape)[..., None, :]
    return _frozen(vals, vecs, _checked_residual(h, vals, vecs))


def checked_eigvals(h):
    """The eigenvalues of `eigh(h)`, bit for bit, for a caller that reads
    nothing else: the same `np.linalg.eigh` call and the same residual
    check, which refuses the same matrices with the same message (NaN and
    infinite entries included). It skips the phase fix of the vectors and
    the read-only Spectrum, so it costs less. Its caller is the Weyl scan's
    distance field, whose values never need eigenvectors."""
    h = np.asarray(h)
    vals, vecs = np.linalg.eigh(h)
    if vals.shape[-1]:
        _checked_residual(h, vals, vecs)
    return vals


# The decorator form keeps its error state per call on numpy >= 2, so the
# Weyl scan's worker thread may share it.
@np.errstate(all="ignore")
def _checked_residual(h, vals, vecs):
    """The residual ||H U - U diag(vals)||_F of each matrix of h (n >= 1);
    LinAlgError names the first matrix whose residual is not within
    RESIDUAL_RTOL * max(1, ||H_i||_F), both norms by `_overflow_safe`."""
    # np.linalg.norm reads an integer or boolean h as float.
    if h.dtype.kind not in "fc":
        h = h.astype(float)
    # A non-finite matrix gives a NaN residual, and `~(residual <= bound)`,
    # unlike `residual > bound`, refuses it; the invalid values on the way
    # there (inf * 0, in the products and in the squares) are expected.
    r = h @ vecs - vecs * vals[..., None, :]
    residual = _overflow_safe(_frobenius, r, (-2, -1))
    # No bound is below RESIDUAL_RTOL, and a residual within it has finite H.
    if np.count_nonzero(residual <= RESIDUAL_RTOL) == residual.size:
        return residual
    norm = _overflow_safe(_frobenius, h, (-2, -1))
    bound = RESIDUAL_RTOL * np.maximum(1.0, norm)
    ok = residual <= bound
    if np.count_nonzero(ok) < ok.size:
        where = tuple(map(int, np.argwhere(~ok)[0]))
        name = f" of matrix {where}" if where else ""
        raise np.linalg.LinAlgError(
            f"eigendecomposition residual{name} {residual[where]:.3e} "
            f"exceeds {bound[where]:.3e}"
        )
    return residual


def _frozen(vals, vecs, residual):
    """The Spectrum of read-only vals and vecs, its residual a float for one
    matrix."""
    vals.setflags(write=False)
    vecs.setflags(write=False)
    residual = float(residual) if residual.ndim == 0 else residual
    return Spectrum(eigenvalues=vals, vectors=vecs, residual=residual)


def _frobenius(x):
    """||x||_F over the last two axes, as `np.linalg.norm(x, axis=(-2, -1))`
    computes it for a float or complex x. Its sum of squares overflows for
    entries above about 1e154; callers take it through `_overflow_safe`."""
    return np.sqrt(np.add.reduce((x.conj() * x).real, axis=(-2, -1)))


def coincidence_tolerance(vals, rel_tol):
    """rel_tol * max(1, max|vals|) along the last axis: the gap at or below
    which two adjacent eigenvalues count as coincident. A float for 1-D
    vals, an array of shape (...) for vals of shape (..., n)."""
    top = np.abs(vals).max(axis=-1, initial=0.0)
    if top.ndim == 0:
        return rel_tol * max(1.0, float(top))
    # fmax, like the scalar max(1.0, top), passes over a NaN top.
    return rel_tol * np.fmax(1.0, top)


def check_window(n, k, offset=0):
    """Raise ValueError unless the window of eigenvalues offset+1 ..
    offset+k (ascending) lies inside 1 .. n."""
    if not (0 <= offset and 1 <= k and offset + k <= n):
        raise ValueError(f"invalid window: n={n}, k={k}, offset={offset}")


def _window(vals, k, offset):
    vals = np.asarray(vals)
    check_window(vals.shape[-1], k, offset)
    return vals[..., offset : offset + k]


def window_width(vals, k, offset=0):
    """Largest minus smallest window eigenvalue; the window is degenerate
    when this is within the coincidence tolerance."""
    win = _window(vals, k, offset)
    return float(np.max(win) - np.min(win))


def window_mean(vals, k, offset=0):
    """Mean of the window eigenvalues along the last axis, as
    `window_spread` gives it: a float for 1-D vals, an array of shape (...)
    for vals of shape (..., n)."""
    mean = _deviations(vals, k, offset)[0]
    return float(mean) if mean.ndim == 0 else mean


def window_spread(vals, k, offset=0):
    """(mean, deviations, std) of the window eigenvalues along the last axis:
    their mean, their deviations from it, and the population standard
    deviation. For 1-D vals the mean and std are floats; for vals of shape
    (..., n) they are arrays of shape (...) and the deviations (..., k)."""
    mean, dev = _deviations(vals, k, offset)
    std = _overflow_safe(lambda d: np.sqrt((d ** 2).sum(-1) / k), dev, -1)
    if dev.ndim == 1:
        return float(mean), dev, float(std)
    return mean, dev, std


def _deviations(vals, k, offset):
    """The mean of the window eigenvalues along the last axis, by
    `_overflow_safe`, and their deviations from it."""
    # sum / k is how np.mean reduces, without its per-call overhead.
    win = _window(vals, k, offset)
    mean = _overflow_safe(lambda w: w.sum(axis=-1) / k, win, -1)
    return mean, win - mean[..., None]


def window_distance(vals, k, offset=0):
    """sqrt(sum of squared window deviations) = sqrt(k) * std along the last
    axis: by the distance theorem, the Frobenius distance of the matrix with
    these eigenvalues from the k-fold degeneracy manifold. A float for 1-D
    vals, an array of shape (...) for vals of shape (..., n)."""
    dev = _deviations(vals, k, offset)[1]
    dist = _overflow_safe(lambda d: np.sqrt((d ** 2).sum(-1)), dev, -1)
    return float(dist) if dist.ndim == 0 else dist


def window_members(n, k, offset):
    """Boolean mask of length n that is True on the window indices."""
    check_window(n, k, offset)
    members = np.zeros(n, dtype=bool)
    members[offset : offset + k] = True
    return members


def unseparated_edge(vals, k, offset):
    """The i for which eigenvalues i and i+1 (1-based) straddle a window edge
    with a gap within the coincidence tolerance, lower edge first; None when
    the window is strictly separated from its neighbours."""
    check_window(len(vals), k, offset)
    return _unseparated_edge(vals, k, offset,
                             coincidence_tolerance(vals, DEGENERACY_RTOL))


def _unseparated_edge(vals, k, offset, tol):
    for i in (offset, offset + k):
        if 0 < i < len(vals) and vals[i] - vals[i - 1] <= tol:
            return i
    return None


def check_separated(vals, k, offset, exc):
    """Raise exc unless the window is strictly separated. For a stack of
    spectra (..., n) one edge-gap test covers the whole stack, and exc
    carries the message of the first spectrum (in C order) that fails it,
    the message that spectrum alone would give."""
    vals = np.asarray(vals)
    n = vals.shape[-1]
    check_window(n, k, offset)
    edges = [i for i in (offset, offset + k) if 0 < i < n]
    if not edges:
        return
    tol = coincidence_tolerance(vals, DEGENERACY_RTOL)
    if vals.ndim > 1:
        close = np.zeros(tol.shape, dtype=bool)
        for i in edges:
            close |= vals[..., i] - vals[..., i - 1] <= tol
        if not close.any():
            return
        first = np.unravel_index(close.argmax(), close.shape)
        vals, tol = vals[first], float(tol[first])
    i = _unseparated_edge(vals, k, offset, tol)
    if i is not None:
        raise exc(f"eigenvalues {i} and {i + 1} coincide within tolerance "
                  f"{tol:.3e}")


def check_degenerate(vals, k, offset, exc):
    """Raise exc unless the window eigenvalues coincide within tolerance."""
    width = window_width(vals, k, offset)
    tol = coincidence_tolerance(vals, DEGENERACY_RTOL)
    if width > tol:
        raise exc(f"window eigenvalues spread {width:.3e} exceeds tolerance "
                  f"{tol:.3e}; the window is not degenerate")


def window_half_gap(vals, k, offset):
    """Half the smaller gap from the window to a neighbouring eigenvalue,
    the radius r0 of the uniqueness ball; inf without neighbours. Raises
    ValueError for an invalid window."""
    check_window(len(vals), k, offset)
    gaps = [vals[i] - vals[i - 1] for i in (offset, offset + k)
            if 0 < i < len(vals)]
    return min(gaps, default=np.inf) / 2.0


def classify_stratum(spec, rel_tol=DEGENERACY_RTOL):
    """Group consecutive eigenvalues whose gap is at most
    rel_tol * max(1, ||H||_2); grouping is chained (transitive).

    Near-threshold spectra may classify unstably; that is inherent in
    cutting a continuum with a tolerance. rel_tol must be positive and
    finite, or ValueError is raised.
    """
    if not (0.0 < rel_tol < np.inf):
        raise ValueError(f"rel_tol must be positive and finite, got "
                         f"{rel_tol!r}")
    parts, tol = _coincidence_parts(np.asarray(spec.eigenvalues), rel_tol)
    return StratumPartition(parts=parts, tolerance=tol)


def _coincidence_parts(vals, rel_tol):
    """The grouping of `classify_stratum` on ascending 1-D eigenvalues vals:
    the tuple of part sizes, and the tolerance the gaps were held to."""
    tol = coincidence_tolerance(vals, rel_tol)
    # A part ends after every gap that is not within tol (NaN included).
    cuts = (~(vals[1:] - vals[:-1] <= tol)).nonzero()[0] + 1
    bounds = np.concatenate(([0], cuts, [max(len(vals), 1)]))
    parts = bounds[1:] - bounds[:-1]
    return tuple(parts.tolist()), tol


def _pair_parts(block, rel_tol):
    """The parts that `_coincidence_parts` gives for the two eigenvalues of
    a 2 x 2 Hermitian block [[a, b], [conj(b), d]], (2,) or (1, 1), without
    an eigensolver. By the distance theorem they are m - r and m + r, with
    m = a/2 + d/2 and r = ||block - m I||_F / sqrt(2) = hypot(a/2 - d/2, |b|),
    and they coincide when 2r <= rel_tol * max(1, |m - r|, |m + r|), the
    rule of `coincidence_tolerance`."""
    (a, b), (_, d) = block.tolist()
    # Each entry is halved before adding, and so is the test, since
    # max(|m - r|, |m + r|) = |m| + r: no sum overflows for finite entries.
    a, d = a.real / 2.0, d.real / 2.0
    m, r = a + d, math.hypot(a - d, abs(b))
    return (2,) if r <= rel_tol * max(0.5, abs(m) / 2.0 + r / 2.0) else (1, 1)


def stratum_codimension(partition):
    """Codimension sum_i (k_i^2 - 1) of the stratum labeled by the partition."""
    return int(sum(p * p - 1 for p in partition.parts))

