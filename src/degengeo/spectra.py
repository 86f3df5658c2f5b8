"""Hermitian eigendecomposition with ascending ordering, classification of
eigenvalue-coincidence patterns into strata, and spectral-gap quantities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import frobenius_norm

__all__ = [
    "Spectrum",
    "StratumPartition",
    "eigh",
    "classify_stratum",
    "is_in_sigma_k",
    "is_on_boundary",
    "stratum_codimension",
    "half_gap",
]

#: Default relative tolerance for declaring adjacent eigenvalues coincident.
#: The underlying geometry has no numerical tolerance; this one is the
#: artifact's configurable choice.
DEGENERACY_RTOL = 1e-8

#: Residual bound accepted from the eigensolver, relative to max(1, ||H||_F).
RESIDUAL_RTOL = 1e-10


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition H = U diag(eigenvalues) U^dagger.

    eigenvalues are ascending; column a of vectors is the eigenvector of
    eigenvalue a; residual is ||H U - U diag(eigenvalues)||_F.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    residual: float

    @property
    def n(self):
        return len(self.eigenvalues)

    def operator_2_norm(self):
        return float(np.max(np.abs(self.eigenvalues))) if self.n else 0.0


@dataclass(frozen=True)
class StratumPartition:
    """Ordered partition (k_1, ..., k_l) of n recording which consecutive
    eigenvalues coincide, together with the grouping tolerance used."""

    parts: tuple
    tolerance: float

    @property
    def n(self):
        return sum(self.parts)


def eigh(h):
    """Full eigendecomposition of a Hermitian matrix.

    Eigenvalues come out ascending. Each eigenvector's phase is fixed by
    making its largest-modulus component real and positive, purely so that
    repeated runs print identically; no algorithm downstream depends on the
    phase. The reconstruction residual is checked against
    RESIDUAL_RTOL * max(1, ||H||_F).
    """
    h = np.asarray(h)
    vals, vecs = np.linalg.eigh(h)
    vecs = vecs.copy()
    for j in range(vecs.shape[1]):
        i = int(np.argmax(np.abs(vecs[:, j])))
        pivot = vecs[i, j]
        if abs(pivot) > 0.0:
            vecs[:, j] *= np.conj(pivot) / abs(pivot)
    residual = float(np.linalg.norm(h @ vecs - vecs * vals, "fro"))
    bound = RESIDUAL_RTOL * max(1.0, frobenius_norm(h))
    if residual > bound:
        raise np.linalg.LinAlgError(
            f"eigendecomposition residual {residual:.3e} exceeds {bound:.3e}"
        )
    vals.setflags(write=False)
    vecs.setflags(write=False)
    return Spectrum(eigenvalues=vals, vectors=vecs, residual=residual)


def coincidence_tolerance(vals, rel_tol):
    """rel_tol * max(1, max|vals|): the gap at or below which two adjacent
    eigenvalues count as coincident."""
    return rel_tol * max(1.0, float(np.max(np.abs(vals), initial=0.0)))


def check_window(n, k, offset=0):
    """Raise ValueError unless the window of eigenvalues offset+1 ..
    offset+k (ascending) lies inside 1 .. n."""
    if not (0 <= offset and 1 <= k and offset + k <= n):
        raise ValueError(f"invalid window: n={n}, k={k}, offset={offset}")


def _window(vals, k, offset):
    check_window(len(vals), k, offset)
    return np.asarray(vals)[offset : offset + k]


def window_width(vals, k, offset=0):
    """Largest minus smallest window eigenvalue; the window is degenerate
    when this is within the coincidence tolerance."""
    win = _window(vals, k, offset)
    return float(np.max(win) - np.min(win))


def window_spread(vals, k, offset=0):
    """(mean, deviations, std): the mean of the window eigenvalues, their
    deviations from it, and the population standard deviation."""
    # sum / k is how np.mean reduces, without its per-call overhead.
    win = _window(vals, k, offset)
    mean = float(win.sum() / k)
    dev = win - mean
    return mean, dev, float(np.sqrt((dev ** 2).sum() / k))


def unseparated_edge(vals, k, offset, tol):
    """The i for which eigenvalues i and i+1 (1-based) straddle a window edge
    with a gap of at most tol, lower edge first; None when the window is
    strictly separated from its neighbours."""
    check_window(len(vals), k, offset)
    for i in (offset, offset + k):
        if 0 < i < len(vals) and vals[i] - vals[i - 1] <= tol:
            return i
    return None


def classify_stratum(spec, rel_tol=DEGENERACY_RTOL):
    """Group consecutive eigenvalues whose gap is at most
    rel_tol * max(1, ||H||_2); grouping is chained (transitive).

    Near-threshold spectra may classify unstably; that is inherent in
    cutting a continuum with a tolerance.
    """
    if rel_tol <= 0.0:
        raise ValueError("rel_tol must be positive")
    vals = np.asarray(spec.eigenvalues)
    tol = coincidence_tolerance(vals, rel_tol)
    parts = []
    run = 1
    for gap in np.diff(vals):
        if gap <= tol:
            run += 1
        else:
            parts.append(run)
            run = 1
    parts.append(run)
    return StratumPartition(parts=tuple(parts), tolerance=tol)


def is_in_sigma_k(partition, k):
    """True when the lowest k eigenvalues coincide and are strictly separated
    from the (k+1)-th, i.e. k_1 = k with at least two parts."""
    parts = partition.parts
    return parts[0] == k and len(parts) >= 2


def is_on_boundary(partition, k):
    """True when eigenvalues k and k+1 fall into one part (lambda_k equals
    lambda_{k+1}), where the projection onto the k-fold manifold loses
    uniqueness."""
    upper = 0
    for p in partition.parts:
        lower = upper + 1
        upper += p
        if lower <= k and k + 1 <= upper:
            return True
    return False


def stratum_codimension(partition):
    """Codimension sum_i (k_i^2 - 1) of the stratum labeled by the partition."""
    return int(sum(p * p - 1 for p in partition.parts))


def half_gap(h0, k):
    """Half the spectral gap (lambda_{k+1} - lambda_k)/2 of a matrix; zero on
    the boundary stratum. This is the operator-2-norm ball radius within
    which the block decomposition is unique."""
    h0 = np.asarray(h0)
    n = h0.shape[0]
    check_window(n, k)
    if k == n:
        raise ValueError(f"window covers the whole spectrum: n={n}, k={k}")
    vals = np.linalg.eigvalsh(h0)
    return float(vals[k] - vals[k - 1]) / 2.0
