"""Closest-point projection onto the manifold of k-fold degenerate Hermitian
matrices, the distance formula, alternate eigenvalue-merging projections, and
orthogonality diagnostics.

The distance from H to the manifold of matrices whose k lowest eigenvalues
coincide (and stay strictly below the rest) is sqrt(k) times the population
standard deviation of those k eigenvalues, and the unique closest point is
obtained by replacing them with their mean in any eigenbasis of H. The same
holds for a k-fold window anywhere in the spectrum via the `offset` argument.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBoundary, NotInSigmaK
from .hermitian import conjugate, coordinate_pairs, coordinates, frobenius_norm
from .spectra import (
    DEGENERACY_RTOL,
    Spectrum,
    coincidence_tolerance,
    eigh,
    unseparated_edge,
    window_distance,
    window_spread,
)

__all__ = [
    "ProjectionResult",
    "collapse_projection",
    "distance_to_sigma",
    "project_with_index_set",
    "orthogonality_check",
    "sample_sigma_k",
]


@dataclass(frozen=True)
class ProjectionResult:
    """Closest point of the degeneracy manifold together with the distance
    data: distance = sqrt(k) * std_dev, std_dev the population standard
    deviation of the window eigenvalues, mean_lambda their mean. `unique` is
    False when the window is not strictly separated (the projection then
    depends on the eigenbasis choice, but the distance does not).
    `spectrum` is the eigendecomposition of H that was collapsed."""

    h_sigma: np.ndarray
    distance: float
    std_dev: float
    mean_lambda: float
    unique: bool
    spectrum: Spectrum
    k: int
    offset: int = 0


def collapse_projection(h, k, offset=0):
    """Project H to the k-fold degeneracy manifold by collapsing the window
    eigenvalues (offset+1 .. offset+k, ascending) to their mean.

    Always returns a result; on the boundary (window not separated from its
    neighbours) the projection uses the eigenbasis as computed and is marked
    `unique=False`, while the distance value remains correct.
    """
    h = np.asarray(h)
    spec = eigh(h)
    vals = spec.eigenvalues
    mean, _, std = window_spread(vals, k, offset)
    collapsed = vals.copy()
    collapsed[offset : offset + k] = mean
    u = spec.vectors
    h_sigma = (u * collapsed) @ u.conj().T
    h_sigma = (h_sigma + h_sigma.conj().T) / 2.0
    h_sigma.setflags(write=False)
    tol = coincidence_tolerance(vals, DEGENERACY_RTOL)
    return ProjectionResult(
        h_sigma=h_sigma,
        distance=frobenius_norm(h - h_sigma),
        std_dev=std,
        mean_lambda=mean,
        unique=unseparated_edge(vals, k, offset, tol) is None,
        spectrum=spec,
        k=k,
        offset=offset,
    )


def distance_to_sigma(h, k, offset=0):
    """sqrt(k) times the standard deviation of the window eigenvalues; equal
    to the Frobenius distance from the k-fold degeneracy manifold, and to
    ||H_eff|| from any valid decomposition of H. A stack of shape
    (..., n, n) gives the distances as an array of shape (...)."""
    return window_distance(np.linalg.eigvalsh(np.asarray(h)), k, offset)


def project_with_index_set(h, indices, gauge=None):
    """Merge an arbitrary set of k eigenvalues (1-based indices) to their
    mean in the eigenbasis of H.

    The result lies on the k-fold ground-degeneracy manifold only when the
    mean stays strictly below the lowest omitted eigenvalue; otherwise
    NotInSigmaK is raised. If eigenvalues of H inside and outside the index
    set coincide, the outcome depends on the eigenbasis; pass a precomputed
    spectrum as `gauge` to pin it down.
    """
    h = np.asarray(h)
    n = h.shape[0]
    idx = sorted(set(int(i) for i in indices))
    if not idx or idx[0] < 1 or idx[-1] > n:
        raise ValueError(f"indices must be within 1..{n}")
    if len(idx) == n:
        raise ValueError("index set must omit at least one eigenvalue")
    spec = gauge if gauge is not None else eigh(h)
    vals = spec.eigenvalues.copy()
    sel = np.array([i - 1 for i in idx])
    mean = float(np.mean(vals[sel]))
    omitted = np.setdiff1d(np.arange(n), sel)
    lowest_omitted = float(vals[omitted[0]])
    if mean >= lowest_omitted:
        raise NotInSigmaK(
            f"mean {mean:.6g} of the selected eigenvalues is not below the "
            f"lowest omitted eigenvalue {lowest_omitted:.6g}"
        )
    vals[sel] = mean
    u = spec.vectors
    g = (u * vals) @ u.conj().T
    g = (g + g.conj().T) / 2.0
    g.setflags(write=False)
    return g


def orthogonality_check(h, k, offset=0):
    """Largest normalized overlap of H - H_Sigma with the tangent space of
    the degeneracy manifold at H_Sigma.

    The tangent space at a diagonal point consists of the matrices whose
    window block is scalar; its basis is conjugated into the eigenframe of
    H_Sigma. Returns max |<H - H_Sigma, tangent>| / ||H - H_Sigma||, which is
    zero up to rounding; by convention 0 when H is already on the manifold.
    """
    h = np.asarray(h)
    n = h.shape[0]
    pr = collapse_projection(h, k, offset=offset)
    if not pr.unique:
        raise DegenerateBoundary(
            "window is not strictly separated; tangent space is ambiguous"
        )
    diff = h - pr.h_sigma
    dn = frobenius_norm(diff)
    if dn <= 1e-12 * max(1.0, frobenius_norm(h)):
        return 0.0
    # Overlaps with every canonical direction outside the window block, and
    # with the window identity, in the eigenframe of H.
    c = conjugate(diff, pr.spectrum.vectors.conj().T)
    in_win = np.zeros(n, dtype=bool)
    in_win[offset : offset + k] = True
    a, m = coordinate_pairs(n)
    worst = np.max(np.abs(coordinates(c)[~(in_win[a] & in_win[m])]),
                   initial=0.0)
    scalar_dir = abs(np.sum(c.diagonal()[in_win]).real) / np.sqrt(k)
    return float(max(worst, scalar_dir)) / dn


def sample_sigma_k(n, k, rng, gap=1e-3, spread=2.0):
    """Draw a random member of the k-fold ground-degeneracy manifold:
    a Haar-like eigenbasis (QR of a complex Gaussian matrix) applied to a
    spectrum whose lowest k values coincide and sit at least `gap` below the
    rest. Used as a brute-force sampling oracle for the minimization claim."""
    from .hermitian import random_unitary

    deg = float(rng.standard_normal())
    rest = deg + gap + np.sort(rng.uniform(0.0, spread, size=n - k))
    vals = np.concatenate([np.full(k, deg), rest])
    u = random_unitary(n, rng)
    g = (u * vals) @ u.conj().T
    return (g + g.conj().T) / 2.0
