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

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBoundary, NotInSigmaK
from .hermitian import (_finite_eigvalsh, _from_eigenpairs, conjugate,
                        coordinate_pairs, coordinates, frobenius_norm,
                        random_unitary)
from .spectra import (
    Spectrum,
    eigh,
    unseparated_edge,
    window_distance,
    window_mean,
    window_members,
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
    data: distance = sqrt(k) * std_dev (by `window_distance` of the
    eigenvalues, as `distance_to_sigma` takes it), std_dev the population
    standard deviation of the window eigenvalues, mean_lambda their mean. `unique` is
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
    h_sigma = _from_eigenpairs(spec.vectors, collapsed)
    return ProjectionResult(
        h_sigma=h_sigma,
        distance=window_distance(vals, k, offset),
        std_dev=std,
        mean_lambda=mean,
        unique=unseparated_edge(vals, k, offset) is None,
        spectrum=spec,
        k=k,
        offset=offset,
    )


def distance_to_sigma(h, k, offset=0):
    """sqrt(k) times the standard deviation of the window eigenvalues; equal
    to the Frobenius distance from the k-fold degeneracy manifold, and to
    ||H_eff|| from any valid decomposition of H. A stack of shape
    (..., n, n) gives the distances as an array of shape (...). A matrix
    with a NaN or infinite entry raises LinAlgError."""
    return window_distance(_finite_eigvalsh(h), k, offset)


def project_with_index_set(h, indices):
    """Merge an arbitrary set of k eigenvalues (1-based integer indices) to
    their mean in the eigenbasis of H that `eigh` returns.

    The result lies on the k-fold ground-degeneracy manifold only when the
    mean stays strictly below the lowest omitted eigenvalue; otherwise
    NotInSigmaK is raised. If eigenvalues of H inside and outside the index
    set coincide, the outcome depends on that eigenbasis.
    """
    h = np.asarray(h)
    n = h.shape[0]
    try:
        idx = sorted(set(map(operator.index, indices)))
    except TypeError:
        raise ValueError(f"indices must be integers, got {indices}") from None
    if not idx or idx[0] < 1 or idx[-1] > n:
        raise ValueError(f"indices must be within 1..{n}")
    if len(idx) == n:
        raise ValueError("index set must omit at least one eigenvalue")
    spec = eigh(h)
    vals = spec.eigenvalues.copy()
    sel = np.array([i - 1 for i in idx])
    mean = window_mean(vals[sel], len(sel))
    omitted = np.setdiff1d(np.arange(n), sel)
    lowest_omitted = float(vals[omitted[0]])
    if mean >= lowest_omitted:
        raise NotInSigmaK(
            f"mean {mean:.6g} of the selected eigenvalues is not below the "
            f"lowest omitted eigenvalue {lowest_omitted:.6g}"
        )
    vals[sel] = mean
    return _from_eigenpairs(spec.vectors, vals)


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
    in_win = window_members(n, k, offset)
    a, m = coordinate_pairs(n)
    worst = np.max(np.abs(coordinates(c)[~(in_win[a] & in_win[m])]),
                   initial=0.0)
    scalar_dir = abs(np.sum(c.diagonal()[in_win]).real) / np.sqrt(k)
    return float(max(worst, scalar_dir)) / dn


def sample_sigma_k(n, k, rng):
    """Draw a random member of the k-fold ground-degeneracy manifold:
    a Haar-like eigenbasis (QR of a complex Gaussian matrix) applied to a
    spectrum whose lowest k values coincide and sit at least 1e-3 below the
    rest, which spreads over a width of 2. Used as a brute-force sampling
    oracle for the minimization claim."""
    deg = float(rng.standard_normal())
    rest = deg + 1e-3 + np.sort(rng.uniform(0.0, 2.0, size=n - k))
    vals = np.concatenate([np.full(k, deg), rest])
    return _from_eigenpairs(random_unitary(n, rng), vals)
