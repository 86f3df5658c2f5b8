"""Exact block diagonalization of a Hermitian matrix relative to a degenerate
base point, via the direct rotation between eigenspaces.

Given a diagonal base point H0 whose eigenvalue window of size k is exactly
degenerate and strictly separated from the rest, every nearby H factors
uniquely as

    H = e^{iS} (H0 + B + T + H_eff) e^{-iS}

with S off-block (zero inside both diagonal blocks), B supported on the
complementary block, T a scalar shift c on the degenerate block, and H_eff a
traceless matrix on the degenerate block. e^{iS} is the direct rotation from
the window of H0 onto the matching eigenspace of H, read off the principal
angles between the two (Davis & Kahan 1970): with V the window eigenvectors
of H, window rows V_w = X cos(Theta) Y^dagger and other rows V_c Y =
Z sin(Theta), S[c, w] = -i Z Theta X^dagger, so ||S||_2 = max(Theta). One
eigendecomposition of H and a k x k SVD give the whole decomposition, and
the result keeps that e^{iS}.

Uniqueness with ||S||_2 < pi/2 is guaranteed inside the operator-2-norm ball
of radius r0 = half the spectral gap of H0; outside it the decomposition is
still attempted whenever ||P - P0||_2 = max sin(Theta) < 1 for the window
eigenprojectors P and P0, so every result has ||S||_2 < pi/2 (the
`decompose` report still derives its `s_norm_ok` key from that), and its
`within_r0` flag tells the caller which regime it is in.

The default window is the lowest k eigenvalues. An `offset` shifts the window
upward (eigenvalues offset+1 .. offset+k in ascending order), which is how
mid-spectrum degeneracies such as zero modes of bipartite hopping chains are
handled; all block structure then refers to coordinate index sets instead of
contiguous leading blocks.

Every decomposition against a base that is not given diagonal goes through
an `Anchor`: the eigendecomposition of a matrix G near the degeneracy
manifold, and its spectrum with the window collapsed to the window mean. By
the distance theorem the collapsed matrix is the closest point of the
manifold to G; in the eigenbasis of G (the anchor's gauge) it is diagonal,
so each H is taken into that gauge and decomposed against the diagonal base,
which the anchor validated once, when it was made.
The general-base decomposition, the heff splitting samples, every level of
the cascade and the effective maps of the Weyl analysis all work this way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasePointNotCanonical, DegenerateBoundary, SubspacesTooFar
from .hermitian import (
    conjugate,
    coordinate_pairs,
    coordinates,
    frobenius_norm,
    operator_2_norm,
    traceless_coordinates,
)
from .spectra import (
    DEGENERACY_RTOL,
    Spectrum,
    check_window,
    coincidence_tolerance,
    eigh,
    unseparated_edge,
    window_spread,
    window_width,
)

__all__ = [
    "SWDecomposition",
    "ChartCoordinates",
    "projector_lowest_k",
    "direct_rotation",
    "sw_decompose",
    "sw_decompose_general",
    "chart_coordinates",
]

#: Base points must be diagonal/degenerate to this relative precision.
CANONICAL_RTOL = 1e-12


def _window_members(n, k, offset):
    check_window(n, k, offset)
    members = np.zeros(n, dtype=bool)
    members[offset : offset + k] = True
    return members


def _check_window_gaps(vals, k, offset, exc):
    """Require strict separation of the window from its neighbours."""
    tol = coincidence_tolerance(vals, DEGENERACY_RTOL)
    i = unseparated_edge(vals, k, offset, tol)
    if i is not None:
        raise exc(
            f"eigenvalues {i} and {i + 1} coincide within tolerance {tol:.3e}"
        )


def projector_lowest_k(spec, k):
    """Rank-k orthogonal projector onto the span of the lowest k eigenvectors.

    Requires lambda_k < lambda_{k+1} strictly (beyond the grouping
    tolerance); on the boundary the projector is not unique and
    DegenerateBoundary is raised.
    """
    _check_window_gaps(spec.eigenvalues, k, 0, DegenerateBoundary)
    v = spec.vectors[:, :k]
    p = v @ v.conj().T
    return (p + p.conj().T) / 2.0


def _too_far(sep):
    return SubspacesTooFar(
        f"||P - P0||_2 = {sep:.12f} >= 1; no direct rotation exists"
    )


def direct_rotation(p, p0):
    """The direct rotation W from ran(P0) to ran(P): the unitary with
    W P0 W^dagger = P that turns each principal vector of ran(P0) by its
    principal angle towards ran(P) and fixes what is orthogonal to both.
    It equals Kato's (P P0 + (I - P)(I - P0)) (I - (P - P0)^2)^{-1/2} and
    the square root of (I - 2P)(I - 2P0) with eigenvalues closest to 1, and
    is built as in `sw_decompose`, from the principal angles in an
    eigenbasis of P0, which stays accurate up to the limit on the angles.
    Requires ||P - P0||_2 < 1 (projectors of equal rank)."""
    p = np.asarray(p)
    p0 = np.asarray(p0)
    if p.shape != p0.shape:
        raise ValueError(f"dimension mismatch: {p.shape} vs {p0.shape}")
    vals0, frame = np.linalg.eigh(p0)
    vals, vecs = np.linalg.eigh(p)
    members = vals0 > 0.5
    if np.count_nonzero(members) != np.count_nonzero(vals > 0.5):
        raise _too_far(1.0)
    _, e = _window_rotation(frame.conj().T @ vecs[:, vals > 0.5], members)
    return frame @ e @ frame.conj().T


def _window_rotation(v, members):
    """S and e^{iS} of the direct rotation from the coordinate window
    `members` onto the span of the orthonormal columns v.

    With v_w = X cos(Theta) Y^dagger and v_c Y = Z sin(Theta), the rotation
    sends the window columns to v U^dagger (U = X Y^dagger, the polar factor
    of v_w), the complement columns' window rows to -U v_c^dagger, and acts
    on the complement block as I - Z (I - cos Theta) Z^dagger, written without
    dividing by sin(Theta)."""
    v_w, v_c = v[members], v[~members]
    x, cos, yh = np.linalg.svd(v_w)
    sep = float(np.sqrt(max(0.0, 1.0 - np.min(cos, initial=1.0) ** 2)))
    if sep >= 1.0 - 1e-12:
        raise _too_far(sep)
    theta = np.arccos(np.minimum(cos, 1.0))
    z_sin = v_c @ yh.conj().T
    u = x @ yh
    n = len(members)
    off, comp = np.ix_(~members, members), np.ix_(~members, ~members)
    s = np.zeros((n, n), dtype=complex)
    s[off] = -1j * (z_sin / np.sinc(theta / np.pi)) @ x.conj().T
    s[np.ix_(members, ~members)] = s[off].conj().T
    e = np.zeros((n, n), dtype=complex)
    e[:, members] = v @ u.conj().T
    e[np.ix_(members, ~members)] = -u @ v_c.conj().T
    e[comp] = np.eye(n - len(cos)) - (z_sin / (1.0 + cos)) @ z_sin.conj().T
    return s, e


@dataclass(frozen=True)
class SWDecomposition:
    """The tuple (S, B, T = c on the window, H_eff) of the exact block
    decomposition, plus the rotation, a validity flag and the residual.

    All matrix parts live in the frame the input was given in, except `e`,
    the e^{iS} the principal angles gave, kept in the eigenbasis of the base
    and read by `rotation` and `reconstruct`. For a non-diagonal base point,
    `gauge` holds the unitary whose columns diagonalize the base with
    ascending eigenvalues, and `h0` is the base point with its window
    collapsed exactly.
    """

    k: int
    offset: int
    h0: np.ndarray
    s: np.ndarray
    b: np.ndarray
    c: float
    h_eff: np.ndarray
    e: np.ndarray
    residual: float
    within_r0: bool
    gauge: np.ndarray | None = None

    @property
    def n(self):
        return self.h0.shape[0]

    def window_projector(self):
        """Projector P0 onto the base point's degenerate window."""
        members = _window_members(self.n, self.k, self.offset)
        p0 = np.diag(members.astype(complex))
        return p0 if self.gauge is None else conjugate(p0, self.gauge)

    def t_matrix(self):
        """The scalar part T = c P0."""
        return self.c * self.window_projector()

    def block_diagonal(self):
        """H0 + B + T + H_eff."""
        return self.h0 + self.b + self.t_matrix() + self.h_eff

    def rotation(self):
        """e^{iS} in the input frame (unitary, so not re-symmetrized)."""
        if self.gauge is None:
            return self.e
        return self.gauge @ self.e @ self.gauge.conj().T

    def reconstruct(self):
        """e^{iS} (H0 + B + T + H_eff) e^{-iS}."""
        return conjugate(self.block_diagonal(), self.rotation())

    def _local(self, m):
        """A part of the decomposition in the eigenbasis of the base."""
        return m if self.gauge is None else conjugate(m, self.gauge.conj().T)

    def heff_block(self):
        """The effective Hamiltonian as a dense traceless k x k matrix, in
        the eigenbasis of the base point."""
        w = slice(self.offset, self.offset + self.k)
        return self._local(self.h_eff)[w, w]

    def s_2norm(self):
        return operator_2_norm(self.s)


def _validate_canonical_base(h0, k, offset):
    n = h0.shape[0]
    check_window(n, k, offset)
    if k == n:
        raise BasePointNotCanonical("window covers the whole spectrum")
    scale = max(1.0, float(np.max(np.abs(h0))))
    diag = np.diag(h0).real
    if np.max(np.abs(h0 - np.diag(diag))) > CANONICAL_RTOL * scale:
        raise BasePointNotCanonical("base point must be diagonal")
    if np.any(np.diff(diag) < -CANONICAL_RTOL * scale):
        raise BasePointNotCanonical("base diagonal must be ascending")
    if window_width(diag, k, offset) > CANONICAL_RTOL * scale:
        raise BasePointNotCanonical(
            "base window eigenvalues must be exactly degenerate"
        )
    _check_window_gaps(diag, k, offset, BasePointNotCanonical)


def _window_half_gap(diag, k, offset):
    gaps = []
    if offset > 0:
        gaps.append(diag[offset] - diag[offset - 1])
    if offset + k < len(diag):
        gaps.append(diag[offset + k] - diag[offset + k - 1])
    return min(gaps) / 2.0 if gaps else np.inf


def _decompose(h, h0, k, offset):
    """The decomposition of H against a diagonal base H0 known to be
    canonical."""
    n = h.shape[0]
    diag0 = np.diag(h0).real
    members = _window_members(n, k, offset)

    spec = eigh(h)
    _check_window_gaps(spec.eigenvalues, k, offset, DegenerateBoundary)
    s, e = _window_rotation(spec.vectors[:, offset : offset + k], members)
    bd = conjugate(h, e.conj().T)

    win_block = bd[np.ix_(members, members)]
    mean = float(np.trace(win_block).real) / k
    c = mean - float(diag0[offset])
    h_eff = np.zeros((n, n), dtype=complex)
    h_eff[np.ix_(members, members)] = win_block - mean * np.eye(k)
    b = np.zeros((n, n), dtype=complex)
    b[np.ix_(~members, ~members)] = (
        bd[np.ix_(~members, ~members)] - np.diag(diag0[~members])
    )

    t = c * np.diag(members.astype(complex))
    residual = frobenius_norm(conjugate(h0 + b + t + h_eff, e) - h)

    return SWDecomposition(
        k=k,
        offset=offset,
        h0=h0,
        s=s,
        b=b,
        c=c,
        h_eff=h_eff,
        e=e,
        residual=residual,
        within_r0=bool(
            operator_2_norm(h - h0) < _window_half_gap(diag0, k, offset)
        ),
    )


def sw_decompose(h, h0, k, *, offset=0):
    """Decompose H relative to a diagonal degenerate base point H0.

    The window is the k eigenvalues starting after `offset` in ascending
    order (offset 0: ground-state window). H must have that window strictly
    separated; H0 must be diagonal, ascending, exactly degenerate on the
    window, and is checked for that on every call. Raises
    DegenerateBoundary, SubspacesTooFar, or BasePointNotCanonical
    accordingly.

    `within_r0` marks ||H - H0||_2 < r0, where the decomposition with
    ||S||_2 < pi/2 is provably unique. Outside the ball it is still returned
    whenever the direct rotation exists, and ||S||_2 < pi/2 holds there too.
    """
    h = np.asarray(h)
    h0 = np.asarray(h0)
    if h.shape != h0.shape:
        raise ValueError(f"dimension mismatch: {h.shape} vs {h0.shape}")
    _validate_canonical_base(h0, k, offset)
    return _decompose(h, h0, k, offset)


def sw_decompose_general(h, g0, k, *, offset=0):
    """Decompose H relative to an arbitrary (non-diagonal) degenerate base.

    The base is diagonalized with ascending eigenvalues, the window is
    collapsed exactly, the diagonal-frame decomposition is computed, and all
    parts are conjugated back. The returned parts satisfy the projector-form
    block conditions with respect to the base's window eigenprojector; the
    diagonalizing gauge is recorded on the result (the base's degenerate
    block leaves a unitary freedom in it, under which the spectrum and norm
    of H_eff are invariant).
    """
    h = np.asarray(h)
    g0 = np.asarray(g0)
    if h.shape != g0.shape:
        raise ValueError(f"dimension mismatch: {h.shape} vs {g0.shape}")
    anchor = Anchor.at(g0, k, offset)
    vals0 = anchor.spectrum.eigenvalues
    if window_width(vals0, k, offset) > coincidence_tolerance(
            vals0, DEGENERACY_RTOL):
        raise BasePointNotCanonical(
            "base point's window is not degenerate within tolerance"
        )
    dec = anchor.decompose(h)

    def back(m):
        return conjugate(m, anchor.gauge)

    return SWDecomposition(
        k=k,
        offset=offset,
        h0=back(anchor.base),
        s=back(dec.s),
        b=back(dec.b),
        c=dec.c,
        h_eff=back(dec.h_eff),
        e=dec.e,
        residual=dec.residual,
        within_r0=dec.within_r0,
        gauge=anchor.gauge,
    )


@dataclass(frozen=True)
class Anchor:
    """The chart origin of every decomposition against one base: the
    spectrum of a matrix G near the degeneracy manifold, and `base`, its
    eigenvalues with the window collapsed to their mean as a diagonal matrix.

    `base` is the closest point of the manifold to G written in the gauge
    (the eigenbasis of G), so a matrix H taken into that gauge decomposes
    against a diagonal base point. That base is canonical by construction
    once its window gaps are checked, which happens once, when the anchor is
    made; `decompose` does not check it again.
    """

    spectrum: Spectrum
    base: np.ndarray
    k: int
    offset: int = 0

    @classmethod
    def at(cls, g, k, offset=0):
        """The anchor at the matrix g, from one eigendecomposition."""
        return cls.from_spectrum(eigh(g), k, offset)

    @classmethod
    def from_spectrum(cls, spectrum, k, offset=0):
        """The anchor at a matrix whose spectrum is already known; raises
        BasePointNotCanonical unless the collapsed window is separated."""
        vals = spectrum.eigenvalues.copy()
        vals[offset : offset + k] = window_spread(vals, k, offset)[0]
        _check_window_gaps(vals, k, offset, BasePointNotCanonical)
        return cls(spectrum, np.diag(vals).astype(complex), k, offset)

    @property
    def gauge(self):
        return self.spectrum.vectors

    def local(self, h):
        """h in the anchor's eigenbasis."""
        return conjugate(h, self.gauge.conj().T)

    def window_block(self, h):
        """The traceless window block of h in the anchor's eigenbasis, with
        no rotation: the first-order effective Hamiltonian."""
        w = slice(self.offset, self.offset + self.k)
        block = self.local(h)[w, w]
        return block - (np.trace(block).real / self.k) * np.eye(self.k)

    def decompose(self, h):
        """The decomposition of h, in the anchor's eigenbasis, against the
        collapsed base."""
        if self.k == self.spectrum.n:
            raise BasePointNotCanonical("window covers the whole spectrum")
        return _decompose(self.local(h), self.base, self.k, self.offset)

    def heff_block(self, h):
        """The effective Hamiltonian of h as a dense traceless k x k block;
        when the window covers the whole space there is nothing to rotate
        away and this is the traceless part of h."""
        if self.k == self.spectrum.n:
            return self.window_block(h)
        w = slice(self.offset, self.offset + self.k)
        return self.decompose(h).h_eff[w, w]


@dataclass(frozen=True)
class ChartCoordinates:
    """Local coordinates induced by the decomposition around the base point.

    x collects the in-manifold coordinates of (S, B, T): 2k(n-k) canonical
    coordinates of S over the off-block index pairs, then (n-k)^2 canonical
    coordinates of B over the complementary block, then the single scalar
    coordinate c*sqrt(k) of T along the normalized window identity. y holds
    the k^2 - 1 coordinates of H_eff in the traceless window basis: the
    degeneracy manifold is exactly the zero locus of y.
    """

    x: np.ndarray
    y: np.ndarray


def chart_coordinates(dec):
    """Chart coordinates (x, y) of a decomposition, in the documented order."""
    n, k = dec.n, dec.k
    members = _window_members(n, k, dec.offset)
    # Canonical coordinates of S over the off-block pairs, then of B over the
    # complementary block, diagonals included.
    a, m = coordinate_pairs(n)
    x = np.concatenate([
        coordinates(dec._local(dec.s))[members[a] != members[m]],
        coordinates(dec._local(dec.b))[~members[a] & ~members[m]],
        [dec.c * np.sqrt(k)],
    ])
    y = traceless_coordinates(dec.heff_block())
    assert len(x) + len(y) == n * n
    return ChartCoordinates(x=x, y=y)
