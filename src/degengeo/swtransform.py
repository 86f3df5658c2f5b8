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

The parts are assembled in the frame H was given in, in O(n^2 k) work after
the eigendecomposition, with no n x n x n product. Let U_w be the base's
window vectors (identity columns for a diagonal base) and R =
V - U_w U_w^dagger V the part of V outside the base window. Then S =
M + M^dagger with M of rank k, E - I = L [U_w, R]^dagger (E = e^{iS}) has
rank at most 2k, and E^dagger H E is H plus rank-2k corrections: B is the
complement block of those, H_eff is U_w W U_w^dagger with W =
U Lambda_w U^dagger minus its mean (U = X Y^dagger the polar factor of V_w,
Lambda_w the window eigenvalues of H), and the residual
||E (H0 + B + T + H_eff) E^dagger - H||_F comes from the same low-rank form.

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
the distance theorem the collapsed matrix G + U_w (mu - Lambda_w) U_w^dagger
is the closest point of the manifold to G; it is the base of every
decomposition against the anchor, which validated it once, when it was made.
When H is G itself, the anchor's spectrum is H's, and no second
eigendecomposition runs.
The heff order of a family, the cascade's levels and the exact effective
map of the Weyl analysis need only the window block of H_eff:
`Anchor.heff_block` reads it as the decomposition does, in H's frame: off
one eigendecomposition and the polar factor U of the window rows
U_w^dagger V, as U Lambda_w U^dagger, without building S or e^{iS}. It
takes a stack of matrices (a cascade level's four probes, or a whole ladder
of the heff order) in one call. The cascade calls it at level 1 and at each
level whose cluster is a proper sub-block of the level above. A cluster
that fills its block has the identity as its chart, and its effective block
is the traceless part of the block in any basis, so that level takes no
anchor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BasePointNotCanonical, DegenerateBoundary, SubspacesTooFar
from .hermitian import (
    _check_same_dimension,
    _freeze,
    _from_eigenpairs,
    _hermitian_part,
    _overflow_safe,
    _within_ball,
    conjugate,
    coordinate_pairs,
    coordinates,
    frobenius_norm,
    traceless_coordinates,
)
from .spectra import (
    Spectrum,
    check_degenerate,
    check_separated,
    check_window,
    eigh,
    window_half_gap,
    window_mean,
    window_members,
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


def projector_lowest_k(spec, k):
    """The eigenprojector P: the rank-k orthogonal projector onto the span
    of the lowest k eigenvectors.

    Requires lambda_k < lambda_{k+1} strictly (beyond the grouping
    tolerance); on the boundary the projector is not unique and
    DegenerateBoundary is raised.
    """
    check_separated(spec.eigenvalues, k, 0, DegenerateBoundary)
    v = spec.vectors[:, :k]
    return _hermitian_part(v @ v.conj().T)


def _too_far(sep):
    return SubspacesTooFar(
        f"||P - P0||_2 = {sep:.12f} >= 1; no direct rotation exists"
    )


def direct_rotation(p, p0):
    """The direct rotation W = e^{iS} from ran(P0) to ran(P), the rotation
    of the block decomposition: the unitary with W P0 W^dagger = P that
    turns each principal vector of ran(P0) by its principal angle towards
    ran(P) and fixes what is orthogonal to both.
    It equals Kato's (P P0 + (I - P)(I - P0)) (I - (P - P0)^2)^{-1/2} and
    the square root of (I - 2P)(I - 2P0) with eigenvalues closest to 1, and
    is built as in `sw_decompose`, from the principal angles in an
    eigenbasis of P0, which stays accurate up to the limit on the angles.
    Requires ||P - P0||_2 < 1 (projectors of equal rank)."""
    p = np.asarray(p)
    p0 = np.asarray(p0)
    _check_same_dimension(p, p0)
    vals0, frame = np.linalg.eigh(p0)
    vals, vecs = np.linalg.eigh(p)
    members = vals0 > 0.5
    if np.count_nonzero(members) != np.count_nonzero(vals > 0.5):
        raise _too_far(1.0)
    return _Rotation.between(frame[:, members], vecs[:, vals > 0.5]).matrix()


def _principal_angles(v_w):
    """The SVD X cos(Theta) Y^dagger of the window rows v_w of orthonormal
    window eigenvectors, for one k x k block or a stack (..., k, k). Raises
    SubspacesTooFar, with the first such block's separation, when some
    ||P - P0||_2 = max sin(Theta) reaches 1: no direct rotation exists."""
    x, cos, yh = np.linalg.svd(v_w)
    min_cos = cos.min(axis=-1, initial=1.0)
    sep = np.sqrt(np.maximum(0.0, 1.0 - min_cos ** 2))
    far = sep >= 1.0 - 1e-12
    if far.any():
        raise _too_far(float(sep[tuple(np.argwhere(far)[0])]))
    return x, cos, yh


@dataclass(frozen=True)
class _Rotation:
    """The direct rotation e^{iS} from span(U_w) onto span(V), for
    orthonormal n x k columns U_w and V, in low-rank form.

    With U_w^dagger V = X cos(Theta) Y^dagger and R = V - U_w U_w^dagger V,
    the part of V outside span(U_w) (R Y = Z sin(Theta), Z orthonormal), the
    rotation sends U_w to V U^dagger (U = X Y^dagger, the polar factor of
    U_w^dagger V), sends each y orthogonal to U_w to y - U_w U R^dagger y
    - Z (I - cos Theta) Z^dagger y, and fixes what is orthogonal to both
    windows. Written without dividing by sin(Theta):
    e^{iS} = I + l q^dagger with q = [U_w, R] and
    l = [V U^dagger - U_w, -U_w U - R Y (I + cos Theta)^{-1} Y^dagger];
    S = m U_w^dagger + U_w m^dagger with m = -i Z Theta X^dagger, so
    ||S||_2 = max(Theta). Building it costs O(n k^2)."""

    m: np.ndarray
    l: np.ndarray
    q: np.ndarray
    u: np.ndarray
    theta: np.ndarray

    @classmethod
    def between(cls, u_w, v):
        v_w = u_w.conj().T @ v
        x, cos, yh = _principal_angles(v_w)
        u = x @ yh
        r = v - u_w @ v_w
        z_sin = r @ yh.conj().T
        # The columns of z_sin have norms sin(Theta): arctan2 keeps small
        # angles accurate, where arccos(cos) errs by sqrt(machine epsilon).
        theta = np.arctan2(np.linalg.norm(z_sin, axis=0), cos)
        m = -1j * (z_sin / np.sinc(theta / np.pi)) @ x.conj().T
        l = np.concatenate([v @ u.conj().T - u_w,
                            -u_w @ u - (z_sin / (1.0 + cos)) @ yh], axis=1)
        return cls(m, l, np.concatenate([u_w, r], axis=1), u, theta)

    def matrix(self):
        """e^{iS} as a dense n x n matrix, in O(n^2 k)."""
        return np.eye(len(self.q)) + self.l @ self.q.conj().T


@dataclass(frozen=True)
class SWDecomposition:
    """The tuple (S, B, T = c on the window, H_eff) of the exact block
    decomposition, plus the rotation, a validity flag and the residual.

    All matrix parts live in the frame the input was given in, `e` (the
    e^{iS} the principal angles gave) included. For a non-diagonal base
    point, `gauge` holds the unitary whose columns diagonalize the base with
    ascending eigenvalues, and `h0` is the base point with its window
    collapsed exactly. `heff_window` is H_eff as a traceless k x k block in
    the eigenbasis of the base, and `max_angle` the largest principal angle
    between the windows of the base and of H, which is ||S||_2.
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
    heff_window: np.ndarray
    max_angle: float
    gauge: np.ndarray | None = None

    @property
    def n(self):
        return self.h0.shape[0]

    def window_projector(self):
        """Projector P0 onto the base point's degenerate window."""
        members = window_members(self.n, self.k, self.offset)
        if self.gauge is None:
            return np.diag(members.astype(complex))
        u_w = self.gauge[:, members]
        return _hermitian_part(u_w @ u_w.conj().T)

    def t_matrix(self):
        """The scalar part T = c P0."""
        return self.c * self.window_projector()

    def block_diagonal(self):
        """H0 + B + T + H_eff."""
        return self.h0 + self.b + self.t_matrix() + self.h_eff

    def reconstruct(self):
        """The block decomposition reassembled: H = e^{iS} (H0 + B + T +
        H_eff) e^{-iS}."""
        return conjugate(self.block_diagonal(), self.e)

    def _local(self, m):
        """A part of the decomposition in the eigenbasis of the base."""
        return m if self.gauge is None else conjugate(m, self.gauge.conj().T)


def is_diagonal_base(h0):
    """True when h0 minus its real diagonal is entrywise within
    CANONICAL_RTOL * max(1, max|entry|): a base `sw_decompose` takes."""
    scale = max(1.0, float(np.max(np.abs(h0))))
    off = np.max(np.abs(h0 - np.diag(np.diag(h0).real)))
    return bool(off <= CANONICAL_RTOL * scale)


def _validate_canonical_base(h0, k, offset):
    n = h0.shape[0]
    check_window(n, k, offset)
    if k == n:
        raise BasePointNotCanonical("window covers the whole spectrum")
    if not is_diagonal_base(h0):
        raise BasePointNotCanonical("base point must be diagonal")
    scale = max(1.0, float(np.max(np.abs(h0))))
    diag = np.diag(h0).real
    if np.any(np.diff(diag) < -CANONICAL_RTOL * scale):
        raise BasePointNotCanonical("base diagonal must be ascending")
    if window_width(diag, k, offset) > CANONICAL_RTOL * scale:
        raise BasePointNotCanonical(
            "base window eigenvalues must be exactly degenerate"
        )
    check_separated(diag, k, offset, BasePointNotCanonical)


def _decompose(h, spec, h0, u_w, mu, r0, k, offset, gauge=None,
               within_r0=None):
    """The decomposition of H, whose checked eigendecomposition is spec,
    against the base h0: a Hermitian matrix that is mu on the span of the
    orthonormal columns u_w (n x k) and has r0 as the half gap around that
    window. Every part is assembled in H's frame from the low-rank form of
    `_Rotation`, in O(n^2 k): no n x n x n product. `within_r0`, when the
    caller knows it, replaces the test of ||H - h0||_2 < r0, which the
    Frobenius norm decides unless it falls between r0 and sqrt(n) r0."""
    w = slice(offset, offset + k)
    check_separated(spec.eigenvalues, k, offset, DegenerateBoundary)
    rot = _Rotation.between(u_w, spec.vectors[:, w])
    u_wh = u_w.conj().T
    m = rot.m @ u_wh
    s = m + m.conj().T
    l, q = rot.l, rot.q
    lh, qh = l.conj().T, q.conj().T

    block = _from_eigenpairs(rot.u, spec.eigenvalues[w])
    mean = float(_overflow_safe(_trace_mean, block, (-2, -1)))
    heff_window = block - mean * np.eye(k)
    h_eff = _hermitian_part(u_w @ heff_window @ u_wh)
    c = mean - mu

    # E^dagger H E = H + Z q^dagger + q Z^dagger with Z = H l + q K / 2 and
    # K = l^dagger H l; the complement projector Q_c = I - u_w u_w^dagger
    # keeps only the R half of q, so B = Q_c (H - h0) Q_c
    # + (Q_c Z_R) R^dagger + h.c., one n x 2k by 2k x n product.
    delta = _hermitian_part(h - h0)
    t_r = h @ l[:, k:]
    z_r = t_r + 0.5 * (q @ (lh @ t_r))
    j = delta @ u_w
    g = np.concatenate([0.5 * (u_w @ (u_wh @ j)) - j,
                        z_r - u_w @ (u_wh @ z_r)], axis=1) @ qh
    b = delta + (g + g.conj().T)

    # E X E^dagger - H = (X - H) + Z' l^dagger + l Z'^dagger with
    # Z' = X q + l (q^dagger X q) / 2, for X = h0 + B + c P0 + H_eff.
    x = h0 + b + _hermitian_part(u_w @ (heff_window + c * np.eye(k)) @ u_wh)
    t_x = x @ q
    z_x = (t_x + 0.5 * (l @ (qh @ t_x))) @ lh
    residual = frobenius_norm((x - h) + (z_x + z_x.conj().T))

    if within_r0 is None:
        # delta is exactly Hermitian (`_hermitian_part`), as the square
        # bound of `_within_ball` needs.
        within_r0 = _within_ball(delta, r0)
    return SWDecomposition(
        k=k,
        offset=offset,
        h0=h0,
        s=s,
        b=b,
        c=c,
        h_eff=h_eff,
        e=rot.matrix(),
        residual=residual,
        within_r0=within_r0,
        heff_window=heff_window,
        max_angle=float(rot.theta.max()),
        gauge=gauge,
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
    _check_same_dimension(h, h0)
    _validate_canonical_base(h0, k, offset)
    diag0 = np.diag(h0).real
    # The window vectors of a diagonal base are the window's identity
    # columns.
    return _decompose(h, eigh(h), h0, np.eye(len(diag0), k, -offset),
                      float(diag0[offset]), window_half_gap(diag0, k, offset),
                      k, offset)


def sw_decompose_general(h, g0, k, *, offset=0):
    """Decompose H relative to an arbitrary (non-diagonal) degenerate base.

    The base is diagonalized with ascending eigenvalues and its window is
    collapsed exactly; the parts are then assembled in the input frame in
    O(n^2 k) from that gauge's window vectors and the eigendecomposition of
    H, so the whole call costs two eigendecompositions and a k x k SVD. The
    returned parts satisfy the projector-form block conditions with respect
    to the base's window eigenprojector; the diagonalizing gauge is recorded
    on the result (the base's degenerate block leaves a unitary freedom in
    it, under which the spectrum and norm of H_eff are invariant).
    """
    h = np.asarray(h)
    g0 = np.asarray(g0)
    _check_same_dimension(h, g0)
    anchor = Anchor.at(g0, k, offset)
    check_degenerate(anchor.spectrum.eigenvalues, k, offset,
                     BasePointNotCanonical)
    return anchor.decompose(h)


@dataclass(frozen=True)
class Anchor:
    """The chart origin of every decomposition against one base: the
    spectrum of a matrix G near the degeneracy manifold, and `levels`, its
    eigenvalues with the window collapsed to their mean, read-only.

    diag(levels) is the closest point of the manifold to G written in the
    gauge (the eigenbasis of G). That base is canonical by construction once
    its window gaps are checked, which happens once, when the anchor is
    made; `decompose` does not check it again. `matrix` is G itself, which
    `decompose` needs; anchors made from a spectrum alone serve the window
    blocks.
    """

    spectrum: Spectrum
    levels: np.ndarray
    k: int
    offset: int = 0
    matrix: np.ndarray | None = None

    @classmethod
    def at(cls, g, k, offset=0):
        """The anchor at the matrix g, from one eigendecomposition."""
        g = np.asarray(g)
        return cls.from_spectrum(eigh(g), k, offset, matrix=g)

    @classmethod
    def from_spectrum(cls, spectrum, k, offset=0, matrix=None):
        """The anchor at a matrix whose spectrum is already known (and which
        may be given as `matrix`); raises BasePointNotCanonical unless the
        collapsed window is separated."""
        vals = spectrum.eigenvalues.copy()
        vals[offset : offset + k] = window_mean(vals, k, offset)
        check_separated(vals, k, offset, BasePointNotCanonical)
        return cls(spectrum, _freeze(vals), k, offset, matrix)

    @property
    def gauge(self):
        return self.spectrum.vectors

    def local(self, h):
        """h, or each matrix of a stack (..., n, n), in the anchor's
        eigenbasis."""
        return conjugate(h, self.gauge.conj().T)

    def window_block(self, h):
        """The traceless window block of h in the anchor's eigenbasis, with
        no rotation: the first-order effective Hamiltonian. For a stack
        (..., n, n) the blocks come back as (..., k, k)."""
        w = slice(self.offset, self.offset + self.k)
        return _traceless(self.local(h)[..., w, w])

    def decompose(self, h):
        """The decomposition of h, in h's frame and with the anchor's gauge
        recorded, against the collapsed base G + U_w (mu - Lambda_w)
        U_w^dagger. When h is the anchor's own matrix its spectrum is
        reused, and ||h - base||_2 = max|Lambda_w - mu| is read off it."""
        if self.k == self.spectrum.n:
            raise BasePointNotCanonical("window covers the whole spectrum")
        if self.matrix is None:
            raise ValueError("the anchor was made without its matrix")
        h = np.asarray(h)
        _check_same_dimension(h, self.matrix)
        w = slice(self.offset, self.offset + self.k)
        mu = float(self.levels[self.offset])
        dev = self.spectrum.eigenvalues[w] - mu
        u_w = self.gauge[:, w]
        h0 = _hermitian_part(self.matrix - (u_w * dev) @ u_w.conj().T)
        r0 = window_half_gap(self.levels, self.k, self.offset)
        own = h is self.matrix
        return _decompose(
            h, self.spectrum if own else eigh(h), h0, u_w, mu, r0, self.k,
            self.offset, gauge=self.gauge,
            within_r0=bool(np.abs(dev).max() < r0) if own else None)

    def heff_block(self, h):
        """The effective Hamiltonian of h as a dense traceless k x k block in
        the anchor's eigenbasis, bit for bit `decompose(h)`'s window block;
        for a stack (..., n, n) the blocks come back as (..., k, k).

        With V the window eigenvectors of h as given and U = X Y^dagger the
        polar factor of U_w^dagger V (U_w the anchor's window vectors), the
        direct rotation sends the window columns to V U^dagger, so the block
        is U Lambda_w U^dagger (Lambda_w the window eigenvalues) minus its
        mean: one eigendecomposition and one k x k SVD per matrix, and h is
        not conjugated into the anchor's eigenbasis. Each matrix gets
        `decompose`'s checks: the eigensolver residual, DegenerateBoundary
        for an unseparated window, and SubspacesTooFar. When the window
        covers the whole space there is nothing to rotate away and this is
        the traceless part of h."""
        w = slice(self.offset, self.offset + self.k)
        if self.k == self.spectrum.n:
            return _traceless(self.local(h)[..., w, w])
        h, u = np.asarray(h), self.gauge
        if h.shape[-2:] != u.shape:
            raise ValueError(f"dimension mismatch: {h.shape} vs {u.shape}")
        spec = eigh(h)
        check_separated(spec.eigenvalues, self.k, self.offset,
                        DegenerateBoundary)
        x, _, yh = _principal_angles(u[:, w].conj().T @ spec.vectors[..., w])
        return _traceless(_from_eigenpairs(x @ yh, spec.eigenvalues[..., w]))


def _traceless(block):
    """A k x k block, or each of a stack (..., k, k), minus its mean
    diagonal entry times the identity."""
    mean = _overflow_safe(_trace_mean, block, (-2, -1))
    return block - mean[..., None, None] * np.eye(block.shape[-1])


def _trace_mean(block):
    """tr(block) / k of a k x k block, or of each of a stack (..., k, k), by
    the complex trace: for k >= 4 a real diagonal sums in another order."""
    return block.trace(axis1=-2, axis2=-1).real / block.shape[-1]


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
    members = window_members(n, k, dec.offset)
    # Canonical coordinates of S over the off-block pairs, then of B over the
    # complementary block, diagonals included.
    a, m = coordinate_pairs(n)
    x = np.concatenate([
        coordinates(dec._local(dec.s))[members[a] != members[m]],
        coordinates(dec._local(dec.b))[~members[a] & ~members[m]],
        [dec.c * np.sqrt(k)],
    ])
    y = traceless_coordinates(dec.heff_window)
    assert len(x) + len(y) == n * n
    return ChartCoordinates(x=x, y=y)
