"""Value types and Euclidean structure of the real vector space of n x n
Hermitian matrices: construction with exact Hermitization, the orthonormal
canonical basis, traceless bases, Frobenius inner product and norms, and
unitary conjugation.

Matrices are plain complex ndarrays. `hermitian` is the single entry point
that validates and exactly symmetrizes raw input; every constructor in the
package returns arrays that satisfy H == H.conj().T to the last bit, through
the one helper `_hermitian_part`, (A + A^dagger)/2 of a matrix or a stack.
Returned arrays are marked read-only so they can be shared freely.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BasisIndex",
    "hermitian",
    "random_hermitian",
    "random_unitary",
    "frobenius_inner",
    "frobenius_norm",
    "operator_2_norm",
    "canonical_basis",
    "coordinate_pairs",
    "coordinates",
    "from_coordinates",
    "traceless_basis",
    "traceless_coordinates",
    "traceless_from_coordinates",
    "conjugate",
]

#: Relative asymmetry allowed in raw input before Hermitization refuses it.
ASYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class BasisIndex:
    """Label of a canonical-basis element.

    kind is one of "real-offdiag", "imag-offdiag", "diag"; a and b are
    1-based indices with a < b for the off-diagonal kinds and a == b for
    "diag".
    """

    kind: str
    a: int
    b: int


def _freeze(a):
    a.setflags(write=False)
    return a


def _hermitian_part(a):
    """(A + A^dagger)/2 of one matrix, or of each matrix of a stack
    (..., n, n). Exactly Hermitian: entries (a, b) and (b, a) add the same
    two numbers. A complex sum is halved part by part, as reals: dividing it
    by 2 as a complex number flips the sign of some zero parts, and
    `hermitian` would not return its own input to the bit."""
    # C order: a float view needs a contiguous last axis.
    s = np.add(a, a.conj().swapaxes(-1, -2), order="C")
    if s.dtype.kind != "c":
        return s / 2.0
    parts = s.view(s.real.dtype)
    parts /= 2.0
    return s


def _from_eigenpairs(u, vals):
    """U diag(vals) U^dagger, exactly Hermitian (`_hermitian_part`) and
    read-only, for columns u (n x k) and values vals (k,), or for each of a
    stack (..., n, k) and (..., k)."""
    return _freeze(_hermitian_part((u * vals[..., None, :])
                                   @ u.conj().swapaxes(-1, -2)))


def hermitian(entries):
    """Validate and exactly symmetrize a square complex array.

    Returns (A + A^dagger)/2 as a read-only complex array. Input whose
    asymmetry max|A - A^dagger| exceeds ASYMMETRY_RTOL times the largest
    entry magnitude is rejected, as is any non-finite entry, or any real or
    imaginary part above half the largest double.
    """
    a = np.array(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    _check_hermitian(a)
    bound = np.finfo(float).max / 2
    if a.size and max(np.abs(a.real).max(), np.abs(a.imag).max()) > bound:
        raise ValueError(f"matrix entries must have real and imaginary "
                         f"parts of at most {bound} (half the largest double)")
    return _freeze(_hermitian_part(a))


def _check_hermitian(a):
    """`hermitian`'s refusals of a square array: ValueError for a non-finite
    entry, or for an asymmetry max|A - A^dagger| above ASYMMETRY_RTOL times
    the largest entry magnitude."""
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    with np.errstate(over="ignore"):  # an overflow is an asymmetry of inf
        scale = np.max(np.abs(a)) if a.size else 0.0
        asym = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if asym > ASYMMETRY_RTOL * max(scale, 1e-300):
        raise ValueError(
            f"input is not Hermitian: asymmetry {asym:.3e} exceeds "
            f"{ASYMMETRY_RTOL:.1e} * max|entry| = "
            f"{ASYMMETRY_RTOL * scale:.3e}"
        )


def random_hermitian(n, rng, scale=1.0):
    """Random Hermitian matrix with independent Gaussian entries (GUE-like)."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return _freeze(scale * _hermitian_part(a))


def random_unitary(n, rng):
    """Haar-distributed random unitary, from the QR factorization of a
    complex Gaussian matrix with the standard phase fix."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return _freeze(q * (d / np.abs(d)))


def _check_same_dimension(h, k):
    if h.shape != k.shape:
        raise ValueError(f"dimension mismatch: {h.shape} vs {k.shape}")


def frobenius_inner(h, k):
    """Frobenius inner product tr(H K), real for Hermitian arguments."""
    h = np.asarray(h)
    k = np.asarray(k)
    _check_same_dimension(h, k)
    return float(np.sum(h * k.T).real)


def frobenius_norm(h):
    """Frobenius norm sqrt(tr(H^2)) = sqrt(sum |H_ab|^2), as
    `np.linalg.norm(h, "fro")` computes it. Its sum of squares overflows for
    entries above about 1e154; `_overflow_safe` takes such a norm again at a
    power-of-two scale, so it is inf only past the largest double."""
    return float(_overflow_safe(functools.partial(np.linalg.norm, ord="fro"),
                                np.asarray(h), (-2, -1)))


# The decorator form keeps its error state per call on numpy >= 2, so the
# Weyl scan's worker thread may share it.
@np.errstate(over="ignore", invalid="ignore")
def _overflow_safe(f, x, axis):
    """f(x), for an f positively homogeneous of degree 1 along axis (a mean,
    or a root of a sum of squares: f(s x) = s f(x) for s > 0), with each
    value that is inf on a finite x taken again as s * f(x / s). s = 2^(e-1),
    e the exponent `np.frexp` gives for the largest |real or imaginary part|
    along axis, so x / s is exact and its largest part is in [1, 2): the
    value is 2^j f(2^-j x), bit for bit, and overflows only when f(x) itself
    exceeds the largest double. Every other value keeps its bits."""
    out = f(x)
    if np.count_nonzero(np.isinf(out)):
        top = np.maximum(np.abs(x.real), np.abs(x.imag)).max(axis=axis)
        redo = np.isinf(out) & np.isfinite(top)
        scale = np.ldexp(1.0, np.frexp(np.where(redo, top, 1.0))[1] - 1)
        again = scale * f(x / np.expand_dims(scale, axis))
        out = np.where(redo, again, out)[()]
    return out


def _finite_eigvalsh(h):
    """np.linalg.eigvalsh of h, or of each matrix of a stack, after refusing
    a NaN or infinite entry with LinAlgError. eigvalsh itself does not
    always raise there: it returns [0, 0, -0] for diag(0, 1, nan), and NaNs
    for diag(0, 1, inf)."""
    h = np.asarray(h)
    if not np.isfinite(h).all():
        raise np.linalg.LinAlgError("the matrix has a non-finite entry")
    return np.linalg.eigvalsh(h)


def operator_2_norm(h):
    """Operator 2-norm max|lambda_i|, from the eigenvalues of H: a float for
    one n x n H, an array of shape (...) for a stack (..., n, n). A matrix
    with a NaN or infinite entry raises LinAlgError."""
    norms = np.max(np.abs(_finite_eigvalsh(h)), axis=-1, initial=0.0)
    return float(norms) if norms.ndim == 0 else norms


def _within_ball(x, r0):
    """operator_2_norm(x) < r0, as a bool, for one exactly Hermitian n x n x.

    Cheapest first, each bound decides when it clears r0 by a relative
    1e-12, far above the rounding of the norms:
    - ||X||_F / sqrt(n) <= ||X||_2 <= ||X||_F;
    - then ||X||_2 <= ||X^2||_F^(1/2) <= n^(1/4) ||X||_2, since ||X^2||_F^2
      is the sum of |lambda_i|^4. That holds for a normal X only: a
      nilpotent X has X^2 = 0. fl(X X) differs from X^2 by at most
      sqrt(2) gamma_(n+2) |X| |X| entrywise (complex products, Higham,
      Accuracy and Stability of Numerical Algorithms, 3.6), so the computed
      ||X^2||_F is taken within that times ||X||_F^2;
    - one eigvalsh decides when neither does.
    For r0 > 1, x and r0 are first divided by the power of two at or below
    r0 (exact), so r0^2 cannot overflow; ||X||_F overflows only for entries
    past about 1e154 max(1, r0), and the first bound puts such an x outside."""
    if 1.0 < r0 < np.inf:
        scale = np.ldexp(1.0, np.frexp(r0)[1] - 1)
        x, r0 = x / scale, r0 / scale
    n = x.shape[-1]
    fro = np.linalg.norm(x, axis=(-2, -1))
    if fro < r0 * (1.0 - 1e-12):
        return True
    if fro / np.sqrt(n) > r0 * (1.0 + 1e-12):
        return False
    square = np.linalg.norm(x @ x, axis=(-2, -1))
    slack = np.sqrt(2.0) * _gamma(n + 2) * fro ** 2
    r2 = r0 * r0
    if square + slack < r2 * (1.0 - 1e-12):
        return True
    if square - slack > np.sqrt(n) * r2 * (1.0 + 1e-12):
        return False
    return bool(operator_2_norm(x) < r0)


def _gamma(m):
    """gamma_m = m u / (1 - m u), u the unit roundoff of float64: the
    relative error bound of a sum or product of m terms."""
    mu = m * np.finfo(float).eps / 2.0
    return mu / (1.0 - mu)


def _basis_order(n):
    """Index labels in the canonical order of `_canonical_slots`: the basis
    of the upper-left m x m block is completed before index m+1 appears, so
    the first k^2 elements always span the embedded k x k matrices."""
    a, m, off, _ = _canonical_slots(n)
    return [BasisIndex(kind, int(i) + 1, int(j) + 1)
            for i, j, o in zip(a, m, off)
            for kind in (("real-offdiag", "imag-offdiag") if o else ("diag",))]


def _basis_matrix(idx, n):
    mat = np.zeros((n, n), dtype=complex)
    a, b = idx.a - 1, idx.b - 1
    if idx.kind == "real-offdiag":
        mat[a, b] = mat[b, a] = 1.0 / np.sqrt(2.0)
    elif idx.kind == "imag-offdiag":
        mat[a, b] = -1j / np.sqrt(2.0)
        mat[b, a] = 1j / np.sqrt(2.0)
    else:
        mat[a, a] = 1.0
    return _freeze(mat)


def canonical_basis(n):
    """Orthonormal basis of Herm(n) as a list of (BasisIndex, matrix) pairs.

    The n^2 elements are ordered so that for every k <= n the first k^2
    elements span exactly the matrices supported on the upper-left k x k
    block.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return [(idx, _basis_matrix(idx, n)) for idx in _basis_order(n)]


def _canonical_slots(n):
    """The canonical order as an index gather: np.tril_indices(n), read as
    (m, a), lists the entries (a, m), a <= m, in that order. Each
    off-diagonal entry owns two coordinates (real part, imaginary part), each
    diagonal entry one; `slots` marks which of the two are used."""
    m, a = np.tril_indices(n)
    off = a != m
    return a, m, off, np.stack([np.ones_like(off), off], axis=1)


def coordinate_pairs(n):
    """0-based entry (a, m), a <= m, read by each of the n^2 canonical
    coordinates, in order."""
    a, m, _, slots = _canonical_slots(n)
    reads = slots.sum(axis=1)
    return np.repeat(a, reads), np.repeat(m, reads)


def coordinates(h):
    """Coordinates of H in the canonical basis, in the documented order.

    Computed entrywise rather than via inner products, so it is exact:
    off-diagonal pairs contribute (sqrt(2) Re H_ab, -sqrt(2) Im H_ab) and
    diagonal elements contribute H_aa.
    """
    h = np.asarray(h)
    a, m, off, slots = _canonical_slots(h.shape[0])
    z = h[a, m]
    re = np.where(off, np.sqrt(2.0) * z.real, z.real)
    return np.stack([re, -np.sqrt(2.0) * z.imag], axis=1)[slots]


def from_coordinates(v, n):
    """Inverse of `coordinates`: rebuild H from its canonical coordinates."""
    v = np.asarray(v, dtype=float)
    if v.shape != (n * n,):
        raise ValueError(f"expected {n * n} coordinates, got {v.shape}")
    a, m, off, slots = _canonical_slots(n)
    parts = np.zeros(slots.shape)
    parts[slots] = v
    z = np.where(off, (parts[:, 0] - 1j * parts[:, 1]) / np.sqrt(2.0),
                 parts[:, 0])
    h = np.zeros((n, n), dtype=complex)
    h[m, a] = np.conj(z)
    h[a, m] = z
    return _freeze(h)


def traceless_basis(k):
    """Orthonormal basis of the traceless Hermitian k x k matrices.

    The k^2 - 1 elements are the off-diagonal canonical elements followed by
    the Gram-Schmidt orthonormalization of diag differences
    sigma_aa - sigma_(a+1)(a+1) in index order. For k = 2 this is exactly the
    normalized Pauli triple (sigma_x, sigma_y, sigma_z)/sqrt(2). For k = 1
    the basis is empty: every traceless 1 x 1 matrix is zero.
    """
    return list(_traceless_basis(k))


@functools.cache
def _traceless_basis(k):
    """`traceless_basis(k)` as a tuple of read-only matrices, built once per
    k: the coordinate maps run at every Newton iterate and classifier step."""
    if k < 1:
        raise ValueError("traceless basis needs k >= 1")
    mats = [_basis_matrix(idx, k) for idx in _basis_order(k)
            if idx.kind != "diag"]
    diag_members = []
    for a in range(k - 1):
        d = np.zeros(k)
        d[a], d[a + 1] = 1.0, -1.0
        for prev in diag_members:
            d = d - np.dot(prev, d) * prev
        d = d / np.linalg.norm(d)
        diag_members.append(d)
    mats.extend(_freeze(np.diag(d).astype(complex)) for d in diag_members)
    return tuple(mats)


@functools.cache
def _transposed_traceless_basis(k):
    """The transposes of `traceless_basis(k)` as one read-only stack
    (k^2 - 1, k, k)."""
    mats = [c.T for c in _traceless_basis(k)]
    return _freeze(np.stack(mats) if mats else np.zeros((0, k, k), complex))


def traceless_coordinates(block):
    """Coordinates of a traceless Hermitian k x k matrix in `traceless_basis`,
    shape (k^2 - 1,), or of each matrix of a stack (..., k, k), shape
    (..., k^2 - 1): the inner products `frobenius_inner(block, c)`, summed
    in the same order, in one product and one sum."""
    block = np.asarray(block)
    basis = _transposed_traceless_basis(block.shape[-1])
    return np.sum(block[..., None, :, :] * basis, axis=(-2, -1)).real


def traceless_from_coordinates(y, k):
    """Rebuild a traceless k x k matrix from `traceless_basis` coordinates."""
    y = np.asarray(y, dtype=float)
    basis = _traceless_basis(k)
    if y.shape != (len(basis),):
        raise ValueError(f"expected {len(basis)} coordinates, got {y.shape}")
    return _freeze(sum((c * mat for c, mat in zip(y, basis)),
                       np.zeros((k, k), dtype=complex)))


def conjugate(h, u):
    """Unitary conjugation U H U^dagger, re-symmetrized exactly, of one n x n
    H or of each matrix of a stack of shape (..., n, n)."""
    h = np.asarray(h)
    u = np.asarray(u)
    if h.shape[-2:] != u.shape:
        raise ValueError(f"dimension mismatch: {h.shape} vs {u.shape}")
    return _freeze(_hermitian_part(u @ h @ u.conj().T))
