"""Value types and Euclidean structure of the real vector space of n x n
Hermitian matrices: construction with exact Hermitization, the orthonormal
canonical basis, traceless bases, Frobenius inner product and norms, and
unitary conjugation.

Matrices are plain complex ndarrays. `hermitian` is the single entry point
that validates and exactly symmetrizes raw input; every constructor in the
package returns arrays that satisfy H == H.conj().T to the last bit. Returned
arrays are marked read-only so they can be shared freely.
"""

from __future__ import annotations

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

    kind is one of "real-offdiag", "imag-offdiag", "diag", "traceless-diag";
    a and b are 1-based indices with a < b for the off-diagonal kinds and
    a == b for "diag".
    """

    kind: str
    a: int
    b: int


def _freeze(a):
    a.setflags(write=False)
    return a


def hermitian(entries, *, rtol=ASYMMETRY_RTOL):
    """Validate and exactly symmetrize a square complex array.

    Returns (A + A^dagger)/2 as a read-only complex array. Input whose
    asymmetry max|A - A^dagger| exceeds ``rtol`` times the largest entry
    magnitude is rejected, as is any non-finite entry.
    """
    a = np.array(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    scale = np.max(np.abs(a)) if a.size else 0.0
    asym = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
    if asym > rtol * max(scale, 1e-300):
        raise ValueError(
            f"input is not Hermitian: asymmetry {asym:.3e} exceeds "
            f"{rtol:.1e} * max|entry| = {rtol * scale:.3e}"
        )
    return _freeze((a + a.conj().T) / 2.0)


def random_hermitian(n, rng, scale=1.0):
    """Random Hermitian matrix with independent Gaussian entries (GUE-like)."""
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return _freeze(scale * (a + a.conj().T) / 2.0)


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
    """Frobenius norm sqrt(tr(H^2)) = sqrt(sum |H_ab|^2)."""
    return float(np.linalg.norm(np.asarray(h), "fro"))


def operator_2_norm(h):
    """Operator 2-norm max|lambda_i|, from the eigenvalues of H."""
    h = np.asarray(h)
    if h.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(h))))


def _basis_order(n):
    """Index labels in the canonical order: the basis of the upper-left
    m x m block is completed before index m+1 appears, so the first k^2
    elements always span the embedded k x k matrices."""
    order = []
    for m in range(1, n + 1):
        for a in range(1, m):
            order.append(BasisIndex("real-offdiag", a, m))
            order.append(BasisIndex("imag-offdiag", a, m))
        order.append(BasisIndex("diag", m, m))
    return order


def _basis_matrix(idx, n):
    mat = np.zeros((n, n), dtype=complex)
    a, b = idx.a - 1, idx.b - 1
    if idx.kind == "real-offdiag":
        mat[a, b] = mat[b, a] = 1.0 / np.sqrt(2.0)
    elif idx.kind == "imag-offdiag":
        mat[a, b] = -1j / np.sqrt(2.0)
        mat[b, a] = 1j / np.sqrt(2.0)
    elif idx.kind == "diag":
        mat[a, a] = 1.0
    else:
        raise ValueError(f"unknown basis kind {idx.kind!r}")
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
    if k < 1:
        raise ValueError("traceless basis needs k >= 1")
    mats = []
    for m in range(1, k + 1):
        for a in range(1, m):
            mats.append(_basis_matrix(BasisIndex("real-offdiag", a, m), k))
            mats.append(_basis_matrix(BasisIndex("imag-offdiag", a, m), k))
    diag_members = []
    for a in range(k - 1):
        d = np.zeros(k)
        d[a], d[a + 1] = 1.0, -1.0
        for prev in diag_members:
            d = d - np.dot(prev, d) * prev
        d = d / np.linalg.norm(d)
        diag_members.append(d)
    mats.extend(_freeze(np.diag(d).astype(complex)) for d in diag_members)
    return mats


def traceless_coordinates(block):
    """Coordinates of a traceless Hermitian k x k matrix in `traceless_basis`."""
    block = np.asarray(block)
    k = block.shape[0]
    return np.array([frobenius_inner(block, c) for c in traceless_basis(k)])


def traceless_from_coordinates(y, k):
    """Rebuild a traceless k x k matrix from `traceless_basis` coordinates."""
    y = np.asarray(y, dtype=float)
    basis = traceless_basis(k)
    if y.shape != (len(basis),):
        raise ValueError(f"expected {len(basis)} coordinates, got {y.shape}")
    return _freeze(sum((c * mat for c, mat in zip(y, basis)),
                       np.zeros((k, k), dtype=complex)))


def conjugate(h, u):
    """Unitary conjugation U H U^dagger, re-symmetrized exactly."""
    h = np.asarray(h)
    u = np.asarray(u)
    _check_same_dimension(h, u)
    g = u @ h @ u.conj().T
    return _freeze((g + g.conj().T) / 2.0)
