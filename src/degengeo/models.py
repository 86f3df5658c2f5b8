"""Constructors for the example Hamiltonians used as verification oracles:
bipartite hopping chains (SSH), the transverse-field-perturbed Ising chain,
the five-qubit stabilizer-code Hamiltonian, and small closed-form matrices
with known exact decompositions and a Weyl point. The spin models (Ising,
its transverse and one-local directions, the code) are Pauli sums, all
built by one private helper, of at most MAX_QUBITS = 6 qubits; hopping
chains have at most MAX_CELLS = 128 cells (n = 256).

Pauli words are written in closed form, with no tensor products. Read the
letters as bits, the first letter the most significant: xmask marks the X
and Y letters, zmask the Z and Y letters. A word then has exactly one
nonzero per row r, at column r XOR xmask, and since Y = iXZ its value there
is i^{#Y} (-1)^{popcount(column & zmask)}. All words of a sum are read in
one array pass: a letter table gives each letter's two bits, so xmask,
zmask and #Y of every word come from one lookup, and the parity of
column & zmask from one `np.bitwise_count` over the (words x 2^q) array of
columns. A Pauli sum adds c_j times these 2^q values to a zero matrix, in
term order (`np.add.at`); every nonzero is an exact +-c_j or +-i c_j, so the
sum has the bytes of the sum of the tensor products.
"""

from __future__ import annotations

import numpy as np

from .hermitian import _freeze
from .swtransform import SWDecomposition
from .weyl import MonomialTable

__all__ = [
    "pauli_matrix",
    "ssh",
    "ssh_hopping_disorder",
    "ising",
    "transverse_perturbation",
    "five_qubit_code",
    "one_local",
    "example_3x3",
    "example_pr",
    "example_pr_reference",
    "WEYL_EXAMPLE_TERMS",
    "weyl_example",
]

#: Dense qubit Hamiltonians are capped at 2^6 = 64 dimensions; larger chains
#: would silently turn every eigendecomposition into a wait.
MAX_QUBITS = 6

#: Hopping chains are capped at 128 cells, n = 256, the largest dense size
#: the package is measured at; 20000 cells would ask for 23.8 GiB.
MAX_CELLS = 128

#: Pauli letter -> (flips the bit, reads the bit's sign); Y = iXZ does both.
_PAULI = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}

#: _PAULI as a table indexed by the letter's byte.
_LETTER_BITS = np.zeros((256, 2), dtype=np.intp)
_LETTER_BITS[[ord(ch) for ch in _PAULI]] = list(_PAULI.values())

#: A word's value i^{#Y} (-1)^parity at [#Y mod 4, parity], with the signed
#: zeros of the complex values i^{#Y} and -(i^{#Y}).
_PHASES = np.array([[1, -1], [1j, -(1j)], [-1, 1], [-(1j), 1j]],
                   dtype=complex)


def _pauli_entries(words, n_qubits):
    """The nonzeros of each of the words of n_qubits letters, as two
    (words x 2^n_qubits) arrays: row r of word j holds phases[j, r] at column
    cols[j, r]."""
    codes = np.frombuffer("".join(words).encode("ascii"), dtype=np.uint8)
    bits = _LETTER_BITS[codes.reshape(len(words), n_qubits)]
    xmask, zmask = (1 << np.arange(n_qubits - 1, -1, -1)) @ bits.T
    cols = np.arange(2 ** n_qubits) ^ xmask[:, None]
    parity = np.bitwise_count(cols & zmask[:, None]) & 1
    n_y = (bits[..., 0] & bits[..., 1]).sum(axis=1)
    return cols, _PHASES[n_y[:, None] & 3, parity]


def pauli_matrix(letters, coefficient=1.0):
    """Dense matrix of coefficient times the Pauli word `letters`, one
    letter I, X, Y or Z per qubit, the first letter the most significant
    bit; a word with any other letter is refused."""
    if any(ch not in _PAULI for ch in letters):
        raise ValueError(f"unknown Pauli letter in {letters!r}")
    cols, phases = _pauli_entries([letters], len(letters))
    dim = cols.shape[1]
    out = np.zeros((dim, dim), dtype=complex)
    out[np.arange(dim), cols[0]] = coefficient * phases[0]
    return _freeze(out)


def _check_count(what, count, least, most):
    if not least <= count <= most:
        raise ValueError(f"{what} count must be between {least} and "
                         f"{most}, got {count}")
    return count


def _site_words(n_qubits, blocks):
    """Pauli words with each block at each site where it fits, site by site:
    _site_words(2, "XY") is XI, YI, IX, IY; _site_words(3, ["ZZ"]) ZZI, IZZ."""
    return ["I" * i + b + "I" * (n_qubits - i - len(b))
            for i in range(n_qubits) for b in blocks if i + len(b) <= n_qubits]


def _pauli_sum(n_qubits, terms):
    """sum_j c_j P_j over the (c_j, word_j) terms, added in order to zero;
    each term touches only its 2^n_qubits nonzeros."""
    terms = list(terms)
    dim = 2 ** n_qubits
    h = np.zeros(dim * dim, dtype=complex)
    cols, phases = _pauli_entries([word for _, word in terms], n_qubits)
    vals = np.array([c for c, _ in terms])[:, None] * phases
    # Flat indices, term by term: each row r of a term at r * dim + column.
    np.add.at(h, (cols + np.arange(0, dim * dim, dim)).ravel(), vals.ravel())
    return _freeze(h.reshape(dim, dim))


def ssh(n_cells, v, w):
    """Open hopping chain with alternating amplitudes on 2*n_cells sites:
    v inside each cell, w between cells. ssh(N, 0, 1) has a twofold zero
    eigenvalue between (N-1)-fold levels at -1 and +1."""
    _check_count("cell", n_cells, 2, MAX_CELLS)
    n = 2 * n_cells
    h = np.zeros((n, n), dtype=complex)
    i = np.arange(n - 1)
    h[i, i + 1] = h[i + 1, i] = np.where(i % 2 == 0, v, w)
    return _freeze(h)


def ssh_hopping_disorder(n_cells, amplitudes):
    """Hopping-disorder direction for the chain: tridiagonal, zero diagonal,
    one complex amplitude per bond (2*n_cells - 1 bonds, hence 4*n_cells - 2
    real parameters)."""
    _check_count("cell", n_cells, 1, MAX_CELLS)
    n = 2 * n_cells
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if amplitudes.shape != (n - 1,):
        raise ValueError(f"need {n - 1} bond amplitudes")
    h = np.zeros((n, n), dtype=complex)
    i = np.arange(n - 1)
    h[i, i + 1] = amplitudes
    h[i + 1, i] = amplitudes.conj()
    return _freeze(h)


def ising(n_qubits):
    """Ferromagnetic Ising chain -sum_i Z_i Z_{i+1} with open ends.
    Its ground energy -(n_qubits - 1) is twofold degenerate, spanned by the
    all-0 and all-1 states."""
    _check_count("qubit", n_qubits, 2, MAX_QUBITS)
    return _pauli_sum(n_qubits,
                      [(-1.0, w) for w in _site_words(n_qubits, ["ZZ"])])


def transverse_perturbation(n_qubits, xs, ys):
    """Disordered transverse field sum_i (x_i X_i + y_i Y_i)."""
    _check_count("qubit", n_qubits, 1, MAX_QUBITS)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != (n_qubits,) or ys.shape != (n_qubits,):
        raise ValueError(f"need {n_qubits} x and y field values")
    return _pauli_sum(n_qubits, zip(np.column_stack([xs, ys]).ravel(),
                                    _site_words(n_qubits, "XY")))


_FIVE_QUBIT_GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")


def five_qubit_code():
    """Sum of the four stabilizer generators of the [[5,1,3]] code, a 32 x 32
    Hamiltonian whose lowest eigenvalue is twofold degenerate."""
    return _pauli_sum(5, [(1.0, word) for word in _FIVE_QUBIT_GENERATORS])


def one_local(n_qubits, coeffs):
    """Sum over sites of arbitrary single-qubit operators: coeffs holds
    (x_i, y_i, z_i) triples, 3*n_qubits reals in site order."""
    _check_count("qubit", n_qubits, 1, MAX_QUBITS)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (3 * n_qubits,):
        raise ValueError(f"need {3 * n_qubits} coefficients")
    return _pauli_sum(n_qubits, zip(coeffs, _site_words(n_qubits, "XYZ")))


def example_3x3(v, x, y, z, p, q, r, s, w=0.0):
    """The fully parametrized 3 x 3 matrix around diag(0, 0, 1): the window
    block carries (v, x, y, z), the coupling to the third level (p, q, r, s),
    and w shifts the third level."""
    return _freeze(np.array(
        [
            [v + z, x - 1j * y, p - 1j * q],
            [x + 1j * y, v - z, r - 1j * s],
            [p + 1j * q, r + 1j * s, 1.0 + w],
        ],
        dtype=complex,
    ))


def example_pr(p, r):
    """Two-parameter section through diag(0, 0, 1) whose decomposition has
    closed-form parts; see `example_pr_reference`."""
    return _freeze(np.array(
        [[0.0, 0.0, p], [0.0, 0.0, r], [p, r, 1.0]], dtype=complex
    ))


def example_pr_reference(p, r):
    """Closed-form decomposition of `example_pr(p, r)` relative to
    diag(0, 0, 1), valid in a neighbourhood of the origin: the oracle the
    tests compare `sw_decompose` against.

    With q2 = p^2 + r^2, root = sqrt(1 + 4 q2) and A the real antisymmetric
    [[0, 0, p], [0, 0, r], [-p, -r, 0]]:

        S     = -i phi A,  phi = arctan((root - 1) / (2 sqrt(q2))) / sqrt(q2)
        B     = (root - 1)/2 on the third level
        c     = (1 - root)/4
        H_eff = (1 - root) / (4 q2) * [[p^2 - r^2, 2 p r], [2 p r, r^2 - p^2]]

    and, since A^3 = -q2 A, Rodrigues' formula gives the rotation
    e^{iS} = e^{phi A} = I + sin(phi sqrt(q2))/sqrt(q2) A
    + (1 - cos(phi sqrt(q2)))/q2 A^2. At the origin every part vanishes.
    """
    q2 = p * p + r * r
    q = np.sqrt(q2)
    root = np.sqrt(1.0 + 4.0 * q2)
    anti = np.array([[0, 0, p], [0, 0, r], [-p, -r, 0]], dtype=complex)
    if q2 == 0.0:
        angle = 0.0
        s = np.zeros((3, 3), dtype=complex)
        h_eff = np.zeros((3, 3), dtype=complex)
        e = np.eye(3, dtype=complex)
    else:
        angle = np.arctan((root - 1.0) / (2.0 * q))
        s = -1j * (angle / q) * anti
        e = (np.eye(3) + np.sin(angle) / q * anti
             + (1.0 - np.cos(angle)) / q2 * (anti @ anti))
        h_eff = (1.0 - root) / (4.0 * q2) * np.array(
            [[p * p - r * r, 2.0 * p * r, 0.0],
             [2.0 * p * r, r * r - p * p, 0.0],
             [0.0, 0.0, 0.0]], dtype=complex)
    b = np.zeros((3, 3), dtype=complex)
    b[2, 2] = (root - 1.0) / 2.0
    c = (1.0 - root) / 4.0
    h0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    # The closed form is exact; report its numerical reconstruction error.
    bd = h0 + b + c * np.diag([1.0, 1.0, 0.0]) + h_eff
    residual = float(np.linalg.norm(e @ bd @ e.conj().T - example_pr(p, r)))
    return SWDecomposition(
        k=2, offset=0, h0=h0, s=_freeze(s), b=_freeze(b), c=float(c),
        h_eff=_freeze(h_eff), e=_freeze(e), residual=residual, within_r0=True,
        heff_window=_freeze(h_eff[:2, :2].copy()), max_angle=float(angle),
    )


def _terms(terms):
    return {alpha: _freeze(np.array(coeff, dtype=complex))
            for alpha, coeff in terms.items()}


#: The coefficients {(a, b, c): C} of `weyl_example`, the sum of
#: x^a y^b z^c C: multilinear, with the seven monomials 1, x, y, z, xz, yz
#: and xyz.
WEYL_EXAMPLE_TERMS = _terms({
    (0, 0, 0): np.diag([0, 0, 1]),
    (1, 0, 0): [[0, 1, 0], [1, 0, 1], [0, 1, 0]],
    (0, 1, 0): [[0, -1j, 1], [1j, 0, 0], [1, 0, 0]],
    (0, 0, 1): np.diag([1, -1, 0]),
    (1, 0, 1): [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
    (0, 1, 1): [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
    (1, 1, 1): np.diag([0, 0, 1]),
})


def weyl_example(x, y, z):
    """Three-parameter 3 x 3 family with an isolated twofold ground
    degeneracy at the origin whose first-order effective Hamiltonian is
    x sigma_x + y sigma_y + z sigma_z: a charge +1 Weyl point. It is

        [[z,            x - i y,      y - i x z  ],
         [x + i y,      -z,           x - i y z  ],
         [y + i x z,    x + i y z,    1 + x y z  ]],

    evaluated from WEYL_EXAMPLE_TERMS."""
    return _freeze(MonomialTable.of(WEYL_EXAMPLE_TERMS).value(
        np.array([x, y, z], dtype=float)))
