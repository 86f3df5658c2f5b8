"""Constructors for the example Hamiltonians used as verification oracles:
bipartite hopping chains (SSH), the transverse-field-perturbed Ising chain,
the five-qubit stabilizer-code Hamiltonian, and small closed-form matrices
with known exact decompositions and a Weyl point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hermitian import _freeze
from .swtransform import SWDecomposition

__all__ = [
    "PauliString",
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
    "weyl_example",
]

#: Dense qubit Hamiltonians are capped at 2^6 = 64 dimensions; larger chains
#: would silently turn every eigendecomposition into a wait.
MAX_QUBITS = 6

_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliString:
    """A coefficient times a tensor product of single-qubit Paulis,
    written as a letter string like "XZZXI"."""

    n_qubits: int
    letters: str
    coefficient: float = 1.0

    def __post_init__(self):
        if len(self.letters) != self.n_qubits:
            raise ValueError("need one Pauli letter per qubit")
        if any(ch not in _PAULI for ch in self.letters):
            raise ValueError(f"unknown Pauli letter in {self.letters!r}")

    def matrix(self):
        out = np.array([[self.coefficient]], dtype=complex)
        for ch in self.letters:
            out = np.kron(out, _PAULI[ch])
        return _freeze(out)


def pauli_matrix(letters, coefficient=1.0):
    """Dense matrix of a Pauli letter string."""
    return PauliString(len(letters), letters, coefficient).matrix()


def _check_qubits(n_qubits):
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(
            f"qubit count must be between 1 and {MAX_QUBITS}, got {n_qubits}"
        )


def ssh(n_cells, v, w):
    """Open hopping chain with alternating amplitudes on 2*n_cells sites:
    v inside each cell, w between cells. ssh(N, 0, 1) has a twofold zero
    eigenvalue between (N-1)-fold levels at -1 and +1."""
    if n_cells < 2:
        raise ValueError("need at least 2 cells")
    n = 2 * n_cells
    h = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        h[i, i + 1] = h[i + 1, i] = v if i % 2 == 0 else w
    return _freeze(h)


def ssh_hopping_disorder(n_cells, amplitudes):
    """Hopping-disorder direction for the chain: tridiagonal, zero diagonal,
    one complex amplitude per bond (2*n_cells - 1 bonds, hence 4*n_cells - 2
    real parameters)."""
    n = 2 * n_cells
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if amplitudes.shape != (n - 1,):
        raise ValueError(f"need {n - 1} bond amplitudes")
    h = np.zeros((n, n), dtype=complex)
    for i, amp in enumerate(amplitudes):
        h[i, i + 1] = amp
        h[i + 1, i] = np.conj(amp)
    return _freeze(h)


def ising(n_qubits):
    """Ferromagnetic Ising chain -sum_i Z_i Z_{i+1} with open ends.
    Its ground energy -(n_qubits - 1) is twofold degenerate, spanned by the
    all-0 and all-1 states."""
    _check_qubits(n_qubits)
    if n_qubits < 2:
        raise ValueError("need at least 2 qubits")
    dim = 2 ** n_qubits
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(n_qubits - 1):
        letters = ["I"] * n_qubits
        letters[i] = letters[i + 1] = "Z"
        h -= pauli_matrix("".join(letters))
    return _freeze(h)


def transverse_perturbation(n_qubits, xs, ys):
    """Disordered transverse field sum_i (x_i X_i + y_i Y_i)."""
    _check_qubits(n_qubits)
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != (n_qubits,) or ys.shape != (n_qubits,):
        raise ValueError(f"need {n_qubits} x and y field values")
    dim = 2 ** n_qubits
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(n_qubits):
        letters = ["I"] * n_qubits
        letters[i] = "X"
        h += xs[i] * pauli_matrix("".join(letters))
        letters[i] = "Y"
        h += ys[i] * pauli_matrix("".join(letters))
    return _freeze(h)


_FIVE_QUBIT_GENERATORS = ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")


def five_qubit_code():
    """Sum of the four stabilizer generators of the [[5,1,3]] code, a 32 x 32
    Hamiltonian whose lowest eigenvalue is twofold degenerate."""
    h = np.zeros((32, 32), dtype=complex)
    for letters in _FIVE_QUBIT_GENERATORS:
        h += pauli_matrix(letters)
    return _freeze(h)


def one_local(n_qubits, coeffs):
    """Sum over sites of arbitrary single-qubit operators: coeffs holds
    (x_i, y_i, z_i) triples, 3*n_qubits reals in site order."""
    _check_qubits(n_qubits)
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (3 * n_qubits,):
        raise ValueError(f"need {3 * n_qubits} coefficients")
    dim = 2 ** n_qubits
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(n_qubits):
        for j, letter in enumerate("XYZ"):
            letters = ["I"] * n_qubits
            letters[i] = letter
            h += coeffs[3 * i + j] * pauli_matrix("".join(letters))
    return _freeze(h)


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
    diag(0, 0, 1), valid in a neighbourhood of the origin.

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
    )


def weyl_example(x, y, z):
    """Three-parameter 3 x 3 family with an isolated twofold ground
    degeneracy at the origin whose first-order effective Hamiltonian is
    x sigma_x + y sigma_y + z sigma_z: a charge +1 Weyl point."""
    return _freeze(np.array(
        [
            [z, x - 1j * y, y - 1j * x * z],
            [x + 1j * y, -z, x - 1j * y * z],
            [y + 1j * x * z, x + 1j * y * z, 1.0 + x * y * z],
        ],
        dtype=complex,
    ))
