"""Model constructors: spectra, symmetries, and the closed-form references."""

import itertools

import numpy as np
import pytest

from degengeo.hermitian import frobenius_norm
from degengeo.models import (
    MAX_CELLS,
    MAX_QUBITS,
    WEYL_EXAMPLE_TERMS,
    _pauli_sum,
    example_3x3,
    example_pr,
    example_pr_reference,
    five_qubit_code,
    ising,
    one_local,
    pauli_matrix,
    ssh,
    ssh_hopping_disorder,
    transverse_perturbation,
    weyl_example,
)
from degengeo.swtransform import sw_decompose


def test_pauli_string_hand_values():
    xz = pauli_matrix("XZ")
    # X (x) Z: basis order 00, 01, 10, 11
    expected = np.array(
        [
            [0, 0, 1, 0],
            [0, 0, 0, -1],
            [1, 0, 0, 0],
            [0, -1, 0, 0],
        ],
        dtype=complex,
    )
    np.testing.assert_array_equal(xz, expected)
    zy = pauli_matrix("ZY", coefficient=2.0)
    np.testing.assert_allclose(zy[:2, :2], 2.0 * pauli_matrix("Y")[:2, :2])
    np.testing.assert_allclose(zy[2:, 2:], -2.0 * pauli_matrix("Y")[:2, :2])


def test_pauli_string_validation():
    with pytest.raises(ValueError, match="unknown Pauli letter in 'XQ'"):
        pauli_matrix("XQ")


def test_constructors_exactly_hermitian():
    rng = np.random.default_rng(0)
    mats = [
        ssh(3, 0.4, 0.9),
        ssh_hopping_disorder(3, rng.standard_normal(5) + 1j * rng.standard_normal(5)),
        ising(3),
        transverse_perturbation(3, rng.standard_normal(3), rng.standard_normal(3)),
        five_qubit_code(),
        one_local(5, rng.standard_normal(15)),
        example_3x3(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
        example_pr(0.3, -0.2),
        weyl_example(0.1, -0.2, 0.3),
    ]
    for m in mats:
        assert np.max(np.abs(m - m.conj().T)) == 0.0


def test_ssh_dimerized_spectrum():
    vals = np.linalg.eigvalsh(ssh(4, 0.0, 1.0))
    np.testing.assert_allclose(
        vals, [-1, -1, -1, 0, 0, 1, 1, 1], atol=1e-12
    )


def test_ssh_small_pattern():
    h = ssh(2, 0.3, 0.7)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 1] = expected[1, 0] = 0.3
    expected[1, 2] = expected[2, 1] = 0.7
    expected[2, 3] = expected[3, 2] = 0.3
    np.testing.assert_array_equal(h, expected)


def test_ssh_disorder_direction_shape():
    rng = np.random.default_rng(1)
    n_cells = 4
    amps = rng.standard_normal(2 * n_cells - 1) + 1j * rng.standard_normal(
        2 * n_cells - 1
    )
    h = ssh_hopping_disorder(n_cells, amps)
    # tridiagonal, zero diagonal, 4N-2 real parameters
    assert np.max(np.abs(np.diag(h))) == 0.0
    assert np.max(np.abs(np.triu(h, 2))) == 0.0
    reals = np.concatenate([np.diag(h, 1).real, np.diag(h, 1).imag])
    assert reals.size == 4 * n_cells - 2


def test_ssh_chiral_symmetry():
    gamma = np.diag([(-1.0) ** i for i in range(8)])
    for h in (ssh(4, 0.2, 0.9), ssh(4, 0.0, 1.0)):
        np.testing.assert_allclose(gamma @ h @ gamma, -h, atol=1e-14)


def test_ising_ground_degeneracy():
    vals = np.linalg.eigvalsh(ising(3))
    assert vals[0] == pytest.approx(-2.0, abs=1e-12)
    assert vals[1] == pytest.approx(-2.0, abs=1e-12)
    assert vals[2] > vals[1] + 0.5


def test_transverse_perturbation_structure():
    rng = np.random.default_rng(2)
    h = transverse_perturbation(3, rng.standard_normal(3), rng.standard_normal(3))
    assert abs(np.trace(h)) <= 1e-12
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_qubit_cap():
    with pytest.raises(ValueError, match="qubit count"):
        ising(7)


def test_cell_cap():
    # Chains stop at n = 2 MAX_CELLS = 256; one cell more is refused before
    # any matrix is built.
    assert ssh(MAX_CELLS, 0.0, 1.0).shape == (2 * MAX_CELLS, 2 * MAX_CELLS)
    over = f"between [12] and {MAX_CELLS}, got {MAX_CELLS + 1}"
    with pytest.raises(ValueError, match=over):
        ssh(MAX_CELLS + 1, 0.0, 1.0)
    with pytest.raises(ValueError, match=over):
        ssh_hopping_disorder(MAX_CELLS + 1, np.ones(2 * MAX_CELLS + 1))


def test_five_qubit_ground_pair():
    vals = np.linalg.eigvalsh(five_qubit_code())
    assert vals[1] - vals[0] <= 1e-12
    assert vals[2] - vals[1] > 0.5


def test_one_local_zero():
    assert frobenius_norm(one_local(5, np.zeros(15))) == 0.0


def test_example_3x3_printed_form():
    h = example_3x3(v=0.1, x=0.2, y=0.3, z=0.4, p=0.5, q=0.6, r=0.7, s=0.8,
                    w=0.9)
    expected = np.array(
        [
            [0.5, 0.2 - 0.3j, 0.5 - 0.6j],
            [0.2 + 0.3j, -0.3, 0.7 - 0.8j],
            [0.5 + 0.6j, 0.7 + 0.8j, 1.9],
        ],
        dtype=complex,
    )
    np.testing.assert_allclose(h, expected, atol=1e-15)


def test_example_pr_origin():
    np.testing.assert_array_equal(
        example_pr(0.0, 0.0), np.diag([0.0, 0.0, 1.0]).astype(complex)
    )
    ref = example_pr_reference(0.0, 0.0)
    assert frobenius_norm(ref.s) == 0.0
    assert frobenius_norm(ref.b) == 0.0
    assert frobenius_norm(ref.h_eff) == 0.0
    assert ref.c == 0.0


def test_example_pr_reference_matches_decomposition():
    h0 = np.diag([0.0, 0.0, 1.0]).astype(complex)
    dec = sw_decompose(example_pr(0.3, 0.2), h0, 2)
    ref = example_pr_reference(0.3, 0.2)
    assert np.max(np.abs(dec.s - ref.s)) <= 1e-9
    assert np.max(np.abs(dec.b - ref.b)) <= 1e-9
    assert np.max(np.abs(dec.h_eff - ref.h_eff)) <= 1e-9
    assert dec.c == pytest.approx(ref.c, abs=1e-9)
    assert ref.residual <= 1e-12


def test_weyl_example_first_order_block():
    x, y, z = 0.12, -0.07, 0.31
    h = weyl_example(x, y, z)
    block = np.array([[z, x - 1j * y], [x + 1j * y, -z]], dtype=complex)
    np.testing.assert_allclose(h[:2, :2], block, atol=1e-15)


def _weyl_example_literal(x, y, z):
    """Reference: the model written out entry by entry."""
    return np.array(
        [
            [z, x - 1j * y, y - 1j * x * z],
            [x + 1j * y, -z, x - 1j * y * z],
            [y + 1j * x * z, x + 1j * y * z, 1.0 + x * y * z],
        ],
        dtype=complex,
    )


def test_weyl_example_terms_equal_the_literal():
    # Equal in value (a zero's sign may differ) at random points and at
    # every sign pattern of zero, with and without nonzero coordinates.
    rng = np.random.default_rng(12)
    points = [*rng.uniform(-2.0, 2.0, size=(1000, 3)),
              *itertools.product([0.0, -0.0, 0.3, -0.7], repeat=3)]
    for x, y, z in points:
        assert np.array_equal(weyl_example(x, y, z),
                              _weyl_example_literal(x, y, z))
    assert list(WEYL_EXAMPLE_TERMS) == [(0, 0, 0), (1, 0, 0), (0, 1, 0),
                                        (0, 0, 1), (1, 0, 1), (0, 1, 1),
                                        (1, 1, 1)]


# Today's site loops, kept as references for the one Pauli-sum builder.


def _word(n, sites):
    letters = ["I"] * n
    for i, letter in sites:
        letters[i] = letter
    return "".join(letters)


def _ising_loop(n):
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(n - 1):
        h -= pauli_matrix(_word(n, [(i, "Z"), (i + 1, "Z")]))
    return h


def _transverse_loop(n, xs, ys):
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(n):
        h += xs[i] * pauli_matrix(_word(n, [(i, "X")]))
        h += ys[i] * pauli_matrix(_word(n, [(i, "Y")]))
    return h


def _one_local_loop(n, coeffs):
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for i in range(n):
        for j, letter in enumerate("XYZ"):
            h += coeffs[3 * i + j] * pauli_matrix(_word(n, [(i, letter)]))
    return h


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_pauli_sums_match_site_loops_bitwise(n):
    # Same bytes, signed zeros included; the coefficients include +-0 and
    # the seeded draws.
    rng = np.random.default_rng(100 + n)
    assert ising(n).tobytes() == _ising_loop(n).tobytes()
    for _ in range(3):
        xs, ys = rng.standard_normal(n), rng.standard_normal(n)
        coeffs = rng.standard_normal(3 * n)
        xs[0], ys[-1], coeffs[1], coeffs[-1] = -0.0, 0.0, -0.0, 0.0
        assert (transverse_perturbation(n, xs, ys).tobytes()
                == _transverse_loop(n, xs, ys).tobytes())
        assert (one_local(n, coeffs).tobytes()
                == _one_local_loop(n, coeffs).tobytes())


def test_five_qubit_code_matches_generator_loop_bitwise():
    h = np.zeros((32, 32), dtype=complex)
    for letters in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"):
        h += pauli_matrix(letters)
    assert five_qubit_code().tobytes() == h.tobytes()


# An oracle independent of the closed form: Pauli words as tensor products.

_PAULI_2X2 = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _kron_word(letters, coefficient=1.0):
    out = np.array([[coefficient]], dtype=complex)
    for ch in letters:
        out = np.kron(out, _PAULI_2X2[ch])
    return out


def _kron_sum(n, terms):
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for c, letters in terms:
        h += c * _kron_word(letters)
    return h


@pytest.mark.parametrize("q", [1, 2, 3])
def test_pauli_matrix_equals_tensor_products(q):
    # Every word at q <= 3, equal in value (a zero's sign may differ), with
    # and without a coefficient.
    for letters in map("".join, itertools.product("IXYZ", repeat=q)):
        assert np.array_equal(pauli_matrix(letters), _kron_word(letters))
        assert np.array_equal(pauli_matrix(letters, -0.75),
                              _kron_word(letters, -0.75))


@pytest.mark.parametrize("n", [5, 6])
def test_pauli_sums_match_tensor_products_bitwise(n):
    rng = np.random.default_rng(200 + n)
    xs, ys = rng.standard_normal(n), rng.standard_normal(n)
    coeffs = rng.standard_normal(3 * n)
    xs[0], coeffs[1] = -0.0, 0.0
    assert (ising(n).tobytes() == _kron_sum(
        n, [(-1.0, _word(n, [(i, "Z"), (i + 1, "Z")]))
            for i in range(n - 1)]).tobytes())
    assert (transverse_perturbation(n, xs, ys).tobytes() == _kron_sum(
        n, [(f[i], _word(n, [(i, letter)]))
            for i in range(n) for f, letter in ((xs, "X"), (ys, "Y"))]
    ).tobytes())
    assert (one_local(n, coeffs).tobytes() == _kron_sum(
        n, [(coeffs[3 * i + j], _word(n, [(i, letter)]))
            for i in range(n) for j, letter in enumerate("XYZ")]).tobytes())
    if n == 5:
        assert five_qubit_code().tobytes() == _kron_sum(
            5, [(1.0, w) for w in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")]
        ).tobytes()


@pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
def test_pauli_sums_of_every_y_count_match_tensor_products_bitwise(n):
    # Words with #Y = 0 .. n, so #Y mod 4 takes every value from n = 3 on,
    # the other letters drawn from I, X, Z; two words of each count, with
    # +-0 among the coefficients. Words on the same columns add in term
    # order.
    rng = np.random.default_rng(300 + n)
    terms = []
    for n_y in range(n + 1):
        for _ in range(2):
            letters = ["Y"] * n_y + list(rng.choice(list("IXZ"), n - n_y))
            terms.append((rng.standard_normal(),
                          "".join(rng.permutation(letters))))
    terms[0] = (-0.0, terms[0][1])
    terms[-1] = (0.0, terms[-1][1])
    terms += terms[::-1]
    assert _pauli_sum(n, terms).tobytes() == _kron_sum(n, terms).tobytes()
    assert (_pauli_sum(n, iter(terms)).tobytes()
            == _kron_sum(n, terms).tobytes())


@pytest.mark.parametrize("n", [1, 3, MAX_QUBITS])
def test_pauli_sum_of_no_terms_is_zero(n):
    for terms in ([], iter(())):
        h = _pauli_sum(n, terms)
        assert h.shape == (2 ** n, 2 ** n) and not h.flags.writeable
        assert h.tobytes() == np.zeros_like(h).tobytes()


def _loop_chain(n_cells, bond, lower=lambda amp: amp):
    """Reference for the chains: one assignment per bond i, with `lower`
    applied below the diagonal."""
    n = 2 * n_cells
    h = np.zeros((n, n), dtype=complex)
    for i in range(n - 1):
        h[i, i + 1] = bond(i)
        h[i + 1, i] = lower(bond(i))
    return h


@pytest.mark.parametrize("v, w", [(0.25, 1.5), (-0.25, -1.5), (-0.0, 1.0),
                                  (0.0, -0.0)])
def test_ssh_chains_match_the_bond_loops_bytewise(v, w):
    # Bytes, so signed zeros count: ssh writes v and w as given on both
    # sides of the diagonal (+0.0 imaginary parts), the disorder direction
    # writes conj(amp) below it.
    for cells in (2, 3, 5):
        h = ssh(cells, v, w)
        ref = _loop_chain(cells, lambda i: v if i % 2 == 0 else w)
        assert h.tobytes() == ref.tobytes()
        rng = np.random.default_rng(cells)
        amps = rng.standard_normal(2 * cells - 1) + 1j * rng.standard_normal(
            2 * cells - 1)
        amps[0] = complex(v, w)
        h = ssh_hopping_disorder(cells, amps)
        ref = _loop_chain(cells, lambda i: amps[i], np.conj)
        assert h.tobytes() == ref.tobytes()


@pytest.mark.parametrize("call, match", [
    (lambda: ssh_hopping_disorder(2, np.zeros(2)), "need 3 bond amplitudes"),
    (lambda: ssh_hopping_disorder(2, np.zeros(4)), "need 3 bond amplitudes"),
    (lambda: transverse_perturbation(3, np.zeros(2), np.zeros(3)),
     "need 3 x and y field values"),
    (lambda: transverse_perturbation(3, np.zeros(3), np.zeros(4)),
     "need 3 x and y field values"),
    (lambda: one_local(2, np.zeros(5)), "need 6 coefficients"),
])
def test_refusals(call, match):
    with pytest.raises(ValueError, match=match):
        call()
