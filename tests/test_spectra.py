"""Eigendecomposition, stratum classification, and gap quantities."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from degengeo.errors import BasePointNotCanonical, DegenerateBoundary
from degengeo.hermitian import (_overflow_safe, conjugate, frobenius_norm,
                                random_hermitian, random_unitary)
from degengeo.spectra import (
    DEGENERACY_RTOL,
    _checked_residual,
    _coincidence_parts,
    _frobenius,
    _pair_parts,
    check_degenerate,
    checked_eigvals,
    check_separated,
    classify_stratum,
    coincidence_tolerance,
    eigh,
    stratum_codimension,
    unseparated_edge,
    window_distance,
    window_half_gap,
    window_mean,
    window_members,
    window_spread,
    window_width,
)
from degengeo.splitting import family
from degengeo.swtransform import (
    Anchor,
    projector_lowest_k,
    sw_decompose,
    sw_decompose_general,
)


def test_eigh_sorts_diagonal_input():
    spec = eigh(np.diag([2.0, 0.0, 1.0]).astype(complex))
    np.testing.assert_allclose(spec.eigenvalues, [0.0, 1.0, 2.0])


def test_eigh_pauli_x():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    np.testing.assert_allclose(eigh(sx).eigenvalues, [-1.0, 1.0], atol=1e-15)


def test_eigh_residual_random():
    rng = np.random.default_rng(0)
    h = random_hermitian(8, rng)
    spec = eigh(h)
    lam = np.diag(spec.eigenvalues)
    u = spec.vectors
    assert np.linalg.norm(u.conj().T @ h @ u - lam, "fro") <= 1e-10
    assert np.linalg.norm(u.conj().T @ u - np.eye(8), "fro") <= 1e-10


def test_eigh_phase_convention_deterministic():
    rng = np.random.default_rng(1)
    h = random_hermitian(5, rng)
    u1 = eigh(h).vectors
    u2 = eigh(h.copy()).vectors
    np.testing.assert_array_equal(u1, u2)
    for j in range(5):
        i = int(np.argmax(np.abs(u1[:, j])))
        assert u1[i, j].imag == pytest.approx(0.0, abs=1e-15)
        assert u1[i, j].real > 0


def _eigh_loop(h):
    """Reference: the per-column phase loop, with the scalar abs()."""
    vals, vecs = np.linalg.eigh(h)
    vecs = vecs.copy()
    for j in range(vecs.shape[1]):
        i = int(np.argmax(np.abs(vecs[:, j])))
        pivot = vecs[i, j]
        if abs(pivot) > 0.0:
            vecs[:, j] *= np.conj(pivot) / abs(pivot)
    return vals, vecs


def _hermitian_stack(rng, shape, n, dtype):
    a = rng.standard_normal((*shape, n, n))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((*shape, n, n))
    return (a + np.swapaxes(a.conj(), -1, -2)) / 2.0


def _norm_residual(h, spec):
    """Reference residual: np.linalg.norm of H U - U diag(eigenvalues)."""
    u = spec.vectors
    return np.linalg.norm(h @ u - u * spec.eigenvalues[..., None, :],
                          axis=(-2, -1))


def _tied(n, dtype):
    """sigma_x in the leading 2 x 2 block and 3 .. n+1 below it: LAPACK
    returns eigenvector columns 1 and 2 with two components of equal
    modulus."""
    h = np.diag(np.arange(1.0, n + 1.0)).astype(dtype)
    h[:2, :2] = [[0.0, 1.0], [1.0, 0.0]]
    return h


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [1, 2, 3, 16, 64])
def test_eigh_stack_matches_per_matrix_and_loop_bytes(n, dtype):
    rng = np.random.default_rng(n)
    stack = _hermitian_stack(rng, (2, 3), n, dtype)
    diagonal = np.diag(rng.standard_normal(n)).astype(dtype)
    singles = [*stack.reshape(-1, n, n), diagonal]
    if n >= 2:
        tied = _tied(n, dtype)
        raw = np.linalg.eigh(tied)[1]
        assert abs(raw[0, 0]) == abs(raw[1, 0]) and raw[0, 0] < 0.0
        # The first of the two pivots wins: column 1 flips sign.
        assert eigh(tied).vectors[0, 0] > 0.0
        singles.append(tied)
    for h in singles:
        vals, vecs = _eigh_loop(h)
        spec = eigh(h)
        assert spec.eigenvalues.tobytes() == vals.tobytes()
        assert spec.vectors.tobytes() == vecs.tobytes()
        assert isinstance(spec.residual, float)
        assert spec.residual == _norm_residual(h, spec)
    spec = eigh(stack)
    assert spec.eigenvalues.shape == (2, 3, n)
    assert spec.vectors.shape == (2, 3, n, n)
    assert spec.residual.shape == (2, 3) and spec.n == n
    assert spec.residual.tobytes() == _norm_residual(stack, spec).tobytes()
    for idx in np.ndindex(2, 3):
        one = eigh(stack[idx])
        assert spec.eigenvalues[idx].tobytes() == one.eigenvalues.tobytes()
        assert spec.vectors[idx].tobytes() == one.vectors.tobytes()
        assert spec.residual[idx] == one.residual
        assert spec.operator_2_norm()[idx] == one.operator_2_norm()
    # An empty stack, as an empty heff ladder gives.
    empty = eigh(np.zeros((0, n, n), dtype=dtype))
    assert empty.eigenvalues.shape == (0, n)
    assert empty.vectors.shape == (0, n, n)
    assert empty.vectors.dtype == np.dtype(dtype)
    assert empty.residual.shape == (0,)


def test_eigh_of_empty_matrices():
    # A 0 x 0 matrix and stacks of them: the empty arrays np.linalg.eigh
    # gives, read-only, with residual 0 and 2-norm 0.
    one = eigh(np.zeros((0, 0), dtype=complex))
    assert one.eigenvalues.shape == (0,) and one.vectors.shape == (0, 0)
    assert one.vectors.dtype == complex and one.n == 0
    assert isinstance(one.residual, float) and one.residual == 0.0
    assert one.operator_2_norm() == 0.0
    stack = eigh(np.zeros((3, 2, 0, 0)))
    assert stack.eigenvalues.shape == (3, 2, 0)
    assert stack.vectors.shape == (3, 2, 0, 0)
    assert stack.residual.tobytes() == np.zeros((3, 2)).tobytes()
    assert stack.operator_2_norm().tobytes() == np.zeros((3, 2)).tobytes()
    for spec in (one, stack):
        assert not spec.eigenvalues.flags.writeable
        assert not spec.vectors.flags.writeable


def test_eigh_refuses_one_bad_matrix_of_a_stack(monkeypatch):
    rng = np.random.default_rng(3)
    stack = _hermitian_stack(rng, (4,), 5, complex)
    real = np.linalg.eigh

    def corrupted(a):
        vals, vecs = real(a)
        if vals.ndim == 2:
            vals = vals.copy()
            vals[2, 0] += 1e-6
        return vals, vecs

    monkeypatch.setattr(np.linalg, "eigh", corrupted)
    with pytest.raises(np.linalg.LinAlgError, match=r"matrix \(2,\)"):
        eigh(stack)
    for h in stack:
        eigh(h)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_eigh_refuses_non_finite_matrices(bad):
    # LAPACK returns NaN eigenvalues here without an error, and a NaN
    # residual compares False with its bound; both must still raise.
    h = np.array([[bad, 0.0], [0.0, 1.0]])
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"eigendecomposition residual nan exceeds"):
        eigh(h)
    stack = np.stack([np.eye(2), np.diag([2.0, 3.0]), h, h])
    with pytest.raises(np.linalg.LinAlgError, match=r"matrix \(2,\) nan"):
        eigh(stack)
    with pytest.raises(np.linalg.LinAlgError, match=r"matrix \(1, 0\) nan"):
        eigh(stack.reshape(2, 2, 2, 2))


@pytest.mark.parametrize("dtype", [float, complex, np.int64])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 16])
def test_checked_eigvals_are_the_eigh_eigenvalues(n, dtype):
    # One matrix, a stack and a stack of stacks, real, complex and integer
    # (a symmetric integer matrix, which eigh reads as float).
    rng = np.random.default_rng(40 + n)
    for shape in [(), (5,), (2, 3)]:
        h = _hermitian_stack(rng, shape, n, complex if dtype is complex
                             else float)
        if dtype is np.int64:
            h = np.round(8.0 * h).astype(np.int64)
        vals = checked_eigvals(h)
        reference = eigh(h).eigenvalues
        assert vals.shape == reference.shape == (*shape, n)
        assert vals.dtype == reference.dtype
        assert vals.tobytes() == reference.tobytes()


def _refusal(solve, h):
    with pytest.raises(np.linalg.LinAlgError) as caught:
        solve(h)
    return str(caught.value)


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("bad", [None, np.nan, np.inf, -np.inf])
def test_checked_eigvals_refuse_as_eigh(bad, dtype):
    # A non-Hermitian fourth matrix of a stack, or a NaN or infinite entry
    # in it: the same LinAlgError message as eigh's, with no warning. LAPACK
    # itself refuses some NaN matrices ("Eigenvalues did not converge"); the
    # residual check refuses the others, naming the matrix.
    rng = np.random.default_rng(9)
    stack = _hermitian_stack(rng, (6,), 4, dtype)
    if bad is None:
        stack[3, 0, 2] += 0.5
    else:
        stack[3, 1, 1] = bad
    grid = stack.reshape(2, 3, 4, 4)
    for h in (stack, stack[3], grid):
        assert _refusal(checked_eigvals, h) == _refusal(eigh, h)
    for h, name in ((stack, "(3,)"), (grid, "(1, 0)")):
        message = _refusal(checked_eigvals, h)
        if bad is None:
            assert message.startswith(f"eigendecomposition residual of "
                                      f"matrix {name} ")
        elif not message.startswith("Eigenvalues did not converge"):
            assert message.startswith(f"eigendecomposition residual of "
                                      f"matrix {name} nan exceeds ")


def test_window_spread_rows_and_floats():
    rng = np.random.default_rng(5)
    vals = np.sort(rng.standard_normal((7, 6)), axis=-1)
    for k, offset in ((1, 0), (2, 0), (3, 2), (6, 0)):
        mean, dev, std = window_spread(vals, k, offset)
        dist = window_distance(vals, k, offset)
        assert mean.shape == std.shape == dist.shape == (7,)
        assert dev.shape == (7, k)
        for i, row in enumerate(vals):
            m1, d1, s1 = window_spread(row, k, offset)
            assert type(m1) is float and type(s1) is float
            assert type(window_distance(row, k, offset)) is float
            assert (m1, s1) == (mean[i], std[i])
            assert d1.tobytes() == dev[i].tobytes()
            assert window_distance(row, k, offset) == dist[i]
    with pytest.raises(ValueError):
        window_spread(vals, 3, 4)


def _scaled_norm(h):
    """||h||_F of a matrix whose squares overflow, through h / 1e300."""
    return 1e300 * np.linalg.norm(h / 1e300)


@pytest.mark.parametrize("dtype", [float, complex])
def test_checked_residual_of_huge_matrices(dtype):
    # Entries near 1e300 square past the largest double. The residual and
    # its bound are still the finite Frobenius norms, so the check holds
    # (with no overflow warning), and a stack mixing huge and ordinary
    # matrices keeps the ordinary ones' bits.
    rng = np.random.default_rng(12)
    stack = _hermitian_stack(rng, (3,), 4, dtype)
    huge = 1e300 * stack[1]
    spec = eigh(huge)
    assert 0.0 < spec.residual < 1e-10 * _scaled_norm(huge)
    assert checked_eigvals(huge).tobytes() == spec.eigenvalues.tobytes()
    # Not Hermitian: the residual is of the order of the entries, and the
    # check refuses it instead of comparing inf with inf.
    skew = huge.copy()
    skew[0, 2] += 1e300
    for solve in (eigh, checked_eigvals):
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"residual \d\.\d+e\+(299|300) exceeds"):
            solve(skew)
    mixed = stack.copy()
    mixed[1] = huge
    residual = eigh(mixed).residual
    assert residual[1] == spec.residual
    for i in (0, 2):
        assert residual[i] == eigh(stack[i]).residual
    # The scaled norms, with the plain norms' bits where they do not
    # overflow; beyond the largest double a norm is infinite, and a NaN
    # stays NaN.
    norms = _overflow_safe(_frobenius, mixed, (-2, -1))
    assert norms[1] == pytest.approx(_scaled_norm(huge), rel=1e-15)
    assert norms[[0, 2]].tobytes() == np.linalg.norm(
        stack[[0, 2]], axis=(-2, -1)).tobytes()
    assert type(_overflow_safe(_frobenius, huge, (-2, -1))) is np.float64
    assert _overflow_safe(_frobenius, np.full((2, 2), 1e308, dtype=dtype),
                          (-2, -1)) == np.inf
    assert np.isnan(_overflow_safe(
        _frobenius, np.array([[np.nan, 1e300], [1e300, 0.0]]), (-2, -1)))


def test_window_spread_of_huge_eigenvalues():
    # Deviations near 1e200 square past the largest double; the standard
    # deviation and the distance are finite, rows that do not overflow keep
    # their bits, and the float forms stay floats.
    vals = np.array([[-1e200, 1e200, 5e200], [-1.0, 2.0, 3.0],
                     [-3e307, 3e307, 0.0]])
    mean, dev, std = window_spread(vals, 2)
    dist = window_distance(vals, 2)
    assert std.tolist() == [1e200, 1.5, 3e307]
    assert dist[0] == pytest.approx(np.sqrt(2.0) * 1e200, rel=1e-15)
    assert dist[2] == pytest.approx(np.sqrt(2.0) * 3e307, rel=1e-15)
    assert dist[1] == np.sqrt(4.5)
    row = window_spread(vals[0], 2)
    assert type(row[2]) is float and row[2] == 1e200
    assert type(window_distance(vals[0], 2)) is float


def test_window_spread_of_a_sum_past_the_largest_double():
    # The window sum 3.4e308 overflows on finite eigenvalues: that mean is
    # taken again at a power-of-two scale, with no warning. Means whose sum is
    # finite keep the bits of sum / k, and an infinite eigenvalue keeps its
    # infinite mean.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, dev, std = window_spread([1.7e308, 1.7e308], 2)
        assert (mean, dev.tolist(), std) == (1.7e308, [0.0, 0.0], 0.0)
        assert type(mean) is float
        vals = np.array([[1.7e308, 1.7e308, 0.0], [0.1, 0.2, 0.4],
                         [-1.7e308, -1.5e308, 1.0]])
        mean, dev, std = window_spread(vals, 2)
        assert mean.tolist() == [1.7e308, (0.1 + 0.2) / 2, -1.6e308]
        assert std[:2].tolist() == [0.0, window_spread(vals[1], 2)[2]]
        assert std[2] == pytest.approx(1e307, rel=1e-15)
        assert window_distance(vals, 2)[0] == 0.0
    with np.errstate(invalid="ignore"):
        assert window_spread([np.inf, 1.0], 2)[0] == np.inf


def test_window_mean_is_the_mean_of_window_spread():
    # One mean for both: bit for bit on random stacks and windows, and the
    # overflow-safe mean of a window summing past the largest double.
    rng = np.random.default_rng(27)
    for shape, k, offset in (((6,), 3, 2), ((4, 5), 2, 0), ((3, 2, 7), 4, 3)):
        vals = rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 5, shape)
        mean = window_mean(vals, k, offset)
        assert np.array_equal(mean, window_spread(vals, k, offset)[0])
        assert type(mean) is (float if len(shape) == 1 else np.ndarray)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean = window_mean([1.7e308, 1.7e308], 2)
        assert (mean, type(mean)) == (1.7e308, float)


# Real and imaginary parts with no tiny magnitudes: a square of 2^-j x
# below the normal range would round differently from the square of x.
_PARTS = st.floats(-1e3, 1e3).filter(lambda v: v == 0.0 or abs(v) > 1e-3)


@settings(max_examples=200, deadline=None)
@given(re=hnp.arrays(float, (3, 3), elements=_PARTS),
       im=hnp.arrays(float, (3, 3), elements=_PARTS),
       k=st.integers(1, 3), top=st.integers(1000, 1021))
def test_results_scale_by_powers_of_two_bit_for_bit(re, im, k, top):
    # Every mean and root of a sum of squares f is positively homogeneous,
    # and the overflow guard retries at a power-of-two scale, so
    # f(2^j x) = 2^j f(x) bit for bit while 2^j x is finite, here with its
    # largest part in [2^(top-1), 2^top), where the squares overflow.
    x = re + 1j * im
    largest = np.abs(np.concatenate([re, im])).max()
    if largest == 0.0:
        return
    j = top - int(np.frexp(largest)[1])
    h = (x + x.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(h)
    offset = 3 - k
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert frobenius_norm(np.ldexp(1.0, j) * x) == np.ldexp(
            frobenius_norm(x), j)
        assert _checked_residual(np.ldexp(1.0, j) * h, np.ldexp(vals, j),
                                 vecs) == np.ldexp(
            _checked_residual(h, vals, vecs), j)
        big = np.ldexp(vals, j)
        assert window_mean(big, k, offset) == np.ldexp(
            window_mean(vals, k, offset), j)
        mean, dev, std = window_spread(vals, k, offset)
        assert window_spread(big, k, offset)[::2] == (np.ldexp(mean, j),
                                                     np.ldexp(std, j))
        assert window_distance(big, k, offset) == np.ldexp(
            window_distance(vals, k, offset), j)


def _spec_of(vals):
    return eigh(np.diag(np.array(vals, dtype=float)).astype(complex))


def test_classify_groups():
    assert classify_stratum(_spec_of([0, 0, 1, 2])).parts == (2, 1, 1)
    assert classify_stratum(_spec_of([0, 0, 1, 1])).parts == (2, 2)
    assert classify_stratum(_spec_of([0, 0.5, 1, 2])).parts == (1, 1, 1, 1)


@pytest.mark.parametrize("rel_tol", [0.0, -1e-8, np.nan, np.inf])
def test_classify_refuses_a_tolerance_not_positive_and_finite(rel_tol):
    # NaN would split diag(0, 0, 1) into (1, 1, 1), and inf join it into (3,).
    with pytest.raises(ValueError,
                       match="rel_tol must be positive and finite"):
        classify_stratum(_spec_of([0, 0, 1]), rel_tol=rel_tol)


def _pair_blocks(kind, rng, rel_tol):
    """Forty 2 x 2 Hermitian blocks of one kind: random ones at unit scale
    or scaled by 2^600 or 2^-600, blocks c I, blocks with only the
    off-diagonal pair, blocks of signed zeros, and blocks in a random frame
    whose eigenvalue gap is (1 -/+ 1e-6) times the coincidence tolerance."""
    blocks = []
    for _ in range(40):
        if kind in ("random", "2^600", "2^-600"):
            h = random_hermitian(2, rng) * 10.0 ** rng.uniform(-6, 1)
            blocks.append(h * {"random": 1.0, "2^600": 2.0 ** 600,
                               "2^-600": 2.0 ** -600}[kind])
        elif kind == "c I":
            blocks.append(rng.standard_normal() * 10.0 ** rng.uniform(-9, 9)
                          * np.eye(2, dtype=complex))
        elif kind == "off-diagonal":
            b = complex(*rng.standard_normal(2)) * 10.0 ** rng.uniform(-2, 3)
            blocks.append(np.array([[0.0, b], [b.conjugate(), 0.0]]))
        elif kind == "signed zeros":
            parts = rng.choice([0.0, -0.0], size=6)
            blocks.append(np.array(
                [[complex(parts[0]), complex(*parts[2:4])],
                 [complex(parts[2], -parts[3]), complex(parts[1])]]))
        else:
            # 2r = f * rel_tol * max(1, |m| + r), solved for r.
            f = 1.0 - 1e-6 if kind == "just within" else 1.0 + 1e-6
            m = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3, 3)
            r = f * rel_tol * abs(m) / (2.0 - f * rel_tol)
            if abs(m) + r < 1.0:
                r = f * rel_tol / 2.0
            blocks.append(conjugate(np.diag([m - r, m + r]),
                                    random_unitary(2, rng)))
    return blocks


@pytest.mark.parametrize("rel_tol", [1e-4, 1e-8])
@pytest.mark.parametrize("kind", ["random", "2^600", "2^-600", "c I",
                                  "off-diagonal", "signed zeros",
                                  "just within", "just beyond"])
def test_pair_parts_group_as_the_eigenvalues(kind, rel_tol):
    # The distance theorem's eigenvalues m -/+ r of a 2 x 2 block group as
    # the eigensolver's do.
    rng = np.random.default_rng([7, len(kind), int(-np.log10(rel_tol))])
    for h in _pair_blocks(kind, rng, rel_tol):
        want = _coincidence_parts(np.linalg.eigvalsh(h), rel_tol)[0]
        assert _pair_parts(h, rel_tol) == want, h
        if kind in ("c I", "signed zeros", "just within"):
            assert want == (2,)
        elif kind in ("off-diagonal", "just beyond"):
            assert want == (1, 1)


def test_classify_chained_grouping():
    # a~b and b~c group all three even though a-c exceeds the tolerance
    spec = _spec_of([0.0, 5e-9, 1e-8, 1.0])
    assert classify_stratum(spec, rel_tol=1e-8).parts == (3, 1)


def test_classify_membership_helpers():
    # H is in Sigma_k when its first part has k members and is not the
    # whole spectrum; on the boundary when eigenvalues k and k+1 share a
    # part, where the window's upper edge is unseparated.
    vals = np.array([0.0, 0.0, 1.0, 2.0])
    parts = classify_stratum(_spec_of(vals)).parts
    assert parts[0] == 2 and len(parts) >= 2
    assert unseparated_edge(vals, 1, 0) == 1
    assert unseparated_edge(vals, 2, 0) is None
    assert unseparated_edge(np.array([0.0, 1.0, 1.0, 2.0]), 2, 0) == 2


def test_classify_conjugated():
    rng = np.random.default_rng(2)
    d = np.diag([0.0, 0.0, 1.0, 2.0]).astype(complex)
    for _ in range(10):
        u = random_unitary(4, rng)
        part = classify_stratum(eigh(conjugate(d, u)))
        assert part.parts == (2, 1, 1)


def test_codimension():
    part = classify_stratum(_spec_of([0, 0, 1, 2]))
    assert stratum_codimension(part) == 3
    assert stratum_codimension(classify_stratum(_spec_of([0, 1, 2, 3]))) == 0
    for n, k in [(5, 3), (6, 4)]:
        vals = [0.0] * k + list(range(1, n - k + 1))
        assert stratum_codimension(classify_stratum(_spec_of(vals))) == k * k - 1


def test_codimension_dimension_bookkeeping():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        vals = np.sort(rng.standard_normal(n))
        part = classify_stratum(_spec_of(vals))
        dim = n * n - stratum_codimension(part)
        assert dim + stratum_codimension(part) == n * n


def test_eigenvalue_continuity_weyl_inequality():
    rng = np.random.default_rng(4)
    for _ in range(20):
        h = random_hermitian(6, rng)
        e = random_hermitian(6, rng)
        eps = 10.0 ** rng.uniform(-6, -3)
        e = e * (eps / np.max(np.abs(np.linalg.eigvalsh(e))))
        shift = np.abs(
            np.linalg.eigvalsh(h + e) - np.linalg.eigvalsh(h)
        ).max()
        assert shift <= eps + 1e-10


def test_half_gap():
    # r0 of a diagonal base is the window half gap of its diagonal: zero on
    # the boundary stratum, inf for a window of the whole spectrum.
    assert window_half_gap(np.array([0.0, 0.0, 1.0]), 2, 0) == 0.5
    assert window_half_gap(np.array([0.0, 1.0, 2.0]), 1, 0) == 0.5
    assert window_half_gap(np.array([0.0, 1.0, 1.0]), 2, 0) == 0.0
    assert window_half_gap(np.array([0.0, 1.0]), 2, 0) == np.inf


@pytest.mark.parametrize("k, offset", [(5, 0), (2, -1), (0, 0), (2, 2)])
@pytest.mark.parametrize("helper", [
    "window_half_gap", "window_width", "window_mean", "window_spread",
    "window_distance", "unseparated_edge", "check_separated",
    "check_degenerate", "window_members",
])
def test_window_helpers_refuse_an_invalid_window(helper, k, offset):
    # Every window helper refuses a window outside the spectrum;
    # window_half_gap once answered inf for k = 5 on three eigenvalues and
    # 0.5 for offset -1.
    vals = np.array([0.0, 1.0, 2.0])
    call = {
        "window_half_gap": lambda: window_half_gap(vals, k, offset),
        "window_width": lambda: window_width(vals, k, offset),
        "window_mean": lambda: window_mean(vals, k, offset),
        "window_spread": lambda: window_spread(vals, k, offset),
        "window_distance": lambda: window_distance(vals, k, offset),
        "unseparated_edge": lambda: unseparated_edge(vals, k, offset),
        "check_separated": lambda: check_separated(vals, k, offset,
                                                   DegenerateBoundary),
        "check_degenerate": lambda: check_degenerate(vals, k, offset,
                                                     DegenerateBoundary),
        "window_members": lambda: window_members(len(vals), k, offset),
    }[helper]
    with pytest.raises(ValueError, match="^invalid window: n=3, "):
        call()


# ---------------------------------------------------------------------------
# window rules
# ---------------------------------------------------------------------------
#
# References: the window rules as they were written out in swtransform
# (_check_window_gaps, _window_half_gap) and in splitting.family, each with
# its own coincidence tolerance, before spectra held them.


def _ref_check_window_gaps(vals, k, offset, exc):
    tol = coincidence_tolerance(vals, DEGENERACY_RTOL)
    for i in (offset, offset + k):
        if 0 < i < len(vals) and vals[i] - vals[i - 1] <= tol:
            raise exc(f"eigenvalues {i} and {i + 1} coincide within "
                      f"tolerance {tol:.3e}")


def _ref_family_checks(vals, k, offset):
    tol = coincidence_tolerance(vals, DEGENERACY_RTOL)
    width = window_width(vals, k, offset)
    if width > tol:
        return "spread"
    for i in (offset, offset + k):
        if 0 < i < len(vals) and vals[i] - vals[i - 1] <= tol:
            return "separation"
    return None


def _ref_window_half_gap(diag, k, offset):
    gaps = []
    if offset > 0:
        gaps.append(diag[offset] - diag[offset - 1])
    if offset + k < len(diag):
        gaps.append(diag[offset + k] - diag[offset + k - 1])
    return min(gaps) / 2.0 if gaps else np.inf


def _message(check, vals, k, offset, exc):
    """The message of the exc that check raises, or None."""
    try:
        check(vals, k, offset, exc)
    except exc as err:
        assert type(err) is exc
        return str(err)
    return None


def _window_cases():
    """Random spectra, some with coincident runs, then gaps exactly at,
    one ulp above and one ulp below the coincidence tolerance."""
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(300):
        n = int(rng.integers(1, 8))
        vals = np.sort(rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3))
        if n > 1 and rng.random() < 0.5:
            lo = int(rng.integers(0, n - 1))
            hi = int(rng.integers(lo + 1, n))
            vals[lo : hi + 1] = vals[lo]
        k = int(rng.integers(1, n + 1))
        cases.append((vals, k, int(rng.integers(0, n - k + 1))))
    tol = DEGENERACY_RTOL * 2.0
    for gap in (tol, np.nextafter(tol, np.inf), np.nextafter(tol, 0.0)):
        cases += [(np.array([-2.0, 0.0, 0.0, gap]), 2, 1),
                  (np.array([-2.0, -gap, 0.0, 0.0]), 2, 2),
                  (np.array([-2.0, 0.0, gap, 1.0]), 2, 1),
                  (np.array([0.0, gap, 2.0]), 1, 0)]
    return cases


def test_window_rules_match_the_references():
    verdicts = set()
    for vals, k, offset in _window_cases():
        for exc in (ValueError, DegenerateBoundary, BasePointNotCanonical):
            expected = _message(_ref_check_window_gaps, vals, k, offset, exc)
            assert _message(check_separated, vals, k, offset, exc) == expected
        assert (unseparated_edge(vals, k, offset) is None) == (
            expected is None)
        verdict = ("spread" if _message(check_degenerate, vals, k, offset,
                                        ValueError)
                   else "separation" if _message(check_separated, vals, k,
                                                 offset, ValueError)
                   else None)
        assert verdict == _ref_family_checks(vals, k, offset)
        verdicts.add(verdict)
        half = window_half_gap(vals, k, offset)
        assert half == _ref_window_half_gap(vals, k, offset)
        assert type(half) is type(_ref_window_half_gap(vals, k, offset))
        index = np.arange(len(vals))
        np.testing.assert_array_equal(window_members(len(vals), k, offset),
                                      (offset <= index) & (index < offset + k))
    assert verdicts == {None, "spread", "separation"}


def test_window_rules_at_the_tolerance():
    # The gap or spread equal to the tolerance counts as coincident; one
    # ulp more does not.
    tol = DEGENERACY_RTOL * 2.0
    assert unseparated_edge(np.array([-2.0, 0.0, 0.0, tol]), 2, 1) == 3
    assert unseparated_edge(
        np.array([-2.0, 0.0, 0.0, np.nextafter(tol, np.inf)]), 2, 1) is None
    check_degenerate(np.array([-2.0, 0.0, tol, 1.0]), 2, 1, ValueError)
    with pytest.raises(ValueError, match="spread 2.000e-08 exceeds "
                                         "tolerance 2.000e-08"):
        check_degenerate(np.array([-2.0, 0.0, np.nextafter(tol, np.inf),
                                   1.0]), 2, 1, ValueError)


def test_stacked_separation_check_reports_the_first_failing_spectrum():
    # Window 2..3 of four levels. Spectra (1, 0) and (1, 1) both fail, at
    # different edges and tolerances; the stack raises the message of the
    # first in C order, as that spectrum alone would.
    separated = [-1.0, 0.0, 0.0, 1.0]
    lower = [0.0, 0.0, 0.0, 3.0]
    upper = [-5.0, 0.0, 0.0, 0.0]
    stack = np.array([[separated, separated], [lower, upper]])
    message = _message(check_separated, np.array(lower), 2, 1,
                       DegenerateBoundary)
    assert message == "eigenvalues 1 and 2 coincide within tolerance 3.000e-08"
    assert _message(check_separated, stack, 2, 1,
                    DegenerateBoundary) == message
    assert _message(check_separated, stack[:, ::-1], 2, 1,
                    DegenerateBoundary) == (
        "eigenvalues 3 and 4 coincide within tolerance 5.000e-08")
    assert _message(check_separated, stack[:1], 2, 1, ValueError) is None
    assert _message(check_separated, stack[:0], 2, 1, ValueError) is None
    # Through Anchor.heff_block: one stacked check, the per-matrix message.
    anchor = Anchor.at(np.diag([-1.0, 0.0, 0.0, 1.0]).astype(complex), 2, 1)
    mats = np.array([np.diag(v).astype(complex)
                     for v in (separated, lower, upper)])
    with pytest.raises(DegenerateBoundary) as one:
        anchor.heff_block(mats[1])
    with pytest.raises(DegenerateBoundary) as stacked:
        anchor.heff_block(mats)
    assert str(stacked.value) == str(one.value) == message


_UNSEPARATED = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)
_SPREAD = np.diag([0.0, 0.1, 1.0, 2.0]).astype(complex)


def _rotated(d):
    return conjugate(d, random_unitary(len(d), np.random.default_rng(5)))


@pytest.mark.parametrize("call, exc, message", [
    (lambda: family(lambda t: _UNSEPARATED, 2), ValueError,
     "eigenvalues 2 and 3 coincide within tolerance 1.000e-08"),
    (lambda: family(lambda t: _SPREAD, 2), ValueError,
     "window eigenvalues spread 1.000e-01 exceeds tolerance 2.000e-08"),
    (lambda: sw_decompose_general(_SPREAD, _rotated(_UNSEPARATED), 2),
     BasePointNotCanonical, "eigenvalues 2 and 3 coincide"),
    (lambda: sw_decompose_general(_SPREAD, _rotated(_SPREAD), 2),
     BasePointNotCanonical, "window eigenvalues spread 1.000e-01"),
    (lambda: Anchor.at(_rotated(_UNSEPARATED), 2), BasePointNotCanonical,
     "eigenvalues 2 and 3 coincide"),
    (lambda: sw_decompose(_UNSEPARATED, np.diag([0.0, 0.0, 1.0, 2.0]), 2),
     DegenerateBoundary, "eigenvalues 2 and 3 coincide"),
    (lambda: projector_lowest_k(eigh(_UNSEPARATED), 2), DegenerateBoundary,
     "eigenvalues 2 and 3 coincide"),
])
def test_window_rule_callers_keep_their_exception_types(call, exc, message):
    with pytest.raises(exc, match=message) as info:
        call()
    assert type(info.value) is exc


def _loop_parts(vals, tol):
    """Reference for classify_stratum: one pass over the gaps."""
    parts = []
    run = 1
    for gap in np.diff(vals):
        if gap <= tol:
            run += 1
        else:
            parts.append(run)
            run = 1
    parts.append(run)
    return tuple(parts)


def _loop_on_boundary(parts, k):
    """Reference for the boundary stratum: eigenvalues k and k+1 share a
    part."""
    upper = 0
    for p in parts:
        lower = upper + 1
        upper += p
        if lower <= k and k + 1 <= upper:
            return True
    return False


def test_stratum_rules_match_the_loop_references():
    # Spectra rounded to few digits tie often, so runs of every length
    # appear; k runs over every window size 1..n.
    rng = np.random.default_rng(11)
    for trial in range(300):
        n = int(rng.integers(1, 10))
        vals = np.sort(np.round(rng.standard_normal(n), trial % 3))
        part = classify_stratum(_spec_of(vals))
        assert part.parts == _loop_parts(vals, part.tolerance)
        assert all(type(p) is int for p in part.parts)
        for k in range(1, n + 1):
            assert ((unseparated_edge(vals, k, 0) == k)
                    is _loop_on_boundary(part.parts, k))
    assert classify_stratum(_spec_of([0.0, 0.0])).parts == (2,)
