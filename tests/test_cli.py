"""Interchange format round-trips, report serialization, and the CLI."""

import enum
import inspect
import json
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from degengeo import cli, weyl
from degengeo.cli import _order_family, build_parser, main
from degengeo.hermitian import hermitian, random_hermitian
from degengeo.matrixio import (
    RunReport,
    _canonical_pairs,
    _matrix_from_document,
    format_float,
    matrix_text,
    parse_matrix,
    read_matrix,
    write_matrix,
)
from degengeo.models import example_pr
from degengeo.projection import collapse_projection, distance_to_sigma
from degengeo.spectra import window_distance, window_half_gap
from degengeo.swtransform import sw_decompose_general

from test_swtransform import exp_i
from test_weyl import nan_past_half


def test_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    h = random_hermitian(5, rng)
    path = tmp_path / "m.json"
    write_matrix(path, h)
    back = read_matrix(path)
    assert np.array_equal(back, h)


def test_format_float_17_digits():
    x = 1.0 / 3.0
    assert float(format_float(x)) == x
    assert format_float(1.0) == "1"


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_matrix('{"n": 2, "entries": [[0, 0]]}')
    with pytest.raises(ValueError):
        parse_matrix('{"entries": []}')
    with pytest.raises(json.JSONDecodeError):
        parse_matrix("not json")
    # A claimed n far beyond the entries given: refused by count, with
    # nothing of size n^2 built.
    with pytest.raises(ValueError, match=r"^'entries' must hold 999998000001 "
                       r"\[re, im\] pairs, got 1$"):
        parse_matrix('{"n": 999999, "entries": [[1.0, 0.0]]}')


def test_parse_matches_entrywise_loop():
    # Signed zeros in both parts and integer entries: the bytes of the
    # per-entry complex(float(re), float(im)) conversion.
    n = 4
    diagonal = [[-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [0.0, 0.0]]
    upper = [[-0.0, -0.0], [-0.0, 0.0], [0.0, -0.0], [1.5, -0.0],
             [-0.0, 2.25], [-1, 3]]
    pairs = [None] * (n * n)
    for a in range(n):
        pairs[a * n + a] = diagonal[a]
    for (a, m), (re, im) in zip(zip(*np.triu_indices(n, 1)), upper):
        pairs[a * n + m] = [re, im]
        pairs[m * n + a] = [re, -im]
    loop = np.array([complex(float(re), float(im)) for re, im in pairs])
    parsed = parse_matrix(json.dumps({"n": n, "entries": pairs}))
    assert parsed.tobytes() == hermitian(loop.reshape(n, n)).tobytes()
    with pytest.raises(ValueError, match="entry 1 is not an"):
        parse_matrix('{"n": 2, "entries": [[1, 0], [0, 0, 0], [0, 0], [1, 0]]}')


def test_parse_matches_the_nested_list_conversion():
    # Integers beyond 2**53 (2**60 + 1 rounds to 2**60), huge and tiny
    # floats, signed zeros and mixed pairs: the one flat pass gives the bits
    # that np.asarray gives for the nested lists, each pair one complex.
    n = 4
    leaves = [2**60, 2**60 + 1, -(2**61) - 3, -0.0, 0.0, 3, -7, 1.5,
              -2.25, 10**20, 1e-300, -1e300]
    rng = np.random.default_rng(5)
    pairs = [None] * (n * n)
    for a in range(n):
        pairs[a * n + a] = [leaves[int(rng.integers(len(leaves)))],
                            [0, 0.0, -0.0][a % 3]]
    for a, m in zip(*np.triu_indices(n, 1)):
        re, im = (leaves[int(i)] for i in rng.integers(len(leaves), size=2))
        pairs[a * n + m] = [re, im]
        pairs[m * n + a] = [re, -im]
    old = np.asarray(pairs, dtype=float)
    want = hermitian(old.view(complex).reshape(n, n))
    assert parse_matrix(json.dumps({"n": n, "entries": pairs})).tobytes() \
        == want.tobytes()


@pytest.mark.parametrize("text, message", [
    ('{"n": 1, "entries": ["10"]}', "entry 0 is not an"),
    ('{"n": 1, "entries": [[true, false]]}', "entry 0 is not an"),
    ('{"n": true, "entries": [[1, 0]]}', "'n' must be a positive integer"),
    ('{"n": 1, "entries": [["1.5", true]]}', "entry 0 is not an"),
])
def test_parse_accepts_json_numbers_only(text, message):
    # Strings and booleans are not numbers, not even where float() or
    # numpy would convert them.
    with pytest.raises(ValueError, match=message):
        parse_matrix(text)


#: Leaf spellings of canonical documents: floats, ints, signed zeros and
#: ints above 2**53; and, at most one per document, ints past the double
#: range and floats past it.
_LEAVES = st.one_of(
    st.floats(-1e300, 1e300).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.integers(2**53 + 1, 2**70).map(str),
    st.sampled_from(["0", "-0", "0.0", "-0.0", "1E5", "2.5e-3", "1e-400"]),
)
_OUT_OF_RANGE = [str(10**400), "-" + str(10**309)]
_PAST_RANGE = st.sampled_from(["1e400", "-1e400", *_OUT_OF_RANGE])
_ZEROS = st.sampled_from(["0", "-0", "0.0", "-0.0"])

#: Spellings that are no JSON number.
_NON_JSON = ["1.", ".5", "+1", "01", "-01", "-", "1e", "1.2.3", "1_0", "0x10",
             "NaN", "Infinity", "", "\u0661"]

#: The same document in layouts other than the canonical one.
_LAYOUTS = [
    lambda text: json.dumps(json.loads(text), indent=1),
    lambda text: text.replace(", ", ",").replace(": ", ":"),
    lambda text: text.rstrip("\n")[:-1] + ', "x": 1}',
    lambda text: '{"n": 7, ' + text[1:],
    lambda text: text.rstrip("\n")[:-1] + f', "n": {json.loads(text)["n"]}}}',
    lambda text: text + " ",
]


@st.composite
def _canonical_leaves(draw):
    """(n, leaves, end): the [re, im] leaf texts of a canonical document of
    n <= 6, Hermitian (mirrored leaves, zero diagonal imaginary parts)
    unless drawn otherwise, and its end ("" or a newline)."""
    n = draw(st.integers(1, 6))
    mirrored = draw(st.booleans())
    leaves = [[draw(_LEAVES), draw(_LEAVES)] for _ in range(n * n)]
    for past in draw(st.lists(_PAST_RANGE, max_size=1)):
        leaves[draw(st.integers(0, n * n - 1))][draw(st.integers(0, 1))] = past
    for a in range(n):
        for m in range(a, n if mirrored else a):
            re, im = leaves[a * n + m]
            if a == m:
                leaves[a * n + a][1] = draw(_ZEROS)
            else:
                leaves[m * n + a] = [re, im[1:] if im[0] == "-" else "-" + im]
    return n, leaves, draw(st.sampled_from(["", "\n"]))


def _document_text(n, leaves, end):
    pairs = ", ".join(f"[{re}, {im}]" for re, im in leaves)
    return f'{{"n": {n}, "entries": [{pairs}]}}{end}'


def _parse_outcome(parse, text):
    """The matrix's shape and bytes, or the type and message of the error."""
    try:
        h = parse(text)
    except Exception as exc:  # both readers must fail alike, whatever fails
        return type(exc), str(exc)
    return h.shape, h.tobytes()


@settings(max_examples=300, deadline=None)
@given(doc=_canonical_leaves(), kind=st.sampled_from(["canonical", "token",
                                                      "layout"]),
       data=st.data())
def test_parse_flat_pass_matches_the_general_decoder(doc, kind, data):
    # The flat pass over a canonical document gives the bits, or the error,
    # of the nested-list decoding; a token that is no JSON number, or any
    # other layout, goes to that decoding itself.
    n, leaves, end = doc
    if kind == "token":
        i = data.draw(st.integers(0, 2 * n * n - 1))
        leaves[i // 2][i % 2] = data.draw(st.sampled_from(_NON_JSON))
    text = _document_text(n, leaves, end)
    if kind == "layout":
        text = data.draw(st.sampled_from(_LAYOUTS))(text)
    flat = kind == "canonical" and not any(
        leaf in _OUT_OF_RANGE for pair in leaves for leaf in pair)
    assert (_canonical_pairs(text) is not None) == flat
    assert _parse_outcome(parse_matrix, text) == _parse_outcome(
        lambda t: _matrix_from_document(json.loads(t)), text)


def test_parse_rejects_non_hermitian():
    doc = {"n": 2, "entries": [[0, 0], [1, 0], [2, 0], [0, 0]]}
    with pytest.raises(ValueError, match="not Hermitian"):
        parse_matrix(json.dumps(doc))


def _write(tmp_path, name, h):
    path = tmp_path / name
    write_matrix(path, h)
    return str(path)


def test_cli_decompose_closed_form(tmp_path, capsys):
    mfile = _write(tmp_path, "h.json", example_pr(0.3, 0.0))
    bfile = _write(tmp_path, "h0.json", np.diag([0.0, 0.0, 1.0]).astype(complex))
    code = main(["decompose", mfile, "--base", bfile, "--k", "2", "--json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    coeff = doc["outputs"]["H_eff_window_block"][0][0][0]
    assert coeff == pytest.approx((1.0 - np.sqrt(1.36)) / 4.0, abs=1e-9)
    assert doc["diagnostics"]["within_r0"] is True


def test_cli_decompose_block_diagonal_reports_zero_s(tmp_path, capsys):
    h = np.zeros((3, 3), dtype=complex)
    h[0, 0], h[1, 1], h[2, 2] = 0.05, -0.05, 1.1
    mfile = _write(tmp_path, "h.json", h)
    bfile = _write(tmp_path, "h0.json", np.diag([0.0, 0.0, 1.0]).astype(complex))
    code = main(["decompose", mfile, "--base", bfile, "--k", "2", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    s = np.array(doc["outputs"]["S"])
    assert np.max(np.abs(s)) <= 1e-12


def test_cli_decompose_dimension_mismatch_exit3(tmp_path, capsys):
    mfile = _write(tmp_path, "h.json", example_pr(0.1, 0.1))
    bfile = _write(tmp_path, "h0.json", np.diag([0.0, 0.0, 1.0, 2.0]).astype(complex))
    code = main(["decompose", mfile, "--base", bfile, "--k", "2"])
    capsys.readouterr()
    assert code == 3


def test_cli_parse_error_exit2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    code = main(["project", str(bad), "--k", "2"])
    capsys.readouterr()
    assert code == 2


def test_cli_distance_value(tmp_path, capsys):
    mfile = _write(tmp_path, "h.json", np.diag([0.0, 1.0, 2.0]).astype(complex))
    code = main(["distance", mfile, "--k", "2", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"]["distance"] == pytest.approx(0.7071067811865476)
    assert doc["outputs"]["heff_norm"] == pytest.approx(
        doc["outputs"]["distance"], rel=1e-9
    )


def test_cli_distance_takes_one_spectrum_of_h(tmp_path, capsys,
                                             linalg_calls):
    # One eigh of H serves the distance and the decomposition against the
    # collapsed H, which adds its k x k SVD; the ball flag is read off the
    # window eigenvalues. The values agree with a separate eigvalsh and a
    # decomposition against H_sigma.
    n, k, offset = 64, 3, 5
    h = random_hermitian(n, np.random.default_rng(12))
    mfile = _write(tmp_path, "h.json", h)
    linalg_calls.clear()
    code = main(["distance", mfile, "--k", str(k), "--offset", str(offset),
                 "--json"])
    assert code == 0
    assert sorted(linalg_calls) == [("eigh", (n, n)), ("svd", (k, k))]
    out = json.loads(capsys.readouterr().out)["outputs"]
    tol = 1e-13 * np.linalg.norm(h)
    pr = collapse_projection(h, k, offset=offset)
    dec = sw_decompose_general(h, pr.h_sigma, k, offset=offset)
    assert out["distance"] == pytest.approx(
        distance_to_sigma(h, k, offset), rel=0.0, abs=tol)
    assert out["heff_norm"] == pytest.approx(
        np.linalg.norm(dec.h_eff), rel=0.0, abs=tol)


@pytest.mark.parametrize("command", ["decompose", "distance"])
def test_cli_own_collapse_takes_one_eigh(tmp_path, capsys, linalg_calls,
                                         command):
    # `decompose --base auto` and `distance` decompose H against its own
    # collapse: exactly one eigh, and no eigvalsh.
    n, k, offset = 16, 2, 7
    h = random_hermitian(n, np.random.default_rng(23))
    mfile = _write(tmp_path, "h.json", h)
    linalg_calls.clear()
    code = main([command, mfile, "--k", str(k), "--offset", str(offset),
                 "--json"])
    assert code == 0
    names = [name for name, _ in linalg_calls]
    assert names.count("eigh") == 1 and names.count("eigvalsh") == 0
    doc = json.loads(capsys.readouterr().out)
    vals = np.linalg.eigvalsh(h)
    if command == "distance":
        assert doc["outputs"]["heff_norm"] == pytest.approx(
            window_distance(vals, k, offset), rel=0.0, abs=1e-13)
    else:
        # ||H - H_sigma||_2 is the largest window deviation from the mean.
        win = vals[offset : offset + k]
        collapsed = vals.copy()
        collapsed[offset : offset + k] = win.mean()
        r0 = window_half_gap(collapsed, k, offset)
        assert doc["diagnostics"]["within_r0"] is bool(
            np.abs(win - win.mean()).max() < r0)
        assert np.linalg.norm(_report_matrix(doc, "S")) <= 1e-13


def test_cli_project_on_manifold(tmp_path, capsys):
    mfile = _write(tmp_path, "h.json", np.diag([0.5, 0.5, 2.0]).astype(complex))
    code = main(["project", mfile, "--k", "2", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"]["distance"] <= 1e-12
    assert doc["outputs"]["unique"] is True


def test_cli_norms_whose_squares_overflow(tmp_path, capsys):
    # Finite entries up to 2e200, whose squares overflow: the residuals,
    # ||H_eff|| and the distances are Frobenius norms taken again, scaled.
    # No report holds Infinity or NaN, and every distance is the window
    # distance of the eigenvalues.
    h = np.diag([0.0, 0.0, 1.0, 2.0]) * 1e200
    h[0, 2] = h[2, 0] = 1e190
    h[1, 3] = h[3, 1] = 3e199
    mfile = _write(tmp_path, "h.json", h.astype(complex))
    docs = {}
    for command in ("decompose", "distance", "project"):
        assert main([command, mfile, "--k", "2", "--json"]) == 0
        docs[command] = json.loads(
            capsys.readouterr().out,
            parse_constant=lambda name: pytest.fail(f"{name} in {command}"))
    dist = window_distance(np.linalg.eigvalsh(h), 2)
    assert 3e198 < dist < np.inf
    for value in (docs["distance"]["outputs"]["distance"],
                  docs["distance"]["outputs"]["heff_norm"],
                  docs["project"]["outputs"]["distance"]):
        assert value == pytest.approx(dist, rel=1e-12)
    for residual in (docs["decompose"]["diagnostics"]["residual"],
                     docs["distance"]["diagnostics"]["heff_residual"]):
        assert residual <= 1e-12 * 2e200


def _json_runs(capsys, argvs):
    """The parsed --json report of each CLI call, which must exit 0, raise
    no warning and print no Infinity or NaN."""
    docs = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for argv in argvs:
            assert main([*argv, "--json"]) == 0
            docs.append(json.loads(
                capsys.readouterr().out,
                parse_constant=lambda name: pytest.fail(f"{name} in {argv}")))
    return docs


def test_cli_window_trace_mean_past_the_largest_double(tmp_path, capsys):
    # The window sum of diag(8e307, 8.5e307, 8.9e307) overflows: its trace
    # mean is taken again at a power-of-two scale, so the matrix is its own
    # decomposition with c = 0, and ||H_eff|| is the window distance.
    mfile = _write(tmp_path, "h.json",
                   np.diag([0.0, 8e307, 8.5e307, 8.9e307]).astype(complex))
    window = ["--k", "3", "--offset", "1"]
    dec, dist, proj = _json_runs(capsys, [
        [command, mfile, *window]
        for command in ("decompose", "distance", "project")])
    assert dec["outputs"]["c"] == 0.0
    assert dec["diagnostics"]["residual"] == 0.0
    assert dec["diagnostics"]["within_r0"] is True
    assert dist["outputs"]["heff_norm"] == dist["outputs"]["distance"]
    assert proj["outputs"]["distance"] == pytest.approx(
        dist["outputs"]["distance"], rel=1e-14)
    assert dist["outputs"]["distance"] == pytest.approx(6.377e306, rel=1e-4)


def test_cli_within_r0_at_large_scale(tmp_path, capsys):
    # ||H - H0||_2 is about 3e199 < r0 = 5e199 for the pair at 1e200 as for
    # the same pair times 2^-664, though ||H - H0||_F^2 overflows.
    h = np.diag([0.0, 0.0, 1.0, 2.0]) * 1e200
    h[0, 2] = h[2, 0] = 1e190
    h[1, 3] = h[3, 1] = 3e199
    base = np.diag([0.0, 0.0, 1.0, 2.0]) * 1e200
    for scale in (1.0, 2.0 ** -664):
        mfile = _write(tmp_path, "h.json", (scale * h).astype(complex))
        bfile = _write(tmp_path, "b.json", (scale * base).astype(complex))
        doc, = _json_runs(capsys, [["decompose", mfile, "--base", bfile,
                                    "--k", "2"]])
        assert doc["diagnostics"]["within_r0"] is True


def test_cli_within_r0_of_a_small_base_at_large_scale(tmp_path, capsys):
    # r0 is below 1 here, so H - H0 is taken unscaled: its norms stay finite
    # and raise no warning, and H is far outside the ball.
    mfile = _write(tmp_path, "h.json",
                   (np.diag([0.0, 0.0, 1.0, 2.0]) * 1e152).astype(complex))
    bfile = _write(tmp_path, "b.json",
                   np.diag([0.0, 0.0, 1e-3, 2e-3]).astype(complex))
    doc, = _json_runs(capsys, [["decompose", mfile, "--base", bfile,
                                "--k", "2"]])
    assert doc["diagnostics"]["within_r0"] is False


def test_cli_distance_of_the_whole_spectrum(tmp_path, capsys):
    # A window of all n eigenvalues has no complement to decompose against:
    # the report lacks the cross-check, as for an unseparated window, and
    # the distance is the one `project` prints.
    h = np.diag([0.0, 1.0, 3.0]).astype(complex)
    h[0, 1] = h[1, 0] = 0.2
    mfile = _write(tmp_path, "h.json", h)
    dist, proj = _json_runs(capsys, [[command, mfile, "--k", "3"]
                                     for command in ("distance", "project")])
    assert dist["outputs"]["distance"] == pytest.approx(
        proj["outputs"]["distance"], rel=1e-15)
    assert dist["outputs"]["unique"] is True
    assert "heff_norm" not in dist["outputs"]
    assert dist["diagnostics"] == {}


@pytest.mark.parametrize("h, window", [
    (np.array([[0.0, 0.2, 0.0], [0.2, 1.0, 0.0], [0.0, 0.0, 3.0]]),
     ["--k", "3"]),
    (np.diag([0.0, 8e307, 8.5e307, 8.9e307]), ["--k", "3", "--offset", "1"]),
])
def test_cli_project_prints_the_distance_of_distance(tmp_path, capsys, h,
                                                     window):
    # The distance theorem makes the two distances one number: both are
    # taken from the window eigenvalues, so both print the same digits.
    mfile = _write(tmp_path, "h.json", h.astype(complex))
    texts = []
    for command in ("distance", "project"):
        assert main([command, mfile, *window, "--json"]) == 0
        texts.append([line for line in capsys.readouterr().out.splitlines()
                      if line.startswith('    "distance": ')])
    assert texts[0] == texts[1] and len(texts[0]) == 1


def test_cli_refuses_entries_above_half_the_largest_double(tmp_path, capsys):
    # (A + A^dagger)/2 of these diagonal entries overflows: the file is
    # refused as a parse error, with no warning, where the decomposition
    # once failed on NaN residuals. `matrix_text` refuses these entries, so
    # the file is written by the test's reference writer.
    path = tmp_path / "h.json"
    path.write_text(_reference_matrix_text(np.diag([0.0, 1.6e308, 1.7e308])))
    mfile = str(path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in ("decompose", "distance", "project"):
            code = main([command, mfile, "--k", "2", "--offset", "1"])
            assert code == 2
            assert capsys.readouterr().err.startswith(
                f"error: bad matrix file {mfile}: matrix entries must have "
                f"real and imaginary parts of at most 8.988465674311579e+307")


def test_cli_refuses_an_entry_past_the_double_range_without_a_warning(
        tmp_path, capsys):
    # The imaginary leaf 1e400 reads as inf, and 0 + 1j * inf holds a NaN
    # (0 * inf): refused as not finite, with no RuntimeWarning on the way.
    mfile = tmp_path / "h.json"
    mfile.write_text('{"n": 1, "entries": [[0, 1e400]]}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["distance", str(mfile), "--k", "1"]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: bad matrix file {mfile}: matrix entries must be finite")


def test_cli_boundary_flagged_not_fatal(tmp_path, capsys):
    mfile = _write(tmp_path, "h.json", np.diag([0.0, 0.5, 0.5]).astype(complex))
    code = main(["project", mfile, "--k", "2", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"]["unique"] is False
    assert doc["outputs"]["distance"] > 0.0


def test_cli_order_ising(capsys):
    code = main(["order", "ising", "--qubits", "3", "--seed", "7", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"]["agreement"] is True
    assert doc["outputs"]["order"] == 3
    assert set(doc["outputs"]["estimates"]) == {
        "stddev", "pairwise", "neighbor", "extreme", "mean"
    }


def test_cli_order_ssh_middle_window(capsys):
    code = main(["order", "ssh", "--cells", "4", "--v", "0", "--w", "1",
                 "--window", "middle", "--seed", "3", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"]["order"] == 4


@pytest.mark.parametrize("order_argv, base_argv, direction_argv", [
    (["ising", "--qubits", "4"], ["ising", "--qubits", "4"],
     ["transverse", "--qubits", "4"]),
    (["ssh", "--cells", "5", "--w", "1.5"],
     ["ssh", "--cells", "5", "--w", "1.5"], ["ssh-disorder", "--cells", "5"]),
    (["ssh", "--cells", "4", "--window", "ground"], ["ssh", "--cells", "4"],
     ["ssh-disorder", "--cells", "4"]),
    (["five-qubit", "--qubits", "3"], ["five-qubit"],
     ["one-local", "--qubits", "5"]),
], ids=["ising", "ssh-middle", "ssh-ground", "five-qubit"])
@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_cli_order_moves_along_the_model_direction(capsys, order_argv,
                                                   base_argv, direction_argv,
                                                   seed):
    # `order F --seed S` perturbs H(0) = `model <base>` along exactly the
    # matrix `model <direction> --seed S` prints.
    mats = []
    for argv in (base_argv, direction_argv):
        assert main(["model", *argv, "--seed", seed]) == 0
        mats.append(parse_matrix(capsys.readouterr().out))
    h0, h1 = mats
    args = build_parser().parse_args(["order", *order_argv, "--seed", seed])
    fam, _, _ = _order_family(args)
    for t in (0.0, 0.5, -0.25, 2.0 ** -10, -(2.0 ** -16)):
        assert fam(t).tobytes() == (h0 + t * h1).tobytes()


@pytest.mark.parametrize("cells", [4, 5, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cli_order_ssh_ground_window(capsys, cells, seed):
    # The lowest level of ssh(N, 0, 1) is (N - 1)-fold; every measure
    # splits it at first order.
    code = main(["order", "ssh", "--cells", str(cells), "--window", "ground",
                 "--seed", str(seed), "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"]["agreement"] is True
    assert doc["outputs"]["order"] == 1
    assert doc["diagnostics"] == {"k": cells - 1, "offset": 0}


def test_cli_order_single_level_window_exit3(tmp_path, capsys):
    # Two cells leave ssh a simple lowest level, and a ladder file may
    # declare k = 1: nothing to split, so no empty pairwise fit (exit 5).
    code = main(["order", "ssh", "--cells", "2", "--window", "ground"])
    assert code == 3
    assert "k >= 2 levels to split, got k = 1" in capsys.readouterr().err
    def level(t):  # a simple lowest level t^2
        return json.loads(matrix_text(np.diag([t * t, 1.0, 2.0]) + 0j))

    ts = [2.0 ** -e for e in range(3, 11)]
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps({"k": 1, "ts": ts, "base": level(0.0),
                                "matrices": [level(t) for t in ts]}))
    assert main(["order", "file", "--ladder-file", str(path)]) == 3
    assert "got k = 1" in capsys.readouterr().err


def test_cli_order_ladder_file(tmp_path, capsys):
    # tabulated family: quadratic splitting
    ts = [2.0 ** -e for e in range(3, 11)]
    mats = [example_pr(t, 0.0) for t in ts]
    doc = {
        "k": 2,
        "offset": 0,
        "ts": ts,
        "matrices": [json.loads(matrix_text(m)) for m in mats],
        "base": json.loads(matrix_text(example_pr(0.0, 0.0))),
    }
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(doc))
    code = main(["order", "file", "--ladder-file", str(path), "--json"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outputs"]["order"] == 2


def _ladder_doc():
    ts = [2.0 ** -e for e in range(3, 11)]
    return {
        "k": 2,
        "offset": 0,
        "ts": ts,
        "matrices": [json.loads(matrix_text(example_pr(t, 0.0))) for t in ts],
        "base": json.loads(matrix_text(example_pr(0.0, 0.0))),
    }


@pytest.mark.parametrize("text, message", [
    (None, "cannot read"),
    ("{broken", "bad ladder file"),
    ("5", "must hold a JSON object"),
    ("[1, 2]", "must hold a JSON object"),
    ({"ts": 5}, "'ts' must be a list of finite numbers"),
    ({"ts": ["0.125"] * 8}, "'ts' must be a list of finite numbers"),
    ({"ts": [True] * 8}, "'ts' must be a list of finite numbers"),
    ('{"k": 2, "ts": [NaN], "matrices": [], "base": 0}', "finite numbers"),
    ('{"k": 2, "ts": [Infinity], "matrices": [], "base": 0}',
     "finite numbers"),
    ('{"k": 2, "ts": [1%s], "matrices": [], "base": 0}' % ("0" * 400),
     "finite numbers"),
    ({"k": 2.7}, "'k' must be an integer"),
    ({"k": "2"}, "'k' must be an integer"),
    ({"offset": 0.9}, "'offset' must be an integer"),
    ({"matrices": {}}, "'matrices' must be a list"),
    ({"matrices": [{"n": 3}] * 8}, "bad ladder file"),
])
def test_cli_ladder_file_input_errors_exit2(tmp_path, capsys, text, message):
    # Ladder files go through the same checks as matrix files: unreadable
    # or malformed ones are parse errors, and no field is coerced.
    path = tmp_path / "ladder.json"
    if isinstance(text, dict):
        text = json.dumps({**_ladder_doc(), **text})
    if text is not None:
        path.write_text(text)
    code = main(["order", "file", "--ladder-file", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("argv, count", [
    (["ising", "--ladder-start", "10", "--ladder-stop", "3"], 0),
    (["ising", "--ladder-start", "3", "--ladder-stop", "5"], 3),
    (["file", "--ladder-file", "{dir}/ladder.json"], 3),
])
def test_cli_order_short_ladder_exit3(tmp_path, capsys, argv, count):
    # Every family needs the 4 samples a log-log fit takes; an empty ladder
    # is refused as such, not by an empty min() or an inconclusive fit.
    doc = _ladder_doc()
    (tmp_path / "ladder.json").write_text(json.dumps(
        {**doc, "ts": doc["ts"][:3], "matrices": doc["matrices"][:3]}))
    code = main(["order", *(a.format(dir=tmp_path) for a in argv)])
    assert code == 3
    assert (f"error: the ladder needs at least 4 positive ts, got {count}"
            in capsys.readouterr().err)


def test_cli_order_inconclusive_exit5(tmp_path, capsys):
    # |t|^2.5 splitting cannot round to an integer slope
    ts = [2.0 ** -e for e in range(3, 11)]
    mats = []
    for t in ts:
        m = np.diag([t ** 2.5, -(t ** 2.5), 1.0]).astype(complex)
        mats.append(m)
    doc = {
        "k": 2,
        "ts": ts,
        "matrices": [json.loads(matrix_text(m)) for m in mats],
        "base": json.loads(matrix_text(np.zeros((3, 3)))),
    }
    # base must still be degenerate on the window with a separated edge
    doc["base"] = json.loads(matrix_text(np.diag([0.0, 0.0, 1.0]).astype(complex)))
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(doc))
    code = main(["order", "file", "--ladder-file", str(path)])
    capsys.readouterr()
    assert code == 5


def _report_matrix(doc, key):
    return np.array(doc["outputs"][key]) @ np.array([1.0, 1j])


def test_cli_decompose_default_auto_base(tmp_path, capsys):
    # Without --base the input is decomposed against its own collapse: S
    # vanishes, ||H_eff|| = sqrt(k) std of the window eigenvalues, and the
    # parts rebuild H around the collapsed matrix.
    n, k, offset = 7, 3, 2
    h = random_hermitian(n, np.random.default_rng(21))
    mfile = _write(tmp_path, "h.json", h)
    code = main(["decompose", mfile, "--k", str(k), "--offset", str(offset),
                 "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["inputs"]["base"] == "auto"
    vals, vecs = np.linalg.eigh(h)
    win = vals[offset : offset + k]
    collapsed = vals.copy()
    collapsed[offset : offset + k] = win.mean()
    h_sigma = (vecs * collapsed) @ vecs.conj().T
    s, b, h_eff = (_report_matrix(doc, key) for key in ("S", "B", "H_eff"))
    p0 = vecs[:, offset : offset + k] @ vecs[:, offset : offset + k].conj().T
    c = doc["outputs"]["c"]
    tol = 1e-12 * np.linalg.norm(h)
    assert np.linalg.norm(s) <= tol
    assert np.linalg.norm(h_eff) == pytest.approx(
        np.sqrt(k) * np.std(win), rel=1e-12)
    rebuilt = exp_i(s) @ (h_sigma + b + c * p0 + h_eff) @ exp_i(-s)
    assert np.linalg.norm(rebuilt - h) <= tol


def test_cli_decompose_rotated_base(tmp_path, capsys):
    # A non-diagonal base U D U^dagger: the parts rebuild H, and the window
    # eigenvalues of H are the base level plus c plus those of H_eff.
    rng = np.random.default_rng(22)
    n, k, offset = 6, 2, 1
    d = np.diag([-1.0, 0.0, 0.0, 1.0, 2.0, 3.0]).astype(complex)
    q, _ = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    base = hermitian(q @ d @ q.conj().T)
    h = hermitian(base + 0.05 * random_hermitian(n, rng))
    mfile = _write(tmp_path, "h.json", h)
    bfile = _write(tmp_path, "g.json", base)
    code = main(["decompose", mfile, "--base", bfile, "--k", str(k),
                 "--offset", str(offset), "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    s, b, h_eff = (_report_matrix(doc, key) for key in ("S", "B", "H_eff"))
    c = doc["outputs"]["c"]
    p0 = q[:, offset : offset + k] @ q[:, offset : offset + k].conj().T
    rebuilt = exp_i(s) @ (q @ d @ q.conj().T + b + c * p0 + h_eff) \
        @ exp_i(-s)
    assert np.linalg.norm(rebuilt - h) <= 1e-12 * np.linalg.norm(h)
    block = _report_matrix(doc, "H_eff_window_block")
    np.testing.assert_allclose(
        np.linalg.eigvalsh(block) + c,
        np.linalg.eigvalsh(h)[offset : offset + k], rtol=0.0, atol=1e-12)
    assert doc["diagnostics"]["within_r0"] is True


_PLUGIN = """
import numpy as np


def weyl(p):
    x, y, z = p
    return np.array([[z, x - 1j * y, 0.0], [x + 1j * y, -z, 0.0],
                     [0.0, 0.0, 1.0]])


def mirrored(p):
    x, y, z = p
    return weyl((x, y, -z))


def not_finite(p):
    return np.full((3, 3), np.nan)


def not_hermitian(p):
    return weyl(p) + np.triu(np.ones((3, 3)), 1)
"""


@pytest.mark.parametrize("function, mirror", [("weyl", (1, 1, 1)),
                                               ("mirrored", (1, 1, -1))])
def test_cli_weyl_scan_plugin(tmp_path, capsys, function, mirror):
    # The plugin's window block is x sigma_x + y sigma_y + z sigma_z on the
    # mirrored axes, so the charge at the origin is the sign of det(mirror).
    plugin = tmp_path / "plugin.py"
    plugin.write_text(_PLUGIN)
    code = main(["weyl-scan", "--model", f"plugin:{plugin}:{function}",
                 "--box", "0.5", "--res", "9", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"]["count"] == 1
    point = doc["outputs"]["points"][0]
    assert point["classification"] == "weyl"
    assert point["charge"] == round(np.linalg.det(np.diag(mirror)))
    assert np.abs(np.array(point["p"], dtype=float)).max() <= 1e-8


@pytest.mark.parametrize("model, message", [
    ("plugin:{dir}/plugin.py", "plugin must be given as path.py:function"),
    ("plugin:{dir}/plugin.txt:weyl", "cannot load plugin module"),
    ("plugin:{dir}/absent.py:weyl", "cannot load plugin module"),
    ("plugin:{dir}/plugin.py:absent", "has no absent"),
    ("weyl-sample", "unknown model 'weyl-sample'"),
    # Plugin modules that raise while they are imported.
    ("plugin:{dir}/syntax.py:weyl",
     "cannot load plugin module {dir}/syntax.py: SyntaxError: "),
    ("plugin:{dir}/raising.py:weyl",
     "cannot load plugin module {dir}/raising.py: RuntimeError: no module"),
])
def test_cli_weyl_scan_model_errors_exit2(tmp_path, capsys, model, message):
    (tmp_path / "plugin.py").write_text(_PLUGIN)
    (tmp_path / "plugin.txt").write_text(_PLUGIN)
    (tmp_path / "syntax.py").write_text("def weyl(p:\n")
    (tmp_path / "raising.py").write_text('raise RuntimeError("no module")\n')
    code = main(["weyl-scan", "--model", model.format(dir=tmp_path),
                 "--box", "0.5", "--res", "5"])
    assert code == 2
    assert message.format(dir=tmp_path) in capsys.readouterr().err


@pytest.mark.parametrize("function, message", [
    pytest.param("not_finite",
                 "the family is not finite at p = [-0.5, -0.5, -0.5]",
                 id="not_finite"),
    pytest.param("not_hermitian",
                 "eigendecomposition residual of matrix (0,) ",
                 id="not_hermitian"),
])
def test_cli_weyl_scan_numerical_failure_exit4(tmp_path, capsys, function,
                                               message):
    # LinAlgError subclasses ValueError and still gets its own exit code:
    # the field names the first point of a NaN family, and its residual
    # check refuses a non-Hermitian matrix.
    (tmp_path / "plugin.py").write_text(_PLUGIN)
    code = main(["weyl-scan", "--model",
                 f"plugin:{tmp_path}/plugin.py:{function}",
                 "--box", "0.5", "--res", "5"])
    assert code == 4
    assert capsys.readouterr().err.startswith(f"numerical failure: {message}")


def test_cli_weyl_scan_skips_a_newton_step_into_a_nan_region(tmp_path,
                                                             capsys):
    # The seed's Newton step, and each halving of it, lands where the family
    # is NaN: the line search gives the seed up, and the scan finds nothing.
    plugin = tmp_path / "plugin.py"
    plugin.write_text("import numpy as np\n\n\n"
                      + inspect.getsource(nan_past_half))
    code = main(["weyl-scan", "--model", f"plugin:{plugin}:nan_past_half",
                 "--box", "0.3", "--res", "5", "--json"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["outputs"]["count"] == 0


_FAILING_PLUGIN = _PLUGIN + """

class Stop(BaseException):
    pass


def boom(p):
    raise RuntimeError("no matrix")


def late_boom(p):
    if p[0] > 0.25:
        raise RuntimeError(f"no matrix at x = {p[0]:.2f}")
    return weyl(p)


def stop(p):
    raise Stop("stop")
"""


@pytest.mark.parametrize("function, message", [
    ("boom", "RuntimeError: no matrix"),
    ("late_boom", "RuntimeError: no matrix at x = 0.30"),
])
def test_cli_weyl_scan_plugin_exception_exit3(tmp_path, capsys, function,
                                              message):
    # An exception of the plugin other than ValueError or DegenError is a
    # precondition failure naming the plugin: raised at the origin, where
    # the family takes its dimension, or from x = 0.3 on, in the field's
    # chunks 16 to 20 of 21, which either thread may solve. The worker
    # thread is joined.
    (tmp_path / "plugin.py").write_text(_FAILING_PLUGIN)
    spec = f"{tmp_path}/plugin.py:{function}"
    threads = threading.active_count()
    code = main(["weyl-scan", "--model", f"plugin:{spec}", "--box", "0.5",
                 "--res", "21"])
    assert code == 3
    assert threading.active_count() == threads
    assert capsys.readouterr().err.splitlines()[:-1] == [
        f"error: plugin {spec} raised {message}"]


def test_cli_weyl_scan_plugin_base_exception_escapes(tmp_path):
    (tmp_path / "plugin.py").write_text(_FAILING_PLUGIN)
    with pytest.raises(BaseException, match="stop") as info:
        main(["weyl-scan", "--model", f"plugin:{tmp_path}/plugin.py:stop",
              "--box", "0.5", "--res", "5"])
    assert type(info.value).__name__ == "Stop"


@pytest.mark.parametrize("res", ["3", "21"])
def test_cli_weyl_scan_overflowing_model_exit4(capsys, res):
    # The built-in model overflows at |p| = 1e200 on a grid with finite
    # edges: the field names the first point, with no warning on the way
    # (one chunk at res 3, 21 chunks on two threads at res 21).
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["weyl-scan", "--box", "1e200", "--res", res])
    assert code == 4
    assert capsys.readouterr().err.startswith(
        "numerical failure: the family is not finite at p = "
        "[-1e+200, -1e+200, -1e+200]\n")


@pytest.mark.parametrize("flags, message", [
    (["--box", "0"], "--box must be positive and finite, got 0.0"),
    (["--box", "-0.5"], "--box must be positive and finite, got -0.5"),
    (["--box", "nan"], "--box must be positive and finite, got nan"),
    (["--box", "inf"], "--box must be positive and finite, got inf"),
    (["--box", "0.5", "--center", "nan", "0", "0"],
     "--center must be finite, got [nan, 0.0, 0.0]"),
    (["--box", "0.5", "--center", "0", "0", "inf"],
     "--center must be finite, got [0.0, 0.0, inf]"),
    (["--box", "0.5", "--res", "1"], "--res must be at least 2, got 1"),
    (["--box", "0.5", "--res", "0"], "--res must be at least 2, got 0"),
    (["--box", "0.5", "--res", "-3"], "--res must be at least 2, got -3"),
    (["--box", "0.5", "--res", "102"], "--res must be at most 101, got 102"),
    (["--box", "0.5", "--res", "1000"],
     "--res must be at most 101, got 1000"),
    (["--box", "1e308", "--center", "1e308", "0", "0"],
     "the box edges --center +- --box must be finite, got [(0.0, inf), "
     "(-1e+308, 1e+308), (-1e+308, 1e+308)]"),
    (["--box", "1e308", "--center", "0", "0", "1e308"],
     "the box edges --center +- --box must be finite, got [(-1e+308, "
     "1e+308), (-1e+308, 1e+308), (0.0, inf)]"),
])
def test_cli_weyl_scan_box_errors_exit2(capsys, flags, message):
    # A box without interior scans every grid point as a seed (or rejects
    # every root); a non-finite box, or finite flags whose edges overflow,
    # would reach linspace and LAPACK; a grid needs two points
    # per axis, and a grid above res 101 holds more points than the field
    # builds at once (res 1000 would be 24 GB). All are refused first. The
    # flags come last, so their --res overrides the default one.
    code = main(["weyl-scan", "--res", "5", *flags])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {message}\n")


def test_cli_weyl_scan_finds_point(capsys):
    code = main(["weyl-scan", "--model", "weyl-example", "--box", "0.5",
                 "--res", "11", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"]["count"] == 1
    point = doc["outputs"]["points"][0]
    assert point["classification"] == "weyl"
    assert point["charge"] == 1


# A 16 x 16 family: window d . sigma, d = (x, y, z^2 - 1/16), next to 14
# fixed levels, in a basis that turns with x + z. Its Weyl points are
# (0, 0, -1/4) and (0, 0, 1/4).
_TWO_POINTS = """
import numpy as np

_rng = np.random.default_rng(16)
W0 = np.linalg.qr(_rng.standard_normal((16, 16))
                  + 1j * _rng.standard_normal((16, 16)))[0]
LEVELS = 1.0 + np.sort(_rng.uniform(0.0, 2.0, size=14))


def two_points(p):
    x, y, z = p
    d = np.diag([z * z - 0.0625, 0.0625 - z * z, *LEVELS]).astype(complex)
    d[0, 1], d[1, 0] = x - 1j * y, x + 1j * y
    c, s = np.cos(0.3 * (x + z)), np.sin(0.3 * (x + z))
    w = W0.copy()
    w[:, [0, 2]] = w[:, [0, 2]] @ np.array([[c, -s], [s, c]])
    h = w @ d @ w.conj().T
    return (h + h.conj().T) / 2.0
"""


def test_cli_builtin_scans_are_deterministic(monkeypatch, capsys, tmp_path):
    # Two threads build and solve the field's chunks of a built-in scan (3
    # chunks at res 11, 21 at res 21) and of an n = 16 plugin's (121 chunks
    # at res 11): 20 runs of each, with the threads switched every 10 us,
    # give the bytes of the serial loop.
    plugin = tmp_path / "two_points.py"
    plugin.write_text(_TWO_POINTS)

    def report(flags):
        assert main(["weyl-scan", *flags, "--json"]) == 0
        return capsys.readouterr().out

    interval = sys.getswitchinterval()
    for flags, count in ((["--box", "0.5", "--res", "11"], 1),
                         (["--box", "0.5", "--res", "21"], 1),
                         (["--model", f"plugin:{plugin}:two_points",
                           "--box", "0.4", "--res", "11"], 2)):
        sys.setswitchinterval(1e-5)
        try:
            runs = {report(flags) for _ in range(20)}
        finally:
            sys.setswitchinterval(interval)
        with monkeypatch.context() as mp:
            mp.setattr(weyl, "_on_two_threads", lambda solve, draw, keys:
                       [solve(draw(key)) for key in keys])
            serial = report(flags)
        assert runs == {serial}
        assert json.loads(serial)["outputs"]["count"] == count


def test_cli_reports_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code = main(["order", "ising", "--qubits", "3", "--seed", "11",
                     "--json"])
        assert code == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_cli_model_emits_parsable(capsys):
    code = main(["model", "example-pr", "--p", "0.3", "--r", "0.0"])
    assert code == 0
    out = capsys.readouterr().out
    h = parse_matrix(out)
    np.testing.assert_array_equal(h, example_pr(0.3, 0.0))


def test_cli_model_seeded_deterministic(capsys):
    texts = []
    for _ in range(2):
        code = main(["model", "one-local", "--qubits", "5", "--seed", "9"])
        assert code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]


def test_cli_model_unwritable_output_exit2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    assert main(["model", "ising", "-o", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")


def test_cli_model_refuses_what_its_reader_refuses(tmp_path, capsys):
    # A NaN part, and parts above half the largest double: `read_matrix`
    # refuses both, so `model` writes neither, not even an empty file, and
    # exits 3 with one line.
    path = tmp_path / "f.json"
    for argv, message in (
            (["model", "example-3x3", "--x", "nan"],
             "matrix entries must be finite"),
            (["model", "ssh", "--cells", "2", "--v", "1.7e308", "-o",
              str(path)], "matrix entries must have real and imaginary "
                          "parts of at most")):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"precondition violated: {message}")
        assert err.count("\n") == 2  # and the wall time
    assert not path.exists()


def test_cli_chains_past_the_cell_cap_exit3(capsys):
    # The counts are refused before any draw: a billion cells would ask
    # numpy for gigabytes, and no cells for a negative draw count.
    for argv in (["model", "ssh", "--cells", "129"],
                 ["model", "ssh-disorder", "--cells", "129"],
                 ["model", "ssh-disorder", "--cells", "1000000000"],
                 ["model", "ssh-disorder", "--cells", "0"],
                 ["order", "ssh", "--cells", "129"],
                 ["order", "ssh", "--cells", "1000000000"]):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("precondition violated: cell count must be "
                              "between ")


def test_cli_drawn_qubit_counts_are_refused_before_any_draw(capsys):
    for argv in (["model", "transverse", "--qubits", "1000000000"],
                 ["model", "transverse", "--qubits", "-1"],
                 ["model", "one-local", "--qubits", "1000000000"],
                 ["model", "one-local", "--qubits", "-1"],
                 ["model", "ising", "--qubits", "1"]):
        assert main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("precondition violated: qubit count must be "
                              "between ")


# ---------------------------------------------------------------------------
# report serialization against the standard encoder
# ---------------------------------------------------------------------------


def _reference_plain(value):
    """The report as nested lists, [re, im] for complex entries."""
    if isinstance(value, dict):
        return {str(k): _reference_plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_reference_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return np.stack((value.real, value.imag), axis=-1).tolist()
        return value.tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


def _reference_json(report):
    doc = {
        "schema": report.SCHEMA,
        "command": report.command,
        "inputs": _reference_plain(report.inputs),
        "outputs": _reference_plain(report.outputs),
        "diagnostics": _reference_plain(report.diagnostics),
    }
    return json.dumps(doc, indent=2) + "\n"


def _assert_same_report(report):
    """report.to_json() equals the standard encoder's text. The line counts
    and then the first differing line are compared before the whole text:
    the verdict is the same, but a failing example reports two short lines
    instead of pytest's diff of two long texts, which made each shrink step
    of a failing property test slow."""
    got, want = report.to_json(), _reference_json(report)
    got_lines, want_lines = got.split("\n"), want.split("\n")
    assert len(got_lines) == len(want_lines)
    for i, (line, expected) in enumerate(zip(got_lines, want_lines)):
        assert (i, line) == (i, expected)
    assert got == want


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308,
                     1.7976931348623157e308, 1e-7, 1e16, 0.1]),
)
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
_ARRAYS = st.one_of(
    hnp.arrays(np.float64, _SHAPES, elements=_FLOATS),
    hnp.arrays(np.float32, _SHAPES, elements=st.floats(width=32)),
    hnp.arrays(np.complex128, _SHAPES,
               elements=st.builds(complex, _FLOATS, _FLOATS)),
    hnp.arrays(np.int64, _SHAPES),
    hnp.arrays(np.bool_, _SHAPES),
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOATS,
    st.builds(complex, _FLOATS, _FLOATS), st.text(max_size=6),
    _FLOATS.map(np.float64), st.integers(-2**31, 2**31 - 1).map(np.int64),
    st.booleans().map(np.bool_), st.floats(width=32).map(np.float32),
    st.builds(complex, _FLOATS, _FLOATS).map(np.complex128),
)
_KEYS = st.one_of(st.text(max_size=6), st.sampled_from(['"', "\\", "\n",
                                                        "\u00e9", "\x00"]),
                  st.integers(-3, 3))
_VALUES = st.recursive(
    st.one_of(_SCALARS, _ARRAYS),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
    ),
    max_leaves=8,
)
_SECTIONS = st.dictionaries(st.text(max_size=6), _VALUES, max_size=4)


# The walker's own branches, pinned: empty containers at every depth,
# a numpy complex scalar, two keys that share one string (the later value
# at the earlier place, as in a dict of str keys), a 0-d array, and an
# empty complex array inside a list.
@settings(max_examples=150, deadline=None)
@given(inputs=_SECTIONS, outputs=_SECTIONS, diagnostics=_SECTIONS)
@example(inputs={"a": {}, "b": [], "c": (), "d": [{}, [[]], ((),)]},
         outputs={"e": {"f": {}, "g": ([], {})}}, diagnostics={})
@example(inputs={}, outputs={"z": np.complex128(-0.0 + 1.5j),
                             "zs": [np.complex128(complex("nan-infj"))]},
         diagnostics={"k": {1: "int", "1": "str", 0: {}, "x": 2}})
@example(inputs={"0d": np.array(-2.5), "0dc": np.array(1j),
                 "0di": np.array(7)},
         outputs={"l": [np.zeros((2, 0), dtype=complex)],
                  "t": (np.zeros((0, 3)), np.zeros((2, 0), dtype=complex))},
         diagnostics={})
# Scalar leaves: a finite float, an int of exact type or a str is written by
# the encoder's own formatter, every other leaf by json.dumps.
@example(inputs={"nan": float("nan"), "inf": float("inf"),
                 "-inf": float("-inf"), "-0": -0.0},
         outputs={"true": True, "none": None,
                  "int": 123456789012345678901234567890},
         diagnostics={"l": [-123456789012345678901234567890, 0.1, -0.0,
                            float("nan"), False, None, 7]})
@example(inputs={"s": ['"', "\\", "\n", "\u00e9", "\x00", "\ud83d", ""]},
         outputs={"\u00e9\n": "\U0001f600", "enum": enum.IntEnum("E", "A").A},
         diagnostics={})
def test_report_json_matches_standard_encoder(inputs, outputs, diagnostics):
    _assert_same_report(RunReport("decompose", inputs, outputs, diagnostics))


@st.composite
def _pooled_arrays(draw):
    """A Hermitian complex matrix (n <= 12), or a float64 or float32 array,
    whose leaves are drawn with random signs from a pool of at most four
    magnitudes, so that the writer's text of each magnitude is shared
    between leaves of either sign; sometimes one leaf is NaN or +-inf."""
    kind = draw(st.sampled_from(["hermitian", "float64", "float32"]))
    top = 3e38 if kind == "float32" else None
    pool = np.array(draw(st.lists(
        st.one_of(st.sampled_from([0.0, 5e-324, 1e16, 0.1]),
                  st.floats(min_value=0.0, max_value=top,
                            allow_infinity=False)),
        min_size=1, max_size=4)))
    if kind == "hermitian":
        n = draw(st.integers(1, 12))
        shape = (2, n, n)
    else:
        shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, max_side=6))
    picks = pool[draw(hnp.arrays(np.intp, shape,
                                 elements=st.integers(0, len(pool) - 1)))]
    leaves = np.where(draw(hnp.arrays(np.bool_, shape)), -picks, picks)
    if kind == "hermitian":
        re, im = leaves
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        a = np.empty((n, n), dtype=complex)
        a.real = np.where(upper, re, re.T)
        a.imag = np.where(upper, im, -im.T)
        a.imag[np.diag_indices(n)] = 0.0
    else:
        a = leaves.astype(kind)
    bad = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    if bad is not None:
        a.real.flat[draw(st.integers(0, a.size - 1))] = bad
    return a


# The sign of a leaf goes at the end of the text before it, so the cases
# pinned here are those of the first and last leaf of an array: -0.0 first,
# a negative first and last leaf, a one-leaf array, 1-D and 3-D arrays, a
# negative first imaginary part, and float32 leaves.
@settings(max_examples=300, deadline=None)
@given(arrays=st.lists(_pooled_arrays(), min_size=1, max_size=3))
@example(arrays=[np.array([-0.0, 0.0, 1.5, -0.0])])
@example(arrays=[np.array([-2.5, 0.1, -2.5]), np.array([[-1.0, 3.0],
                                                         [0.5, -7.25]])])
@example(arrays=[np.array([-4.0]), np.array([[0.0]]),
                 np.array([[[-1e-300 - 0.0j]]])])
@example(arrays=[np.array([1.0, -1.0, 2.0]),
                 np.array([-1.0, 1.0, -0.5, 0.5]).repeat(6).reshape(2, 3, 4)
                 * np.arange(24).reshape(2, 3, 4)])
@example(arrays=[np.array([[3.0 - 1.0j, -0.5 + 2.0j], [-0.5 - 2.0j, -0.0j]]),
                 np.array([[0.0 - 0.0j, 1.0j], [-1.0j, -2.0 + 0.0j]])])
@example(arrays=[np.array([-0.1, 0.1, 3e38, -1e-45, 0.0], dtype=np.float32)])
def test_report_json_pooled_magnitudes(arrays):
    _assert_same_report(RunReport("decompose", outputs={
        str(i): a for i, a in enumerate(arrays)}))


def test_report_json_decompose_shaped_64():
    # S, B and H_eff of a 64 x 64 pair with a threefold window: each
    # magnitude of the Hermitian parts is printed with both signs.
    rng = np.random.default_rng(7)
    base = np.diag(np.r_[0.0, 0.0, 0.0, np.arange(1.0, 62.0)]).astype(complex)
    dec = sw_decompose_general(base + 0.05 * random_hermitian(64, rng), base,
                               3)
    report = RunReport(
        "decompose", inputs={"matrix": "h.json", "base": "base.json", "k": 3,
                             "offset": 0},
        outputs={"S": dec.s, "B": dec.b, "c": dec.c, "H_eff": dec.h_eff,
                 "H_eff_window_block": dec.heff_window},
        diagnostics={"residual": dec.residual, "S_2norm": dec.max_angle,
                     "within_r0": dec.within_r0, "s_norm_ok": True})
    assert report.to_json() == _reference_json(report)


def _reference_cell(z, is_complex):
    if is_complex:
        z = complex(z)
        return f"{z.real:.12g}{z.imag:+.12g}i"
    return f"{float(z):.12g}"


def _reference_text(matrix):
    """The text report of the one matrix S, one f-string per cell."""
    is_complex = np.iscomplexobj(matrix)
    return "\n".join(["command: decompose", "outputs:", "  S:"] + [
        "    " + "  ".join(f"{_reference_cell(z, is_complex):>22s}"
                          for z in row)
        for row in matrix
    ]) + "\n"


_MATRICES = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                            min_side=0, max_side=5),
               elements=_FLOATS),
    hnp.arrays(np.complex128, hnp.array_shapes(min_dims=2, max_dims=2,
                                               min_side=0, max_side=5),
               elements=st.builds(complex, _FLOATS, _FLOATS)),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=2, max_dims=2)),
    hnp.arrays(np.bool_, hnp.array_shapes(min_dims=2, max_dims=2)),
)


def _reference_matrix_text(h):
    """`matrix_text` by one `format_float` call per part, but "-0.0" for
    negative zero."""
    def part(x):
        return "-0.0" if x == 0.0 and np.signbit(x) else format_float(x)

    h = np.asarray(h, dtype=complex)
    pairs = ", ".join(f"[{part(z.real)}, {part(z.imag)}]" for z in h.ravel())
    return f'{{"n": {h.shape[0]}, "entries": [{pairs}]}}\n'


_SQUARES = st.integers(1, 5).flatmap(lambda n: st.one_of(
    hnp.arrays(np.float64, (n, n), elements=_FLOATS),
    hnp.arrays(np.complex128, (n, n),
               elements=st.builds(complex, _FLOATS, _FLOATS))))


@settings(max_examples=300, deadline=None)
@given(matrix=_SQUARES)
@example(matrix=np.array([[-0.0, complex(-0.0, -0.0)],
                          [complex(0.0, -0.0), complex(-0.0, 1.0)]]))
@example(matrix=np.array([[1.6e308j]]))
@example(matrix=np.array([[1.7e308]]))
def test_matrix_text_formats_each_part_and_reads_back(matrix):
    # `matrix_text` refuses what `hermitian`, and so the reader, refuses,
    # with its message, and writes every other matrix as given.
    try:
        hermitian(matrix)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            matrix_text(matrix)
    else:
        assert matrix_text(matrix) == _reference_matrix_text(matrix)
    # The mirrored upper triangle with a real diagonal: Hermitian, so it
    # is written as given and reads back as `hermitian` makes it, bit for
    # bit and signed zeros included, or is refused as `hermitian` refuses
    # it, by `matrix_text` and, on finite text, by the reader.
    h = np.where(np.triu(np.ones(matrix.shape, bool)), matrix,
                 matrix.conj().T)
    np.fill_diagonal(h, h.diagonal().real)
    try:
        want = hermitian(h)
    except ValueError as exc:
        refusal = f"^{re.escape(str(exc))}$"
        with pytest.raises(ValueError, match=refusal):
            matrix_text(h)
        if np.isfinite(h).all():
            with pytest.raises(ValueError, match=refusal):
                parse_matrix(_reference_matrix_text(h))
        return
    assert matrix_text(h) == _reference_matrix_text(h)
    assert parse_matrix(matrix_text(h)).tobytes() == want.tobytes()


@settings(max_examples=100, deadline=None)
@given(matrix=_MATRICES)
def test_report_text_matrix_cells(matrix):
    report = RunReport("decompose", outputs={"S": matrix})
    assert report.to_text() == _reference_text(matrix)


@settings(max_examples=300, deadline=None)
@given(array=_pooled_arrays())
def test_report_text_pooled_magnitudes(array):
    # Real and complex matrices whose leaves share a few magnitudes with
    # either sign, so each text of the real and of the imaginary parts
    # serves several cells, sometimes with one NaN or +-inf: the cells of
    # one f-string per entry, byte for byte.
    matrix = array.reshape(array.shape[0], -1)
    report = RunReport("decompose", outputs={"S": matrix})
    assert report.to_text() == _reference_text(matrix)


_SIGNED_NAN = np.copysign(np.nan, -1.0)


@pytest.mark.parametrize("matrix", [
    np.array([[-0.0, 0.0], [1e300, -1e-300]]),
    np.array([[complex(-0.0, -0.0), complex(0.0, -0.0)],
              [complex(1e300, 1e-300), complex(-1e-300, -1e300)]]),
    np.zeros((3, 2)),
    np.zeros((2, 2), dtype=complex),
    np.zeros((0, 3)),
    np.zeros((2, 0), dtype=complex),
    # NaN with its sign bit set, which `format` writes as "nan", in the
    # real and in the imaginary parts.
    np.array([[_SIGNED_NAN, np.nan], [-np.inf, -1.0]]),
    np.array([[complex(_SIGNED_NAN, _SIGNED_NAN), complex(-np.inf, np.nan)],
              [complex(np.nan, -np.inf), complex(-0.0, _SIGNED_NAN)]]),
    # Single precision, whose parts are formatted as the doubles they equal.
    np.array([[complex(-0.0, 1 / 3), complex(1e30, -0.0)],
              [complex(_SIGNED_NAN, -np.inf), complex(0.1, -1e-30)],
              [complex(0.0, 0.0), complex(-0.1, 3e38)]], dtype=np.complex64),
    np.array([[-0.0, 1 / 3, 3e38], [_SIGNED_NAN, 0.1, -1e-30]],
             dtype=np.float32),
])
def test_report_text_signed_zeros_extremes_and_empty(matrix):
    report = RunReport("decompose", outputs={"S": matrix})
    assert report.to_text() == _reference_text(matrix)


def test_report_text_scalars_lists_and_nested_dicts():
    # Every non-matrix line of a text report: floats and numpy floats to 12
    # significant digits, complex as re+imi, booleans lower-case, other
    # scalars by str, lists, tuples and vectors on one line, dicts nested.
    x, z = 1.0 / 3.0, complex(0.25, -1e-20)
    report = RunReport(
        "order",
        inputs={"seed": 7, "name": "ising", "none": None},
        outputs={
            "ratio": x,
            "np_ratio": np.float64(2.0 / 3.0),
            "z": z,
            "flag": True,
            "ladder": [0.5, 0.25, "inf"],
            "pair": (1, 2),
            "vector": np.array([x, 2.0]),
            "estimates": {"stddev": {"r": 3, "ok": False}, "extreme": 1e-300},
        },
    )
    assert report.to_text().splitlines() == [
        "command: order",
        "inputs:",
        "  seed: 7",
        "  name: ising",
        "  none: None",
        "outputs:",
        "  ratio: 0.333333333333",
        "  np_ratio: 0.666666666667",
        "  z: 0.25-1e-20i",
        "  flag: true",
        "  ladder: [0.5, 0.25, inf]",
        "  pair: [1, 2]",
        "  vector: [0.333333333333, 2]",
        "  estimates:",
        "    stddev:",
        "      r: 3",
        "      ok: false",
        "    extreme: 1e-300",
    ]


def test_cli_main_builds_its_parser_once(capsys):
    # One process, one parser: an order run, an argparse error, a --help, a
    # command-level parse error, a scan and the same order run again all
    # share it, and the two order reports are the same bytes.
    order = ["order", "ising", "--qubits", "3", "--seed", "7", "--json"]
    cli._shared_parser.cache_clear()
    assert main(order) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main(["order", "no-such-family"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["order", "--help"])
    assert exc.value.code == 0
    assert "usage: degengeo order" in capsys.readouterr().out
    assert main(["weyl-scan", "--box", "0.5", "--res", "102"]) == 2
    assert main(["weyl-scan", "--box", "0.5", "--res", "5", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["command"] == "weyl-scan"
    assert main(order) == 0
    assert capsys.readouterr().out == first
    info = cli._shared_parser.cache_info()
    assert (info.misses, info.hits) == (1, 5)
    # The public builder still hands out a new parser on each call.
    assert build_parser() is not build_parser()
    assert build_parser() is not cli._shared_parser()


@pytest.mark.parametrize("change, message", [
    ({"drop": "k"}, "missing field 'k'"),
    ({"drop": "ts"}, "missing field 'ts'"),
    ({"drop": "matrices"}, "missing field 'matrices'"),
    ({"drop": "base"}, "missing field 'base'"),
    ({"cut": "ts"}, "'ts' and 'matrices' must have equal length"),
    ({"cut": "matrices"}, "'ts' and 'matrices' must have equal length"),
    ({"zero": 0.0}, "ladder parameters must be nonzero"),
    ({"zero": -0.0}, "ladder parameters must be nonzero"),
])
def test_cli_ladder_file_field_errors_exit2(tmp_path, capsys, change,
                                            message):
    # The ladder's own fields: all four present, one matrix per t, and no
    # t = 0 (H(0) is the base).
    doc = _ladder_doc()
    if "drop" in change:
        del doc[change["drop"]]
    if "cut" in change:
        doc[change["cut"]] = doc[change["cut"]][1:]
    if "zero" in change:
        doc["ts"][2] = change["zero"]
    path = tmp_path / "ladder.json"
    path.write_text(json.dumps(doc))
    code = main(["order", "file", "--ladder-file", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: bad ladder file") and message in err


def test_cli_order_file_needs_a_ladder_file(capsys):
    code = main(["order", "file"])
    assert code == 2
    assert capsys.readouterr().err.startswith(
        "error: --ladder-file is required with 'order file'")


@pytest.mark.parametrize("argv", [["order", "ising"], ["model", "transverse"],
                                  ["order", "five-qubit", "--json"]])
def test_cli_negative_seed_is_a_parse_error(capsys, argv):
    # numpy's generators take non-negative seeds only; the flag is refused
    # while parsing, and a non-integer keeps argparse's int message.
    for seed, message in (("-1", "must be a non-negative integer, got -1"),
                          ("1.5", "invalid int value: '1.5'")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--seed", seed])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --seed: {message}\n" in err


@pytest.mark.parametrize("flags, message", [
    (["--ladder-start", "-1100", "--ladder-stop", "5"],
     "argument --ladder-start: must be an integer in -1023..1074, got -1100"),
    (["--ladder-start", "1100", "--ladder-stop", "1110"],
     "argument --ladder-start: must be an integer in -1023..1074, got 1100"),
    (["--ladder-stop", "1075"],
     "argument --ladder-stop: must be an integer in -1023..1074, got 1075"),
    (["--ladder-start", "-1024"],
     "argument --ladder-start: must be an integer in -1023..1074, got -1024"),
])
def test_cli_order_ladder_exponent_out_of_range_exit2(capsys, flags, message):
    # The ladder holds t = 2^-e: past -1023 that overflows (an OverflowError
    # from the power), past 1074 it underflows to 0 (no sample point). Both
    # are refused while parsing.
    with pytest.raises(SystemExit) as exc:
        main(["order", "ising", *flags])
    assert exc.value.code == 2
    assert f"error: {message}\n" in capsys.readouterr().err


def test_cli_order_ladders_at_the_ends_of_the_double_range(capsys):
    # At t = 2^-1074 the difference quotient of H'(0) is not finite: a
    # refusal naming it, exit 5. At t up to 2^1023 the window sums overflow
    # and their means are taken again: order 1. Neither warns.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["order", "ising", "--ladder-start", "1060",
                     "--ladder-stop", "1074"]) == 5
        assert ("inconclusive fit: all orders: the estimate of H'(0) from "
                "t = 5e-324 is not finite\n") in capsys.readouterr().err
        assert main(["order", "ising", "--ladder-start", "-1023",
                     "--ladder-stop", "-1019", "--json"]) == 0
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    assert (outputs["order"], outputs["agreement"]) == (1, True)


def test_cli_weyl_scan_box_whose_squares_overflow(capsys):
    # At the corners of the 1e60 box the built-in model's entries reach
    # 1e180: finite, but their squares overflow. The scan finds the Weyl
    # point at the origin with no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["weyl-scan", "--box", "1e60", "--res", "3", "--json"])
    assert code == 0
    points = json.loads(capsys.readouterr().out)["outputs"]["points"]
    assert [(p["p"], p["classification"]) for p in points] == [
        (["0", "0", "0"], "weyl")]


def _digest_calls(tmp_path, monkeypatch):
    """The argv lists of `tools/cli_digests.py`, with its inputs written to
    tmp_path, the working directory. The environment variables the tool
    sets on import are restored after the test."""
    import importlib.util
    import os
    from pathlib import Path

    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "COLUMNS"):
        monkeypatch.setenv(var, os.environ.get(var, ""))
    path = Path(__file__).resolve().parent.parent / "tools" / "cli_digests.py"
    spec = importlib.util.spec_from_file_location("cli_digests", path)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    monkeypatch.chdir(tmp_path)
    return digests._calls(digests._write_inputs(
        np.random.default_rng(digests.SEED)))


def _order_outcome(argv, capsys):
    """Exit code and, for a JSON report, each method's r, the agreement
    and the order."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    if code or "--json" not in argv:
        return code, None
    outputs = json.loads(out)["outputs"]
    return code, ({m: e["r"] for m, e in outputs["estimates"].items()},
                  outputs["agreement"], outputs["order"])


def test_cli_order_outcomes_match_the_least_squares_fit(tmp_path, monkeypatch,
                                                       capsys):
    # On every `order` call of the digest list, the closed-form slopes give
    # the orders, agreement and exit code that np.polyfit's slopes give.
    from degengeo import splitting

    calls = [argv for argv in _digest_calls(tmp_path, monkeypatch)
             if argv[0] == "order" and "--help" not in argv]
    assert len(calls) > 30
    closed_form = [_order_outcome(argv, capsys) for argv in calls]

    def polyfit_slope(x, y):
        return float(np.polyfit(x, y, 1)[0])

    monkeypatch.setattr(splitting, "_slope", polyfit_slope)
    least_squares = [_order_outcome(argv, capsys) for argv in calls]
    assert closed_form == least_squares
    codes = {code for code, _ in closed_form}
    assert codes == {0, 2, 3, 5}
