"""Interchange format round-trips, report serialization, and the CLI."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from degengeo.cli import main
from degengeo.hermitian import hermitian, random_hermitian
from degengeo.matrixio import (
    RunReport,
    format_float,
    matrix_text,
    parse_matrix,
    read_matrix,
    write_matrix,
)
from degengeo.models import example_pr


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


def test_parse_matches_entrywise_loop():
    # Signed zeros in both parts and integer entries: the bytes of the
    # per-entry float(re) + 1j * float(im) conversion.
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
    loop = np.array([float(re) + 1j * float(im) for re, im in pairs])
    parsed = parse_matrix(json.dumps({"n": n, "entries": pairs}))
    assert parsed.tobytes() == hermitian(loop.reshape(n, n)).tobytes()
    with pytest.raises(ValueError, match="entry 1 is not an"):
        parse_matrix('{"n": 2, "entries": [[1, 0], [0, 0, 0], [0, 0], [1, 0]]}')


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


def test_cli_project_on_manifold(tmp_path, capsys):
    mfile = _write(tmp_path, "h.json", np.diag([0.5, 0.5, 2.0]).astype(complex))
    code = main(["project", mfile, "--k", "2", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"]["distance"] <= 1e-12
    assert doc["outputs"]["unique"] is True


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


def test_cli_weyl_scan_finds_point(capsys):
    code = main(["weyl-scan", "--model", "weyl-example", "--box", "0.5",
                 "--res", "11", "--json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["outputs"]["count"] == 1
    point = doc["outputs"]["points"][0]
    assert point["classification"] == "weyl"
    assert point["charge"] == 1


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


@settings(max_examples=150, deadline=None)
@given(inputs=_SECTIONS, outputs=_SECTIONS, diagnostics=_SECTIONS)
def test_report_json_matches_standard_encoder(inputs, outputs, diagnostics):
    report = RunReport("decompose", inputs, outputs, diagnostics)
    assert report.to_json() == _reference_json(report)


def _reference_cell(z, is_complex):
    if is_complex:
        z = complex(z)
        return f"{z.real:.12g}{z.imag:+.12g}i"
    return f"{float(z):.12g}"


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


@settings(max_examples=100, deadline=None)
@given(matrix=_MATRICES)
def test_report_text_matrix_cells(matrix):
    is_complex = np.iscomplexobj(matrix)
    expected = ["command: decompose", "outputs:", "  S:"] + [
        "    " + "  ".join(f"{_reference_cell(z, is_complex):>22s}"
                          for z in row)
        for row in matrix
    ]
    report = RunReport("decompose", outputs={"S": matrix})
    assert report.to_text() == "\n".join(expected) + "\n"
