"""Interchange format round-trips, report serialization, and the CLI."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from degengeo import cli
from degengeo.cli import _order_family, build_parser, main
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
from degengeo.projection import collapse_projection, distance_to_sigma
from degengeo.swtransform import sw_decompose_general

from test_swtransform import exp_i


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
    # The eigh of H in the projection, then the decomposition's eigh of H in
    # that eigenbasis, its eigvalsh of H - H0 and its k x k SVD; the values
    # agree with a separate eigvalsh and a decomposition against H_sigma.
    n, k, offset = 64, 3, 5
    h = random_hermitian(n, np.random.default_rng(12))
    mfile = _write(tmp_path, "h.json", h)
    linalg_calls.clear()
    code = main(["distance", mfile, "--k", str(k), "--offset", str(offset),
                 "--json"])
    assert code == 0
    assert sorted(linalg_calls) == [("eigh", (n, n)), ("eigh", (n, n)),
                                    ("eigvalsh", (n, n)), ("svd", (k, k))]
    out = json.loads(capsys.readouterr().out)["outputs"]
    tol = 1e-13 * np.linalg.norm(h)
    pr = collapse_projection(h, k, offset=offset)
    dec = sw_decompose_general(h, pr.h_sigma, k, offset=offset)
    assert out["distance"] == pytest.approx(
        distance_to_sigma(h, k, offset), rel=0.0, abs=tol)
    assert out["heff_norm"] == pytest.approx(
        np.linalg.norm(dec.h_eff), rel=0.0, abs=tol)


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
])
def test_cli_weyl_scan_model_errors_exit2(tmp_path, capsys, model, message):
    (tmp_path / "plugin.py").write_text(_PLUGIN)
    (tmp_path / "plugin.txt").write_text(_PLUGIN)
    code = main(["weyl-scan", "--model", model.format(dir=tmp_path),
                 "--box", "0.5", "--res", "5"])
    assert code == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("function", ["not_finite", "not_hermitian"])
def test_cli_weyl_scan_numerical_failure_exit4(tmp_path, capsys, function):
    # LinAlgError subclasses ValueError and still gets its own exit code:
    # eigh fails to converge on NaN, and its residual check fails on a
    # non-Hermitian matrix.
    (tmp_path / "plugin.py").write_text(_PLUGIN)
    code = main(["weyl-scan", "--model",
                 f"plugin:{tmp_path}/plugin.py:{function}",
                 "--box", "0.5", "--res", "5"])
    assert code == 4
    assert capsys.readouterr().err.startswith("numerical failure:")


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
])
def test_cli_weyl_scan_box_errors_exit2(capsys, flags, message):
    # A box without interior scans every grid point as a seed (or rejects
    # every root); a non-finite one reaches LAPACK; a grid needs two points
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


@st.composite
def _pooled_arrays(draw):
    """A Hermitian complex matrix (n <= 12), or a float64 or float32 array,
    whose leaves are drawn with random signs from a pool of at most four
    magnitudes, so that the writer's table of texts and of their negated
    twins is shared between leaves; sometimes one leaf is NaN or +-inf."""
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


@settings(max_examples=300, deadline=None)
@given(arrays=st.lists(_pooled_arrays(), min_size=1, max_size=3))
def test_report_json_pooled_magnitudes(arrays):
    report = RunReport("decompose", outputs={str(i): a
                                             for i, a in enumerate(arrays)})
    assert report.to_json() == _reference_json(report)


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
                 "H_eff_window_block": dec.heff_block()},
        diagnostics={"residual": dec.residual, "S_2norm": dec.s_2norm(),
                     "within_r0": dec.within_r0, "s_norm_ok": True})
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
