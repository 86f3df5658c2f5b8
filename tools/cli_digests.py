"""Digests of a fixed list of `degengeo` CLI runs, for byte-identity checks.

    python3 tools/cli_digests.py [CHECKOUT]

Imports `degengeo` from CHECKOUT/src (default: the checkout this file is
in), writes seeded input files to a temporary directory, and runs each CLI
call in-process from there: every subcommand's --help, every model, and the
analysis commands on seeded inputs. The first line names the environment:
the Python version (argparse's --help layout changes between versions), the
numpy version, and the BLAS and LAPACK libraries numpy was built against.
Then one line per call: the SHA-256 of stdout, the exit code (or "raised
Type: message" for an exception that escapes `main`), the argv, and the
first stderr line that is not the wall time.
Two checkouts give the same CLI bytes on these calls when

    diff <(python3 tools/cli_digests.py OLD) <(python3 tools/cli_digests.py NEW)

is empty. The inputs are built with numpy and written by this script, not
by `degengeo.matrixio`, so both checkouts read the same files.

`tools/cli_digests.txt` holds the expected lines, and a tier-1 test compares
them with a run of this checkout. A change that moves a line on purpose, or
a new environment, regenerates it with one redirect:

    python3 tools/cli_digests.py > tools/cli_digests.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

# One BLAS thread before numpy loads, so that results do not depend on how
# the work is split between threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# argparse wraps --help text at the terminal width; pin it.
os.environ["COLUMNS"] = "80"

import numpy as np  # noqa: E402

#: Seed of every generated input.
SEED = 20240714


def _document(h):
    """Interchange-format text of h: n and row-major [re, im] pairs, each
    float written by repr (which round-trips a double)."""
    h = np.asarray(h, dtype=complex)
    pairs = ", ".join(f"[{z.real!r}, {z.imag!r}]" for z in h.ravel().tolist())
    return f'{{"n": {h.shape[0]}, "entries": [{pairs}]}}'


def _write(name, h):
    Path(name).write_text(_document(h) + "\n", encoding="utf-8")
    return name


def _random_hermitian(n, rng):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def _random_unitary(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n))
                        + 1j * rng.standard_normal((n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _degenerate_base(n, k, offset):
    """Diagonal levels 0, 1, 2, ... with the window collapsed onto one."""
    levels = np.arange(n, dtype=float)
    levels[offset : offset + k] = offset
    levels[offset + k :] -= k - 1
    return np.diag(levels).astype(complex)


def _write_inputs(rng):
    """Write the input files; returns the decompose/distance/project cases
    as (matrix file, diagonal base, rotated base, k, offset)."""
    cases = []
    for n, k, offset in ((8, 2, 0), (8, 3, 3), (16, 2, 0), (16, 4, 6),
                         (64, 3, 0), (64, 3, 30)):
        base = _degenerate_base(n, k, offset)
        u = _random_unitary(n, rng)
        h = base + 0.05 * _random_hermitian(n, rng)
        tag = f"n{n}k{k}o{offset}"
        cases.append((_write(f"h_{tag}.json", h),
                      _write(f"base_{tag}.json", base),
                      _write(f"ubase_{tag}.json", u @ base @ u.conj().T),
                      k, offset))
        _write(f"uh_{tag}.json", u @ h @ u.conj().T)
    # Diagonal n = 8 bases for the diagonal-base test of `decompose --base`:
    # one not ascending, and two with off-diagonal noise, relative to
    # max(1, max|entry|), below (1e-13) and above (1e-9) its tolerance 1e-12.
    base = _degenerate_base(8, 2, 0)
    _write("desc_base.json", base[::-1, ::-1])
    for tag, rel in (("13", 1e-13), ("9", 1e-9)):
        noisy = base.copy()
        noisy[0, 7] = noisy[7, 0] = rel * np.max(np.abs(base))
        _write(f"noise{tag}_base.json", noisy)
    # A block-diagonal n = 3 pair: its decompose --json report prints 0.0
    # and -0.0 leaves, and 0.05 with both signs.
    _write("blockdiag.json", np.diag([0.05, -0.05, 1.1]).astype(complex))
    _write("blockdiag_base.json", np.diag([0.0, 0.0, 1.0]).astype(complex))
    # Quadratic splitting of the ground pair, tabulated on t = 2^-3..2^-10.
    v = _random_unitary(4, rng)
    ts = [2.0 ** -e for e in range(3, 11)]

    def at(t):
        return (v * np.array([t * t, -t * t, 1.0 + t, 2.0 - t])) @ v.conj().T

    Path("ladder.json").write_text(
        f'{{"k": 2, "offset": 0, "ts": [{", ".join(map(repr, ts))}], '
        f'"matrices": [{", ".join(_document(at(t)) for t in ts)}], '
        f'"base": {_document(at(0.0))}}}\n', encoding="utf-8")
    # A weyl-scan plugin whose matrices the eigensolver cannot diagonalize.
    Path("nan_plugin.py").write_text(
        "import numpy as np\n\n\ndef nan_model(p):\n"
        "    return np.full((3, 3), np.nan)\n", encoding="utf-8")
    # The built-in model as a plugin: its scans take central differences
    # where the built-in model's take exact Jacobians.
    Path("weyl_example_plugin.py").write_text(
        "from degengeo.models import weyl_example\n\n\n"
        "def weyl_example_plugin(p):\n    return weyl_example(*p)\n",
        encoding="utf-8")
    # A 16 x 16 one: window d . sigma, d = (x, y, z^2 - 1/16), next to 14
    # fixed levels, in a basis that turns with x + z. Its Weyl points are
    # (0, 0, -1/4) and (0, 0, 1/4).
    w = _random_unitary(16, rng)
    levels = 1.0 + np.sort(rng.uniform(0.0, 2.0, size=14))
    two_points = f"""import numpy as np

W0 = np.array({w.real.tolist()!r}) + 1j * np.array({w.imag.tolist()!r})
LEVELS = {levels.tolist()!r}


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
    Path("two_point_plugin.py").write_text(two_points, encoding="utf-8")
    # Window (x^3 - 0.001) sigma_z + y sigma_x + z sigma_y next to a level
    # at 1 that is NaN past x = 0.5: from the field's one minimum on the 0.3
    # box, the origin, Newton's step and each halving of it land past 0.5,
    # so the line search gives the seed up.
    Path("nan_past_plugin.py").write_text("""import numpy as np


def nan_past_half(p):
    x, y, z = p
    d = x ** 3 - 0.001
    h = np.array([[d, y - 1j * z, 0.0], [y + 1j * z, -d, 0.0],
                  [0.0, 0.0, 1.0]])
    if x > 0.5:
        h[2, 2] = np.nan
    return h
""", encoding="utf-8")
    # The same family failing past x = 0.15, that is from the sixth chunk of
    # three grid lines of a res-5 scan of the 0.4 box on: non-Hermitian
    # matrices, an evaluator that raises, or both, raising from x = 0.3 on
    # (the chunk after the first non-Hermitian one).
    Path("late_fault_plugin.py").write_text(two_points + """

def late_asymmetry(p):
    h = two_points(p)
    if p[0] > 0.15:
        h[0, 5] += 0.5
    return h


def late_error(p):
    if p[0] > 0.15:
        raise ValueError(f"no matrix at x = {p[0]:.2f}")
    return two_points(p)


def asymmetry_then_error(p):
    if p[0] > 0.3:
        raise ValueError(f"no matrix at x = {p[0]:.2f}")
    return late_asymmetry(p)
""", encoding="utf-8")
    # The same family, refusing a call made while another is under way: the
    # scan field calls an evaluator one call at a time, on either thread.
    Path("exclusive_plugin.py").write_text(two_points + """

import threading

_BUSY = threading.Lock()


def exclusive(p):
    if not _BUSY.acquire(blocking=False):
        raise RuntimeError("overlapping evaluator calls")
    try:
        return two_points(p)
    finally:
        _BUSY.release()
""", encoding="utf-8")
    # A weyl-scan plugin that raises an exception other than ValueError.
    Path("boom_plugin.py").write_text(
        'def boom(p):\n    raise RuntimeError("no matrix")\n',
        encoding="utf-8")
    # A weyl-scan plugin module that does not parse.
    Path("syntax_plugin.py").write_text("def weyl(p:\n", encoding="utf-8")
    # Finite entries above half the largest double, where (A + A^dagger)/2
    # overflows.
    _write("half_max.json", np.diag([0.0, 1.6e308, 1.7e308]))
    # Finite entries up to 2e200, whose sums of squares overflow a double.
    huge = np.diag([0.0, 0.0, 1.0, 2.0]) * 1e200
    huge[0, 2] = huge[2, 0] = 1e190
    huge[1, 3] = huge[3, 1] = 3e199
    _write("huge.json", huge)
    # The base of huge.json, at r0 = 5e199 from it in the 2-norm, though
    # ||H - H0||_F^2 overflows.
    _write("hbase.json", np.diag([0.0, 0.0, 1.0, 2.0]) * 1e200)
    # A window whose trace sum passes the largest double, on the diagonal
    # and in a random basis.
    levels = np.diag([0.0, 8e307, 8.5e307, 8.9e307])
    u = _random_unitary(4, rng)
    _write("wide.json", levels)
    _write("uwide.json", u @ levels @ u.conj().T)
    # One matrix in three layouts: the canonical one, which the reader takes
    # in one flat pass, and two that go to the general JSON decoder. Their
    # reports differ only in the file name they echo.
    doc = json.loads(_document(_degenerate_base(16, 2, 0)
                               + 0.05 * _random_hermitian(16, rng)))
    for layout, options in (("canonical", {}), ("indent", {"indent": 1}),
                            ("compact", {"separators": (",", ":")})):
        Path(f"layout_{layout}.json").write_text(json.dumps(doc, **options),
                                                 encoding="utf-8")
    return cases


def _calls(cases):
    calls = [[command, "--help"] for command in
             ("decompose", "project", "distance", "order", "weyl-scan",
              "model")]
    for mfile, base, ubase, k, offset in cases:
        window = ["--k", str(k), "--offset", str(offset)]
        for fmt in ([], ["--json"]):
            calls += [["decompose", mfile, "--base", base, *window, *fmt],
                      ["decompose", "u" + mfile, "--base", ubase, *window,
                       *fmt],
                      ["decompose", mfile, *window, *fmt],
                      ["distance", mfile, *window, *fmt],
                      ["project", mfile, *window, *fmt]]
    calls += [["decompose", "absent.json", "--k", "2"],
              ["decompose", cases[0][0], "--base", cases[2][1], "--k", "2"],
              ["decompose", cases[0][0], "--base", "desc_base.json", "--k",
               "2"]]
    calls += [["decompose", cases[0][0], "--base", f"noise{tag}_base.json",
               "--k", "2", "--json"] for tag in ("13", "9")]
    calls.append(["decompose", "blockdiag.json", "--base",
                  "blockdiag_base.json", "--k", "2", "--json"])
    # The same pair as a text report, whose H_eff cells print "-0+0i".
    calls.append(["decompose", "blockdiag.json", "--base",
                  "blockdiag_base.json", "--k", "2"])
    for seed in ("0", "1", "2"):
        calls += [["order", "ising", "--qubits", q, "--seed", seed, "--json"]
                  for q in ("3", "4", "5")]
        calls += [["order", "ssh", "--cells", c, "--window", w, "--seed",
                   seed, "--json"]
                  for c in ("3", "4") for w in ("ground", "middle")]
        calls.append(["order", "five-qubit", "--seed", seed, "--json"])
    calls += [["order", "ssh", "--cells", "5", "--window", "ground", "--json"],
              ["order", "ising", "--qubits", "3", "--seed", "5"],
              ["order", "file", "--ladder-file", "ladder.json"],
              ["order", "file", "--ladder-file", "ladder.json", "--json"],
              ["order", "ising", "--qubits", "6", "--seed", "0"],
              ["order", "ising", "--ladder-start", "10", "--ladder-stop", "3"],
              ["order", "ising", "--ladder-start", "3", "--ladder-stop", "5"],
              # A negative seed is refused while the flags are parsed.
              ["order", "ising", "--seed", "-1"]]
    for res in ("9", "11", "21"):
        calls += [["weyl-scan", "--box", "0.5", "--res", res, "--json"],
                  ["weyl-scan", "--box", "0.3", "--center", "0.1", "-0.05",
                   "0.02", "--res", res, "--json"]]
    # Built-in fields of one chunk (res 5, no worker thread) and of eight
    # (res 15: 30 grid lines a chunk, 15 in the last).
    calls += [["weyl-scan", "--box", "0.5", "--res", "5", "--json"],
              ["weyl-scan", "--box", "0.3", "--center", "0.1", "-0.05",
               "0.02", "--res", "15", "--json"]]
    calls += [["weyl-scan", "--box", "0.5", "--res", "11"],
              ["weyl-scan", "--box", "0", "--res", "5"],
              ["weyl-scan", "--box", "-0.5", "--res", "5"],
              ["weyl-scan", "--box", "0.5", "--center", "nan", "0", "0",
               "--res", "5"],
              ["weyl-scan", "--box", "0.5", "--res", "1"],
              # Finite flags whose box edges overflow, and finite edges at
              # which the built-in model overflows.
              ["weyl-scan", "--box", "1e308", "--center", "1e308", "0", "0",
               "--res", "3"],
              ["weyl-scan", "--box", "1e200", "--res", "3"],
              # Finite fields whose sums of squares overflow a double.
              ["weyl-scan", "--box", "1e60", "--res", "3"],
              # Refused since the cap on --res; a checkout without the cap
              # scans the res-102 grid instead, so this line moves there.
              ["weyl-scan", "--box", "0.5", "--res", "102"],
              ["weyl-scan", "--model", "plugin:nan_plugin.py:nan_model",
               "--box", "0.5", "--res", "5"],
              ["weyl-scan", "--model", "plugin:two_point_plugin.py:two_points",
               "--box", "0.4", "--res", "11", "--json"],
              ["weyl-scan", "--model",
               "plugin:late_fault_plugin.py:late_asymmetry", "--box", "0.4",
               "--res", "5"],
              ["weyl-scan", "--model",
               "plugin:late_fault_plugin.py:late_asymmetry", "--box", "0.4",
               "--res", "11", "--json"],
              ["weyl-scan", "--model", "plugin:late_fault_plugin.py:late_error",
               "--box", "0.4", "--res", "5"],
              ["weyl-scan", "--model",
               "plugin:late_fault_plugin.py:asymmetry_then_error", "--box",
               "0.4", "--res", "5"],
              ["weyl-scan", "--model",
               "plugin:weyl_example_plugin.py:weyl_example_plugin", "--box",
               "0.3", "--center", "0.1", "-0.05", "0.02", "--res", "11",
               "--json"]]
    calls += [["model", "ssh", "--cells", "3", "--v", "0.25", "--w", "1.5"],
              ["model", "ssh", "--cells", "3", "--v", "-0.25", "--w", "-1.5"],
              ["model", "ising", "--qubits", "3"],
              ["model", "transverse", "--qubits", "3", "--seed", "4"],
              ["model", "transverse", "--seed", "-1"],
              ["model", "ssh-disorder", "--cells", "3", "--seed", "4"],
              ["model", "one-local", "--qubits", "2", "--seed", "4"],
              ["model", "five-qubit"],
              ["model", "one-local", "--qubits", "5", "--seed", "4"],
              # The Pauli sums at the qubit cap.
              ["model", "ising", "--qubits", "6"],
              ["model", "transverse", "--qubits", "6", "--seed", "4"],
              ["model", "one-local", "--qubits", "6", "--seed", "4"],
              ["model", "example-3x3", "--v3", "0.1", "--x", "0.2", "--w3",
               "0.3"],
              # Negative zero parts, written "-0.0".
              ["model", "example-3x3", "--v3", "-0.0", "--z", "-0.0"],
              # Refused: a NaN part, and a chain past the cell cap.
              ["model", "example-3x3", "--x", "nan"],
              ["model", "ssh", "--cells", "129"],
              ["model", "example-pr", "--p", "0.3", "--r", "0.1"],
              ["model", "weyl-example", "--x", "0.1", "--y", "-0.2"],
              ["model", "weyl-example"]]
    calls += [[command, "huge.json", "--k", "2", "--json"]
              for command in ("decompose", "distance", "project")]
    # Text cells near 1e200.
    calls.append(["project", "huge.json", "--k", "2"])
    # Ladder exponents whose 2^-e overflows or underflows to 0.
    calls += [["order", "ising", "--ladder-start", "-1100", "--ladder-stop",
               "5"],
              ["order", "ising", "--ladder-start", "1100", "--ladder-stop",
               "1110"]]
    # Ladders at the ends of the accepted range: a subnormal difference step
    # for H'(0), and window sums past the largest double.
    calls += [["order", "ising", "--ladder-start", "1060", "--ladder-stop",
               "1074"],
              ["order", "ising", "--ladder-start", "-1023", "--ladder-stop",
               "-1019"]]
    # An n = 16 field of 121 chunks whose evaluator refuses overlapping
    # calls.
    calls.append(["weyl-scan", "--model",
                  "plugin:exclusive_plugin.py:exclusive", "--box", "0.4",
                  "--res", "11", "--json"])
    calls.append(["weyl-scan", "--model", "plugin:boom_plugin.py:boom",
                  "--box", "0.5", "--res", "5"])
    calls += [[command, "half_max.json", "--k", "2", "--offset", "1"]
              for command in ("decompose", "distance", "project")]
    calls.append(["decompose", "huge.json", "--base", "hbase.json", "--k", "2",
                  "--json"])
    calls += [[command, mfile, "--k", "3", "--offset", "1", "--json"]
              for mfile in ("wide.json", "uwide.json")
              for command in ("decompose", "distance", "project")]
    # A window of the whole spectrum.
    calls.append(["distance", "blockdiag.json", "--k", "3", "--json"])
    calls += [[command, f"layout_{layout}.json", "--k", "2", "--json"]
              for layout in ("canonical", "indent", "compact")
              for command in ("decompose", "distance")]
    calls.append(["weyl-scan", "--model",
                  "plugin:nan_past_plugin.py:nan_past_half", "--box", "0.3",
                  "--res", "5", "--json"])
    # Refused: an output file in a directory that does not exist, and a
    # plugin module that raises while it is imported.
    calls += [["model", "ising", "-o", "missing/ising.json"],
              ["weyl-scan", "--model", "plugin:syntax_plugin.py:weyl",
               "--box", "0.5", "--res", "5"]]
    return calls


def _run(main, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse after --help
            code = exc.code
        except Exception as exc:  # escaped main: a fault of the checkout
            code = f"raised {type(exc).__name__}: {exc}"
    lines = [line for line in err.getvalue().splitlines()
             if not line.startswith("wall time:")]
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    return f"{digest} {code} {' '.join(argv)} | {lines[0] if lines else ''}"


def environment():
    """The header line: Python, numpy, and numpy's BLAS and LAPACK."""
    deps = np.show_config(mode="dicts")["Build Dependencies"]
    return (f"# python {platform.python_version()}, numpy {np.__version__}, "
            + ", ".join(f"{lib} {deps[lib]['name']} {deps[lib]['version']}"
                        for lib in ("blas", "lapack")))


def main():
    checkout = Path(sys.argv[1] if len(sys.argv) > 1
                    else Path(__file__).resolve().parent.parent).resolve()
    sys.path.insert(0, str(checkout / "src"))
    from degengeo import cli

    if not Path(cli.__file__).resolve().is_relative_to(checkout):
        sys.exit(f"degengeo was not imported from {checkout}/src")
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            calls = _calls(_write_inputs(np.random.default_rng(SEED)))
            print(environment())
            for argv in calls:
                print(_run(cli.main, argv))
        finally:
            os.chdir(home)


if __name__ == "__main__":
    main()
