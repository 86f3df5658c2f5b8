"""The three workloads: seeded inputs, the ops of one round, and how each
op's output is checked.

A round is a fixed list of ops. Every round of a run repeats the same ops on
the same inputs, so that per-round counts repeat exactly and the share of
failed ops is the same in every run. The program receives only the inputs
generated here: matrix files, direction seeds, scan boxes and a plugin file.

- dense: `decompose --json` against a non-diagonal degenerate base,
  `decompose` with text output against a diagonal base, and
  `distance --json`, at n = 64, 128 and 256 (swtransform, spectra,
  matrixio).
- families: `order` through the CLI, `cascade` and
  `estimate_order(method="heff")` through the API on spin-model and hopping
  families of known order (splitting, models, small decompositions).
- weyl: `weyl-scan` of the built-in 3 x 3 model and of a generated 16 x 16
  plugin family with two Weyl points (projection, weyl).
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One call into the program.

    `call` returns the raw output, `check` raises checks.CheckFailed when it
    is wrong. `metric` names the end-to-end timing metric the op feeds.
    `known_fault` describes a program fault that makes this op fail every
    time; such a failure is counted but leaves the run correct.
    """

    kind: str
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]
    metric: str | None = None
    known_fault: str | None = None


def cli_call(argv):
    """Run `degengeo.cli.main(argv)` in-process with stdout captured; the
    wall-time line it writes to stderr is discarded."""
    from degengeo import cli

    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        return code, out.getvalue()

    return call


def write_matrix_file(path, h):
    """The interchange format, written by the benchmark itself: JSON with
    "n" and the row-major [re, im] entries, floats in round-trip repr."""
    h = np.asarray(h, dtype=complex)
    entries = np.stack([h.real.ravel(), h.imag.ravel()], axis=1).tolist()
    Path(path).write_text(json.dumps({"n": h.shape[0], "entries": entries}))


def haar_unitary(n, rng):
    """Haar-distributed unitary: QR of a complex Gaussian matrix with the
    phases of R's diagonal moved into Q."""
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def hermitize(m):
    return (m + m.conj().T) / 2.0


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------

#: (n, k, window) per input. n = 64 is covered by every (k, window) pair so
#: that its metric has four samples per round; the one n = 256 input takes
#: about half of the round.
DENSE_CONFIGS = (
    (64, 2, "ground"), (64, 4, "middle"), (64, 4, "ground"), (64, 2, "middle"),
    (128, 2, "middle"), (128, 4, "ground"), (256, 4, "middle"),
)

#: ||H - H0||_2 as a share of r0, half the gap around the base's window.
DENSE_PERTURBATION_SHARE = 0.25


def dense_spectrum(rng, n, k, offset):
    """Ascending base spectrum: n - k + 1 levels with gaps drawn from
    U(0.5, 1.5), the level at `offset` repeated k times."""
    levels = np.cumsum(rng.uniform(0.5, 1.5, size=n - k + 1))
    levels -= levels[offset]
    spectrum = np.concatenate(
        [levels[:offset], np.full(k, levels[offset]), levels[offset + 1:]]
    )
    gaps = [levels[i + 1] - levels[i]
            for i in (offset - 1, offset) if 0 <= i < len(levels) - 1]
    return spectrum, min(gaps) / 2.0


def _dense_inputs(rng, n, k, offset):
    spectrum, r0 = dense_spectrum(rng, n, k, offset)
    gauge = haar_unitary(n, rng)
    g0 = hermitize((gauge * spectrum) @ gauge.conj().T)
    e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    e = hermitize(e)
    e *= DENSE_PERTURBATION_SHARE * r0 / np.linalg.norm(e, 2)
    win = gauge[:, offset : offset + k]
    return {
        "h": g0 + e, "g0": g0, "p0": hermitize(win @ win.conj().T),
        "hd": np.diag(spectrum).astype(complex) + e,
        "d": np.diag(spectrum).astype(complex),
        "pd": np.diag((np.arange(n) >= offset) & (np.arange(n) < offset + k))
        .astype(complex),
    }


def _decompose_json_check(x, k, offset):
    def check(out):
        doc = checks.parse_json_report(*out, "decompose")
        checks.check_decomposition(checks.decomposition_from_json(doc),
                                   x["h"], x["g0"], x["p0"], k, offset)
    return check


def _decompose_text_check(x, k, offset):
    def check(out):
        sections = checks.parse_text_report(*out)
        checks.check_decomposition(checks.decomposition_from_text(sections),
                                   x["hd"], x["d"], x["pd"], k, offset)
    return check


def _distance_check(x, k, offset):
    def check(out):
        doc = checks.parse_json_report(*out, "distance")
        checks.check_distance(doc, x["h"], k, offset)
    return check


def dense_round(seed, workdir, configs=DENSE_CONFIGS):
    """decompose --json, decompose (text) and distance --json per config."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    for i, (n, k, window) in enumerate(configs):
        offset = 0 if window == "ground" else (n - k) // 2
        x = _dense_inputs(rng, n, k, offset)
        path = {}
        for name in ("h", "g0", "hd", "d"):
            path[name] = str(workdir / f"dense{i}-{name}.json")
            write_matrix_file(path[name], x[name])
        window_args = ["--k", str(k), "--offset", str(offset)]
        label = f"n={n} k={k} {window}"
        ops += [
            Op("decompose_json", label,
               cli_call(["decompose", path["h"], "--base", path["g0"],
                         *window_args, "--json"]),
               _decompose_json_check(x, k, offset),
               metric={64: "decompose_n64_ms", 256: "decompose_n256_ms"}
               .get(n)),
            Op("decompose_text", label,
               cli_call(["decompose", path["hd"], "--base", path["d"],
                         *window_args]),
               _decompose_text_check(x, k, offset)),
            Op("distance_json", label,
               cli_call(["distance", path["h"], *window_args, "--json"]),
               _distance_check(x, k, offset)),
        ]
    return ops


def dense_warmup(workdir):
    return dense_round(0, workdir, configs=((16, 2, "ground"),))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

#: (model, size, expected order). ising(q) splits at order q, ssh(N) at
#: order N and the five-qubit code at order 3. `order` and `heff` run on the
#: families whose fits succeed on every direction tried; cascade also runs
#: on ssh(4), whose order fit fails on a few directions in ten thousand.
ORDER_FAMILIES = (("ising", 3, 3), ("ising", 4, 4), ("ssh", 3, 3),
                  ("five-qubit", 5, 3))
CASCADE_FAMILIES = ORDER_FAMILIES + (("ssh", 4, 4),)

#: Cascade also runs on the order-5 families, on the CLI's default direction
#: (seed 0) so that the input does not depend on the workload seed: the
#: permutation there is wrong on every direction tried.
CASCADE_FAULT = ("splitting._negative_permutation fits degree <= 4 "
                 "polynomials and returns (1, 2) where order-5 branches cross")
FAULTY_CASCADES = (("ising", 5, 5), ("ssh", 5, 5))


def family_direction(model, size, direction_seed):
    """The family t -> H0 + t V that `degengeo order` builds for this model
    and --seed, rebuilt from the public model constructors."""
    import degengeo
    from degengeo import models

    rng = np.random.default_rng(direction_seed)
    if model == "ising":
        h0 = models.ising(size)
        v = models.transverse_perturbation(size, rng.standard_normal(size),
                                           rng.standard_normal(size))
        offset = 0
    elif model == "ssh":
        h0 = models.ssh(size, 0.0, 1.0)
        bonds = 2 * size - 1
        v = models.ssh_hopping_disorder(
            size, rng.standard_normal(bonds) + 1j * rng.standard_normal(bonds))
        offset = size - 1
    else:
        h0 = models.five_qubit_code()
        v = models.one_local(5, rng.standard_normal(15))
        offset = 0
    return degengeo.family(lambda t: h0 + t * v, 2, offset=offset)


def _order_argv(model, size, direction_seed):
    argv = ["order", model]
    if model == "ising":
        argv += ["--qubits", str(size)]
    elif model == "ssh":
        argv += ["--cells", str(size)]
    return argv + ["--seed", str(direction_seed), "--json"]


def _order_check(order):
    def check(out):
        checks.check_order(checks.parse_json_report(*out, "order"), order)
    return check


def _cascade_op(model, size, order, direction_seed, known_fault=None):
    import degengeo

    fam = family_direction(model, size, direction_seed)
    return Op("cascade", f"{model}({size})",
              lambda: degengeo.cascade(fam),
              lambda result: checks.check_cascade(result, order),
              metric="cascade_ms", known_fault=known_fault)


def _heff_op(model, size, order, direction_seed):
    import degengeo

    fam = family_direction(model, size, direction_seed)
    return Op("heff", f"{model}({size})",
              lambda: degengeo.estimate_order(fam, method="heff"),
              lambda est: checks.check_heff_order(est, order))


def families_round(seed, workdir, families=CASCADE_FAMILIES):
    """Orders through the CLI, then cascades, then heff orders through the
    API. One seeded direction per family serves all three."""
    rng = np.random.default_rng([seed, 2])
    seeded = [(model, size, order, int(s)) for (model, size, order), s in
              zip(families, rng.integers(0, 2**31 - 1, size=len(families)))]
    ordered = [f for f in seeded if f[:3] in ORDER_FAMILIES]
    ops = [Op("order", f"{model}({size})",
              cli_call(_order_argv(model, size, s)), _order_check(order),
              metric="order_ms")
           for model, size, order, s in ordered]
    ops += [_cascade_op(model, size, order, s)
            for model, size, order, s in seeded]
    ops += [_cascade_op(model, size, order, 0, known_fault=CASCADE_FAULT)
            for model, size, order in FAULTY_CASCADES]
    ops += [_heff_op(model, size, order, s)
            for model, size, order, s in ordered]
    return ops


def families_warmup(workdir):
    return [op for op in families_round(0, workdir, ORDER_FAMILIES[:1])
            if op.known_fault is None]


# ---------------------------------------------------------------------------
# weyl
# ---------------------------------------------------------------------------

#: Half-width of the cube around a seeded centre near the origin.
BUILTIN_BOX = 0.5
#: The plugin family's Weyl points sit at (0, 0, +-PLUGIN_M).
PLUGIN_M = 0.25
PLUGIN_N = 16
#: Boxes for the plugin: one around both points, one with x, y > 0.1 that
#: holds none. In both, |d(p)| < 0.9 stays below the fixed levels >= 1.
PLUGIN_BOTH = ((0.0, 0.0, 0.0), 0.4)
PLUGIN_EMPTY = ((0.3, 0.3, 0.0), 0.15)
#: Rotation angle per unit parameter that mixes the window into the rest.
PLUGIN_MIXING = 0.3
#: Grid resolution of the plugin scans: 15^3 = 3375 grid points of 16 x 16
#: each (about 0.7 s; 2 s at res 21), so that every run of every workload
#: can measure scan_n16_ms three times and still stay under 50 s. Both
#: scans found exactly the expected points on seeds 0-39.
PLUGIN_RES = 15

_PLUGIN_SOURCE = '''"""Two-point Weyl family, generated by bench/workloads.py.

H(p) = W(p) blockdiag(d(p) . sigma, LEVELS) W(p)^dagger with
d = (x, y, z^2 - M^2) and W(p) = W0 R(p), R(p) two plane rotations that mix
the window with the rest. Its twofold ground degeneracies are exactly
(0, 0, -M) with charge -1 and (0, 0, +M) with charge +1.
"""

import numpy as np

M = {m!r}
MIXING = {mixing!r}
LEVELS = np.array({levels!r})
W0 = np.array({w0!r}, dtype=float).view(complex)[..., 0]


def _rotate(w, i, j, angle):
    """Right-multiply w in place by the rotation of columns i and j."""
    c, s = np.cos(angle), np.sin(angle)
    wi, wj = w[:, i].copy(), w[:, j]
    w[:, i] = c * wi + s * wj
    w[:, j] = c * wj - s * wi


def family(p):
    x, y, z = p
    n = len(LEVELS) + 2
    d = np.zeros((n, n), dtype=complex)
    d[0, 0], d[1, 1] = z * z - M * M, M * M - z * z
    d[0, 1], d[1, 0] = x - 1j * y, x + 1j * y
    d[2:, 2:] = np.diag(LEVELS)
    w = W0.copy()
    _rotate(w, 0, 2, MIXING * (x + z))
    _rotate(w, 1, 3, MIXING * (y - z))
    h = w @ d @ w.conj().T
    return (h + h.conj().T) / 2.0
'''


def write_plugin(path, rng):
    w0 = haar_unitary(PLUGIN_N, rng)
    levels = 1.0 + np.sort(rng.uniform(0.0, 2.0, size=PLUGIN_N - 2))
    pairs = np.stack([w0.real, w0.imag], axis=-1).tolist()
    Path(path).write_text(_PLUGIN_SOURCE.format(
        m=PLUGIN_M, mixing=PLUGIN_MIXING, levels=levels.tolist(), w0=pairs))


def _scan_argv(model, center, box, res):
    # Fixed-point text: argparse takes "-1e-05" for an option, not a number.
    return ["weyl-scan", "--model", model, "--box", f"{box:.6f}",
            "--center", *(f"{c:.6f}" for c in center),
            "--res", str(res), "--json"]


def _offset(rng, low, high):
    """Three coordinates of random sign with magnitudes in [low, high),
    rounded to 1e-6, so that they are never 0 or a multiple of 0.05."""
    return np.round(rng.choice([-1.0, 1.0], size=3)
                    * rng.uniform(low, high, size=3), 6)


def _scan_check(expected):
    def check(out):
        checks.check_weyl_points(
            checks.parse_json_report(*out, "weyl-scan"), expected)
    return check


def weyl_round(seed, workdir, builtin=((11, 4), (21, 1)),
               plugin_res=PLUGIN_RES):
    """Built-in scans: (res, count) pairs, each scan around its own seeded
    centre within 0.045 of the origin, so the origin is inside the box and
    off the grid. Plugin scans: both points, then the empty box."""
    rng = np.random.default_rng([seed, 3])
    plugin = workdir / "plugin.py"
    write_plugin(plugin, rng)
    model = f"plugin:{plugin}:family"
    ops = []
    origin = [((0.0, 0.0, 0.0), 1)]
    for res, count in builtin:
        for _ in range(count):
            center = _offset(rng, 0.005, 0.045)
            ops.append(Op(f"scan_res{res}", f"centre {center.tolist()}",
                          cli_call(_scan_argv("weyl-example", center,
                                              BUILTIN_BOX, res)),
                          _scan_check(origin), metric=f"scan_res{res}_ms"))
    both = [((0.0, 0.0, -PLUGIN_M), -1), ((0.0, 0.0, PLUGIN_M), 1)]
    for (center, box), expected, kind, metric in (
            (PLUGIN_BOTH, both, "scan_n16", "scan_n16_ms"),
            (PLUGIN_EMPTY, [], "scan_n16_empty", None)):
        center = np.asarray(center) + _offset(rng, 0.0, 0.03)
        ops.append(Op(kind, f"centre {center.tolist()}",
                      cli_call(_scan_argv(model, center, box, plugin_res)),
                      _scan_check(expected), metric=metric))
    return ops


def weyl_warmup(workdir):
    # At res 5 the two-point box is too coarse to seed both points, so the
    # warm-up scans the plugin's empty box only.
    return [op for op in weyl_round(0, workdir, builtin=((5, 1),),
                                    plugin_res=5) if op.kind != "scan_n16"]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """`round(seed, workdir)` builds the ops of one round, `warmup(workdir)`
    a few small ops; `metrics` are the timing metrics its ops feed."""

    round: Callable
    warmup: Callable
    metrics: tuple
    #: Metrics taken as the mean over the round's ops, median over rounds.
    round_mean_metrics: tuple = ()


WORKLOADS = {
    "dense": Workload(dense_round, dense_warmup,
                      ("decompose_n64_ms", "decompose_n256_ms")),
    "families": Workload(families_round, families_warmup,
                         ("order_ms", "cascade_ms"),
                         round_mean_metrics=("order_ms", "cascade_ms")),
    "weyl": Workload(weyl_round, weyl_warmup,
                     ("scan_res11_ms", "scan_res21_ms", "scan_n16_ms")),
}
