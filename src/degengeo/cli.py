"""Command-line interface.

Subcommands: decompose, project, distance, order, weyl-scan, model. Each
command but `model` (which prints a matrix) returns a `RunReport`, which
`main` writes to stdout, line-oriented by default or as versioned JSON with
--json; wall time goes to stderr, last, so that reports stay byte-identical
for identical inputs and seed. Exit codes: 0 success, 2 parse error (also
an input that cannot be read, an output file that cannot be written and a
`weyl-scan` plugin module that cannot be loaded), 3 precondition violation
(also a `weyl-scan` plugin that raises), 4 numerical failure, 5
inconclusive order fit. `model` and `order` build models from one table:
`order F --seed S` moves along the matrix that `model D --seed S` prints,
where (F, D) is (ising, transverse), (ssh, ssh-disorder) or (five-qubit,
one-local --qubits 5).
"""

from __future__ import annotations

import argparse
import functools
import importlib.util
import sys
import time

import numpy as np

from .errors import DegenError, InconclusiveFit
from .hermitian import frobenius_norm
from .matrixio import (
    RunReport,
    format_float,
    matrix_text,
    read_ladder,
    read_matrix,
    write_matrix,
)
from .models import (MAX_CELLS, MAX_QUBITS, WEYL_EXAMPLE_TERMS, _check_count,
                     example_3x3, example_pr, five_qubit_code, ising,
                     one_local, ssh, ssh_hopping_disorder,
                     transverse_perturbation, weyl_example)
from .projection import collapse_projection
from .spectra import eigh, unseparated_edge, window_distance, window_spread
from .splitting import (default_ladder, estimate_all_orders, family,
                        linear_family)
from .swtransform import (Anchor, is_diagonal_base, sw_decompose,
                          sw_decompose_general)
from .weyl import param_family, polynomial_family, scan_grid

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4
EXIT_INCONCLUSIVE = 5

#: Largest `weyl-scan --res`: the field's grid holds res^3 points (three
#: doubles each) before it is chunked, and a res-101 built-in scan takes
#: seconds, while res 1000 would ask for 24 GB.
MAX_SCAN_RES = 101


def _read_or_fail(path, read=read_matrix, kind="matrix"):
    """read(path), with unreadable and malformed files as parse errors."""
    try:
        return read(path)
    except OSError as exc:
        raise _CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # json.JSONDecodeError included
        raise _CliError(EXIT_PARSE, f"bad {kind} file {path}: {exc}") from exc


class _CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# decompose / project / distance
# ---------------------------------------------------------------------------


def _cmd_decompose(args):
    h = _read_or_fail(args.matrix)
    if args.base == "auto":
        # Against its own collapse: one eigendecomposition of H serves the
        # anchor and the decomposition.
        dec = Anchor.at(h, args.k, args.offset).decompose(h)
    else:
        base = _read_or_fail(args.base)
        decompose = (sw_decompose if is_diagonal_base(base)
                     else sw_decompose_general)
        dec = decompose(h, base, args.k, offset=args.offset)
    s_norm = dec.max_angle
    return RunReport(
        command="decompose",
        inputs={"matrix": args.matrix, "base": args.base, "k": args.k,
                "offset": args.offset},
        outputs={
            "S": dec.s,
            "B": dec.b,
            "c": dec.c,
            "H_eff": dec.h_eff,
            "H_eff_window_block": dec.heff_window,
        },
        diagnostics={
            "residual": dec.residual,
            "S_2norm": s_norm,
            "within_r0": dec.within_r0,
            # Always true on a returned decomposition; kept as a report key.
            "s_norm_ok": s_norm < np.pi / 2.0,
        },
    )


def _cmd_project(args):
    h = _read_or_fail(args.matrix)
    pr = collapse_projection(h, args.k, offset=args.offset)
    return RunReport(
        command="project",
        inputs={"matrix": args.matrix, "k": args.k, "offset": args.offset},
        outputs={
            "H_sigma": pr.h_sigma,
            "distance": pr.distance,
            "std_dev": pr.std_dev,
            "mean_lambda": pr.mean_lambda,
            "unique": pr.unique,
        },
    )


def _cmd_distance(args):
    h = _read_or_fail(args.matrix)
    spec = eigh(h)
    vals = spec.eigenvalues
    unique = unseparated_edge(vals, args.k, args.offset) is None
    outputs = {
        "distance": window_distance(vals, args.k, args.offset),
        "sqrt_k_times_std_dev":
            np.sqrt(args.k) * window_spread(vals, args.k, args.offset)[2],
        "unique": unique,
    }
    diagnostics = {}
    if unique and args.k < len(vals):
        # Cross-check through the decomposition of H against its collapse,
        # from the same eigendecomposition; a window of the whole spectrum
        # has no complement to decompose against.
        anchor = Anchor.from_spectrum(spec, args.k, args.offset, matrix=h)
        dec = anchor.decompose(h)
        outputs["heff_norm"] = frobenius_norm(dec.h_eff)
        diagnostics["heff_residual"] = dec.residual
    return RunReport(
        command="distance",
        inputs={"matrix": args.matrix, "k": args.k, "offset": args.offset},
        outputs=outputs,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# order
# ---------------------------------------------------------------------------


#: `order` families: the H(0) and direction models, the flags the report
#: echoes, the flags the family fixes, and the window (k, offset) of H(0).
_ORDER_FAMILIES = {
    "ising": ("ising", "transverse", ("qubits",), {}, lambda a: (2, 0)),
    "ssh": ("ssh", "ssh-disorder", ("cells", "v", "w", "window"), {},
            # ssh(N, 0, w): (N-1)-fold lowest level, twofold zero level above
            lambda a: ((a.cells - 1, 0) if a.window == "ground"
                       else (2, a.cells - 1))),
    "five-qubit": ("five-qubit", "one-local", (), {"qubits": 5},
                   lambda a: (2, 0)),
}


def _order_family(args):
    if args.family == "file":
        if not args.ladder_file:
            raise _CliError(EXIT_PARSE, "--ladder-file is required with "
                                        "'order file'")
        k, offset, ts, mats, base = _read_or_fail(args.ladder_file,
                                                  read_ladder, "ladder")
        table = {0.0: base, **dict(zip(ts, mats))}

        def evaluator(t):
            if t not in table:
                raise KeyError(f"t={t} is not on the declared ladder")
            return table[t]

        fam = family(evaluator, k, offset=offset)
        ladder = [t for t in ts if t > 0.0]
        return fam, ladder, {"ladder_file": args.ladder_file}
    base, direction, echoed, fixed, window = _ORDER_FAMILIES[args.family]
    flags = argparse.Namespace(**{**vars(args), **fixed})
    rng = np.random.default_rng(args.seed)
    # H(0) is built first, so the direction takes the same draws as `model`.
    h0, h1 = (_MODELS[name](flags, rng) for name in (base, direction))
    k, offset = window(flags)
    meta = {"model": args.family, **{f: getattr(args, f) for f in echoed}}
    fam = linear_family(h0, h1, k, offset=offset)
    return fam, default_ladder(args.ladder_start, args.ladder_stop), meta


def _cmd_order(args):
    fam, ladder, meta = _order_family(args)
    ladder = np.sort(np.asarray(ladder))
    if len(ladder) < 4:
        raise _CliError(EXIT_PRECONDITION, f"the ladder needs at least 4 "
                        f"positive ts, got {len(ladder)}")
    fits, agreement = estimate_all_orders(fam, ladder)
    estimates = {
        method: {
            "r": "inf" if est.r == float("inf") else int(est.r),
            "slope": est.slope,
            "slope_dev": est.slope_dev,
        }
        for method, est in fits.items()
    }
    return RunReport(
        command="order",
        inputs={**meta, "seed": args.seed,
                "ladder": [format_float(t) for t in ladder]},
        outputs={"estimates": estimates,
                 "agreement": agreement,
                 "order": estimates["stddev"]["r"] if agreement else None},
        diagnostics={"k": fam.k, "offset": fam.offset},
    )


# ---------------------------------------------------------------------------
# weyl-scan
# ---------------------------------------------------------------------------


def _load_plugin(spec):
    path, _, attr = spec.partition(":")
    if not attr:
        raise _CliError(EXIT_PARSE, "plugin must be given as path.py:function")
    module_spec = importlib.util.spec_from_file_location("degengeo_plugin",
                                                         path)
    if module_spec is None or module_spec.loader is None:
        raise _CliError(EXIT_PARSE, f"cannot load plugin module {path}")
    module = importlib.util.module_from_spec(module_spec)
    try:
        module_spec.loader.exec_module(module)
    except OSError as exc:
        raise _CliError(EXIT_PARSE, f"cannot load plugin module {path}: "
                                    f"{exc}") from exc
    except Exception as exc:  # the plugin's own code raised at import
        raise _CliError(EXIT_PARSE, f"cannot load plugin module {path}: "
                                    f"{type(exc).__name__}: {exc}") from exc
    try:
        return functools.partial(_call_plugin, getattr(module, attr), spec)
    except AttributeError as exc:
        raise _CliError(EXIT_PARSE, f"plugin {path} has no {attr}") from exc


def _call_plugin(fn, spec, p):
    """fn(p); any other exception than a ValueError or DegenError exits 3."""
    try:
        return fn(p)
    except (ValueError, DegenError):  # LinAlgError among them
        raise
    except Exception as exc:
        raise _CliError(EXIT_PRECONDITION, f"plugin {spec} raised "
                        f"{type(exc).__name__}: {exc}") from exc


def _cmd_weyl_scan(args):
    if not 0.0 < args.box < np.inf:
        raise _CliError(EXIT_PARSE, f"--box must be positive and finite, "
                                    f"got {args.box}")
    if not np.all(np.isfinite(args.center)):
        raise _CliError(EXIT_PARSE, f"--center must be finite, got "
                                    f"{args.center}")
    if args.res < 2:
        raise _CliError(EXIT_PARSE, f"--res must be at least 2, got "
                                    f"{args.res}")
    if args.res > MAX_SCAN_RES:
        raise _CliError(EXIT_PARSE, f"--res must be at most {MAX_SCAN_RES}, "
                                    f"got {args.res}")
    if args.model == "weyl-example":
        fam = polynomial_family(WEYL_EXAMPLE_TERMS)
    elif args.model.startswith("plugin:"):
        fn = _load_plugin(args.model[len("plugin:"):])
        fam = param_family(lambda p: np.asarray(fn(p)), 3)
    else:
        raise _CliError(EXIT_PARSE, f"unknown model {args.model!r}")
    box = [(c - args.box, c + args.box) for c in args.center]
    if not np.all(np.isfinite(box)):
        raise _CliError(EXIT_PARSE, f"the box edges --center +- --box must "
                                    f"be finite, got {box}")
    rows = [
        {
            "p": [format_float(x) for x in rep.p],
            "distance": rep.distance,
            "rank": rep.rank,
            "charge": rep.charge,
            "classification": rep.classification,
        }
        for rep in scan_grid(fam, box, args.res)
    ]
    return RunReport(
        command="weyl-scan",
        inputs={"model": args.model, "box": args.box,
                "center": list(args.center), "res": args.res},
        outputs={"count": len(rows), "points": rows},
    )


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


#: `model` names, in the order `model --help` lists them, and their
#: builders: each takes the parsed flags and the generator seeded by --seed,
#: and checks a count as its model would before drawing that many numbers.
_MODELS = {
    "ssh": lambda a, rng: ssh(a.cells, a.v, a.w),
    "ssh-disorder": lambda a, rng: ssh_hopping_disorder(
        a.cells, rng.standard_normal(
            2 * _check_count("cell", a.cells, 1, MAX_CELLS) - 1)
        + 1j * rng.standard_normal(2 * a.cells - 1)),
    "ising": lambda a, rng: ising(a.qubits),
    "transverse": lambda a, rng: transverse_perturbation(
        a.qubits,
        rng.standard_normal(_check_count("qubit", a.qubits, 1, MAX_QUBITS)),
        rng.standard_normal(a.qubits)),
    "five-qubit": lambda a, rng: five_qubit_code(),
    "one-local": lambda a, rng: one_local(a.qubits, rng.standard_normal(
        3 * _check_count("qubit", a.qubits, 1, MAX_QUBITS))),
    "example-3x3": lambda a, rng: example_3x3(a.v3, a.x, a.y, a.z, a.p, a.q,
                                              a.r, a.s, a.w3),
    "example-pr": lambda a, rng: example_pr(a.p, a.r),
    "weyl-example": lambda a, rng: weyl_example(a.x, a.y, a.z),
}


def _cmd_model(args):
    h = _MODELS[args.name](args, np.random.default_rng(args.seed))
    if args.output:
        try:
            write_matrix(args.output, h)
        except OSError as exc:
            raise _CliError(EXIT_PARSE, f"cannot write {args.output}: "
                                        f"{exc}") from exc
    else:
        sys.stdout.write(matrix_text(h))


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _int_arg(text, ok, rule):
    """int(text), refused unless ok(value) with "must be {rule}". A
    non-integer gets argparse's message for type=int."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if not ok(value):
        raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
    return value


def _seed(text):
    """A --seed value: numpy's generators take non-negative integers."""
    return _int_arg(text, lambda seed: seed >= 0, "a non-negative integer")


def _ladder_exponent(text):
    """A --ladder-start or --ladder-stop value e: the ladder holds t = 2^-e,
    a finite nonzero double for e in -1023..1074 only."""
    return _int_arg(text, lambda e: -1023 <= e <= 1074,
                    "an integer in -1023..1074")


def _add_common(parser):
    parser.add_argument("--json", action="store_true",
                        help="emit the machine-readable report")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="degengeo",
        description="Block decompositions, degeneracy-manifold distances, "
                    "splitting orders, and Weyl-point scans for Hermitian "
                    "matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="block-decompose a matrix against "
                                         "a degenerate base point")
    p.add_argument("matrix", help="matrix file (interchange format)")
    p.add_argument("--base", default="auto",
                   help="base matrix file, or 'auto' for the collapsed input")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--offset", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=_cmd_decompose)

    for name, fn in (("project", _cmd_project), ("distance", _cmd_distance)):
        p = sub.add_parser(name)
        p.add_argument("matrix")
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--offset", type=int, default=0)
        _add_common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("order", help="estimate the splitting order of ising, "
                                     "ssh or five-qubit along 'model "
                                     "transverse', 'ssh-disorder' or "
                                     "'one-local --qubits 5' (same --seed)")
    p.add_argument("family", choices=[*_ORDER_FAMILIES, "file"])
    p.add_argument("--qubits", type=int, default=3)
    p.add_argument("--cells", type=int, default=4)
    p.add_argument("--v", type=float, default=0.0)
    p.add_argument("--w", type=float, default=1.0)
    # The dimerized chain's degenerate pair sits mid-spectrum, so that is
    # the default window for ssh.
    p.add_argument("--window", choices=["ground", "middle"], default="middle")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--ladder-start", type=_ladder_exponent, default=3)
    p.add_argument("--ladder-stop", type=_ladder_exponent, default=16)
    p.add_argument("--ladder-file", help="tabulated family (ladder format)")
    _add_common(p)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("weyl-scan", help="scan a box for degeneracy points "
                                         "and classify them")
    p.add_argument("--model", default="weyl-example",
                   help="'weyl-example' or 'plugin:path.py:function'")
    p.add_argument("--box", type=float, required=True,
                   help="half-width of the cubic scan box")
    # An immutable default, since one parser serves every `main` call.
    p.add_argument("--center", type=float, nargs=3, default=(0.0, 0.0, 0.0))
    p.add_argument("--res", type=int, default=11)
    _add_common(p)
    p.set_defaults(func=_cmd_weyl_scan)

    p = sub.add_parser("model", help="emit a model matrix in the "
                                     "interchange format")
    p.add_argument("name", choices=list(_MODELS))
    p.add_argument("--cells", type=int, default=4)
    p.add_argument("--v", type=float, default=0.0)
    p.add_argument("--w", type=float, default=1.0)
    p.add_argument("--qubits", type=int, default=3)
    p.add_argument("--seed", type=_seed, default=0)
    for flag in ("--p", "--q", "--r", "--s", "--x", "--y", "--z"):
        p.add_argument(flag, type=float, default=0.0)
    p.add_argument("--v3", type=float, default=0.0,
                   help="window shift of example-3x3")
    p.add_argument("--w3", type=float, default=0.0,
                   help="third-level shift of example-3x3")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_model)

    return parser


#: The parser `main` uses, built on first use. parse_args leaves a parser
#: as it found it (each call fills a new Namespace), and the help formatter
#: reads COLUMNS when the help is printed, so one parser serves every call.
_shared_parser = functools.cache(build_parser)


def main(argv=None):
    """Run one command, write its report, and return the exit code. The
    parser is built once per process and shared by every later call."""
    args = _shared_parser().parse_args(argv)
    start = time.monotonic()
    try:
        report = args.func(args)
        if report is not None:
            sys.stdout.write(report.to_json() if args.json
                             else report.to_text())
    except _CliError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return exc.code
    except InconclusiveFit as exc:
        sys.stderr.write(f"inconclusive fit: {exc}\n")
        if exc.estimate is not None:
            sys.stderr.write(
                f"  slope {exc.estimate.slope:.4f} "
                f"(deviation {exc.estimate.slope_dev:.4f})\n"
            )
        return EXIT_INCONCLUSIVE
    except np.linalg.LinAlgError as exc:  # a ValueError, so caught first
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    except (DegenError, ValueError) as exc:
        sys.stderr.write(f"precondition violated: {exc}\n")
        return EXIT_PRECONDITION
    finally:
        sys.stderr.write(
            f"wall time: {time.monotonic() - start:.3f} s\n"
        )
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
