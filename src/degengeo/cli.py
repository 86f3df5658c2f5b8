"""Command-line interface.

Subcommands: decompose, project, distance, order, weyl-scan, model. Reports
go to stdout, line-oriented by default or as versioned JSON with --json;
wall time goes to stderr so that reports stay byte-identical for identical
inputs and seed. Exit codes: 0 success, 2 parse error, 3 precondition
violation, 4 numerical failure, 5 inconclusive order fit.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import time

import numpy as np

from .errors import DegenError, InconclusiveFit, NewtonDiverged
from .hermitian import frobenius_norm, operator_2_norm
from .matrixio import (
    RunReport,
    format_float,
    matrix_text,
    read_ladder,
    read_matrix,
)
from .models import (
    example_3x3,
    example_pr,
    five_qubit_code,
    ising,
    one_local,
    ssh,
    ssh_hopping_disorder,
    transverse_perturbation,
    weyl_example,
)
from .projection import collapse_projection
from .spectra import window_distance
from .splitting import (default_ladder, estimate_all_orders, family,
                        linear_family)
from .swtransform import Anchor, sw_decompose, sw_decompose_general
from .weyl import param_family, scan_grid

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NUMERICAL = 4
EXIT_INCONCLUSIVE = 5


def _emit(report, as_json):
    sys.stdout.write(report.to_json() if as_json else report.to_text())


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
        base = collapse_projection(h, args.k, offset=args.offset).h_sigma
        dec = sw_decompose_general(h, base, args.k, offset=args.offset)
    else:
        base = _read_or_fail(args.base)
        offdiag = np.max(np.abs(base - np.diag(np.diag(base))))
        if offdiag <= 1e-12 * max(1.0, float(np.max(np.abs(base)))):
            dec = sw_decompose(h, base, args.k, offset=args.offset)
        else:
            dec = sw_decompose_general(h, base, args.k, offset=args.offset)
    s_norm = dec.s_2norm()
    report = RunReport(
        command="decompose",
        inputs={"matrix": args.matrix, "base": args.base, "k": args.k,
                "offset": args.offset},
        outputs={
            "S": dec.s,
            "B": dec.b,
            "c": dec.c,
            "H_eff": dec.h_eff,
            "H_eff_window_block": dec.heff_block(),
        },
        diagnostics={
            "residual": dec.residual,
            "S_2norm": s_norm,
            "within_r0": dec.within_r0,
            # Always true on a returned decomposition; kept as a report key.
            "s_norm_ok": s_norm < np.pi / 2.0,
        },
    )
    _emit(report, args.json)
    return EXIT_OK


def _cmd_project(args):
    h = _read_or_fail(args.matrix)
    pr = collapse_projection(h, args.k, offset=args.offset)
    report = RunReport(
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
    _emit(report, args.json)
    return EXIT_OK


def _cmd_distance(args):
    h = _read_or_fail(args.matrix)
    pr = collapse_projection(h, args.k, offset=args.offset)
    outputs = {
        "distance": window_distance(pr.spectrum.eigenvalues, args.k,
                                    args.offset),
        "sqrt_k_times_std_dev": np.sqrt(args.k) * pr.std_dev,
        "unique": pr.unique,
    }
    diagnostics = {}
    if pr.unique:
        # Cross-check through the decomposition against the collapsed base,
        # in the eigenbasis of H that the projection already took.
        anchor = Anchor.from_spectrum(pr.spectrum, args.k, args.offset)
        dec = anchor.decompose(h)
        outputs["heff_norm"] = frobenius_norm(dec.h_eff)
        diagnostics["heff_residual"] = dec.residual
    report = RunReport(
        command="distance",
        inputs={"matrix": args.matrix, "k": args.k, "offset": args.offset},
        outputs=outputs,
        diagnostics=diagnostics,
    )
    _emit(report, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# order
# ---------------------------------------------------------------------------


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
        ladder = np.sort([t for t in ts if t > 0.0])
        if len(ladder) < 4:
            raise _CliError(EXIT_PRECONDITION,
                            "ladder file needs at least 4 positive ts")
        return fam, ladder, {"ladder_file": args.ladder_file}
    rng = np.random.default_rng(args.seed)
    offset = 0
    if args.family == "ising":
        h0 = ising(args.qubits)
        xs = rng.standard_normal(args.qubits)
        ys = rng.standard_normal(args.qubits)
        direction = transverse_perturbation(args.qubits, xs, ys)
        meta = {"model": "ising", "qubits": args.qubits}
    elif args.family == "ssh":
        h0 = ssh(args.cells, args.v, args.w)
        amps = (rng.standard_normal(2 * args.cells - 1)
                + 1j * rng.standard_normal(2 * args.cells - 1))
        direction = ssh_hopping_disorder(args.cells, amps)
        offset = args.cells - 1 if args.window == "middle" else 0
        meta = {"model": "ssh", "cells": args.cells, "v": args.v,
                "w": args.w, "window": args.window}
    else:
        h0 = five_qubit_code()
        direction = one_local(5, rng.standard_normal(15))
        meta = {"model": "five-qubit"}
    fam = linear_family(h0, direction, 2, offset=offset)
    return fam, default_ladder(args.ladder_start, args.ladder_stop), meta


def _cmd_order(args):
    fam, ladder, meta = _order_family(args)
    ladder = np.sort(np.asarray(ladder))
    fits, agreement = estimate_all_orders(fam, ladder)
    estimates = {
        method: {
            "r": "inf" if est.r == float("inf") else int(est.r),
            "slope": est.slope,
            "slope_dev": est.slope_dev,
        }
        for method, est in fits.items()
    }
    report = RunReport(
        command="order",
        inputs={**meta, "seed": args.seed,
                "ladder": [format_float(t) for t in ladder]},
        outputs={"estimates": estimates,
                 "agreement": agreement,
                 "order": estimates["stddev"]["r"] if agreement else None},
        diagnostics={"k": fam.k, "offset": fam.offset},
    )
    _emit(report, args.json)
    return EXIT_OK


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
    try:
        return getattr(module, attr)
    except AttributeError as exc:
        raise _CliError(EXIT_PARSE, f"plugin {path} has no {attr}") from exc


def _cmd_weyl_scan(args):
    if args.model == "weyl-example":
        evaluator = lambda p: weyl_example(*p)  # noqa: E731
    elif args.model.startswith("plugin:"):
        fn = _load_plugin(args.model[len("plugin:"):])
        evaluator = lambda p: np.asarray(fn(p))  # noqa: E731
    else:
        raise _CliError(EXIT_PARSE, f"unknown model {args.model!r}")
    fam = param_family(evaluator, 3)
    box = [(c - args.box, c + args.box) for c in args.center]
    try:
        reports = scan_grid(fam, box, args.res,
                            seed_threshold=args.seed_threshold,
                            point_tol=args.point_tol)
    except NewtonDiverged as exc:
        raise _CliError(EXIT_NUMERICAL, str(exc)) from exc
    rows = [
        {
            "p": [format_float(x) for x in rep.p],
            "distance": rep.distance,
            "rank": rep.rank,
            "charge": rep.charge,
            "classification": rep.classification,
        }
        for rep in reports
    ]
    report = RunReport(
        command="weyl-scan",
        inputs={"model": args.model, "box": args.box,
                "center": list(args.center), "res": args.res,
                "seed": args.seed},
        outputs={"count": len(rows), "points": rows},
    )
    _emit(report, args.json)
    return EXIT_OK


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


def _cmd_model(args):
    rng = np.random.default_rng(args.seed)
    name = args.name
    if name == "ssh":
        h = ssh(args.cells, args.v, args.w)
    elif name == "ssh-disorder":
        amps = (rng.standard_normal(2 * args.cells - 1)
                + 1j * rng.standard_normal(2 * args.cells - 1))
        h = ssh_hopping_disorder(args.cells, amps)
    elif name == "ising":
        h = ising(args.qubits)
    elif name == "transverse":
        h = transverse_perturbation(args.qubits,
                                    rng.standard_normal(args.qubits),
                                    rng.standard_normal(args.qubits))
    elif name == "five-qubit":
        h = five_qubit_code()
    elif name == "one-local":
        h = one_local(args.qubits, rng.standard_normal(3 * args.qubits))
    elif name == "example-3x3":
        h = example_3x3(args.v3, args.x, args.y, args.z,
                        args.p, args.q, args.r, args.s, args.w3)
    elif name == "example-pr":
        h = example_pr(args.p, args.r)
    else:  # "weyl-example"
        h = weyl_example(args.x, args.y, args.z)
    text = matrix_text(h)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


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

    p = sub.add_parser("order", help="estimate the order of energy splitting "
                                     "along a seeded model direction")
    p.add_argument("family", choices=["ising", "ssh", "five-qubit", "file"])
    p.add_argument("--qubits", type=int, default=3)
    p.add_argument("--cells", type=int, default=4)
    p.add_argument("--v", type=float, default=0.0)
    p.add_argument("--w", type=float, default=1.0)
    # The dimerized chain's degenerate pair sits mid-spectrum, so that is
    # the default window for ssh.
    p.add_argument("--window", choices=["ground", "middle"], default="middle")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ladder-start", type=int, default=3)
    p.add_argument("--ladder-stop", type=int, default=16)
    p.add_argument("--ladder-file", help="tabulated family (ladder format)")
    _add_common(p)
    p.set_defaults(func=_cmd_order)

    p = sub.add_parser("weyl-scan", help="scan a box for degeneracy points "
                                         "and classify them")
    p.add_argument("--model", default="weyl-example",
                   help="'weyl-example' or 'plugin:path.py:function'")
    p.add_argument("--box", type=float, required=True,
                   help="half-width of the cubic scan box")
    p.add_argument("--center", type=float, nargs=3, default=[0.0, 0.0, 0.0])
    p.add_argument("--res", type=int, default=11)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seed-threshold", type=float, default=None)
    p.add_argument("--point-tol", type=float, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_weyl_scan)

    p = sub.add_parser("model", help="emit a model matrix in the "
                                     "interchange format")
    p.add_argument("name", choices=["ssh", "ssh-disorder", "ising",
                                    "transverse", "five-qubit", "one-local",
                                    "example-3x3", "example-pr",
                                    "weyl-example"])
    p.add_argument("--cells", type=int, default=4)
    p.add_argument("--v", type=float, default=0.0)
    p.add_argument("--w", type=float, default=1.0)
    p.add_argument("--qubits", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p", type=float, default=0.0)
    p.add_argument("--q", type=float, default=0.0)
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--y", type=float, default=0.0)
    p.add_argument("--z", type=float, default=0.0)
    p.add_argument("--v3", type=float, default=0.0,
                   help="window shift of example-3x3")
    p.add_argument("--w3", type=float, default=0.0,
                   help="third-level shift of example-3x3")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_model)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        code = args.func(args)
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
    except (DegenError, ValueError) as exc:
        sys.stderr.write(f"precondition violated: {exc}\n")
        return EXIT_PRECONDITION
    except np.linalg.LinAlgError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL
    finally:
        sys.stderr.write(
            f"wall time: {time.monotonic() - start:.3f} s\n"
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
