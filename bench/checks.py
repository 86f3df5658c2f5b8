"""Output checks made apart from the program.

Every check recomputes what it needs with numpy/scipy from the inputs the
benchmark generated, or tests a property the method must have. None of them
compares against a stored copy of an earlier output. A check returns nothing
when the output is right and raises CheckFailed with the reason otherwise.
"""

from __future__ import annotations

import json

import numpy as np
import scipy.linalg

#: Tolerances are relative to max(1, ||H||_2). The program works to about
#: 1e-13 of that scale at n = 256 and prints 12 significant digits in text
#: reports, so 1e-9 leaves a wide margin while a corrupted part (a sign flip
#: of H_eff, a dropped block) is off by more than 1e-3.
REL_TOL = 1e-9

#: Parameter-space tolerance for a located degeneracy point. Newton stops at
#: |h| <= 1e-10 and the points are printed with 17 digits.
POINT_TOL = 1e-7


class CheckFailed(Exception):
    """An op's output is wrong; the message says which property failed."""


def _require(condition, message):
    if not condition:
        raise CheckFailed(message)


def _close(a, b, tol, what):
    _require(abs(a - b) <= tol,
             f"{what}: {a!r} != {b!r} (tolerance {tol:.1e})")


def _complex_matrix(rows):
    pairs = np.asarray(rows, dtype=float)
    return pairs[..., 0] + 1j * pairs[..., 1]


def window_distance(h, k, offset):
    """sqrt(k) times the population standard deviation of the window
    eigenvalues of h, from numpy's eigvalsh."""
    window = np.linalg.eigvalsh(h)[offset : offset + k]
    return float(np.sqrt(k) * np.std(window))


# ---------------------------------------------------------------------------
# Report parsing
# ---------------------------------------------------------------------------


def parse_json_report(code, text, command):
    _require(code == 0, f"exit code {code}")
    doc = json.loads(text)
    _require(doc.get("command") == command,
             f"report is for {doc.get('command')!r}, not {command!r}")
    return doc


def _text_scalar(token):
    if token in ("true", "false"):
        return token == "true"
    try:
        return float(token)
    except ValueError:
        return token


def parse_text_report(code, text):
    """Sections of a line-oriented report: {section: {key: value}}, with
    matrices as complex arrays and scalars as float, bool or str."""
    _require(code == 0, f"exit code {code}")
    sections = {}
    section = None
    matrix_key, rows = None, []

    def close_matrix():
        if matrix_key is not None:
            section[matrix_key] = np.array(rows, dtype=complex)

    for line in text.splitlines():
        if not line.startswith(" "):
            close_matrix()
            matrix_key = None
            name, _, value = line.partition(":")
            if value.strip():
                sections[name] = value.strip()
            else:
                section = sections.setdefault(name, {})
            continue
        if line.startswith("    ") and matrix_key is not None:
            rows.append([complex(cell[:-1] + "j") for cell in line.split()])
            continue
        close_matrix()
        matrix_key = None
        key, _, value = line.strip().partition(":")
        if value.strip():
            section[key] = _text_scalar(value.strip())
        else:
            matrix_key, rows = key, []
    close_matrix()
    return sections


# ---------------------------------------------------------------------------
# dense
# ---------------------------------------------------------------------------


def check_decomposition(parts, h, h0, p0, k, offset):
    """parts holds S, B, c, H_eff and the flags of one decomposition of h
    against the degenerate base h0, whose window projector is p0."""
    n = h.shape[0]
    tol = REL_TOL * max(1.0, float(np.linalg.norm(h, 2)))
    s, b, c, h_eff = parts["S"], parts["B"], parts["c"], parts["H_eff"]
    for name, m in (("S", s), ("B", b), ("H_eff", h_eff)):
        _require(m.shape == (n, n), f"{name} has shape {m.shape}")
    _require(parts["within_r0"] is True, "within_r0 is not true")
    _require(parts["s_norm_ok"] is True, "s_norm_ok is not true")

    rot = scipy.linalg.expm(1j * s)
    rebuilt = rot @ (h0 + b + c * p0 + h_eff) @ rot.conj().T
    err = float(np.linalg.norm(rebuilt - h))
    _require(err <= tol, f"e^(iS)(H0 + B + cP0 + H_eff)e^(-iS) misses H by "
                         f"{err:.3e} (tolerance {tol:.1e})")

    q0 = np.eye(n) - p0
    for what, m in (("P0 S P0", p0 @ s @ p0), ("Q0 S Q0", q0 @ s @ q0),
                    ("H_eff - P0 H_eff P0", h_eff - p0 @ h_eff @ p0)):
        size = float(np.linalg.norm(m))
        _require(size <= tol,
                 f"{what} has norm {size:.3e} (tolerance {tol:.1e})")
    _close(float(np.trace(h_eff).real), 0.0, tol, "trace of H_eff")
    _close(float(np.linalg.norm(h_eff)), window_distance(h, k, offset), tol,
           "||H_eff|| against sqrt(k) std of the window eigenvalues")


def decomposition_from_json(doc):
    out, diag = doc["outputs"], doc["diagnostics"]
    return {
        "S": _complex_matrix(out["S"]),
        "B": _complex_matrix(out["B"]),
        "c": float(out["c"]),
        "H_eff": _complex_matrix(out["H_eff"]),
        "within_r0": diag["within_r0"],
        "s_norm_ok": diag["s_norm_ok"],
    }


def decomposition_from_text(sections):
    out, diag = sections["outputs"], sections["diagnostics"]
    return {
        "S": out["S"],
        "B": out["B"],
        "c": out["c"],
        "H_eff": out["H_eff"],
        "within_r0": diag["within_r0"],
        "s_norm_ok": diag["s_norm_ok"],
    }


def check_distance(doc, h, k, offset):
    """The distance report: distance = sqrt(k) std(window) = ||H_eff||."""
    out = doc["outputs"]
    tol = REL_TOL * max(1.0, float(np.linalg.norm(h, 2)))
    _require(out["unique"] is True, "projection is not unique")
    expected = window_distance(h, k, offset)
    _close(float(out["distance"]), expected, tol,
           "distance against sqrt(k) std of the window eigenvalues")
    _close(float(out["heff_norm"]), expected, tol,
           "||H_eff|| against distance")


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------


def check_order(doc, order):
    out = doc["outputs"]
    _require(out["agreement"] is True, "the five splitting orders disagree")
    _require(out["order"] == order, f"order {out['order']}, expected {order}")


def expected_permutation(order):
    """Branches through a k = 2 crossing of odd order swap for t < 0."""
    return (2, 1) if order % 2 else (1, 2)


def check_cascade(result, order):
    _require(result.pair_levels == {(1, 2): order},
             f"pair levels {result.pair_levels}, expected {{(1, 2): {order}}}")
    _require(not result.capped, f"pairs capped: {result.capped}")
    perm = expected_permutation(order)
    _require(tuple(result.negative_permutation) == perm,
             f"negative permutation {result.negative_permutation}, "
             f"expected {perm}")


def check_heff_order(estimate, order):
    _require(estimate.r == order, f"heff order {estimate.r}, expected {order}")


# ---------------------------------------------------------------------------
# weyl
# ---------------------------------------------------------------------------


def check_weyl_points(doc, expected):
    """expected lists (point, charge) pairs; the report must hold exactly
    these points, in any order, each a rank-3 Weyl point of that charge."""
    points = doc["outputs"]["points"]
    _require(doc["outputs"]["count"] == len(points) == len(expected),
             f"{len(points)} points, expected {len(expected)}")
    unmatched = list(expected)
    for got in points:
        p = np.array([float(x) for x in got["p"]])
        near = [(where, charge) for where, charge in unmatched
                if np.max(np.abs(p - np.asarray(where))) <= POINT_TOL]
        _require(near, f"point {p.tolist()} is not within {POINT_TOL:.0e} "
                       f"of any of {[list(w) for w, _ in unmatched]}")
        where, charge = near[0]
        unmatched.remove(near[0])
        _require(got["classification"] == "weyl",
                 f"point {p.tolist()} classified {got['classification']!r}")
        _require(got["rank"] == 3, f"rank {got['rank']} at {p.tolist()}")
        _require(got["charge"] == charge,
                 f"charge {got['charge']} at {p.tolist()}, expected {charge}")
