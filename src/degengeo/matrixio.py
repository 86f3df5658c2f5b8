"""Matrix interchange format, family ladder files, and run reports.

A matrix document is JSON text with two fields: "n" (the dimension) and
"entries", the row-major list of n^2 [re, im] pairs. Writers emit 17
significant digits, which round-trips IEEE doubles exactly. A ladder file
bundles a window (k, offset), the sample parameters "ts", one matrix
document per sample under "matrices", and the start matrix H(0) under
"base".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .hermitian import hermitian

__all__ = [
    "format_float",
    "matrix_text",
    "write_matrix",
    "parse_matrix",
    "read_matrix",
    "read_ladder",
    "RunReport",
]


def format_float(x):
    """Full-precision decimal rendering of a double (17 significant digits)."""
    return f"{float(x):.17g}"


def _entry_pairs(h):
    return ", ".join(
        f"[{format_float(z.real)}, {format_float(z.imag)}]"
        for z in np.asarray(h, dtype=complex).ravel()
    )


def matrix_text(h):
    """Serialize a matrix to interchange-format text."""
    h = np.asarray(h)
    return f'{{"n": {h.shape[0]}, "entries": [{_entry_pairs(h)}]}}\n'


def write_matrix(path, h):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(matrix_text(h))


def _matrix_from_document(doc):
    if not isinstance(doc, dict) or "n" not in doc or "entries" not in doc:
        raise ValueError("matrix document needs fields 'n' and 'entries'")
    n = doc["n"]
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"'n' must be a positive integer, got {n!r}")
    entries = doc["entries"]
    if len(entries) != n * n:
        raise ValueError(
            f"'entries' must hold {n * n} [re, im] pairs, got {len(entries)}"
        )
    flat = np.empty(n * n, dtype=complex)
    for i, pair in enumerate(entries):
        if len(pair) != 2:
            raise ValueError(f"entry {i} is not an [re, im] pair")
        flat[i] = float(pair[0]) + 1j * float(pair[1])
    return hermitian(flat.reshape(n, n))


def parse_matrix(text):
    """Parse interchange-format text into a validated Hermitian matrix."""
    return _matrix_from_document(json.loads(text))


def read_matrix(path):
    with open(path, encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def read_ladder(path):
    """Read a family ladder file; returns (k, offset, ts, matrices, base)."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    for key in ("k", "ts", "matrices", "base"):
        if key not in doc:
            raise ValueError(f"ladder file is missing field {key!r}")
    k = int(doc["k"])
    offset = int(doc.get("offset", 0))
    ts = [float(t) for t in doc["ts"]]
    if len(ts) != len(doc["matrices"]):
        raise ValueError("'ts' and 'matrices' must have equal length")
    if any(t == 0.0 for t in ts):
        raise ValueError("ladder parameters must be nonzero; H(0) goes in 'base'")
    mats = [_matrix_from_document(d) for d in doc["matrices"]]
    base = _matrix_from_document(doc["base"])
    return k, offset, ts, mats, base


def _plain(value):
    """Recursively convert numpy scalars/arrays and complex numbers into
    JSON-serializable structures ([re, im] for complex entries)."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return np.stack((value.real, value.imag), axis=-1).tolist()
        return value.tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


@dataclass
class RunReport:
    """Structured result of one CLI run: the command, an echo of its inputs,
    the outputs, and diagnostics (residuals, flags, seed). Identical inputs
    and seed produce byte-identical serializations; wall time is therefore
    never part of the report."""

    command: str
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    SCHEMA = "degengeo-report/1"

    def to_json(self):
        doc = {
            "schema": self.SCHEMA,
            "command": self.command,
            "inputs": _plain(self.inputs),
            "outputs": _plain(self.outputs),
            "diagnostics": _plain(self.diagnostics),
        }
        return json.dumps(doc, indent=2, sort_keys=False) + "\n"

    def to_text(self):
        lines = [f"command: {self.command}"]
        for section, data in (("inputs", self.inputs),
                              ("outputs", self.outputs),
                              ("diagnostics", self.diagnostics)):
            if not data:
                continue
            lines.append(f"{section}:")
            for key, value in data.items():
                lines.extend(_text_lines(key, value, indent=2))
        return "\n".join(lines) + "\n"


def _fmt_scalar(v):
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    if isinstance(v, complex):
        return f"{v.real:.12g}{v.imag:+.12g}i"
    return str(v)


def _text_lines(key, value, indent):
    pad = " " * indent
    if isinstance(value, np.ndarray) and value.ndim == 2:
        lines = [f"{pad}{key}:"]
        is_complex = np.iscomplexobj(value)
        for row in value:
            cells = [
                _fmt_scalar(complex(z)) if is_complex else _fmt_scalar(float(z))
                for z in row
            ]
            lines.append(pad + "  " + "  ".join(f"{c:>22s}" for c in cells))
        return lines
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        lines = [f"{pad}{key}:"]
        for k, v in value.items():
            lines.extend(_text_lines(k, v, indent + 2))
        return lines
    if isinstance(value, (list, tuple)):
        return [f"{pad}{key}: [" + ", ".join(_fmt_scalar(v) for v in value) + "]"]
    return [f"{pad}{key}: {_fmt_scalar(value)}"]
