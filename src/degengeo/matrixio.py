"""Matrix interchange format, family ladder files, and run reports.

A matrix document is JSON text with two fields: "n" (the dimension) and
"entries", the row-major list of n^2 [re, im] pairs of JSON numbers.
Writers emit 17 significant digits, which round-trips IEEE doubles
exactly. A ladder file is a JSON object that bundles a window (k, offset;
JSON integers), the sample parameters "ts" (finite JSON numbers), one
matrix document per sample under "matrices", and the start matrix H(0)
under "base".

Run reports are written in exactly the layout of
`json.dumps(plain, indent=2)`, where `plain` is the report with every
array turned into nested lists ([re, im] for complex entries). Arrays are
rendered straight to that text in one vectorized pass per array, since
the standard encoder formats every float through Python generators when
an indent is set.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from itertools import chain

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


#: JSON numbers as the standard decoder returns them (bool is excluded).
_NUMBER_TYPES = {int, float}


def _matrix_from_document(doc):
    if not isinstance(doc, dict) or "n" not in doc or "entries" not in doc:
        raise ValueError("matrix document needs fields 'n' and 'entries'")
    n = doc["n"]
    if type(n) is not int or n < 1:
        raise ValueError(f"'n' must be a positive integer, got {n!r}")
    entries = doc["entries"]
    if not isinstance(entries, list) or len(entries) != n * n:
        got = len(entries) if isinstance(entries, list) else type(entries)
        raise ValueError(
            f"'entries' must hold {n * n} [re, im] pairs, got {got}"
        )
    try:
        # One scan over the types of all leaves admits JSON numbers only.
        numeric = set(map(type, chain.from_iterable(entries))) <= _NUMBER_TYPES
        pairs = np.asarray(entries, dtype=float) if numeric else None
    except (TypeError, ValueError, OverflowError):
        pairs = None
    if pairs is None or pairs.shape != (n * n, 2):
        for i, pair in enumerate(entries):
            if not (isinstance(pair, list) and len(pair) == 2
                    and set(map(type, pair)) <= _NUMBER_TYPES):
                raise ValueError(
                    f"entry {i} is not an [re, im] pair of numbers"
                )
        raise ValueError("an entry exceeds the floating-point range")
    # The same arithmetic as a per-entry float(re) + 1j * float(im), signed
    # zeros included.
    return hermitian((pairs[:, 0] + 1j * pairs[:, 1]).reshape(n, n))


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
    if not isinstance(doc, dict):
        raise ValueError("ladder file must hold a JSON object")
    for key in ("k", "ts", "matrices", "base"):
        if key not in doc:
            raise ValueError(f"ladder file is missing field {key!r}")
    k, offset = doc["k"], doc.get("offset", 0)
    for key, value in (("k", k), ("offset", offset)):
        if type(value) is not int:
            raise ValueError(f"{key!r} must be an integer, got {value!r}")
    ts = doc["ts"]
    if not (isinstance(ts, list) and set(map(type, ts)) <= _NUMBER_TYPES
            and all(abs(t) <= sys.float_info.max for t in ts)):
        raise ValueError("'ts' must be a list of finite numbers")
    if not isinstance(doc["matrices"], list):
        raise ValueError("'matrices' must be a list of matrix documents")
    ts = [float(t) for t in ts]
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
    if isinstance(value, np.ndarray):  # real: `_array_json` splits complex
        return value.tolist()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    return value


def _holds_array(value):
    pending = [value]
    while pending:
        v = pending.pop()
        if isinstance(v, np.ndarray):
            return True
        if isinstance(v, dict):
            pending.extend(v.values())
        elif isinstance(v, (list, tuple)):
            pending.extend(v)
    return False


def _encoded(value, pad):
    return json.dumps(_plain(value), indent=2).replace("\n", "\n" + pad)


def _dumps(value, pad=""):
    """`json.dumps(_plain(value), indent=2)` with every line after the first
    indented by `pad`. Subtrees without arrays go to the encoder whole."""
    if isinstance(value, np.ndarray):
        return _array_json(value, pad)
    if not _holds_array(value):
        return _encoded(value, pad)
    inner = pad + "  "
    if isinstance(value, dict):
        items = {str(k): v for k, v in value.items()}
        body = ",".join(f"\n{inner}{json.dumps(k)}: {_dumps(v, inner)}"
                        for k, v in items.items())
        return "{" + body + "\n" + pad + "}"
    body = ",".join(f"\n{inner}{_dumps(v, inner)}" for v in value)
    return "[" + body + "\n" + pad + "]"


def _array_json(a, pad):
    """One array in the indent=2 layout: leaves formatted in one map, then
    joined with the separator for the number of axes that wrap after each
    leaf (closing and reopening that many brackets)."""
    if np.iscomplexobj(a):
        a = np.stack((a.real, a.imag), axis=-1)
    if a.ndim == 0 or a.size == 0 or a.dtype.kind not in "fiub":
        return _encoded(a, pad)
    # float.__repr__ is the encoder's own text for a finite float.
    finite = a.dtype.kind == "f" and np.isfinite(a).all()
    leaves = list(map(float.__repr__ if finite else json.dumps,
                      a.ravel().tolist()))
    m = a.ndim
    ind = ["\n" + pad + "  " * j for j in range(m + 1)]

    def closing(w):
        return "".join(ind[m - 1 - j] + "]" for j in range(w))

    seps = [closing(w) + "," + "".join(ind[m - w + j] + "[" for j in range(w))
            + ind[m] for w in range(m)]
    position = np.arange(1, len(leaves))
    wraps = np.zeros(len(leaves) - 1, dtype=np.intp)
    for stride in np.cumprod(a.shape[:0:-1]):
        wraps += position % stride == 0
    parts = [None] * (2 * len(leaves) - 1)
    parts[::2] = leaves
    parts[1::2] = np.array(seps, dtype=object)[wraps].tolist()
    head = "".join("[" + ind[j + 1] for j in range(m))
    return head + "".join(parts) + closing(m)


@dataclass
class RunReport:
    """Structured result of one CLI run: the command, an echo of its inputs,
    the outputs, and diagnostics (residuals, flags, seed). Identical inputs
    and seed produce byte-identical serializations; wall time is therefore
    never part of the report.

    `to_json` writes the bytes that `json.dumps(doc, indent=2)` writes for
    the report with its arrays as nested lists, plus a final newline; the
    arrays are rendered directly."""

    command: str
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)

    SCHEMA = "degengeo-report/1"

    def to_json(self):
        doc = {
            "schema": self.SCHEMA,
            "command": self.command,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "diagnostics": self.diagnostics,
        }
        return _dumps(doc) + "\n"

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
        # The cells of _fmt_scalar, right-aligned to 22 characters.
        if np.iscomplexobj(value):
            cells = [f"{f'{re:.12g}{im:+.12g}i':>22}" for re, im in zip(
                value.real.ravel().tolist(), value.imag.ravel().tolist())]
        else:
            cells = [f"{x:>22.12g}"
                     for x in np.asarray(value, dtype=float).ravel().tolist()]
        w = value.shape[1]
        return [f"{pad}{key}:"] + [
            pad + "  " + "  ".join(cells[i * w : (i + 1) * w])
            for i in range(value.shape[0])
        ]
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
