"""Matrix interchange format, family ladder files, and run reports.

A matrix document is JSON text with two fields: "n" (the dimension) and
"entries", the row-major list of n^2 [re, im] pairs of JSON numbers.
Writers emit 17 significant digits, which round-trips IEEE doubles
exactly; negative zero is written "-0.0". The reader takes a
document in the canonical layout
`{"n": N, "entries": [[re, im], [re, im], ...]}` (the layout of
`matrix_text`, and of `json.dumps` with its default separators; a final
newline is allowed) in one flat pass: its numbers are parsed as one flat
JSON list, without building a list per pair. Every other valid document
(indented, compact, with other keys) goes through the general decoder,
with the same results and the same errors. A ladder file is a JSON object
that bundles a window (k, offset; JSON integers), the sample parameters
"ts" (finite JSON numbers), one matrix document per sample under
"matrices", and the start matrix H(0) under "base".

Run reports are written in exactly the layout of
`json.dumps(plain, indent=2)`, where `plain` is the report with every
array turned into nested lists ([re, im] for complex entries), by one walk
over the report that hands each scalar leaf to `json.dumps`. Finite float
and complex arrays are rendered straight to that text in one vectorized
pass per array, since the standard encoder formats every float through
Python generators when an indent is set; every other array is walked as
nested lists. A finite float array is formatted once per distinct
magnitude, each text reused for the leaves of either sign (the parts of a
decomposition are Hermitian, so about half of their leaves are the sign
flip of another): a negative leaf's "-" ends the separator before it. The
writer collects the pieces of the whole report in one list that it joins
once.
"""

from __future__ import annotations

import json
import math
import re
import sys
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


def matrix_text(h):
    """Serialize a matrix to interchange-format text: every [re, im] pair
    in one %-format pass, each part the text `format_float` gives it but
    negative zero, which is written "-0.0". A matrix that `hermitian`, and
    so the reader, refuses is refused with its ValueError; any other is
    written as given."""
    hermitian(h)
    h = np.asarray(h, dtype=complex)
    parts = np.stack((h.real, h.imag), axis=-1).ravel().tolist()
    entries = ", ".join(["[%.17g, %.17g]"] * h.size) % tuple(parts)
    # %g writes -0.0 as "-0", which JSON reads as the integer 0; no other
    # part's text is "-0".
    entries = entries.replace("[-0,", "[-0.0,").replace(" -0]", " -0.0]")
    return f'{{"n": {h.shape[0]}, "entries": [{entries}]}}\n'


def write_matrix(path, h):
    """Write `matrix_text(h)` to path; a refused matrix opens no file."""
    text = matrix_text(h)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


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
    for i, pair in enumerate(entries):
        if not (isinstance(pair, list) and len(pair) == 2
                and set(map(type, pair)) <= _NUMBER_TYPES):
            raise ValueError(f"entry {i} is not an [re, im] pair of numbers")
    try:
        pairs = np.array(entries, dtype=float)
    except OverflowError:
        raise ValueError("an entry exceeds the floating-point range") from None
    return _matrix_from_pairs(pairs)


def _matrix_from_pairs(pairs):
    """The Hermitian n x n matrix of the C-contiguous (n^2, 2) array of
    [re, im] leaves, each entry complex(re, im): both parts keep their bits,
    signed zeros included."""
    n = math.isqrt(len(pairs))
    return hermitian(pairs.view(complex).reshape(n, n))


#: The text before the entries of a canonical document, and the characters
#: that JSON numbers are written with.
_CANONICAL_HEAD = re.compile(r'\{"n": ([1-9][0-9]*), "entries": \[')
_NUMBER_CHARS = b"0123456789.eE+-"


def _canonical_pairs(text):
    """The (n^2, 2) array of [re, im] leaves of a document in the canonical
    layout (module docstring), or None for any other text.

    Deleting the number characters must leave the entries exactly
    "[, ], " n^2 - 1 times and then "[, ]", for the n of the text; the
    numbers are then parsed as one flat JSON list, each from its own token,
    so each leaf is the value the general decoder gives it. Nothing sized
    by the claimed n is built: the pair count comes from the text's length.
    A token that is no JSON number, or a leaf past the double range, gives
    None, and so does non-ASCII text."""
    head = _CANONICAL_HEAD.match(text)
    end = len(text) - text.endswith("\n") - 2
    if head is None or text[end:end + 2] != "]}":
        return None
    body = text[head.end():end]
    if not body.isascii():
        return None
    skeleton = body.encode("ascii").translate(None, _NUMBER_CHARS)
    count = (len(skeleton) + 2) // 6
    n = math.isqrt(count)
    if (n * n != count or head[1] != str(n)
            or skeleton != b"[, ], " * (count - 1) + b"[, ]"):
        return None
    try:
        leaves = json.loads(body.replace("], [", ", "))
        return np.fromiter(leaves, float, 2 * count).reshape(count, 2)
    except (ValueError, OverflowError):
        return None


def parse_matrix(text):
    """Parse interchange-format text into a validated Hermitian matrix.

    A document in the canonical layout takes one flat pass over its numbers
    (`_canonical_pairs`); every other document, and one whose flat pass
    fails, is decoded by `json.loads` and checked field by field. Both give
    the same matrix, and the same error, for the same document."""
    pairs = _canonical_pairs(text) if isinstance(text, str) else None
    if pairs is None:
        return _matrix_from_document(json.loads(text))
    return _matrix_from_pairs(pairs)


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


def _write(value, pad, out):
    """Append to `out` the pieces of `json.dumps(plain, indent=2)` (module
    docstring) with every line after the first indented by `pad`. Dicts,
    lists, tuples, complex numbers and numpy scalars are walked here, arrays
    go to `_array_json` and every other leaf to `json.dumps`; the caller
    joins `out` once, so no nesting level copies the text below it."""
    if isinstance(value, np.ndarray):
        _array_json(value, pad, out)
        return
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, complex):
        value = [value.real, value.imag]
    if isinstance(value, dict):
        value = {str(k): v for k, v in value.items()}
        keys = [json.dumps(k) + ": " for k in value]
        value, brackets = value.values(), "{}"
    elif isinstance(value, (list, tuple)):
        keys, brackets = [""] * len(value), "[]"
    else:
        out.append(json.dumps(value))
        return
    if not keys:
        out.append(brackets)
        return
    inner = pad + "  "
    sep = brackets[0]
    for key, v in zip(keys, value):
        out.append(f"{sep}\n{inner}{key}")
        _write(v, inner, out)
        sep = ","
    out.append("\n" + pad + brackets[1])


def _array_json(a, pad, out):
    """Append one array in the indent=2 layout: its leaves interleaved with
    the separator for the number of axes that wrap after each leaf (closing
    and reopening that many brackets).

    A finite float array takes one `repr` (the encoder's text for a finite
    float) per distinct |x|, gathered for each leaf by magnitude.
    A leaf's sign (signbit, so -0.0 reads "-0.0") ends the text before it:
    the separator table holds each separator and its "-"-suffixed twin,
    and the opening brackets take the first leaf's "-". Every other array
    goes to `_write` as nested lists, whose leaves `json.dumps` writes:
    0-d and empty arrays, integer, bool and object arrays, and float or
    complex arrays holding NaN or inf."""
    if np.iscomplexobj(a):
        a = np.stack((a.real, a.imag), axis=-1)
    if (a.ndim == 0 or a.size == 0 or a.dtype.kind != "f"
            or not np.isfinite(a).all()):
        _write(a.tolist(), pad, out)
        return
    flat = a.ravel()
    m = a.ndim
    ind = ["\n" + pad + "  " * j for j in range(m + 1)]

    def closing(w):
        return "".join(ind[m - 1 - j] + "]" for j in range(w))

    seps = [closing(w) + "," + "".join(ind[m - w + j] + "[" for j in range(w))
            + ind[m] for w in range(m)]
    opening = "".join("[" + ind[j + 1] for j in range(m))
    position = np.arange(1, flat.size)
    wraps = np.zeros(flat.size - 1, dtype=np.intp)
    for stride in np.cumprod(a.shape[:0:-1]):
        wraps += position % stride == 0
    mags, index = np.unique(np.abs(flat), return_inverse=True)
    texts = list(map(repr, mags.tolist()))
    leaves = np.array(texts, dtype=object)[index].tolist()
    negative = np.signbit(flat)
    seps += [sep + "-" for sep in seps]
    wraps += m * negative[1:]
    if negative[0]:
        opening += "-"
    parts = [None] * (2 * len(leaves) - 1)
    parts[::2] = leaves
    parts[1::2] = np.array(seps, dtype=object)[wraps].tolist()
    out.append(opening)
    out.extend(parts)
    out.append(closing(m))


@dataclass
class RunReport:
    """Structured result of one CLI run: the command, an echo of its inputs,
    the outputs, and diagnostics (residuals, flags, seed). Identical inputs
    and seed produce byte-identical serializations; wall time is therefore
    never part of the report.

    `to_json` writes the bytes that `json.dumps(doc, indent=2)` writes for
    the report with its arrays as nested lists, plus a final newline, in one
    walk (`_write`): the arrays are rendered directly, as unsigned leaf
    texts between separators that carry the signs, and the text is joined
    once."""

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
        out = []
        _write(doc, "", out)
        out.append("\n")
        return "".join(out)

    def to_text(self):
        lines = _text_lines("command", self.command, 0)
        for section in ("inputs", "outputs", "diagnostics"):
            if data := getattr(self, section):
                lines += _text_lines(section, data, 0)
        return "\n".join(lines) + "\n"


def _fmt_scalar(v):
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    if isinstance(v, complex):
        return f"{v.real:.12g}{v.imag:+.12g}i"
    return str(v)


def _texts(values, fmt):
    """fmt % x for each x of the float array values (taken as float64), in C
    order, as a 1-D object array: one %-format of the distinct values, told
    apart by their bit patterns, so -0.0 keeps its own text. % writes NaN
    unsigned, as `_fmt_scalar` does."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    bits, index = np.unique(flat.view(np.int64), return_inverse=True)
    texts = "\n".join([fmt] * len(bits)) % tuple(bits.view(float).tolist())
    return np.array(texts.split("\n"), dtype=object)[index]


def _matrix_cells(value):
    """The text of `_fmt_scalar` for every entry of a 2-D array, in C order:
    the real and the imaginary parts each formatted once per distinct bit
    pattern (`_texts`), and joined by one object array addition."""
    if not np.iscomplexobj(value):
        return _texts(value, "%.12g").tolist()
    return (_texts(value.real, "%.12g")
            + _texts(value.imag, "%+.12gi")).tolist()


def _text_lines(key, value, indent):
    pad = " " * indent
    if isinstance(value, np.ndarray) and value.ndim == 2:
        # The cells right-aligned to 22 characters by one %-format for the
        # whole matrix.
        rows, w = value.shape
        row = pad + "  " + "  ".join(["%22s"] * w)
        body = "\n".join([row] * rows) % tuple(_matrix_cells(value))
        return [f"{pad}{key}:"] + ([body] if rows else [])
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
