"""CSV + JSON-sidecar file formats.

Two payload kinds share the same convention: a CSV with a one-line header and
a sidecar JSON next to it (same path, .json extension) carrying the
certificate metadata.

Function samples:   CSV header  k,value      sidecar {sigma, h, k_min, k_max,
                    tail_bound[, tail_decay]}
Sequence windows:   CSV header  n,value      sidecar {n0, len, tail_l2}

A samples sidecar's tail_bound and tail_decay bound |f(x)| by tail_bound
(k_edge h/|x|)^tail_decay at every real x beyond the window, k_edge =
min(|k_min|, k_max), not only at the samples (UniformSamples): C sin(sigma
x) fits a file of zero samples at the critical rate, and only a decay on
the whole line excludes it.

Only lines that start with '#' may come before the header; after it, '#'
starts a comment anywhere on a line, and lines may end in LF, CRLF or CR.
The input is a regular file of UTF-8 text: a path that is not a regular file
(a directory, a device, a named pipe), a name ending in .gz, .bz2, .xz or
.lzma (which numpy would open as compressed) or a byte that is not UTF-8 is refused.

The contract a file must meet to be read: the header and every row are
exactly two cells, a row an integer index and a float value as numpy's
parser reads them (ASCII digits, no '_' or '0x'); every value is finite;
the sidecar is a JSON object; the index fields (k_min, k_max, n0, len) are
JSON integers or integral floats; every other field is a JSON number (not a
bool or a string), sigma and h positive and finite, tail_bound, tail_decay
and tail_l2 >= 0; no field is an integer too large for a float; the index
column runs k_min..k_max, or n0..n0 + len - 1, one by one.  A file that
breaks it raises InputFormatError naming the file and the line, the index
of the value or the field (the CLI exits 2).

Output files are UTF-8 whatever the locale.  A row's cells are its index
(``%d``) and float reprs: orjson's shortest round-trip (Ryu) digits, in
repr's notation (rewritten below 1e-4 and from 1e16 on, see _repr_notation),
and ``repr`` itself for nan and +-inf.  Rows end in CRLF.  The '# key=value'
footer lines, ending in LF, echo the library version and the full parameter
set, so runs are reproducible byte for byte.
"""

from __future__ import annotations

import json
import math
import os
import warnings
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .dht import SeqWindow
from .sampling import UniformSamples


class InputFormatError(ValueError):
    """Malformed CSV or sidecar; the message names the offending field."""


def sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".json")


_INTEGER, _BOUND, _POSITIVE = "an integer", "a number >= 0", "a positive finite number"
# the sidecar rule: each field's kind, and the fields a sidecar may leave out
_SAMPLE_FIELDS = {"sigma": _POSITIVE, "h": _POSITIVE, "k_min": _INTEGER, "k_max": _INTEGER,
                  "tail_bound": _BOUND, "tail_decay": _BOUND}
_SEQUENCE_FIELDS = {"n0": _INTEGER, "len": _INTEGER, "tail_l2": _BOUND}
_DEFAULTS = {"tail_decay": 0.0}
_FLOAT_MAX = int(np.finfo(float).max)


def _load_sidecar(csv_path, fields: Dict[str, str]) -> Dict:
    """``fields`` as ints (_INTEGER: a JSON integer or an integral float) or
    floats (a JSON number: >= 0, inf included, for _BOUND; > 0 and finite for
    _POSITIVE); a bool or a string is neither, and NaN is no bound."""
    path = sidecar_path(csv_path)
    if not path.exists():
        required = ", ".join(key for key in fields if key not in _DEFAULTS)
        raise InputFormatError(f"missing sidecar {path} (fields {required})")
    try:
        meta = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # also a byte that is not UTF-8
        raise InputFormatError(f"sidecar {path} is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        got = {list: "an array", str: "a string", bool: "a boolean",
               type(None): "null"}.get(type(meta), "a number")
        raise InputFormatError(f"sidecar {path} must hold a JSON object, got {got}")
    out = {}
    for key, kind in fields.items():
        if key not in meta and key not in _DEFAULTS:
            raise InputFormatError(f"sidecar {path} lacks required field '{key}'")
        value = meta.get(key, _DEFAULTS.get(key))
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        if number and isinstance(value, int) and abs(value) > _FLOAT_MAX:
            raise InputFormatError(
                f"sidecar {path}: field '{key}' is too large for a float")
        if kind == _INTEGER:
            ok = number and (isinstance(value, int) or value.is_integer())
        elif kind == _BOUND:
            ok = number and value >= 0.0
        else:
            ok = number and 0.0 < value < math.inf
        if not ok:
            raise InputFormatError(
                f"sidecar {path}: field '{key}' must be {kind}, got {json.dumps(value)}")
        out[key] = int(value) if kind == _INTEGER else float(value)
    return out


_ROW = np.dtype([("index", np.int64), ("value", np.float64)])


def _load_rows(source, skiprows: int = 0) -> np.ndarray:
    """The rows of ``source`` (a path, or a list of lines) as ``_ROW`` records;
    ValueError on a row that is not 'integer,float'."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "no data", checked by the caller
        return np.loadtxt(source, delimiter=",", comments="#", dtype=_ROW, ndmin=1,
                          skiprows=skiprows, encoding="utf-8")


def _read_window(csv_path, name: str, fields: Dict[str, str], span) -> Tuple[np.ndarray, Dict]:
    """Values and sidecar fields of a file whose header is exactly '<name>,value',
    whose rows are exactly 'integer,float', and whose index column runs from
    ``first`` by ones through ``count`` rows, ``(first, count) = span(fields)``."""
    path = Path(csv_path)
    if not path.exists():
        raise InputFormatError(f"input file {path} does not exist")
    # numpy parses a path in chunks but an open file line by line, so the rows
    # are read from the path: the file is opened twice (a pipe would block),
    # and numpy picks a decompressor by these suffixes
    if not path.is_file():
        raise InputFormatError(f"input file {path} is not a regular file")
    if path.suffix in (".gz", ".bz2", ".xz", ".lzma"):
        raise InputFormatError(
            f"input file {path}: a '{path.suffix}' name is read as compressed; "
            "the reader takes plain text only")
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header, skip = fh.readline(), 1
            while header.startswith("#"):
                header, skip = fh.readline(), skip + 1
        if [c.strip() for c in header.split(",")] != [name, "value"]:
            raise InputFormatError(
                f"{path}: expected header '{name},value', got {header.strip()!r}")
        try:
            table = _load_rows(path, skip)
        except ValueError as exc:
            raise InputFormatError(
                f"{_bad_row_at(path, skip)}: bad row, expected 'integer,float'") from exc
    except UnicodeDecodeError as exc:  # from the header read, numpy or _bad_row_at
        raise InputFormatError(f"{_undecodable_at(path)}: not UTF-8 text") from exc
    if table.size == 0:
        raise InputFormatError(f"{path}: no data rows")
    meta = _load_sidecar(path, fields)
    (first, count), index = span(meta), table["index"]
    if count != index.size or index[0] != first or not np.array_equal(
            index, np.arange(first, first + count)):
        raise InputFormatError(
            f"{path}: '{name}' column must run {first}..{first + count - 1} contiguously")
    finite = np.isfinite(table["value"])
    if not finite.all():
        row = table[np.argmin(finite)]  # the first row that is not finite
        raise InputFormatError(
            f"{path}: value at {name}={row['index']} is {float(row['value'])!r}, not finite")
    return table["value"], meta


def _bad_row_at(path: Path, skip: int) -> str:
    """'file:line' of the first row after the ``skip`` header lines that
    ``_load_rows`` refuses, for a file it refused.  The parser itself judges
    the rows, each on its own (the dtype fixes two cells), halving the span
    that holds the first refused row."""
    with open(path, encoding="utf-8") as fh:  # the newline handling numpy opens a path with
        lines = fh.readlines()[skip:]
    good, bad = 0, len(lines)  # lines[:good] load; lines[:bad] are refused
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _load_rows(lines[good:mid])
            good = mid
        except ValueError:
            bad = mid
    return f"{path}:{skip + bad}"


def _undecodable_at(path: Path) -> str:
    """'file:line' of the first byte of ``path`` that is not UTF-8 (lines end at LF, CRLF or CR)."""
    data = path.read_bytes()
    try:
        data.decode("utf-8")
        return str(path)
    except UnicodeDecodeError as exc:
        return f"{path}:{len((data[:exc.start] + b'.').splitlines())}"


def read_samples(csv_path) -> UniformSamples:
    values, meta = _read_window(csv_path, "k", _SAMPLE_FIELDS,
                                lambda m: (m["k_min"], m["k_max"] - m["k_min"] + 1))
    return UniformSamples(values=values, **meta)


def read_sequence(csv_path) -> SeqWindow:
    values, meta = _read_window(csv_path, "n", _SEQUENCE_FIELDS,
                                lambda m: (m["n0"], m["len"]))
    return SeqWindow(n0=meta["n0"], values=values, tail_l2=meta["tail_l2"])


_WRITE_BLOCK = 4096


_COMMA, _MINUS, _E, _DOT, _GAP = b",-e.~"
#: mark bytes, none of which orjson writes, and what bytes.replace grows each into
_MARKS = {b"$": b"e+", b"#": b"-0", b"!": b"e-05,"}
_E_PLUS, _MINUS_ZERO, _E_05 = b"$#!"


def _repr_notation(col: np.ndarray, body: bytes) -> bytes:
    """orjson's comma-separated tokens of the float64 array ``col``, in
    repr's notation.

    Both print a float's shortest round-trip digits; the notation differs
    below 1e-4 and from 1e16 on, where orjson writes ``0.00001234``, ``1e-6``
    and ``1e16`` for repr's ``1.234e-05``, ``1e-06`` and ``1e+16``.  Array
    operations overwrite one byte with a mark where bytes go in, and with
    _GAP where they drop out; one ``bytes.replace`` per mark then grows the
    marks.  No token is handled on its own: on a two-core x86-64 host a
    block of 4096 values below 1e-4 became cells in 0.5-0.8 ms against
    0.3 ms for values in range, and in about 4 ms with a ``repr`` per cell.
    ``null`` (nan and +-inf) stays as it is.
    """
    b = np.frombuffer(bytearray(body + b","), np.uint8)  # every token ends in a comma
    # exponents: 1e16 -> 1e+16, 1e-6 -> 1e-06
    e = np.flatnonzero(b == _E)
    neg = b[e + 1] == _MINUS
    b[e[~neg]] = _E_PLUS
    b[e[neg & (b[e + 3] == _COMMA)] + 1] = _MINUS_ZERO
    # 1e-5 <= |x| < 1e-4, and no other value, orjson writes [-]0.0000dD:
    # d moves left over a zero, the point follows it unless D is empty,
    # 0.000 drops out and the comma grows into e-05,
    i = np.flatnonzero((np.abs(col) >= 1e-5) & (np.abs(col) < 1e-4))
    if i.size:
        end = np.flatnonzero(b == _COMMA)
        p = np.r_[0, end[:-1] + 1][i] + np.signbit(col[i])
        b[p + 5] = b[p + 6]
        b[p + 6] = np.where(b[p + 7] == _COMMA, _GAP, _DOT)
        b[p[:, None] + np.arange(5)] = _GAP
        b[end[i]] = _E_05
        b = b[b != _GAP]
    out = b.tobytes()
    for mark, grown in _MARKS.items():
        out = out.replace(mark, grown)
    return out[:-1]


def _cells(col: np.ndarray) -> List[bytes]:
    """One CSV cell per entry of a 1-D array: an integer as ``%d``, a float as
    the repr of its float64 value, from orjson's digits in repr's notation
    (:func:`_repr_notation`).  orjson writes nan and +-inf as ``null``, so
    those cells are repr."""
    import orjson  # here, not at import: its uuid and zoneinfo cost milliseconds
    if col.dtype == object:  # an index column past int64, which orjson refuses
        return [b"%d" % n for n in col.tolist()]
    floats = col.dtype.kind == "f"
    if floats:
        col = col.astype(np.float64, copy=False)
    body = orjson.dumps(np.ascontiguousarray(col), option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]
    if not floats:
        return body.split(b",")
    cells = _repr_notation(col, body).split(b",")
    off = np.flatnonzero(~np.isfinite(col))
    for i, x in zip(off.tolist(), col[off].tolist()):
        cells[i] = repr(x).encode()
    return cells


def _encode(text: str) -> bytes:
    """UTF-8 whatever the locale; an argv byte the locale could not decode
    goes back out as that byte."""
    return text.encode("utf-8", "surrogateescape")


def _output(csv_path) -> Path:
    """The path of an output file, checked before any writer opens it.  A
    path whose last part is empty, '.' or '..' ('/', 'foo/', 'foo/.', '..')
    names no file: a ValueError naming it as given, where Path would read
    'foo/' and 'foo/.' as the file 'foo'."""
    if os.path.basename(os.fspath(csv_path)) in ("", ".", ".."):
        raise ValueError(f"output {str(csv_path)!r} names no file: give the output a file name")
    return Path(csv_path)


def write_table(csv_path, header: List[str], columns, footer: Optional[Dict] = None) -> None:
    """Header, one row of cells (``_cells``) per entry of the equal-length
    ``columns``, footer.  Rows end in CRLF, as csv.writer ends them, and go
    out one block of _WRITE_BLOCK per write, so no whole-file string is held.
    The footer is encoded before the file is opened, so a footer that cannot
    be encoded leaves no half-written file."""
    tail = _encode(_footer_text(footer))
    with open(_output(csv_path), "wb") as fh:
        fh.write(_encode(",".join(header)) + b"\r\n")
        for lo in range(0, len(columns[0]), _WRITE_BLOCK):
            rows = zip(*(_cells(c[lo:lo + _WRITE_BLOCK]) for c in columns))
            fh.write(b"\r\n".join(map(b",".join, rows)) + b"\r\n")
        fh.write(tail)


def _write_window(csv_path, name: str, first: int, values, footer, meta: Dict) -> None:
    """The CSV and its sidecar as a pair: the sidecar is opened, and so
    emptied, first and written last, so a sidecar that parses describes a
    complete CSV.  A path with no file name (_output) or that is its own
    sidecar (.json) is a ValueError naming it."""
    side = sidecar_path(_output(csv_path))
    if side == Path(csv_path):
        raise ValueError(f"{side} would be its own sidecar: give the output another suffix")
    last = first + values.size - 1
    # np.arange gives float64 on [2^63, 2^64): past int64 the cells are Python ints
    indices = (np.arange(first, last + 1, dtype=np.int64) if -2 ** 63 <= first and last < 2 ** 63
               else np.array(range(first, last + 1), dtype=object))
    with open(side, "w", encoding="utf-8") as fh:
        write_table(csv_path, [name, "value"], (indices, values), footer)
        fh.write(json.dumps(meta, indent=2) + "\n")


def write_samples(csv_path, s: UniformSamples, footer: Optional[Dict] = None) -> None:
    meta = {key: getattr(s, key) for key in _SAMPLE_FIELDS}
    _write_window(csv_path, "k", s.k_min, s.values, footer, meta)


def write_sequence(csv_path, a: SeqWindow, footer: Optional[Dict] = None) -> None:
    meta = {"n0": a.n0, "len": len(a), "tail_l2": a.tail_l2}
    _write_window(csv_path, "n", a.n0, a.values, footer, meta)


def _footer_text(footer: Optional[Dict]) -> str:
    """A '# key=value' line, ending in LF, per footer entry."""
    lines = []
    for key, value in (footer or {}).items():
        if isinstance(value, float) and not math.isfinite(value):
            value = repr(value)
        lines.append(f"# {key}={value}\n")
    return "".join(lines)


def read_footer(csv_path) -> Dict[str, str]:
    out: Dict[str, str] = {}
    with open(Path(csv_path), encoding="utf-8", errors="surrogateescape") as fh:
        for line in fh:
            if line.startswith("# ") and "=" in line:
                key, _, value = line[2:].strip().partition("=")
                out[key] = value
    return out
