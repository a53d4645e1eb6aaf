"""CSV + JSON-sidecar file formats.

Two payload kinds share the same convention: a CSV with a one-line header and
a sidecar JSON next to it (same path, .json extension) carrying the
certificate metadata.

Function samples:   CSV header  k,value      sidecar {sigma, h, k_min, k_max,
                    tail_bound[, tail_decay]}
Sequence windows:   CSV header  n,value      sidecar {n0, len, tail_l2}

Only lines that start with '#' may come before the header; after it, '#'
starts a comment anywhere on a line, and lines may end in LF, CRLF or CR.
The input is a regular file of UTF-8 text: a path that is not a regular file
(a directory, a device, a named pipe), a name ending in .gz, .bz2, .xz or
.lzma (which numpy would open as compressed) or a byte that is not UTF-8 is refused.

The contract a file must meet to be read: the header and every row are
exactly two cells, a row an integer index and a float value as numpy's
parser reads them (ASCII digits, no '_' or '0x'); the sidecar is
a JSON object; the index fields (k_min, k_max, n0, len) are JSON integers or
integral floats; every other field is a JSON number (not a bool or a
string), and sigma and h are finite; no field is an integer too large for a
float; the index column runs k_min..k_max, or n0..n0 + len - 1, one by one.
A file that breaks it raises InputFormatError naming the line or the field
(the CLI exits 2).

Output files append '# key=value' footer comments echoing the library version
and the full parameter set, so runs are reproducible byte for byte.
"""

from __future__ import annotations

import json
import math
import warnings
from itertools import chain
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from .dht import SeqWindow
from .sampling import UniformSamples


class InputFormatError(ValueError):
    """Malformed CSV or sidecar; the message names the offending field."""


def sidecar_path(csv_path) -> Path:
    return Path(csv_path).with_suffix(".json")


_INTEGER, _NUMBER, _FINITE = "an integer", "a number", "a finite number"
# the sidecar rule: each field's kind, and the fields a sidecar may leave out
_SAMPLE_FIELDS = {"sigma": _FINITE, "h": _FINITE, "k_min": _INTEGER, "k_max": _INTEGER,
                  "tail_bound": _NUMBER, "tail_decay": _NUMBER}
_SEQUENCE_FIELDS = {"n0": _INTEGER, "len": _INTEGER, "tail_l2": _NUMBER}
_DEFAULTS = {"tail_decay": 0.0}
_FLOAT_MAX = int(np.finfo(float).max)


def _load_sidecar(csv_path, fields: Dict[str, str]) -> Dict:
    """``fields`` as ints (_INTEGER: a JSON integer or an integral float) or
    floats (a JSON number, finite for _FINITE); a bool or a string is neither."""
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
        else:
            ok = number and (kind == _NUMBER or math.isfinite(value))
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


def _write_rows(csv_path, header: List[str], row_template: str, columns,
                footer: Optional[Dict]) -> None:
    """Header, one ``row_template % cells`` row per entry of the equal-length
    arrays ``columns``, footer.  A float cell is its repr (``%r`` of a Python
    float) and needs no quoting; rows end in CRLF, as csv.writer ends them,
    and go out one block of _WRITE_BLOCK per write, so no whole-file string
    is held."""
    with open(Path(csv_path), "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(columns[0]), _WRITE_BLOCK):
            cells = [c[lo:lo + _WRITE_BLOCK].tolist() for c in columns]
            # one format call per block: the template once per row, the cells row by row
            fh.write((row_template * len(cells[0])) % tuple(chain.from_iterable(zip(*cells))))
        _write_footer(fh, footer)


def _write_window(csv_path, name: str, first: int, values, footer, meta: Dict) -> None:
    indices = np.arange(first, first + values.size)
    _write_rows(csv_path, [name, "value"], "%d,%r\r\n", (indices, values), footer)
    sidecar_path(csv_path).write_text(json.dumps(meta, indent=2) + "\n")


def write_samples(csv_path, s: UniformSamples, footer: Optional[Dict] = None) -> None:
    meta = {key: getattr(s, key) for key in _SAMPLE_FIELDS}
    _write_window(csv_path, "k", s.k_min, s.values, footer, meta)


def write_sequence(csv_path, a: SeqWindow, footer: Optional[Dict] = None) -> None:
    meta = {"n0": a.n0, "len": len(a), "tail_l2": a.tail_l2}
    _write_window(csv_path, "n", a.n0, a.values, footer, meta)


def write_table(csv_path, header: List[str], columns, footer: Optional[Dict] = None) -> None:
    """Header, a CRLF row of float reprs per entry of the three equal-length
    ``columns`` (x, value, tail), footer."""
    _write_rows(csv_path, header, "%r,%r,%r\r\n", columns, footer)


def _write_footer(fh, footer: Optional[Dict]) -> None:
    if not footer:
        return
    for key in footer:
        value = footer[key]
        if isinstance(value, float) and not math.isfinite(value):
            value = repr(value)
        fh.write(f"# {key}={value}\n")


def read_footer(csv_path) -> Dict[str, str]:
    out: Dict[str, str] = {}
    with open(Path(csv_path)) as fh:
        for line in fh:
            if line.startswith("# ") and "=" in line:
                key, _, value = line[2:].strip().partition("=")
                out[key] = value
    return out
