"""CSV + JSON-sidecar file formats.

Two payload kinds share the same convention: a CSV with a one-line header and
a sidecar JSON next to it (same path, .json extension) carrying the
certificate metadata.

Function samples:   CSV header  k,value      sidecar {sigma, h, k_min, k_max,
                    tail_bound[, tail_decay]}
Sequence windows:   CSV header  n,value      sidecar {n0, len, tail_l2}

Output files append '# key=value' footer comments echoing the library version
and the full parameter set, so runs are reproducible byte for byte.
"""

from __future__ import annotations

import json
import math
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


def _load_sidecar(csv_path, required: Tuple[str, ...]) -> Dict:
    path = sidecar_path(csv_path)
    if not path.exists():
        raise InputFormatError(f"missing sidecar {path} (fields {', '.join(required)})")
    try:
        meta = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"sidecar {path} is not valid JSON: {exc}") from exc
    for key in required:
        if key not in meta:
            raise InputFormatError(f"sidecar {path} lacks required field '{key}'")
    return meta


_ROW = np.dtype([("index", np.int64), ("value", np.float64)])


def _read_two_column_csv(csv_path, index_name: str) -> Tuple[np.ndarray, np.ndarray]:
    path = Path(csv_path)
    if not path.exists():
        raise InputFormatError(f"input file {path} does not exist")
    with open(path, newline="") as fh:
        header = fh.readline()
        while header.startswith("#"):
            header = fh.readline()
        if [c.strip() for c in header.split(",")[:2]] != [index_name, "value"]:
            raise InputFormatError(
                f"{path}: expected header '{index_name},value', got {header.strip()!r}")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # "no data", checked below
                table = np.loadtxt(fh, delimiter=",", comments="#", dtype=_ROW,
                                   usecols=(0, 1), ndmin=1)
        except ValueError as exc:
            raise InputFormatError(f"{_bad_row_at(path)}: bad row ({exc})") from exc
    if table.size == 0:
        raise InputFormatError(f"{path}: no data rows")
    return table["index"].astype(int), table["value"]


def _bad_row_at(path: Path) -> str:
    """'file:line' of the first data row that is not 'integer,float'."""
    with open(path) as fh:
        rows = [(n, line) for n, line in enumerate(fh, start=1)
                if line.strip() and not line.startswith("#")]
    for lineno, line in rows[1:]:
        cells = line.split("#")[0].split(",")
        try:
            int(cells[0])
            float(cells[1])
        except (ValueError, IndexError):
            return f"{path}:{lineno}"
    return str(path)


def read_samples(csv_path) -> UniformSamples:
    ks, vals = _read_two_column_csv(csv_path, "k")
    meta = _load_sidecar(csv_path, ("sigma", "h", "k_min", "k_max", "tail_bound"))
    k_min, k_max = int(meta["k_min"]), int(meta["k_max"])
    if ks[0] != k_min or ks[-1] != k_max or not np.array_equal(ks, np.arange(k_min, k_max + 1)):
        raise InputFormatError(f"{csv_path}: 'k' column must run {k_min}..{k_max} contiguously")
    return UniformSamples(sigma=float(meta["sigma"]), h=float(meta["h"]),
                          k_min=k_min, k_max=k_max, values=vals,
                          tail_bound=float(meta["tail_bound"]),
                          tail_decay=float(meta.get("tail_decay", 0.0)))


_WRITE_BLOCK = 4096


def _write_indexed(csv_path, index_name: str, start: int, values: np.ndarray,
                   footer: Optional[Dict], meta: Dict) -> None:
    """Header, one 'index,repr(value)' row per entry from ``start`` on, the
    footer, and the sidecar.  Rows end in CRLF, as csv.writer ends them, and
    neither an integer nor a float repr needs quoting.  Rows go out one
    block of _WRITE_BLOCK per write, so no whole-file string is held."""
    path = Path(csv_path)
    with open(path, "w", newline="") as fh:
        fh.write(f"{index_name},value\r\n")
        for lo in range(0, values.size, _WRITE_BLOCK):
            block = values[lo:lo + _WRITE_BLOCK].tolist()
            fh.write("".join(f"{n},{v!r}\r\n" for n, v in enumerate(block, start + lo)))
        _write_footer(fh, footer)
    sidecar_path(path).write_text(json.dumps(meta, indent=2) + "\n")


def write_samples(csv_path, s: UniformSamples, footer: Optional[Dict] = None) -> None:
    meta = {"sigma": s.sigma, "h": s.h, "k_min": s.k_min, "k_max": s.k_max,
            "tail_bound": s.tail_bound, "tail_decay": s.tail_decay}
    _write_indexed(csv_path, "k", s.k_min, s.values, footer, meta)


def read_sequence(csv_path) -> SeqWindow:
    ns, vals = _read_two_column_csv(csv_path, "n")
    meta = _load_sidecar(csv_path, ("n0", "len", "tail_l2"))
    n0, length = int(meta["n0"]), int(meta["len"])
    if length != vals.size or ns[0] != n0 or not np.array_equal(ns, np.arange(n0, n0 + length)):
        raise InputFormatError(f"{csv_path}: 'n' column must run {n0}..{n0 + length - 1}")
    return SeqWindow(n0=n0, values=vals, tail_l2=float(meta["tail_l2"]))


def write_sequence(csv_path, a: SeqWindow, footer: Optional[Dict] = None) -> None:
    meta = {"n0": a.n0, "len": len(a), "tail_l2": a.tail_l2}
    _write_indexed(csv_path, "n", a.n0, a.values, footer, meta)


def write_table(csv_path, header: List[str], rows, footer: Optional[Dict] = None) -> None:
    """Header, a CRLF row of reprs per (x, value, tail) of floats, footer."""
    with open(Path(csv_path), "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join(f"{x!r},{v!r},{t!r}\r\n" for x, v, t in rows))
        _write_footer(fh, footer)


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
