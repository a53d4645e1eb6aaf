"""Golden hashes of the CLI's outputs on small seeded fixtures.

``test_golden.py`` runs the commands below and compares each output with
``golden.json``.  One entry hashes a command's exit code, its standard
output, its output CSV without the '# input=' footer line (which names a
temporary path) and the CSV's sidecar when there is one.

Rewrite the file from the root of a checkout, only where a change moves an
output on purpose (and say which outputs moved, and why):

    PYTHONPATH=src python tests/make_golden.py

The hashes pin the toolchain as well as the code: they were taken under
Python 3.11 and numpy 2.4, and another numpy or libm may round a sine or a
sum differently.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path
from typing import Dict, List

import numpy as np

from bandlimit.cli import main
from bandlimit.dht import SeqWindow
from bandlimit.sampling import UniformSamples, make_reference
from bandlimit.seqio import sidecar_path, write_samples, write_sequence

GOLDEN = Path(__file__).with_name("golden.json")

SUITES = ("favard", "pp", "lks", "bernstein", "group", "dht-law")


def write_fixtures(root: Path) -> None:
    """2 001 samples of the Fejer kernel at the critical rate (with its decay
    certificate) and of an oversampled sine, and a 33-entry seeded window."""
    half = 1000
    write_samples(root / "fejer.csv", UniformSamples.from_function(
        make_reference("fejer", 1.0), math.pi, -half, half))
    write_samples(root / "sine.csv", UniformSamples.from_function(
        make_reference("sin", 1.0, phase=0.3), math.pi / 2, -half, half))
    values = np.random.default_rng(0).standard_normal(33)
    write_sequence(root / "seq.csv", SeqWindow(n0=-16, values=values))


def commands() -> Dict[str, List[str]]:
    """name -> argv, with '{in}' for the input file's directory."""
    out: Dict[str, List[str]] = {}
    for name in ("fejer", "sine"):
        src = ["--input", f"{{in}}/{name}.csv"]
        out[f"reconstruct {name}"] = ["reconstruct", *src]
        for r in (1, 2, 3):
            out[f"differentiate {name} r={r}"] = ["differentiate", *src, "--order", str(r)]
    # many critical-rate points: each output spans many blocks of rows
    many = ["--input", "{in}/fejer.csv", "--num", "1500"]
    out["reconstruct fejer num=1500"] = ["reconstruct", *many]
    out["differentiate fejer r=2 num=1500"] = ["differentiate", *many, "--order", "2"]
    seq = ["--input", "{in}/seq.csv", "--expand", "200"]
    for action in ("apply", "orbit", "vt"):
        out[f"dht {action}"] = ["dht", "--action", action, "--t", "0.3", *seq]
    for r in (1, 2):
        out[f"dht power r={r}"] = ["dht", "--action", "power", "--order", str(r), *seq]
    # the window rule's edges: no growth, and the exact integer dispatch
    bare = ["--input", "{in}/seq.csv"]
    out["dht apply expand=0"] = ["dht", "--action", "apply", *bare, "--expand", "0"]
    out["dht orbit expand=0"] = ["dht", "--action", "orbit", "--t", "0.3", *bare, "--expand", "0"]
    out["dht orbit t=2"] = ["dht", "--action", "orbit", "--t", "2", *bare]
    for suite in SUITES:
        out[f"verify {suite}"] = ["verify", "--suite", suite]
    # the JSON form, of a suite that runs and of one that is skipped ("checks": [])
    out["verify favard json"] = ["verify", "--suite", "favard", "--format", "json"]
    out["verify pp h=4 json"] = ["verify", "--suite", "pp", "--h", "4", "--format", "json"]
    return out


def digest(argv: List[str], root: Path) -> str:
    """sha256 of one command's exit code, stdout, CSV body and sidecar."""
    argv = [a.replace("{in}", str(root)) for a in argv]
    dst = root / "out.csv"
    if argv[0] != "verify":
        argv += ["--output", str(dst)]
    for path in (dst, sidecar_path(dst)):
        path.unlink(missing_ok=True)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    h = hashlib.sha256(f"exit={code}\n".encode())
    h.update(stdout.getvalue().encode())
    if dst.exists():
        h.update(b"".join(line for line in dst.read_bytes().splitlines(keepends=True)
                          if not line.startswith(b"# input=")))
    if sidecar_path(dst).exists():
        h.update(sidecar_path(dst).read_bytes())
    return h.hexdigest()


def golden_hashes(root: Path) -> Dict[str, str]:
    write_fixtures(root)
    return {name: digest(argv, root) for name, argv in commands().items()}


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        hashes = golden_hashes(Path(tmp))
    GOLDEN.write_text(json.dumps(hashes, indent=2) + "\n")
    print(f"wrote {len(hashes)} hashes to {GOLDEN}")
