"""The file layer's contract: the row writer's bytes, and the refusals of the
reader (two cells per header and per row, typed sidecar fields)."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from bandlimit.cli import main
from bandlimit.dht import SeqWindow
from bandlimit.sampling import UniformSamples, make_reference
from bandlimit.seqio import (
    InputFormatError,
    read_samples,
    read_sequence,
    sidecar_path,
    write_samples,
    write_sequence,
    write_table,
)

PI = math.pi


# ---------------------------------------------------------------------------
# the writer, against the f-string loops it replaced
# ---------------------------------------------------------------------------

def _footer_reference(fh, footer):
    if not footer:
        return
    for key in footer:
        value = footer[key]
        if isinstance(value, float) and not math.isfinite(value):
            value = repr(value)
        fh.write(f"# {key}={value}\n")


def indexed_reference(path, index_name, start, values, footer):
    """The sample and sequence row loop as it was written with f-strings."""
    with open(path, "w", newline="") as fh:
        fh.write(f"{index_name},value\r\n")
        for lo in range(0, values.size, 4096):
            block = values[lo:lo + 4096].tolist()
            fh.write("".join(f"{n},{v!r}\r\n" for n, v in enumerate(block, start + lo)))
        _footer_reference(fh, footer)


def table_reference(path, header, rows, footer):
    """The table row loop as it was written with f-strings, over row tuples."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.write("".join(f"{x!r},{v!r},{t!r}\r\n" for x, v, t in rows))
        _footer_reference(fh, footer)


FINITE_SPECIALS = [-0.0, 5e-324, -5e-324, 1e16, 1e-05, 0.1, 1e300, -1e300, 0.0, 1.0]
SPECIALS = FINITE_SPECIALS + [math.inf, -math.inf, math.nan]
SIZES = [0, 1, 4095, 4096, 4097, 20_033]
FOOTER = {"version": "x", "tol": 0.001, "max_tail": math.inf}


# orjson's notation is repr's for 0 and 1e-4 <= |x| < 1e16 and is rewritten outside:
# both sides of both bounds
RYU_EDGES = [np.nextafter(1e-4, 0), 1e-4, -np.nextafter(1e-4, 1), np.nextafter(1e16, 0),
             -1e16, np.nextafter(1e16, np.inf), 0.0, -0.0, 100.0, 1e15, -1.0]


def _values(n, specials, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    return _with_specials(vals, specials)


def _ryu_values(n, seed):
    """Mostly values in [1e-4, 1e16): standard normals, a 1/m decay (below
    1e-4 past m = 10 000) and integral floats, the RYU_EDGES at both ends."""
    rng = np.random.default_rng(seed)
    m = np.arange(1, n + 1)
    integral = np.round(rng.standard_normal(n) * 10.0 ** rng.integers(0, 16, n))
    vals = np.choose(rng.integers(0, 3, n), [rng.standard_normal(n), (-1.0) ** m / m, integral])
    return _with_specials(vals, RYU_EDGES)


def _with_specials(vals, specials):
    n = vals.size
    k = min(n, len(specials))
    vals[:k] = specials[:k]
    vals[n - k:] = specials[len(specials) - k:]  # the tail block sees them too
    return vals


class TestWriterBytes:
    @pytest.mark.parametrize("n", SIZES)
    def test_samples(self, n, tmp_path):
        vals = _values(max(n, 1), FINITE_SPECIALS)[:n]
        if n == 0:
            # an empty window is no UniformSamples; the row writer takes it
            write_table(tmp_path / "new.csv", ["k", "value"], (np.arange(-3, -3), vals), FOOTER)
        else:
            write_samples(tmp_path / "new.csv",
                          UniformSamples(sigma=1.0, h=PI, k_min=-3, k_max=n - 4, values=vals,
                                         tail_bound=1.0, tail_decay=2.0), FOOTER)
            meta = json.loads(sidecar_path(tmp_path / "new.csv").read_text())
            assert meta == {"sigma": 1.0, "h": PI, "k_min": -3, "k_max": n - 4,
                            "tail_bound": 1.0, "tail_decay": 2.0}
        indexed_reference(tmp_path / "old.csv", "k", -3, vals, FOOTER)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("n", SIZES[1:])
    def test_sequence(self, n, tmp_path):
        vals = _values(n, FINITE_SPECIALS, seed=1)
        write_sequence(tmp_path / "new.csv", SeqWindow(n0=7 - n, values=vals, tail_l2=0.5),
                       FOOTER)
        indexed_reference(tmp_path / "old.csv", "n", 7 - n, vals, FOOTER)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert read_sequence(tmp_path / "new.csv").values.tobytes() == vals.tobytes()

    @pytest.mark.parametrize("n", SIZES)
    def test_non_finite_index_rows(self, n, tmp_path):
        # the window types refuse inf and nan; the row writer does not
        vals = _values(n, SPECIALS, seed=2)
        write_table(tmp_path / "new.csv", ["n", "value"], (np.arange(5, 5 + n), vals), FOOTER)
        indexed_reference(tmp_path / "old.csv", "n", 5, vals, FOOTER)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("n", SIZES)
    def test_table(self, n, tmp_path):
        cols = [_values(n, np.roll(SPECIALS, j), seed=3 + j) for j in range(3)]
        write_table(tmp_path / "new.csv", ["x", "value", "tail"], cols, FOOTER)
        rows = list(zip(*(c.tolist() for c in cols)))
        table_reference(tmp_path / "old.csv", ["x", "value", "tail"], rows, FOOTER)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("n", SIZES)
    def test_ryu_range_rows(self, n, tmp_path):
        vals = _ryu_values(n, seed=4)
        write_table(tmp_path / "new.csv", ["n", "value"], (np.arange(-9, n - 9), vals), FOOTER)
        indexed_reference(tmp_path / "old.csv", "n", -9, vals, FOOTER)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("n", SIZES)
    def test_ryu_range_table(self, n, tmp_path):
        # a float32 column writes the repr of its widened double, a strided view its own entries
        cols = [_ryu_values(n, seed=5).astype(np.float32), _ryu_values(2 * n, seed=6)[::2],
                _ryu_values(n, seed=7)]
        write_table(tmp_path / "new.csv", ["x", "value", "tail"], cols, FOOTER)
        rows = list(zip(*(c.tolist() for c in cols)))
        table_reference(tmp_path / "old.csv", ["x", "value", "tail"], rows, FOOTER)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_every_decade(self, tmp_path):
        # each decade from the subnormals up, both signs, with a lone digit,
        # a few digits, 16-17 digits and the neighbours of the power of ten,
        # shuffled so that a block mixes the notations
        tens = 10.0 ** np.arange(-323, 309)
        vals = np.concatenate([tens, 0.3 * tens, 0.25 * tens, tens / 3, np.nextafter(tens, 0),
                               np.nextafter(tens, np.inf), [5e-324, 1.7976931348623157e308]])
        vals = np.concatenate([vals, -vals])
        np.random.default_rng(9).shuffle(vals)
        write_table(tmp_path / "new.csv", ["n", "value"], (np.arange(vals.size), vals), FOOTER)
        indexed_reference(tmp_path / "old.csv", "n", 0, vals, FOOTER)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    @pytest.mark.parametrize("n", SIZES[1:])
    def test_positional_below_1e_4(self, n, tmp_path):
        # [1e-5, 1e-4) is where orjson writes 0.0000dD and repr d.De-05
        rng = np.random.default_rng(10)
        vals = rng.uniform(1e-5, 1e-4, n) * rng.choice([-1.0, 1.0], n)
        vals[::7] = np.round(vals[::7], 5)  # a lone digit: 3e-05
        write_table(tmp_path / "new.csv", ["n", "value"], (np.arange(n), vals), FOOTER)
        indexed_reference(tmp_path / "old.csv", "n", 0, vals, FOOTER)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_index_past_int64(self, tmp_path):
        # a window far out (dht orbit at t = 1e300) indexes its rows by Python ints
        first = -10 ** 300
        vals = _ryu_values(5000, seed=8)
        write_table(tmp_path / "new.csv", ["n", "value"],
                    (np.arange(first, first + vals.size), vals), FOOTER)
        indexed_reference(tmp_path / "old.csv", "n", first, vals, FOOTER)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@settings(max_examples=300, deadline=None)
@given(vals=arrays(np.float64, st.integers(1, 40), elements=st.floats(width=64)))
def test_any_float64_column_writes_its_reprs(vals, tmp_path_factory):
    path = tmp_path_factory.mktemp("any") / "new.csv"
    write_table(path, ["n", "value"], (np.arange(vals.size), vals), None)
    want = "n,value\r\n" + "".join(f"{n},{v!r}\r\n" for n, v in enumerate(vals.tolist()))
    assert path.read_bytes() == want.encode()


# ---------------------------------------------------------------------------
# the reader's refusals
# ---------------------------------------------------------------------------

def _samples_file(tmp_path, k_min=-2000, k_max=2000, h=PI):
    path = tmp_path / "s.csv"
    write_samples(path, UniformSamples.from_function(make_reference("fejer", 1.0),
                                                     h, k_min, k_max))
    return path


def _sequence_file(tmp_path, n0=0, values=(1.0, -2.0)):
    path = tmp_path / "q.csv"
    write_sequence(path, SeqWindow(n0=n0, values=np.array(values)))
    return path


def _patch_sidecar(path, **fields):
    meta = json.loads(sidecar_path(path).read_text())
    meta.update(fields)
    sidecar_path(path).write_text(json.dumps(meta))


def _run(path, tmp_path):
    out = tmp_path / "o.csv"
    if path.name == "q.csv":
        argv = ["dht", "--input", str(path), "--output", str(out), "--expand", "4"]
    else:
        argv = ["reconstruct", "--input", str(path), "--output", str(out), "--num", "5"]
    code = main(argv)
    return code, out


class TestSidecarIndices:
    @pytest.mark.parametrize("k_min", [1.5, True])
    def test_non_integer_k_min_exit_2(self, k_min, tmp_path, capsys):
        # int() read 1.5 and true as 1, the file's first index
        path = _samples_file(tmp_path, k_min=1, k_max=4001, h=1.0)
        _patch_sidecar(path, k_min=k_min)
        code, out = _run(path, tmp_path)
        assert code == 2 and not out.exists()
        assert "'k_min'" in capsys.readouterr().err

    def test_non_integer_sequence_fields_exit_2(self, tmp_path, capsys):
        # int() read n0 = 0.9, len = 2.5 as the window 0..1
        path = _sequence_file(tmp_path)
        _patch_sidecar(path, n0=0.9, len=2.5)
        code, out = _run(path, tmp_path)
        assert code == 2 and not out.exists()
        assert "'n0'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["samples", "sequence"])
    def test_index_column_must_run_contiguously(self, kind, tmp_path, capsys):
        # first index and row count match the sidecar, but one index repeats
        if kind == "samples":
            path, read, name = _samples_file(tmp_path, k_min=3, k_max=4003, h=1.0), read_samples, "k"
        else:
            path, read, name = _sequence_file(tmp_path, values=(1.0, -2.0, 3.0)), read_sequence, "n"
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = lines[2].split(",")[0] + "," + lines[3].split(",")[1]
        path.write_text("".join(lines))
        first, last = (3, 4003) if kind == "samples" else (0, 2)
        message = f"'{name}' column must run {first}..{last} contiguously"
        with pytest.raises(InputFormatError, match=message):
            read(path)
        code, out = _run(path, tmp_path)
        assert code == 2 and not out.exists()
        assert message in capsys.readouterr().err

    def test_integral_floats_stay_accepted(self, tmp_path):
        path = _samples_file(tmp_path, k_min=3, k_max=4003, h=1.0)
        _patch_sidecar(path, k_min=3.0, k_max=4003.0)
        s = read_samples(path)
        assert (s.k_min, s.k_max) == (3, 4003) and type(s.k_min) is int
        seq = _sequence_file(tmp_path, n0=-1)
        _patch_sidecar(seq, n0=-1.0, len=2.0)
        a = read_sequence(seq)
        assert (a.n0, len(a)) == (-1, 2) and type(a.n0) is int


class TestSidecarNumbers:
    @pytest.mark.parametrize("field, value", [
        ("h", True), ("sigma", "0.5"), ("tail_decay", "2"), ("tail_bound", "1"),
        ("sigma", math.inf), ("h", math.inf), ("sigma", None)])
    def test_samples_exit_2_naming_the_field(self, field, value, tmp_path, capsys):
        # the strings and the bool were read by float(); sigma = Infinity exited 3,
        # "undersampled"
        path = _samples_file(tmp_path, h=1.0)
        _patch_sidecar(path, **{field: value})
        code, out = _run(path, tmp_path)
        assert code == 2 and not out.exists()
        assert f"field '{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", False])
    def test_sequence_tail_exit_2_naming_the_field(self, value, tmp_path, capsys):
        path = _sequence_file(tmp_path)
        _patch_sidecar(path, tail_l2=value)
        code, out = _run(path, tmp_path)
        assert code == 2 and not out.exists()
        assert "field 'tail_l2'" in capsys.readouterr().err

    def test_integer_numbers_stay_accepted(self, tmp_path):
        path = _samples_file(tmp_path, h=1.0)
        _patch_sidecar(path, sigma=1, h=1, tail_bound=1, tail_decay=0)
        s = read_samples(path)
        assert (s.sigma, s.h, s.tail_bound, s.tail_decay) == (1.0, 1.0, 1.0, 0.0)
        assert all(type(v) is float for v in (s.sigma, s.h, s.tail_bound, s.tail_decay))


class TestTwoCells:
    @pytest.mark.parametrize("kind", ["samples", "sequence"])
    def test_header_with_a_third_cell_exit_2(self, kind, tmp_path, capsys):
        path = _samples_file(tmp_path) if kind == "samples" else _sequence_file(tmp_path)
        name = "k" if kind == "samples" else "n"
        text = path.read_text()
        path.write_text(text.replace(f"{name},value", f"{name},value,x", 1))
        code, out = _run(path, tmp_path)
        assert code == 2 and not out.exists()
        assert "expected header" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [",junk", ",0.5", ","])
    def test_row_with_a_third_cell_exit_2(self, extra, tmp_path, capsys):
        path = _samples_file(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        lines[10] = lines[10].rstrip("\n") + extra + "\n"
        path.write_text("".join(lines))
        code, out = _run(path, tmp_path)
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert f"{path}:11: bad row" in err
        assert "usecols" not in err

    def test_sequence_row_with_a_third_cell_exit_2(self, tmp_path, capsys):
        path = _sequence_file(tmp_path, values=(1.0, -2.0, 0.5))
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2].rstrip("\n") + ",junk\n"
        path.write_text("".join(lines))
        code, out = _run(path, tmp_path)
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert f"{path}:3: bad row" in err and "usecols" not in err

    def test_row_with_one_cell_names_its_line(self, tmp_path, capsys):
        path = _samples_file(tmp_path)
        lines = path.read_text().splitlines(keepends=True)
        lines[10] = lines[10].split(",")[0] + "\n"
        path.write_text("".join(lines))
        assert _run(path, tmp_path)[0] == 2
        err = capsys.readouterr().err
        assert f"{path}:11: bad row" in err and "usecols" not in err

    @pytest.mark.parametrize("cell", ["1_0", "1e5_0", "١"])
    @pytest.mark.parametrize("column", [0, 1])
    def test_cell_python_reads_but_numpy_refuses_names_its_line(self, cell, column, tmp_path,
                                                                capsys):
        # int() and float() read 1_0 as 10 and the Arabic-Indic digit one as 1
        path = _samples_file(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        cells = lines[2].rstrip("\n").split(",")
        cells[column] = cell
        lines[2] = ",".join(cells) + "\n"
        path.write_text("".join(lines), encoding="utf-8")
        assert _run(path, tmp_path)[0] == 2
        assert f"{path}:3: bad row" in capsys.readouterr().err


class TestLineLayout:
    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    @pytest.mark.parametrize("kind", ["samples", "sequence"])
    def test_comments_and_line_ends_read_the_plain_values(self, kind, eol, tmp_path, capsys):
        plain = _samples_file(tmp_path) if kind == "samples" else _sequence_file(
            tmp_path, n0=-3, values=(0.1, -2.5, 1e-300, 7.0))
        read = read_samples if kind == "samples" else read_sequence
        expected = read(plain).values.tobytes()
        header, *rows = plain.read_text().splitlines()
        lead, footer = ["# made by hand", "#", "# key=value"], ["# version=x", "# tol=0.001"]
        layouts = {
            "lead": lead + [header] + rows,
            "note": [header] + [row + "  # note" for row in rows],
            "footer": [header] + rows + footer,
            "all": lead + [header, rows[0] + " # first"] + rows[1:] + footer,
        }
        for name, lines in layouts.items():
            path = tmp_path / f"{name}.csv"
            path.write_bytes(eol.join(lines + [""]).encode())
            sidecar_path(path).write_bytes(sidecar_path(plain).read_bytes())
            assert read(path).values.tobytes() == expected, name
        # a header, after comment lines, and no rows: exit 2 as before
        path = tmp_path / ("q.csv" if kind == "sequence" else "s.csv")
        path.write_bytes(eol.join(lead + [header] + footer + [""]).encode())
        code, out = _run(path, tmp_path)
        assert code == 2 and not out.exists()
        assert f"{path}: no data rows" in capsys.readouterr().err


class TestPaths:
    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_with_a_compressed_suffix_exit_2(self, suffix, tmp_path, capsys):
        # numpy picks a decompressor by the suffix of a path it is handed
        path = _samples_file(tmp_path)
        named = path.rename(path.with_suffix(suffix))
        out = tmp_path / "o.csv"
        code = main(["reconstruct", "--input", str(named), "--output", str(out), "--num", "5"])
        assert code == 2 and not out.exists()
        err = capsys.readouterr().err
        assert str(named) in err and "internal" not in err

    def test_device_is_not_a_regular_file_exit_2(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        code = main(["reconstruct", "--input", "/dev/null", "--output", str(out), "--num", "5"])
        assert code == 2 and not out.exists()
        assert "input file /dev/null is not a regular file" in capsys.readouterr().err


class TestNotUtf8:
    """A byte that is not UTF-8 exits 2 naming the line that holds it: met by
    the header read (in the file's first block), by numpy (past it), in a
    trailing comment or in a '#' line before the header."""

    @pytest.mark.parametrize("eol", [b"\n", b"\r\n", b"\r"])
    @pytest.mark.parametrize("kind", ["samples", "sequence"])
    @pytest.mark.parametrize("case", ["row", "late row", "note", "lead"])
    def test_byte_that_is_not_utf8_names_its_line(self, case, kind, eol, tmp_path, capsys):
        path = _samples_file(tmp_path) if kind == "samples" else _sequence_file(
            tmp_path, values=np.arange(3000.0))
        lines = path.read_bytes().splitlines()
        at = {"row": 2, "late row": 2500, "note": 3, "lead": 0}[case]
        if case == "lead":
            lines.insert(0, b"# made by \xff")
        else:
            lines[at] += b"  # note \xff" if case == "note" else b"\xff"
        path.write_bytes(eol.join(lines) + eol)
        code, out = _run(path, tmp_path)
        assert code == 2 and not out.exists()
        assert f"input error: {path}:{at + 1}: not UTF-8 text" in capsys.readouterr().err

    def test_sidecar_byte_that_is_not_utf8_names_the_sidecar(self, tmp_path, capsys):
        path = _samples_file(tmp_path)
        sidecar_path(path).write_bytes(b'{"sigma": 1.0, \xff}')
        code, out = _run(path, tmp_path)
        assert code == 2 and not out.exists()
        assert f"input error: sidecar {sidecar_path(path)} is not valid JSON" in (
            capsys.readouterr().err)

    def test_utf8_in_comments_reads(self, tmp_path):
        path = _samples_file(tmp_path)
        expected = read_samples(path).values.tobytes()
        lines = path.read_bytes().splitlines()
        lines = ["# σ = 1, h = π".encode()] + lines[:5] + [lines[5] + " # ü".encode()] + lines[6:]
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert read_samples(path).values.tobytes() == expected
