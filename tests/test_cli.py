import contextlib
import csv
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from bandlimit.cli import main
from bandlimit.dht import SeqWindow
from bandlimit.sampling import UniformSamples, make_reference
from bandlimit.seqio import (
    read_footer,
    read_samples,
    read_sequence,
    sidecar_path,
    write_samples,
    write_sequence,
)

PI = math.pi


@pytest.fixture
def sin_samples_file(tmp_path):
    # oversampled sine: rate 1.5 against true type 1
    sigma, rate = 1.0, 1.5
    h = PI / rate
    K = 8000
    ks = np.arange(-K, K + 1)
    s = UniformSamples(sigma=sigma, h=h, k_min=-K, k_max=K,
                       values=np.sin(sigma * ks * h), tail_bound=1.0,
                       tail_decay=0.0)
    path = tmp_path / "sin.csv"
    write_samples(path, s)
    return path


@pytest.fixture
def basis_sequence_file(tmp_path):
    path = tmp_path / "e0.csv"
    write_sequence(path, SeqWindow.basis(0))
    return path


def csv_writer_reference(path, index_name, start, values, footer):
    """The per-row csv.writer loop the sequence and sample writers once ran."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([index_name, "value"])
        for n, v in zip(range(start, start + len(values)), values):
            writer.writerow([n, repr(float(v))])
        for key, value in footer.items():
            fh.write(f"# {key}={value}\n")


class TestWriterBytes:
    # special values, then enough random ones of every magnitude to span
    # several write blocks
    _rng = np.random.default_rng(3)
    VALUES = np.concatenate((
        [-1.5, 1e-300, -0.0, 0.1 + 0.2, -2.0 / 3.0, 1.2345678901234567e17,
         -5e-324, 0.0, 123456789.12345678],
        _rng.standard_normal(10_000) * 10.0 ** _rng.integers(-300, 300, 10_000)))
    FOOTER = {"version": "x", "tol": 0.001}

    def test_sequence(self, tmp_path):
        a = SeqWindow(n0=-4, values=self.VALUES, tail_l2=0.5)
        write_sequence(tmp_path / "new.csv", a, self.FOOTER)
        csv_writer_reference(tmp_path / "old.csv", "n", -4, self.VALUES, self.FOOTER)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        meta = json.loads(sidecar_path(tmp_path / "new.csv").read_text())
        assert meta == {"n0": -4, "len": self.VALUES.size, "tail_l2": 0.5}

    def test_samples(self, tmp_path):
        n = self.VALUES.size
        s = UniformSamples(sigma=1.0, h=PI, k_min=3, k_max=3 + n - 1, values=self.VALUES,
                           tail_bound=1.0, tail_decay=2.0)
        write_samples(tmp_path / "new.csv", s, self.FOOTER)
        csv_writer_reference(tmp_path / "old.csv", "k", 3, self.VALUES, self.FOOTER)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
        assert read_samples(tmp_path / "new.csv").values.tobytes() == self.VALUES.tobytes()


class TestRoundTrip:
    def test_samples(self, tmp_path):
        f = make_reference("fejer", 2.0)
        s = UniformSamples.from_function(f, PI / 2, -50, 50)
        path = tmp_path / "s.csv"
        write_samples(path, s, footer={"note": 1})
        back = read_samples(path)
        assert back.sigma == s.sigma and back.h == s.h
        assert np.array_equal(back.values, s.values)
        assert back.tail_decay == s.tail_decay

    def test_sequence(self, tmp_path):
        a = SeqWindow(n0=-2, values=np.array([1.0, -2.0, 0.5]), tail_l2=0.25)
        path = tmp_path / "a.csv"
        write_sequence(path, a)
        back = read_sequence(path)
        assert back.n0 == a.n0 and back.tail_l2 == a.tail_l2
        assert np.array_equal(back.values, a.values)


class TestDifferentiate:
    def test_first_derivative_matches_cosine(self, sin_samples_file, tmp_path):
        out = tmp_path / "out.csv"
        code = main(["differentiate", "--input", str(sin_samples_file),
                     "--output", str(out), "--order", "1", "--tol", "5e-3",
                     "--xmin", "-5", "--xmax", "5", "--num", "41"])
        assert code == 0
        xs, vals = [], []
        with open(out) as fh:
            next(fh)
            for line in fh:
                if line.startswith("#"):
                    continue
                x, v, _tail = line.strip().split(",")
                xs.append(float(x))
                vals.append(float(v))
        err = max(abs(v - math.cos(x)) for x, v in zip(xs, vals))
        footer = read_footer(out)
        assert float(footer["max_tail"]) <= 5e-3
        assert err <= 5e-3
        assert footer["version"]
        assert footer["order"] == "1"

    def test_reconstruct_echoes_signal(self, sin_samples_file, tmp_path):
        out = tmp_path / "rec.csv"
        code = main(["reconstruct", "--input", str(sin_samples_file),
                     "--output", str(out), "--tol", "1e-3",
                     "--xmin", "-4", "--xmax", "4", "--num", "17"])
        assert code == 0
        with open(out) as fh:
            next(fh)
            for line in fh:
                if line.startswith("#"):
                    continue
                x, v, _ = line.strip().split(",")
                assert abs(float(v) - math.sin(float(x))) < 1e-3

    def test_missing_sidecar_field_exit_2(self, sin_samples_file, tmp_path, capsys):
        sidecar = sin_samples_file.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        del meta["sigma"]
        sidecar.write_text(json.dumps(meta))
        out = tmp_path / "x.csv"
        code = main(["differentiate", "--input", str(sin_samples_file),
                     "--output", str(out), "--order", "1"])
        assert code == 2
        assert "sigma" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["reconstruct", "differentiate"])
    @pytest.mark.parametrize("critical", [False, True])
    def test_nan_tolerance_exit_2(self, command, critical, sin_samples_file, tmp_path,
                                  capsys):
        # NaN fails every comparison, so tol <= 0 let it through: at the
        # critical rate the command wrote its table and echoed tol=nan
        path = sin_samples_file
        if critical:
            path = tmp_path / "fejer.csv"
            write_samples(path, UniformSamples.from_function(make_reference("fejer", 1.0),
                                                             PI, -2000, 2000))
        out = tmp_path / "n.csv"
        assert main([command, "--input", str(path), "--output", str(out),
                     "--tol", "nan", "--num", "5"]) == 2
        assert "--tol" in capsys.readouterr().err
        assert not out.exists()

    def test_unachievable_tolerance_exit_3(self, sin_samples_file, tmp_path):
        out = tmp_path / "x.csv"
        code = main(["differentiate", "--input", str(sin_samples_file),
                     "--output", str(out), "--order", "1", "--tol", "1e-13",
                     "--xmin", "-2", "--xmax", "2", "--num", "5"])
        # below the local kernel's rounding floor (about 1e-10 for order 1)
        assert code == 3

    def test_deterministic_outputs(self, sin_samples_file, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(["differentiate", "--input", str(sin_samples_file),
                  "--output", str(out), "--order", "1", "--tol", "5e-3",
                  "--xmin", "-3", "--xmax", "3", "--num", "11"])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


def read_rows(path):
    with open(path) as fh:
        next(fh)
        return np.array([[float(c) for c in line.split(",")]
                         for line in fh if not line.startswith("#")])


class TestOrders:
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4])
    def test_matches_closed_form(self, order, sin_samples_file, tmp_path):
        out = tmp_path / "d.csv"
        code = main(["differentiate", "--input", str(sin_samples_file),
                     "--output", str(out), "--order", str(order),
                     "--tol", "1e-2", "--num", "21"])
        assert code == 0
        rows = read_rows(out)
        want = np.sin(rows[:, 0] + order * PI / 2)
        assert np.all(np.abs(rows[:, 1] - want) <= rows[:, 2])
        footer = read_footer(out)
        assert float(footer["max_tail"]) == rows[:, 2].max() <= 1e-2
        assert "halfwidth" not in footer and "kmax" not in footer

    def test_tail_kind_oversampled(self, sin_samples_file, tmp_path):
        # bounded-only samples, oversampled: the local kernel certifies the tail
        out = tmp_path / "r.csv"
        assert main(["reconstruct", "--input", str(sin_samples_file),
                     "--output", str(out), "--num", "5"]) == 0
        assert read_footer(out)["tail_kind"] == "certified"
        rows = read_rows(out)
        assert np.all(np.abs(rows[:, 1] - np.sin(rows[:, 0])) <= rows[:, 2])

    def test_tail_kind_certified(self, tmp_path):
        # decaying samples at the critical rate: the tail is certified
        f = make_reference("fejer", 1.0)
        path = tmp_path / "fejer.csv"
        write_samples(path, UniformSamples.from_function(f, PI, -2000, 2000))
        out = tmp_path / "d.csv"
        assert main(["differentiate", "--input", str(path), "--output", str(out),
                     "--order", "1", "--num", "5"]) == 0
        assert read_footer(out)["tail_kind"] == "certified"
        rows = read_rows(out)
        assert np.all(np.abs(rows[:, 1] - f.deriv_eval(rows[:, 0])) <= rows[:, 2])


class TestFailures:
    def test_internal_error_exit_2(self, monkeypatch, capsys):
        def boom(cfg):
            raise RuntimeError("boom")

        monkeypatch.setattr("bandlimit.cli.cmd_verify", boom)
        assert main(["verify", "--suite", "favard"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: internal:") and "boom" in err

    def test_bad_row_mid_file_exit_2(self, sin_samples_file, tmp_path, capsys):
        lines = sin_samples_file.read_text().splitlines(keepends=True)
        lines[500] = "-7501,not-a-number\n"
        sin_samples_file.write_text("".join(lines))
        code = main(["reconstruct", "--input", str(sin_samples_file),
                     "--output", str(tmp_path / "o.csv")])
        assert code == 2
        assert f"{sin_samples_file}:501" in capsys.readouterr().err

    @pytest.mark.parametrize("command, field", [
        ("reconstruct", "sigma"), ("reconstruct", "h"), ("reconstruct", "tail_bound"),
        ("reconstruct", "tail_decay"), ("dht", "tail_l2")])
    def test_nan_certificate_exit_2(self, command, field, tmp_path):
        # NaN fails every comparison, so only a check written not x >= 0
        # refuses it; read as a certificate it would be echoed as certified
        path = tmp_path / "in.csv"
        if command == "dht":
            write_sequence(path, SeqWindow.basis(0))
        else:
            write_samples(path, UniformSamples.from_function(make_reference("fejer", 1.0),
                                                             PI, -2000, 2000))
        sidecar = path.with_suffix(".json")
        meta = json.loads(sidecar.read_text())
        meta[field] = math.nan
        sidecar.write_text(json.dumps(meta))
        out = tmp_path / "o.csv"
        grid = ["--num", "5"] if command == "reconstruct" else []
        assert main([command, "--input", str(path), "--output", str(out)] + grid) == 2
        assert not out.exists()

    def test_non_integer_index_exit_2(self, sin_samples_file, tmp_path):
        text = sin_samples_file.read_text().replace("\n-7990,", "\n-7990.0,", 1)
        sin_samples_file.write_text(text)
        code = main(["reconstruct", "--input", str(sin_samples_file),
                     "--output", str(tmp_path / "o.csv")])
        assert code == 2

    def test_directory_paths_exit_2(self, tmp_path, capsys):
        # an input, output or sidecar path that is a directory: the message
        # names it
        src = tmp_path / "in.csv"
        write_samples(src, UniformSamples.from_function(make_reference("fejer", 1.0),
                                                        PI, -200, 200))
        seq = tmp_path / "seq.csv"
        write_sequence(seq, SeqWindow.basis(0))
        folder = tmp_path / "folder"
        folder.mkdir()
        lone = tmp_path / "lone.csv"  # a sequence whose sidecar is a directory
        lone.write_text("n,value\r\n0,1.0\r\n")
        sidecar_path(lone).mkdir()
        out = str(tmp_path / "o.csv")
        for argv, named in (
                (["reconstruct", "--input", str(folder), "--output", out], folder),
                (["differentiate", "--input", str(src), "--output", str(folder), "--num", "5"],
                 folder),
                (["dht", "--input", str(seq), "--output", str(folder)], folder),
                (["dht", "--input", str(lone), "--output", out], sidecar_path(lone))):
            assert main(argv) == 2, argv
            err = capsys.readouterr().err
            assert "internal" not in err and str(named) in err, err

    @pytest.mark.parametrize("text", ["5", "[1, 2]", "\"n0\"", "null", "true"])
    def test_sidecar_that_is_not_an_object_exit_2(self, basis_sequence_file, tmp_path, text,
                                                  capsys):
        sidecar_path(basis_sequence_file).write_text(text)
        out = tmp_path / "o.csv"
        assert main(["dht", "--input", str(basis_sequence_file), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "internal" not in err and str(sidecar_path(basis_sequence_file)) in err
        assert "JSON object" in err and not out.exists()

    @pytest.mark.parametrize("command, field", [
        ("dht", "tail_l2"), ("reconstruct", "tail_bound"), ("reconstruct", "sigma"),
        ("reconstruct", "k_min")])
    def test_sidecar_integer_too_large_for_a_float_exit_2(self, command, field, tmp_path,
                                                          capsys):
        path = tmp_path / "in.csv"
        if command == "dht":
            write_sequence(path, SeqWindow.basis(0))
        else:
            write_samples(path, UniformSamples.from_function(make_reference("fejer", 1.0),
                                                             PI, -200, 200))
        sidecar = sidecar_path(path)
        text = sidecar.read_text()
        meta = json.loads(text)
        sidecar.write_text(text.replace(f'"{field}": {json.dumps(meta[field])}',
                                        f'"{field}": 1' + "0" * 400))
        out = tmp_path / "o.csv"
        assert main([command, "--input", str(path), "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert "internal" not in err and f"'{field}'" in err and not out.exists()

    @pytest.mark.parametrize("order", ["21", "171", "1000"])
    @pytest.mark.parametrize("rate", ["critical", "oversampled"])
    def test_derivative_order_above_20_exit_2(self, order, rate, tmp_path, capsys):
        path = tmp_path / "in.csv"
        kind, h = ("fejer", PI) if rate == "critical" else ("sin", PI / 2)
        write_samples(path, UniformSamples.from_function(make_reference(kind, 1.0), h,
                                                         -400, 400))
        out = tmp_path / "o.csv"
        assert main(["differentiate", "--input", str(path), "--output", str(out),
                     "--order", order, "--tol", "1e3", "--num", "5"]) == 2
        err = capsys.readouterr().err
        assert "internal" not in err and "0..20" in err and not out.exists()

    @pytest.mark.parametrize("order", ["-1", "21"])
    def test_derivative_order_refusals_name_one_range(self, order, sin_samples_file,
                                                      tmp_path, capsys):
        # one rule for both ends: the kernel's order check, exit 2
        out = tmp_path / "o.csv"
        assert main(["differentiate", "--input", str(sin_samples_file), "--output", str(out),
                     "--order", order, "--num", "5"]) == 2
        err = capsys.readouterr().err
        assert "0..20" in err and f"got {order}" in err and not out.exists()


class TestDht:
    def test_orbit_integer_exact(self, basis_sequence_file, tmp_path):
        out = tmp_path / "o.csv"
        code = main(["dht", "--action", "orbit", "--t", "1",
                     "--input", str(basis_sequence_file), "--output", str(out)])
        assert code == 0
        seq = read_sequence(out)
        assert seq.entry(-1) == -1.0
        footer = read_footer(out)
        assert float(footer["isometry_residual"]) == 0.0

    def test_orbit_half_time_entries(self, basis_sequence_file, tmp_path):
        out = tmp_path / "h.csv"
        code = main(["dht", "--action", "orbit", "--t", "0.5", "--expand", "2000",
                     "--input", str(basis_sequence_file), "--output", str(out)])
        assert code == 0
        seq = read_sequence(out)
        for m in (-1, 0, 4):
            assert seq.entry(m) == pytest.approx(1.0 / (PI * (m + 0.5)), rel=1e-12)

    def test_power_selfcheck(self, tmp_path):
        rng = np.random.default_rng(2)
        vals = rng.standard_normal(16)
        path = tmp_path / "a.csv"
        write_sequence(path, SeqWindow(n0=-8, values=vals / np.linalg.norm(vals)))
        outs = {}
        for action in ("power", "apply"):
            out = tmp_path / f"{action}.csv"
            code = main(["dht", "--action", action, "--order", "1", "--expand", "40",
                         "--input", str(path), "--output", str(out)])
            assert code == 0
            outs[action] = read_sequence(out)
        power, apply_ = outs["power"], outs["apply"]
        assert power.n0 == apply_.n0 == -48
        assert np.array_equal(power.values, apply_.values)
        assert power.tail_l2 == apply_.tail_l2

    def test_power_applies_the_order_it_echoes(self, tmp_path):
        path = tmp_path / "a.csv"
        write_sequence(path, SeqWindow(n0=-3, values=np.array([0.5, -1.0, 2.0, 0.25])))
        runs = {}
        for order in (None, "0", "1", "2"):
            out = tmp_path / f"p{order}.csv"
            argv = ["dht", "--action", "power", "--expand", "20",
                    "--input", str(path), "--output", str(out)]
            code = main(argv + (["--order", order] if order else []))
            if order == "0":
                # an explicit 0 is refused, not read as a flag left out
                assert code == 2 and not out.exists()
                continue
            assert code == 0
            runs[order] = (read_footer(out)["order"], read_sequence(out).values)
        # no order means H: the footer says 1
        for order in (None, "1"):
            assert runs[order][0] == "1"
            assert np.array_equal(runs[order][1], runs["1"][1])
        assert runs["2"][0] == "2" and not np.array_equal(runs["2"][1], runs["1"][1])

    @pytest.mark.parametrize("order", ["-1", "-3"])
    def test_power_rejects_negative_order(self, tmp_path, order):
        path = tmp_path / "a.csv"
        write_sequence(path, SeqWindow(n0=0, values=np.array([1.0, 2.0])))
        out = tmp_path / "p.csv"
        code = main(["dht", "--action", "power", "--order", order,
                     "--input", str(path), "--output", str(out)])
        assert code == 2
        assert not out.exists()

    def test_orbit_refuses_a_window_whose_norm_overflows(self, tmp_path, capsys):
        path = tmp_path / "a.csv"
        write_sequence(path, SeqWindow(n0=0, values=np.array([1.5e308, 1.5e308])))
        out = tmp_path / "o.csv"
        code = main(["dht", "--action", "orbit", "--t", "0.3",
                     "--input", str(path), "--output", str(out)])
        assert code == 2
        assert "window norm" in capsys.readouterr().err
        assert not out.exists()

    def test_apply_footer_of_a_window_whose_squares_underflow(self, tmp_path):
        # ||a|| = 5e-200 though its sum of squares underflows: the Schur
        # ratio is that of [3, -4]
        ratios = []
        for scale in (1e-200, 1.0):
            path = tmp_path / "a.csv"
            write_sequence(path, SeqWindow(n0=0, values=np.array([3.0, -4.0]) * scale))
            out = tmp_path / "p.csv"
            assert main(["dht", "--action", "apply", "--input", str(path),
                         "--output", str(out)]) == 0
            ratios.append(float(read_footer(out)["schur_ratio"]))
        assert 0.0 < ratios[0] == pytest.approx(ratios[1], rel=1e-12)

    @pytest.mark.parametrize("values, t", [([1e300], "1"), ([3e154, 4e154], "0.3")])
    def test_orbit_footer_of_a_window_whose_squares_overflow(self, tmp_path, values, t):
        # ||a|| is finite though its sum of squares is not: finite footers,
        # and no overflow warning
        path = tmp_path / "a.csv"
        write_sequence(path, SeqWindow(n0=0, values=np.array(values)))
        out = tmp_path / "o.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["dht", "--action", "orbit", "--t", t,
                         "--input", str(path), "--output", str(out)])
        assert code == 0
        footer = read_footer(out)
        for key in ("isometry_residual", "norm_bracket_lo", "norm_bracket_hi"):
            assert math.isfinite(float(footer[key])), (key, footer[key])
        assert float(footer["isometry_residual"]) == 0.0

    @pytest.mark.parametrize("order", ["98", "116", "117", "170"])
    def test_power_writes_orders_with_finite_entries(self, tmp_path, order):
        # on a 5-entry window the entries, and the tail, stay finite up to
        # r = 170
        path = tmp_path / "a.csv"
        write_sequence(path, SeqWindow(n0=-2, values=np.array([0.5, -1.0, 2.0, 0.25, 1.0])))
        out = tmp_path / "p.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["dht", "--action", "power", "--order", order,
                         "--input", str(path), "--output", str(out)])
        assert code == 0
        got = read_sequence(out)
        assert math.isfinite(got.tail_l2) and np.all(np.isfinite(got.values))

    @pytest.mark.parametrize("order", ["171", "400", "621", "1000"])
    def test_power_refuses_orders_that_overflow(self, tmp_path, order, capsys):
        # on a 5-entry window the entries overflow float64 from r = 171 and
        # pi^r as a Python float from r = 621
        path = tmp_path / "a.csv"
        write_sequence(path, SeqWindow(n0=-2, values=np.array([0.5, -1.0, 2.0, 0.25, 1.0])))
        out = tmp_path / "p.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["dht", "--action", "power", "--order", order,
                         "--input", str(path), "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"r={order}" in err and "internal" not in err
        assert not out.exists()

    @pytest.mark.parametrize("order", ["1", "2"])
    def test_power_rejects_negative_expand(self, tmp_path, order):
        path = tmp_path / "a.csv"
        vals = np.random.default_rng(0).standard_normal(33)
        write_sequence(path, SeqWindow(n0=-16, values=vals))
        out = tmp_path / "p.csv"
        code = main(["dht", "--action", "power", "--order", order, "--expand", "-5",
                     "--input", str(path), "--output", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("action", ["orbit", "vt"])
    def test_integer_time_rejects_negative_expand(self, basis_sequence_file, tmp_path,
                                                  action):
        out = tmp_path / "o.csv"
        code = main(["dht", "--action", action, "--t", "1", "--expand", "-5",
                     "--input", str(basis_sequence_file), "--output", str(out)])
        assert code == 2
        assert not out.exists()

    def test_vt_action(self, basis_sequence_file, tmp_path):
        out = tmp_path / "v.csv"
        code = main(["dht", "--action", "vt", "--t", "0.5", "--expand", "800",
                     "--input", str(basis_sequence_file), "--output", str(out)])
        assert code == 0
        seq = read_sequence(out)
        assert seq.entry(0) == pytest.approx(2.0 / PI, abs=1e-8)

    def test_vt_writes_the_orbit(self, tmp_path):
        # the vt action is hilbert_group, as orbit is: the same value rows and
        # sidecar bytes, and a footer that lacks only orbit's isometry keys
        path = tmp_path / "a.csv"
        vals = np.random.default_rng(3).standard_normal(21)
        write_sequence(path, SeqWindow(n0=-10, values=vals, tail_l2=0.05))
        orbit_only = {"isometry_residual", "norm_bracket_lo", "norm_bracket_hi"}
        for t in ("0.3", "0.37"):
            rows, sidecars, footers = {}, {}, {}
            for action in ("orbit", "vt"):
                out = tmp_path / f"{action}.csv"
                assert main(["dht", "--action", action, "--t", t, "--expand", "30",
                             "--input", str(path), "--output", str(out)]) == 0
                rows[action] = [ln for ln in out.read_bytes().splitlines(keepends=True)
                                if not ln.startswith(b"# ")]
                sidecars[action] = out.with_suffix(".json").read_bytes()
                footers[action] = read_footer(out)
            assert rows["vt"] == rows["orbit"], t
            assert sidecars["vt"] == sidecars["orbit"], t
            assert set(footers["orbit"]) - set(footers["vt"]) == orbit_only, t
            want = {k: v for k, v in footers["orbit"].items() if k not in orbit_only}
            assert footers["vt"] == {**want, "action": "vt"}, t

    def test_bad_csv_exit_2(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n1,2\n")
        path.with_suffix(".json").write_text('{"n0": 0, "len": 1, "tail_l2": 0}')
        code = main(["dht", "--action", "apply", "--input", str(path),
                     "--output", str(tmp_path / "o.csv")])
        assert code == 2


class TestVerify:
    def test_favard_passes(self, capsys):
        assert main(["verify", "--suite", "favard"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_json_schema(self, capsys):
        assert main(["verify", "--suite", "lks", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suite"] == "lks"
        assert all({"name", "lhs", "rhs", "slack", "pass"} <= set(c) for c in payload["checks"])

    def test_pp_out_of_contract_skips(self, capsys):
        code = main(["verify", "--suite", "pp", "--sigma", "1.0", "--h", "4.0"])
        assert code == 0
        assert "SKIPPED" in capsys.readouterr().out

    @pytest.mark.parametrize("suite, flag, value", [
        ("pp", "--sigma", "-1"), ("pp", "--sigma", "0"), ("bernstein", "--sigma", "0"),
        ("lks", "--sigma", "inf"), ("lks", "--sigma", "nan"), ("pp", "--h", "nan"),
        ("pp", "--h", "0"), ("pp", "--h", "inf")])
    def test_sigma_and_h_must_be_positive_and_finite(self, suite, flag, value, capsys):
        # checked once, before any suite runs: no suite reads a bad value
        # as a skip, a pass with slack=nan or a failed check
        assert main(["verify", "--suite", suite, flag, value]) == 2
        captured = capsys.readouterr()
        assert f"{flag} must be positive and finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("suite, flag, value", [
        ("lks", "--sigma", "1e308"), ("group", "--sigma", "1e-300"),
        ("bernstein", "--sigma", "1e200"), ("pp", "--sigma", "1e-300"),
        ("pp", "--h", "1e-300"), ("bernstein", "--sigma", "1e-300"),
        ("group", "--sigma", "1e300")])
    def test_extreme_finite_values_are_refused(self, suite, flag, value, capsys):
        # each once overflowed, divided by zero or underflowed inside its suite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--suite", suite, flag, value]) == 2
        captured = capsys.readouterr()
        assert f"{flag} must be positive and finite, in [1e-15, 1e15]" in captured.err
        assert "internal" not in captured.err and captured.out == ""

    @pytest.mark.parametrize("flag, value", [
        ("--sigma", "1e-15"), ("--sigma", "1e15"), ("--h", "1e-15"), ("--h", "1e15")])
    @pytest.mark.parametrize("suite", ["favard", "pp", "lks", "bernstein", "group", "dht-law"])
    def test_every_suite_runs_at_the_bounds(self, suite, flag, value, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--suite", suite, flag, value]) in (0, 1, 3)
        assert "error: internal" not in capsys.readouterr().err

    def test_favard_brackets_hold_exactly(self, capsys):
        assert main(["verify", "--suite", "favard", "--format", "json"]) == 0
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["K0"]["lhs"] == 0.0 and checks["K1"]["lhs"] == 0.0
        assert all(c["slack"] >= 0.0 and c["pass"] for c in checks.values())

    @pytest.mark.parametrize("sigma", ["0.01", "1.0", "100"])
    def test_bernstein_passes_at_every_scale(self, sigma, capsys):
        # the derivatives are asked for relative to sigma^m, the bound's scale
        assert main(["verify", "--suite", "bernstein", "--sigma", sigma]) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("sigma", ["1e-15", "1e-3", "100", "1e6", "1e15"])
    def test_group_passes_at_every_scale(self, sigma, capsys):
        # D^r v has norm sigma^r: its tol and bound scale by sigma^r, and the
        # orbit is taken at sigma t = 0.7
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", "--suite", "group", "--sigma", sigma]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out and out.count("[PASS]") == 7

    @pytest.mark.parametrize("sigma, h", [("1e-3", "1.0"), ("1.0", "0.005"), ("1e-15", "1.0")])
    def test_pp_skips_below_the_window_resolution(self, sigma, h, capsys):
        # the Fejer p=1 tail allowance over the 20 000-step window exceeds
        # its slack for h sigma below about 8e-3
        assert main(["verify", "--suite", "pp", "--sigma", sigma, "--h", h]) == 0
        out = capsys.readouterr().out
        assert "SKIPPED" in out and "h*sigma=" in out and "FAIL" not in out

    def test_unknown_suite_exit_2(self):
        assert main(["verify", "--suite", "nope"]) == 2


class TestParserReuse:
    """One parser serves every main() call of a process."""

    def commands(self, samples, sequence, out):
        return [
            ["reconstruct", "--input", str(samples), "--output", str(out / "r.csv"),
             "--num", "11"],
            ["differentiate", "--input", str(samples), "--output", str(out / "d.csv"),
             "--order", "1", "--num", "11"],
            ["dht", "--action", "orbit", "--t", "0.5", "--expand", "64",
             "--input", str(sequence), "--output", str(out / "o.csv")],
            ["verify", "--suite", "favard", "--format", "json"],
            ["verify", "--suite", "lks"],
            ["dht", "--action", "nope", "--input", "x", "--output", "y"],  # usage error
            ["reconstruct", "--input", str(out / "missing.csv"),
             "--output", str(out / "m.csv")],  # input error
            ["--version"],
        ]

    def run_all(self, argvs, out, capsys):
        seen = []
        for argv in argvs:
            for p in out.glob("*.csv"):
                p.unlink()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = ("exit", exc.code)
            files = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
            seen.append((code, capsys.readouterr(), files))
        return seen

    def test_outputs_match_a_fresh_parser(self, monkeypatch, sin_samples_file,
                                          basis_sequence_file, tmp_path, capsys):
        from bandlimit import cli
        out = tmp_path / "out"
        out.mkdir()
        argvs = self.commands(sin_samples_file, basis_sequence_file, out)
        cached = self.run_all(argvs + argvs, out, capsys)
        assert cli._build_parser() is cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
        fresh = self.run_all(argvs, out, capsys)
        assert cached == fresh + fresh
        codes = [c for c, _, _ in fresh]
        assert codes == [0, 0, 0, 0, 0, ("exit", 2), 2, ("exit", 0)]


class TestFlags:
    """Each command declares exactly the flags it reads."""

    FLAGS = {
        "differentiate": ["--input", "--output", "--order", "--tol", "--xmin", "--xmax",
                          "--num"],
        "reconstruct": ["--input", "--output", "--tol", "--xmin", "--xmax", "--num"],
        "dht": ["--input", "--output", "--action", "--t", "--order", "--tol", "--expand"],
        "verify": ["--suite", "--sigma", "--h", "--seed", "--format"],
    }
    EVERY = sorted({flag for flags in FLAGS.values() for flag in flags})

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_help_lists_the_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = [word.strip("[],") for word in capsys.readouterr().out.split()]
        listed = [w for w in dict.fromkeys(listed) if w.startswith("--") and w != "--help"]
        assert listed == self.FLAGS[command]
        assert sum(len(flags) for flags in self.FLAGS.values()) == 25

    @pytest.mark.parametrize("command", sorted(FLAGS))
    def test_undeclared_flags_and_prefixes_exit_2(self, command, tmp_path, capsys):
        # a full argv of the command, then one flag it does not read or a
        # prefix of one it does: argparse must refuse both, never take the
        # prefix for --help or for the flag
        base = {"verify": ["--suite", "lks"]}.get(
            command, ["--input", str(tmp_path / "x.csv"), "--output", str(tmp_path / "y.csv")])
        prefixes = {"--in": "x", "--out": "y", "--act": "orbit", "--ord": "1", "--su": "lks",
                    "--sig": "1.0", "--fo": "json", "--exp": "4", "--nu": "5"}
        extras = [[flag, "1"] for flag in self.EVERY if flag not in self.FLAGS[command]]
        extras += [[p, v] for p, v in prefixes.items()
                   if any(f.startswith(p) for f in self.FLAGS[command])]
        assert extras
        for extra in extras:
            with pytest.raises(SystemExit) as exc:
                main([command] + base + extra)
            assert exc.value.code == 2, extra
            assert "unrecognized arguments" in capsys.readouterr().err


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """Well-formed sample and sequence files, and malformed ones: a bad row,
    sidecars that are missing, not an object, or hold an integer too large
    for a float, a directory, and a path that does not exist."""
    root = tmp_path_factory.mktemp("cli-inputs")
    write_samples(root / "fejer.csv", UniformSamples.from_function(
        make_reference("fejer", 1.0), PI, -300, 300))
    write_samples(root / "sine.csv", UniformSamples.from_function(
        make_reference("sin", 1.0, phase=0.3), PI / 2, -300, 300))
    write_sequence(root / "seq.csv", SeqWindow(
        n0=-8, values=np.random.default_rng(0).standard_normal(17)))
    paths = {name: root / f"{name}.csv" for name in ("fejer", "sine", "seq")}
    for name, base in (("bad_row", "seq"), ("not_object", "seq"), ("huge_int", "fejer"),
                       ("no_sidecar", "sine")):
        path = root / f"{name}.csv"
        path.write_text(paths[base].read_text())
        sidecar = sidecar_path(paths[base]).read_text()
        paths[name] = path
        if name == "bad_row":
            path.write_text(path.read_text().replace("\n-2,", "\n-2,x", 1))
        elif name == "not_object":
            sidecar = "5"
        elif name == "huge_int":
            sidecar = sidecar.replace('"tail_bound": ', '"tail_bound": 1' + "0" * 400 + ", \"x\": ")
        if name != "no_sidecar":
            sidecar_path(path).write_text(sidecar)
    (root / "folder").mkdir()
    paths["folder"] = root / "folder"
    paths["missing"] = root / "missing.csv"
    return root, paths


FLOATS = ["0", "1", "-1", "1e-3", "1e300", "-1e300", "nan", "inf", "-inf"]
INTS = ["0", "1", "-1", "2", "21", "171", "10000000000000000000000", "nan"]


class TestNoInternalError:
    """Aim 3's contract on any command line: exit 0, 1, 2 or 3, never the
    'error: internal' safety net; dht power writes no output when it fails."""

    @staticmethod
    def flags(draw, command, paths):
        def maybe(flag, values):
            value = draw(st.one_of(st.none(), st.sampled_from(values)))
            return [] if value is None else [flag, value]

        good = ["seq"] if command == "dht" else ["fejer", "sine"]
        name = draw(st.one_of(st.sampled_from(good), st.sampled_from(sorted(paths))))
        if command == "verify":
            return (["--suite", draw(st.sampled_from(
                ["favard", "pp", "lks", "bernstein", "group", "dht-law", "none"]))]
                + maybe("--sigma", FLOATS) + maybe("--h", FLOATS)
                + maybe("--seed", INTS) + maybe("--format", ["text", "json"]))
        argv = ["--input", str(paths[name])]
        if command == "dht":
            return (argv + maybe("--action", ["apply", "orbit", "power", "vt"])
                    + maybe("--t", FLOATS) + maybe("--order", INTS)
                    + maybe("--tol", FLOATS) + maybe("--expand", ["0", "1", "-1", "4", "100000000000"]))
        argv += maybe("--tol", FLOATS + ["10", "1e-12"]) + maybe("--xmin", FLOATS + ["-100"])
        argv += maybe("--xmax", FLOATS + ["100"]) + maybe("--num", ["0", "1", "2", "5", "-1"])
        return argv + (maybe("--order", INTS) if command == "differentiate" else [])

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_every_failure_has_its_exit_code(self, cli_inputs, data):
        root, paths = cli_inputs
        command = data.draw(st.sampled_from(["differentiate", "reconstruct", "dht", "verify"]))
        argv = [command] + self.flags(data.draw, command, paths)
        out = data.draw(st.one_of(st.just(root / "out.csv"), st.sampled_from(
            [paths["folder"], root / "absent" / "out.csv"])))
        if command != "verify":
            argv += ["--output", str(out)]
        for path in (root / "out.csv", root / "out.json"):
            path.unlink(missing_ok=True)
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: a flag it cannot parse
                code = exc.code
        event(f"{command} exit {code}")
        assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
        assert "internal" not in err.getvalue(), (argv, err.getvalue())
        if command == "dht" and "power" in argv and code != 0:
            assert not (root / "out.csv").exists(), argv
