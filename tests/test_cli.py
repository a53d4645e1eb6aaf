import csv
import json
import math

import numpy as np
import pytest

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

    def test_non_integer_index_exit_2(self, sin_samples_file, tmp_path):
        text = sin_samples_file.read_text().replace("\n-7990,", "\n-7990.0,", 1)
        sin_samples_file.write_text(text)
        code = main(["reconstruct", "--input", str(sin_samples_file),
                     "--output", str(tmp_path / "o.csv")])
        assert code == 2


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

    @pytest.mark.parametrize("sigma", ["0.01", "1.0", "100"])
    def test_bernstein_passes_at_every_scale(self, sigma, capsys):
        # the derivatives are asked for relative to sigma^m, the bound's scale
        assert main(["verify", "--suite", "bernstein", "--sigma", sigma]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_unknown_suite_exit_2(self):
        assert main(["verify", "--suite", "nope"]) == 2
