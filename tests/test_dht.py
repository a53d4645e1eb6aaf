import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandlimit import dht
from bandlimit.dht import (
    SeqWindow,
    dht_power,
    hilbert_apply,
    hilbert_group,
    integer_orbit,
    pairing_check,
)
from bandlimit.grouporbit import BernsteinVector, _orbit_sum, orbit_reconstruct, orbit_vt
from paper_boas import boas_coefficient_grid
from paper_dht import composed_power, vt_expansion

PI = math.pi


def random_window(rng, length=64, center=True):
    vals = rng.standard_normal(length)
    if center:
        vals -= vals.mean()
    vals /= np.linalg.norm(vals)
    return SeqWindow(n0=-(length // 2), values=vals)


def common_diff(a: SeqWindow, b: SeqWindow, trim: int = 0) -> float:
    lo = max(a.n0, b.n0) + trim
    hi = min(a.n_last, b.n_last) - trim
    ln = hi - lo + 1
    return float(np.max(np.abs(a.on_range(lo, ln) - b.on_range(lo, ln))))


class TestSeqWindow:
    def test_entry_and_range(self):
        a = SeqWindow(n0=2, values=np.array([1.0, 2.0, 3.0]))
        assert a.entry(3) == 2.0
        assert a.entry(99) == 0.0
        assert np.array_equal(a.on_range(1, 5), [0.0, 1.0, 2.0, 3.0, 0.0])

    def test_norm_bracket(self):
        a = SeqWindow(n0=0, values=np.array([3.0, 4.0]), tail_l2=1.0)
        lo, hi = a.norm_bracket()
        assert lo == 5.0
        assert hi == pytest.approx(math.sqrt(26.0))

    @given(st.integers(min_value=-5, max_value=5),
           st.integers(min_value=-5, max_value=5),
           st.floats(min_value=-4, max_value=4, allow_nan=False))
    @settings(max_examples=60)
    def test_vector_space_ops(self, n0a, n0b, c):
        a = SeqWindow(n0=n0a, values=np.array([1.0, -2.0, 0.5]))
        b = SeqWindow(n0=n0b, values=np.array([0.25, 1.0]))
        s = a + c * b
        for n in range(-12, 13):
            assert s.entry(n) == pytest.approx(a.entry(n) + c * b.entry(n), abs=1e-12)

    def test_sub_aligns_by_index(self):
        a = SeqWindow(n0=-1, values=np.array([1.0, -2.0, 0.5]), tail_l2=0.25)
        b = SeqWindow(n0=1, values=np.array([0.5, 4.0]), tail_l2=0.5)
        d = a - b
        assert (d.n0, d.n_last) == (-1, 2)
        assert np.array_equal(d.values, [1.0, -2.0, 0.0, -4.0])
        assert d.tail_l2 == 0.75  # tails add: the sign of b does not cancel its mass

    def test_validation(self):
        with pytest.raises(ValueError):
            SeqWindow(n0=0, values=np.array([math.nan]))
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError):
                SeqWindow(n0=0, values=np.array([1.0]), tail_l2=bad)


class TestHilbertApply:
    def test_basis_vector(self):
        a = SeqWindow.basis(0)
        out = hilbert_apply(a, expand=50)
        for m in range(-50, 51):
            want = 0.0 if m == 0 else 1.0 / m
            assert out.entry(m) == pytest.approx(want, rel=1e-14, abs=1e-15)

    def test_basis_norm_approaches_pi_over_sqrt3(self):
        # ||H e0||^2 -> 2 * sum 1/m^2 = pi^2/3
        a = SeqWindow.basis(0)
        norms = []
        for expand in (100, 1000, 10000):
            out = hilbert_apply(a, expand=expand)
            norms.append(out.norm() ** 2)
        assert norms[0] < norms[1] < norms[2] < PI ** 2 / 3
        assert PI ** 2 / 3 - norms[2] < 3e-4

    def test_zero(self):
        a = SeqWindow(n0=0, values=np.zeros(5))
        out = hilbert_apply(a, expand=10)
        assert np.all(out.values == 0.0)

    def test_schur_strict_on_random_windows(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = random_window(rng, length=32, center=False)
            out = hilbert_apply(a, expand=800)
            assert math.hypot(out.norm(), out.tail_l2) < PI * a.norm()

    @pytest.mark.parametrize("expand", [0, 100])
    def test_tail_certificate_covers_spill(self, expand):
        a = SeqWindow.basis(0)
        out = hilbert_apply(a, expand=expand)
        # exact spill of H e0 beyond +-expand is 2 * sum_{m>expand} 1/m^2,
        # pi^2/3 at expand = 0
        true_out = math.sqrt(2 * sum(1.0 / m ** 2 for m in range(expand + 1, 200000)))
        assert out.tail_l2 >= true_out


class TestHilbertGroup:
    def test_integer_branch_exact(self):
        rng = np.random.default_rng(0)
        a = random_window(rng)
        out = hilbert_group(1.0, a)
        assert out.n0 == a.n0 - 1
        assert np.array_equal(out.values, -a.values)
        again = integer_orbit(-3, a)
        assert again.n0 == a.n0 + 3
        assert np.array_equal(again.values, -a.values)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_time_refused(self, t):
        a = SeqWindow(n0=0, values=np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="t must be finite"):
            hilbert_group(t, a)

    def test_zero_time_identity(self):
        rng = np.random.default_rng(1)
        a = random_window(rng)
        out = hilbert_group(0.0, a)
        assert out.n0 == a.n0
        assert np.array_equal(out.values, a.values)

    def test_half_time_on_basis(self):
        a = SeqWindow.basis(0)
        out = hilbert_group(0.5, a, expand=500)
        for m in (-3, 0, 1, 7):
            assert out.entry(m) == pytest.approx(1.0 / (PI * (m + 0.5)), rel=1e-13)

    def test_half_time_norm_is_one(self):
        a = SeqWindow.basis(0)
        out = hilbert_group(0.5, a, expand=10_000)
        lo, hi = out.norm_bracket()
        assert lo <= 1.0 <= hi + 1e-12
        assert 1.0 - lo < 2e-5

    def test_isometry_bracket_random(self):
        rng = np.random.default_rng(5)
        a = random_window(rng, length=48)
        for t in np.linspace(-2.1, 2.1, 20):
            out = hilbert_group(float(t), a, expand=2500)
            lo, hi = out.norm_bracket()
            assert lo <= a.norm() * (1 + 1e-9)
            assert hi >= a.norm() * (1 - 1e-9)
            assert a.norm() - lo < 1e-3

    def test_tail_covers_input_tail(self):
        # the input tail moves the entries inside the output window too, so
        # the isometry's missing norm alone does not bound the error
        rng = np.random.default_rng(17)
        for _ in range(200):
            vals = rng.standard_normal(11)
            tail = rng.standard_normal(6)
            tail *= rng.uniform(0.1, 2.0) / np.linalg.norm(tail)
            left = bool(rng.integers(2))
            full = SeqWindow(n0=-11 if left else -5,
                             values=np.concatenate((tail, vals) if left else (vals, tail)))
            a = SeqWindow(n0=-5, values=vals, tail_l2=float(np.linalg.norm(tail)))
            t = float(rng.uniform(0.1, 0.9))
            out = hilbert_group(t, a, int(rng.integers(20)))
            wide = hilbert_group(t, full, 2000)
            # the mass of e^(tH) full outside the wide window, by isometry
            beyond = max(full.norm() ** 2 - wide.norm() ** 2, 0.0)
            inside = np.linalg.norm(wide.values - out.on_range(wide.n0, len(wide)))
            assert math.sqrt(inside ** 2 + beyond) <= out.tail_l2

    def test_group_law_with_integer_leg(self):
        rng = np.random.default_rng(9)
        a = random_window(rng, length=32)
        for s_, t_ in ((1.0, 0.45), (-2.0, 0.3), (3.0, -0.8), (2.0, 1.0)):
            two = hilbert_group(s_, hilbert_group(t_, a, expand=1500), expand=0)
            one = hilbert_group(s_ + t_, a, expand=1500)
            assert common_diff(two, one, trim=8) < 1e-9

    def test_group_law_generic_pair_within_slack(self):
        rng = np.random.default_rng(13)
        a = random_window(rng, length=16)
        inner = hilbert_group(0.3, a, expand=4000)
        two = hilbert_group(0.45, inner, expand=0)
        one = hilbert_group(0.75, a, expand=4000)
        # the dropped inner tail re-enters at O(1/window); compare centrally
        lo, hi = -32, 32
        diff = np.max(np.abs(two.on_range(lo, 65) - one.on_range(lo, 65)))
        assert diff < 1e-4

    def test_near_integer_continuity(self):
        rng = np.random.default_rng(21)
        a = random_window(rng, length=24)
        exact = hilbert_group(2.0, a)
        for t in (2.0 - 1e-7, 2.0 + 1e-7):
            out = hilbert_group(t, a, expand=600)
            assert common_diff(out, exact, trim=4) < 1e-5

    @pytest.mark.parametrize("t", [1.0, -2.0, 1.3])
    @pytest.mark.parametrize("op", ["group", "vt", "orbit"])
    def test_rejects_bad_expand_at_every_time(self, op, t):
        # the range check comes before the integer-time shift dispatch
        a = SeqWindow(n0=-1, values=np.array([0.5, -1.0, 2.0]))
        call = {"group": lambda e: hilbert_group(t, a, e),
                "vt": lambda e: orbit_vt(BernsteinVector(dht.dht_instance(e), a, PI), t),
                "orbit": lambda e: orbit_reconstruct(BernsteinVector(dht.dht_instance(e), a, PI),
                                                     t)}[op]
        for bad in (-5, dht.HARD_MAX_EXPAND + 1):
            with pytest.raises(ValueError):
                call(bad)


    def test_refuses_a_window_whose_norm_overflows(self):
        # ||a|| = 1.5e308 sqrt(2) is past float64: the spill would read inf - inf
        a = SeqWindow(n0=0, values=np.array([1.5e308, 1.5e308]))
        with pytest.raises(ValueError, match="window norm"):
            hilbert_group(0.3, a)
        assert hilbert_group(1.0, a).values.tolist() == [-1.5e308, -1.5e308]

    @pytest.mark.parametrize("values, norm", [([1e300], 1e300), ([3e154, 4e154], 5e154),
                                              ([-1.5e308], 1.5e308)])
    def test_norms_whose_squares_overflow(self, values, norm):
        # the sum of squares overflows, the norm does not
        a = SeqWindow(n0=0, values=np.array(values))
        assert a.norm() == pytest.approx(norm, rel=1e-15)
        for t in (0.3, 1.0, -2.7):
            out = hilbert_group(t, a)
            lo, hi = out.norm_bracket()
            assert math.isfinite(out.tail_l2) and math.isfinite(hi)
            # isometry: the window keeps ||a|| up to its spill
            assert lo <= norm * (1.0 + 1e-14) and hi >= norm * (1.0 - 1e-14)

    def test_near_integer_time_charges_its_move(self):
        # the shift misses e^(tH) a by at most pi |t - N| ||a||; against a
        # 40-digit sum the window is off by 2.5e-9
        a = SeqWindow(n0=-5, values=np.random.default_rng(0).standard_normal(11))
        t, expand = 1 + 5e-10, 40
        out = hilbert_group(t, a, expand)
        assert out.tail_l2 == pytest.approx(PI * (t - 1) * a.norm(), rel=1e-15)
        with mp.workdps(40):
            s = mp.sin(mp.pi * mp.mpf(t)) / mp.pi
            n0 = out.n0 - expand
            want = [s * mp.fsum(mp.mpf(float(v)) / (m - n + mp.mpf(t))
                                for n, v in enumerate(a.values, start=a.n0))
                    for m in range(n0, out.n_last + expand + 1)]
            got = out.on_range(n0, len(want))
            err = float(mp.sqrt(mp.fsum((w - mp.mpf(float(g))) ** 2
                                        for w, g in zip(want, got))))
        assert 2e-9 < err <= out.tail_l2
        assert hilbert_group(1.0, a).tail_l2 == 0.0


class TestTinyWindows:
    """One scaled norm serves both ends of float64: windows whose squares
    underflow keep their norm, and with it their tails."""

    def test_norm_is_numpy_norm_bit_for_bit(self):
        # scaling by a power of two is exact: where no square over- or
        # underflows the bits are those of np.linalg.norm
        rng = np.random.default_rng(7)
        for _ in range(600):
            vals = 10.0 ** rng.uniform(-140, 140) * rng.standard_normal(rng.integers(1, 200))
            got = np.float64(SeqWindow(n0=0, values=vals).norm())
            assert got.view(np.uint64) == np.linalg.norm(vals).view(np.uint64), vals

    @pytest.mark.parametrize("values", [[3e-200, -4e-200], [1e-310, 1e-310], [5e-324]])
    def test_norm(self, values):
        assert SeqWindow(n0=0, values=np.array(values)).norm() == pytest.approx(
            math.hypot(*values), rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("values", [[3e-200, -4e-200], [1e-310, 1e-310], [5e-324]])
    def test_tails_scale_with_the_window(self, values):
        # to rel 1e-12, or to the subnormal step 5e-324 where the tail is
        # too small for float64 to carry its digits
        a = SeqWindow(n0=0, values=np.array(values))
        big = SeqWindow(n0=0, values=1e200 * a.values)
        for op in (lambda w: dht_power(w, 1), lambda w: hilbert_group(0.3, w)):
            assert op(a).tail_l2 == pytest.approx(op(big).tail_l2 * 1e-200,
                                                  rel=1e-12, abs=5e-324)


class TestDefaultExpand:
    @pytest.mark.parametrize("length", [1, 33, 1100])
    def test_every_operator_takes_four_lengths_capped(self, length):
        # one rule for every operator: min(4 len(a), 4096) slots per side
        a = random_window(np.random.default_rng(length), length=length, center=False)
        grow = min(4 * length, 4096)
        for op in (lambda e: hilbert_apply(a, e), lambda e: hilbert_group(0.37, a, e),
                   lambda e: hilbert_group(-1.6, a, e), lambda e: dht_power(a, 2, e)):
            got = op(None)
            want = op(grow)
            assert got.n0 == want.n0 == a.n0 - grow and got.tail_l2 == want.tail_l2
            assert np.array_equal(got.values, want.values)


class TestDhtOrbitReconstruct:
    """The transform's orbit formula, which is term for term the
    bounded-vector expansion (module docstring), through the test oracle
    :func:`paper_dht.vt_expansion`."""

    def test_matches_closed_form(self):
        # sum_{k!=0} sinc(t-k)/k = (1 - sinc t)/t closes the scalar series, so
        # the formula meets the closed form to rounding
        rng = np.random.default_rng(3)
        a = random_window(rng, length=80)
        for t in (0.3, 0.5, 1.7):
            got = vt_expansion(a, t, expand=600)
            want = hilbert_group(t, a, expand=600)
            assert got.n0 == want.n0 and len(got) == len(want)
            assert common_diff(got, want) < 1e-12

    def test_integer_tautology(self):
        rng = np.random.default_rng(4)
        a = random_window(rng)
        out = hilbert_group(2.0, a, expand=10)
        assert out.n0 == a.n0 - 2
        assert np.array_equal(out.values, a.values)

    def test_basis_half_time_entries(self):
        a = SeqWindow.basis(0)
        out = vt_expansion(a, 0.5, expand=400)
        for m in (-2, 0, 3):
            assert out.entry(m) == pytest.approx(1.0 / (PI * (m + 0.5)), abs=1e-6)


class TestDhtVt:
    """The trajectory value e^(tH) a of ``bandlimit dht --action vt``,
    which :func:`hilbert_group` serves."""

    def test_matches_closed_form(self):
        # default window min(4 len, 4096) per side, integer times included;
        # off the integers every entry is sin(pi t)/pi sum_n a_n/(m - n + t)
        rng = np.random.default_rng(6)
        a = SeqWindow(n0=-40, values=random_window(rng, length=80).values, tail_l2=0.01)
        for t in (0.3, 0.5, 1.7, -2.0, 3.0, 1.0 + 1e-10, -0.25):
            got = hilbert_group(t, a)
            want = hilbert_group(t, a, min(4 * len(a), 4096))
            assert got.n0 == want.n0 and got.tail_l2 == want.tail_l2
            assert np.array_equal(got.values, want.values)
            if abs(t - round(t)) > 1e-9:
                m = np.arange(got.n0, got.n_last + 1)[:, None]
                n = np.arange(a.n0, a.n_last + 1)
                direct = math.sin(PI * t) / PI * (a.values / (m - n + t)).sum(axis=1)
                assert np.max(np.abs(got.values - direct)) < 1e-12

    def test_integer_shift(self):
        rng = np.random.default_rng(8)
        a = random_window(rng)
        out = hilbert_group(-1.0, a, expand=5)
        assert out.n0 == a.n0 + 1
        assert np.array_equal(out.values, -a.values)

    def test_linear_in_input(self):
        rng = np.random.default_rng(10)
        a = random_window(rng, length=20)
        b = random_window(rng, length=20)
        t = 0.6
        lhs = hilbert_group(t, a + 2.0 * b, expand=300)
        rhs = hilbert_group(t, a, expand=300) + 2.0 * hilbert_group(t, b, expand=300)
        assert common_diff(lhs, rhs) < 1e-12


class TestDhtPower:
    def test_first_power_matches_apply(self):
        rng = np.random.default_rng(12)
        a = random_window(rng, length=64)
        got = dht_power(a, 1, expand=500)
        want = hilbert_apply(a, expand=500)
        assert common_diff(got, want) < 1e-6

    def test_second_power_matches_double_apply(self):
        rng = np.random.default_rng(14)
        a = random_window(rng, length=64)
        got = dht_power(a, 2, expand=400)
        inner = hilbert_apply(a, expand=20_000)
        want = hilbert_apply(inner, expand=0)
        assert common_diff(got, want, trim=0) < 1e-4

    def test_third_power_matches_triple_apply(self):
        rng = np.random.default_rng(33)
        a = random_window(rng, length=65)
        got = dht_power(a, 3, expand=700)
        want = hilbert_apply(hilbert_apply(hilbert_apply(a, 30_000), 0), 0)
        diff = np.linalg.norm(got.values - want.on_range(got.n0, len(got)))
        assert diff < 1e-4

    def test_iterated_matches_direct(self):
        rng = np.random.default_rng(16)
        a = random_window(rng, length=48)
        direct = dht_power(a, 2, expand=600)
        composed = composed_power(a, 2, expand=600)
        assert common_diff(direct, composed, trim=4) < 2e-4

    def test_power_growth_bound(self):
        rng = np.random.default_rng(18)
        a = random_window(rng, length=32)
        w = a
        for k in range(1, 7):
            w = hilbert_apply(w, expand=200)
            assert w.norm() <= PI ** k * a.norm() * (1 + 1e-9)

    def test_rejects_bad_power(self):
        with pytest.raises(ValueError):
            dht_power(SeqWindow.basis(0), 0)

    def test_rejects_orders_that_overflow(self):
        # on 5 entries the entries stay finite up to r = 170 (1.3e137 at
        # r = 97), and so does the spill; pi^r overflows from 621.
        # RuntimeWarnings are errors here, so none may leak either
        a = SeqWindow(n0=-2, values=np.array([0.5, -1.0, 2.0, 0.25, 1.0]))
        for r in (97, 98, 116, 117, 170):
            out = dht_power(a, r)
            assert math.isfinite(out.tail_l2) and np.all(np.isfinite(out.values)), r
        for r in (171, 400, 621, 1000):
            with pytest.raises(ValueError, match=f"r={r} overflows"):
                dht_power(a, r)

    def test_spill_at_high_order_matches_mpmath(self):
        # at r = 98 the coefficients |alpha_p| reach 1.6e154: the spill sum
        # must not form their products, and must equal the series summed in
        # 60 digits from the exact kernel
        a = SeqWindow(n0=-2, values=np.array([0.5, -1.0, 2.0, 0.25, 1.0]))
        r, expand = 98, 20  # the default expand of a 5-entry window
        got = dht_power(a, r).tail_l2
        with mp.workdps(60):
            beta = [mp.mpf(0)] * (r + 1)
            for q in range(1, r + 1):
                beta = [mp.mpf(0)] + [-q * b for b in beta[:-1]]
                beta[1] += (1 - (-1) ** q) * mp.pi ** q
            alpha = [beta[p] * [1, 0, -1, 0][(r + p) % 4] / (2 * mp.pi) for p in range(r + 1)]
            span = len(a) + expand
            inside = mp.fsum((d - expand) * mp.fsum(alpha[p] * mp.mpf(d) ** -p
                                                    for p in range(1, r + 1)) ** 2
                             for d in range(expand + 1, span + 1))
            beyond = mp.fsum(abs(alpha[p] * alpha[q]) * mp.mpf(span) ** (1 - p - q) / (p + q - 1)
                             for p in range(1, r + 1) for q in range(1, r + 1))
            norm = mp.sqrt(mp.fsum(mp.mpf(v) ** 2 for v in a.values.tolist()))
            want = norm * mp.sqrt(2 * (inside + len(a) * beyond))
        assert abs(got - want) <= 1e-12 * want

    def test_rejects_bad_expand(self):
        a = SeqWindow(n0=-16, values=np.random.default_rng(0).standard_normal(33))
        for r in (1, 2):
            with pytest.raises(ValueError):
                dht_power(a, r, expand=-5)
        # the range check comes before the 2 * 10^7-entry kernel is built
        tracemalloc.start()
        try:
            with pytest.raises(ValueError):
                dht_power(a, 1, expand=dht.HARD_MAX_EXPAND + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def orbit_superposition_kernel(s, span, K):
    """Kernel of H^(2s-1) at d = -span..span by the paper's route: the
    half-integer orbits of sum_k (-1)^(k+1) a(s,k) e^((k-1/2)H) superposed
    to |k| <= K and collapsed to G_s(d) = (1/pi) sum_k a(s,k)/(d + k - 1/2),
    a correlation of the coefficients against the Cauchy kernel."""
    coeffs = boas_coefficient_grid("odd", s, np.arange(-K, K + 1))
    cauchy = 1.0 / (np.arange(-span - K, span + K + 1, dtype=float) - 0.5)
    return np.correlate(cauchy, coeffs, mode="valid") / PI


def wide_power(a, r, half):
    """H^r a on a.n0 - half .. a.n_last + half from the written-out kernels
    1/d, -2/d^2 (c_0 = -pi^2/3) and -pi^2/d + 6/d^3."""
    d = np.arange(-half, half + 1, dtype=float)
    x = 1.0 / np.where(d == 0, 1.0, d)
    kern = {1: x, 2: -2.0 * x ** 2, 3: -PI ** 2 * x + 6.0 * x ** 3}[r]
    kern[half] = -PI ** 2 / 3 if r == 2 else 0.0
    return SeqWindow(n0=a.n0 - half, values=np.convolve(a.values, kern))


class TestPowerKernel:
    @pytest.mark.parametrize("r", [1, 3, 5])
    def test_odd_matches_orbit_superposition(self, r):
        span = 40
        got = dht._power_kernel(r, span)
        want = orbit_superposition_kernel((r + 1) // 2, span, 2 * span + 20_000)
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(got))

    @pytest.mark.parametrize("r", [2, 4])
    def test_even_is_the_b_kernel(self, r):
        span = 60
        want = -boas_coefficient_grid("even", r // 2, np.arange(-span, span + 1))
        np.testing.assert_allclose(dht._power_kernel(r, span), want, rtol=1e-15, atol=0)


class TestPowerTail:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_tail_covers_spill(self, r):
        a = SeqWindow(n0=-16, values=np.random.default_rng(0).standard_normal(33))
        out = dht_power(a, r)
        wide = wide_power(a, r, 500_000)
        inside = wide.on_range(out.n0, len(out))
        outside = math.sqrt(max(float(np.sum(wide.values ** 2) - np.sum(inside ** 2)), 0.0))
        assert outside > 0.0
        assert out.tail_l2 >= outside

    @pytest.mark.parametrize("r", [4, 5, 6])
    def test_tail_covers_spill_high_orders(self, r):
        a = SeqWindow(n0=-3, values=np.array([0.5, -1.0, 2.0, 0.25, -0.75, 1.5, -0.5]))
        out = dht_power(a, r, expand=30)
        wide = dht_power(a, r, expand=200_000)
        inside = wide.on_range(out.n0, len(out))
        np.testing.assert_allclose(inside, out.values, rtol=0, atol=1e-12 * np.abs(inside).max())
        outside = math.sqrt(float(np.sum(wide.values ** 2) - np.sum(inside ** 2)))
        assert outside <= out.tail_l2 <= 10 * outside

    def test_first_power_is_hilbert_apply(self):
        a = SeqWindow(n0=-16, values=np.random.default_rng(0).standard_normal(33))
        for expand in (1, 40, 8192):
            got = dht_power(a, 1, expand=expand)
            want = hilbert_apply(a, expand=expand)
            assert got.n0 == want.n0 and len(got) == len(want)
            assert np.max(np.abs(got.values - want.values)) <= 1e-15 * a.norm()
            assert got.tail_l2 <= want.tail_l2

    def test_input_tail_scales_by_pi_power(self):
        vals = np.array([0.5, -1.0, 0.25])
        bare = dht_power(SeqWindow(n0=0, values=vals), 3, expand=50)
        tailed = dht_power(SeqWindow(n0=0, values=vals, tail_l2=0.01), 3, expand=50)
        assert tailed.tail_l2 == pytest.approx(bare.tail_l2 + PI ** 3 * 0.01, rel=1e-14)


class TestPairing:
    @staticmethod
    def engine(a, b, t, tol=1e-6, k_terms=None):
        """The local orbit engine on p(s) = <e^(sH) a, b> at s = n/2."""
        return _orbit_sum(lambda ns, dts: (dht._pairing(n / 2, a, b) for n in ns.tolist()), 0.0,
                          a.norm() * b.norm(), 0, t, PI, tol, k_terms)

    def test_two_routes_agree(self):
        rng = np.random.default_rng(20)
        for _ in range(40):
            a = random_window(rng, length=int(rng.integers(4, 33)), center=False)
            b = random_window(rng, length=int(rng.integers(4, 33)), center=False)
            b = SeqWindow(n0=b.n0 + int(rng.integers(-8, 9)),
                          values=b.values * rng.uniform(0.2, 5))
            t = float(rng.uniform(-3.0, 3.0))
            for tol in (1e-4, 1e-6, 1e-9):
                direct, sampled = pairing_check(a, b, t, tol=tol)
                value, cert = self.engine(a, b, t, tol)
                assert sampled == value
                assert abs(sampled - direct) <= cert <= tol

    def test_exact_at_sample_times(self):
        rng = np.random.default_rng(22)
        a = random_window(rng, length=16)
        b = random_window(rng, length=16)
        # t = n/2 makes the expansion collapse onto a single sample
        for t in (1.5, -2.0, 0.5, 3.0):
            direct, sampled = pairing_check(a, b, t)
            assert sampled == direct

    def test_pairing_holds_no_matrix(self):
        # one orbit on the window that covers b, not the len(b) x len(a)
        # matrix of 1/(m - n + s) (61 MiB for these windows)
        rng = np.random.default_rng(26)
        a = random_window(rng, length=2001, center=False)
        b = SeqWindow(n0=a.n0 + 300, values=rng.standard_normal(2001))
        s = 0.37
        tracemalloc.start()
        try:
            got = dht._pairing(s, a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        ns = np.arange(a.n0, a.n_last + 1)
        rows = [np.dot(a.values, 1.0 / (m - ns + s)) for m in range(b.n0, b.n_last + 1)]
        want = math.sin(PI * s) / PI * float(np.dot(rows, b.values))
        assert got == pytest.approx(want, rel=1e-12)

    def test_k_terms_pins_half_width(self, monkeypatch):
        rng = np.random.default_rng(24)
        a = random_window(rng, length=12)
        b = random_window(rng, length=12)
        seen = []
        pairing = dht._pairing
        monkeypatch.setattr(dht, "_pairing", lambda s, a, b: seen.append(s) or pairing(s, a, b))
        for n in (4, 9):
            seen.clear()
            # tol is ignored when N is pinned
            direct, sampled = pairing_check(a, b, 0.3, tol=1e-300, k_terms=n)
            assert seen == [(1 + j) / 2 for j in range(-n, n + 1)] + [0.3]
            value, cert = self.engine(a, b, 0.3, k_terms=n)
            assert sampled == value
            assert abs(sampled - direct) <= cert


def full_convolve_reference(a, c):
    """The grown window as the full convolution's slice: c_d on
    d = -span .. span, span = len(a) + expand, 3 len(a) + 2 expand entries
    computed, the middle len(a) + 2 expand kept."""
    L = len(a)
    expand = (len(c) - 1) // 2 - L
    return np.convolve(a.values, c)[L:2 * L + 2 * expand]


class TestWindowConvolve:
    """The valid convolution on |d| < span computes the grown window with
    the same products and sums as the slice of the full one: every entry,
    byte for byte."""

    @staticmethod
    def cases(seed, count):
        rng = np.random.default_rng(seed)
        yield random_window(rng, length=1, center=False), 0
        yield random_window(rng, length=1, center=False), int(rng.integers(1, 50))
        yield random_window(rng, length=int(rng.integers(2, 60)), center=False), 0
        for _ in range(count):
            yield (random_window(rng, length=int(rng.integers(1, 601)), center=False),
                   int(rng.integers(0, 701)))

    def test_group_kernels_bit_identical(self):
        rng = np.random.default_rng(40)
        for a, expand in self.cases(41, 200):
            t = float(rng.uniform(-4.0, 4.0))
            span = len(a) + expand
            c = math.sin(PI * t) / PI / (np.arange(-span, span + 1) + t)
            want = full_convolve_reference(a, c)
            got = hilbert_group(t, a, expand).values
            assert got.size == len(a) + 2 * expand
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
    def test_power_kernels_bit_identical(self, r):
        for a, expand in self.cases(50 + r, 40):
            c = dht._power_kernel(r, len(a) + expand)
            want = full_convolve_reference(a, c)
            got = dht_power(a, r, expand).values
            assert got.size == len(a) + 2 * expand
            assert got.tobytes() == want.tobytes()
