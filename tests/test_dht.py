import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandlimit import dht
from bandlimit.dht import (
    SeqWindow,
    dht_power,
    dht_vt,
    hilbert_apply,
    hilbert_group,
    integer_orbit,
    pairing_check,
)
from bandlimit.grouporbit import BernsteinVector, orbit_reconstruct
from paper_boas import boas_coefficient_grid

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

    def test_validation(self):
        with pytest.raises(ValueError):
            SeqWindow(n0=0, values=np.array([math.nan]))
        with pytest.raises(ValueError):
            SeqWindow(n0=0, values=np.array([1.0]), tail_l2=-1.0)


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
                "vt": lambda e: dht_vt(a, t, expand=e),
                "orbit": lambda e: orbit_reconstruct(BernsteinVector(dht.dht_instance(e), a, PI),
                                                     t)}[op]
        for bad in (-5, dht.HARD_MAX_EXPAND + 1):
            with pytest.raises(ValueError):
                call(bad)


class TestDhtOrbitReconstruct:
    """The transform's orbit formula, which is term for term the
    bounded-vector expansion (module docstring), through :func:`dht_vt`."""

    def test_matches_closed_form(self):
        # sum_{k!=0} sinc(t-k)/k = (1 - sinc t)/t closes the scalar series, so
        # the formula meets the closed form to rounding
        rng = np.random.default_rng(3)
        a = random_window(rng, length=80)
        for t in (0.3, 0.5, 1.7):
            got = dht_vt(a, t, expand=600)
            want = hilbert_group(t, a, expand=600)
            assert common_diff(got, want) < 1e-12

    def test_integer_tautology(self):
        rng = np.random.default_rng(4)
        a = random_window(rng)
        out = dht_vt(a, 2.0, expand=10)
        assert out.n0 == a.n0 - 2
        assert np.array_equal(out.values, a.values)

    def test_basis_half_time_entries(self):
        a = SeqWindow.basis(0)
        out = dht_vt(a, 0.5, expand=400)
        for m in (-2, 0, 3):
            assert out.entry(m) == pytest.approx(1.0 / (PI * (m + 0.5)), abs=1e-6)


class TestDhtVt:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(6)
        a = random_window(rng, length=80)
        for t in (0.3, 0.5, 1.7):
            got = dht_vt(a, t, expand=600)
            want = hilbert_group(t, a, expand=600)
            assert common_diff(got, want) < 1e-8

    def test_integer_shift(self):
        rng = np.random.default_rng(8)
        a = random_window(rng)
        out = dht_vt(a, -1.0, expand=5)
        assert out.n0 == a.n0 + 1
        assert np.array_equal(out.values, -a.values)

    def test_linear_in_input(self):
        rng = np.random.default_rng(10)
        a = random_window(rng, length=20)
        b = random_window(rng, length=20)
        t = 0.6
        lhs = dht_vt(a + 2.0 * b, t, expand=300)
        rhs = dht_vt(a, t, expand=300) + 2.0 * dht_vt(b, t, expand=300)
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
        iterated = dht_power(a, 2, expand=600, iterated=True)
        assert common_diff(direct, iterated, trim=4) < 2e-4

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
        out = dht_power(a, r, tol=1e-3)
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
    def test_two_routes_agree(self):
        rng = np.random.default_rng(20)
        a = random_window(rng, length=24)
        b = random_window(rng, length=24)
        direct, sampled = pairing_check(a, b, 0.7, gamma=0.5, k_terms=4000)
        assert direct == pytest.approx(sampled, abs=1e-3)

    def test_exact_at_sample_times(self):
        rng = np.random.default_rng(22)
        a = random_window(rng, length=16)
        b = random_window(rng, length=16)
        # t = gamma * N makes the expansion collapse onto a single sample
        direct, sampled = pairing_check(a, b, 1.5, gamma=0.5, k_terms=64)
        assert direct == pytest.approx(sampled, abs=1e-13)

    def test_rejects_bad_gamma(self):
        a = SeqWindow.basis(0)
        with pytest.raises(ValueError):
            pairing_check(a, a, 0.3, gamma=1.5)
