import itertools
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandlimit.boas import (
    _derivatives,
    bernstein_ratio,
    boas_derivative,
    boas_derivative_fast,
    series_tail_bound,
    truncation_halfwidth,
)
from bandlimit.errors import ToleranceError
from bandlimit.grouporbit import BernsteinVector, GroupInstance, group_boas
from bandlimit.sampling import BandlimitedFn, make_reference
from bandlimit.sinckernel import MAX_HALFWIDTH, _row_sums
from mp_reference import ToneSum
from paper_boas import (
    BLOCK,
    boas_coefficient,
    boas_coefficient_grid,
    paper_boas_derivative,
    paper_boas_derivative_fast,
    shifted_series,
    table,
)

PI = math.pi


def closed_derivative(kind, sigma, r, x):
    cycle_sin = [math.sin, math.cos, lambda t: -math.sin(t), lambda t: -math.cos(t)]
    base = cycle_sin[r % 4] if kind == "sin" else cycle_sin[(r + 1) % 4]
    return sigma ** r * base(sigma * x)


def fast_reference(f, r, t, K):
    """The fast formulas written out by hand, one branch per parity: the
    reference the table-driven oracle must reproduce bit for bit."""
    sigma = f.sigma
    ks = np.arange(1, K + 1)
    signs = (-1.0) ** (ks + 1)
    if r % 2 == 0:
        m = r // 2
        coeffs = boas_coefficient_grid("odd", m, ks) / (ks - 0.5)
        shifts = PI * (ks - 0.5) / sigma
        pair = signs * coeffs * (np.asarray(f(t + shifts), dtype=float)
                                 + np.asarray(f(t - shifts), dtype=float))
        series = 2 * m * sigma ** (2 * m) / PI ** (2 * m) * float(np.sum(pair))
        const = (-1.0) ** m * sigma ** (2 * m) * float(np.asarray(f(t), dtype=float))
        return const + series
    m = (r - 1) // 2
    coeffs = boas_coefficient_grid("even", m, ks) / ks
    shifts = PI * ks / sigma
    pair = signs * coeffs * (np.asarray(f(t + shifts), dtype=float)
                             - np.asarray(f(t - shifts), dtype=float))
    series = (2 * m + 1) * sigma ** (2 * m + 1) / PI ** (2 * m + 1) * float(np.sum(pair))
    b0 = boas_coefficient("even", m, 0)
    dterm = -(2 * m + 1) * sigma ** (2 * m) / PI ** (2 * m) * b0 \
        * float(np.asarray(f.deriv_eval(t), dtype=float))
    return dterm + series


def whole_row_reference(f, variant, r, xs, K):
    """The shifted-sample series before its walk over blocks of shifts: the
    table of all K shifts and weights built at once, f called on every
    x +- s_k of a block of points, and each point's whole row summed on its
    own.  The reference the blocked oracle must reproduce bit for bit up to
    one block of shifts.  Returns the values and prefactor * sum |w_k|."""
    sigma = f.sigma
    half = (r % 2 == 1) == (variant == "standard")
    m = (r + 1) // 2 if variant == "standard" else r // 2
    ks = np.arange(1, K + 1)
    j = ks - 0.5 if half else ks
    coeffs = boas_coefficient_grid("odd" if half else "even", m, ks)
    signs = (-1.0) ** (ks + 1)
    shifts = PI * j / sigma
    if variant == "standard":
        w, scale = signs * coeffs, (sigma / PI) ** r
        local = None if half else (-boas_coefficient("even", m, 0), False, True)
    else:
        w, scale = signs * (coeffs / j), r * sigma ** r / PI ** r
        if half:
            local = ((-1.0) ** m * sigma ** r, False, False)
        else:
            b0 = boas_coefficient("even", m, 0)
            local = (-r * sigma ** (r - 1) / PI ** (r - 1) * b0, True, False)
    odd = r % 2 == 1

    def rows(b):
        x = xs[b, None]
        plus = np.asarray(f((x + shifts).ravel()), dtype=float).reshape(-1, K)
        minus = np.asarray(f((x - shifts).ravel()), dtype=float).reshape(-1, K)
        return np.sum(w * (plus - minus if odd else plus + minus), axis=1)

    out = _row_sums(xs.size, K, rows)
    if local is None:
        return scale * out, scale * np.sum(np.abs(w))
    c, deriv, inside = local
    term = c * np.asarray((f.deriv_eval if deriv else f)(xs), dtype=float)
    value = scale * (out + term) if inside else scale * out + term
    return value, scale * np.sum(np.abs(w))


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestBlockedEngine:
    """The paper-series oracle walks k = 1..K in blocks of BLOCK shifts."""

    XS = np.array([0.0, 0.3, -2.9, 0.37, 5.5])

    def test_bit_identical_to_whole_rows_up_to_one_block(self):
        for kind, sigma in (("sin", 1.0), ("fejer", 2.5), ("const", 1.0)):
            f = make_reference(kind, sigma)
            for r, K in itertools.product((1, 2, 3, 4), (1, BLOCK)):
                want, _ = whole_row_reference(f, "standard", r, self.XS, K)
                got = shifted_series(f, "standard", r, self.XS, 1.0, K)
                assert np.array_equal(bits(got), bits(want)), (kind, r, K)
                assert bits(paper_boas_derivative(f, r, 0.3, k_terms=K)) == bits(want[1])
        for kind, sigma in (("sin", 1.0), ("sinc", 2.5), ("fejer", 1.0)):
            f = make_reference(kind, sigma)
            for r in (2, 3, 4, 5):
                K = truncation_halfwidth("fast", r, sigma, f.sup_bound, 1e-5)
                assert K <= BLOCK
                want, _ = whole_row_reference(f, "fast", r, self.XS, K)
                got = shifted_series(f, "fast", r, self.XS, 1e-5, None)
                assert np.array_equal(bits(got), bits(want)), (kind, r, K)

    def test_block_sums_within_the_summation_bound(self):
        # two orders of summation of 2K products of at most |w_k| sup|f|
        # differ by at most 4 K u prefactor sum|w_k| sup|f|
        f = make_reference("fejer", 1.0)
        xs = np.array([0.3, -1.7])
        for K, r in itertools.product((BLOCK + 1, 200_000, 810_570), (1, 2, 3, 4)):
            want, weight = whole_row_reference(f, "standard", r, xs, K)
            got = shifted_series(f, "standard", r, xs, 1.0, K)
            bound = 4 * K * 2.0 ** -53 * weight * f.sup_bound
            assert np.all(np.abs(got - want) <= bound), (K, r, got - want, bound)

    def test_block_entries_are_those_of_the_full_table(self):
        K = 3 * 1000
        for variant, r in itertools.chain(zip(itertools.repeat("standard"), (1, 2, 3, 4)),
                                          zip(itertools.repeat("fast"), (2, 3, 4, 5))):
            full = table(variant, r, 1.3, 1, K + 1)
            for k0, k1 in ((1, 1000), (1000, 2001), (1001, 2000), (2999, K + 1)):
                block = table(variant, r, 1.3, k0, k1)
                for a, b in zip(block[:2], full[:2]):
                    assert np.array_equal(bits(a), bits(b[k0 - 1:k1 - 1])), (variant, r, k0)
                assert block[2:] == full[2:]
            # the weights are the coefficients times exactly (-1)^(k+1)
            ks = np.arange(1, K + 1)
            half = (r % 2 == 1) == (variant == "standard")
            m = (r + 1) // 2 if variant == "standard" else r // 2
            coeffs = boas_coefficient_grid("odd" if half else "even", m, ks)
            if variant == "fast":
                coeffs = coeffs / (ks - 0.5 if half else ks)
            assert np.array_equal(full[1], np.where(ks % 2 == 1, coeffs, -coeffs))

    def test_memory_does_not_grow_with_the_halfwidth(self):
        # K = 810 570 shifts: the whole table and its samples took 55.7 MiB;
        # the local engine reads about 50 translates
        f = make_reference("fejer", 1.0)
        for derivative in (paper_boas_derivative, boas_derivative):
            tracemalloc.start()
            try:
                derivative(f, 4, 0.3, tol=1e-6)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 << 20, (derivative.__name__, peak / 2 ** 20)


class TestBoasDerivative:
    def test_sine_identity_at_zero(self):
        # first derivative of sin at 0 recovers sigma through the lattice sum
        # of 1/(k-1/2)^2
        for sigma in (1.0, 2.5):
            f = make_reference("sin", sigma)
            got = boas_derivative(f, 1, 0.0, k_terms=10_000)
            assert got == pytest.approx(sigma, abs=1e-4 * max(sigma, 1.0))

    def test_constant_annihilated(self):
        f = make_reference("const", PI)
        got = boas_derivative(f, 2, 0.37, k_terms=200_000)
        assert abs(got) <= 1e-10

    def test_cosine_second_derivative(self):
        sigma = 1.0
        f = make_reference("cos", sigma)
        got = boas_derivative(f, 2, 0.4, tol=1e-4)
        assert got == pytest.approx(-sigma ** 2 * math.cos(0.4 * sigma), abs=1e-4)

    def test_oracle_equivalence_low_orders(self):
        rng = np.random.default_rng(3)
        for kind in ("sin", "cos"):
            f = make_reference(kind, 1.0)
            for r in (1, 2, 3, 4):
                for x in rng.uniform(-5, 5, size=5):
                    got = boas_derivative(f, r, float(x), k_terms=10_000)
                    want = closed_derivative(kind, 1.0, r, float(x))
                    assert got == pytest.approx(want, abs=1e-3)

    def test_first_order_against_difference_oracle(self):
        # fourth-order central stencil as an independent route
        rng = np.random.default_rng(11)
        f = make_reference("cos", 1.3)
        step = 1e-2
        for x in rng.uniform(-5, 5, size=25):
            got = boas_derivative(f, 1, float(x), tol=1e-4)
            fd = (-float(f(x + 2 * step)) + 8 * float(f(x + step))
                  - 8 * float(f(x - step)) + float(f(x - 2 * step))) / (12 * step)
            assert got == pytest.approx(fd, abs=1e-4)

    def test_composition_matches_second_order(self):
        sigma = 1.0
        f = make_reference("sin", sigma)

        def first(x):
            x = np.atleast_1d(np.asarray(x, dtype=float))
            return np.array([boas_derivative(f, 1, float(t), tol=1e-5) for t in x])

        g = BandlimitedFn(sigma=sigma, sup_bound=sigma * (1 + 1e-4), eval=first)
        for x in (0.0, 0.6):
            twice = boas_derivative(g, 1, x, tol=1e-4)
            direct = boas_derivative(f, 2, x, tol=1e-4)
            assert twice == pytest.approx(direct, abs=3e-4)

    def test_translation_equivariance(self):
        sigma = 1.3
        f = make_reference("sin", sigma)
        x = 0.83
        shifted = make_reference("sin", sigma, phase=sigma * x)
        a = boas_derivative(f, 1, x, k_terms=2000)
        b = boas_derivative(shifted, 1, 0.0, k_terms=2000)
        assert a == pytest.approx(b, abs=1e-12)

    def test_norm_contract(self):
        for kind, sigma in (("sin", 1.0), ("cos", 2.0), ("fejer", 1.5)):
            f = make_reference(kind, sigma)
            for r in (1, 2, 3):
                got = boas_derivative(f, r, 0.21, tol=1e-5)
                assert abs(got) <= sigma ** r * f.sup_bound + 1e-4

    def test_unachievable_tolerance(self):
        f = make_reference("sin", 1.0)
        with pytest.raises(ToleranceError) as info:
            boas_derivative(f, 1, 0.0, tol=1e-12)
        assert info.value.achievable is not None

    def test_rejects_bad_order(self):
        f = make_reference("sin", 1.0)
        with pytest.raises(ValueError):
            boas_derivative(f, 0, 0.0, tol=1e-3)

    @given(st.floats(min_value=-4.0, max_value=4.0, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_first_order_tracks_cosine(self, x):
        f = make_reference("sin", 1.0)
        got = boas_derivative(f, 1, x, k_terms=3000)
        assert got == pytest.approx(math.cos(x), abs=1e-3)


def mp_derivative(kind, sigma, r, x):
    """f^(r)(x) of the sin or Fejer reference at 30 digits."""
    with mp.workdps(30):
        if kind == "sin":
            return float(sigma ** r * mp.sin(sigma * mp.mpf(x) + r * mp.pi / 2))
        return float(mp.diff(lambda t: mp.sinc(sigma * t / 2) ** 2, mp.mpf(x), r))


@st.composite
def tone_functions(draw):
    """1-5 tones of type at most sigma, one of them at full type, as a
    BandlimitedFn with sup_bound = sum |a_i| and its 30-digit ToneSum."""
    n = draw(st.integers(1, 5))
    sigma = draw(st.floats(0.25, 3.0))
    amps = [draw(st.floats(0.1, 2.0))] + [draw(st.floats(-2.0, 2.0)) for _ in range(n - 1)]
    freqs = [sigma] + [draw(st.floats(-sigma, sigma)) for _ in range(n - 1)]
    phases = [draw(st.floats(0.0, 2 * PI)) for _ in range(n)]
    a, w, p = (np.array(v)[:, None] for v in (amps, freqs, phases))

    def f(x):
        return np.sum(a * np.sin(w * np.asarray(x, dtype=float) + p), axis=0)

    fn = BandlimitedFn(sigma=sigma, sup_bound=float(np.sum(np.abs(amps))), eval=f)
    return fn, ToneSum(amps, freqs, phases)


class TestLocalEngine:
    """boas_derivative runs the local engine at time 0 on the translation
    group: f at x + n h, h = pi/(2 sigma), for the nonzero weights."""

    XS = (0.3, -2.9, 7.4)

    @pytest.mark.parametrize("kind", ["sin", "fejer"])
    def test_meets_1e10_for_orders_up_to_3(self, kind):
        f = make_reference(kind, 1.0)
        for r, x in itertools.product((1, 2, 3), self.XS):
            got, cert = _derivatives(f, r, [x], 1e-10, None)
            err = abs(got[0] - mp_derivative(kind, 1.0, r, x))
            assert err <= cert[0] <= 1e-10, (r, x, err, cert[0])

    def test_order_4_stops_at_the_rounding_floor(self):
        f = make_reference("fejer", 1.0)
        with pytest.raises(ToleranceError) as info:
            boas_derivative(f, 4, 0.3, tol=1e-10)
        achievable = info.value.achievable
        assert 1e-10 < achievable < 1.5e-10
        assert f"achievable tol {achievable:.3e}" in str(info.value)
        got = boas_derivative(f, 4, 0.3, tol=achievable)
        assert abs(got - mp_derivative("fejer", 1.0, 4, 0.3)) <= achievable

    @given(tone_functions(), st.integers(1, 4),
           st.one_of(st.floats(-40.0, 40.0), st.sampled_from([-3.7e4, 2.1e6, 1e9])),
           st.sampled_from([1e-6, 1e-8]))
    @settings(max_examples=80, deadline=None)
    def test_tone_sums_error_within_certificate(self, tones, r, x, tol):
        fn, exact = tones
        try:
            got, cert = _derivatives(fn, r, [x], tol, None)
        except ToleranceError as exc:  # below the rounding floor: take the floor
            assert exc.achievable > tol
            tol = exc.achievable
            got, cert = _derivatives(fn, r, [x], tol, None)
        assert abs(got[0] - exact(x, r)) <= cert[0] <= tol

    @pytest.mark.parametrize("r", [1, 2])
    def test_far_points_count_the_rounding_of_the_sample_points(self, r):
        # x + n h is rounded to ulp(x): at x = 1e9 that moves each sample by
        # about 1e-7, so tol 1e-10 is out of reach and must say so
        f = make_reference("sin", 1.0)
        for x, tol in itertools.product((1e3, 1e6, 1e9), (1e-6, 1e-10)):
            try:
                got, cert = _derivatives(f, r, [x], tol, None)
            except ToleranceError as exc:
                assert exc.achievable > tol
                continue
            assert abs(got[0] - mp_derivative("sin", 1.0, r, x)) <= cert[0] <= tol, (x, tol)
        with pytest.raises(ToleranceError):
            boas_derivative(f, r, 1e9, tol=1e-10)

    def test_far_point_sized_by_the_computed_weight_sum(self):
        # the N search charges the rounding of x + n h with the computed
        # sum |w| of the row; (2N+1) W_r in its place, 10-90 times larger,
        # refused tol 1e-6 at x = 1e9 with achievable 1.2e-5
        f = make_reference("sin", 1.0)
        got, cert = _derivatives(f, 1, [1e9], 1e-6, None)
        with mp.workdps(30):
            want = float(mp.cos(mp.mpf(1e9)))
        assert abs(got[0] - want) <= cert[0] <= 1e-6
        assert boas_derivative(f, 1, 1e9) == got[0]

    @pytest.mark.parametrize("kind", ["sin", "fejer"])
    def test_paper_series_agree_within_2tol(self, kind):
        f = make_reference(kind, 1.0)
        for r, x in itertools.product((1, 2, 3, 4), self.XS[:2]):
            want = paper_boas_derivative(f, r, x, tol=1e-6)
            assert abs(boas_derivative(f, r, x, tol=1e-6) - want) <= 2e-6, (r, x)
            if r >= 2:
                want = paper_boas_derivative_fast(f, r, x, tol=1e-6)
                assert abs(boas_derivative_fast(f, r, x, tol=1e-6) - want) <= 2e-6, (r, x)

    @pytest.mark.parametrize("kind", ["sin", "fejer"])
    def test_is_group_boas_on_the_translation_group(self, kind):
        # e^(sD) f = f(. + s) on the one-point vector v = [x]: the same
        # samples, weights and index-order sum, so the same bits
        f = make_reference(kind, 1.0)
        inst = GroupInstance(orbit=lambda s, v: f(v + s), generator=lambda v: v,
                             norm=lambda v: f.sup_bound, sigma_bound=f.sigma, dim=1)
        for r, x, K in itertools.product((1, 2, 3, 4), self.XS, (16, 300)):
            b = BernsteinVector(inst, np.array([x]), f.sigma)
            got = group_boas(b, r, k_terms=K)
            assert bits(got[0]) == bits(boas_derivative(f, r, x, k_terms=K)), (r, x, K)

    def test_reads_each_translate_once(self):
        seen = []
        sin = make_reference("sin", 2.0)
        f = BandlimitedFn(sigma=2.0, sup_bound=1.0,
                          eval=lambda x: seen.extend(np.asarray(x).tolist()) or sin(x))
        for r in (1, 2, 3, 4):
            seen.clear()
            boas_derivative(f, r, 0.3, tol=1e-6)
            assert 20 < len(seen) == len(set(seen)) <= 64, (r, len(seen))

    def test_type_zero_is_constant(self):
        f = BandlimitedFn(sigma=0.0, sup_bound=2.0,
                          eval=lambda x: np.full_like(np.asarray(x, dtype=float), -1.5))
        grid = np.linspace(-5.0, 5.0, 11)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for r in (1, 2, 5):
                assert boas_derivative(f, r, 0.3) == 0.0
                assert boas_derivative(f, r, 0.3, k_terms=8) == 0.0
            assert bernstein_ratio(f, 1, math.inf, grid) == 0.0
            assert bernstein_ratio(f, 2, 2.0, grid) == 0.0
        for kw in ({"k_terms": 0}, {"tol": 0.0}, {"tol": -1.0}):
            with pytest.raises(ValueError):
                boas_derivative(f, 1, 0.3, **kw)

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_rejects_a_point_that_is_not_finite(self, x):
        with pytest.raises(ValueError):
            boas_derivative(make_reference("sin", 1.0), 1, x)

    def test_tiny_type_is_bounded_by_bernstein(self):
        # h = pi/(2 sigma) is 1.6e160: h^2 would overflow
        f = BandlimitedFn(sigma=1e-160, sup_bound=1e10,
                          eval=lambda x: 1e10 * np.cos(1e-160 * np.asarray(x)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert boas_derivative(f, 2, 0.3) == 0.0
            assert abs(boas_derivative(f, 1, 0.3, tol=1e-140)) <= 1e-140
        with pytest.raises(ToleranceError) as info:
            boas_derivative(f, 2, 0.3, tol=1e-320)
        assert info.value.achievable == 1e-160 ** 2 * 1e10


class TestFastVariants:
    """boas_derivative_fast is the local engine; the paper's fast series is
    the oracle of :mod:`paper_boas`."""

    def test_is_boas_derivative(self):
        assert boas_derivative_fast is boas_derivative

    def test_first_order_is_the_derivative(self):
        f = make_reference("sin", 1.0)
        assert boas_derivative_fast(f, 1, 0.4, tol=1e-6) == pytest.approx(math.cos(0.4),
                                                                        abs=1e-6)

    def test_even_constant_term_exercised(self):
        sigma = 1.0
        f = make_reference("cos", sigma)
        got = boas_derivative_fast(f, 2, 0.0, tol=1e-4)
        assert got == pytest.approx(-sigma ** 2, abs=1e-4)

    def test_even_matches_standard_off_special_points(self):
        # the even formula's constant term carries f(t); generic evaluation
        # points distinguish that from the bare constant
        f = make_reference("sin", 1.0)
        for t in (0.0, 0.31, -2.2):
            fast = paper_boas_derivative_fast(f, 2, t, tol=1e-4)
            std = paper_boas_derivative(f, 2, t, tol=1e-4)
            assert fast == pytest.approx(std, abs=2e-3)
            assert boas_derivative_fast(f, 2, t, tol=1e-4) == pytest.approx(std, abs=2e-4)

    def test_odd_matches_standard(self):
        f = make_reference("sinc", 2.0)
        fast = paper_boas_derivative_fast(f, 3, 0.0, tol=1e-4)
        std = paper_boas_derivative(f, 3, 0.0, tol=1e-4)
        assert fast == pytest.approx(std, abs=2e-3)
        assert boas_derivative_fast(f, 3, 0.0, tol=1e-4) == pytest.approx(std, abs=2e-4)

    def test_odd_needs_no_derivative_handle(self):
        # the paper's odd fast formula consumes f'(t); the local engine
        # reads f alone
        f = BandlimitedFn(sigma=1.0, sup_bound=1.0,
                          eval=lambda x: np.sin(np.asarray(x, dtype=float)))
        with pytest.raises(ValueError):
            paper_boas_derivative_fast(f, 3, 0.0, tol=1e-3)
        assert boas_derivative_fast(f, 3, 0.4, tol=1e-6) == pytest.approx(-math.cos(0.4),
                                                                        abs=1e-6)

    def test_fast_needs_fewer_terms(self):
        for tol in (1e-3, 1e-6):
            for r in (2, 3, 4):
                k_fast = truncation_halfwidth("fast", r, 1.0, 1.0, tol)
                k_std = truncation_halfwidth("standard", r, 1.0, 1.0, tol)
                assert k_fast < k_std

    def test_tail_bounds_decrease(self):
        for variant in ("standard", "fast"):
            tails = [series_tail_bound(variant, 2, 1.0, 1.0, K)
                     for K in (10, 100, 1000)]
            assert tails[0] > tails[1] > tails[2]


    def test_bit_identical_to_hand_written_formulas(self):
        for kind, sigma in itertools.product(("sin", "cos", "sinc", "fejer"), (1.0, 2.5)):
            f = make_reference(kind, sigma)
            for r in (2, 3, 4, 5):
                K = truncation_halfwidth("fast", r, sigma, f.sup_bound, 1e-5)
                for t in (0.0, 0.37, -2.9):
                    want = fast_reference(f, r, t, K)
                    assert paper_boas_derivative_fast(f, r, t, tol=1e-5) == want
                    assert paper_boas_derivative_fast(f, r, t, k_terms=K) == want


class TestTruncationHalfwidth:
    def test_matches_scan_for_smallest_halfwidth(self):
        for variant, r, sigma, sup, tol in itertools.product(
                ("standard", "fast"), (1, 2, 3, 4, 5), (0.5, 1.0), (0.0, 0.3, 1.0),
                (1e-1, 1e-2, 1e-3)):
            if variant == "fast" and r == 1:
                continue
            scan = next(K for K in itertools.count(1)
                        if series_tail_bound(variant, r, sigma, sup, K) <= tol)
            assert truncation_halfwidth(variant, r, sigma, sup, tol) == scan

    def test_beyond_max_halfwidth_raises_with_achievable_tail(self):
        for variant, r in (("standard", 1), ("standard", 4), ("fast", 2), ("fast", 3)):
            with pytest.raises(ToleranceError) as info:
                truncation_halfwidth(variant, r, 1.0, 1.0, 1e-15)
            assert info.value.achievable == series_tail_bound(variant, r, 1.0, 1.0,
                                                              MAX_HALFWIDTH)

    def test_rejects_bad_arguments(self):
        for args in (("standard", 0, 1.0, 1.0, 1e-3), ("fast", 1, 1.0, 1.0, 1e-3),
                     ("slow", 2, 1.0, 1.0, 1e-3), ("standard", 2, 1.0, 1.0, 0.0)):
            with pytest.raises(ValueError):
                truncation_halfwidth(*args)


class TestBernsteinRatio:
    def test_sine_extremal(self):
        sigma = 1.5
        f = make_reference("sin", sigma)
        grid = np.linspace(-6 / sigma, 6 / sigma, 301)
        ratio = bernstein_ratio(f, 1, math.inf, grid, tol=1e-4)
        assert ratio == pytest.approx(sigma, rel=1e-3)

    def test_fejer_below_rate(self):
        sigma = 1.0
        f = make_reference("fejer", sigma)
        grid = np.linspace(-40, 40, 1201)
        ratio = bernstein_ratio(f, 1, 2.0, grid, tol=1e-4)
        assert ratio <= sigma

    def test_constant_zero(self):
        f = make_reference("const", 1.0)
        grid = np.linspace(-5, 5, 101)
        for m in (1, 2):
            assert bernstein_ratio(f, m, math.inf, grid, tol=1e-4) == pytest.approx(0.0, abs=1e-4)

    def test_degenerate_grid(self):
        f = make_reference("sin", 1.0)
        with pytest.raises(ValueError):
            bernstein_ratio(f, 1, math.inf, np.array([0.0, 1.0]))

    @pytest.mark.parametrize("p, grid", [(3.0, np.linspace(-40, 40, 1201)),
                                         (2.0, np.linspace(40, -40, 1201)),
                                         (1.0, np.r_[np.linspace(-40, 0, 601), 0.0, 1.0])])
    def test_refuses_before_it_calls_f(self, p, grid):
        # p and the grid's order are checked before the Boas table is built
        ref = make_reference("fejer", 1.0)
        calls = []
        f = BandlimitedFn(sigma=ref.sigma, sup_bound=ref.sup_bound,
                          eval=lambda x: calls.append(1) or ref(x))
        with pytest.raises(ValueError):
            bernstein_ratio(f, 1, p, grid, tol=1e-4)
        assert calls == []
