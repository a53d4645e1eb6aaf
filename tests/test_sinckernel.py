import cmath
import functools
import math
import tracemalloc
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandlimit.boas import boas_derivative, truncation_halfwidth
from bandlimit.errors import ToleranceError
from bandlimit.grouporbit import _weighted_sum
from bandlimit.sampling import (UniformSamples, _kernel_decay_const, make_reference, wks_eval_grid,
                                wks_tail_bound)
import bandlimit.sinckernel as sinckernel
from bandlimit.sinckernel import (
    MAX_HALFWIDTH,
    _QUAD_SLOPE,
    _WEIGHT_ERR,
    _band_halfwidth,
    _band_tail,
    _drop_small,
    _lattice_series,
    _local_series,
    _snap_grid,
    coefficient_tail_bound,
    regularized_sinc_certificate,
    regularized_sinc_grid,
    sinc,
    sinc_derivative,
    sinc_derivative_grid,
    sinc_grid,
)
from mp_reference import sinc_derivative_closed, sinc_derivative_mp, sinc_derivative_quad
from paper_boas import boas_coefficient, boas_coefficient_grid

PI = math.pi
EPS = 2.0 ** -52


class TestSinc:
    def test_removable_singularity(self):
        assert sinc(0.0) == 1.0

    def test_integer_zeros_exact(self):
        for k in (1, -1, 2, -7, 100, -12345):
            assert sinc(float(k)) == 0.0

    def test_half(self):
        assert sinc(0.5) == pytest.approx(2.0 / PI, rel=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sinc(math.inf)
        with pytest.raises(ValueError):
            sinc(math.nan)

    @given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
    @settings(max_examples=300)
    def test_bounded_by_one(self, x):
        assert abs(sinc(x)) <= 1.0 + 1e-12

    @given(st.floats(min_value=1e-8, max_value=1e3, allow_nan=False))
    @settings(max_examples=200)
    def test_even(self, x):
        assert sinc(-x) == sinc(x)

    def test_scalar_equals_grid(self):
        xs = np.linspace(-7.3, 7.3, 201)
        assert [sinc(float(x)) for x in xs] == list(sinc_grid(xs))
        for m in (1, 2, 3, 6):
            want = list(sinc_derivative_grid(m, xs))
            assert [sinc_derivative(m, float(x)) for x in xs] == want, m

    def test_grid_complex_matches_cmath(self):
        zs = np.array([0.3 + 0.4j, -1.7 + 0.01j, 2.5 - 1.2j, 1e-3 + 1e-3j,
                       40.25 + 0.5j, 1.0 + 2.0j, 0.02j, -3.5 + 0.0j])
        got = sinc_grid(zs)
        for z, g in zip(zs, got):
            want = cmath.sin(PI * z) / (PI * z)
            assert abs(g - want) <= 1e-14 * abs(want), z

    def test_grid_complex_lattice(self):
        got = sinc_grid(np.array([0j, 3 + 0j, -7 + 0j, 2 + 1e-300j]))
        assert list(got[:3]) == [1.0, 0.0, 0.0]
        assert got[3] != 0.0


class TestSincDerivative:
    def test_odd_orders_vanish_at_zero(self):
        for m in (1, 3, 5, 7):
            assert sinc_derivative(m, 0.0) == 0.0

    def test_even_orders_at_zero(self):
        for m in (2, 4, 6):
            want = (-1.0) ** (m // 2) * PI ** m / (m + 1)
            assert sinc_derivative(m, 0.0) == pytest.approx(want, rel=1e-15)

    def test_third_derivative_against_difference_oracle(self):
        # high-precision central stencil of plain sinc at step 1e-4
        import mpmath as mp

        x, hstep = mp.mpf("0.37"), mp.mpf("1e-4")
        with mp.workdps(40):
            def s(t):
                return mp.sin(mp.pi * t) / (mp.pi * t)

            stencil = (-s(x - 2 * hstep) / 2 + s(x - hstep)
                       - s(x + hstep) + s(x + 2 * hstep) / 2) / hstep ** 3
        oracle = float(stencil)
        value = sinc_derivative(3, 0.37)
        assert value == pytest.approx(oracle, abs=1e-6)
        # frozen from the oracle above
        assert value == pytest.approx(6.108159463901585, abs=1e-9)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            sinc_derivative(-1, 0.3)

    def test_branch_agreement_near_origin(self):
        # the closed form self-guards its cancellation, so both evaluation
        # routes must agree deep inside the series region
        xs = np.logspace(-6, -2, 25)
        for m in range(0, 7):
            for x in xs:
                a = sinc_derivative_quad(m, float(x))
                b = sinc_derivative_closed(m, float(x))
                assert abs(a - b) <= 1e-9, (m, x, a, b)

    def test_grid_matches_scalar(self):
        xs = np.array([-3.2, -0.51, -0.04, 0.0, 0.02, 0.6, 1.0, 7.25])
        for m in range(0, 5):
            grid = sinc_derivative_grid(m, xs)
            for x, g in zip(xs, grid):
                assert g == pytest.approx(sinc_derivative(m, float(x)), abs=1e-13)

    def test_proof_recurrences(self):
        # (2m-1) sinc^(2m-2)(1/2-k) = (k-1/2) sinc^(2m-1)(1/2-k)
        # 2m sinc^(2m-1)(-k) = k sinc^(2m)(-k)
        for m in (1, 2, 3):
            for k in range(-50, 51):
                lhs = (2 * m - 1) * sinc_derivative(2 * m - 2, 0.5 - k)
                rhs = (k - 0.5) * sinc_derivative(2 * m - 1, 0.5 - k)
                assert lhs == pytest.approx(rhs, abs=1e-9)
                lhs2 = 2 * m * sinc_derivative(2 * m - 1, float(-k))
                rhs2 = k * sinc_derivative(2 * m, float(-k))
                assert lhs2 == pytest.approx(rhs2, abs=1e-9)


class TestHighOrderKernel:
    """Every order m <= 20 within 1e-10 pi^m/(m+1) of a 50-digit reference,
    through both the scalar and the grid path."""

    @given(st.integers(min_value=0, max_value=20),
           st.floats(min_value=-8.0, max_value=8.0, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_against_mpmath(self, m, x):
        want = sinc_derivative_mp(m, x)
        scale = 1e-10 * PI ** m / (m + 1)
        assert abs(sinc_derivative(m, x) - want) <= scale
        assert abs(sinc_derivative_grid(m, np.array([x]))[0] - want) <= scale

    def test_switch_radii(self):
        # both sides of the quadrature switch at 0.15 m, and of 0.05, where
        # a power series used to take over (sinc^(16)(0.2) once came out as
        # 0.0 from the cancelling closed form)
        for m in range(2, 21):
            xs = np.array([0.0499, 0.05, 0.2, 0.15 * m - 1e-9, 0.15 * m, 0.15 * m + 0.1])
            xs = np.concatenate([xs, -xs])
            grid = sinc_derivative_grid(m, xs)
            for x, g in zip(xs, grid):
                want = sinc_derivative_mp(m, float(x))
                assert abs(g - want) <= 1e-10 * PI ** m / (m + 1), (m, x)
                assert sinc_derivative(m, float(x)) == g
        assert sinc_derivative(16, 0.2) == pytest.approx(4.388e6, rel=1e-3)

    def test_low_orders_past_the_series_radius(self):
        # just above |x| = 0.05 the closed form cancels; sinc^(2) and
        # sinc^(3) lost two and three digits there before quadrature
        # covered |x| < 0.15 m
        xs = np.concatenate([np.linspace(0.0501, 0.6, 300), np.linspace(-3.0, 3.0, 241)])
        for m in range(1, 9):
            want = np.array([sinc_derivative_mp(m, x) for x in xs])
            err = float(np.max(np.abs(sinc_derivative_grid(m, xs) - want))) / (PI ** m / (m + 1))
            assert err <= 1e-14, (m, err)
            # the budget the regularized certificate charges per weight
            assert err <= _WEIGHT_ERR[min(m, 3)], (m, err)

    def test_every_order_is_zero_at_infinity(self):
        # the limit, with no warning: sinc_grid used to subtract inf - inf
        # in its snap mask, and the closed form took sin(inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in range(21):
                got = sinc_derivative_grid(m, np.array([np.inf, -np.inf]))
                assert np.array_equal(got, [0.0, 0.0]), (m, got)

    def test_finite_and_decaying_far_out(self):
        # the closed form formed (pi x)^m and x^(m+1) before dividing:
        # sinc^(2)(1e300), sinc^(4)(1e100) and sinc^(16)(1e20) were nan;
        # past 5.7e307 pi x itself overflows
        xs = np.array([1e10, 1e15, 1e20, 1e300, 1.7e308])
        xs = np.concatenate([xs, -xs])
        for m in range(21):
            got = sinc_derivative_grid(m, xs)
            assert np.all(np.isfinite(got)), (m, got)
            assert np.all(np.abs(got) <= _kernel_decay_const(m) / np.abs(xs)), (m, got)


def snapped_sinc_reference(x):
    """sinc_grid as it was written before it took the snap mask once: the
    snapped argument, then 1 at 0 and 0 at the other integers by where."""
    x = np.asarray(x)
    if not np.iscomplexobj(x):
        x = x.astype(float, copy=False)
        r = np.round(x)
        near = np.abs(x - r) <= 8.0 * 2.220446049250313e-16 * np.maximum(1.0, np.abs(x))
        x = np.where(near, r, x)
    safe = np.where(x == 0.0, 1.0, x)
    out = np.sin(PI * safe) / (PI * safe)
    out = np.where(x == 0.0, 1.0, out)
    return np.where((x == np.round(x.real)) & (x != 0.0), 0.0, out)


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestKernelPasses:
    """sinc_grid takes its snap mask once; the closed form of sinc^(m) uses
    no float powers.  Neither holds more block-size temporaries than before."""

    X = np.random.default_rng(23).uniform(-50.0, 50.0, 1 << 17)

    def test_sinc_grid_bit_identical_to_the_snapped_form(self):
        rng = np.random.default_rng(17)
        k = rng.integers(-10 ** 6, 10 ** 6, 20_000).astype(float)
        cases = [rng.uniform(-1e3, 1e3, 100_000), rng.uniform(-3.0, 3.0, 100_000), k,
                 *(k * (1.0 + d) for d in (1e-15, -1e-15, 4e-15, -4e-15)),
                 np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
                           1e17, -1e17, 2.0 ** 52 + 0.5, 2.0 ** 53, np.inf, -np.inf, np.nan]),
                 np.float64(0.3), np.array(0.0), np.array(-0.0), np.array(3.0),
                 np.float64(1e17), np.arange(-5, 6), np.linspace(-3, 3, 101, dtype=np.float32),
                 np.array([0j, 3 + 0j, 0.3 + 0.4j, -1.7 + 0.01j, 2 + 1e-300j])]
        with np.errstate(invalid="ignore"):
            for x in cases:
                got, want = sinc_grid(x), snapped_sinc_reference(x)
                assert type(got) is type(want) and got.shape == want.shape
                assert got.dtype == want.dtype
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), x

    def test_sinc_grid_peak_memory(self):
        # the snapped form peaked at 4.13 MiB on these 2^17 points
        assert traced_peak(sinc_grid, self.X) <= 4.13 * 2 ** 20

    def test_sinc_derivative_grid_peak_memory(self):
        # with float powers and |x| kept to the end it peaked at 9.2-9.4 MiB
        for m in (1, 2, 3, 6, 10):
            assert traced_peak(sinc_derivative_grid, m, self.X) <= 9.4 * 2 ** 20, m

    def test_closed_form_within_a_fifth_of_the_weight_budget(self):
        # _WEIGHT_ERR is at least five times the measured error of sinc^(m); within
        # 0.25 of the switch at _QUAD_SLOPE m, on the quadrature side and
        # on the closed-form side, where it cancels most, both rules must
        # stay within the measured part (the closed form with float powers
        # reached 7.5e-14 at m = 20, 0.004 past the switch)
        for m in range(1, 21):
            xs = _QUAD_SLOPE * m + np.linspace(-0.25, 0.25, 251)
            want = np.array([sinc_derivative_mp(m, x) for x in xs])
            err = float(np.max(np.abs(sinc_derivative_grid(m, xs) - want))) / (PI ** m / (m + 1))
            assert err <= _WEIGHT_ERR[min(m, 3)] / 5, (m, err)


def full_regularized_sinc_grid(m, x, N, alpha):
    """The Leibniz sum of regularized_sinc_grid written out at every offset,
    underflowed Gaussian or not."""
    c = alpha / N
    total = sinc_derivative_grid(m, x)
    y = math.sqrt(c) * x
    h_prev, h_j = np.ones_like(x), 2.0 * y
    for j in range(1, m + 1):
        total = total + math.comb(m, j) * (-math.sqrt(c)) ** j * h_j * sinc_derivative_grid(m - j, x)
        h_prev, h_j = h_j, 2.0 * y * h_j - 2.0 * j * h_prev
    return total * np.exp(-c * x * x)


class TestRegularizedKernel:
    @pytest.mark.parametrize("N", [64, 4096])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_underflow_skip_bit_identical(self, m, N):
        # the Gaussian underflows beyond |x| of about sqrt(745 N / alpha):
        # 246 at N = 64, 1 972 at N = 4 096; there the weight is +-0.0
        span = max(2 * N, 512)
        for offset in (0.0, 0.37, -0.5):
            x = offset - np.arange(-span, span + 1)
            got = regularized_sinc_grid(m, x, N, PI / 4)
            want = full_regularized_sinc_grid(m, x, N, PI / 4)
            live = np.exp(-(PI / 4) / N * x * x) != 0.0
            assert 0 < np.count_nonzero(live) < x.size
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.all(got[~live] == 0.0)

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_half_width_per_row_bit_identical(self, m):
        # an array N gives each row its own half-width, as one call per N does
        ns = np.arange(1, 41)
        x = 0.37 - np.arange(-300, 301)
        got = regularized_sinc_grid(m, x, ns[:, None], PI / 4)
        for n, row in zip(ns, got):
            want = regularized_sinc_grid(m, x, int(n), PI / 4)
            assert np.array_equal(row.view(np.uint64), want.view(np.uint64)), n


def full_rows(r, u, alpha, bound, h, N):
    """The rows of the local engine with every offset |n - n0| <= N, as
    they were built before the band: first index, offsets, weights after
    the fetch rule, certificate."""
    u = _snap_grid(np.asarray(u, dtype=float))
    n0 = np.rint(u)
    offset = u - n0
    sin_abs = np.abs(np.sin(PI * offset)) if r == 0 else np.ones(u.size)
    d = offset[:, None] - np.arange(-N, N + 1)
    w = regularized_sinc_grid(r, d, N, alpha)
    dropped = _drop_small(w)
    cert = regularized_sinc_certificate(r, N, alpha, bound, u=np.abs(u),
                                        sin_factor=sin_abs) / h ** r
    return n0 - N, d, w, cert + dropped * bound / h ** r + 0.0


@functools.cache
def first_banded(r, alpha):
    """The smallest N whose rows of order r are banded, D < N: the first
    where the tail past D = N - 1 meets the 2^-64 of _band_halfwidth."""
    N = 1
    while _band_tail(r, N, alpha, N - 1) > 2.0 ** -64:
        N += 1
    assert _band_halfwidth(r, N, alpha) < N and _band_halfwidth(r, N - 1, alpha) == N - 1
    return N


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestRowBand:
    """A row of the local engine keeps the offsets |n - n0| <= D only,
    D = _band_halfwidth(r, N, alpha), and its certificate charges a bound on
    the rest."""

    OFFSETS = [0.0, 0.17, -0.41, 0.5]
    ALPHAS = [0.02, PI / 4, 1.3]

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_row_at_4096_evaluates_at_most_1500_entries_per_order(self, monkeypatch, r):
        # counted as TestCriticalRateCost counts: every kernel call's size;
        # the full row has 8 193 offsets, about 3 940 of them live
        seen = {"sinc_grid": 0, "sinc_derivative_grid": 0}
        for name in seen:
            def counted(*args, _fn=getattr(sinckernel, name), _name=name):
                seen[_name] += np.size(args[-1])
                return _fn(*args)
            monkeypatch.setattr(sinckernel, name, counted)
        for u in (0.3, 17.0):
            for key in seen:
                seen[key] = 0
            _, rows = _local_series(r, [u], PI / 4, 1.0, 1.0, 1e-6, k_terms=4096)
            _, d, w, _ = rows(slice(None))
            assert w.shape[1] <= 1500
            # one call per derivative order of the Leibniz sum
            assert max(seen.values()) <= 1500 * (r + 1), seen

    @pytest.mark.parametrize("r, N", [(0, 64)] + [(r, N) for N in (128, 512, 4096, 10_000)
                                                  for r in range(4)])
    def test_charged_tail_bounds_the_omitted_weights(self, r, N):
        alpha, h, bound = PI / 4, 0.7, 1.3
        u = np.array(self.OFFSETS) + 40.0
        n_lo, d, w, cert = _local_series(r, u, alpha, bound, h, 1e-6, k_terms=N)[1](slice(None))
        D = w.shape[1] // 2
        assert D < N and np.array_equal(n_lo, np.rint(u) - D)
        tail = _band_tail(r, N, alpha, D)
        start, full_d, full_w, full_cert = full_rows(r, u, alpha, bound, h, N)
        raw = regularized_sinc_grid(r, full_d, N, alpha)
        outside = np.abs(np.arange(-N, N + 1)) > D
        omitted = np.sum(np.abs(raw[:, outside]), axis=1)
        assert np.all(omitted <= tail), (omitted, tail)
        # below 2^-10 of the fetch rule's 2^-53 sum |w|
        assert np.all(tail <= 2.0 ** -63 * np.sum(np.abs(raw), axis=1))
        # the band's weights are the full row's, and so are the kept ones
        assert same_bits(d, full_d[:, ~outside])
        assert same_bits(w, full_w[:, ~outside]) and not np.any(full_w[:, outside])
        # the certificate charges the tail on top of the full row's terms
        sin_abs = np.abs(np.sin(PI * (u - np.rint(u)))) if r == 0 else 1.0
        reg = regularized_sinc_certificate(r, N, alpha, bound, u=np.abs(u), sin_factor=sin_abs)
        assert np.all(cert >= reg / h ** r + tail * bound / h ** r)
        assert np.all(cert >= full_cert)

    @pytest.mark.parametrize("N", [pytest.param(None, id="first_banded"), 129, 4096])
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_banded_rows_weigh_at_least_half(self, alpha, N):
        # the band's tail, at most 2^-64, is 2^-10 of the fetch rule's
        # 2^-53 sum |w| only where sum |w| >= 1/2; the rows weigh at least
        # pi^r/2 past N = 128, and pi^r/4 at the smallest N with D < N (at
        # alpha = 1.3 and r = 8 that row weighs 0.47 pi^r)
        offsets = np.linspace(-0.5, 0.5, 41)[:, None]
        for r in range(9):
            n, least = (first_banded(r, alpha), PI ** r / 4) if N is None else (N, PI ** r / 2)
            w = regularized_sinc_grid(r, offsets - np.arange(-n, n + 1), n, alpha)
            assert np.min(np.sum(np.abs(w), axis=1)) >= least, (r, n)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_every_row_stays_inside_the_underflow_radius(self, alpha):
        # exp(-alpha x^2/N) underflows to 0.0 past alpha x^2/N of about 745;
        # D <= N, so only the N with N + 1/2 past that radius need D
        ns = np.arange(1, 4097)
        for r in range(9):
            for N in [*ns[alpha * (ns + 0.5) ** 2 / ns >= 745.0], MAX_HALFWIDTH]:
                D = _band_halfwidth(r, int(N), alpha)
                assert alpha * (D + 0.5) ** 2 / N < 745.0, (r, N, D)
            # the rows _local_series builds are that band, with finite weights
            first = first_banded(r, alpha)
            for N in (1, 2, first - 1, first, 4096, MAX_HALFWIDTH):
                # offset 1/2 reaches furthest, |d| = D + 1/2
                rows = _local_series(r, [0.5], alpha, 1.0, 1.0, 1e-6, k_terms=N)[1]
                _, d, w, _ = rows(slice(None))
                assert w.shape[1] == 2 * _band_halfwidth(r, N, alpha) + 1
                assert np.all(np.isfinite(w)) and np.all(np.exp(-alpha * d * d / N) > 0.0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_tol_sized_rows_keep_every_offset(self, r, alpha):
        # an N sized by a tol sits near ln(1/tol)/alpha, where the band tail
        # at D = N - 1 is still far above 2^-64: D = N
        sized = 0
        for tol in 10.0 ** -np.arange(3, 13):
            for origin in (None, 3.0):
                try:
                    N, rows = _local_series(r, [0.37, -0.5, 3.0], alpha, 1.0, 0.5, tol,
                                            origin=origin)
                except ToleranceError:
                    continue  # no N reaches this tol
                sized += 1
                assert N < first_banded(r, alpha) and _band_halfwidth(r, N, alpha) == N
                assert rows(slice(None))[2].shape[1] == 2 * N + 1
        assert sized >= 5

    @pytest.mark.parametrize("r, N", [(r, N) for r in range(4) for N in (1, 5, 64)
                                      if (r, N) != (0, 64)])
    def test_rows_up_to_128_keep_every_offset_bit_for_bit(self, r, N):
        # the rows up to N = 128 with D = N; (0, 64) and N = 128 are banded
        # and checked in test_charged_tail_bounds_the_omitted_weights
        assert _band_halfwidth(r, N, PI / 4) == N
        u = np.array(self.OFFSETS + [3.0, -7.25])
        got = _local_series(r, u, PI / 4, 1.0, 0.5, 1e-6, k_terms=N)[1](slice(None))
        for a, b in zip(got, full_rows(r, u, PI / 4, 1.0, 0.5, N)):
            assert same_bits(a, b)


def termwise_window_sum(m, u, c, k_min):
    """sum_k c_k sinc^(m)(u - k) entry by entry over the whole window: one
    sine per entry, at pi (u - k), so each entry carries the rounding of an
    argument up to pi |u - k|."""
    ks = np.arange(k_min, k_min + len(c), dtype=float)
    return np.sum(sinc_derivative_grid(m, np.asarray(u, dtype=float)[:, None] - ks) * c, axis=1)


def termwise_slack(m, u, c, k_min):
    """4 ulps of sum_k |c_k| (|K(x)| + |x K'(x)|), K = sinc^(m), x = u - k:
    the second part is the termwise sum's own rounding of its arguments,
    which 1e-9 from a node is up to 4e3 ulps of sum_k |c_k K(x)| (see
    TestLatticeSeries.test_within_ulps_of_mpmath)."""
    x = np.asarray(u, dtype=float)[:, None] - np.arange(k_min, k_min + len(c), dtype=float)
    return 4 * EPS * np.sum(np.abs(c) * (np.abs(sinc_derivative_grid(m, x))
                                         + np.abs(x * sinc_derivative_grid(m + 1, x))), axis=1)


def closed_sinc_derivative_mp(m, x):
    """sinc^(m)(x) from the closed form at the working precision; x != 0."""
    x = mp.mpf(x)
    px = mp.pi * x
    s1 = mp.fsum((-1) ** v * px ** (2 * v) / mp.factorial(2 * v) for v in range(m // 2 + 1))
    s2 = mp.fsum((-1) ** v * px ** (2 * v + 1) / mp.factorial(2 * v + 1)
                 for v in range((m - 1) // 2 + 1))
    lead = (-1) ** m * mp.factorial(m) / (mp.pi * x ** (m + 1))
    return lead * (mp.sin(px) * s1 - mp.cos(px) * s2)


class TestLatticeSeries:
    """_lattice_series sums c_k sinc^(m)(u - k) with one sine per point."""

    WINDOWS = ((-60, 60), (-12, 300))

    @staticmethod
    def points(k_min, k_max, m):
        nodes = np.arange(k_min, k_max + 1, 7, dtype=float)
        gap = max(2, m)  # the nearest wks_tail_bound allows; clips the near band for m >= 2
        inner = nodes[(nodes >= k_min + gap) & (nodes <= k_max - gap)]
        edges = [k_min + gap, k_max - gap, k_min + gap + 0.3, k_max - gap - 0.3]
        return nodes, np.concatenate([nodes, inner + 1e-9, inner - 1e-9, inner + 0.5, edges])

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_matches_termwise_oracle(self, m):
        rng = np.random.default_rng(11)
        for k_min, k_max in self.WINDOWS:
            ks = np.arange(k_min, k_max + 1, dtype=float)
            for c in (rng.standard_normal(ks.size), 1.0 / (1.0 + ks * ks)):
                nodes, u = self.points(k_min, k_max, m)
                got = _lattice_series(m, u, c, k_min)
                assert np.all(np.abs(got - termwise_window_sum(m, u, c, k_min))
                              <= termwise_slack(m, u, c, k_min))
                if m == 0:
                    assert np.array_equal(got[:nodes.size], c[(nodes - k_min).astype(int)])

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_within_ulps_of_mpmath(self, m):
        # the far band reduces to |r| <= 1/2 before its one sine: within 8
        # ulps of sum_k |c_k sinc^(m)(u - k)|
        k_min, k_max = -12, 80
        ks = np.arange(k_min, k_max + 1, dtype=float)
        c = 1.0 / (1.0 + ks * ks)
        u = np.array([16.5, 59.999999999, 40.000000001, 30.25, k_max - max(2, m) - 0.3])
        got = _lattice_series(m, u, c, k_min)
        mag = np.sum(np.abs(c * sinc_derivative_grid(m, u[:, None] - ks)), axis=1)
        with mp.workdps(80):
            want = [float(mp.fsum(mp.mpf(ci) * closed_sinc_derivative_mp(m, mp.mpf(ui) - int(k))
                                  for ci, k in zip(c, ks))) for ui in u]
        assert np.all(np.abs(got - want) <= 8 * EPS * mag), np.abs(got - want) / (EPS * mag)

    def test_complex_points_match_termwise(self):
        # complex u at m = 0, as the Valiron-Tschakaloff sum uses it
        ks = np.arange(-40, 41, dtype=float)
        c = np.cos(0.3 * ks)
        u = np.array([0.3 + 0.4j, -7.5 - 0.2j, 12.0 + 1e-3j, 3.0 + 0.0j])
        got = _lattice_series(0, u, c, -40)
        want = np.sum(sinc_grid(u[:, None] - ks) * c, axis=1)
        assert np.all(np.abs(got - want) <= 1e-14)

    def test_long_window_in_chunks(self):
        # a window longer than one block is summed chunk by chunk
        ks = np.arange(-100_000, 100_001, dtype=float)
        c = 1.0 / (1.0 + ks * ks)
        u = np.array([0.3, -41.5, 12.0])
        got = _lattice_series(1, u, c, -100_000)
        want = np.concatenate([termwise_window_sum(1, u[i:i + 1], c, -100_000) for i in range(3)])
        assert np.all(np.abs(got - want) <= 1e-15)

    def test_points_outside_the_window(self):
        # no near band inside the window: every entry is far
        c = np.ones(11)
        u = np.array([-30.5, 25.0, 40.2])
        assert np.all(np.abs(_lattice_series(2, u, c, -5) - termwise_window_sum(2, u, c, -5))
                      <= termwise_slack(2, u, c, -5))


class TestNearBandAcrossPieces:
    """Each block marks its points' near bands in the far-band piece it
    sums: bands that straddle a piece boundary, or are clipped at a window
    edge, give every point the value it has alone."""

    K = 70_000  # pieces start at k = -70 000, -4 464 and 61 072
    REAL = np.array([-4464.0, -4464.3, -4463.5, -4461.2, -4467.9, 61072.0, 61071.6,
                     61068.4, 61075.1, -70000.0, -70001.2, -69999.6, -69996.7,
                     70000.0, 69999.4, 70000.8, 69997.3, 0.25])
    COMPLEX = np.array([-4464.3 + 0.2j, -4463.5 - 0.1j, 61072.0 + 1e-3j,
                        -69999.6 + 0.2j, 69999.4 - 0.2j])

    @staticmethod
    def window():
        return np.random.default_rng(23).standard_normal(2 * TestNearBandAcrossPieces.K + 1)

    @staticmethod
    def one_by_one(m, u, c, k_min):
        return np.concatenate([_lattice_series(m, u[i:i + 1], c, k_min) for i in range(u.size)])

    @pytest.mark.parametrize("entries", [None, 1 << 19])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_many_points_as_one(self, monkeypatch, m, entries):
        # 1 << 19 entries put 8 points in a block of a whole piece; the
        # direct path, which sums the pieces, for the call and each point
        c, k_min = self.window(), -self.K
        monkeypatch.setattr(sinckernel, "_box_path", lambda *shape: False)
        if entries:
            monkeypatch.setattr(sinckernel, "_BLOCK_ENTRIES", entries)
        got = _lattice_series(m, self.REAL, c, k_min)
        assert got.tobytes() == self.one_by_one(m, self.REAL, c, k_min).tobytes()
        assert np.all(np.abs(got - termwise_window_sum(m, self.REAL, c, k_min))
                      <= termwise_slack(m, self.REAL, c, k_min))
        if m == 0:
            nodes = self.REAL == np.rint(self.REAL)
            assert np.array_equal(got[nodes], c[(self.REAL[nodes] - k_min).astype(int)])

    @pytest.mark.parametrize("entries", [None, 1 << 19])
    def test_complex_points_as_one(self, monkeypatch, entries):
        c, k_min = self.window(), -self.K
        if entries:
            monkeypatch.setattr(sinckernel, "_BLOCK_ENTRIES", entries)
        got = _lattice_series(0, self.COMPLEX, c, k_min)
        assert got.tobytes() == self.one_by_one(0, self.COMPLEX, c, k_min).tobytes()
        ks = np.arange(k_min, self.K + 1, dtype=float)
        want = np.sum(sinc_grid(self.COMPLEX[:, None] - ks) * c, axis=1)
        # the termwise rounding of the real parts, grown by e^(pi |Im u|) < 2
        assert np.all(np.abs(got - want) <= 2 * termwise_slack(0, self.COMPLEX.real, c, k_min))


class TestBoxFarField:
    """The box path of _lattice_series: a point sums the boxes within
    _BOX_NEAR of its own entry by entry, and every other box from its P
    moments, within the ulp bounds of the direct path."""

    @staticmethod
    def on_boxes(monkeypatch, B):
        # the box path at box size B, whatever the call's shape
        monkeypatch.setattr(sinckernel, "_BOX_SIZE", B)
        monkeypatch.setattr(sinckernel, "_box_path", lambda *shape: True)

    @staticmethod
    def points(k_min, k_max, B, m):
        # both sides of every box edge, the window edges, nodes and points
        # near them, and points outside the window, near and far
        edges = k_min + B * np.arange(1, (k_max - k_min) // B + 1, dtype=float)
        gap = max(2, m)
        inner = np.arange(k_min + gap, k_max - gap, 37, dtype=float)
        return np.concatenate([
            edges, edges - 1, edges - 0.5, edges + 0.5, edges - 0.4999999,
            [k_min, k_max, k_min + gap, k_max - gap, k_min + gap + 0.3, k_max - gap - 0.3,
             k_min - 1.5, k_max + 3.0, k_min - 5 * B - 0.25, k_max + 9.5 * B, k_min - 40.0 * B],
            inner, inner + 1e-9, inner - 1e-9, inner + 0.25])

    @pytest.mark.parametrize("B", [64, 128])
    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_matches_termwise_oracle(self, monkeypatch, m, B):
        rng = np.random.default_rng(5)
        self.on_boxes(monkeypatch, B)
        for k_min, k_max in ((-700, 700), (-150, 1900)):  # symmetric and lopsided
            ks = np.arange(k_min, k_max + 1, dtype=float)
            u = self.points(k_min, k_max, B, m)
            for c in (rng.standard_normal(ks.size), 1.0 / (1.0 + ks * ks)):
                got = _lattice_series(m, u, c, k_min)
                assert np.all(np.abs(got - termwise_window_sum(m, u, c, k_min))
                              <= termwise_slack(m, u, c, k_min))
                if m == 0:
                    nodes = (u == np.rint(u)) & (u >= k_min) & (u <= k_max)
                    assert np.array_equal(got[nodes], c[(u[nodes] - k_min).astype(int)])

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_within_ulps_of_mpmath(self, monkeypatch, m):
        # the 80-digit closed form, within the 8 ulps of sum_k |c_k
        # sinc^(m)(u - k)| of the direct path
        self.on_boxes(monkeypatch, 64)
        k_min, k_max = -200, 420
        ks = np.arange(k_min, k_max + 1, dtype=float)
        c = 1.0 / (1.0 + ks * ks)
        u = np.array([16.5, 63.999999999, -72.000000001, 0.25, k_max - max(2, m) - 0.3,
                      k_min + 2.5, 3 * 64 + k_min - 0.5])
        got = _lattice_series(m, u, c, k_min)
        mag = np.sum(np.abs(c * sinc_derivative_grid(m, u[:, None] - ks)), axis=1)
        with mp.workdps(80):
            want = [float(mp.fsum(mp.mpf(ci) * closed_sinc_derivative_mp(m, mp.mpf(ui) - int(k))
                                  for ci, k in zip(c, ks))) for ui in u]
        assert np.all(np.abs(got - want) <= 8 * EPS * mag), np.abs(got - want) / (EPS * mag)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_across_pieces_many_points_as_one(self, monkeypatch, m):
        # the windows and points of TestNearBandAcrossPieces: a box path
        # sums no piece, and each point's value is the one it has alone
        self.on_boxes(monkeypatch, 256)
        c, k_min = TestNearBandAcrossPieces.window(), -TestNearBandAcrossPieces.K
        u = TestNearBandAcrossPieces.REAL
        got = _lattice_series(m, u, c, k_min)
        alone = np.concatenate([_lattice_series(m, u[i:i + 1], c, k_min) for i in range(u.size)])
        assert got.tobytes() == alone.tobytes()
        assert np.all(np.abs(got - termwise_window_sum(m, u, c, k_min))
                      <= termwise_slack(m, u, c, k_min))

    @pytest.mark.parametrize("entries", [12, 64])
    def test_values_ignore_the_block_size(self, monkeypatch, entries):
        self.on_boxes(monkeypatch, 64)
        k_min, c = -700, np.random.default_rng(8).standard_normal(1401)
        u = self.points(-700, 700, 64, 2)
        want = [_lattice_series(m, u, c, k_min) for m in (0, 2)]
        monkeypatch.setattr(sinckernel, "_BLOCK_ENTRIES", entries)
        for m, w in zip((0, 2), want):
            assert _lattice_series(m, u, c, k_min).tobytes() == w.tobytes()

    def test_complex_points_take_the_direct_path(self, monkeypatch):
        calls = []
        monkeypatch.setattr(sinckernel, "_box_moments", lambda *args: calls.append(args))
        c = np.random.default_rng(2).standard_normal(40_001)
        u = np.linspace(-900.0, 900.0, 200) + 0.3j
        _lattice_series(0, u, c, -20_000)
        assert calls == []

    def test_the_operation_count_picks_the_path(self):
        boxes = sinckernel._box_path
        # 101 points on a 40 001-sample window: boxes; on a 2 001-sample
        # window, and one point on 200 001 samples: the direct sum
        assert boxes(0, 101, 40_001)
        assert not boxes(1, 101, 2_001) and not boxes(0, 1500, 2_001)
        assert not boxes(0, 1, 200_001)
        # a window of at most five boxes has no far box
        assert not boxes(0, 10_000, 5 * sinckernel._BOX_SIZE)
        # the box size leaves a near band inside a point's direct rows
        assert sinckernel._BOX_SIZE > sinckernel.MAX_ORDER + 1
        assert all(boxes(m, 10_000, 40_001) for m in range(sinckernel.MAX_ORDER + 1))

    @pytest.mark.parametrize("m", range(0, 21))
    def test_box_terms_leave_at_most_2_to_the_minus_53(self, m):
        # sum_{q >= P} C(m + q, q) rho^q, exactly: (1 - rho)^-(m+1) minus
        # the first P terms
        rho = Fraction(1, 2 * sinckernel._BOX_NEAR + 1)
        P = sinckernel._box_terms(m)
        head = sum(math.comb(m + q, q) * rho ** q for q in range(P))
        assert (1 - rho) ** -(m + 1) - head <= Fraction(1, 2 ** 53)
        assert sinckernel._BOX_RATIO == float(rho)

    @pytest.mark.parametrize("m", [0, 4, 20])
    def test_expansion_of_a_box_at_the_nearest_far_center(self, m):
        # one box of B = 16 indices at |x| = 5R, in exact arithmetic: the
        # truncated expansion of sum_i a_i (x - y_i)^-p, p = 1..m+1, is
        # within 2^-53 sum|a_i| |x|^-p of it
        B, P = 16, sinckernel._box_terms(m)
        R = mp.mpf(B) / 2
        a = np.random.default_rng(m).standard_normal(B)
        with mp.workdps(60):
            y = [mp.mpf(i) - mp.mpf(B - 1) / 2 for i in range(B)]
            for x in (5 * R, -5 * R, 5 * R + mp.mpf(1) / 3):
                nu = [mp.fsum(mp.mpf(ai) * (yi / R) ** q for ai, yi in zip(a, y))
                      for q in range(P)]
                for p in range(1, m + 2):
                    exact = mp.fsum(mp.mpf(ai) / (x - yi) ** p for ai, yi in zip(a, y))
                    series = mp.fsum(math.comb(p - 1 + q, q) * nu[q] * (R / x) ** q
                                     for q in range(P)) / x ** p
                    assert abs(series - exact) <= 2.0 ** -53 * np.sum(np.abs(a)) / abs(x) ** p


class TestDerivativeOrderRange:
    """Every engine sums derivative orders 0..20 and refuses the others by
    one rule, with a ValueError that names the range."""

    def test_engines_refuse_order_21(self):
        s = UniformSamples.from_function(make_reference("fejer", 1.0), PI, -2000, 2000)
        over = UniformSamples.from_function(make_reference("sin", 1.0), PI / 2, -2000, 2000)
        sin = make_reference("sin", 1.0)
        calls = [lambda: _lattice_series(21, np.array([0.3]), np.ones(5), -2),
                 lambda: _local_series(21, [0.3], PI / 4, 1.0, 0.5, 1e-3),
                 lambda: wks_eval_grid(s, 21, [1.0], 1e-3),
                 lambda: wks_eval_grid(over, 171, [1.0], 1e-3),
                 lambda: wks_tail_bound(s, 1000, 1.0),
                 lambda: boas_derivative(sin, 170, 0.7),
                 lambda: boas_derivative(sin, 21, 0.7, k_terms=8)]
        for call in calls:
            with pytest.raises(ValueError, match=r"0\.\.20"):
                call()

    @pytest.mark.parametrize("call", [
        lambda: sinc_derivative(21, 0.3),
        lambda: sinc_derivative_grid(21, np.array([0.3])),
        lambda: sinc_derivative_grid(-1, np.array([0.3])),
        lambda: regularized_sinc_grid(40, [0.3], 8, 0.7),
        lambda: regularized_sinc_grid(-1, [0.3], 8, 0.7),
        lambda: regularized_sinc_certificate(21, 8, 0.7, 1.0, 0.3),
        lambda: regularized_sinc_certificate(-1, 8, 0.7, 1.0, 0.3)],
        ids=["sinc_derivative-21", "sinc_derivative_grid-21", "sinc_derivative_grid--1",
             "regularized_sinc_grid-40", "regularized_sinc_grid--1",
             "regularized_sinc_certificate-21", "regularized_sinc_certificate--1"])
    def test_kernels_refuse_orders_outside_0_to_20(self, call):
        with pytest.raises(ValueError, match=r"0\.\.20"):
            call()

    def test_order_20_is_summed(self):
        s = UniformSamples.from_function(make_reference("fejer", 1.0), PI, -2000, 2000)
        assert np.all(np.isfinite(wks_eval_grid(s, 20, [1.0, 2.5], 10.0)))
        assert np.all(np.isfinite(_lattice_series(20, np.linspace(-900, 900, 300),
                                                  np.ones(40_001), -20_000)))


class TestBlockSize:
    """_BLOCK_ENTRIES bounds the temporaries and moves no value: every row is
    summed on its own and every accumulation order is fixed."""

    @staticmethod
    def results():
        rng = np.random.default_rng(11)
        critical = UniformSamples.from_function(make_reference("fejer", 1.0), PI, -2000, 2000)
        over = UniformSamples.from_function(make_reference("sin", 1.0, phase=0.4), PI / 2,
                                            -2000, 2000)
        xs = np.sort(rng.uniform(-2500.0, 2500.0, 300))
        w = rng.standard_normal(50)
        samples = [rng.standard_normal(16) for _ in range(50)]
        return {
            **{f"critical m={m}": wks_eval_grid(critical, m, xs[::6], 1e-3) for m in (0, 2)},
            **{f"oversampled m={m}": wks_eval_grid(over, m, xs, 1e-6) for m in (0, 1)},
            "weighted sum": _weighted_sum(np.zeros(16), w, iter(samples)),
        }

    @pytest.mark.parametrize("entries", [12, 64])
    def test_values_ignore_the_block_size(self, monkeypatch, entries):
        want = self.results()
        monkeypatch.setattr(sinckernel, "_BLOCK_ENTRIES", entries)
        got = self.results()
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name


class TestBoasCoefficient:
    def test_examples(self):
        assert boas_coefficient("odd", 1, 1) == pytest.approx(4.0 / PI, rel=1e-15)
        assert boas_coefficient("even", 1, 0) == pytest.approx(PI ** 2 / 3.0, rel=1e-15)
        for k in (1, -2, 3, 9):
            assert boas_coefficient("even", 1, k) == pytest.approx(2.0 / k ** 2, rel=1e-12)

    def test_first_order_closed_forms(self):
        for k in range(-100, 101):
            want = 1.0 / (PI * (k - 0.5) ** 2)
            assert boas_coefficient("odd", 1, k) == pytest.approx(want, rel=1e-13)
            if k != 0:
                assert boas_coefficient("even", 1, k) == pytest.approx(2.0 / k ** 2, rel=1e-13)

    def test_matches_kernel_derivatives(self):
        # a(m,k) = (-1)^(k+1) sinc^(2m-1)(1/2-k); b(m,k) = (-1)^(k+1) sinc^(2m)(-k)
        for m in (1, 2, 3):
            for k in range(-8, 9):
                a = boas_coefficient("odd", m, k)
                ref = (-1.0) ** (k + 1) * sinc_derivative(2 * m - 1, 0.5 - k)
                assert a == pytest.approx(ref, rel=1e-10, abs=1e-12)
                if k != 0:
                    b = boas_coefficient("even", m, k)
                    ref = (-1.0) ** (k + 1) * sinc_derivative(2 * m, float(-k))
                    assert b == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            boas_coefficient("odd", 0, 1)
        with pytest.raises(ValueError):
            boas_coefficient("weird", 1, 1)

    def test_absolute_sums_bracket(self):
        # partial absolute sums increase to pi^(2m-1) (odd) / pi^(2m) (even)
        for m in (1, 2, 3):
            for parity, target in (("odd", PI ** (2 * m - 1)), ("even", PI ** (2 * m))):
                prev = 0.0
                for K in (10, 100, 1000, 10000):
                    ks = np.arange(-K, K + 1)
                    total = float(np.sum(np.abs(boas_coefficient_grid(parity, m, ks))))
                    assert total >= prev
                    assert total <= target * (1.0 + 1e-12)
                    prev = total
                assert prev >= target - coefficient_tail_bound(parity, m, 10000)


# ---------------------------------------------------------------------------
# truncated coefficient tables and zero-sum residuals: the absolute-sum and
# partition-of-unity identities of the kernel, checked at finite half-width
# ---------------------------------------------------------------------------

class TruncationError(ToleranceError):
    """A coefficient table cannot be truncated tightly enough.

    ``achievable`` is the tail bound at the maximum permitted half-width.
    """


@dataclass(frozen=True)
class CoeffTable:
    """Truncated coefficient family with a certified tail bound.

    ``values`` maps every |k| <= halfwidth (k = 0 included only for even
    parity) to its coefficient, bit-identical to :func:`boas_coefficient`.
    ``tail`` bounds the absolute sum of all omitted coefficients, so

        sum(|values|) <= pi^(2m-1 or 2m) <= sum(|values|) + tail.
    """

    parity: str
    m: int
    halfwidth: int
    values: Dict[int, float] = field(repr=False)
    tail: float = 0.0

    def abs_sum(self) -> float:
        return float(sum(abs(v) for v in self.values.values()))


def coefficient_table(parity: str, m: int, tol: float,
                      max_halfwidth: int = 1_000_000) -> CoeffTable:
    """Build the smallest table whose analytic tail bound is <= tol.

    Raises :class:`TruncationError` carrying the achievable tail when the
    required half-width would exceed ``max_halfwidth``.
    """
    # at sigma = pi and sup bound 1 the standard series' tail is the
    # coefficient tail itself
    order = 2 * m - 1 if parity == "odd" else 2 * m
    try:
        K = truncation_halfwidth("standard", order, PI, 1.0, tol)
    except ToleranceError:
        K = None
    if K is None or K > max_halfwidth:
        achievable = coefficient_tail_bound(parity, m, max_halfwidth)
        raise TruncationError(
            f"tail {achievable:.3e} at half-width {max_halfwidth} exceeds tol {tol:.3e}",
            achievable=achievable,
        )
    ks = np.arange(-K, K + 1)
    coeffs = boas_coefficient_grid(parity, m, ks)
    values = {int(k): float(c) for k, c in zip(ks, coeffs)}
    return CoeffTable(parity=parity, m=m, halfwidth=K, values=values,
                      tail=coefficient_tail_bound(parity, m, K))


def zero_sum_residual(m: int, x: float, halfwidth: int) -> float:
    """|sum_{|k| <= halfwidth} sinc^(m)(x - k)|.

    The full lattice sum of any derivative of the kernel vanishes; the
    symmetric partial sums here tend to 0.  Terms are accumulated as
    left/right pairs around k = 0 so that odd symmetry cancels exactly in
    floating point (e.g. m = 1 at x = 0 returns 0.0 for every half-width).
    """
    ks = np.arange(1, halfwidth + 1)
    pair = sinc_derivative_grid(m, x - ks) + sinc_derivative_grid(m, x + ks)
    total = sinc_derivative(m, x) + float(np.sum(pair))
    return abs(total)


class TestCoefficientTable:
    def test_odd_first_order_sum(self):
        table = coefficient_table("odd", 1, 1e-3)
        assert PI - 1e-3 <= table.abs_sum() <= PI

    def test_degenerate_tolerance(self):
        table = coefficient_table("even", 1, 1e9)
        assert table.halfwidth == 1

    def test_even_second_order_approaches_target(self):
        table = coefficient_table("even", 2, 1e-4)
        assert table.abs_sum() <= PI ** 4 * (1 + 1e-12)
        assert table.abs_sum() + table.tail >= PI ** 4

    def test_values_bit_identical(self):
        table = coefficient_table("odd", 2, 1e-1)
        for k, v in table.values.items():
            assert v == boas_coefficient("odd", 2, k)

    def test_tail_monotone_in_halfwidth(self):
        tails = [coefficient_tail_bound("even", 1, K) for K in (1, 10, 100, 1000)]
        assert all(a > b for a, b in zip(tails, tails[1:]))

    def test_unreachable_tolerance(self):
        with pytest.raises(TruncationError) as info:
            coefficient_table("odd", 3, 1e-12, max_halfwidth=10_000)
        assert info.value.achievable is not None
        assert info.value.achievable > 1e-12

    def test_immutable(self):
        table = coefficient_table("even", 1, 1e-2)
        with pytest.raises(AttributeError):
            table.tail = 0.0
        assert isinstance(table, CoeffTable)


class TestZeroSum:
    def test_half_point_first_order(self):
        assert zero_sum_residual(1, 0.5, 10_000) <= 1e-3

    def test_origin_second_order(self):
        assert zero_sum_residual(2, 0.0, 10_000) <= 1e-3

    def test_odd_symmetry_exact(self):
        for K in (1, 7, 100, 5000):
            assert zero_sum_residual(1, 0.0, K) == 0.0

    def test_decreases_with_halfwidth(self):
        big = zero_sum_residual(2, 0.3, 20_000)
        small = zero_sum_residual(2, 0.3, 500)
        assert big <= small + 1e-12
