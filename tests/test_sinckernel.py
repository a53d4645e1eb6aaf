import cmath
import math
import tracemalloc
from dataclasses import dataclass, field
from typing import Dict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandlimit.boas import truncation_halfwidth
from bandlimit.errors import ToleranceError
from bandlimit.sinckernel import (
    _QUAD_MIN_ORDER,
    _QUAD_SLOPE,
    _SERIES_RADIUS,
    _WEIGHT_ERR,
    _closed_grid,
    coefficient_tail_bound,
    regularized_sinc_grid,
    sinc,
    sinc_derivative,
    sinc_derivative_grid,
    sinc_grid,
)
from mp_reference import sinc_derivative_closed, sinc_derivative_mp, sinc_derivative_series
from paper_boas import boas_coefficient, boas_coefficient_grid

PI = math.pi


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
                a = sinc_derivative_series(m, float(x))
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
        # both sides of the series and quadrature switches, where the closed
        # form used to cancel (sinc^(16)(0.2) came out as 0.0)
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
        # covered them
        xs = np.concatenate([np.linspace(0.0501, 0.6, 300), np.linspace(-3.0, 3.0, 241)])
        for m in range(1, 9):
            want = np.array([sinc_derivative_mp(m, x) for x in xs])
            err = float(np.max(np.abs(sinc_derivative_grid(m, xs) - want))) / (PI ** m / (m + 1))
            assert err <= 1e-14, (m, err)
            # the budget the regularized certificate charges per weight
            assert err <= _WEIGHT_ERR[min(m, 3)], (m, err)


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


def power_closed_reference(m, x):
    """The closed form of sinc^(m) with float powers (pi x)^k and x^(m+1),
    as written before its sums became Horner polynomials."""
    px = PI * x
    s1 = np.zeros_like(x)
    for v in range(m // 2 + 1):
        s1 += (-1.0) ** v * px ** (2 * v) / math.factorial(2 * v)
    s2 = np.zeros_like(x)
    for v in range((m - 1) // 2 + 1):
        s2 += (-1.0) ** v * px ** (2 * v + 1) / math.factorial(2 * v + 1)
    lead = (-1.0) ** m * math.factorial(m) / (PI * x ** (m + 1))
    return lead * (np.sin(px) * s1 - np.cos(px) * s2)


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

    def test_closed_form_orders_up_to_one_bit_identical(self):
        x = np.concatenate([self.X[:1000], [0.05, -0.05, 1e-3, 7.25, 1e5]])
        for m in (0, 1):
            assert np.array_equal(_closed_grid(m, x).view(np.uint64),
                                  power_closed_reference(m, x).view(np.uint64))

    def test_closed_form_within_a_fifth_of_the_weight_budget(self):
        # _WEIGHT_ERR is five times the measured error of sinc^(m); just past
        # the quadrature switch, where the closed form cancels most, it must
        # stay within the measured part (with float powers it reached
        # 7.5e-14 at m = 20, 0.004 past the switch)
        for m in range(1, 21):
            lo = max(_SERIES_RADIUS, _QUAD_SLOPE * m if m >= _QUAD_MIN_ORDER else 0.0)
            xs = lo + np.linspace(0.0, 0.25, 126)
            want = np.array([sinc_derivative_mp(m, x) for x in xs])
            err = float(np.max(np.abs(sinc_derivative_grid(m, xs) - want))) / (PI ** m / (m + 1))
            assert err <= _WEIGHT_ERR[min(m, 3)] / 5, (m, err)


def full_regularized_sinc_grid(m, x, N, alpha):
    """The Leibniz sum of regularized_sinc_grid evaluated at every offset,
    underflowed Gaussian or not: the reference for its skipped entries."""
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
        # 246 at N = 64, 1 972 at N = 4 096
        span = max(2 * N, 512)
        for offset in (0.0, 0.37, -0.5):
            x = offset - np.arange(-span, span + 1)
            got = regularized_sinc_grid(m, x, N, PI / 4)
            want = full_regularized_sinc_grid(m, x, N, PI / 4)
            live = np.exp(-(PI / 4) / N * x * x) != 0.0
            assert 0 < np.count_nonzero(live) < x.size
            assert np.array_equal(got[live].view(np.uint64), want[live].view(np.uint64))
            # the full sum gives +-0.0 there; the skip writes +0.0
            assert np.all(want[~live] == 0.0) and np.all(got[~live].view(np.uint64) == 0)


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
