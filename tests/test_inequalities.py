import dataclasses
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandlimit.inequalities import (
    discrete_norm,
    embedding_constant,
    favard_constant,
    lks_check,
    lks_constant,
    plancherel_polya_check,
    plancherel_polya_checks,
)
from bandlimit.sampling import UniformSamples, make_reference

PI = math.pi


class TestDiscreteNorm:
    def test_kronecker_samples(self):
        sigma = 2.0
        f = make_reference("sinc", sigma)
        s = UniformSamples.from_function(f, PI / sigma, -200, 200)
        for p in (1.0, 2.0):
            assert discrete_norm(s, p) == pytest.approx(s.h ** (1.0 / p), rel=1e-12)
        assert discrete_norm(s, math.inf) == 1.0

    def test_all_zero(self):
        s = UniformSamples(sigma=1.0, h=0.5, k_min=-5, k_max=5,
                           values=np.zeros(11), tail_bound=0.0)
        for p in (1.0, 2.0, math.inf):
            assert discrete_norm(s, p) == 0.0

    def test_fejer_upper_bound(self):
        sigma = 2.0
        f = make_reference("fejer", sigma)
        s = UniformSamples.from_function(f, PI / sigma, -20000, 20000)
        assert discrete_norm(s, 2.0) <= (1 + s.h * sigma) * f.lp_norms[2.0]

    def test_monotone_under_window_growth(self):
        sigma = 2.0
        f = make_reference("fejer", sigma)
        small = UniformSamples.from_function(f, PI / sigma, -100, 100)
        big = UniformSamples.from_function(f, PI / sigma, -1000, 1000)
        for p in (1.0, 2.0):
            assert discrete_norm(big, p) >= discrete_norm(small, p)


class TestPlancherelPolya:
    @pytest.mark.parametrize("kind,p", [
        ("fejer", 1.0), ("fejer", 2.0), ("fejer", math.inf),
        ("sinc", 2.0), ("sinc", math.inf),
        ("sin", math.inf), ("cos", math.inf), ("const", math.inf),
    ])
    @pytest.mark.parametrize("ratio", [1.0, 0.5])
    def test_sandwich(self, kind, p, ratio):
        sigma = 2.0
        f = make_reference(kind, sigma)
        h = ratio * PI / sigma
        rep = plancherel_polya_check(f, h, p, window=50_000)
        assert rep.passed, rep
        assert rep.slack_lower >= -1e-12
        assert rep.slack_upper >= -1e-12

    def test_riemann_limit(self):
        # as h -> 0 the middle expression tends to the continuous norm
        sigma = 2.0
        f = make_reference("fejer", sigma)
        gaps = []
        for h in (0.5, 0.25, 0.125):
            rep = plancherel_polya_check(f, h, 1.0, window=int(100 / h))
            gaps.append(rep.middle_hi - rep.lower)
        assert gaps[2] <= gaps[0] + 1e-9

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_missing_norm_is_refused_before_any_evaluation(self, p):
        # with no lp_norms entry there is no ||f||_p
        # to compare with: no estimate stands in for it, and f is not called
        calls = []

        def counted(x):
            calls.append(np.size(x))
            return make_reference("fejer", 2.0).eval(x)

        f = dataclasses.replace(make_reference("fejer", 2.0), eval=counted, lp_norms=None)
        with pytest.raises(ValueError, match=f"p = {p}"):
            plancherel_polya_check(f, PI / 2.0, p, window=2_000)
        assert calls == []


class TestSandwichForEveryP:
    @pytest.mark.parametrize("kind, ps", [("fejer", (1.0, 2.0, math.inf)),
                                          ("sinc", (2.0, math.inf))])
    def test_one_evaluation_per_shift_same_reports(self, kind, ps):
        f = make_reference(kind, 2.0)
        calls = []

        def counted(x):
            calls.append(np.size(x))
            return f.eval(x)

        g = dataclasses.replace(f, eval=counted)
        shifts = [j * 0.4 / 16 for j in range(16)]
        got = plancherel_polya_checks(g, 0.4, ps, shifts=shifts, window=2_000)
        assert calls == [4_001] * len(shifts)
        for p, rep in zip(ps, got):
            assert rep == plancherel_polya_check(f, 0.4, p, shifts=shifts, window=2_000)

    def test_given_norms(self):
        f = make_reference("fejer", 2.0)
        g = dataclasses.replace(f, lp_norms={**f.lp_norms, 1.0: 3.0})
        got = plancherel_polya_checks(g, 0.5, (1.0, 2.0), window=2_000)
        assert got[0].lower == 3.0 and got[1].lower == f.lp_norms[2.0]


class TestEmbedding:
    def test_equal_exponents(self):
        assert embedding_constant(2, 2, 0.3, 1.5) == pytest.approx(1 + 0.45)

    def test_plug_in(self):
        assert embedding_constant(1, math.inf, 1.0, 1.0) == pytest.approx(2.0)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            embedding_constant(2, 1, 1.0, 1.0)

    def test_bounds_fejer_sup_by_l1(self):
        sigma = 2.0
        h = PI / sigma
        f = make_reference("fejer", sigma)
        lhs = f.lp_norms[math.inf]
        rhs = embedding_constant(1, math.inf, h, sigma) * f.lp_norms[1.0]
        assert lhs <= rhs

    @given(st.floats(min_value=0.01, max_value=10.0),
           st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=50)
    def test_positive(self, h, sigma):
        assert embedding_constant(1, 2, h, sigma) > 0.0


def _favard_series(j: int) -> "mp.mpf":
    """K_j at 50 digits from its defining series, by Dirichlet L-functions."""
    with mp.workdps(50):
        if j % 2 == 0:
            return 4 / mp.pi * mp.dirichlet(j + 1, [0, 1, 0, -1])
        return 4 / mp.pi * (1 - mp.mpf(2) ** -(j + 1)) * mp.zeta(j + 1)


# Euler zigzag numbers A_0..A_8, OEIS A000111
ZIGZAG = (1, 1, 1, 2, 5, 16, 61, 272, 1385)


class TestFavard:
    def test_first_three(self):
        assert favard_constant(0) == 1.0
        assert favard_constant(1) == PI / 2
        assert favard_constant(2) == pytest.approx(PI ** 2 / 8, abs=1e-15)

    def test_higher_closed_forms(self):
        assert favard_constant(3) == pytest.approx(PI ** 3 / 24, abs=1e-15)

    @pytest.mark.parametrize("j", range(81))
    def test_correctly_rounded_series(self, j):
        got = favard_constant(j)
        assert type(got) is float
        assert got == float(_favard_series(j))

    def test_brackets_and_monotonicity(self):
        evens = [favard_constant(2 * j) for j in range(11)]
        odds = [favard_constant(2 * j + 1) for j in range(11)]
        assert all(b >= a for a, b in zip(evens, evens[1:]))
        assert all(1.0 <= v < 4 / PI for v in evens)
        assert all(b <= a for a, b in zip(odds, odds[1:]))
        assert all(PI / 4 < v <= PI / 2 for v in odds)

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError):
            favard_constant(-1)


class TestLks:
    def test_constant_value(self):
        assert lks_constant(1, 2) == 2.0
        assert lks_constant(1, 3) == 1.125
        assert lks_constant(2, 3) == 3.0

    @pytest.mark.parametrize("n", range(2, 9))
    def test_correctly_rounded_rational(self, n):
        a = [Fraction(z, 2 ** j * math.factorial(j)) for j, z in enumerate(ZIGZAG)]
        for k in range(1, n):
            exact = a[n - k] ** n / a[n] ** (n - k)
            with mp.workdps(50):
                series = _favard_series(n - k) ** n / _favard_series(n) ** (n - k)
                assert abs(series / mp.mpf(exact.numerator) * exact.denominator - 1) < 1e-40
            got = lks_constant(k, n)
            assert type(got) is float and got == float(exact), (k, n)
            assert type(lks_check((1.0, 1.0, 1.0), k, n).constant) is float

    def test_sine_scaling(self):
        sigma = 1.7
        for (k, n) in ((1, 2), (1, 3), (2, 3)):
            rep = lks_check((1.0, sigma ** k, sigma ** n), k, n)
            assert rep.passed
            assert rep.constant >= 1.0

    def test_fejer_with_difference_norms(self):
        sigma = 1.0
        f = make_reference("fejer", sigma)
        xs = np.linspace(-60, 60, 24001)
        vals = np.asarray(f(xs))
        step = xs[1] - xs[0]
        d1 = np.gradient(vals, step)
        d2 = np.gradient(d1, step)
        rep = lks_check((float(np.max(np.abs(vals))),
                         float(np.max(np.abs(d1))),
                         float(np.max(np.abs(d2)))), 1, 2)
        assert rep.passed
        assert rep.constant == 2.0

    def test_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            lks_check((1.0, 1.0, 1.0), 2, 2)
