import dataclasses
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from bandlimit.cli import _fejer_value_error
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
from mp_reference import reference_mp

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
        # without the lattice evaluator f(x - kh) is called once per shift
        f = dataclasses.replace(make_reference(kind, 2.0), lattice=None)
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

    @pytest.mark.parametrize("kind, ps", [("fejer", (1.0, 2.0, math.inf)),
                                          ("sinc", (2.0, math.inf))])
    def test_one_lattice_build_one_call_per_shift(self, kind, ps):
        f = make_reference(kind, 2.0)
        builds, calls = [], []

        def lattice(kh):
            builds.append(np.size(kh))
            at = f.lattice(kh)

            def counted(x):
                calls.append(x)
                return at(x)
            return counted

        def refused(x):
            raise AssertionError("f(x - kh) called beside the lattice evaluator")

        g = dataclasses.replace(f, eval=refused, lattice=lattice)
        shifts = [j * 0.4 / 16 for j in range(16)]
        got = plancherel_polya_checks(g, 0.4, ps, shifts=shifts, window=2_000)
        assert builds == [4_001] and calls == shifts
        for p, rep in zip(ps, got):
            assert rep == plancherel_polya_check(f, 0.4, p, shifts=shifts, window=2_000)

    def test_given_norms(self):
        f = make_reference("fejer", 2.0)
        g = dataclasses.replace(f, lp_norms={**f.lp_norms, 1.0: 3.0})
        got = plancherel_polya_checks(g, 0.5, (1.0, 2.0), window=2_000)
        assert got[0].lower == 3.0 and got[1].lower == f.lp_norms[2.0]


U = 2.0 ** -53


def lattice_bound(f, x, kh, units=64.0):
    """README "What `verify` checks": |lattice(kh)(x) - f(x - kh)| <=
    64 u (1 + |sigma x| + |sigma kh|) env(x - kh), env the envelope
    min(sup, C/|y|^d), or sup where f has none; 32 units against the exact
    f(x - kh)."""
    y = x - kh
    env = np.full_like(y, f.sup_bound)
    if f.envelope is not None:
        c, d = f.envelope
        with np.errstate(divide="ignore"):
            env = np.minimum(env, c / np.abs(y) ** d)
    return units * U * (1.0 + abs(f.sigma * x) + np.abs(f.sigma * kh)) * env


KINDS = ("sin", "cos", "sinc", "fejer", "const")
log_sigma = st.floats(min_value=-3.0, max_value=3.0)
rate = st.floats(min_value=0.01, max_value=PI)  # h sigma
where = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1.0, exclude_max=True))


class TestLatticeEvaluator:
    """make_reference's lattice evaluator against f(x - kh), within the
    bound the README states, over sigma in [1e-3, 1e3], h sigma in
    [0.01, pi], shifts in [0, h) and windows up to 20 000."""

    @given(st.sampled_from(KINDS), log_sigma, rate, where,
           st.integers(min_value=1, max_value=20_000))
    @settings(max_examples=150, deadline=None)
    def test_within_the_bound(self, kind, log_s, hs, t, window):
        f = make_reference(kind, 10.0 ** log_s)
        h = hs / f.sigma
        x = t * h
        kh = np.arange(-window, window + 1) * h
        got = f.lattice(kh)(x)
        assert got.shape == kh.shape
        assert np.all(np.abs(got - f.eval(x - kh)) <= lattice_bound(f, x, kh))
        if x == 0.0 and kind in ("sinc", "fejer"):
            assert got[window] == 1.0

    @pytest.mark.parametrize("kind", ["sinc", "fejer"])
    @pytest.mark.parametrize("hs", [0.01, 1.0, PI])
    def test_one_at_the_origin_and_near_it(self, kind, hs):
        # at x = 0, k = 0 the quotient is 1 exactly; one lattice step away it
        # is taken directly, where angle addition would cancel
        f = make_reference(kind, 2.5)
        h = hs / f.sigma
        kh = np.arange(-3, 4) * h
        for x in (0.0, h * (1.0 - 1e-12), h * 1e-12):
            got = f.lattice(kh)(x)
            assert np.all(np.abs(got - f.eval(x - kh)) <= lattice_bound(f, x, kh))
        assert f.lattice(kh)(0.0)[3] == 1.0

    @given(st.sampled_from([("fejer", (1.0, 2.0, math.inf)), ("sinc", (2.0, math.inf)),
                            ("sin", (math.inf,)), ("cos", (math.inf,)),
                            ("const", (math.inf,))]),
           log_sigma, rate, st.integers(min_value=1, max_value=2_000))
    @settings(max_examples=40, deadline=None)
    def test_checks_with_and_without_the_evaluator(self, combo, log_s, hs, window):
        kind, ps = combo
        f = make_reference(kind, 10.0 ** log_s)
        h = hs / f.sigma
        shifts = [j * h / 16 for j in range(16)]
        got = plancherel_polya_checks(f, h, ps, shifts=shifts, window=window)
        plain = plancherel_polya_checks(dataclasses.replace(f, lattice=None), h, ps,
                                        shifts=shifts, window=window)
        kh = np.arange(-window, window + 1) * h
        bounds = [lattice_bound(f, x, kh) for x in shifts]
        gamma = (2 * window + 5) * U / (1.0 - (2 * window + 5) * U)
        for p, a, b in zip(ps, got, plain):
            assert a.passed == b.passed
            # Minkowski: the p-norms of two value sets differ by at most the
            # p-norm of their difference, plus each middle's own rounding
            if p == math.inf:
                moved = max(float(np.max(e)) for e in bounds)
            else:
                moved = max(float((h * np.sum(e ** p)) ** (1.0 / p)) for e in bounds)
            for lo in ("middle_lo", "middle_hi"):
                ma, mb = getattr(a, lo), getattr(b, lo)
                assert abs(ma - mb) <= moved + gamma * (ma + mb), (lo, p)


# the corners sigma in {1e-3, 1e3} x h sigma in {0.01, 3.14}, and sigma = h = 1
CORNERS = [(1e-3, 0.01), (1e-3, 3.14), (1e3, 0.01), (1e3, 3.14), (1.0, 1.0)]


class TestLatticeEvaluatorExact:
    """The lattice values against a 40-digit f(x - kh), kh = k h exactly:
    each within 32 u (1 + |sigma x| + |sigma kh|) env(x - kh), and Fejer's
    summed over the window within cli._fejer_value_error, the value error
    verify pp adds to its p = 1 middle."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("sigma, hs", CORNERS)
    def test_within_32_units_of_the_exact_value(self, kind, sigma, hs):
        h = hs / sigma
        near = np.arange(-40, 41)
        far = np.unique(np.geomspace(41, 20_000, 60).astype(np.int64))
        ks = np.concatenate([-far[::-1], near, far])
        f = make_reference(kind, sigma)
        for x in (0.0, 5 * h / 16, 15 * h / 16):
            kh = ks * h
            got = f.lattice(kh)(x)
            exact = np.array([reference_mp(kind, sigma, x, k, h) for k in ks.tolist()])
            assert np.all(np.abs(got - exact) <= lattice_bound(f, x, kh, units=32.0)), x

    def test_fejer_summed_error_on_a_full_window(self):
        # the shift 5h/16 of verify pp at sigma = h = 1, every one of its 40 001 values
        f, h, window = make_reference("fejer", 1.0), 1.0, 20_000
        x = 5 * h / 16
        ks = np.arange(-window, window + 1)
        got = f.lattice(ks * h)(x)
        exact = np.array([reference_mp("fejer", 1.0, x, k, h) for k in ks.tolist()])
        err = np.abs(got - exact)
        assert np.all(err <= lattice_bound(f, x, ks * h, units=32.0))
        assert h * float(np.sum(err)) <= _fejer_value_error(1.0, h, window)

    @given(log_sigma, rate, st.integers(min_value=0, max_value=15),
           st.integers(min_value=1, max_value=20_000))
    @settings(max_examples=60, deadline=None)
    def test_fejer_value_error_sums_the_per_value_bound(self, log_s, hs, j, window):
        # the integral comparison behind 66.4, 8 ln((W + 1) h sigma/2) and 27.9
        assume((window + 1) * hs >= 2.0)
        f = make_reference("fejer", 10.0 ** log_s)
        h = hs / f.sigma
        x = j * h / 16
        per_value = lattice_bound(f, x, np.arange(-window, window + 1) * h, units=32.0)
        assert h * float(np.sum(per_value)) <= _fejer_value_error(f.sigma, h, window)

    @pytest.mark.parametrize("sigma, hs", CORNERS)
    def test_fejer_value_error_at_verify_settings(self, sigma, hs):
        f, h = make_reference("fejer", sigma), hs / sigma
        kh = np.arange(-20_000, 20_001) * h
        for j in range(16):
            per_value = lattice_bound(f, j * h / 16, kh, units=32.0)
            assert h * float(np.sum(per_value)) <= _fejer_value_error(sigma, h, 20_000)


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
