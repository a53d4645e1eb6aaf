import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandlimit.errors import ReconstructionUnsoundError, ToleranceError
from bandlimit.sampling import (
    BandlimitedFn,
    UniformSamples,
    make_reference,
    riesz_trig_derivative,
    valiron_tschakaloff_eval,
    vt_tail_bound,
    wks_eval,
    wks_eval_grid,
    wks_tail_bound,
)
from bandlimit import sampling, sinckernel
from bandlimit.sinckernel import (
    _strip_log_bound,
    regularized_sinc_certificate,
    sinc_derivative_grid,
    sinc_grid,
)
from mp_reference import ToneSum

PI = math.pi
EPS = 2.220446049250313e-16


def fejer_samples(sigma=2.0, K=4000):
    f = make_reference("fejer", sigma)
    return f, UniformSamples.from_function(f, PI / sigma, -K, K)


class TestReferences:
    @pytest.mark.parametrize("sup_bound", [-1.0, math.nan])
    def test_rejects_a_sup_bound_that_is_not_nonnegative(self, sup_bound):
        with pytest.raises(ValueError, match="sup_bound"):
            BandlimitedFn(sigma=1.0, sup_bound=sup_bound, eval=np.sin)

    def test_sin_certificate(self):
        f = make_reference("sin", 1.0)
        assert f.sigma == 1.0 and f.sup_bound == 1.0
        assert float(f(0.3)) == pytest.approx(math.sin(0.3), rel=1e-15)

    def test_const(self):
        f = make_reference("const", 5.0)
        assert float(f(123.0)) == 1.0

    def test_fejer_samples_absolutely_summable(self):
        # partial sums of |f(k h)| settle: the square of a half-rate kernel
        # decays quadratically
        f = make_reference("fejer", 2 * PI)
        ks = np.arange(-20000, 20001)
        vals = np.abs(np.asarray(f(ks * 0.5)))
        s1 = vals[np.abs(ks) <= 10000].sum()
        s2 = vals.sum()
        assert s2 - s1 < 1e-3
        c, d = f.envelope
        assert d == 2.0
        xs = np.array([3.0, 10.0, 57.0])
        assert np.all(np.abs(np.asarray(f(xs))) <= c / xs ** 2 + 1e-15)

    def test_deriv_matches_finite_differences(self):
        for kind in ("sin", "cos", "sinc", "fejer"):
            f = make_reference(kind, 1.7)
            for x in (0.0, 0.41, -2.3):
                fd = (float(f(x + 5e-6)) - float(f(x - 5e-6))) / 1e-5
                assert float(f.deriv_eval(x)) == pytest.approx(fd, abs=2e-7)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_reference("bump", 1.0)


class TestWks:
    def test_kernel_self_interpolation(self):
        # samples of the kernel itself are a Kronecker delta
        sigma = 2.0
        f = make_reference("sinc", sigma)
        s = UniformSamples.from_function(f, PI / sigma, -500, 500)
        assert s.values[500] == 1.0
        assert np.count_nonzero(s.values) == 1
        for x in (0.123, -1.4, 3.0):
            got = wks_eval(s, 0, x, tol=1e-2)
            assert got == pytest.approx(float(f(x)), abs=1e-12)

    def test_node_reproduction_exact(self):
        f, s = fejer_samples(sigma=2.0, K=2000)
        for k in (-3, 0, 11):
            x = k * s.h
            assert wks_eval(s, 0, x, tol=1e-2) == s.values[k - s.k_min]

    def test_fejer_critical_reconstruction(self):
        f, s = fejer_samples(sigma=2.0, K=4000)
        for x in np.linspace(-8, 8, 33):
            got = wks_eval(s, 0, float(x), tol=1e-3)
            assert got == pytest.approx(float(f(x)), abs=1e-3)

    def test_fejer_derivative_vs_finite_difference(self):
        f, s = fejer_samples(sigma=2.0, K=4000)
        x = 0.3
        got = wks_eval(s, 1, x, tol=1e-3)
        fd = (float(f(x + 5e-4)) - float(f(x - 5e-4))) / 1e-3
        assert got == pytest.approx(fd, abs=1e-3)

    def test_linearity_in_samples(self):
        rng = np.random.default_rng(7)
        f, s = fejer_samples(sigma=2.0, K=800)
        other = UniformSamples(sigma=s.sigma, h=s.h, k_min=s.k_min, k_max=s.k_max,
                               values=rng.standard_normal(s.values.size) / 50.0,
                               tail_bound=s.tail_bound, tail_decay=s.tail_decay)
        combo = UniformSamples(sigma=s.sigma, h=s.h, k_min=s.k_min, k_max=s.k_max,
                               values=2.0 * s.values - 3.0 * other.values,
                               tail_bound=5 * s.tail_bound, tail_decay=s.tail_decay)
        x = 0.77
        lhs = wks_eval(combo, 0, x, tol=1.0)
        rhs = 2.0 * wks_eval(s, 0, x, tol=1.0) - 3.0 * wks_eval(other, 0, x, tol=1.0)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_bounded_critical_refused(self):
        # all-zero samples of sin(sigma x) on the critical lattice carry only
        # a boundedness certificate; reconstruction must refuse, not return 0
        sigma = 1.0
        ks = np.arange(-2000, 2001)
        s = UniformSamples(sigma=sigma, h=PI / sigma, k_min=-2000, k_max=2000,
                           values=np.sin(sigma * ks * PI / sigma),
                           tail_bound=1.0, tail_decay=0.0)
        with pytest.raises(ReconstructionUnsoundError):
            wks_eval(s, 0, 0.5, tol=1e-3)

    def test_oversampled_bounded_allowed(self):
        # bounded non-decaying samples reconstruct once strictly oversampled:
        # type-1 sine on the rate-1.5 lattice, compact-set convergence
        sigma_true = 1.0
        rate = 1.5
        h = PI / rate
        K = 100_000
        ks = np.arange(-K, K + 1)
        s = UniformSamples(sigma=sigma_true, h=h, k_min=-K, k_max=K,
                           values=np.sin(sigma_true * ks * h),
                           tail_bound=1.0, tail_decay=0.0)
        for x in np.linspace(-5, 5, 21):
            got = wks_eval(s, 0, float(x), tol=1e-4)
            assert got == pytest.approx(math.sin(x), abs=1e-4)

    def test_undersampled_rejected(self):
        s = UniformSamples(sigma=2.0, h=2.0, k_min=-10, k_max=10,
                           values=np.zeros(21), tail_bound=0.0, tail_decay=1.0)
        with pytest.raises(ReconstructionUnsoundError):
            wks_eval(s, 0, 0.1, tol=1e-3)

    def test_tail_bound_monotone_in_window(self):
        f = make_reference("fejer", 2.0)
        small = UniformSamples.from_function(f, PI / 2, -500, 500)
        big = UniformSamples.from_function(f, PI / 2, -5000, 5000)
        assert wks_tail_bound(big, 0, 0.2) < wks_tail_bound(small, 0, 0.2)


def fejer_derivative(x, sigma, m):
    """Closed-form m-th derivative of sinc^2(sigma x/(2 pi)) by Leibniz."""
    c = sigma / (2 * PI)
    u = c * np.asarray(x, dtype=float)
    return c ** m * sum(math.comb(m, j) * sinc_derivative_grid(j, u)
                        * sinc_derivative_grid(m - j, u) for j in range(m + 1))


def horizon_tail(s, m, x):
    """The explicit-sum decaying tail: the majorant summed out to ten times
    the window, then twice the integral beyond.  Reference for the closed
    form in wks_tail_bound."""
    u = x / s.h
    p = s.tail_decay
    k_edge = max(1, min(-s.k_min, s.k_max))
    horizon = 10 * max(-s.k_min, s.k_max) + 1000
    kr = np.arange(s.k_max + 1, horizon + 1, dtype=float)
    kl = np.arange(1 - s.k_min, horizon + 1, dtype=float)
    total = np.sum((k_edge / kr) ** p / (kr - u)) + np.sum((k_edge / kl) ** p / (kl + u))
    total += 4.0 * (k_edge / horizon) ** p / p
    return 1.5 / PI * s.tail_bound * total


def majorant_sum(s, us, horizon=10 ** 7):
    """The decaying-tail majorant summed out to |k| = horizon, in blocks."""
    p = s.tail_decay
    k_edge = max(1, min(-s.k_min, s.k_max))
    total = np.zeros_like(us)
    for first, v in ((s.k_max + 1, us), (1 - s.k_min, -us)):
        for lo in range(first, horizon + 1, 1 << 18):
            k = np.arange(lo, min(lo + (1 << 18), horizon + 1), dtype=float)
            total += np.sum((k_edge / k) ** p / (k - v[:, None]), axis=1)
    return 1.5 / PI * s.tail_bound * total


class TestTailHonesty:
    """The reported tail bounds the true error of the computed sum."""

    def test_fejer_far_from_center(self):
        # x = 300 sits at u = 95.5 in k in [-200, 200]: the long side's
        # in-window samples must be summed, not dropped
        f = make_reference("fejer", 1.0)
        s = UniformSamples.from_function(f, PI, -200, 200)
        err = abs(wks_eval(s, 0, 300.0, tol=1e-5) - float(f(300.0)))
        assert err <= wks_tail_bound(s, 0, 300.0)

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_fejer_critical_rate(self, m):
        K = 20_000
        f = make_reference("fejer", 1.0)
        s = UniformSamples.from_function(f, PI, -K, K)
        xs = np.linspace(-0.8 * K * s.h, 0.8 * K * s.h, 101)
        err = np.abs(wks_eval_grid(s, m, xs, tol=1.0) - fejer_derivative(xs, 1.0, m))
        assert np.all(err <= wks_tail_bound(s, m, xs))

    @pytest.mark.parametrize("rate", [2.0, 1.5, 1.1])
    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_oversampled_tones(self, rate, m):
        K = 400
        h = PI / rate
        ks = np.arange(-K, K + 1)
        xs = np.linspace(-0.8 * K * h, 0.8 * K * h, 101)
        for phase in np.linspace(0.0, 2 * PI, 13, endpoint=False):
            s = UniformSamples(sigma=1.0, h=h, k_min=-K, k_max=K,
                               values=np.sin(ks * h + phase), tail_bound=1.0)
            for tol in (10.0, 1e-3):
                got, tails = wks_eval_grid(s, m, xs, tol=tol, with_tail=True)
                err = np.abs(got - np.sin(xs + phase + m * PI / 2))
                assert np.all(err <= tails) and np.all(tails <= tol), (phase, tol)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("K", [200, 5000])
    def test_closed_form_decaying_tail(self, p, K):
        s = UniformSamples(sigma=1.0, h=PI, k_min=-K, k_max=K,
                           values=np.zeros(2 * K + 1), tail_bound=1e-3, tail_decay=p)
        us = np.linspace(-0.8 * K, 0.8 * K, 5)
        got = wks_tail_bound(s, 0, us * s.h)
        assert np.all(got >= majorant_sum(s, us))
        old = np.array([horizon_tail(s, 0, u * s.h) for u in us])
        assert np.all(got <= 1.25 * old)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_closed_form_lopsided_tail(self, p):
        # k in [-1000, 20]: seen from u <= -500 the right edge is the far side
        s = UniformSamples(sigma=1.0, h=PI, k_min=-1000, k_max=20,
                           values=np.zeros(1021), tail_bound=1e-3, tail_decay=p)
        us = np.array([-898.0, -500.0])
        got = wks_tail_bound(s, 0, us * s.h)
        assert np.all(got >= majorant_sum(s, us))
        old = np.array([horizon_tail(s, 0, u * s.h) for u in us])
        assert np.all(got <= 1.25 * old)

    def test_grid_matches_scalar(self):
        f, s = fejer_samples(sigma=2.0, K=600)
        xs = np.array([-3.1, 0.0, 0.77, 5 * s.h])
        for m in (0, 1, 4):
            grid = wks_eval_grid(s, m, xs, tol=1.0)
            assert list(grid) == [wks_eval(s, m, float(x), tol=1.0) for x in xs]
            assert np.array_equal(wks_tail_bound(s, m, xs),
                                  [wks_tail_bound(s, m, float(x)) for x in xs])


@st.composite
def tone_sums(draw):
    """1-5 tones of type at most 1, one of them at full type, with
    sup |f| <= 1 on the real line."""
    n = draw(st.integers(1, 5))
    unit = st.floats(-1.0, 1.0, allow_nan=False)
    amps = np.array([draw(unit) for _ in range(n)])
    amps[0] = draw(st.floats(0.1, 1.0))
    amps /= np.sum(np.abs(amps))
    freqs = [1.0] + [draw(unit) for _ in range(n - 1)]
    phases = [draw(st.floats(0.0, 2 * PI)) for _ in range(n)]
    return ToneSum(amps, freqs, phases)


def tone_samples(f, h, n0, half):
    ks = np.arange(n0 - half, n0 + half + 1)
    return UniformSamples(sigma=1.0, h=h, k_min=int(ks[0]), k_max=int(ks[-1]),
                          values=f.samples(ks, h), tail_bound=1.0)


class TestCriticalRateCost:
    """The critical-rate sum evaluates sinc^(m) only on each point's near
    band, 2m+3 entries, however long the window: the far band needs one
    sine and one cosine per point and no kernel entry."""

    @staticmethod
    def kernel_entries(monkeypatch):
        # every module that binds the kernels, as bench/tracing.py wraps them
        seen = {"sinc_grid": 0, "sinc_derivative_grid": 0}
        for name in seen:
            fn = getattr(sinckernel, name)

            def counted(*args, _fn=fn, _name=name):
                seen[_name] += np.size(args[-1])
                return _fn(*args)

            for mod in (sinckernel, sampling):
                monkeypatch.setattr(mod, name, counted)
        return seen

    @pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
    def test_near_band_only(self, monkeypatch, m):
        K = 20_000
        f = make_reference("fejer", 1.0)
        s = UniformSamples.from_function(f, PI, -K, K)
        nodes = np.arange(-K + max(2, m), K - max(2, m) + 1, 397) * s.h
        xs = np.concatenate([nodes, np.linspace(-0.8 * K * s.h, 0.8 * K * s.h, 101)])
        seen = self.kernel_entries(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = wks_eval_grid(s, m, xs, tol=1.0)
        assert max(seen.values()) <= (2 * m + 3) * xs.size, seen
        if m == 0:
            assert np.array_equal(got[:nodes.size], s.values[np.rint(nodes / s.h).astype(int) + K])

    def test_valiron_tschakaloff_near_band_only(self, monkeypatch):
        K = 100_000
        ks = np.arange(-K, K + 1)
        s = UniformSamples(sigma=1.0, h=PI, k_min=-K, k_max=K,
                           values=np.sin(ks * PI + 0.9), tail_bound=1.0)
        seen = self.kernel_entries(monkeypatch)
        for z in (0.37, 0.3 + 0.4j, 5 * PI):
            valiron_tschakaloff_eval(s, math.sin(0.9), math.cos(0.9), z)
        # the head's sinc(u) and the 3-entry near band, per call
        assert max(seen.values()) <= 3 * (1 + 3), seen


class TestRegularizedSeries:
    """Oversampled samples go through the local kernel sinc times a Gaussian,
    with a certified tail per point."""

    @given(tone_sums(), st.floats(1.1, 2.0), st.integers(0, 3),
           st.floats(-40.0, 40.0), st.sampled_from([1e-2, 1e-4, 1e-7]))
    @settings(max_examples=60, deadline=None)
    def test_tone_sums_real(self, f, rate, m, x, tol):
        h = PI / rate
        s = tone_samples(f, h, int(round(x / h)), 160)
        got, tail = wks_eval_grid(s, m, np.array([x]), tol, with_tail=True)
        assert abs(got[0] - f(x, m)) <= tail[0] <= tol

    @given(tone_sums(), st.floats(1.1, 2.0), st.integers(5, 40),
           st.floats(-40.0, 40.0), st.floats(-2.0, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_tone_sums_complex(self, f, rate, N, x, y):
        # the strip bound Cauchy's estimate rests on, at |Im z| <= 2h
        h = PI / rate
        alpha = (PI - h) / 2
        z = complex(x, y * h)
        err = abs(f.regularized(z, h, N, alpha) - f(z))
        assert err <= math.exp(_strip_log_bound(N, alpha, abs(y)))

    def test_edge_point_gives_achievable_tol(self):
        h = PI / 1.5
        ks = np.arange(-30, 31)
        s = UniformSamples(sigma=1.0, h=h, k_min=-30, k_max=30,
                           values=np.sin(ks * h), tail_bound=1.0)
        # N = 15 at tol 1e-3, so a point 12 samples from the edge is refused
        wks_eval_grid(s, 0, np.array([0.0, 15 * h]), 1e-3)
        with pytest.raises(ToleranceError) as info:
            wks_eval_grid(s, 0, np.array([0.0, 18.3 * h]), 1e-3)
        achievable = info.value.achievable
        assert 1e-3 < achievable < 1e-2
        assert f"achievable tol {achievable:.3e}" in str(info.value)
        assert "x = " in str(info.value) and "12" in str(info.value)
        # the achievable tol is met
        got, tails = wks_eval_grid(s, 0, np.array([0.0, 18.3 * h]), achievable,
                                   with_tail=True)
        assert np.all(tails <= achievable)

    @pytest.mark.parametrize("rate", [1.5, 1.0])
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_rejects_a_tol_that_is_not_positive(self, rate, tol):
        # NaN fails every comparison: the oversampled path found no N for it
        # and the critical-rate path returned values as if it were met
        s = UniformSamples.from_function(make_reference("fejer", 1.0), PI / rate, -400, 400)
        with pytest.raises(ValueError):
            wks_eval_grid(s, 0, np.array([0.0, 1.3]), tol)
        with pytest.raises(ValueError):
            sinckernel._local_series(0, [0.3], PI / 4, 1.0, 1.0, tol)

    def test_node_reproduction_exact(self):
        h = PI / 1.3
        ks = np.arange(-500, 501)
        s = UniformSamples(sigma=1.0, h=h, k_min=-500, k_max=500,
                           values=np.sin(ks * h + 0.4), tail_bound=1.0)
        nodes = np.array([-7, 0, 3, 101, 399])
        got = wks_eval_grid(s, 0, nodes * h, 1e-6)
        assert list(got) == list(s.values[nodes + 500])

    def test_smallest_certified_halfwidth(self):
        # the tail column comes from the same N as the values; one half-width
        # less would not have met tol
        h = PI / 2
        ks = np.arange(-200, 201)
        s = UniformSamples(sigma=1.0, h=h, k_min=-200, k_max=200,
                           values=np.cos(ks * h), tail_bound=1.0)
        xs = np.linspace(-50.0, 50.0, 17)
        _, tails = wks_eval_grid(s, 1, xs, 1e-5, with_tail=True)
        alpha = (PI - h) / 2
        u = xs / h
        N = next(n for n in range(1, 100)
                 if np.array_equal(tails, regularized_sinc_certificate(
                     1, n, alpha, 1.0, u=u) / h))
        assert np.max(tails) <= 1e-5
        worst = regularized_sinc_certificate(1, N - 1, alpha, 1.0, u=np.max(np.abs(u))) / h
        assert worst > 1e-5

    def test_bounded_tail_bound_refused(self):
        # the whole-window tail needs decay; oversampled samples without it
        # get their tail from the local kernel
        s = UniformSamples(sigma=1.0, h=PI / 2, k_min=-100, k_max=100,
                           values=np.zeros(201), tail_bound=1.0)
        with pytest.raises(ReconstructionUnsoundError):
            wks_tail_bound(s, 0, 0.3)


def vt_reference(s, f0, df0, z):
    """Valiron-Tschakaloff summed term by term with a scalar complex sinc."""
    def sinc_c(w):
        if w == 0:
            return 1.0 + 0.0j
        if w.imag == 0.0 and w.real == round(w.real):
            return 0.0j
        if abs(w) < 0.05:
            return sum((-1.0) ** j * (PI * w) ** (2 * j) / math.factorial(2 * j + 1)
                       for j in range(12))
        return cmath.sin(PI * w) / (PI * w)

    z = complex(z)
    u = z / s.h
    r = round(u.real)
    if u.imag == 0.0 and abs(u.real - r) <= 8 * EPS * max(1.0, abs(u.real)):
        u = complex(r, 0.0)
    total = (z * df0 + f0) * sinc_c(u)
    half = min(-s.k_min, s.k_max)
    for k in range(1, half + 1):
        total += s.values[k - s.k_min] * (u / k) * sinc_c(u - k)
        total += s.values[-k - s.k_min] * (u / -k) * sinc_c(u + k)
    for k in list(range(half + 1, s.k_max + 1)) + list(range(s.k_min, -half)):
        total += s.values[k - s.k_min] * (u / k) * sinc_c(u - k)
    return total


class TestValironTschakaloff:
    def make_sin_samples(self, K=20000, sigma=1.0):
        h = PI / sigma
        ks = np.arange(-K, K + 1)
        return UniformSamples(sigma=sigma, h=h, k_min=-K, k_max=K,
                              values=np.sin(sigma * ks * h),
                              tail_bound=1.0, tail_decay=0.0)

    def test_sine_collapse(self):
        s = self.make_sin_samples()
        got = valiron_tschakaloff_eval(s, f0=0.0, df0=1.0, z=1.2345)
        assert got.real == pytest.approx(math.sin(1.2345), abs=1e-6)
        assert got.imag == pytest.approx(0.0, abs=1e-12)

    def test_interpolation_at_nodes(self):
        s = self.make_sin_samples(K=50)
        z = 3 * s.h
        got = valiron_tschakaloff_eval(s, f0=0.0, df0=1.0, z=z)
        assert got.real == s.value_at(3)

    def test_constant_function(self):
        K = 20000
        s = UniformSamples(sigma=1.0, h=PI, k_min=-K, k_max=K,
                           values=np.ones(2 * K + 1), tail_bound=1.0)
        for z in (-3.0, -0.9, 0.4, 2.5):
            got = valiron_tschakaloff_eval(s, f0=1.0, df0=0.0, z=z)
            assert got.real == pytest.approx(1.0, abs=1e-3)
        assert vt_tail_bound(s, 3.0) < 1e-3

    def test_matches_term_by_term_reference(self):
        K = 20000
        ks = np.arange(-K, K + 1)
        phase = 0.9
        s = UniformSamples(sigma=1.0, h=PI, k_min=-K, k_max=K,
                           values=np.sin(ks * PI + phase), tail_bound=1.0)
        f0, df0 = math.sin(phase), math.cos(phase)
        for z in (0.37, -2.2, 1e-3, 0.3 + 0.4j, 1.1 - 0.2j, -0.02 + 0.01j):
            got = valiron_tschakaloff_eval(s, f0, df0, z)
            assert abs(got - vt_reference(s, f0, df0, z)) <= 1e-13, z
        for k in (0, 3, -4, 17):
            z = k * s.h
            assert valiron_tschakaloff_eval(s, f0, df0, z) == vt_reference(s, f0, df0, z)

    def test_lopsided_window(self):
        # k in [-40, 4000]: the 3960 samples past the symmetric part move the
        # sum by about 1e-3, and each side's tail is bounded on its own
        ks = np.arange(-40, 4001)
        phase = 0.9
        s = UniformSamples(sigma=1.0, h=PI, k_min=-40, k_max=4000,
                           values=np.sin(ks * PI + phase), tail_bound=1.0)
        f0, df0 = math.sin(phase), math.cos(phase)
        for z in (0.37, -2.2, 1.1 - 0.2j):
            got = valiron_tschakaloff_eval(s, f0, df0, z)
            assert abs(got - vt_reference(s, f0, df0, z)) <= 1e-13, z
            bound = vt_tail_bound(s, z)
            grow = math.exp(abs(complex(z).imag))
            assert bound == pytest.approx(2 * abs(z) * grow / PI ** 2 * (1 / 4000 + 1 / 40))
            assert abs(got - cmath.sin(z + phase)) <= bound

    def test_complex_argument(self):
        s = self.make_sin_samples(K=20000)
        z = 0.3 + 0.4j
        got = valiron_tschakaloff_eval(s, f0=0.0, df0=1.0, z=z)
        assert abs(got - cmath.sin(z)) < 1e-5

    def test_rejects_non_finite(self):
        s = self.make_sin_samples(K=10)
        with pytest.raises(ValueError):
            valiron_tschakaloff_eval(s, 0.0, 1.0, complex(math.inf, 0.0))

    def test_linearity_in_samples(self):
        rng = np.random.default_rng(17)
        K = 400
        h = PI
        v1 = rng.standard_normal(2 * K + 1)
        v2 = rng.standard_normal(2 * K + 1)

        def mk(vals):
            return UniformSamples(sigma=1.0, h=h, k_min=-K, k_max=K,
                                  values=vals, tail_bound=1.0)

        z = 0.85
        lhs = valiron_tschakaloff_eval(mk(3.0 * v1 - 0.5 * v2), 0.0, 0.0, z)
        rhs = (3.0 * valiron_tschakaloff_eval(mk(v1), 0.0, 0.0, z)
               - 0.5 * valiron_tschakaloff_eval(mk(v2), 0.0, 0.0, z))
        assert abs(lhs - rhs) < 1e-11


class TestRiesz:
    def test_sine_extremal(self):
        for N in range(1, 65):
            got = riesz_trig_derivative(lambda x, N=N: math.sin(N * x), N, 0.0)
            assert abs(got - N) <= 1e-14 * N, N

    def test_constant_annihilated_exactly(self):
        # the pairs x_k, x_(2N+1-k) carry w_k, -w_k and cancel one by one
        for N in range(1, 65):
            assert riesz_trig_derivative(lambda x: 4.25, N, 0.9) == 0.0, N
            assert riesz_trig_derivative(lambda x: -1.7e3, N, -2.1) == 0.0, N

    def test_cosine_oracle(self):
        want = -2 * math.sin(1.4)
        for N in range(2, 65):
            got = riesz_trig_derivative(lambda x: math.cos(2 * x), N, 0.7)
            assert abs(got - want) <= 1e-14 * N, N

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            riesz_trig_derivative(math.sin, 0, 0.0)


def poisson_residual(f, fhat, lam, t, K):
    """| (lam/sqrt(2 pi)) sum_{|k|<=K} f(t + lam k)
         - sum_{|k|<=K} fhat(2 k pi / lam) e^(i 2 k pi t / lam) |

    for an analytically matched transform pair (convention:
    fhat(xi) = (2 pi)^(-1/2) int f(x) e^(-i x xi) dx).  Both partial sums
    converge to the same value for integrable pairs, so the residual tends
    to 0 as K grows.
    """
    ks = np.arange(-K, K + 1)
    lhs = lam / math.sqrt(2 * PI) * float(np.sum(np.asarray(f(t + lam * ks), dtype=float)))
    xi = 2 * PI * ks / lam
    rhs = np.sum(np.asarray(fhat(xi), dtype=complex) * np.exp(1j * 2 * PI * ks * t / lam))
    return abs(lhs - rhs)


def fejer_transform_pair(delta):
    """A transform pair with compactly supported spectrum:

        f(x)    = (delta / 2 pi) sinc^2(delta x / (2 pi))
        fhat(w) = (2 pi)^(-1/2) max(0, 1 - |w|/delta)

    f decays like x^-2, fhat is the triangle on [-delta, delta].
    """
    def f(x):
        return (delta / (2 * PI)) * sinc_grid(delta * np.asarray(x, dtype=float) / (2 * PI)) ** 2

    def fhat(w):
        w = np.asarray(w, dtype=float)
        return (1.0 / math.sqrt(2 * PI)) * np.maximum(0.0, 1.0 - np.abs(w) / delta)

    return f, fhat


class TestPoisson:
    def test_fejer_triangle_pair(self):
        f, fhat = fejer_transform_pair(4.0)
        res = poisson_residual(f, fhat, lam=1.0, t=0.0, K=1000)
        assert res <= 1e-4

    def test_periodicity(self):
        f, fhat = fejer_transform_pair(4.0)
        r0 = poisson_residual(f, fhat, lam=1.0, t=0.0, K=1000)
        r1 = poisson_residual(f, fhat, lam=1.0, t=1.0, K=1000)
        assert abs(r0 - r1) < 1e-5

    def test_tail_non_increasing(self):
        f, fhat = fejer_transform_pair(4.0)
        r1 = poisson_residual(f, fhat, lam=1.0, t=0.2, K=1000)
        r2 = poisson_residual(f, fhat, lam=1.0, t=0.2, K=2000)
        assert r2 <= r1 + 1e-12


class TestSamplingRateRule:
    """One rule decides the rate of every sample window: critical within
    1e-12 pi of h sigma = pi, oversampled below, undersampled above."""

    @staticmethod
    def fejer_at(h):
        return UniformSamples.from_function(make_reference("fejer", 1.0), h, -2000, 2000)

    def test_undersampled_refused_by_every_series(self):
        s = self.fejer_at(PI * (1 + 5e-10))
        for call in (lambda: wks_eval(s, 0, 0.7, 1e-3),
                     lambda: valiron_tschakaloff_eval(s, 1.0, 0.0, 0.7),
                     lambda: vt_tail_bound(s, 0.7)):
            with pytest.raises(ReconstructionUnsoundError, match="undersampled"):
                call()

    @pytest.mark.parametrize("h", [PI * (1 - 5e-10), PI / 2])
    def test_oversampled_refused_by_valiron_tschakaloff(self, h):
        s = self.fejer_at(h)
        for call in (lambda: valiron_tschakaloff_eval(s, 1.0, 0.0, 0.7),
                     lambda: vt_tail_bound(s, 0.7)):
            with pytest.raises(ValueError, match="critical lattice"):
                call()

    @pytest.mark.parametrize("h", [PI * (1 + 5e-13), PI * (1 - 5e-13)])
    def test_critical_within_1e12(self, h):
        s = self.fejer_at(h)
        want = make_reference("fejer", 1.0)(0.7)
        assert abs(wks_eval(s, 0, 0.7, 1e-3) - want) <= 1e-3
        assert abs(valiron_tschakaloff_eval(s, 1.0, 0.0, 0.7) - want) <= vt_tail_bound(s, 0.7)


class TestValironTschakaloffPoints:
    """The sum and its tail accept the same points: those where both sides
    of the window reach 2|u|."""

    def test_refuses_points_its_tail_cannot_bound(self):
        s = UniformSamples(sigma=1.0, h=PI, k_min=-100, k_max=100,
                           values=np.ones(201), tail_bound=1.0)
        for z in (1e300, 51 * PI, -50.5 * PI, 40.0 * PI + 40.0j * PI):
            with pytest.raises(ValueError, match="window too small"):
                valiron_tschakaloff_eval(s, 1.0, 0.0, z)
            with pytest.raises(ValueError, match="window too small"):
                vt_tail_bound(s, z)
        got = valiron_tschakaloff_eval(s, 1.0, 0.0, 50 * PI)
        assert got == 1.0 and vt_tail_bound(s, 50 * PI) > 0.0

    @pytest.mark.parametrize("k_min, k_max", [(0, 10), (-10, 0)])
    def test_one_sided_window_at_the_origin(self, k_min, k_max):
        # every term carries the factor u, so at z = 0 nothing is truncated
        s = UniformSamples(sigma=1.0, h=PI, k_min=k_min, k_max=k_max,
                           values=np.ones(11), tail_bound=1.0)
        assert valiron_tschakaloff_eval(s, 1.0, 0.0, 0.0) == 1.0
        assert vt_tail_bound(s, 0.0) == 0.0

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.inf)])
    def test_tail_refuses_a_point_that_is_not_finite(self, z):
        s = UniformSamples(sigma=1.0, h=PI, k_min=-100, k_max=100,
                           values=np.ones(201), tail_bound=1.0)
        with pytest.raises(ValueError, match="finite"):
            vt_tail_bound(s, z)


class TestEmptyPoints:
    """No points, no values: empty values and tails in the shape of xs."""

    @pytest.mark.parametrize("rate", [1.0, 2.0])
    @pytest.mark.parametrize("shape", [(0,), (0, 3), (2, 0)])
    def test_empty_points(self, rate, shape):
        s = UniformSamples.from_function(make_reference("fejer", 1.0), PI / rate, -200, 200)
        xs = np.zeros(shape)
        values, tails = wks_eval_grid(s, 1, xs, 1e-3, with_tail=True)
        assert values.shape == tails.shape == shape
        assert wks_eval_grid(s, 0, xs, 1e-3).shape == shape
