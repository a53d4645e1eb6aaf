import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bandlimit.dht import SeqWindow, dht_instance, hilbert_group
from bandlimit.errors import ToleranceError
from bandlimit.grouporbit import (
    BernsteinVector,
    OrbitSamples,
    _local_orbit,
    _orbit_series,
    _shells,
    exponential_type,
    group_boas,
    orbit_reconstruct,
    orbit_vt,
    recover_initial,
    rotation_instance,
)
from bandlimit.sinckernel import (
    boas_coefficient,
    boas_coefficient_grid,
    coefficient_tail_bound,
    regularized_sinc_grid,
    sinc,
    sinc_grid,
    snap_integer,
)

PI = math.pi


# ---------------------------------------------------------------------------
# the paper's critical-lattice series for the trajectory and for D^r f, as
# orbit_reconstruct and group_boas summed them before the local orbit
# engine: Richardson over the half-widths K/2 and K; a test oracle
# ---------------------------------------------------------------------------

def paper_orbit_reconstruct(b, t, K):
    """e^(tD)f = f + t sinc(u) Df
    + t sum_{k!=0} (e^((k pi/s)D)f - f) / (k pi/s) * sinc(u - k)."""
    inst, v, sigma = b.instance, b.v, b.sigma
    u = snap_integer(sigma * t / PI)
    ks = _shells(max(K, 2 * (abs(int(round(u))) + 2)))
    lattice = np.column_stack((ks, -ks))
    times = lattice * (PI / sigma)
    weights = t * sinc_grid(u - lattice) / times
    head = v + (t * sinc(u)) * inst.generator(v)
    return _orbit_series(head, lambda s: inst.orbit(s, v) - v, times, weights)


def paper_group_boas(b, r, K):
    """D^(2m-1) f = (s/pi)^(2m-1) sum_k (-1)^(k+1) a(m,k) e^((pi(k-1/2)/s)D) f,
    D^(2m) f = (s/pi)^(2m) sum_k (-1)^(k+1) b(m,k) e^((pi k/s)D) f."""
    inst, v, sigma = b.instance, b.v, b.sigma
    m = (r + 1) // 2
    ks = _shells(K)
    w = np.where(ks % 2, 1.0, -1.0) * boas_coefficient_grid("odd" if r % 2 else "even", m, ks)
    if r % 2:
        lattice = np.column_stack((ks - 0.5, 0.5 - ks))
        weights = np.column_stack((w, -w))
        head = 0.0 * v
    else:
        lattice = np.column_stack((ks, -ks))
        weights = np.column_stack((w, w))
        head = -boas_coefficient("even", m, 0) * v
    series = _orbit_series(head, lambda s: inst.orbit(s, v), lattice * (PI / sigma), weights)
    return (sigma / PI) ** r * series


def paper_orbit_budget(sigma, t, K):
    # the residue model the paper's series was sized by, ||f|| = 1
    u = abs(t) * sigma / PI
    return 8.0 * sigma * (1.0 + u) ** 2 / K ** 2


def paper_group_boas_budget(sigma, r, K):
    c = (sigma / PI) ** r * 2.0 * coefficient_tail_bound("odd" if r % 2 else "even",
                                                         (r + 1) // 2, 2)
    return 4.0 * c / K ** 2


def unit_vector():
    return np.array([0.8, -0.6])


class TestRotationInstance:
    def test_quarter_turn(self):
        inst = rotation_instance([2.0])
        out = inst.orbit(PI / 2, np.array([1.0, 0.0]))
        assert np.allclose(out, [-1.0, 0.0], atol=1e-15)

    def test_generator_powers_have_exact_norms(self):
        sigma = 3.0
        inst = rotation_instance([sigma])
        v = unit_vector()
        w = v
        for k in range(1, 9):
            w = inst.generator(w)
            assert inst.norm(w) == pytest.approx(sigma ** k, rel=1e-12)

    def test_group_law_machine_precision(self):
        inst = rotation_instance([1.0, 2.5])
        v = np.array([0.3, 0.4, -0.5, 0.7])
        lhs = inst.orbit(0.4, inst.orbit(1.1, v))
        rhs = inst.orbit(1.5, v)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_isometry(self):
        inst = rotation_instance([1.0, 0.3])
        v = np.array([1.0, -2.0, 0.5, 0.25])
        for t in np.linspace(-5, 5, 11):
            assert inst.norm(inst.orbit(float(t), v)) == pytest.approx(inst.norm(v), rel=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rotation_instance([])


class TestOrbitReconstruct:
    def test_zero_time(self):
        inst = rotation_instance([1.0])
        b = BernsteinVector(inst, unit_vector(), 1.0)
        out = orbit_reconstruct(b, 0.0, k_terms=64)
        assert np.array_equal(out, unit_vector())

    def test_lattice_interpolation(self):
        sigma = 2.0
        inst = rotation_instance([sigma])
        b = BernsteinVector(inst, unit_vector(), sigma)
        for m in (1, -2, 5):
            t = m * PI / sigma
            out = orbit_reconstruct(b, t, k_terms=max(2 * abs(m), 8))
            exact = inst.orbit(t, b.v)
            assert np.allclose(out, exact, atol=1e-14)

    def test_closed_form_oracle(self):
        inst = rotation_instance([1.0])
        b = BernsteinVector(inst, unit_vector(), 1.0)
        for t in (0.3, 0.7, 1.9):
            out = orbit_reconstruct(b, t, k_terms=4096)
            exact = inst.orbit(t, b.v)
            assert np.max(np.abs(out - exact)) < 1e-6

    def test_tolerance_driven_halfwidth(self):
        inst = rotation_instance([1.0])
        b = BernsteinVector(inst, unit_vector(), 1.0)
        out = orbit_reconstruct(b, 0.7, tol=1e-6)
        exact = inst.orbit(0.7, b.v)
        assert np.max(np.abs(out - exact)) < 1e-6

    def test_linearity(self):
        inst = rotation_instance([1.0])
        v1, v2 = np.array([1.0, 0.0]), np.array([-0.5, 0.25])
        t = 0.6
        lhs = orbit_reconstruct(BernsteinVector(inst, v1 + 3 * v2, 1.0), t, k_terms=512)
        rhs = (orbit_reconstruct(BernsteinVector(inst, v1, 1.0), t, k_terms=512)
               + 3 * orbit_reconstruct(BernsteinVector(inst, v2, 1.0), t, k_terms=512))
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_convergence_order(self):
        # halving tol should grow the half-width by at most a factor 4
        from bandlimit.grouporbit import _resolve_k
        k1 = _resolve_k(1e-5, 0.7, 1.0, 1.0, None)
        k2 = _resolve_k(5e-6, 0.7, 1.0, 1.0, None)
        assert k1 <= k2 <= 4 * k1


class TestRecoverInitial:
    def test_oracle(self):
        inst = rotation_instance([1.0])
        b = BernsteinVector(inst, unit_vector(), 1.0)
        for t in (0.3, 0.7):
            samples = OrbitSamples.from_bernstein(b, t)
            out = recover_initial(samples, k_terms=4096)
            assert np.max(np.abs(out - b.v)) < 1e-6

    def test_lattice_degenerates_to_identity(self):
        sigma = 1.0
        inst = rotation_instance([sigma])
        b = BernsteinVector(inst, unit_vector(), sigma)
        t = PI / sigma
        samples = OrbitSamples.from_bernstein(b, t)
        out = recover_initial(samples, k_terms=16)
        assert np.allclose(out, b.v, atol=1e-12)

    def test_linearity(self):
        inst = rotation_instance([1.0])
        v1, v2 = np.array([1.0, 0.0]), np.array([0.25, -0.5])
        t = 0.45
        s1 = OrbitSamples.from_bernstein(BernsteinVector(inst, v1, 1.0), t)
        s2 = OrbitSamples.from_bernstein(BernsteinVector(inst, v2, 1.0), t)
        s12 = OrbitSamples.from_bernstein(BernsteinVector(inst, v1 + 2 * v2, 1.0), t)
        lhs = recover_initial(s12, k_terms=512)
        rhs = recover_initial(s1, k_terms=512) + 2 * recover_initial(s2, k_terms=512)
        assert np.allclose(lhs, rhs, atol=1e-10)


class TestOrbitVt:
    def test_oracle(self):
        inst = rotation_instance([1.0])
        b = BernsteinVector(inst, unit_vector(), 1.0)
        for t in (0.0, 1.1):
            out = orbit_vt(b, t, k_terms=4096)
            exact = inst.orbit(t, b.v)
            assert np.max(np.abs(out - exact)) < 1e-6

    def test_lattice_interpolation(self):
        sigma = 1.0
        inst = rotation_instance([sigma])
        b = BernsteinVector(inst, unit_vector(), sigma)
        t = 4 * PI
        out = orbit_vt(b, t, k_terms=16)
        assert np.allclose(out, inst.orbit(t, b.v), atol=1e-13)


class TestGroupBoas:
    def test_matches_generator_powers(self):
        inst = rotation_instance([1.0])
        b = BernsteinVector(inst, unit_vector(), 1.0)
        w = b.v
        for r in (1, 2, 3):
            w = inst.generator(w)
            got = group_boas(b, r, k_terms=4096)
            assert np.max(np.abs(got - w)) < 1e-6

    def test_norm_contract(self):
        sigma = 2.0
        inst = rotation_instance([sigma])
        b = BernsteinVector(inst, unit_vector(), sigma)
        for r in (1, 2, 3):
            got = group_boas(b, r, k_terms=8192)
            assert inst.norm(got) <= sigma ** r * inst.norm(b.v) * (1 + 1e-6)

    def test_rejects_bad_power(self):
        inst = rotation_instance([1.0])
        b = BernsteinVector(inst, unit_vector(), 1.0)
        with pytest.raises(ValueError):
            group_boas(b, 0)


class TestExponentialType:
    def test_pure_block_every_index(self):
        inst = rotation_instance([3.0])
        est = exponential_type(inst, unit_vector(), k_max=20)
        assert all(abs(s - 3.0) < 1e-9 for s in est.sequence)

    def test_mixed_blocks_approach_dominant(self):
        inst = rotation_instance([1.0, 3.0])
        v = np.array([1.0, 0.0, 1.0, 0.0]) / math.sqrt(2)
        est = exponential_type(inst, v, k_max=60)
        assert est.sequence[-1] > est.sequence[9]
        assert 3.0 - est.estimate < 0.02
        assert est.estimate <= 3.0 + 1e-12

    def test_small_block_only(self):
        inst = rotation_instance([1.0, 3.0])
        v = np.array([1.0, 0.0, 0.0, 0.0])
        est = exponential_type(inst, v, k_max=30)
        assert est.estimate == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        inst = rotation_instance([1.0])
        with pytest.raises(ValueError):
            exponential_type(inst, np.zeros(2), k_max=5)


class TestEquivalenceSuite:
    def test_three_conditions_together(self):
        # growth bounds, operator reconstruction, and the rate estimator agree
        sigma = 2.0
        inst = rotation_instance([sigma])
        b = BernsteinVector(inst, unit_vector(), sigma)
        assert b.validate(depth=10)
        d1 = group_boas(b, 1, k_terms=4096)
        assert np.max(np.abs(d1 - inst.generator(b.v))) < 1e-6
        est = exponential_type(inst, b.v, k_max=60)
        assert est.estimate == pytest.approx(sigma, abs=1e-6)

    def test_undersized_certificate_fails_validation(self):
        inst = rotation_instance([2.0])
        b = BernsteinVector(inst, unit_vector(), 1.0)  # declared below true rate
        assert not b.validate(depth=4)


def counting_instance(sigma):
    """A rotation group that records every orbit time it is asked for."""
    times = []
    inst = rotation_instance([sigma])

    def orbit(t, v):
        times.append(float(t))
        return inst.orbit(t, v)

    return dataclasses.replace(inst, orbit=orbit), times


def local_weight_count(sigma, r, t, N):
    """Nonzero weights of the local orbit engine at half-width N."""
    u = snap_integer(t / (PI / (2.0 * sigma)))
    d = (u - round(u)) - np.arange(-N, N + 1)
    return int(np.count_nonzero(regularized_sinc_grid(r, d, N, PI / 4)))


class TestOrbitFetches:
    @pytest.mark.parametrize("k_terms", [64, 63])
    def test_each_entry_point_fetches_2k_distinct_times(self, k_terms):
        # the critical-lattice entry points; orbit_reconstruct and group_boas
        # read the local engine, see the next test
        K = 64  # an odd half-width is raised to the next even one
        inst, times = counting_instance(2.0)
        b = BernsteinVector(inst, unit_vector(), 2.0)
        samples = OrbitSamples.from_bernstein(b, 0.7)
        calls = {
            "orbit_vt": lambda: orbit_vt(b, 0.7, k_terms=k_terms),
            "recover_initial": lambda: recover_initial(samples, k_terms=k_terms),
        }
        for name, call in calls.items():
            times.clear()
            call()
            assert len(times) == 2 * K, name
            assert len(set(times)) == 2 * K, name

    @pytest.mark.parametrize("N", [63, 64, 4096])
    def test_local_engine_fetches_each_nonzero_weight_once(self, N):
        inst, times = counting_instance(2.0)
        b = BernsteinVector(inst, unit_vector(), 2.0)
        calls = {
            (0, 0.7): lambda: orbit_reconstruct(b, 0.7, k_terms=N),
            (1, 0.0): lambda: group_boas(b, 1, k_terms=N),
            (2, 0.0): lambda: group_boas(b, 2, k_terms=N),
            (3, 0.0): lambda: group_boas(b, 3, k_terms=N),
        }
        for (r, t), call in calls.items():
            times.clear()
            call()
            want = local_weight_count(2.0, r, t, N)
            assert len(times) == len(set(times)) == want, (r, N)
            # odd orders weigh the center 0; past |d| ~ sqrt(745 N / alpha)
            # the Gaussian underflows to 0
            assert want <= 2 * N + 1 - r % 2
            if N == 4096:
                assert want < 4000

    def test_tolerance_driven_fetches(self):
        inst, times = counting_instance(2.5)
        b = BernsteinVector(inst, unit_vector(), 2.5)
        for r in (1, 2, 3):
            times.clear()
            group_boas(b, r, tol=1e-6)
            assert 20 < len(times) == len(set(times)) < 120, r


class TestLocalOrbitEngine:
    @given(blocks=st.integers(min_value=1, max_value=8),
           sigma=st.floats(min_value=0.25, max_value=2.0),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           t=st.floats(min_value=-3.0, max_value=3.0),
           r=st.integers(min_value=0, max_value=3),
           tol=st.sampled_from([1e-3, 1e-6, 1e-9]))
    @settings(max_examples=150, deadline=None)
    def test_error_within_certificate(self, blocks, sigma, seed, t, r, tol):
        # rotation blocks at rates up to the certified sigma, unit vector
        rng = np.random.default_rng(seed)
        rates = sigma * rng.uniform(0.01, 1.0, blocks)
        rates[0] = sigma
        inst = rotation_instance(rates)
        v = rng.standard_normal(2 * blocks)
        v /= np.linalg.norm(v)
        want = inst.orbit(t, v)
        for _ in range(r):
            want = inst.generator(want)
        got, cert = _local_orbit(BernsteinVector(inst, v, sigma), r, t, tol, None)
        assert cert <= tol
        assert float(np.linalg.norm(got - want)) <= cert

    @pytest.mark.parametrize("sigma", [1.0, 2.0, 2.5])
    def test_lattice_nodes_exact_with_one_fetch(self, sigma):
        inst, times = counting_instance(sigma)
        v = unit_vector()
        b = BernsteinVector(inst, v, sigma)
        for k in (-3, 0, 1, 4, 17):
            t = k * PI / sigma
            for kw in ({"tol": 1e-9}, {"k_terms": 4096}):
                times.clear()
                got = orbit_reconstruct(b, t, **kw)
                assert times == [t], (k, kw)
                assert np.array_equal(got, inst.orbit(t, v)), (k, kw)

    def test_rounding_floor_raises_achievable(self):
        inst = rotation_instance([2.5])
        b = BernsteinVector(inst, unit_vector(), 2.5)
        with pytest.raises(ToleranceError) as info:
            group_boas(b, 3, tol=1e-14)
        achievable = info.value.achievable
        assert 1e-14 < achievable < 1e-8
        assert f"achievable tol {achievable:.3e}" in str(info.value)
        got = group_boas(b, 3, tol=achievable)
        want = inst.generator(inst.generator(inst.generator(b.v)))
        assert np.linalg.norm(got - want) <= achievable
        with pytest.raises(ToleranceError):
            orbit_reconstruct(b, 0.7, tol=1e-16)

    def test_rejects_bad_sizes(self):
        b = BernsteinVector(rotation_instance([1.0]), unit_vector(), 1.0)
        with pytest.raises(ValueError):
            orbit_reconstruct(b, 0.7, k_terms=0)
        with pytest.raises(ValueError):
            group_boas(b, 2, tol=0.0)


class TestPaperSeriesOracle:
    """The local engine against the paper's critical-lattice series."""

    @pytest.mark.parametrize("rates", [[1.0], [2.5], list(np.linspace(0.5, 2.5, 8))])
    def test_orbit_reconstruct(self, rates):
        inst = rotation_instance(rates)
        v = np.ones(2 * len(rates)) / math.sqrt(2 * len(rates))
        sigma = max(rates)
        b = BernsteinVector(inst, v, sigma)
        for t in (0.3, 0.7, 1.9):
            want = paper_orbit_reconstruct(b, t, 4096)
            budget = paper_orbit_budget(sigma, t, 4096)
            for kw in ({"tol": 1e-9}, {"k_terms": 4096}):
                got = orbit_reconstruct(b, t, **kw)
                assert np.linalg.norm(got - want) <= budget + 1e-9, (t, kw)

    @pytest.mark.parametrize("rates", [[1.0], [2.5], list(np.linspace(0.5, 2.5, 8))])
    def test_group_boas(self, rates):
        inst = rotation_instance(rates)
        v = np.ones(2 * len(rates)) / math.sqrt(2 * len(rates))
        sigma = max(rates)
        b = BernsteinVector(inst, v, sigma)
        for r in (1, 2, 3):
            want = paper_group_boas(b, r, 4096)
            budget = paper_group_boas_budget(sigma, r, 4096)
            for kw in ({"tol": 1e-8}, {"k_terms": 4096}):
                got = group_boas(b, r, **kw)
                assert np.linalg.norm(got - want) <= budget + 1e-8, (r, kw)


class TestDhtThroughGenericEngine:
    def test_orbit_reconstruct_matches_closed_form(self):
        inst = dht_instance(expand=192)
        a = SeqWindow(n0=-2, values=np.array([0.5, -1.0, 2.0, 0.25, -0.75]))
        b = BernsteinVector(inst, a, PI)
        t = 0.4
        got = orbit_reconstruct(b, t, k_terms=96)
        want = hilbert_group(t, a, expand=192)
        lo = max(got.n0, want.n0)
        ln = min(got.n_last, want.n_last) - lo + 1
        diff = np.max(np.abs(got.on_range(lo, ln) - want.on_range(lo, ln)))
        assert diff < 1e-4

    def test_group_boas_matches_operator(self):
        from bandlimit.dht import hilbert_apply
        inst = dht_instance(expand=160)
        a = SeqWindow(n0=-1, values=np.array([1.0, -0.5, 0.25]))
        b = BernsteinVector(inst, a, PI)
        got = group_boas(b, 1, k_terms=64)
        want = hilbert_apply(a, expand=160)
        lo, ln = -80, 161
        diff = np.max(np.abs(got.on_range(lo, ln) - want.on_range(lo, ln)))
        assert diff < 1e-3

    def test_exponential_type_on_window(self):
        a = SeqWindow(n0=-1, values=np.array([1.0, -0.5, 0.25]))
        est = exponential_type(dht_instance(64), a, k_max=8)
        assert len(est.sequence) == 8
        # ||H a|| < pi ||a||, and the windowed iterates stay below it
        assert 0.0 < est.sequence[0] < est.estimate < PI

    def test_recover_initial_without_norm(self):
        a = SeqWindow(n0=-1, values=np.array([1.0, -0.5, 0.25]))
        samples = OrbitSamples.from_bernstein(BernsteinVector(dht_instance(64), a, PI), 0.4)
        out = recover_initial(samples, tol=1e-2)
        sized = recover_initial(samples, tol=1e-2, norm=lambda v: v.norm())
        assert np.array_equal(out.values, sized.values) and out.n0 == sized.n0
        assert np.max(np.abs(out.on_range(a.n0, len(a)) - a.values)) < 1e-2
