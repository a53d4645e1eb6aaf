import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bandlimit.grouporbit as grouporbit
import bandlimit.sinckernel as sinckernel
from bandlimit.dht import SeqWindow, dht_instance, hilbert_group, pairing_check
from bandlimit.errors import ToleranceError
from bandlimit.grouporbit import (
    BernsteinVector,
    GroupInstance,
    OrbitSamples,
    _initial,
    _trajectory,
    exponential_type,
    group_boas,
    orbit_reconstruct,
    orbit_vt,
    recover_initial,
    rotation_instance,
)
from bandlimit.sinckernel import (
    _snap_grid,
    coefficient_tail_bound,
    regularized_sinc_grid,
    sinc,
    sinc_grid,
)
from paper_boas import boas_coefficient, boas_coefficient_grid

PI = math.pi


def snap_integer(u):
    """u on the nearest integer when it differs from it only by rounding."""
    return float(_snap_grid(np.float64(u)))


# ---------------------------------------------------------------------------
# the paper's critical-lattice series for the trajectory, the initial value
# and D^r f, as the library summed them before the local orbit engine:
# Richardson over the half-widths K/2 and K; a test oracle
# ---------------------------------------------------------------------------

def _shells(K):
    """Shell indices 1..K, with K raised to an even number >= 2 so that the
    Richardson snapshot falls after shell K/2."""
    K = max(2, int(K))
    return np.arange(1, K + K % 2 + 1)


def _orbit_series(head, fetch, times, weights):
    """head + Richardson-extrapolated orbit series.

    Row k - 1 of ``times`` and ``weights`` is shell k: the two points it
    pairs (lattice indices k and -k, as orbit times or as arguments of
    ``fetch``) and their weights.  Each point is fetched once, outward from
    the center, and w * fetch(point) accumulated; the partial sum S_(K/2)
    after the first half of the shells feeds 2 S_K - S_(K/2).
    """
    half = times.size // 2
    acc = snap = None
    pairs = zip(times.ravel().tolist(), weights.ravel().tolist())
    for j, (s, w) in enumerate(pairs, 1):
        term = w * fetch(s)
        acc = term if acc is None else acc + term
        if j == half:
            snap = acc
    return 2.0 * (head + acc) - (head + snap)


def _critical_lattice(u, K):
    ks = _shells(max(K, 2 * (abs(int(round(u))) + 2)))
    return np.column_stack((ks, -ks))


def paper_orbit_reconstruct(b, t, K):
    """e^(tD)f = f + t sinc(u) Df
    + t sum_{k!=0} (e^((k pi/s)D)f - f) / (k pi/s) * sinc(u - k)."""
    inst, v, sigma = b.instance, b.v, b.sigma
    u = snap_integer(sigma * t / PI)
    lattice = _critical_lattice(u, K)
    times = lattice * (PI / sigma)
    weights = t * sinc_grid(u - lattice) / times
    head = v + (t * sinc(u)) * inst.generator(v)
    return _orbit_series(head, lambda s: inst.orbit(s, v) - v, times, weights)


def paper_orbit_vt(b, t, K):
    """Bounded-vector expansion: e^(tD)f = sinc(u) (f + t Df)
    + sum_{k!=0} (u/k) sinc(u - k) e^((k pi/s)D)f."""
    inst, v, sigma = b.instance, b.v, b.sigma
    u = snap_integer(sigma * t / PI)
    lattice = _critical_lattice(u, K)
    weights = (u / lattice) * sinc_grid(u - lattice)
    head = sinc(u) * (v + t * inst.generator(v))
    return _orbit_series(head, lambda s: inst.orbit(s, v), lattice * (PI / sigma), weights)


def paper_recover_initial(b, t, K):
    """f = e^(tD)f - t sinc(u) e^(tD)Df
    - t sum_{k!=0} (e^((k pi/s + t)D)f - e^(tD)f) / (k pi/s) * sinc(u + k)."""
    inst, v, sigma = b.instance, b.v, b.sigma
    u = snap_integer(sigma * t / PI)
    f_t = inst.orbit(t, v)
    lattice = _critical_lattice(u, K)
    weights = -t * sinc_grid(u + lattice) / (lattice * (PI / sigma))
    head = f_t - (t * sinc(u)) * inst.orbit(t, inst.generator(v))
    return _orbit_series(head, lambda k: inst.orbit(k * (PI / sigma) + t, v) - f_t,
                         lattice, weights)


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
    def test_is_orbit_reconstruct(self):
        assert orbit_vt is orbit_reconstruct

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

    def test_extreme_rates(self):
        # h = pi/(2 sigma): h^3 = 3.9e360 overflowed (OverflowError), where
        # Bernstein bounds D^3 f by sigma^3 ||f||; h^2 = 2.5e-400 reached
        # numpy's divide as 0.0 (RuntimeWarning), and refuses
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tiny = BernsteinVector(rotation_instance([1e-120]), unit_vector(), 1e-120)
            assert np.array_equal(group_boas(tiny, 3, tol=1e-6), np.zeros(2))
            assert _trajectory(tiny, 3, 0.0, 1e-6, None)[1] == 1e-120 ** 3 * 1.0
            huge = BernsteinVector(rotation_instance([1e200]), unit_vector(), 1e200)
            with pytest.raises(ToleranceError, match=r"order 2 at step h = 1\.57.*e-200"):
                group_boas(huge, 2)
            with pytest.raises(ToleranceError, match=r"order 2 at step h"):
                group_boas(huge, 2, k_terms=8)


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

    def test_generator_annihilates(self):
        # D v = 0: the rate is 0, and every later estimate in the trace too
        inst = GroupInstance(orbit=lambda t, v: v, generator=lambda v: 0.0 * v,
                             norm=lambda v: float(np.linalg.norm(v)), sigma_bound=0.0)
        est = exponential_type(inst, unit_vector(), k_max=5)
        assert est.estimate == 0.0 and est.sequence == [0.0] * 5

    def test_zero_vector_rejected(self):
        inst = rotation_instance([1.0])
        with pytest.raises(ValueError):
            exponential_type(inst, np.zeros(2), k_max=5)


def growth_holds(b, depth, rtol=1e-9):
    """An estimate, not a certificate: ||D^k v|| <= sigma^k ||v|| for
    k <= depth only, so True does not certify the rate sigma."""
    inst = b.instance
    base = inst.norm(b.v)
    w = b.v
    for k in range(1, depth + 1):
        w = inst.generator(w)
        if inst.norm(w) > b.sigma ** k * base * (1.0 + rtol):
            return False
    return True


class TestEquivalenceSuite:
    def test_three_conditions_together(self):
        # growth bounds, operator reconstruction, and the rate estimator agree
        sigma = 2.0
        inst = rotation_instance([sigma])
        b = BernsteinVector(inst, unit_vector(), sigma)
        assert growth_holds(b, depth=10)
        d1 = group_boas(b, 1, k_terms=4096)
        assert np.max(np.abs(d1 - inst.generator(b.v))) < 1e-6
        est = exponential_type(inst, b.v, k_max=60)
        assert est.estimate == pytest.approx(sigma, abs=1e-6)

    def test_undersized_certificate_fails_validation(self):
        inst = rotation_instance([2.0])
        b = BernsteinVector(inst, unit_vector(), 1.0)  # declared below true rate
        assert not growth_holds(b, depth=4)


def counting_instance(sigma):
    """A rotation group that records every orbit time it is asked for."""
    times = []
    inst = rotation_instance([sigma])

    def orbit(t, v):
        times.append(float(t))
        return inst.orbit(t, v)

    return dataclasses.replace(inst, orbit=orbit), times


def held(b):
    """The lattice indices whose samples the block of b holds, a
    BernsteinVector or OrbitSamples (index n for at(n/2))."""
    if b._block is None:
        return set()
    lo, _, have = b._block
    return set((lo + np.flatnonzero(have)).tolist())


def kept_support(r, u, N, h):
    """Samples the local orbit engine keeps at half-width N: the smallest
    |w| go while their running sum stays at or below 2^-53 sum |w|."""
    u = snap_integer(u)
    d = (u - round(u)) - np.arange(-N, N + 1)
    w = np.abs(regularized_sinc_grid(r, d, N, PI / 4) / h ** r)
    run = np.cumsum(np.sort(w))
    return w.size - int(np.count_nonzero(run <= 2.0 ** -53 * run[-1]))


class TestOrbitFetches:
    SIGMA, T = 2.0, 0.7

    def check_fetches(self, calls, times, N):
        """Each call fetches its kept support, every time once."""
        h = PI / (2.0 * self.SIGMA)
        for (name, r, u), call in calls.items():
            times.clear()
            call()
            want = kept_support(r, u / h, N, h)
            assert len(times) == len(set(times)) == want, (name, r, N)
            # at most the 2N+1 window; odd orders weigh the center 0
            assert want <= 2 * N + 1 - r % 2
            if N == 4096:
                assert want < 1000, (name, r)

    @pytest.mark.parametrize("k_terms", [64, 63, 4096])
    def test_each_entry_point_fetches_2k_distinct_times(self, k_terms):
        # the former critical-lattice entry points now read the local engine
        # window of 2K+1 samples; orbit_reconstruct and group_boas are the
        # next test
        inst, times = counting_instance(self.SIGMA)
        b = BernsteinVector(inst, unit_vector(), self.SIGMA)
        samples = OrbitSamples.from_bernstein(b, self.T)
        self.check_fetches({
            ("orbit_vt", 0, self.T): lambda: orbit_vt(b, self.T, k_terms=k_terms),
            ("recover_initial", 0, -self.T):
                lambda: recover_initial(samples, k_terms=k_terms),
        }, times, k_terms)

    def check_memo(self, b, times, call, t):
        """call on a fresh vector fetches each kept sample once; on b, whose
        memo is as earlier calls left it, it fetches exactly the samples the
        memo lacks, plus the node at t, which is fetched outside the memo.
        Returns the fresh vector's fetch count."""
        h = PI / 2.0 / b.sigma
        times.clear()
        call(dataclasses.replace(b))  # a new, empty memo
        fresh = set(times)
        assert len(times) == len(fresh)
        node = fresh & {t} if (t / h).is_integer() else set()
        done = {n * h for n in held(b)}  # sample n is fetched at n h
        times.clear()
        call(b)
        assert sorted(times) == sorted((fresh - done) | node)
        return len(fresh)

    @pytest.mark.parametrize("N", [63, 64, 4096])
    def test_local_engine_fetches_each_nonzero_weight_once(self, N):
        inst, times = counting_instance(self.SIGMA)
        b = BernsteinVector(inst, unit_vector(), self.SIGMA)
        h = PI / (2.0 * self.SIGMA)
        calls = [(0, self.T, lambda b: orbit_reconstruct(b, self.T, k_terms=N)),
                 *((r, 0.0, lambda b, r=r: group_boas(b, r, k_terms=N)) for r in (1, 2, 3)),
                 (0, self.T, lambda b: orbit_reconstruct(b, self.T, k_terms=N))]
        for r, t, call in calls:
            want = kept_support(r, t / h, N, h)
            assert self.check_memo(b, times, call, t) == want, (r, N)
            # at most the 2N+1 window; odd orders weigh the center 0
            assert want <= 2 * N + 1 - r % 2
            if N == 4096:
                assert want < 1000, r
        # the last call repeats the first: its samples were all remembered
        assert times == []

    def test_tolerance_driven_fetches(self):
        inst, times = counting_instance(2.5)
        b = BernsteinVector(inst, unit_vector(), 2.5)
        for r in (1, 2, 3):
            call = lambda b, r=r: group_boas(b, r, tol=1e-6)
            assert 20 < self.check_memo(b, times, call, 0.0) < 120, r

    @pytest.mark.parametrize("tol, most", [(1e-6, 46), (1e-10, 68)])
    def test_trajectory_on_a_time_grid(self, tol, most):
        # 101 times on [0, 10], sigma 1: every lattice time is fetched once,
        # and the node t = 0 once more, outside the memo; when each call
        # fetched its own samples, this made 3 693 and 5 965 fetches
        base = rotation_instance([0.3, 0.7, 1.0, 0.5])
        times = []

        def orbit(t, v):
            times.append(t)
            return base.orbit(t, v)

        v = np.full(8, 0.5) / math.sqrt(2.0)  # a unit vector
        b = BernsteinVector(dataclasses.replace(base, orbit=orbit), v, 1.0)
        ts = np.linspace(0.0, 10.0, 101).tolist()
        lattice = set()
        for t in ts:
            orbit_reconstruct(dataclasses.replace(b), t, tol=tol)
            lattice.update(times)
        times.clear()
        for t in ts:
            orbit_reconstruct(b, t, tol=tol)
        assert set(times) == lattice
        assert len(times) == len(lattice) + 1 <= most


class TestSampleMemo:
    """A BernsteinVector remembers the samples the engine stacks, one per
    lattice index: the same bits whatever it holds, at most as many as the
    widest band it has summed."""

    @staticmethod
    def calls(b):
        return [lambda: orbit_reconstruct(b, 0.7, k_terms=4096),
                lambda: orbit_vt(b, -1.9, tol=1e-9),
                lambda: orbit_reconstruct(b, 3 * PI / 2.5, tol=1e-6),  # a node
                lambda: orbit_reconstruct(b, 0.7 + 1e-9, tol=1e-6),
                *(lambda r=r: group_boas(b, r, k_terms=4096) for r in (1, 2, 3)),
                *(lambda r=r: group_boas(b, r, tol=1e-6) for r in (1, 2, 3))]

    def test_bit_identical_whatever_the_memo_holds(self):
        b = BernsteinVector(rotation_instance(np.linspace(0.5, 2.5, 8)), np.full(16, 0.25), 2.5)
        n = len(self.calls(b))
        want = [self.calls(dataclasses.replace(b))[i]().tobytes() for i in range(n)]
        for order in (range(n), range(n - 1, -1, -1), [3, 7, 0, 9, 1, 5, 2, 8, 4, 6]):
            calls = self.calls(dataclasses.replace(b))
            for _ in range(2):  # the memo filling, then full
                for i in order:
                    assert calls[i]().tobytes() == want[i], i

    def test_group_refilling_one_buffer(self):
        # the memo keeps a copy of each sample: an orbit that returns one
        # buffer, refilled per call, leaves every remembered sample intact
        base = rotation_instance(np.linspace(0.5, 2.5, 8))
        out = np.empty(16)

        def orbit(t, v):
            out[:] = base.orbit(t, v)
            return out

        shared = BernsteinVector(dataclasses.replace(base, orbit=orbit), np.full(16, 0.25), 2.5)
        want = [call().tobytes() for call in self.calls(dataclasses.replace(shared, instance=base))]
        for _ in range(2):
            assert [call().tobytes() for call in self.calls(shared)] == want

    def test_memo_never_holds_more_than_the_widest_band(self):
        # times marching away from 0 and back, at tol-sized and pinned N:
        # after each call the memo holds that call's samples and at most as
        # many as the widest band summed so far, and the indices it dropped
        # lie farther from n0 than every index it kept
        inst, times = counting_instance(1.0)
        b = BernsteinVector(inst, unit_vector(), 1.0)
        h = PI / 2.0
        widest, dropped, moved = 0, 0, 0
        for t, kw in [(0.3, {"tol": 1e-6}), (20.0, {"tol": 1e-6}), (40.0, {"tol": 1e-3}),
                      (0.3, {"tol": 1e-6}), (5.0, {"k_terms": 64}), (5.0, {"tol": 1e-6}),
                      (90.0, {"tol": 1e-9}), (0.3, {"k_terms": 4096})]:
            times.clear()
            orbit_reconstruct(dataclasses.replace(b), t, **kw)
            kept = {round(s / h) for s in times}
            n0 = round(t / h)
            widest = max(widest, 2 * max(abs(n - n0) for n in kept) + 1)
            before, block = held(b), b._block
            orbit_reconstruct(b, t, **kw)
            after = held(b)
            assert kept <= after and len(after) <= len(b._block[2]) <= widest, t
            if b._block is not block:  # re-centred on n0
                moved += 1
                assert b._block[0] + len(b._block[2]) // 2 == n0, t
            if before - after:
                dropped += 1
                assert (min(abs(n - n0) for n in before - after)
                        >= max(abs(n - n0) for n in after)), t
        assert dropped and moved

    def test_large_vectors_and_windows_are_not_remembered(self):
        big = BernsteinVector(rotation_instance(np.linspace(0.5, 2.5, 65)), np.full(130, 0.1), 2.5)
        orbit_reconstruct(big, 0.7, tol=1e-6)
        a = SeqWindow(n0=-2, values=np.array([0.5, -1.0, 2.0, 0.25, -0.75]))
        window = BernsteinVector(dht_instance(expand=64), a, PI)
        orbit_reconstruct(window, 0.7, k_terms=48)
        assert big._block is None and window._block is None

    def test_a_full_block_is_gathered_as_one_array(self, monkeypatch):
        # once the block holds a call's samples, the call hands the sum one
        # array of them, node included, which it copies into its stack whole
        b = BernsteinVector(rotation_instance(np.linspace(0.5, 2.5, 8)), np.full(16, 0.25), 2.5)
        calls = [lambda: orbit_reconstruct(b, 0.7, k_terms=4096),
                 lambda: orbit_vt(b, -1.9, k_terms=4096),
                 lambda: group_boas(b, 2, k_terms=4096),  # a node at t = 0
                 lambda: group_boas(b, 3, k_terms=4096)]
        want = [call().tobytes() for call in calls]
        seen = []

        def spy(zero, w, samples):
            seen.append(type(samples) is np.ndarray and samples.dtype is zero.dtype
                        and samples.shape == (len(w),) + zero.shape and len(w) > 700)
            return weighted_sum(zero, w, samples)

        weighted_sum = grouporbit._weighted_sum
        monkeypatch.setattr(grouporbit, "_weighted_sum", spy)
        assert [call().tobytes() for call in calls] == want
        assert seen == [True] * len(calls)

    def test_initial_samples_are_gathered_as_one_array(self, monkeypatch):
        # recover_initial fills one array with the samples of a stacked
        # f_t, which the sum scales into its stack whole
        b = BernsteinVector(rotation_instance(np.linspace(0.5, 2.5, 8)), np.full(16, 0.25), 2.5)
        samples = OrbitSamples.from_bernstein(b, 0.7)
        calls = [lambda: recover_initial(samples, k_terms=4096),
                 lambda: recover_initial(samples, tol=1e-6)]
        want = [call().tobytes() for call in calls]
        seen = []

        def spy(zero, w, xs):  # the number of samples in one array, else 0
            seen.append(len(w) if type(xs) is np.ndarray and xs.dtype is zero.dtype
                        and xs.shape == (len(w),) + zero.shape else 0)
            return weighted_sum(zero, w, xs)

        weighted_sum = grouporbit._weighted_sum
        monkeypatch.setattr(grouporbit, "_weighted_sum", spy)
        assert [call().tobytes() for call in calls] == want
        assert len(seen) == 2 and seen[0] > 700 and seen[1] > 20, seen

    @pytest.mark.parametrize("kind", ["float32", "shape", "list"])
    def test_samples_that_do_not_fit_are_not_held(self, kind):
        # an orbit that returns, at every fifth lattice time, a float32
        # array, an array of another shape or a list: those samples are
        # added one by one, as the engine adds them unheld, and never held
        base = rotation_instance(np.linspace(0.5, 2.5, 8))
        h = PI / 2.0 / 2.5

        def misfit(x):
            return {"float32": x.astype(np.float32), "shape": x.reshape(1, -1),
                    "list": x.tolist()}[kind]

        def orbit(t, v):
            x = base.orbit(t, v)
            return x if round(t / h) % 5 else misfit(x)

        b = BernsteinVector(dataclasses.replace(base, orbit=orbit), np.full(16, 0.25), 2.5)

        def one_by_one(r, t, kw):
            # the sum of each sample fetched as it is drawn, at n h or, a node, at t
            samples = lambda ns, dts: (orbit(t if dt == 0.0 else n * h, b.v)
                                       for n, dt in zip(ns.tolist(), dts.tolist()))
            return grouporbit._orbit_sum(samples, 0.0 * b.v, 1.0, r, t, 2.5, kw.get("tol"),
                                         kw.get("k_terms"))[0]

        def outcome(call):
            try:
                x = call()
            except TypeError as exc:  # a list times a weight, as unheld
                return str(exc)
            return x.shape, x.dtype, x.tobytes()

        cases = [(0, 0.7, {"k_terms": 4096}), (0, 3 * PI / 5, {"tol": 1e-6}),  # a node
                 (2, 0.0, {"k_terms": 4096}), (1, 0.0, {"tol": 1e-6})]
        raised = set()
        for _ in range(2):  # the block filling, then holding what fits
            for r, t, kw in cases:
                want = outcome(lambda: one_by_one(r, t, kw))
                got = outcome(lambda: grouporbit._trajectory(b, r, t, kw.get("tol"),
                                                             kw.get("k_terms"))[0])
                assert got == want, (r, t)
                if isinstance(got, str):
                    raised.add((r, t))
        assert len(raised) == (3 if kind == "list" else 0)
        assert held(b) and not any(n % 5 == 0 for n in held(b))

        # recover_initial, whose at(k) misfits at every fifth lattice index
        # n = 2k: the sum of each sample fetched as it is drawn, from base
        # time t (at t = 0 the one sample, n = 0, is a misfit)
        raised.clear()
        for t, kw in [(0.7, {"k_terms": 4096}), (0.7, {"tol": 1e-6}), (0.0, {"tol": 1e-6})]:
            def at(k, t=t):
                x = base.orbit(k * 2.0 * h + t, b.v)
                return x if round(2 * k) % 5 else misfit(x)

            f_t = base.orbit(t, b.v)
            loop = lambda ns, dts: (at(n / 2) for n in ns.tolist())
            want = outcome(lambda: grouporbit._orbit_sum(
                loop, 0.0 * f_t, float(np.linalg.norm(f_t)), 0, -t, 2.5, kw.get("tol"),
                kw.get("k_terms"))[0])
            got = outcome(lambda: recover_initial(OrbitSamples(2.5, t, f_t, at), **kw))
            assert got == want, (t, kw)
            if isinstance(got, str):
                raised.add((t, str(kw)))
        assert len(raised) == (3 if kind == "list" else 0)

        # from_bernstein, whose orbit misfits at every fifth index n of
        # the samples at(n/2) around base time t, f_t (n = 0) fitting: the
        # block holds at most the samples fetched before the first misfit,
        # and never a misfit
        raised.clear()
        for t, kw in [(0.7, {"k_terms": 4096}), (0.7, {"tol": 1e-6}), (-1.9, {"tol": 1e-10})]:
            def around(s, v, t=t):
                x = base.orbit(s, v)
                return x if round((s - t) / h) % 5 != 1 else misfit(x)

            b = BernsteinVector(dataclasses.replace(base, orbit=around), np.full(16, 0.25), 2.5)
            loop = lambda ns, dts: (around(n / 2 * (PI / 2.5) + t, b.v) for n in ns.tolist())
            want = outcome(lambda: grouporbit._orbit_sum(
                loop, 0.0 * b.v, float(np.linalg.norm(b.v)), 0, -t, 2.5, kw.get("tol"),
                kw.get("k_terms"))[0])
            for _ in range(2):  # the block filling, then holding what fits
                samples = OrbitSamples.from_bernstein(b, t)
                got = outcome(lambda: recover_initial(samples, **kw))
                assert got == want, (t, kw)
            if isinstance(got, str):
                raised.add((t, str(kw)))
            assert samples._block is not None and not any(n % 5 == 1 for n in held(samples))
        assert len(raised) == (3 if kind == "list" else 0)

    def test_threads_sharing_one_vector(self, monkeypatch):
        # orbit is pure, so threads that share a vector, and its memo,
        # return the bits of a fresh vector; recover_initial at three base
        # times, with a table of two, drops a base time while other threads
        # read the table
        import sys
        import threading

        b = BernsteinVector(rotation_instance(np.linspace(0.5, 2.5, 8)), np.full(16, 0.25), 2.5)
        ts = np.linspace(-30.0, 30.0, 41).tolist()
        bases = [0.3, 0.7, 1.9]
        want = {t: orbit_reconstruct(dataclasses.replace(b), t, tol=1e-9).tobytes() for t in ts}
        want.update({("base", t): recover_initial(by_hand(b, t), k_terms=4096).tobytes()
                     for t in bases})
        monkeypatch.setattr(grouporbit, "_BASES_HELD", 2)
        bad = []

        def work(k):
            for i, t in enumerate(ts[k::2] + ts[::-1]):
                try:
                    if orbit_reconstruct(b, t, tol=1e-9).tobytes() != want[t]:
                        bad.append(t)
                    base = bases[(i + k) % 3]
                    got = recover_initial(OrbitSamples.from_bernstein(b, base), k_terms=4096)
                    if got.tobytes() != want["base", base]:
                        bad.append(("base", base))
                except Exception as exc:  # noqa: BLE001 - a thread's error is the finding
                    bad.append(repr(exc))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(k % 2,)) for k in range(4)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        assert bad == []
        assert len({s.t for s in b._bases}) == len(b._bases) <= 2  # each base time once


def phase_instance(rates):
    """A diagonal unitary group on complex vectors: entry j turns by the
    angle rates[j] t, so every vector has rate max |rates|."""
    lam = np.asarray(rates, dtype=float)
    return GroupInstance(orbit=lambda t, v: np.exp(1j * lam * float(t)) * v,
                         generator=lambda v: 1j * lam * v,
                         norm=lambda v: float(np.linalg.norm(v)),
                         sigma_bound=float(np.max(np.abs(lam))), dim=lam.size)


def turn(t, v):
    """The rate-1 rotation of the plane, a module-level function that pickles."""
    c, s = math.cos(t), math.sin(t)
    return np.array([c * v[0] - s * v[1], s * v[0] + c * v[1]])


def quarter_turn(v):
    return np.array([-v[1], v[0]])


def euclidean(v):
    return float(np.linalg.norm(v))


def by_hand(b, t):
    """OrbitSamples of b around t with from_bernstein's at, built anew: a
    block of their own, shared with nothing."""
    inst, v, step = b.instance, b.v, PI / b.sigma
    return OrbitSamples(b.sigma, t, inst.orbit(t, v), lambda k: inst.orbit(k * step + t, v))


class TestBaseTimeSamples:
    """OrbitSamples hold their samples in a block, and from_bernstein hands
    back the ones a vector made for the same base time: the bits of samples
    built anew, with no orbit call once held, and at most _BASES_HELD base
    times per vector."""

    SIZES = [{"k_terms": 16}, {"k_terms": 64}, {"k_terms": 4096},
             {"tol": 1e-6}, {"tol": 1e-10}]

    @staticmethod
    def outcome(call):
        try:
            x = call()
        except ToleranceError as exc:
            return str(exc)
        return x.dtype, x.tobytes()

    @pytest.mark.parametrize("group", ["1 block", "8 blocks", "complex"])
    def test_bit_identical_to_samples_built_anew(self, group):
        # cold, warm, re-centred as N grows and, on the second round, after
        # the table dropped the base time: every output has the bits of
        # samples built by hand, with no shared block
        inst, v, sigma = {
            "1 block": (rotation_instance([1.0]), unit_vector(), 1.0),
            "8 blocks": (rotation_instance(np.linspace(0.5, 2.5, 8)), np.full(16, 0.25), 2.5),
            "complex": (phase_instance(np.linspace(-2.5, 2.5, 8)),
                        np.linspace(0.1, 0.8, 8) * np.exp(1j * np.arange(8)), 2.5),
        }[group]
        b = BernsteinVector(inst, v, sigma)
        h = PI / 2.0 / sigma
        ts = [0.3, 0.7, 1.9, -2.2, 0.0, -0.0, 3 * h, 1e15]
        want = {(t.hex(), i): self.outcome(lambda: recover_initial(by_hand(b, t), **kw))
                for t in ts for i, kw in enumerate(self.SIZES)}  # hex: -0.0 is not 0.0
        made = {}
        for _ in range(2):
            for t in ts:
                for i, kw in enumerate(self.SIZES):
                    samples = OrbitSamples.from_bernstein(b, t)
                    assert samples.t.hex() == t.hex()
                    made.setdefault(t.hex(), []).append(samples)  # kept: no id reused
                    for _ in range(2):  # filling, then held
                        got = self.outcome(lambda: recover_initial(samples, **kw))
                        assert got == want[t.hex(), i], (t, kw)
                assert held(samples), t
        # one OrbitSamples a round per base time: the second round's were
        # dropped by the first, and made anew
        assert all(len({id(s) for s in kept}) == 2 for kept in made.values())
        assert len(b._bases) == grouporbit._BASES_HELD and b._block is None

    def test_held_samples_make_no_orbit_call(self):
        inst, times = counting_instance(2.5)
        b = BernsteinVector(inst, unit_vector(), 2.5)
        for t, kw in [(0.7, {"k_terms": 4096}), (0.7, {"tol": 1e-10}),
                      (3 * PI / 5, {"tol": 1e-6})]:  # a lattice time: its node alone
            recover_initial(OrbitSamples.from_bernstein(b, t), **kw)
            times.clear()
            recover_initial(OrbitSamples.from_bernstein(b, t), **kw)
            assert times == []
        assert OrbitSamples.from_bernstein(b, 0.0) is not OrbitSamples.from_bernstein(b, -0.0)

    def test_replace_starts_anew(self):
        inst, times = counting_instance(2.5)
        b = BernsteinVector(inst, unit_vector(), 2.5)
        samples = OrbitSamples.from_bernstein(b, 0.7)
        recover_initial(samples, k_terms=4096)
        # samples with another at read that at, and none of the held samples
        rot, ks = rotation_instance([2.5]), []

        def other(k):
            ks.append(k)
            return -rot.orbit(k * PI / 2.5 + 0.7, samples.f_t)

        times.clear()
        got = recover_initial(dataclasses.replace(samples, at=other), k_terms=4096)
        assert times == [] and len(ks) > 700
        want = recover_initial(OrbitSamples(2.5, 0.7, samples.f_t, other), k_terms=4096)
        assert got.tobytes() == want.tobytes()
        # a replaced vector keeps no base time of its own
        fresh = dataclasses.replace(b)
        assert fresh._bases == () and fresh._block is None
        times.clear()
        assert OrbitSamples.from_bernstein(fresh, 0.7) is not samples
        assert times == [0.7]  # its f_t

    def test_table_keeps_the_last_base_times(self):
        inst, times = counting_instance(1.0)
        b = BernsteinVector(inst, unit_vector(), 1.0)
        ts = np.linspace(-3.0, 3.0, 3 * grouporbit._BASES_HELD).tolist()
        for t in ts:
            recover_initial(OrbitSamples.from_bernstein(b, t), tol=1e-6)
            assert len(b._bases) <= grouporbit._BASES_HELD
        assert [s.t for s in b._bases] == ts[-grouporbit._BASES_HELD:]
        times.clear()
        recover_initial(OrbitSamples.from_bernstein(b, ts[-1]), tol=1e-6)
        assert times == []
        recover_initial(OrbitSamples.from_bernstein(b, ts[0]), tol=1e-6)  # dropped
        assert times and [s.t for s in b._bases][-1] == ts[0]

    def test_a_vector_holding_base_times_pickles(self):
        import pickle

        b = BernsteinVector(GroupInstance(turn, quarter_turn, euclidean, 1.0, 2), unit_vector(), 1.0)
        want = recover_initial(OrbitSamples.from_bernstein(b, 0.3), k_terms=64).tobytes()
        copy = pickle.loads(pickle.dumps(b))
        assert [s.t for s in copy._bases] == [0.3]
        assert recover_initial(OrbitSamples.from_bernstein(copy, 0.3), k_terms=64).tobytes() == want

    def test_base_times_never_touch_the_vector_block(self):
        inst, times = counting_instance(1.0)
        b = BernsteinVector(inst, unit_vector(), 1.0)
        for t in (0.3, 0.0, 2 * PI / 2.0):  # 0.0 and a lattice time read lattice rows
            recover_initial(OrbitSamples.from_bernstein(b, t), k_terms=4096)
        assert b._block is None
        orbit_reconstruct(b, 0.3, k_terms=4096)
        block = b._block
        rows = block[1].copy()
        for t in (0.3, 0.0, 5.0):
            recover_initial(OrbitSamples.from_bernstein(b, t), k_terms=4096)
        assert b._block is block and np.array_equal(block[1], rows)

    def test_two_first_reads_of_one_base_time_keep_one(self):
        # a second read of t that starts and ends while the first fetches
        # f_t, as a thread may: the first returns the samples the second
        # kept, and the table holds t once
        inst = rotation_instance([1.0])
        inner = []

        def orbit(t, v):
            if not inner:
                inner.append(None)  # the second read's own f_t goes straight through
                inner[0] = OrbitSamples.from_bernstein(b, 0.3)
            return inst.orbit(t, v)

        b = BernsteinVector(dataclasses.replace(inst, orbit=orbit), unit_vector(), 1.0)
        assert OrbitSamples.from_bernstein(b, 0.3) is inner[0]
        assert b._bases == (inner[0],)

    @pytest.mark.parametrize("kind", ["130 entries", "float32"])
    def test_samples_the_engine_does_not_stack_are_not_kept(self, kind):
        # no block to share: each read builds its own samples, as before,
        # and the vector keeps none
        if kind == "130 entries":
            inst, v = rotation_instance(np.linspace(0.5, 2.5, 65)), np.full(130, 0.1)
        else:
            base = rotation_instance(np.linspace(0.5, 2.5, 8))
            inst = dataclasses.replace(base, orbit=lambda t, v: base.orbit(t, v).astype(np.float32))
            v = np.full(16, 0.1)
        b = BernsteinVector(inst, v, 2.5)
        first, second = (OrbitSamples.from_bernstein(b, 0.7) for _ in range(2))
        assert first is not second and b._bases == ()
        got = recover_initial(first, tol=1e-6)
        assert got.tobytes() == recover_initial(by_hand(b, 0.7), tol=1e-6).tobytes()
        assert first._block is None


class TestSampleContract:
    """A sample supports float * x and x + y; one that does not is named."""

    def test_a_list_sample_is_named(self):
        base = rotation_instance([0.5, 2.5])
        v = np.array([0.8, -0.6, 0.0, 1.0])
        listed = dataclasses.replace(base, orbit=lambda t, v: base.orbit(t, v).tolist())
        b = BernsteinVector(listed, v, 2.5)
        samples = OrbitSamples(2.5, 0.7, base.orbit(0.7, v),
                               lambda k: base.orbit(k * PI / 2.5 + 0.7, v).tolist())
        for call in (lambda: orbit_reconstruct(b, 0.7, tol=1e-6),
                     lambda: group_boas(b, 2, k_terms=64),
                     lambda: recover_initial(samples, tol=1e-6),
                     lambda: recover_initial(samples, k_terms=4096)):
            with pytest.raises(TypeError, match="a sample of type list cannot be scaled"):
                call()


def loop_sum(zero, w, samples):
    """The sum of the local orbit engine as a loop: one sample at a time,
    added in index order; the oracle of the gathered sum."""
    acc = zero
    for wn, x in zip(w.tolist(), samples):
        acc = acc + wn * x
    return acc


def entry_points(b, kw):
    samples = OrbitSamples.from_bernstein(b, 0.7)
    return {
        "orbit_reconstruct": lambda: orbit_reconstruct(b, 0.7, **kw),
        "orbit_vt": lambda: orbit_vt(b, -1.9, **kw),
        "recover_initial": lambda: recover_initial(samples, **kw),
        **{f"group_boas r={r}": lambda r=r: group_boas(b, r, **kw) for r in (1, 2, 3)},
    }


class Counted(np.ndarray):
    """An array that counts the ufunc calls made on it."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        Counted.calls += 1
        inputs = tuple(x.view(np.ndarray) if isinstance(x, Counted) else x for x in inputs)
        if out is not None:
            kwargs["out"] = tuple(o.view(np.ndarray) if isinstance(o, Counted) else o
                                  for o in out)
        res = getattr(ufunc, method)(*inputs, **kwargs)
        return res.view(Counted) if isinstance(res, np.ndarray) else res


class TestGatheredSum:
    """Array samples are summed by one index-order accumulation per block,
    bit-identical to adding them one by one."""

    @pytest.mark.parametrize("kw", [{"k_terms": 64}, {"k_terms": 4096}, {"tol": 1e-6}])
    @pytest.mark.parametrize("rates", [[2.5], list(np.linspace(0.5, 2.5, 8))])
    def test_bit_identical_to_the_loop(self, monkeypatch, rates, kw):
        inst = rotation_instance(rates)
        v = np.random.default_rng(len(rates)).standard_normal(2 * len(rates))
        b = BernsteinVector(inst, v / np.linalg.norm(v), max(rates))
        got = {name: call() for name, call in entry_points(b, kw).items()}
        monkeypatch.setattr(grouporbit, "_weighted_sum", loop_sum)
        for name, call in entry_points(b, kw).items():
            want = call()
            assert got[name].tobytes() == want.tobytes(), name

    def test_blocks_bit_identical_to_the_loop(self, monkeypatch):
        # blocks of 4 samples on the 8-block group: about 200 blocks
        b = BernsteinVector(rotation_instance(np.linspace(0.5, 2.5, 8)), np.full(16, 0.25), 2.5)
        monkeypatch.setattr(sinckernel, "_BLOCK_ENTRIES", 64)
        got = {name: call() for name, call in entry_points(b, {"k_terms": 4096}).items()}
        monkeypatch.setattr(grouporbit, "_weighted_sum", loop_sum)
        for name, call in entry_points(b, {"k_terms": 4096}).items():
            assert got[name].tobytes() == call().tobytes(), name

    def test_seq_window_samples_take_the_loop(self, monkeypatch):
        a = SeqWindow(n0=-2, values=np.array([0.5, -1.0, 2.0, 0.25, -0.75]))
        b = BernsteinVector(dht_instance(expand=64), a, PI)
        got = {name: call() for name, call in entry_points(b, {"k_terms": 48}).items()}
        monkeypatch.setattr(grouporbit, "_weighted_sum", loop_sum)
        for name, call in entry_points(b, {"k_terms": 48}).items():
            want = call()
            assert isinstance(got[name], SeqWindow) and got[name].n0 == want.n0, name
            assert got[name].values.tobytes() == want.values.tobytes(), name

    def test_group_refilling_one_buffer(self, monkeypatch):
        # each sample is used or copied before the next is fetched, so an
        # orbit that returns one buffer, refilled per call, sums as the loop
        base = rotation_instance(np.linspace(0.5, 2.5, 8))
        out = np.empty(16)

        def orbit(t, v):
            out[:] = base.orbit(t, v)
            return out

        shared = BernsteinVector(dataclasses.replace(base, orbit=orbit), np.full(16, 0.25), 2.5)
        fresh = dataclasses.replace(shared, instance=base)
        monkeypatch.setattr(sinckernel, "_BLOCK_ENTRIES", 64)
        for kw in ({"k_terms": 4096}, {"tol": 1e-6}):
            got = {name: np.copy(call()) for name, call in entry_points(shared, kw).items()}
            with monkeypatch.context() as m:
                m.setattr(grouporbit, "_weighted_sum", loop_sum)
                for name, call in entry_points(fresh, kw).items():
                    assert got[name].tobytes() == call().tobytes(), name

    def test_samples_that_do_not_fit_the_block_take_the_loop(self, monkeypatch):
        # a complex sample, or one of another shape, ends the stacking; from
        # there on every sample is added one by one
        monkeypatch.setattr(sinckernel, "_BLOCK_ENTRIES", 12)
        rng = np.random.default_rng(5)
        w = rng.standard_normal(9)
        xs = [rng.standard_normal(3) for _ in range(9)]
        for odd in (xs[6] + 1j, np.float32(2.5), xs[6].reshape(3, 1)[0]):
            mixed = xs[:6] + [odd] + xs[7:]
            got = grouporbit._weighted_sum(np.zeros(3), w, iter(mixed))
            want = loop_sum(np.zeros(3), w, mixed)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert grouporbit._weighted_sum(np.zeros(3), w[:0], iter([])).tobytes() == bytes(24)

    def test_fewer_samples_than_weights_end_the_sum(self):
        # the loop's zip stops at the last sample; the stack does too
        rng = np.random.default_rng(6)
        w = rng.standard_normal(9)
        xs = [rng.standard_normal(3) for _ in range(4)]
        got = grouporbit._weighted_sum(np.zeros(3), w, iter(xs))
        assert got.tobytes() == loop_sum(np.zeros(3), w, xs).tobytes()

    @pytest.mark.parametrize("size", [129, 1024, 65536])
    def test_large_vectors_bit_identical_to_the_loop(self, size):
        # above 128 entries the samples are added one by one: stacking them
        # cost about 15x the loop at 65 536 entries
        rng = np.random.default_rng(size)
        w = rng.standard_normal(24)
        xs = [rng.standard_normal(size) for _ in range(24)]
        got = grouporbit._weighted_sum(np.zeros(size), w, iter(xs))
        assert got.tobytes() == loop_sum(np.zeros(size), w, xs).tobytes()

    @pytest.mark.parametrize("r", [0, 3])
    def test_constant_array_operations_per_sum(self, r):
        # the samples are Counted arrays; the loop made two ufunc calls on
        # them per kept sample (about 800 kept at N = 4096)
        base = rotation_instance(np.linspace(0.5, 2.5, 8))
        inst = dataclasses.replace(base, orbit=lambda t, v: base.orbit(t, v).view(Counted))
        b = BernsteinVector(inst, np.full(16, 0.25), 2.5)
        Counted.calls = 0
        got, _ = grouporbit._trajectory(b, r, 0.7, 1e-6, 4096)
        assert Counted.calls <= 4, Counted.calls
        want, _ = grouporbit._trajectory(dataclasses.replace(b, instance=base), r, 0.7, 1e-6, 4096)
        assert np.asarray(got).tobytes() == want.tobytes()


class TestLocalOrbitEngine:
    @given(blocks=st.integers(min_value=1, max_value=8),
           sigma=st.floats(min_value=0.25, max_value=2.0),
           seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
           t=st.floats(min_value=-3.0, max_value=3.0),
           case=st.sampled_from([0, 1, 2, 3, "recover_initial"]),
           tol=st.sampled_from([1e-3, 1e-6, 1e-9]),
           k_terms=st.sampled_from([None, 64, 512, 4096]))
    @settings(max_examples=200, deadline=None)
    def test_error_within_certificate(self, blocks, sigma, seed, t, case, tol, k_terms):
        # rotation blocks at rates up to the certified sigma, unit vector;
        # the certificate includes the dropped weights
        rng = np.random.default_rng(seed)
        rates = sigma * rng.uniform(0.01, 1.0, blocks)
        rates[0] = sigma
        inst = rotation_instance(rates)
        v = rng.standard_normal(2 * blocks)
        v /= np.linalg.norm(v)
        b = BernsteinVector(inst, v, sigma)
        if case == "recover_initial":
            want = v
            got, cert = _initial(OrbitSamples.from_bernstein(b, t), tol, k_terms, None)
        else:
            want = inst.orbit(t, v)
            for _ in range(case):
                want = inst.generator(want)
            got, cert = _trajectory(b, case, t, tol, k_terms)
        if k_terms is None:
            assert cert <= tol
        assert float(np.linalg.norm(got - want)) <= cert

    @pytest.mark.parametrize("sigma", [1.0, 2.0, 2.5])
    def test_lattice_nodes_exact_with_one_fetch(self, sigma):
        inst, times = counting_instance(sigma)
        v = unit_vector()
        b = BernsteinVector(inst, v, sigma)
        for k in (-3, 0, 1, 4, 17):
            t = k * PI / sigma
            for call in (orbit_reconstruct, orbit_vt):
                for kw in ({"tol": 1e-9}, {"k_terms": 4096}):
                    times.clear()
                    got = call(b, t, **kw)
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
    def test_orbit_vt(self, rates):
        inst = rotation_instance(rates)
        v = np.ones(2 * len(rates)) / math.sqrt(2 * len(rates))
        sigma = max(rates)
        b = BernsteinVector(inst, v, sigma)
        for t in (0.3, 0.7, 1.9):
            want = paper_orbit_vt(b, t, 4096)
            budget = paper_orbit_budget(sigma, t, 4096)
            for kw in ({"tol": 1e-9}, {"k_terms": 4096}):
                got = orbit_vt(b, t, **kw)
                assert np.linalg.norm(got - want) <= budget + 1e-9, (t, kw)

    @pytest.mark.parametrize("rates", [[1.0], [2.5], list(np.linspace(0.5, 2.5, 8))])
    def test_recover_initial(self, rates):
        inst = rotation_instance(rates)
        v = np.ones(2 * len(rates)) / math.sqrt(2 * len(rates))
        sigma = max(rates)
        b = BernsteinVector(inst, v, sigma)
        for t in (0.3, 0.7, 1.9):
            want = paper_recover_initial(b, t, 4096)
            budget = paper_orbit_budget(sigma, t, 4096)
            samples = OrbitSamples.from_bernstein(b, t)
            for kw in ({"tol": 1e-9}, {"k_terms": 4096}):
                got = recover_initial(samples, **kw)
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


class TestNonFiniteTime:
    """The local orbit engine refuses a time that is not finite, and names
    it, whichever entry point passes it on."""

    @staticmethod
    def call(entry, t):
        b = BernsteinVector(rotation_instance([1.0]), unit_vector(), 1.0)
        if entry == "recover_initial":
            return recover_initial(OrbitSamples(sigma=1.0, t=t, f_t=unit_vector(),
                                                at=lambda k: unit_vector()))
        if entry == "from_bernstein":
            return recover_initial(OrbitSamples.from_bernstein(b, t))
        if entry == "pairing_check":
            a = SeqWindow(n0=-1, values=np.array([1.0, 0.5, -0.25]))
            return pairing_check(a, a, t)
        return {"orbit_reconstruct": orbit_reconstruct, "orbit_vt": orbit_vt}[entry](b, t)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", ["orbit_reconstruct", "orbit_vt", "recover_initial",
                                       "from_bernstein", "pairing_check"])
    def test_raises_value_error_naming_t(self, entry, t):
        # recover_initial reads time 0 from base time t, at the engine's
        # time -t: the error names the t the caller gave
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"time t must be finite, got {t}$"):
                self.call(entry, t)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_from_bernstein_refuses_before_any_orbit(self, t):
        inst, times = counting_instance(1.0)
        b = BernsteinVector(inst, unit_vector(), 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"time t must be finite, got {t}$"):
                OrbitSamples.from_bernstein(b, t)
        assert times == [] and b._bases == ()


class TestRatesAndTimesTheEngineCannotSum:
    """The engine's door refuses a rate or a time whose lattice it cannot
    form, by ValueError (a bad rate) or ToleranceError naming t and h, never
    by an arithmetic fault."""

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, -math.inf, math.nan])
    def test_orbit_samples_refuse_rate(self, sigma):
        with pytest.raises(ValueError, match="sigma must be positive and finite"):
            OrbitSamples(sigma=sigma, t=0.3, f_t=unit_vector(), at=lambda k: unit_vector())

    def test_rate_whose_double_overflows(self):
        # 2 sigma overflows, and pi/(2 sigma) would be 0.0: (pi/2)/sigma is not
        b = BernsteinVector(rotation_instance([1e308]), unit_vector(), 1e308)
        with pytest.raises(ToleranceError, match="h = 1.5707963267948964e-308"):
            group_boas(b, 1, tol=1e-6)
        with pytest.raises(ToleranceError, match=r"t = 0\.3 .*h = 1\.5707963267948964e-308"):
            orbit_reconstruct(b, 0.3, k_terms=8)

    def test_pinned_index_beyond_int64(self):
        b = BernsteinVector(rotation_instance([1.0]), unit_vector(), 1.0)
        a = SeqWindow(n0=-1, values=np.array([1.0, 0.5, -0.25]))
        for call, h in ((lambda: orbit_reconstruct(b, 1e300, k_terms=8), PI / 2),
                        (lambda: pairing_check(a, a, 1e300, k_terms=4), 0.5)):
            with pytest.raises(ToleranceError, match=rf"t = 1e\+300 .*h = {h!r} from 0") as err:
                call()
            assert err.value.achievable > 1e280  # the certificate at the pinned N

    @pytest.mark.parametrize("t, shown", [(1e300, r"1e\+300"), (-1e300, r"-1e\+300")])
    def test_pinned_base_time_beyond_int64(self, t, shown):
        # recover_initial names the base time, not the engine's time -t
        b = BernsteinVector(rotation_instance([1.0]), unit_vector(), 1.0)
        for samples in (OrbitSamples.from_bernstein(b, t),
                        OrbitSamples(sigma=1.0, t=t, f_t=unit_vector(), at=lambda k: unit_vector())):
            with pytest.raises(ToleranceError, match=rf"^time t = {shown} is 2\^63 or more"):
                recover_initial(samples, k_terms=8)


class NoIter(np.ndarray):
    """An array of samples that must not be iterated."""

    def __iter__(self):
        raise AssertionError("an array of samples was iterated")


class TestStackedSamples:
    """An array of samples, one per row, is summed as the stack it is: no
    Python step per sample, and the sum of the loop bit for bit."""

    @pytest.mark.parametrize("kw", [{"k_terms": 64}, {"k_terms": 4096}, {"tol": 1e-6}])
    @pytest.mark.parametrize("r", [0, 3])
    def test_array_samples_are_never_iterated(self, monkeypatch, r, kw):
        inst = rotation_instance(np.linspace(0.5, 2.5, 8))
        v = np.full(16, 0.25)

        def stacked(ns, dts):
            return np.array([inst.orbit(0.7 - dt, v) for dt in dts.tolist()]).view(NoIter)

        def listed(ns, dts):
            return [inst.orbit(0.7 - dt, v) for dt in dts.tolist()]

        for entries in (sinckernel._BLOCK_ENTRIES, 64):
            monkeypatch.setattr(sinckernel, "_BLOCK_ENTRIES", entries)
            got = grouporbit._orbit_sum(stacked, 0.0 * v, 1.0, r, 0.7, 2.5, kw.get("tol"),
                                        kw.get("k_terms"))
            with monkeypatch.context() as m:
                m.setattr(grouporbit, "_weighted_sum", loop_sum)
                want = grouporbit._orbit_sum(listed, 0.0 * v, 1.0, r, 0.7, 2.5, kw.get("tol"),
                                             kw.get("k_terms"))
            assert got[1] == want[1]
            assert type(got[0]) is np.ndarray and got[0].tobytes() == want[0].tobytes()

    def test_other_arrays_take_the_row_by_row_path(self):
        # a stack of another type, of another row shape or too wide for the
        # stack is read row by row, as before
        rng = np.random.default_rng(11)
        w = rng.standard_normal(9)
        for zero, xs in ((np.zeros(3), rng.standard_normal((9, 3)).astype(np.float32)),
                         (np.zeros(3), rng.standard_normal((9, 3, 1))),
                         (np.zeros(3), rng.standard_normal((12, 3))),
                         (np.zeros(200), rng.standard_normal((9, 200)))):
            got = grouporbit._weighted_sum(zero, w, xs)
            want = loop_sum(zero, w, list(xs))
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_boas_table_is_summed_as_one_stack(self, monkeypatch):
        from bandlimit.boas import boas_derivative
        from bandlimit.sampling import make_reference

        f = make_reference("sin", 1.0, 0.3)
        got = [boas_derivative(f, r, x) for r in (1, 2, 5) for x in (0.7, 1e3)]
        monkeypatch.setattr(grouporbit, "_weighted_sum", loop_sum)
        assert got == [boas_derivative(f, r, x) for r in (1, 2, 5) for x in (0.7, 1e3)]


class TestIdentity:
    """A vector and its samples equal only themselves and hash by identity:
    two of them on equal but distinct arrays once raised ValueError on ==
    (the array truth value) and TypeError on hash."""

    def test_bernstein_vectors(self):
        inst = rotation_instance([1.0])
        a = BernsteinVector(inst, np.array([0.8, -0.6]), 1.0)
        b = BernsteinVector(inst, np.array([0.8, -0.6]), 1.0)
        assert a == a and a != b and not (a == b)
        assert len({a, b, a}) == 2 and {a: 1}[a] == 1

    def test_orbit_samples(self):
        b = BernsteinVector(rotation_instance([1.0]), np.array([0.8, -0.6]), 1.0)
        s, twin = OrbitSamples.from_bernstein(b, 0.3), OrbitSamples.from_bernstein(b, 0.5)
        twin = dataclasses.replace(twin, t=s.t, f_t=s.f_t.copy())
        assert s == s and s != twin and len({s, twin}) == 2
