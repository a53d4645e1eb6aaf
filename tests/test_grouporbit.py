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
    coefficient_tail_bound,
    regularized_sinc_grid,
    sinc,
    sinc_grid,
    snap_integer,
)
from paper_boas import boas_coefficient, boas_coefficient_grid

PI = math.pi


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

    @pytest.mark.parametrize("N", [63, 64, 4096])
    def test_local_engine_fetches_each_nonzero_weight_once(self, N):
        inst, times = counting_instance(self.SIGMA)
        b = BernsteinVector(inst, unit_vector(), self.SIGMA)
        self.check_fetches({
            ("orbit_reconstruct", 0, self.T): lambda: orbit_reconstruct(b, self.T, k_terms=N),
            **{("group_boas", r, 0.0): lambda r=r: group_boas(b, r, k_terms=N)
               for r in (1, 2, 3)},
        }, times, N)

    def test_tolerance_driven_fetches(self):
        inst, times = counting_instance(2.5)
        b = BernsteinVector(inst, unit_vector(), 2.5)
        for r in (1, 2, 3):
            times.clear()
            group_boas(b, r, tol=1e-6)
            assert 20 < len(times) == len(set(times)) < 120, r


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
        if entry == "pairing_check":
            a = SeqWindow(n0=-1, values=np.array([1.0, 0.5, -0.25]))
            return pairing_check(a, a, t)
        return {"orbit_reconstruct": orbit_reconstruct, "orbit_vt": orbit_vt}[entry](b, t)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", ["orbit_reconstruct", "orbit_vt", "recover_initial",
                                       "pairing_check"])
    def test_raises_value_error_naming_t(self, entry, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="time t must be finite"):
                self.call(entry, t)
