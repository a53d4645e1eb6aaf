"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import math

import numpy as np
import pytest

from bandlimit.boas import boas_derivative, boas_derivative_fast, truncation_halfwidth
from bandlimit.dht import (
    SeqWindow,
    dht_power,
    hilbert_apply,
    hilbert_group,
)
from bandlimit.errors import ReconstructionUnsoundError
from bandlimit.grouporbit import (
    BernsteinVector,
    OrbitSamples,
    exponential_type,
    group_boas,
    orbit_reconstruct,
    orbit_vt,
    recover_initial,
    rotation_instance,
)
from bandlimit.inequalities import favard_constant, lks_check, plancherel_polya_check
from bandlimit.sampling import UniformSamples, make_reference, valiron_tschakaloff_eval, wks_eval
from paper_boas import boas_coefficient_grid
from paper_dht import composed_power, vt_expansion

PI = math.pi


def report(criterion: str, measured: float, budget: float, detail: str = ""):
    ok = measured <= budget
    state = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {state} (measured {measured:.3e} <= budget "
          f"{budget:.3e}{'; ' + detail if detail else ''})")
    assert ok, f"{criterion}: {measured} > {budget}"


def test_c01_lattice_identity():
    # symmetric partial sums of sum 1/(k-1/2)^2 reach pi^2 at rate 2.1/K
    worst_ratio = 0.0
    for K in (16, 100, 1000, 10_000, 100_000):
        ks = np.arange(-K, K + 1)
        partial = PI * float(np.sum(np.abs(boas_coefficient_grid("odd", 1, ks))))
        gap = abs(partial - PI ** 2)
        worst_ratio = max(worst_ratio, gap * K / 2.1)
    report("01a identity rate", worst_ratio, 1.0, "gap*K/2.1 over K<=1e5")
    ks = np.arange(-10_000, 10_001)
    partial = PI * float(np.sum(np.abs(boas_coefficient_grid("odd", 1, ks))))
    report("01b identity at K=1e4", abs(partial - PI ** 2), 3e-4)


def test_c02_first_order_boas():
    rng = np.random.default_rng(42)
    worst = 0.0
    for sigma in (1.0, 2.5):
        f = make_reference("sin", sigma)
        for x in rng.uniform(-5, 5, size=25):
            got = boas_derivative(f, 1, float(x), k_terms=10_000)
            worst = max(worst, abs(got - sigma * math.cos(sigma * float(x))))
    report("02 first-order derivative", worst, 1e-4, "sin, sigma in {1, 2.5}")


def test_c03_even_order_annihilation():
    f = make_reference("const", PI)
    worst = max(abs(boas_derivative(f, 2, x, k_terms=200_000))
                for x in (0.0, 0.37, -1.9))
    report("03 constant annihilation", worst, 1e-10)


def test_c04_higher_orders_and_fast_variants():
    def closed(kind, sigma, r, x):
        cyc = [math.sin, math.cos, lambda t: -math.sin(t), lambda t: -math.cos(t)]
        base = cyc[r % 4] if kind == "sin" else cyc[(r + 1) % 4]
        return sigma ** r * base(sigma * x)

    rng = np.random.default_rng(7)
    worst = 0.0
    for kind in ("sin", "cos"):
        for sigma in (1.0, 1.5):
            f = make_reference(kind, sigma)
            for r in (2, 3, 4):
                for x in rng.uniform(-4, 4, size=4):
                    got = boas_derivative(f, r, float(x), k_terms=10_000)
                    worst = max(worst, abs(got - closed(kind, sigma, r, float(x))))
    report("04a higher orders vs oracle", worst, 1e-3)

    worst_fast = 0.0
    for kind in ("sin", "cos"):
        f = make_reference(kind, 1.0)
        for r in (2, 3, 4):
            for x in (0.0, 0.31, -2.2):
                fast = boas_derivative_fast(f, r, x, tol=1e-3)
                std = boas_derivative(f, r, x, tol=1e-3)
                worst_fast = max(worst_fast, abs(fast - std))
    report("04b fast vs standard", worst_fast, 2e-3)

    margin = 0
    for tol in (1e-3, 1e-6):
        for r in (2, 3, 4):
            k_fast = truncation_halfwidth("fast", r, 1.0, 1.0, tol)
            k_std = truncation_halfwidth("standard", r, 1.0, 1.0, tol)
            margin = max(margin, k_fast - k_std + 1)
    report("04c fast needs fewer terms", float(margin), 0.0,
           "max(K_fast - K_std) + 1 <= 0")


def test_c05_wks_reconstruction():
    sigma = 2.0
    f = make_reference("fejer", sigma)
    s = UniformSamples.from_function(f, PI / sigma, -10_000, 10_000)
    grid = np.linspace(-10, 10, 81)
    worst = max(abs(wks_eval(s, 0, float(x), tol=1e-3) - float(f(x))) for x in grid)
    report("05a cardinal reconstruction", worst, 1e-3, "fejer, critical rate, K=1e4")
    worst_d = 0.0
    for x in np.linspace(-5, 5, 21):
        got = wks_eval(s, 1, float(x), tol=1e-3)
        fd = (float(f(x + 5e-4)) - float(f(x - 5e-4))) / 1e-3
        worst_d = max(worst_d, abs(got - fd))
    report("05b derivative sampling", worst_d, 1e-3)


def test_c06_valiron_tschakaloff():
    sigma, K = 1.0, 100_000
    h = PI / sigma
    ks = np.arange(-K, K + 1)
    s_sin = UniformSamples(sigma=sigma, h=h, k_min=-K, k_max=K,
                           values=np.sin(sigma * ks * h), tail_bound=1.0)
    s_one = UniformSamples(sigma=sigma, h=h, k_min=-K, k_max=K,
                           values=np.ones(2 * K + 1), tail_bound=1.0)
    worst = 0.0
    for z in np.linspace(-3, 3, 13):
        got = valiron_tschakaloff_eval(s_sin, 0.0, 1.0, complex(z))
        worst = max(worst, abs(got - math.sin(z)))
        got1 = valiron_tschakaloff_eval(s_one, 1.0, 0.0, complex(z))
        worst = max(worst, abs(got1 - 1.0))
    report("06a bounded-sample expansion", worst, 1e-4, "sin and const, K=1e5")
    node_err = 0.0
    for k in (1, -4, 7):
        got = valiron_tschakaloff_eval(s_sin, 0.0, 1.0, complex(k * h))
        node_err = max(node_err, abs(got.real - s_sin.value_at(k)))
    report("06b node interpolation", node_err, 0.0)


def test_c07_riesz():
    from bandlimit.sampling import riesz_trig_derivative
    worst = max(abs(riesz_trig_derivative(lambda x, N=N: math.sin(N * x), N, 0.0) - N)
                for N in range(1, 17))
    report("07 finite interpolation sum", worst, 1e-10, "P=sin(Nx), N<=16")


def test_c08_sampled_norm_sandwich():
    sigma = 2.0
    combos = [("fejer", 1.0), ("fejer", 2.0), ("fejer", math.inf),
              ("sinc", 2.0), ("sinc", math.inf),
              ("sin", math.inf), ("cos", math.inf), ("const", math.inf)]
    worst_lo, worst_hi = 0.0, 0.0
    for kind, p in combos:
        f = make_reference(kind, sigma)
        for h in (PI / sigma, PI / (2 * sigma)):
            rep = plancherel_polya_check(f, h, p, window=50_000)
            assert rep.passed, (kind, p, h, rep)
            worst_lo = max(worst_lo, -rep.slack_lower)
            worst_hi = max(worst_hi, -rep.slack_upper)
    report("08 two-sided norm sandwich", max(worst_lo, worst_hi), 0.0,
           "all references, h in {pi/s, pi/2s}, p in {1,2,inf}")


def test_c09_favard_and_lks():
    err = max(abs(favard_constant(0) - 1.0),
              abs(favard_constant(1) - PI / 2),
              abs(favard_constant(2) - PI ** 2 / 8))
    report("09a favard constants", err, 1e-10)
    c12 = favard_constant(1) ** 2 / favard_constant(2)
    report("09b sharp constant C(1,2)", abs(c12 - 2.0), 1e-10)
    sigma = 1.7
    bad = 0.0
    for (k, n) in ((1, 2), (1, 3), (2, 3)):
        rep = lks_check((1.0, sigma ** k, sigma ** n), k, n)
        bad = max(bad, rep.lhs - rep.rhs)
    report("09c interpolation inequality", bad, 0.0, "rotation norm triples")


def test_c10_rotation_oracle():
    v = np.array([0.8, -0.6])
    worst = 0.0
    worst_b = 0.0
    worst_e = 0.0
    for sigma in (1.0, 2.5):
        inst = rotation_instance([sigma])
        b = BernsteinVector(inst, v, sigma)
        for t in (0.3, 0.7, 1.9):
            exact = inst.orbit(t, v)
            worst = max(worst, float(np.max(np.abs(orbit_reconstruct(b, t, k_terms=10_000) - exact))))
            worst = max(worst, float(np.max(np.abs(orbit_vt(b, t, k_terms=10_000) - exact))))
            samples = OrbitSamples.from_bernstein(b, t)
            worst = max(worst, float(np.max(np.abs(recover_initial(samples, k_terms=10_000) - v))))
        w = v.copy()
        for r in (1, 2, 3):
            w = inst.generator(w)
            worst_b = max(worst_b, float(np.max(np.abs(group_boas(b, r, tol=1e-6) - w))))
        est = exponential_type(inst, v, k_max=60)
        worst_e = max(worst_e, abs(est.estimate - sigma))
    report("10a trajectory sampling", worst, 1e-6, "t in {0.3, 0.7, 1.9}, K=1e4")
    report("10b generator powers", worst_b, 1e-6)
    report("10c growth-rate estimator", worst_e, 1e-6)


def test_c11_dht_closed_form():
    # norm of the half-time orbit of the basis vector, with an analytic
    # bracket on the lattice tail (the half-integer square-sum identity)
    K = 10_000
    out = hilbert_group(0.5, SeqWindow.basis(0), expand=K)
    w2 = out.norm() ** 2
    tail_lo = (1.0 / PI ** 2) * 2.0 / (K + 2.0)
    tail_hi = (1.0 / PI ** 2) * 2.0 / (K - 1.0)
    lo = math.sqrt(w2 + tail_lo)
    hi = math.sqrt(w2 + tail_hi)
    report("11a half-time isometry", max(abs(lo - 1.0), abs(hi - 1.0)), 1e-6,
           "window 1e4 + analytic bracket")

    rng = np.random.default_rng(5)
    vals = rng.standard_normal(9)
    a = SeqWindow(n0=-4, values=vals / np.linalg.norm(vals))
    worst = 0.0
    for s_, t_ in ((1.0, 0.5), (2.0, 0.3), (-1.0, 0.7), (3.0, 1.0)):
        two = hilbert_group(s_, hilbert_group(t_, a, expand=2000), expand=0)
        one = hilbert_group(s_ + t_, a, expand=2000)
        lo_n = max(two.n0, one.n0) + 4
        ln = min(two.n_last, one.n_last) - 4 - lo_n + 1
        worst = max(worst, float(np.max(np.abs(two.on_range(lo_n, ln) - one.on_range(lo_n, ln)))))
    for s_, t_ in ((0.5, 0.5), (0.3, 0.45)):
        inner = hilbert_group(t_, a, expand=400_000)
        ns = np.arange(inner.n0, inner.n0 + len(inner))
        centre = np.arange(-32, 33)
        second = np.empty(centre.size)
        for i, m in enumerate(centre):
            second[i] = (math.sin(PI * s_) / PI) * float(
                np.sum(inner.values / (m - ns + s_)))
        direct = hilbert_group(s_ + t_, a, expand=64)
        worst = max(worst, float(np.max(np.abs(second - direct.on_range(-32, 65)))))
    report("11b group law residual", worst, 1e-6, "mixed integer/fractional grid")

    strict = 0.0
    for _ in range(100):
        w = rng.standard_normal(32)
        aw = SeqWindow(n0=-16, values=w)
        hw = hilbert_apply(aw, expand=800)
        strict = max(strict, math.hypot(hw.norm(), hw.tail_l2) / (PI * aw.norm()))
    report("11c strict norm inequality", strict, 1.0 - 1e-12, "100 random windows")


def test_c12_dht_formula_cross_checks():
    rng = np.random.default_rng(9)
    vals = rng.standard_normal(10_001)
    a = SeqWindow(n0=-5000, values=vals / np.linalg.norm(vals))
    worst = 0.0
    for t in (0.3, 0.5, 1.7):
        want = hilbert_group(t, a, expand=10_000)
        got = vt_expansion(a, t, expand=10_000)
        worst = max(worst, float(np.linalg.norm(got.on_range(want.n0, len(want)) - want.values)))
    report("12a orbit formulas vs closed form", worst, 1e-4, "window 1e4")

    vals = rng.standard_normal(513)
    vals -= vals.mean()
    b = SeqWindow(n0=-256, values=vals / np.linalg.norm(vals))
    p1 = dht_power(b, 1, expand=2048)
    h1 = hilbert_apply(b, expand=2048)
    err1 = float(np.linalg.norm(p1.values - h1.values))
    p2 = dht_power(b, 2, expand=2048)
    inner = hilbert_apply(b, expand=40_000)
    h2 = hilbert_apply(inner, expand=0)
    err2 = float(np.linalg.norm(p2.values - h2.on_range(p2.n0, len(p2))))
    report("12b operator powers vs direct", max(err1, err2), 1e-4)

    direct = dht_power(b, 2, expand=2048)
    composed = composed_power(b, 2, expand=2048)
    centre = np.arange(-1024, 1025)
    diff = float(np.max(np.abs(direct.on_range(-1024, centre.size)
                               - composed.on_range(-1024, centre.size))))
    report("12c iterated power formula", diff, 2e-4)


def test_c13_counterexample_guard():
    sigma = 1.0
    ks = np.arange(-5000, 5001)
    s = UniformSamples(sigma=sigma, h=PI / sigma, k_min=-5000, k_max=5000,
                       values=np.sin(sigma * ks * PI / sigma),
                       tail_bound=1.0, tail_decay=0.0)
    with pytest.raises(ReconstructionUnsoundError):
        wks_eval(s, 0, 0.5, tol=1e-3)
    print("ACCEPTANCE 13 counterexample guard: PASS "
          "(bounded-only critical-rate samples refused)")
