"""Discrete-norm comparisons, embedding constants, Favard constants, and the
Landau-Kolmogorov-Stein inequality checker.

The central fact: for f of exponential type sigma in L^p and any step h > 0,
the lattice p-norm of its samples is controlled both ways,

    ||f||_p <= sup_x ( h sum_k |f(x - k h)|^p )^(1/p) <= (1 + h sigma) ||f||_p

(with the middle expression read as sup_k |f(x - k h)| when p = inf).  The
upper half alone is the sampled-norm bound; together they give the embedding
||f||_q <= h^(1/q - 1/p) (1 + h sigma) ||f||_p for p <= q.

Favard constants

    K_j = (4/pi) sum_{r>=0} (-1)^(r(j+1)) / (2r+1)^(j+1) = A_j (pi/2)^j / j!,

with A_j the Euler zigzag numbers, are the sharp constants in
|| D^k f ||^n <= C_{k,n} || D^n f ||^k || f ||^(n-k) with
C_{k,n} = K_{n-k}^n / K_n^(n-k), a rational number.  Even-index constants
increase inside [1, 4/pi); odd-index ones decrease inside (pi/4, pi/2].
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .sampling import BandlimitedFn, UniformSamples


# ---------------------------------------------------------------------------
# discrete norms and the two-sided sandwich
# ---------------------------------------------------------------------------

def discrete_norm(s: UniformSamples, p: float) -> float:
    """(h sum_k |f(k h)|^p)^(1/p) over the stored window; sup for p = inf.

    The window value is a lower bound for the full lattice norm; callers that
    need an upper bracket add the tail certificate themselves (see
    :func:`plancherel_polya_check`).
    """
    v = np.abs(s.values)
    if p == math.inf:
        return float(np.max(v)) if v.size else 0.0
    if p not in (1, 2, 1.0, 2.0):
        raise ValueError("p must be 1, 2, or inf")
    return float((s.h * np.sum(v ** p)) ** (1.0 / p))


@dataclass(frozen=True)
class SandwichReport:
    """Outcome of a two-sided sampled-norm check.

    middle_lo/middle_hi bracket sup_x of the shifted lattice norm (window
    value and window value plus the decay-certificate tail allowance).
    """

    p: float
    h: float
    sigma: float
    lower: float          # ||f||_p
    middle_lo: float
    middle_hi: float
    upper: float          # (1 + h sigma) ||f||_p
    slack_lower: float    # middle_hi - lower  (>= 0 when the sandwich holds)
    slack_upper: float    # upper - middle_hi
    passed: bool


def _lattice_norm_bracket(vals: np.ndarray, f: BandlimitedFn, h: float, p: float,
                          x: float, window: int) -> Tuple[float, float]:
    # vals = |f(x - k h)| for |k| <= window
    if p == math.inf:
        lo = float(np.max(vals))
        return lo, lo  # sup over the window; tail never raises p=inf below sup_bound
    body = float(np.sum(vals ** p))
    lo = (h * body) ** (1.0 / p)
    reach = window * h - abs(x)
    if f.envelope is None or f.envelope[1] * p <= 1.0 or reach <= 0.0:
        return lo, math.inf
    # sum_{|k|>W} |f(x-kh)|^p <= 2 c^p / ((dp-1) h (W h - |x|)^{dp-1}),
    # integral comparison of the envelope
    c, d = f.envelope
    tail = 2.0 * c ** p / ((d * p - 1.0) * h * reach ** (d * p - 1.0))
    return lo, (h * (body + tail)) ** (1.0 / p)


def plancherel_polya_checks(f: BandlimitedFn, h: float, ps: Sequence[float],
                            shifts: Optional[Sequence[float]] = None,
                            window: int = 100_000) -> List[SandwichReport]:
    """:func:`plancherel_polya_check` for each p of ``ps``, one report per p.
    f is evaluated once per shift on the 2 window + 1 lattice points and
    every p reads those values, so each report is the one-p check's, bit for
    bit.  A p without an ``f.lp_norms`` entry raises ValueError before f is
    evaluated.
    """
    if h <= 0.0:
        raise ValueError("step h must be positive")
    if shifts is None:
        shifts = [j * h / 64.0 for j in range(64)]
    norms = []
    for p in ps:
        if f.lp_norms is None or p not in f.lp_norms:
            raise ValueError(f"no ||f||_p for p = {p}: give it in f.lp_norms")
        norms.append(float(f.lp_norms[p]))
    kh = np.arange(-window, window + 1) * h
    mids = [[] for _ in ps]
    for x in shifts:
        x = float(x)
        vals = np.abs(np.asarray(f(x - kh), dtype=float))
        for per_p, p in zip(mids, ps):
            per_p.append(_lattice_norm_bracket(vals, f, h, p, x, window))
    reports = []
    for p, norm, per_p in zip(ps, norms, mids):
        middle_lo = max(m[0] for m in per_p)
        middle_hi = max(m[1] for m in per_p)
        upper = (1.0 + h * f.sigma) * norm
        slack_lower = middle_hi - norm
        slack_upper = upper - middle_hi
        passed = bool(slack_lower >= -1e-12 * max(1.0, norm)
                      and slack_upper >= -1e-12 * max(1.0, norm)
                      and math.isfinite(middle_hi))
        reports.append(SandwichReport(p=p, h=h, sigma=f.sigma, lower=norm,
                                      middle_lo=middle_lo, middle_hi=middle_hi,
                                      upper=upper, slack_lower=slack_lower,
                                      slack_upper=slack_upper, passed=passed))
    return reports


def plancherel_polya_check(f: BandlimitedFn, h: float, p: float,
                           shifts: Optional[Sequence[float]] = None,
                           window: int = 100_000) -> SandwichReport:
    """Verify ||f||_p <= sup_x (h sum_k |f(x - kh)|^p)^(1/p) <= (1+h sigma)||f||_p.

    The sup over x is taken on a shift grid covering one period [0, h) (the
    middle expression is h-periodic in x); 64 equispaced shifts by default.
    ||f||_p is the entry of ``f.lp_norms``; without one, ValueError.
    """
    return plancherel_polya_checks(f, h, [p], shifts, window)[0]


def embedding_constant(p: float, q: float, h: float, sigma: float) -> float:
    """h^(1/q - 1/p) (1 + h sigma): the norm-growth factor in L^p -> L^q."""
    if not (1 <= p <= q):
        raise ValueError("need 1 <= p <= q")
    if h <= 0.0 or sigma < 0.0:
        raise ValueError("need h > 0 and sigma >= 0")
    inv_p = 0.0 if p == math.inf else 1.0 / p
    inv_q = 0.0 if q == math.inf else 1.0 / q
    return h ** (inv_q - inv_p) * (1.0 + h * sigma)


# ---------------------------------------------------------------------------
# Favard constants
# ---------------------------------------------------------------------------

# pi = _PI_NUM / _PI_DEN to 50 digits
_PI_NUM, _PI_DEN = 31415926535897932384626433832795028841971693993751, 10 ** 49


def _zigzag(n: int) -> List[int]:
    """Euler zigzag numbers A_0..A_n (sec x + tan x = sum_j A_j x^j / j!:
    1, 1, 1, 2, 5, 16, 61, ...) by the Seidel-Entringer boustrophedon: each
    row is the running sum, from 0, of the previous row read backwards, and
    A_j ends row j."""
    row, out = [1], [1]
    for _ in range(n):
        row = list(itertools.accumulate(reversed(row), initial=0))
        out.append(row[-1])
    return out


def favard_constant(j: int) -> float:
    """K_j = (4/pi) sum_{r>=0} (-1)^(r(j+1)) / (2r+1)^(j+1) = A_j (pi/2)^j / j!,
    the exact value rounded once from 50-digit pi.  For j >= 64 it is 4/pi
    rounded: |K_j - 4/pi| <= 2 3^-(j+1) 4/pi < 2^-100."""
    if j < 0:
        raise ValueError("index j must be >= 0")
    if j >= 64:
        return 4 * _PI_DEN / _PI_NUM
    return _zigzag(j)[j] * _PI_NUM ** j / (2 ** j * math.factorial(j) * _PI_DEN ** j)


def lks_constant(k: int, n: int) -> float:
    """Sharp constant C_{k,n} = K_{n-k}^n / K_n^(n-k) = a_{n-k}^n / a_n^(n-k)
    with K_j = a_j pi^j, a_j = A_j / (2^j j!).  pi cancels, so C_{k,n} is
    rational (2, 9/8 and 3 for (k, n) = (1, 2), (1, 3), (2, 3)), rounded once."""
    if not (0 < k < n):
        raise ValueError("need 0 < k < n")
    m = n - k
    A = _zigzag(n)
    # the powers of 2 cancel as well
    return A[m] ** n * math.factorial(n) ** m / (A[n] ** m * math.factorial(m) ** n)


@dataclass(frozen=True)
class LksReport:
    k: int
    n: int
    constant: float
    lhs: float   # ||D^k f||^n
    rhs: float   # C_{k,n} ||D^n f||^k ||f||^(n-k)
    passed: bool


def lks_check(norms: Tuple[float, float, float], k: int, n: int) -> LksReport:
    """Check ||D^k f||^n <= C_{k,n} ||D^n f||^k ||f||^(n-k).

    ``norms`` is (||f||, ||D^k f||, ||D^n f||) measured in any norm attached
    to an isometry group (function sup-norms or abstract vector norms).
    """
    if not (0 < k < n):
        raise ValueError("need 0 < k < n")
    n0, nk, nn = (float(v) for v in norms)
    if min(n0, nk, nn) < 0.0:
        raise ValueError("norms must be nonnegative")
    c = lks_constant(k, n)
    lhs = nk ** n
    rhs = c * nn ** k * n0 ** (n - k)
    return LksReport(k=k, n=n, constant=c, lhs=lhs, rhs=rhs,
                     passed=bool(lhs <= rhs * (1.0 + 1e-12)))
