"""Differentiation of bandlimited functions from translates of f.

The paper's Boas formulas write every derivative of f, of exponential type
sigma, as a weighted sum of translates f(x + s_k) with weights decaying
like k^-2 (or k^-3 in the fast variants).  Translation e^(sD) f = f(. + s)
is an isometry group for the sup norm, with generator D = d/dx, so the
derivative is ``group_boas`` on that group: the local orbit engine
:func:`~bandlimit.grouporbit._orbit_sum` at time 0, whose lattice is the
twice-oversampled step h = pi/(2 sigma),

    f^(r)(x) ~= h^-r sum_{|n| <= N} w_n f(x + n h),
    w_n = d^r/du^r [sinc(u - n) exp(-(pi/4) (u - n)^2 / N)] at u = 0.

The weights do not depend on x.  g(u) = f(x + u h) is entire of type
pi/2 and bounded by ``f.sup_bound``, so the certificate of the
regularized series, with the rounding of the points x + n h (which grows
with |x|), bounds the error; N is the smallest half-width it allows for
tol at the largest |x| (``k_terms`` pins N instead).  f is called once, on
the x + n h = x - dt with a nonzero weight (dt: the engine's time offsets):
about 50 per x at tol 1e-6.  At a pinned N this is ``group_boas`` on the
vector [x], bit for bit, also at the engine's extreme rates.

This is the one Boas path: ``boas_derivative_fast`` is ``boas_derivative``
under the name of the paper's fast (k^-3) variants.  The paper's
shifted-sample series are kept in the tests as an oracle
(``tests/paper_boas.py``).  ``truncation_halfwidth`` and
``series_tail_bound``, outside the package exports, size them: the
smallest K whose certified tail meets tol, 202 643 (r = 1) to 810 570
(r = 4) shifts at tol 1e-6.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import ToleranceError
from .grouporbit import _orbit_sum
from .sampling import BandlimitedFn
from .sinckernel import MAX_HALFWIDTH, _check_order, _least, _sharp_floor, coefficient_tail_bound

_PI = math.pi
_E = math.e


# The sizing of the paper's shifted-sample series (tests/paper_boas.py),
# which the library does not sum: kept while bench/tracing.py hooks
# boas.truncation_halfwidth (ROADMAP item 8).

def truncation_halfwidth(variant: str, r: int, sigma: float, sup_bound: float,
                         tol: float) -> int:
    """Smallest series half-width K <= MAX_HALFWIDTH whose
    :func:`series_tail_bound` is <= tol.

    variant is "standard" (k^-2 weights) or "fast" (k^-3 weights).  The bound
    is nonincreasing in K, so K is found by bisection.  Raises ToleranceError,
    with the bound at MAX_HALFWIDTH as ``achievable``, when no K qualifies.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    best = series_tail_bound(variant, r, sigma, sup_bound, MAX_HALFWIDTH)
    if not best <= tol:
        raise ToleranceError(
            f"tol {tol:.3e} needs half-width > {MAX_HALFWIDTH}", achievable=best)
    return _least(lambda K: series_tail_bound(variant, r, sigma, sup_bound, K) <= tol,
                  1, MAX_HALFWIDTH)


def series_tail_bound(variant: str, r: int, sigma: float, sup_bound: float,
                      halfwidth: int) -> float:
    """Certified bound on the omitted part of the derivative series."""
    if r < 1:
        raise ValueError("derivative order must be >= 1")
    K = int(halfwidth)
    if variant == "standard":
        m = (r + 1) // 2
        parity = "odd" if r % 2 else "even"
        return (sigma / _PI) ** r * sup_bound * coefficient_tail_bound(parity, m, K)
    if variant != "fast":
        raise ValueError(f"variant must be 'standard' or 'fast', got {variant!r}")
    if r < 2:
        raise ValueError("fast variant needs order >= 2")
    # sum_{|k|>K} |a(m,k)/(k-1/2)| (r = 2m) or |b(m,k)/k| (r = 2m+1) is at
    # most (r-1) pi^(r-3)/d^2, d = K-1/2 resp. K, from the family's sharp
    # floor on; below it (r-1)! e replaces r-1
    sharp = K >= _sharp_floor("odd" if r % 2 == 0 else "even", r // 2)
    c = (r - 1) * _PI ** (r - 3) if sharp else math.factorial(r - 1) * _E * _PI ** (r - 3)
    d = K - 0.5 if r % 2 == 0 else K
    return r * sigma ** r / _PI ** r * sup_bound * c / d ** 2


def _derivatives(f: BandlimitedFn, r: int, xs, tol: float,
                 k_terms: Optional[int]):
    """f^(r) at every x in xs by the local orbit engine, and each point's
    certificate (module docstring): one call of f on a table of about 50
    translates per x at tol 1e-6, 2^17 entries at 2 400 points."""
    xs = np.asarray(xs, dtype=float).reshape(-1)
    if not np.all(np.isfinite(xs)):
        raise ValueError("evaluation point must be finite")

    def table(ns, dts):  # row n: f(x - dt) = f(x + n h) for every x, from one call of f
        return np.asarray(f((xs - dts[:, None]).ravel()), dtype=float).reshape(ns.size, xs.size)

    sums, cert = _orbit_sum(table, np.zeros(xs.size), f.sup_bound, r, 0.0, f.sigma, tol, k_terms,
                            origin=float(np.max(np.abs(xs), initial=0.0)))
    return sums, np.full(xs.size, cert)


def boas_derivative(f: BandlimitedFn, r: int, x: float, tol: float = 1e-6,
                    k_terms: Optional[int] = None) -> float:
    """r-th derivative of f at x by the local engine (module docstring): an
    error of at most tol, or half-width N = ``k_terms`` when it is pinned.
    ``boas_derivative_fast`` is this function.  Raises ToleranceError, with
    the achievable tol, below the rounding floor.
    """
    if r < 1:
        raise ValueError("derivative order must be >= 1")
    # the engine checks r too, but only after f's rate and bound are read
    return float(_derivatives(f, _check_order(r), [x], tol, k_terms)[0][0])


boas_derivative_fast = boas_derivative


def bernstein_ratio(f: BandlimitedFn, m: int, p: float, grid: np.ndarray,
                    tol: float = 1e-6) -> float:
    """Estimate ||f^(m)||_p / ||f||_p on an evaluation grid.

    Derivatives come from :func:`boas_derivative`; norms are grid maxima for
    p = inf and left-endpoint quadrature otherwise.  For type-sigma inputs the
    estimate never exceeds sigma^m beyond grid/quadrature slack.
    """
    if m < 1:
        raise ValueError("derivative order must be >= 1")
    if p not in (1, 2, math.inf):
        raise ValueError("p must be 1, 2, or inf")
    grid = np.asarray(grid, dtype=float)
    if grid.size < 8 or np.any(~np.isfinite(grid)):
        raise ValueError("degenerate evaluation grid")
    dx = np.diff(grid)
    if p != math.inf and np.any(dx <= 0.0):
        raise ValueError("grid must be strictly increasing")
    dvals = _derivatives(f, m, grid, tol, None)[0]
    fvals = np.asarray(f(grid), dtype=float)
    if p == math.inf:
        denom = float(np.max(np.abs(fvals)))
        if denom == 0.0:
            raise ValueError("f vanishes on the grid")
        return float(np.max(np.abs(dvals))) / denom
    num = float(np.sum(np.abs(dvals[:-1]) ** p * dx)) ** (1.0 / p)
    den = float(np.sum(np.abs(fvals[:-1]) ** p * dx)) ** (1.0 / p)
    if den == 0.0:
        raise ValueError("f vanishes on the grid")
    return num / den
