"""Differentiation of bandlimited functions by shifted-sample series.

For f of exponential type sigma, every derivative is a weighted sum of
translates of f itself:

    odd order r = 2m-1, half-integer shifts:
        f^(r)(x) = (sigma/pi)^r sum_k (-1)^(k+1) a(m,k) f(x + pi(k-1/2)/sigma)
    even order r = 2m, integer shifts:
        f^(r)(x) = (sigma/pi)^r sum_k (-1)^(k+1) b(m,k) f(x + pi k/sigma)

with the weights of :mod:`bandlimit.sinckernel` (decay k^-2).  Faster
variants trade a constant/derivative term for k^-3 weights:

    even order 2m:
        f^(2m)(t) = (-1)^m sigma^(2m) f(t)
                    + (2m sigma^(2m)/pi^(2m)) sum_k (-1)^(k+1)
                      a(m,k)/(k-1/2) f(t + pi(k-1/2)/sigma)
    odd order 2m+1:
        f^(2m+1)(t) = -((2m+1) sigma^(2m)/pi^(2m)) b(m,0) f'(t)
                      + ((2m+1) sigma^(2m+1)/pi^(2m+1)) sum_{k!=0} (-1)^(k+1)
                        b(m,k)/k f(t + pi k/sigma)

Truncation is always symmetric (k paired with 1-k for odd orders, k with -k
for even orders) so that the alternating cancellations behind the formulas
hold exactly for partial sums; a constant input is annihilated by every
even-order partial sum up to its alternating tail, and by every odd-order
partial sum exactly.

Every variant and parity is one table on the same engine: shifts s_k and
weights w_k for k = 1..K, the pairing f(x + s_k) - f(x - s_k) for odd orders
and f(x + s_k) + f(x - s_k) for even ones, a prefactor, and a multiple of
f(x) or f'(x).  One row sum evaluates any table at an array of points, in
blocks of 2^15 shifts so that memory does not grow with K, and K is the
smallest half-width whose :func:`series_tail_bound` meets tol.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import ToleranceError
from .sampling import _VT_BLOCK, BandlimitedFn, _row_sums
from .sinckernel import (
    MAX_HALFWIDTH,
    _sharp_floor,
    boas_coefficient,
    boas_coefficient_grid,
    coefficient_tail_bound,
)

_PI = math.pi
_E = math.e


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
    lo, hi = 0, MAX_HALFWIDTH  # the tail meets tol at hi, not at lo (0: none)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if series_tail_bound(variant, r, sigma, sup_bound, mid) <= tol:
            hi = mid
        else:
            lo = mid
    return hi


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


def _table(variant: str, r: int, sigma: float, k0: int, k1: int):
    """The shifts and weights of one formula for k0 <= k < k1, its prefactor,
    and its local term (c, deriv, inside) or None: c f(x), or c f'(x) when
    deriv, added before the prefactor when inside and after it otherwise.
    Odd orders pair f(x + s_k) - f(x - s_k), even orders f(x + s_k) + f(x - s_k).

    Half-integer shifts carry the a(m, k) family, integer shifts b(m, k); the
    fast weights divide by the shift index.  The partner of k (1 - k or -k)
    carries the weight of k, with the sign of the pairing.
    """
    half = (r % 2 == 1) == (variant == "standard")
    m = (r + 1) // 2 if variant == "standard" else r // 2
    ks = np.arange(k0, k1)
    j = ks - 0.5 if half else ks
    coeffs = boas_coefficient_grid("odd" if half else "even", m, ks)
    signs = np.ones(ks.size)
    signs[k0 % 2::2] = -1.0  # (-1)^(k+1), -1 at the even k
    shifts = _PI * j / sigma
    if variant == "standard":
        local = None if half else (-boas_coefficient("even", m, 0), False, True)
        return shifts, signs * coeffs, (sigma / _PI) ** r, local
    if half:
        local = ((-1.0) ** m * sigma ** r, False, False)
    else:
        b0 = boas_coefficient("even", m, 0)
        local = (-r * sigma ** (r - 1) / _PI ** (r - 1) * b0, True, False)
    return shifts, signs * (coeffs / j), r * sigma ** r / _PI ** r, local


def _shifted_series(f: BandlimitedFn, variant: str, r: int, xs: np.ndarray,
                    tol: float, k_terms: Optional[int]) -> np.ndarray:
    """One formula at every x in xs, at half-width ``k_terms`` or the
    smallest K whose tail meets tol.

    f is evaluated on a flat array per block of _VT_BLOCK shifts and of
    points; each point's partial rows are summed on their own, so a value
    does not depend on its block's other points, and added in block order.
    """
    if k_terms is not None:
        if k_terms < 1:
            raise ValueError("k_terms must be >= 1")
        K = int(k_terms)
    else:
        K = truncation_halfwidth(variant, r, f.sigma, f.sup_bound, tol)
    odd = r % 2 == 1

    def rows(b, shifts, w):
        x = xs[b, None]
        plus = np.asarray(f((x + shifts).ravel()), dtype=float).reshape(-1, shifts.size)
        minus = np.asarray(f((x - shifts).ravel()), dtype=float).reshape(-1, shifts.size)
        return np.sum(w * (plus - minus if odd else plus + minus), axis=1)

    for k0 in range(1, K + 1, _VT_BLOCK):
        shifts, w, scale, local = _table(variant, r, f.sigma, k0, min(k0 + _VT_BLOCK, K + 1))
        part = _row_sums(xs.size, shifts.size, lambda b: rows(b, shifts, w))
        out = part if k0 == 1 else out + part  # not 0.0 + part: -0.0 stays
    if local is None:
        return scale * out
    c, deriv, inside = local
    term = c * np.asarray((f.deriv_eval if deriv else f)(xs), dtype=float)
    return scale * (out + term) if inside else scale * out + term


def boas_derivative(f: BandlimitedFn, r: int, x: float, tol: float = 1e-6,
                    k_terms: Optional[int] = None) -> float:
    """r-th derivative of f at x by the shifted-sample series.

    The half-width is the smallest K whose certified tail
    (coefficient tail) * (sigma/pi)^r * sup_bound falls below tol, unless
    ``k_terms`` pins it explicitly.  Raises ToleranceError when no admissible
    K exists.
    """
    if r < 1:
        raise ValueError("derivative order must be >= 1")
    return float(_shifted_series(f, "standard", r, np.array([float(x)]), tol, k_terms)[0])


def boas_derivative_fast(f: BandlimitedFn, r: int, t: float, tol: float = 1e-6,
                         k_terms: Optional[int] = None) -> float:
    """r-th derivative (r >= 2) with O(k^-3) weights.

    Even orders consume only f; the derivation of the constant term shows it
    multiplies f(t) (the bare printed constant is the f = cos special case;
    cross-checks against :func:`boas_derivative` falsify the bare form on
    generic inputs, so the f(t)-weighted form is implemented).  Odd orders
    consume f'(t) literally and therefore require ``deriv_eval``.
    """
    if r < 2:
        raise ValueError("fast variant needs order >= 2")
    if r % 2 == 1 and f.deriv_eval is None:
        raise ValueError("odd-order fast formula consumes f'(t): deriv_eval required")
    return float(_shifted_series(f, "fast", r, np.array([float(t)]), tol, k_terms)[0])


def bernstein_ratio(f: BandlimitedFn, m: int, p: float, grid: np.ndarray,
                    tol: float = 1e-6) -> float:
    """Estimate ||f^(m)||_p / ||f||_p on an evaluation grid.

    Derivatives come from :func:`boas_derivative`; norms are grid maxima for
    p = inf and left-endpoint quadrature otherwise.  For type-sigma inputs the
    estimate never exceeds sigma^m beyond grid/quadrature slack.
    """
    if m < 1:
        raise ValueError("derivative order must be >= 1")
    grid = np.asarray(grid, dtype=float)
    if grid.size < 8 or np.any(~np.isfinite(grid)):
        raise ValueError("degenerate evaluation grid")
    dvals = _shifted_series(f, "standard", m, grid, tol, None)
    fvals = np.asarray(f(grid), dtype=float)
    if p == math.inf:
        denom = float(np.max(np.abs(fvals)))
        if denom == 0.0:
            raise ValueError("f vanishes on the grid")
        return float(np.max(np.abs(dvals))) / denom
    if p not in (1, 2, 1.0, 2.0):
        raise ValueError("p must be 1, 2, or inf")
    dx = np.diff(grid)
    if np.any(dx <= 0.0):
        raise ValueError("grid must be strictly increasing")
    num = float(np.sum(np.abs(dvals[:-1]) ** p * dx)) ** (1.0 / p)
    den = float(np.sum(np.abs(fvals[:-1]) ** p * dx)) ** (1.0 / p)
    if den == 0.0:
        raise ValueError("f vanishes on the grid")
    return num / den
