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
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import ToleranceError
from .sampling import BandlimitedFn
from .sinckernel import (
    MAX_HALFWIDTH,
    _sharp_floor,
    boas_coefficient,
    boas_coefficient_grid,
    coefficient_halfwidth,
    coefficient_tail_bound,
)

_PI = math.pi
_E = math.e


def truncation_halfwidth(variant: str, r: int, sigma: float, sup_bound: float,
                         tol: float) -> int:
    """Smallest series half-width K whose rigorous tail bound is <= tol.

    variant is "standard" (k^-2 weights) or "fast" (k^-3 weights).  The bound
    multiplies the coefficient-tail majorant by the formula prefactor and the
    sup bound of f; it is monotone in K, so the inversion is explicit.
    """
    if r < 1:
        raise ValueError("derivative order must be >= 1")
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    M = max(sup_bound, 0.0)
    if M == 0.0:
        return 1
    if variant == "standard":
        m = (r + 1) // 2
        parity = "odd" if r % 2 else "even"
        scale = (sigma / _PI) ** r * M
        return coefficient_halfwidth(parity, m, tol / scale)
    if variant != "fast":
        raise ValueError(f"variant must be 'standard' or 'fast', got {variant!r}")
    if r % 2 == 0:
        # sum_{|k|>K} |a(m,k)/(k-1/2)| <= (2m-1) pi^(2m-3) / (K-1/2)^2
        m = r // 2
        pref = 2 * m * sigma ** (2 * m) / _PI ** (2 * m) * M
        c = (2 * m - 1) * _PI ** (2 * m - 3)
        K = max(1, int(math.ceil(math.sqrt(pref * c / tol) + 0.5)))
        return max(K, _sharp_floor("odd", m))
    # odd fast: sum_{|k|>K} |b(m,k)/k| <= 2m pi^(2m-2) / K^2
    m = (r - 1) // 2
    if m < 1:
        raise ValueError("fast variant needs order >= 2")
    pref = (2 * m + 1) * sigma ** (2 * m + 1) / _PI ** (2 * m + 1) * M
    c = 2 * m * _PI ** (2 * m - 2)
    K = max(1, int(math.ceil(math.sqrt(pref * c / tol))))
    return max(K, _sharp_floor("even", m))


def series_tail_bound(variant: str, r: int, sigma: float, sup_bound: float,
                      halfwidth: int) -> float:
    """Certified bound on the omitted part of the derivative series."""
    K = int(halfwidth)
    if variant == "standard":
        m = (r + 1) // 2
        parity = "odd" if r % 2 else "even"
        return (sigma / _PI) ** r * sup_bound * coefficient_tail_bound(parity, m, K)
    if variant != "fast":
        raise ValueError(f"variant must be 'standard' or 'fast', got {variant!r}")
    if r % 2 == 0:
        m = r // 2
        pref = 2 * m * sigma ** (2 * m) / _PI ** (2 * m) * sup_bound
        c = (2 * m - 1) * _PI ** (2 * m - 3) if K >= _sharp_floor("odd", m) \
            else math.factorial(2 * m - 1) * _E * _PI ** (2 * m - 3)
        return pref * c / (K - 0.5) ** 2
    m = (r - 1) // 2
    pref = (2 * m + 1) * sigma ** (2 * m + 1) / _PI ** (2 * m + 1) * sup_bound
    c = 2 * m * _PI ** (2 * m - 2) if K >= _sharp_floor("even", m) \
        else math.factorial(2 * m) * _E * _PI ** (2 * m - 2)
    return pref * c / K ** 2


def _resolve_halfwidth(variant: str, r: int, f: BandlimitedFn, tol: float,
                       k_terms: Optional[int]) -> int:
    if k_terms is not None:
        if k_terms < 1:
            raise ValueError("k_terms must be >= 1")
        return int(k_terms)
    K = truncation_halfwidth(variant, r, f.sigma, f.sup_bound, tol)
    if K > MAX_HALFWIDTH:
        tail = series_tail_bound(variant, r, f.sigma, f.sup_bound, MAX_HALFWIDTH)
        raise ToleranceError(
            f"tol {tol:.3e} needs half-width {K} > {MAX_HALFWIDTH}",
            achievable=tail)
    return K


#: shifted samples per block of the row evaluator
_ROW_BLOCK = 1 << 17


def _boas_rows(f: BandlimitedFn, r: int, xs: np.ndarray, K: int) -> np.ndarray:
    """The standard series of half-width K at every x in xs.

    The weights are built once; f is evaluated on a flat array per block of
    points, and each point's row of 2K shifted samples is summed on its own,
    so a value does not depend on which other points share its block.
    """
    sigma = f.sigma
    ks = np.arange(1, K + 1)
    odd = r % 2 == 1
    m = (r + 1) // 2
    w = (-1.0) ** (ks + 1) * boas_coefficient_grid("odd" if odd else "even", m, ks)
    # odd: the partner index 1-k carries the same weight with opposite sign
    shifts = _PI * (ks - 0.5) / sigma if odd else _PI * ks / sigma
    out = np.empty(xs.size)
    rows = max(1, _ROW_BLOCK // K)
    for i in range(0, xs.size, rows):
        x = xs[i:i + rows, None]
        plus = np.asarray(f((x + shifts).ravel()), dtype=float).reshape(-1, K)
        minus = np.asarray(f((x - shifts).ravel()), dtype=float).reshape(-1, K)
        out[i:i + rows] = np.sum(w * (plus - minus if odd else plus + minus), axis=1)
    if not odd:
        out -= boas_coefficient("even", m, 0) * np.asarray(f(xs), dtype=float)
    return (sigma / _PI) ** r * out


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
    K = _resolve_halfwidth("standard", r, f, tol, k_terms)
    return float(_boas_rows(f, r, np.array([float(x)]), K)[0])


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
    t = float(t)
    K = _resolve_halfwidth("fast", r, f, tol, k_terms)
    sigma = f.sigma
    ks = np.arange(1, K + 1)
    if r % 2 == 0:
        m = r // 2
        coeffs = boas_coefficient_grid("odd", m, ks) / (ks - 0.5)
        signs = (-1.0) ** (ks + 1)
        shifts = _PI * (ks - 0.5) / sigma
        # weight at 1-k equals the weight at k with the same sign: both the
        # coefficient and the divisor flip parity together
        pair = signs * coeffs * (np.asarray(f(t + shifts), dtype=float)
                                 + np.asarray(f(t - shifts), dtype=float))
        series = 2 * m * sigma ** (2 * m) / _PI ** (2 * m) * float(np.sum(pair))
        const = (-1.0) ** m * sigma ** (2 * m) * float(np.asarray(f(t), dtype=float))
        return const + series
    m = (r - 1) // 2
    if f.deriv_eval is None:
        raise ValueError("odd-order fast formula consumes f'(t): deriv_eval required")
    coeffs = boas_coefficient_grid("even", m, ks) / ks
    signs = (-1.0) ** (ks + 1)
    shifts = _PI * ks / sigma
    pair = signs * coeffs * (np.asarray(f(t + shifts), dtype=float)
                             - np.asarray(f(t - shifts), dtype=float))
    series = (2 * m + 1) * sigma ** (2 * m + 1) / _PI ** (2 * m + 1) * float(np.sum(pair))
    b0 = boas_coefficient("even", m, 0)
    dterm = -(2 * m + 1) * sigma ** (2 * m) / _PI ** (2 * m) * b0 \
        * float(np.asarray(f.deriv_eval(t), dtype=float))
    return dterm + series


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
    dvals = _boas_rows(f, m, grid, _resolve_halfwidth("standard", m, f, tol, None))
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
