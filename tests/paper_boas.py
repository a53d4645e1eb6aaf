"""The paper's shifted-sample series for f^(r), as the library summed them
before the local engine: a test oracle.

For f of exponential type sigma, every derivative is a weighted sum of
translates of f itself:

    odd order r = 2m-1, half-integer shifts:
        f^(r)(x) = (sigma/pi)^r sum_k (-1)^(k+1) a(m,k) f(x + pi(k-1/2)/sigma)
    even order r = 2m, integer shifts:
        f^(r)(x) = (sigma/pi)^r sum_k (-1)^(k+1) b(m,k) f(x + pi k/sigma)

with the weight families below (decay k^-2).  The fast variants trade a
term in f(t) or f'(t) for k^-3 weights:

    even order 2m:
        f^(2m)(t) = (-1)^m sigma^(2m) f(t)
                    + (2m sigma^(2m)/pi^(2m)) sum_k (-1)^(k+1)
                      a(m,k)/(k-1/2) f(t + pi(k-1/2)/sigma)
    odd order 2m+1:
        f^(2m+1)(t) = -((2m+1) sigma^(2m)/pi^(2m)) b(m,0) f'(t)
                      + ((2m+1) sigma^(2m+1)/pi^(2m+1)) sum_{k!=0} (-1)^(k+1)
                        b(m,k)/k f(t + pi k/sigma)

Truncation is symmetric (k paired with 1-k for odd orders, k with -k for
even ones), so a constant input is annihilated by every odd-order partial
sum exactly.  K is the smallest half-width whose certified tail
(``bandlimit.boas.series_tail_bound``) meets tol, or ``k_terms``; the
shifts are walked in blocks of 2^15 so that memory does not grow with K.
"""

import math

import numpy as np

from bandlimit.boas import truncation_halfwidth
from bandlimit.sampling import _row_sums

PI = math.pi

#: shifts per block of the series
BLOCK = 1 << 15


def boas_coefficient(parity, m, k):
    """Weight attached to shift index k in the order-(2m-1) or order-2m
    formula: a(m, k) for parity "odd", b(m, k) for "even", including the
    central value b(m, 0) = (-1)^(m+1) pi^(2m)/(2m+1).  Bit-identical to
    :func:`boas_coefficient_grid` at one point.

        a(m, k) = (2m-1)! / (pi (k-1/2)^(2m))
                  * sum_{j=0..m-1} (-1)^j (pi (k-1/2))^(2j) / (2j)!
        b(m, k) = (2m)! / (pi k^(2m+1))
                  * sum_{j=0..m-1} (-1)^j (pi k)^(2j+1) / (2j+1)!

    equivalently a(m, k) = (-1)^(k+1) sinc^(2m-1)(1/2 - k) and
    b(m, k) = (-1)^(k+1) sinc^(2m)(-k), with sum_k |a(m, k)| = pi^(2m-1)
    and sum_k |b(m, k)| = pi^(2m).
    """
    return float(boas_coefficient_grid(parity, m, np.array([int(k)]))[0])


def boas_coefficient_grid(parity, m, ks):
    """Vectorized :func:`boas_coefficient` over an integer array."""
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    if m < 1:
        raise ValueError("half-order m must be >= 1")
    ks = np.asarray(ks)
    if parity == "odd":
        y = ks - 0.5
        s = np.zeros_like(y, dtype=float)
        for j in range(m):
            s += (-1.0) ** j * (PI * y) ** (2 * j) / math.factorial(2 * j)
        return math.factorial(2 * m - 1) / (PI * y ** (2 * m)) * s
    out = np.empty(ks.shape, dtype=float)
    zero = ks == 0
    out[zero] = (-1.0) ** (m + 1) * PI ** (2 * m) / (2 * m + 1)
    kn = ks[~zero].astype(float)
    s = np.zeros_like(kn)
    for j in range(m):
        s += (-1.0) ** j * (PI * kn) ** (2 * j + 1) / math.factorial(2 * j + 1)
    out[~zero] = math.factorial(2 * m) / (PI * kn ** (2 * m + 1)) * s
    return out


def table(variant, r, sigma, k0, k1):
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
    shifts = PI * j / sigma
    if variant == "standard":
        local = None if half else (-boas_coefficient("even", m, 0), False, True)
        return shifts, signs * coeffs, (sigma / PI) ** r, local
    if half:
        local = ((-1.0) ** m * sigma ** r, False, False)
    else:
        b0 = boas_coefficient("even", m, 0)
        local = (-r * sigma ** (r - 1) / PI ** (r - 1) * b0, True, False)
    return shifts, signs * (coeffs / j), r * sigma ** r / PI ** r, local


def shifted_series(f, variant, r, xs, tol, k_terms):
    """One formula at every x in xs, at half-width ``k_terms`` or the
    smallest K whose tail meets tol.

    f is evaluated on a flat array per block of BLOCK shifts and of
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

    for k0 in range(1, K + 1, BLOCK):
        shifts, w, scale, local = table(variant, r, f.sigma, k0, min(k0 + BLOCK, K + 1))
        part = _row_sums(xs.size, shifts.size, lambda b: rows(b, shifts, w))
        out = part if k0 == 1 else out + part  # not 0.0 + part: -0.0 stays
    if local is None:
        return scale * out
    c, deriv, inside = local
    term = c * np.asarray((f.deriv_eval if deriv else f)(xs), dtype=float)
    return scale * (out + term) if inside else scale * out + term


def paper_boas_derivative(f, r, x, tol=1e-6, k_terms=None):
    """f^(r)(x) by the standard series (k^-2 weights)."""
    if r < 1:
        raise ValueError("derivative order must be >= 1")
    return float(shifted_series(f, "standard", r, np.array([float(x)]), tol, k_terms)[0])


def paper_boas_derivative_fast(f, r, t, tol=1e-6, k_terms=None):
    """f^(r)(t), r >= 2, by the fast series (k^-3 weights).  Even orders
    consume only f; the constant term multiplies f(t) (the bare printed
    constant is the f = cos special case).  Odd orders consume f'(t) and
    therefore require ``deriv_eval``."""
    if r < 2:
        raise ValueError("fast variant needs order >= 2")
    if r % 2 == 1 and f.deriv_eval is None:
        raise ValueError("odd-order fast formula consumes f'(t): deriv_eval required")
    return float(shifted_series(f, "fast", r, np.array([float(t)]), tol, k_terms)[0])
