"""Normalized sinc kernel, its derivatives of all orders, the regularized
kernel and the one local engine built on it.

Conventions:
    sinc(x) = sin(pi x) / (pi x),  sinc(0) = 1

so that sinc(k) = delta_{k0} on the integers.  Every formula in this library
uses the normalized kernel; the unnormalized sin(x)/x never appears.

Derivatives have the closed form, for x != 0,

    sinc^(m)(x) = ((-1)^m m! / (pi x^(m+1)))
                  * ( sin(pi x) * sum_{v=0..floor(m/2)}   (-1)^v (pi x)^(2v) /(2v)!
                    - cos(pi x) * sum_{v=0..floor((m-1)/2)}(-1)^v (pi x)^(2v+1)/(2v+1)! )

continuously extended by sinc^(m)(0) = 0 for odd m and
(-1)^(m/2) pi^m / (m+1) for even m.  Near the origin the closed form cancels
catastrophically, so evaluation switches to the termwise-differentiated power
series of sinc (see ``_SERIES_RADIUS``).

For oversampled data the regularized kernel sinc(x) exp(-alpha x^2/N) is
local: ``regularized_sinc_grid`` gives its derivatives,
``regularized_sinc_certificate`` the certified error of the series built on
it, which reads 2N+1 samples per point, and ``regularized_halfwidth`` the
smallest N that certificate allows.  ``_local_series`` is the one routine
that sums that series, for sampled data, orbits and the derivatives of
:mod:`bandlimit.boas` alike.

The paper's Boas formulas weigh translates of f by the families

    a(m, k) = (-1)^(k+1) sinc^(2m-1)(1/2 - k),  b(m, k) = (-1)^(k+1) sinc^(2m)(-k),

with sum_k |a(m, k)| = pi^(2m-1) and sum_k |b(m, k)| = pi^(2m);
``coefficient_tail_bound`` bounds their tails.

All functions here are pure and safe to share across threads.
"""

from __future__ import annotations

import functools
import math
from typing import Literal, Optional

import numpy as np

from .errors import ToleranceError

Parity = Literal["odd", "even"]

#: series/closed-form switch radius; 12 series terms keep the truncation
#: remainder below 1e-16 for every order m <= 20 inside this radius.
_SERIES_RADIUS = 0.05
_SERIES_TERMS = 12

#: from order _QUAD_MIN_ORDER on, sinc^(m) between the series radius and
#: _QUAD_SLOPE*m is taken from
#:     sinc^(m)(x) = int_0^1 (pi t)^m cos(pi t x + m pi/2) dt
#: by Gauss-Legendre on [0, 1].  The closed form is within 1e-12 pi^m/(m+1)
#: beyond about m/8 for every m <= 20 (for m = 2, 3 it cancels by two and
#: three digits just past the series radius); the nodes integrate
#: t^m cos(pi t x) for |x| <= 3 to full precision.
_QUAD_MIN_ORDER = 2
_QUAD_SLOPE = 0.15
_QUAD_NODES = 48

#: largest half-width the local engine sizes, and truncation_halfwidth
#: for the paper's series
MAX_HALFWIDTH = 2_000_000

_E = math.e
_PI = math.pi


def _require_finite(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"argument must be finite, got {x!r}")
    return x


def sinc(x: float) -> float:
    """Normalized sinc, sin(pi x)/(pi x), with the removable singularity filled.

    Exact special values: sinc(0) = 1.0 and sinc(k) = 0.0 for every nonzero
    integer k.  Arguments within a few ulps of an integer are snapped onto it
    first (lattice coordinates are typically produced as (k h)/h, which can be
    off by one rounding), so sample nodes behave exactly like Kronecker nodes.
    """
    return float(sinc_grid(_require_finite(x)))


def _snap_mask(x: np.ndarray):
    # round(x), and where x is within 8 ulps of it (ulps of max(1, |x|)) or infinite
    r = np.round(x)
    return r, (np.abs(x - r) <= 16.0 * _UNIT * np.maximum(1.0, np.abs(x))) | np.isinf(x)


def _snap_grid(x: np.ndarray) -> np.ndarray:
    r, near = _snap_mask(x)
    return np.where(near, r, x)


def sinc_grid(x) -> np.ndarray:
    """Vectorized normalized sinc with exact zeros at the nonzero integers.

    Real arguments within a few ulps of an integer, or infinite, count as
    that integer (:func:`_snap_mask`); complex arguments are taken as given.
    """
    x = np.asarray(x)
    if np.iscomplexobj(x):
        r = np.round(x.real)
        near = x == r
    else:
        x = x.astype(float, copy=False)
        r, near = _snap_mask(x)
    with np.errstate(invalid="ignore"):  # 0/0 at 0 and sin(inf), set below
        out = np.sin(_PI * x, out=np.empty_like(x))
        out /= _PI * x
    out[near] = r[near] == 0.0  # 1 at 0, 0 at the other integers and at +-inf
    return out


def _series_coeff(m: int, j: int) -> float:
    # d^m/dx^m of (-1)^j (pi x)^(2j)/(2j+1)! evaluated coefficientwise
    return ((-1.0) ** j * _PI ** (2 * j) / math.factorial(2 * j + 1)
            * math.factorial(2 * j) / math.factorial(2 * j - m))


def _series_grid(m: int, x: np.ndarray) -> np.ndarray:
    j0 = (m + 1) // 2
    total = np.zeros_like(x)
    for i in range(_SERIES_TERMS):
        j = j0 + i
        total += _series_coeff(m, j) * x ** (2 * j - m)
    return total


def _closed_grid(m: int, x: np.ndarray) -> np.ndarray:
    # both sums by Horner's rule in (pi x)^2, x^(m+1) by a running product
    px = _PI * x
    s1, s2, xm = np.zeros_like(x), np.zeros_like(x), np.ones_like(x)
    for k in range(m, -1, -1):  # (-1)^(k//2) (pi x)^k/k!: even k to s1, odd k to s2/(pi x)
        s = s2 if k % 2 else s1
        if k < m - 1:
            s *= px * px
        s += (-1.0) ** (k // 2) / math.factorial(k)
        xm *= x
    s1 *= np.sin(px)
    s2 *= px
    s2 *= np.cos(px)
    s1 -= s2
    return np.divide((-1.0) ** m * math.factorial(m), np.multiply(xm, _PI, out=xm), out=xm) * s1


def sinc_derivative(m: int, x: float) -> float:
    """m-th derivative of the normalized sinc at a real point: the scalar form
    of :func:`sinc_derivative_grid`.  sinc_derivative(0, x) == sinc(x)."""
    return float(sinc_derivative_grid(m, np.array([_require_finite(x)]))[0])


def sinc_derivative_grid(m: int, x) -> np.ndarray:
    """Vectorized sinc^(m) over an array of real points.

    Power series for |x| < 0.05, closed form elsewhere; for m >= 2 the
    Gauss-Legendre branch covers |x| < 0.15 m, where the closed form would
    cancel.  Every branch is within 1e-10 pi^m/(m+1) for m <= 20.
    """
    if m < 0:
        raise ValueError("derivative order must be >= 0")
    x = np.asarray(x, dtype=float)
    if m == 0:
        return sinc_grid(x)
    out = np.empty_like(x)
    small = np.abs(x) < _SERIES_RADIUS
    mid = ~small & (np.abs(x) < (_QUAD_SLOPE * m if m >= _QUAD_MIN_ORDER else 0.0))
    for part, branch in ((small, _series_grid), (mid, _quad_grid), (~(small | mid), _closed_grid)):
        if part.any():
            out[part] = branch(m, x[part])
    return out


@functools.cache
def _gauss_legendre01(n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [0, 1], by
    Golub-Welsch: the eigenpairs of the Legendre Jacobi matrix.  Built on
    first use, so importing the module calls no LAPACK routine."""
    j = np.arange(1, n)
    off = np.diag(j / np.sqrt(4.0 * j * j - 1.0), 1)
    t, v = np.linalg.eigh(off + off.T)
    return 0.5 * (t + 1.0), v[0] ** 2


def _quad_grid(m: int, x: np.ndarray) -> np.ndarray:
    # cos(theta + m pi/2) written as +-cos or +-sin so odd orders stay odd
    t, w = _gauss_legendre01(_QUAD_NODES)
    phase = np.multiply.outer(x, _PI * t)
    trig = np.cos(phase) if m % 2 == 0 else np.sin(phase)
    sign = (1.0, -1.0, -1.0, 1.0)[m % 4]
    return sign * np.sum(trig * (w * (_PI * t) ** m), axis=1)


# ---------------------------------------------------------------------------
# regularized cardinal kernel: sinc times a Gaussian
# ---------------------------------------------------------------------------

#: unit roundoff of float64
_UNIT = 2.0 ** -53

#: Cramer's inequality |H_j(y)| exp(-y^2/2) <= _CRAMER sqrt(2^j j!)
_CRAMER = 1.0865

#: error of a computed weight of order 0, 1, 2 and >= 3 relative to its
#: magnitude bound: a few ulps for sinc itself; sinc^(m) was measured within
#: 2.0e-15 and 1.3e-15 times pi^m/(m+1) of a 50-digit reference for m = 1
#: and 2, and within 5.8e-14 times it for 3 <= m <= 20 (2.3e-15 for m = 3;
#: the largest at m = 19, |x| near 2.9), on the series and quadrature
#: switches, |x| <= 8 and |x| up to 200; the budget is five times that
_WEIGHT_ERR = (8 * _UNIT, 1e-14, 6.5e-15, 2.9e-13)


def regularized_sinc_grid(m: int, x, N: int, alpha: float) -> np.ndarray:
    """m-th derivative of the regularized kernel sinc(x) exp(-alpha x^2/N)
    at an array of real offsets x.

    Leibniz over sinc^(m-j) and the Gaussian's derivatives
    (-sqrt(c))^j H_j(sqrt(c) x) exp(-c x^2), c = alpha/N, with the
    physicists' Hermite polynomials from H_(j+1) = 2y H_j - 2j H_(j-1).  For
    m = 0 the weights are exactly 1 at x = 0 and 0 at the other integers.
    Where exp(-c x^2) underflows to 0.0 the weight is 0.0 and the sinc and
    Hermite factors are not evaluated.
    """
    if m < 0:
        raise ValueError("derivative order must be >= 0")
    x = np.asarray(x, dtype=float)
    c = alpha / N
    gauss = np.exp(-c * x * x)
    live = gauss != 0.0
    if not live.all():
        out = np.zeros_like(x)
        out[live] = regularized_sinc_grid(m, x[live], N, alpha)
        return out
    total = sinc_derivative_grid(m, x)
    y = math.sqrt(c) * x
    h_prev, h_j = np.ones_like(x), 2.0 * y
    for j in range(1, m + 1):
        coeff = math.comb(m, j) * (-math.sqrt(c)) ** j
        total = total + coeff * h_j * sinc_derivative_grid(m - j, x)
        h_prev, h_j = h_j, 2.0 * y * h_j - 2.0 * j * h_prev
    return total * gauss


def _weight_bound(m: int, N, alpha: float):
    # sup |d^m (sinc G)|: |sinc^(k)| <= pi^k/(k+1), and by Cramer
    # sup |G^(j)| <= _CRAMER sqrt(2^j j!) (alpha/N)^(j/2) for j >= 1
    c = alpha / np.asarray(N, dtype=float)
    total = _PI ** m / (m + 1)
    for j in range(1, m + 1):
        total = total + (math.comb(m, j) * _PI ** (m - j) / (m - j + 1) * _CRAMER
                         * math.sqrt(2.0 ** j * math.factorial(j)) * c ** (j / 2))
    return total


def _strip_log_bound(N, alpha: float, rho):
    """log of a bound, per unit sup|g| on the real line, on
    |g(v) - sum_{|n-n0|<=N} g(n) sinc(v-n) exp(-alpha (v-n)^2/N)| for every
    v with |Im v| <= rho and |Re v - n0| <= 1/2 + rho (0 <= rho < N/2),
    g of exponential type pi - 2 alpha.  README "Numerical notes" derives it
    from the contour integral of g(z) G(z-v) / (sin(pi z) (z-v))."""
    a = alpha
    d = N - rho
    log_sin = _PI * rho + np.log1p(np.exp(-2.0 * _PI * rho)) - math.log(2.0)
    log_lead = log_sin + a * rho * rho / N - math.log(2.0 * _PI)
    log_horiz = (math.log(4.0) + 0.5 * np.log(_PI * N / a) - a * N + 2.0 * a * rho
                 - np.log(-np.expm1(-2.0 * _PI * N)) - np.log(d))
    log_vert = (math.log(8.0 / a) - a * d * d / N - np.log(d)
                - np.log1p(-4.0 * rho * rho / (N * N)))
    return log_lead + np.logaddexp(log_horiz, log_vert)


def regularized_sinc_certificate(m: int, N, alpha: float, sample_bound: float,
                                 u, sin_factor=1.0):
    """Certified error of the computed regularized series of order m, in
    sample units (derivatives in u = x/h), with g of type pi - 2 alpha.

    ``sample_bound`` S bounds |g(n)| on every integer n.  The sup of |g| on
    the real line is taken from it as M = Lambda_N S / (1 - eps_N), with the
    Lebesgue bound Lambda_N = 2 + (2/pi) H_N and eps_N the truncation bound
    for m = 0 (infinite when eps_N >= 1).  The certificate is the sum of

    * truncation: for m = 0, sin_factor (|sin pi u| at a real point) times
      2 M beta_N e^(-alpha N) / sqrt(pi alpha N), beta_N = 1 + 1/(e^(2 pi N)
      - 1) + 2/sqrt(pi alpha N); for m >= 1, Cauchy's estimate m! rho^-m
      times the complex strip bound, minimized over rho in (0, N/2);
    * rounding of the weights and of the sum of 2N+1 products,
      (2N+1) W_m S (weight error + (2N+4) unit roundoffs), W_m the sup of
      the weight;
    * the move of the evaluation point by the rounding and snapping of u,
      17 unit roundoffs times max(1, |u|) times the Bernstein bound
      (pi - 2 alpha)^(m+1) M on g^(m+1).

    N may be an array (with u and sin_factor scalars), or u and sin_factor
    arrays (with N an integer).
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive: the samples must be oversampled")
    n = np.asarray(N, dtype=float)
    if np.any(n < 1):
        raise ValueError("half-width N must be >= 1")
    eps0 = np.exp(_strip_log_bound(n, alpha, 0.0))
    # H_N <= ln N + gamma + 1/(2N)
    lebesgue = 2.0 + 2.0 / _PI * (np.log(n) + 0.5772156649015329 + 0.5 / n)
    # where eps0 >= 1 the certificate is infinite (the last line)
    sup = lebesgue * sample_bound / (1.0 - np.minimum(eps0, 0.5))
    if m == 0:
        trunc = np.asarray(sin_factor) * eps0
    else:
        # 64 Cauchy radii, geometric from 0.01 to 0.475 N
        rho = 0.01 * (47.5 * n[..., None]) ** np.linspace(0.0, 1.0, 64)
        log_cauchy = math.lgamma(m + 1) - m * np.log(rho) + _strip_log_bound(
            n[..., None], alpha, rho)
        trunc = np.exp(np.min(log_cauchy, axis=-1))
    rounding = ((2.0 * n + 1.0) * _weight_bound(m, n, alpha) * sample_bound
                * (_WEIGHT_ERR[min(m, 3)] + (2.0 * n + 4.0) * _UNIT))
    move = 17.0 * _UNIT * np.maximum(1.0, np.abs(u)) * (_PI - 2.0 * alpha) ** (m + 1)
    return np.where(eps0 < 1.0, sup * (trunc + move) + rounding, math.inf)


def regularized_halfwidth(cert, tol: float, room: int = MAX_HALFWIDTH) -> int:
    """Smallest half-width N <= room whose certificate cert(N) is <= tol.

    ``cert`` maps an array of half-widths to the caller's certificates (its
    worst point's :func:`regularized_sinc_certificate`, in its own units).
    N = 1, 2, ... are tried in growing blocks until one meets tol or the
    certificate turns up with its rounding term.  When no N <= room meets
    tol, ToleranceError carries the least certificate at N <= room as
    ``achievable``.
    """
    c = cert(np.arange(1, 33))
    while c.size < MAX_HALFWIDTH and not (np.any(c <= tol) or c[-1] > 2.0 * np.min(c)):
        c = np.append(c, cert(c.size + np.arange(1, min(c.size, 4096) + 1)))
    hit = np.flatnonzero(c <= tol)
    N = int(hit[0]) + 1 if hit.size else None
    if N is None or N > room:
        best_n = int(np.argmin(c[:room])) + 1 if room >= 1 else 0
        best = float(c[best_n - 1]) if best_n else math.inf
        need = (f"needs N = {N} samples on each side, but has only {max(room, 0)}"
                if N is not None else "cannot reach tol at any N")
        raise ToleranceError(
            f"regularized series {need}; achievable tol {best:.3e} (N = {best_n})",
            achievable=best)
    return N


def _drop_small(w: np.ndarray) -> np.ndarray:
    """Set to 0.0, in each row of w, the smallest |w| (exact zeros first)
    while their running sum stays at or below 2^-53 sum |w|; returns each
    row's sum of the dropped |w|.  When every row's smallest nonzero |w|
    exceeds twice that (a margin for the order of summation), only zeros
    drop and nothing is sorted."""
    a = np.abs(w)
    if np.all(np.min(np.where(a > 0.0, a, np.inf), axis=1) > 2.0 * _UNIT * np.sum(a, axis=1)):
        w[a == 0.0] = 0.0
        return np.zeros(len(w))
    order = np.argsort(a, axis=1, kind="stable")
    run = np.cumsum(np.take_along_axis(a, order, axis=1), axis=1)
    drop = run <= _UNIT * run[:, -1:]
    w[np.nonzero(drop)[0], order[drop]] = 0.0
    return np.max(run * drop, axis=1)  # run grows: its last dropped entry


def _local_series(r: int, u, alpha: float, bound: float, h: float, tol: float,
                  k_terms: Optional[int] = None, room: int = MAX_HALFWIDTH,
                  origin: Optional[float] = None):
    """The regularized series of order r at lattice coordinates u, the one
    local engine of sampled data, orbits and the Boas formulas:

        f^(r)(u h) ~= h^-r sum_{|n - n0| <= N} w_n f(n h),
        w_n = d^r/du^r [sinc(u - n) exp(-alpha (u - n)^2 / N)],  n0 = round(u),

    for samples f(n h) bounded by ``bound``, f of type (pi - 2 alpha)/h.
    N is ``k_terms`` when given, else the smallest half-width <= ``room``
    whose certificate at the worst point, with room for the dropped
    weights, is <= tol (h^-r units).  In each row the fetch rule of
    :func:`_drop_small` sets the smallest weights to 0.0; callers fetch a
    sample only where its weight is nonzero.

    Returns N, sized once on all the points, and ``rows(b)``, which builds
    for the points u[b] (b a slice) n0, the offsets d = u - n and weights
    w (one row of 2N+1 per point, in sample units: no h^-r) and each
    point's certificate in h^-r units: the
    :func:`regularized_sinc_certificate` plus the dropped |w| times
    ``bound``.  A caller bounds its memory by building the rows in blocks.
    Stored samples are exact; with ``origin`` they are f(x + n h),
    |x| <= |origin|, at points rounded twice (n h, then the sum), so each
    moves by at most 2^-52 (|origin| + (|n0| + N + 1) h) and its value by
    that times the Bernstein bound (pi - 2 alpha) bound / h (``bound`` then
    bounds |f| on the line); certificate and N search count that times
    sum |w|.
    """
    u = _snap_grid(np.asarray(u, dtype=float).reshape(-1))
    n0 = np.rint(u)
    offset = u - n0
    sin_abs = np.abs(np.sin(_PI * offset)) if r == 0 else np.ones(u.size)
    scale = h ** r
    # sample error per unit sum |w| and per step of reach (0.0: exact samples)
    slope = 0.0 if origin is None else 2.0 * _UNIT * (_PI - 2.0 * alpha) * bound / scale
    reach = (0.0 if origin is None else abs(origin) / h) + np.abs(n0) + 1.0

    def cert(ns, u_abs, sin_factor):
        return regularized_sinc_certificate(r, ns, alpha, bound, u=u_abs,
                                            sin_factor=sin_factor) / scale

    if k_terms is not None:
        if k_terms < 1:
            raise ValueError("k_terms must be >= 1")
        N = int(k_terms)
    else:
        if tol <= 0.0:
            raise ValueError("tolerance must be positive")
        u_max, sin_max = float(np.max(np.abs(u))), float(np.max(sin_abs))
        reach_max = float(np.max(reach))

        def sized(ns):
            # sum |w| is at most (2N+1) W_r (1 + weight error), and the
            # dropped |w| at most 2^-53 times that, below 2^-52 (2N+1) W_r
            wsum = (2 * ns + 1) * _weight_bound(r, ns, alpha)
            return (cert(ns, u_max, sin_max) + 2.0 * _UNIT * wsum * bound / scale
                    + slope * (reach_max + ns) * wsum * (1.0 + _WEIGHT_ERR[min(r, 3)]))

        N = regularized_halfwidth(sized, tol, room)

    def rows(b: slice):
        d = offset[b, None] - np.arange(-N, N + 1)
        w = regularized_sinc_grid(r, d, N, alpha)
        dropped = _drop_small(w)
        moved = 0.0 if origin is None else slope * (reach[b] + N) * np.sum(np.abs(w), axis=1)
        return n0[b], d, w, cert(N, np.abs(u[b]), sin_abs[b]) + dropped * bound / scale + moved

    return N, rows


# ---------------------------------------------------------------------------
# tails of the coefficient families of the paper's shifted-sample series
# ---------------------------------------------------------------------------

def _sharp_floor(parity: Parity, m: int) -> int:
    # the inner alternating sums have increasing term magnitudes once the
    # argument passes sqrt of the top factorial ratio; beyond that index the
    # whole sum is bounded by its largest term
    if parity == "odd":
        if m == 1:
            return 1
        return max(1, int(math.ceil(math.sqrt((2 * m - 2) * (2 * m - 3)) / _PI + 0.5)))
    return max(1, int(math.ceil(math.sqrt((2 * m - 1) * (2 * m - 2)) / _PI)))


def coefficient_tail_bound(parity: Parity, m: int, halfwidth: int) -> float:
    """Rigorous bound on sum_{|k| > halfwidth} |coefficient|.

    The inner sums of the coefficient formulas alternate with increasing term
    magnitudes once pi^2 (k - 1/2)^2 >= (2m-2)(2m-3) (odd family) resp.
    pi^2 k^2 >= (2m-1)(2m-2) (even family), so they are bounded by their last
    term there.  That yields the sharp-constant majorants

        |a(m, k)| <= (2m-1) pi^(2m-3) / (k - 1/2)^2
        |b(m, k)| <= 2m pi^(2m-2) / k^2

    whose k^(-2) sums compare with integrals:

        tail_a(K) <= 2 (2m-1) pi^(2m-3) / (K - 1/2)
        tail_b(K) <= 4 m pi^(2m-2) / K.

    Below the validity floor a crude e-factorial majorant
    ((2m-1)! e resp. (2m)! e in place of the sharp constant) takes over.
    """
    if parity not in ("odd", "even"):
        raise ValueError(f"parity must be 'odd' or 'even', got {parity!r}")
    if m < 1:
        raise ValueError("half-order m must be >= 1")
    K = int(halfwidth)
    if K < 1:
        raise ValueError("halfwidth must be >= 1")
    if parity == "odd":
        coarse = 2.0 * math.factorial(2 * m - 1) * _E * _PI ** (2 * m - 3) / (K - 0.5)
        if K >= _sharp_floor("odd", m):
            return min(coarse, 2.0 * (2 * m - 1) * _PI ** (2 * m - 3) / (K - 0.5))
        return coarse
    coarse = 2.0 * math.factorial(2 * m) * _E * _PI ** (2 * m - 2) / K
    if K >= _sharp_floor("even", m):
        return min(coarse, 4.0 * m * _PI ** (2 * m - 2) / K)
    return coarse


def snap_integer(u: float) -> float:
    """Collapse u onto the nearest integer when it differs only by rounding.

    Lattice coordinates are often produced as (k*h)/h; snapping restores the
    exact Kronecker behavior of the kernel at sample nodes.
    """
    return float(_snap_grid(np.float64(u)))
