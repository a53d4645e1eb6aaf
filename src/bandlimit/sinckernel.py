"""Normalized sinc kernel, its derivatives of all orders, the regularized
kernel and the one local engine built on it.

Conventions:
    sinc(x) = sin(pi x) / (pi x),  sinc(0) = 1

so that sinc(k) = delta_{k0} on the integers.  Every formula in this library
uses the normalized kernel; the unnormalized sin(x)/x never appears.

Derivatives have the closed form, for x != 0 and w = 1/(pi x),

    sinc^(m)(x) = (-1)^m m! pi^m
                  * ( sin(pi x) * sum_{v=0..floor(m/2)}    (-1)^v w^(m+1-2v)/(2v)!
                    - cos(pi x) * sum_{v=0..floor((m-1)/2)} (-1)^v w^(m-2v)  /(2v+1)! ),

the classical form with both sums divided by (pi x)^(m+1).  Near the origin
it cancels catastrophically, so for |x| < 0.15 m evaluation switches to
Gauss-Legendre quadrature of sinc^(m)(x) = int_0^1 (pi t)^m cos(pi t x +
m pi/2) dt (see ``_QUAD_SLOPE``).

On the integer lattice every entry of sum_k c_k sinc^(m)(u - k) shares one
sine, sin(pi (u - k)) = (-1)^(n0 - k) sin(pi (u - n0)); ``_lattice_series``
sums the whole-window series that way, with sinc^(m) itself only on the
2m+3 entries nearest to u, and for long windows at many points takes the
far band from box expansions (``_box_moments``).  Every engine sums the
derivative orders 0..MAX_ORDER (``_check_order``).

For oversampled data the regularized kernel sinc(x) exp(-alpha x^2/N) is
local: ``regularized_sinc_grid`` gives its derivatives,
``regularized_sinc_certificate`` the certified error of the series built on
it, which reads 2N+1 samples per point, and ``regularized_halfwidth`` the
smallest N that certificate allows.  ``_local_series`` is the one routine
that sums that series, for sampled data, orbits and the derivatives of
:mod:`bandlimit.boas` alike; it builds each row only on the band whose
left-out weights ``_band_tail`` bounds.

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

#: sinc^(m) for m >= 1 and |x| < _QUAD_SLOPE*m is taken from
#:     sinc^(m)(x) = int_0^1 (pi t)^m cos(pi t x + m pi/2) dt
#: by Gauss-Legendre on [0, 1], and from the closed form elsewhere.  The
#: closed form is within 1e-12 pi^m/(m+1) beyond about m/8 for every m <= 20
#: and cancels below it; the nodes integrate t^m cos(pi t x) for |x| <= 3 to
#: full precision.
_QUAD_SLOPE = 0.15
_QUAD_NODES = 48

#: largest half-width the local engine sizes, and truncation_halfwidth
#: for the paper's series
MAX_HALFWIDTH = 2_000_000

#: half-widths up to which the N search with sample-point rounding (the Boas
#: path) charges that rounding with the computed sum |w| of each candidate
#: row; at alpha = pi/4 the truncation bound at N = 128 is below 1e-38 for
#: every order r <= 8
_SIZED_ROWS = 128

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
    with np.errstate(invalid="ignore"):  # inf - inf
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
    with np.errstate(invalid="ignore", over="ignore"):  # 0/0 at 0, sin(inf): set below
        out = np.sin(_PI * x, out=np.empty_like(x))
        out /= _PI * x
    out[near] = r[near] == 0.0  # 1 at 0, 0 at the other integers and at +-inf
    return out


def _closed_grid(m: int, x: np.ndarray) -> np.ndarray:
    # both sums by Horner's rule in w^2, w = 1/(pi x), so no power of x is
    # formed; where pi x overflows (|x| > 5.7e307 or infinite) w = 0 and the
    # trig argument is set to 0, which gives the limit 0
    with np.errstate(over="ignore"):
        px = _PI * x
    w = 1.0 / px
    px[np.isinf(px)] = 0.0
    w2 = w * w
    s1, s2 = np.zeros_like(x), np.zeros_like(x)
    for k in range(m + 1):  # (-1)^(k//2) w^(m+1-k)/k!: even k to s1, odd k to s2
        s = s2 if k % 2 else s1
        if k > 1:
            s *= w2
        s += (-1.0) ** (k // 2) / math.factorial(k)
    if m % 2:  # the sum whose last k is m - 1 starts at w^2
        s1 *= w
    else:
        s2 *= w
    s1 *= np.sin(px)
    s2 *= np.cos(px)
    s1 -= s2
    s1 *= w
    s1 *= (-1.0) ** m * math.factorial(m) * _PI ** m
    return s1


def sinc_derivative(m: int, x: float) -> float:
    """m-th derivative of the normalized sinc at a real point: the scalar form
    of :func:`sinc_derivative_grid`.  sinc_derivative(0, x) == sinc(x)."""
    return float(sinc_derivative_grid(m, np.array([_require_finite(x)]))[0])


def sinc_derivative_grid(m: int, x) -> np.ndarray:
    """Vectorized sinc^(m) over an array of real points.

    sinc_grid at m = 0.  For m >= 1, two rules: Gauss-Legendre quadrature
    for |x| < 0.15 m, where the closed form would cancel, and the closed
    form in powers of 1/(pi x) elsewhere, which forms no power of x and so
    is finite at every finite x.  Both are within 1e-10 pi^m/(m+1) for
    m <= 20; other orders raise ValueError (:func:`_check_order`).  Every
    order is 0.0, its limit, at +-inf.
    """
    m = _check_order(m)
    x = np.asarray(x, dtype=float)
    if m == 0:
        return sinc_grid(x)
    out = np.empty_like(x)
    near = np.abs(x) < _QUAD_SLOPE * m
    for part, branch in ((near, _quad_grid), (~near, _closed_grid)):
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
# cardinal sums on the integer lattice
# ---------------------------------------------------------------------------

#: entries per block of every engine temporary (512 KiB of float64), which
#: moves no value (rows are summed on their own, in a fixed order); and
#: lattice indices per far-band piece: a summation order, not a block
_BLOCK_ENTRIES = 1 << 16
_LATTICE_PIECE = 1 << 16


def _block_rows(width: int) -> int:
    """Rows of ``width`` entries in one block: at least one."""
    return max(1, _BLOCK_ENTRIES // max(width, 1))


def _row_sums(points: int, width: int, block_sums) -> np.ndarray:
    """block_sums(slice) per block of rows of ``width``, each summed alone."""
    out = np.empty(points)
    rows = _block_rows(width)
    for i in range(0, points, rows):
        out[i:i + rows] = block_sums(slice(i, i + rows))
    return out


#: the largest derivative order any engine sums: _WEIGHT_ERR and the
#: quadrature switch hold for m <= 20 (and the box terms are derived up to it)
MAX_ORDER = 20


def _check_order(m: int) -> int:
    """m as an int, or ValueError naming the range 0..MAX_ORDER."""
    if not 0 <= m <= MAX_ORDER:
        raise ValueError(f"derivative order must be in 0..{MAX_ORDER}, got {m}")
    return int(m)


#: box far field of _lattice_series: a point sums its own box of B lattice
#: indices and _BOX_NEAR boxes on each side directly; every other box has
#: its center at |u - center| >= (2 _BOX_NEAR + 1) R, R = B/2, so its
#: expansion converges at the ratio R/|u - center| <= _BOX_RATIO
_BOX_NEAR = 2
_BOX_RATIO = 1.0 / (2 * _BOX_NEAR + 1)

#: lattice indices per box (more than MAX_ORDER + 1, so a near band never
#: leaves a point's direct rows), and the cost of one numpy call in
#: element passes (one multiply over one entry: about 0.7 ns, and a call
#: about 0.5-3 us, measured on blocks of 2^16 entries)
_BOX_SIZE = 256
_BOX_CALL = 1000


@functools.cache
def _box_terms(m: int) -> int:
    """Least P with sum_{q >= P} C(m + q, q) rho^q <= 2^-53, rho = _BOX_RATIO.
    The terms fall by the ratio (m + q + 1) rho/(q + 1) from term q on once
    it is below 1, and that ratio falls with q, so the tail is at most its
    first term over 1 minus its ratio."""
    P = 1
    while True:
        ratio = (m + P + 1) * _BOX_RATIO / (P + 1)
        if ratio < 1.0 and math.comb(m + P, P) * _BOX_RATIO ** P / (1.0 - ratio) <= _UNIT:
            return P
        P += 1


def _box_path(m: int, points: int, length: int) -> bool:
    """Whether the box far field of :func:`_lattice_series` takes fewer
    element passes than the direct sum, for boxes of _BOX_SIZE indices.

    The counts come from the call's shape alone (not from the block size,
    so that no value depends on it).  Direct: 3 + 2m passes per point and
    window entry (a subtraction, a division, a row sum and a multiply and a
    sum per further power).  Box: 7 + 2m per point and direct-row entry
    (the row's lattice indices and a gather on top), per point and far box
    5 passes and a P-step Horner sum of 2 passes a step for each of the
    m + 1 orders, per window entry 2P + 3 for the moments and their set-up,
    and _BOX_CALL per numpy call."""
    B, P = _BOX_SIZE, _box_terms(m)
    boxes = -(-length // B)
    if boxes <= 2 * _BOX_NEAR + 1:
        return False
    box = (points * ((2 * _BOX_NEAR + 1) * B * (7 + 2 * m)
                     + boxes * (5 + (m + 1) * (2 * P + 4)))
           + length * (2 * P + 3) + _BOX_CALL * (50 + (2 * m + 4) * P))
    return box < points * length * (3 + 2 * m)


def _add_far_moments(moments, d, a, at, t, m: int) -> None:
    """moments[p] += each row's sum of a/d^(p+1), p = 0..m, for the offsets
    d = u - k of a block of rows and the weights a = (-1)^k c_k, leaving
    out the entries ``at`` (the near band): one division per entry and one
    multiply per further power.  d is overwritten; t is scratch of d's
    shape, and may be a itself."""
    d[at] = 1.0  # zeroed below
    np.divide(a, d, out=t)
    t[at] = 0.0
    moments[0] += np.sum(t, axis=1)
    if m:
        np.divide(1.0, d, out=d)
    for p in range(1, m + 1):
        t *= d
        moments[p] += np.sum(t, axis=1)


def _direct_moments(m: int, u, c, k_min: int, inside, col, r_dtype) -> np.ndarray:
    """The far-band moments over the whole window, piece by piece
    (_LATTICE_PIECE), each piece for a block of points; ``inside`` marks
    the near-band entries in the window and ``col`` their window columns."""
    moments = np.zeros((m + 1, u.size), dtype=r_dtype)
    for lo in range(0, c.size, _LATTICE_PIECE):
        a = c[lo:lo + _LATTICE_PIECE].copy()
        a[(k_min + lo + 1) % 2::2] *= -1.0  # (-1)^k c_k
        ks = np.arange(k_min + lo, k_min + lo + a.size, dtype=float)
        rows = _block_rows(a.size)
        d_rows = np.empty((min(rows, u.size), a.size), dtype=r_dtype)
        t_rows = np.empty_like(d_rows)
        for i in range(0, u.size, rows):
            n = min(rows, u.size - i)
            d = d_rows[:n]
            np.subtract(u[i:i + n, None], ks, out=d)
            j = col[i:i + n] - lo  # the block's near band, in piece columns
            at = np.nonzero(inside[i:i + n] & (j >= 0) & (j < a.size))
            _add_far_moments(moments[:, i:i + n], d, a, (at[0], j[at]), t_rows[:n], m)
    return moments


def _box_moments(m: int, u, n0, c, k_min: int) -> np.ndarray:
    """The far-band moments of real points by boxes of B = _BOX_SIZE lattice
    indices.

    Box b holds k = k_min + b B + i, i < B, about its center
    k_min + b B + (B - 1)/2, with R = B/2.  A point whose n0 lies in box j
    sums boxes j - _BOX_NEAR .. j + _BOX_NEAR entry by entry, as the direct
    path does (u - k with k an exact integer-valued float, the near band
    left out).  Every other box is at x = u - center with |R/x| <=
    _BOX_RATIO, and with nu_q = sum_i (-1)^k c_k ((k - center)/R)^q, q < P,

        sum_i (-1)^k c_k (u - k)^-p = x^-p sum_q C(p - 1 + q, q) nu_q (R/x)^q

    to within sum_i |c_k| |x|^-p 2^-53 (:func:`_box_terms`), summed by
    Horner's rule.  Each nu_q is a row sum of the boxes' entries times
    y^q, y = (k - center)/R, the powers taken by running products: a fixed
    summation order, which a matrix product (its order set by the BLAS
    build) would not give."""
    B, P = _BOX_SIZE, _box_terms(m)
    near_boxes = 2 * _BOX_NEAR + 1
    width = near_boxes * B
    boxes = -(-c.size // B)
    # the window's (-1)^k c_k between near_boxes boxes of zeros on each side
    a = np.zeros((boxes + 2 * near_boxes) * B)
    a[width:width + c.size] = c
    a[width + (k_min + 1) % 2:width + c.size:2] *= -1.0
    terms = a[width:width + boxes * B].reshape(boxes, B).copy()
    y = (np.arange(B) - (B - 1) / 2.0) / (B / 2.0)
    nu = np.empty((P, boxes))
    for q in range(P):
        nu[q] = np.sum(terms, axis=1)
        terms *= y
    coef = np.array([[math.comb(p + q, q) for q in range(P)] for p in range(m + 1)],
                    dtype=float)[:, :, None] * nu  # (m + 1, P, boxes)
    own = np.clip(np.floor((n0 - k_min) / B), -_BOX_NEAR - 1, boxes + _BOX_NEAR)
    moments = np.zeros((m + 1, u.size))
    # direct rows, near_boxes boxes long: box own - _BOX_NEAR is box
    # own + _BOX_NEAR + 1 of the padded window
    first = (own + _BOX_NEAR + 1).astype(np.intp)
    rows_of_a = np.lib.stride_tricks.as_strided(
        a, shape=(boxes + near_boxes + 1, width), strides=(B * a.itemsize, a.itemsize),
        writeable=False)
    span = np.arange(width, dtype=float)
    reach = np.arange(-m - 1, m + 2)
    rows = _block_rows(width)
    d_rows = np.empty((min(rows, u.size), width))
    for i in range(0, u.size, rows):
        b = slice(i, i + rows)
        n = first[b].size
        k0 = k_min + (first[b] - near_boxes) * float(B)  # each row's first k
        d = np.add(k0[:, None], span, out=d_rows[:n])
        np.subtract(u[b, None], d, out=d)
        pos = (n0[b] - k0)[:, None] + reach  # the near band, in row columns
        at = np.nonzero((pos >= 0) & (pos < width))
        a_b = rows_of_a[first[b]]
        _add_far_moments(moments[:, b], d, a_b, (at[0], pos[at].astype(np.intp)), a_b, m)
    centers = k_min + B * np.arange(boxes) + (B - 1) / 2.0
    rows = _block_rows(boxes)
    for i in range(0, u.size, rows):
        b = slice(i, i + rows)
        far = np.abs(np.arange(boxes) - own[b, None]) > _BOX_NEAR
        inv = np.divide(1.0, u[b, None] - centers, out=np.zeros(far.shape), where=far)
        t = inv * (B / 2.0)
        power = inv.copy()
        for p in range(m + 1):
            s = np.empty_like(t)
            s[:] = coef[p, P - 1]
            for q in range(P - 2, -1, -1):
                s *= t
                s += coef[p, q]
            s *= power
            moments[p, b] += np.sum(s, axis=1)
            power *= inv
    return moments


def _lattice_series(m: int, u, c, k_min: int) -> np.ndarray:
    """sum_k c[k - k_min] sinc^(m)(u - k) over the lattice indices
    k_min <= k < k_min + len(c), for each point of the 1-D array u (real,
    or complex for m = 0); m is at most MAX_ORDER.

    With n0 = round(Re u) and r = u - n0, every entry shares one sine:
    sin(pi (u - k)) = (-1)^(n0 - k) sin(pi r), and likewise the cosine.
    The near band |k - n0| <= m + 1 (2m + 3 entries per point, clipped to
    the window) goes through :func:`sinc_derivative_grid` as it is.  In the
    far band the closed form of sinc^(m) reduces to

        (-1)^(m + n0) m!/pi sum_{j=0..m} (-1)^(j//2) pi^j/j! T_j M_(m+1-j),
        T_j = sin(pi r) (j even), -cos(pi r) (j odd),

    with the alternating moments M_p = sum_k (-1)^k c_k (u - k)^-p: one
    division per entry and one multiply per further power, and no trig.
    There |u - k| >= m + 3/2, so each entry's terms fall with p and do not
    cancel.  At m = 0 a real lattice point gives its coefficient bit for
    bit: sin(pi r) = 0 makes the far band exactly 0, and the node sits in
    the near band, so nothing is divided by 0.

    The moments come from one of two paths, chosen by :func:`_box_path`
    from the number of points, the window length and m alone: the direct
    sum over the whole window, piece by piece (_LATTICE_PIECE), or, for
    real points where its operation count is lower, the box far field of
    :func:`_box_moments`, which sums (2 _BOX_NEAR + 1) _BOX_SIZE entries per
    point and takes the rest from each box's P moments.  Complex points
    take the direct path.  On either path each row is summed on its own,
    so a point's value depends neither on the block size nor, once the path
    is chosen, on the other points of the call.
    """
    m = _check_order(m)
    u = np.asarray(u)
    c = np.asarray(c, dtype=float)
    n0 = np.rint(u.real)
    r = u - n0
    band = n0[:, None] + np.arange(-m - 1, m + 2)
    inside = (band >= k_min) & (band < k_min + c.size)
    col = np.where(inside, band - k_min, 0).astype(np.intp)
    x = u[:, None] - band
    kern = sinc_grid(x) if np.iscomplexobj(x) else sinc_derivative_grid(m, x)
    near = np.sum(np.where(inside, c[col], 0.0) * kern, axis=1)
    if not np.iscomplexobj(u) and _box_path(m, u.size, c.size):
        moments = _box_moments(m, u, n0, c, k_min)
    else:
        moments = _direct_moments(m, u, c, k_min, inside, col, r.dtype)
    sin_r, cos_r = np.sin(_PI * r), np.cos(_PI * r)
    far = np.zeros_like(moments[0])
    for j in range(m + 1):
        trig = sin_r if j % 2 == 0 else -cos_r
        far += (-1.0) ** (j // 2) * _PI ** j / math.factorial(j) * trig * moments[m - j]
    far *= (1.0 - 2.0 * ((n0 + m) % 2)) * math.factorial(m) / _PI
    return near + far


# ---------------------------------------------------------------------------
# regularized cardinal kernel: sinc times a Gaussian
# ---------------------------------------------------------------------------

#: unit roundoff of float64
_UNIT = 2.0 ** -53

#: Cramer's inequality |H_j(y)| exp(-y^2/2) <= _CRAMER sqrt(2^j j!)
_CRAMER = 1.0865

#: error of a computed weight of order 0, 1, 2 and >= 3 relative to its
#: magnitude bound: a few ulps for sinc itself; sinc^(m) was measured within
#: 8.9e-16 and 1.22e-15 times pi^m/(m+1) of a 50-digit reference for m = 1
#: and 2 (m = 1 at the switch x = 0.15, m = 2 on the quadrature branch, x
#: near 0.075), and within 3.2e-14 times it for 3 <= m <= 20 (2.3e-15 for
#: m = 3; the largest at m = 20, |x| near 3.04), within 0.25 of the switch,
#: on |x| <= 8 and, against a 60-digit closed form, on 8 <= |x| <= 200; the
#: budget is at least five times that (11, 5.4 and 9 times)
_WEIGHT_ERR = (8 * _UNIT, 1e-14, 6.5e-15, 2.9e-13)


def regularized_sinc_grid(m: int, x, N, alpha: float) -> np.ndarray:
    """m-th derivative of the regularized kernel sinc(x) exp(-alpha x^2/N)
    at an array of real offsets x; N is an integer, or an array that
    broadcasts against x and gives each weight its own half-width.

    Leibniz over sinc^(m-j) and the Gaussian's derivatives
    (-sqrt(c))^j H_j(sqrt(c) x) exp(-c x^2), c = alpha/N, with the
    physicists' Hermite polynomials from H_(j+1) = 2y H_j - 2j H_(j-1).  For
    m = 0 the weights are exactly 1 at x = 0 and 0 at the other integers.
    """
    m = _check_order(m)
    x = np.asarray(x, dtype=float)
    c = alpha / np.asarray(N, dtype=float)
    total = sinc_derivative_grid(m, x)
    y = np.sqrt(c) * x
    h_prev, h_j = np.ones_like(x), 2.0 * y
    for j in range(1, m + 1):
        coeff = math.comb(m, j) * (-np.sqrt(c)) ** j
        total = total + coeff * h_j * sinc_derivative_grid(m - j, x)
        h_prev, h_j = h_j, 2.0 * y * h_j - 2.0 * j * h_prev
    return total * np.exp(-c * x * x)


def _hermite_terms(m: int, c):
    # the Leibniz terms j >= 1 of sup |d^m (sinc G)|, G = exp(-c x^2):
    # |sinc^(k)| <= pi^k/(k+1), and by Cramer
    # |G^(j)(x)| <= _CRAMER sqrt(2^j j!) c^(j/2) exp(-c x^2/2)
    for j in range(1, m + 1):
        yield (math.comb(m, j) * _PI ** (m - j) / (m - j + 1) * _CRAMER
               * math.sqrt(2.0 ** j * math.factorial(j)) * c ** (j / 2))


def _weight_bound(m: int, N, alpha: float):
    # sup |d^m (sinc G)|: pi^m/(m+1) for j = 0, then the Hermite terms
    total = _PI ** m / (m + 1)
    for term in _hermite_terms(m, alpha / np.asarray(N, dtype=float)):
        total = total + term
    return total


#: the part of the fetch rule's 2^-53 sum |w| that the offsets left out of a
#: row's band may weigh, for rows with sum |w| >= 1/2
_BAND_SHARE = 2.0 ** -10


def _band_tail(r: int, N: int, alpha: float, D: int) -> float:
    """Bound on sum |w_n| over the offsets D < |n - n0| <= N of a row of
    order r, for every point (|u - n0| <= 1/2).

    There |x| = |u - n| >= z = D + 1/2, and by Leibniz, |sinc^(k)| <=
    pi^k/(k+1) and Cramer's inequality on the Gaussian's Hermite factors,
    |w(x)| <= A exp(-c x^2) + B exp(-c x^2/2), c = alpha/N, A = pi^r/(r+1)
    and B the Hermite terms of :func:`_weight_bound`.  That bound falls in
    |x|, so each side weighs at most its value at z plus its integral past
    z, with int_z^inf exp(-a x^2) dx <= exp(-a z^2)/(2 a z).
    """
    c = alpha / N
    z = D + 0.5
    lead = _PI ** r / (r + 1) * math.exp(-c * z * z) * (1.0 + 1.0 / (2.0 * c * z))
    herm = sum(_hermite_terms(r, c)) * math.exp(-0.5 * c * z * z) * (1.0 + 1.0 / (c * z))
    return 2.0 * (lead + herm)


def _band_halfwidth(r: int, N: int, alpha: float) -> int:
    """Smallest band half-width D <= N whose :func:`_band_tail` is at most
    _BAND_SHARE 2^-53 / 2, by bisection (the tail falls with D; D = N
    leaves nothing out)."""
    target = _BAND_SHARE * _UNIT * 0.5
    lo, hi = 0, N
    while lo < hi:
        mid = (lo + hi) // 2
        if _band_tail(r, N, alpha, mid) <= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


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
    m = _check_order(m)
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
    for the points u[b] (b a slice) the lattice index n0 - D of each row's
    first column, the offsets d = u - n and weights w (one row per point
    over |n - n0| <= D, in sample units: no h^-r) and each point's
    certificate in h^-r units: the :func:`regularized_sinc_certificate`
    plus the dropped |w|, and the band tail, times ``bound``.  A caller
    bounds its memory by building the rows in blocks.

    Every row keeps the band |n - n0| <= D, D the smallest half-width
    whose :func:`_band_tail`, a bound on the |w| of the offsets left out, is
    at most 2^-64: 2^-10 of the fetch rule's 2^-53 sum |w| for any row with
    sum |w| >= 1/2.  Every row with D < N has that sum: at r = 0, D < N
    needs alpha N >= 65 ln 2 (the tail at D = N - 1 is at least
    2 exp(-alpha N)), so the weight at n0 alone is at least
    sinc(1/2) exp(-alpha/(4N)) > 0.62 (alpha < pi/2), and for r >= 1 the
    computed sums are at least pi^r/4 (held by a test over offsets, alpha
    and r <= 8).  So the band costs O(D) per row, the fetch rule sees the same
    weights up to that margin, and the tail is charged to the certificate.
    At alpha = pi/4 and N = 4096, D is 495 for r = 0 and 673-690 for
    r = 1..3, where the Gaussian factor leaves about 3 940 offsets live;
    an N sized by a tol sits where D = N.

    Stored samples are exact; with ``origin`` they are f(x + n h),
    |x| <= |origin|, at points rounded twice (n h, then the sum), so each
    moves by at most 2^-52 (|origin| + (|n0| + N + 1) h) and its value by
    that times the Bernstein bound (pi - 2 alpha) bound / h (``bound`` then
    bounds |f| on the line); certificate and N search count that times
    sum |w|.
    """
    r = _check_order(r)
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
        if not tol > 0.0:
            raise ValueError("tolerance must be positive")
        u_max, sin_max = float(np.max(np.abs(u))), float(np.max(sin_abs))
        reach_max = float(np.max(reach))

        def sized(ns):
            # sum |w| is at most (2N+1) W_r (1 + weight error), the dropped
            # |w| at most 2^-53 times that and a band's tail at most 2^-64:
            # below 2^-52 (2N+1) W_r, as W_r >= 1
            wsum = (2 * ns + 1) * _weight_bound(r, ns, alpha)
            return (cert(ns, u_max, sin_max) + 2.0 * _UNIT * wsum * bound / scale
                    + (0.0 if origin is None else slope * (reach_max + ns) * abs_sums(ns, wsum)))

        def abs_sums(ns, wsum):
            # the computed sum |w| of the worst row at each N <= _SIZED_ROWS;
            # past it, where no reachable tol needs N, the bound, so that the
            # search of an unreachable tol still ends
            out = wsum * (1.0 + _WEIGHT_ERR[min(r, 3)])
            few = ns[ns <= _SIZED_ROWS]
            if few.size:
                n = np.arange(-few[-1], few[-1] + 1)
                w = regularized_sinc_grid(r, offset[:, None, None] - n, few[:, None], alpha)
                w[:, np.abs(n) > few[:, None]] = 0.0
                out[:few.size] = np.max(np.sum(np.abs(w), axis=2), axis=0)
            return out

        N = regularized_halfwidth(sized, tol, room)

    D = _band_halfwidth(r, N, alpha)
    tail = 0.0 if D == N else _band_tail(r, N, alpha, D)

    def rows(b: slice):
        d = offset[b, None] - np.arange(-D, D + 1)
        w = regularized_sinc_grid(r, d, N, alpha)
        dropped = _drop_small(w) + tail
        moved = 0.0 if origin is None else slope * (reach[b] + N) * np.sum(np.abs(w), axis=1)
        return (n0[b] - D, d, w,
                cert(N, np.abs(u[b]), sin_abs[b]) + dropped * bound / scale + moved)

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
