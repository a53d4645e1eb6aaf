"""Reconstruction of bandlimited functions from uniform samples.

A function of exponential type sigma that is bounded on the real line is
determined by its samples on the lattice k*pi/sigma.  This module implements:

* cardinal-series reconstruction of the function and its derivatives from
  uniform samples (``wks_eval_grid``, scalar ``wks_eval``) with a certified
  tail: the whole-window series for decaying samples at the critical rate,
  and the local regularized series (sinc times a Gaussian, 2N+1 samples per
  point) for oversampled samples;
* the Valiron/Tschakaloff expansion for merely bounded functions, whose
  extra 1/k factor restores convergence (``valiron_tschakaloff_eval``);
* the finite Riesz interpolation sum for trigonometric polynomial
  derivatives (``riesz_trig_derivative``).

The reconstruction grid is always x_k = k*h, and one rule sets its rate:
critical when |h sigma - pi| <= 1e-12 pi, oversampled below that, and
undersampled, refused by every series, above it.  Oversampled, a Gaussian
multiplier makes the kernel local, and bounded, non-decaying samples
suffice.  At the critical rate a decay certificate on the samples is
required, otherwise reconstruction is refused as unsound.
Valiron/Tschakaloff and its tail take that rate only, and the same points
u = z/h: those with min(-k_min, k_max) >= 2|u|.

The two whole-window sums, critical-rate reconstruction and
Valiron/Tschakaloff, are taken by the lattice kernel
:func:`~bandlimit.sinckernel._lattice_series` (one sine per point, and
sinc^(m) only on the 2m+3 entries nearest to u; the far band of a long
window at many real points from box expansions).  Derivative orders run
0..20.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .errors import ReconstructionUnsoundError, ToleranceError
from .grouporbit import _weighted_sum
from .sinckernel import (
    _UNIT,
    _WEIGHT_ERR,
    _box_path,
    _check_order,
    _lattice_series,
    _local_series,
    _row_sums,
    _scale,
    _snap_grid,
    sinc_derivative_grid,
    sinc_grid,
)

_PI = math.pi


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BandlimitedFn:
    """An evaluatable function with a declared exponential type and sup bound.

    Attributes:
        sigma: declared exponential type (rad per unit); the certificate is
            |f(x + iy)| <= sup_bound * e^(sigma |y|).
        sup_bound: bound on |f| along the real line.
        eval: x -> f(x), defined for all finite x (vectorized over arrays).
        deriv_eval: optional x -> f'(x).
        lp_norms: optional exact L^p norms, keyed by p (1, 2, or math.inf).
        envelope: optional decay certificate (C, d) meaning
            |f(x)| <= min(sup_bound, C / |x|^d) for all x != 0.
        lattice: optional lattice evaluator, kh -> (x -> f(x - kh)) for an
            array kh and a float x: whatever can be taken once per lattice is
            taken when it is built, and each call gives f at one shift of
            it.  The sampled-norm checks use it in place of f(x - kh);
            :func:`make_reference` sets it, from sin(w kh) and cos(w kh) by
            angle addition, and README "What `verify` checks" bounds its
            values against f(x - kh).  None: f(x - kh) itself.
    """

    sigma: float
    sup_bound: float
    eval: Callable[[np.ndarray], np.ndarray]
    deriv_eval: Optional[Callable[[np.ndarray], np.ndarray]] = None
    lp_norms: Optional[Dict[float, float]] = None
    envelope: Optional[Tuple[float, float]] = None
    lattice: Optional[Callable[[np.ndarray], Callable[[float], np.ndarray]]] = None

    def __post_init__(self):
        if not (self.sigma >= 0.0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be finite and >= 0")
        if not self.sup_bound >= 0.0:
            raise ValueError("sup_bound must be >= 0")

    def __call__(self, x):
        return self.eval(x)


def _lattice_sines(w: float, kh):
    """w kh with its sine and cosine, taken once per lattice: every shift x
    then follows by angle addition, sin(t - w kh) = sin(t) cos(w kh) -
    cos(t) sin(w kh) with t = w x, two multiplies and an add per point in
    place of a sine."""
    wkh = w * np.asarray(kh, dtype=float)
    return wkh, np.sin(wkh), np.cos(wkh)


def _sinc_lattice(w: float):
    """kh -> (x -> sin(a)/a), a = w (x - kh), the sine by angle addition.
    Where |a| <= 1 the quotient would lose digits to the sine's
    cancellation, and sin(a)/a is taken directly; it is 1 exactly where a
    is 0."""
    def lattice(kh):
        wkh, s, c = _lattice_sines(w, kh)

        def at(x):
            wx = w * x
            a = wx - wkh
            with np.errstate(divide="ignore", invalid="ignore"):
                out = (math.sin(wx) * c - math.cos(wx) * s) / a
                near = np.flatnonzero(np.abs(a) <= 1.0)
                an = a[near]
                out[near] = np.where(an == 0.0, 1.0, np.sin(an) / an)
            return out
        return at
    return lattice


def make_reference(kind: str, sigma: float, phase: float = 0.0) -> BandlimitedFn:
    """Analytically certified reference functions of a given type.

    kind:
        "sin"   -> sin(sigma x + phase), type sigma, sup 1
        "cos"   -> cos(sigma x + phase), type sigma, sup 1
        "sinc"  -> sinc(sigma x / pi) = sin(sigma x)/(sigma x), type sigma
        "fejer" -> sinc^2(sigma x / (2 pi)), type sigma, nonnegative,
                   absolutely integrable (x^-2 decay)
        "const" -> 1 identically; true type 0, certified at the given sigma

    The returned objects carry exact derivative handles, decay envelopes,
    the L^p norms that exist (the norms a sampled-norm check compares with)
    and a lattice evaluator: sin(sigma kh) and cos(sigma kh) once per
    lattice (at sigma/2 for "fejer"), each shift by angle addition.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    s = float(sigma)
    ph = float(phase)
    if kind == "sin":
        def lattice(kh, s=s):  # sin(t - s kh), the phase folded into t = s x + phase
            _, sk, ck = _lattice_sines(s, kh)
            return lambda x: math.sin(s * x + ph) * ck - math.cos(s * x + ph) * sk

        return BandlimitedFn(
            sigma=s, sup_bound=1.0,
            eval=lambda x, s=s: np.sin(s * np.asarray(x, dtype=float) + ph),
            deriv_eval=lambda x, s=s: s * np.cos(s * np.asarray(x, dtype=float) + ph),
            lp_norms={math.inf: 1.0}, lattice=lattice,
        )
    if kind == "cos":
        def lattice(kh, s=s):  # cos(t - s kh), t = s x + phase
            _, sk, ck = _lattice_sines(s, kh)
            return lambda x: math.cos(s * x + ph) * ck + math.sin(s * x + ph) * sk

        return BandlimitedFn(
            sigma=s, sup_bound=1.0,
            eval=lambda x, s=s: np.cos(s * np.asarray(x, dtype=float) + ph),
            deriv_eval=lambda x, s=s: -s * np.sin(s * np.asarray(x, dtype=float) + ph),
            lp_norms={math.inf: 1.0}, lattice=lattice,
        )
    if kind == "sinc":
        def f(x, s=s):
            return sinc_grid(s * np.asarray(x, dtype=float) / _PI)

        def df(x, s=s):
            return (s / _PI) * sinc_derivative_grid(1, s * np.asarray(x, dtype=float) / _PI)

        # integral of sinc^2 over R is 1, so ||f||_2^2 = pi/sigma
        return BandlimitedFn(
            sigma=s, sup_bound=1.0, eval=f, deriv_eval=df,
            lp_norms={2.0: math.sqrt(_PI / s), math.inf: 1.0},
            envelope=(1.0 / s, 1.0), lattice=_sinc_lattice(s),
        )
    if kind == "fejer":
        def f(x, s=s):
            return sinc_grid(s * np.asarray(x, dtype=float) / (2 * _PI)) ** 2

        def df(x, s=s):
            u = s * np.asarray(x, dtype=float) / (2 * _PI)
            return (s / _PI) * sinc_grid(u) * sinc_derivative_grid(1, u)

        half = _sinc_lattice(s / 2.0)

        def lattice(kh):
            at = half(kh)

            def square(x):
                out = at(x)
                return np.square(out, out=out)
            return square

        # ||f||_1 = 2 pi / sigma, ||f||_2^2 = (2 pi / sigma) * (2/3)
        return BandlimitedFn(
            sigma=s, sup_bound=1.0, eval=f, deriv_eval=df,
            lp_norms={1.0: 2 * _PI / s,
                      2.0: math.sqrt(4 * _PI / (3 * s)),
                      math.inf: 1.0},
            envelope=(4.0 / s ** 2, 2.0), lattice=lattice,
        )
    if kind == "const":
        return BandlimitedFn(
            sigma=s, sup_bound=1.0,
            eval=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            deriv_eval=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            lp_norms={math.inf: 1.0},
            lattice=lambda kh: lambda x: np.ones(np.shape(kh)),
        )
    raise ValueError(f"unknown reference kind {kind!r}")


@dataclass(frozen=True)
class UniformSamples:
    """Samples f(k h) for k_min <= k <= k_max with a tail certificate.

    ``tail_bound`` and ``tail_decay`` bound |f| on the whole real line
    beyond the window, not only at the samples: |f(x)| <= tail_bound *
    (k_edge h/|x|)^tail_decay for every x outside [k_min h, k_max h]
    (k_edge = min(|k_min|, k_max)); decay 0 means bounded only.  The decay
    certificate is what allows the cardinal-series tail to be closed at the
    critical sampling rate, and it rests on the whole-line bound: C sin(sigma
    x) is of type sigma, bounded, and 0 at every k pi/sigma, so samples and a
    bound at the samples alone cannot tell it from 0; a decay on the line
    excludes it unless C = 0.
    """

    sigma: float
    h: float
    k_min: int
    k_max: int
    values: np.ndarray
    tail_bound: float
    tail_decay: float = 0.0

    def __post_init__(self):
        if not self.h > 0.0:
            raise ValueError("step h must be positive")
        if not self.sigma > 0.0:
            raise ValueError("sigma must be positive")
        if self.k_max < self.k_min:
            raise ValueError("empty sample window")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.k_max - self.k_min + 1,):
            raise ValueError("values length does not match the index window")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sample values must be finite")
        if not (self.tail_bound >= 0.0 and self.tail_decay >= 0.0):
            raise ValueError("tail certificate must be nonnegative")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, f: BandlimitedFn, h: float, k_min: int, k_max: int) -> "UniformSamples":
        """Sample a reference on [k_min, k_max] with the certificate of its
        envelope (C, d): tail_bound C/(k_edge h)^d with decay d, which is
        what |f(x)| <= C/|x|^d gives beyond the window.  The sup bound, with
        decay 0, is taken instead when it is the smaller, when f has no
        envelope, or when an end of the window is k = 0.  For another
        certificate, build UniformSamples directly or ``dataclasses.replace``
        the result."""
        ks = np.arange(k_min, k_max + 1)
        vals = np.asarray(f(ks * h), dtype=float)
        k_edge = min(abs(k_min), abs(k_max))
        tail_bound, tail_decay = f.sup_bound, 0.0
        if f.envelope is not None and k_edge >= 1:
            c, d = f.envelope
            edge = c / (k_edge * h) ** d
            if edge <= f.sup_bound:
                tail_bound, tail_decay = edge, d
        return cls(sigma=f.sigma, h=h, k_min=int(k_min), k_max=int(k_max),
                   values=vals, tail_bound=float(tail_bound),
                   tail_decay=float(tail_decay))

    def value_at(self, k: int) -> float:
        if not (self.k_min <= k <= self.k_max):
            raise IndexError(f"sample index {k} outside window")
        return float(self.values[k - self.k_min])


# ---------------------------------------------------------------------------
# cardinal series
# ---------------------------------------------------------------------------

def _is_critical(h: float, sigma: float) -> bool:
    """The one rate rule: critical (True) when |h sigma - pi| <= 1e-12 pi,
    oversampled (False) below that, undersampled and refused above it."""
    if h * sigma > _PI * (1.0 + 1e-12):
        raise ReconstructionUnsoundError(
            f"undersampled: h = {h} exceeds pi/sigma = {_PI / sigma}")
    return h * sigma >= _PI * (1.0 - 1e-12)


def _kernel_decay_const(m: int) -> float:
    # |sinc^(m)(x)| <= pi^(m-1)/|x| * 1/(1 - m/(pi |x|)); for |x| >= max(1, m)
    # the last factor is at most 1/(1 - 1/pi) < 3/2.
    return 1.5 * _PI ** max(m - 1, 0) if m >= 1 else 1.5 / _PI


#: terms of the series expansion in the decaying tail bound
_TAIL_TERMS = 8


def wks_tail_bound(s: UniformSamples, m: int, x):
    """Bound on the part of the m-th derivative cardinal series at x that
    lies outside the stored window; x may be a scalar or an array.

    It needs a decay certificate (tail_decay > 0) and is then a closed-form
    bound on the majorant sum.  Bounded-only samples leave the whole-window
    tail open and raise ReconstructionUnsoundError.  The bound holds for an
    f that meets the certificate on the whole line beyond the window
    (:class:`UniformSamples`), which the samples alone cannot show: C
    sin(sigma x) vanishes at every critical-rate sample.

    The tail belongs to the whole-window sum, which :func:`wks_eval_grid`
    computes only at the critical rate h = pi/sigma.  Oversampled samples,
    with or without decay, are summed by the local kernel on 2N+1 samples
    per point; take their tail from ``wks_eval_grid(..., with_tail=True)``,
    not from here.
    """
    m = _check_order(m)
    u = np.asarray(x, dtype=float) / s.h
    gap_left = u - s.k_min
    gap_right = s.k_max - u
    if np.min(np.minimum(gap_left, gap_right)) < max(2.0, float(m)):
        raise ValueError("evaluation point too close to the sample window edge")
    if s.tail_decay <= 0.0:
        raise ReconstructionUnsoundError(
            "bounded-only samples: the whole-window series tail cannot be closed "
            "without a decay certificate, and the sum may reconstruct the wrong function")
    scale = _kernel_decay_const(m) / _scale(s.h, m) * s.tail_bound
    # majorant sum_{j >= a} (k_edge/j)^p / (j - v) on each side, with a the
    # first omitted |k| and v = +-u: its first term plus the integral from
    # a on.  Expanding 1/(t - v) in rho = v/a gives the integral as
    # (k_edge/a)^p sum_j rho^j/(p + j); after _TAIL_TERMS terms the rest
    # is at most rho^n/((p + n)(1 - rho)).  For p > 1, 1/(t - v) <=
    # 1/(a - v) on [a, inf) also bounds the integral by
    # (k_edge/a)^p a/((p-1)(a - v)), the smaller of the two only on the
    # far side (v <= 0) of a lopsided window.
    p = s.tail_decay
    if s.k_min > 0 or s.k_max < 0:
        tail = np.full_like(u, math.inf)  # the majorant is vacuous at k = 0
    else:
        k_edge = max(1, min(-s.k_min, s.k_max))
        tail = 0.0
        for a, v in ((s.k_max + 1.0, u), (1.0 - s.k_min, -u)):
            rho = np.maximum(v / a, 0.0)
            series = sum(rho ** j / (p + j) for j in range(_TAIL_TERMS))
            integral = series + rho ** _TAIL_TERMS / ((p + _TAIL_TERMS) * (1.0 - rho))
            if p > 1.0:
                integral = np.minimum(integral, a / ((p - 1.0) * (a - v)))
            tail = tail + (k_edge / a) ** p * (1.0 / (a - v) + integral)
    tail = scale * tail
    return float(tail) if tail.ndim == 0 else tail


def wks_eval_grid(s: UniformSamples, m: int, xs, tol: float, *,
                  with_tail: bool = False):
    """Evaluate the m-th derivative of the sampled function at every x in xs,
    with a certified tail of at most tol at every point.

    Oversampled samples (h sigma < pi) go through the regularized series

        f^(m)(x) ~= h^(-m) sum_{|n - n0| <= N} f(n h) d^m/du^m [sinc(u - n)
                    exp(-alpha (u - n)^2 / N)],  u = x/h, n0 = round(u),

    with alpha = (pi - h sigma)/2, summed by the local engine of
    :func:`~bandlimit.sinckernel._local_series`: N is the smallest
    half-width whose certificate is <= tol at every point.  A point whose
    2N+1 samples are not all stored raises ToleranceError with the tol the
    window can reach.  Samples at the critical rate need a decay
    certificate; they are summed over the whole stored window by
    :func:`~bandlimit.sinckernel._lattice_series`, and :func:`wks_tail_bound`
    bounds the rest of the lattice; the tail adds the sum's rounding
    (:func:`_window_rounding`).  A call whose operation count favours it
    (many points on a long window) takes the far band of that sum from box
    expansions, each box's remainder below 2^-53 of its sum |f_k|, which
    the rounding charges.  Either way, at grid points x = k h
    the stored sample is reproduced bit for bit (for m = 0).  m runs
    0..20; a larger order raises ValueError naming the range.

    Returns the values, or (values, tails) with ``with_tail``: the tails
    come from the same N as the values.
    """
    m = _check_order(m)
    if not tol > 0.0:
        raise ValueError("tolerance must be positive")
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError("evaluation point must be finite")
    series = _window_series if _is_critical(s.h, s.sigma) else _regularized_series
    if xs.size == 0:
        return (xs.copy(), xs.copy()) if with_tail else xs.copy()
    out, tails = series(s, m, xs, _snap_grid(xs.reshape(-1) / s.h), tol)
    out = out.reshape(xs.shape) / _scale(s.h, m)
    return (out, tails.reshape(xs.shape)) if with_tail else out


def _window_series(s: UniformSamples, m: int, xs, u, tol: float):
    """Critical rate: sum_k f_k sinc^(m)(u - k) over the whole stored window
    by :func:`~bandlimit.sinckernel._lattice_series`, each point's row on
    its own, with wks_tail_bound's tail plus the sum's rounding
    (:func:`_window_rounding`)."""
    tails = np.asarray(wks_tail_bound(s, m, xs)) + _window_rounding(s, m, u).reshape(np.shape(xs))
    tail = float(np.max(tails))
    if tail > tol:
        raise ToleranceError(
            f"reconstruction tail {tail:.3e} exceeds tol {tol:.3e}",
            achievable=tail)
    return _lattice_series(m, u, s.values, s.k_min), tails


def _window_rounding(s: UniformSamples, m: int, u, delta=None, sine: float = 1.0) -> np.ndarray:
    """Bound on the rounding of :func:`_window_series` at the points u (x/h,
    rounded and snapped), in units of f^(m), from the window's sum and
    largest |f_k|, its length L and u alone (README "The critical-rate
    cardinal sum" derives it):

        near + gamma_(L + 5m + 24) far + 5 u_r mass_m + delta mass_(m+1),

    the near band's weights and sum, the far band's moments and closed form
    (1.5^(m+1) times larger on the box path), the division by h^m, and the
    argument's rounding delta, by default 18 u_r max(1, |u|), u_r = 2^-53.
    At m = 0 every far entry carries sin(pi r), r = u - round(u), and
    ``sine`` may give a bound on it."""
    c = np.abs(s.values)
    width, s1, top = 2 * m + 3, float(np.sum(c)), float(np.max(c))
    harmonic = 1.0 + math.log(c.size)  # sum of 1/|u - k| over one side of the far band

    def gamma(n):
        return n * _UNIT / (1.0 - n * _UNIT)

    def mass(j):  # sum_k |f_k| |sinc^(j)(y - k)| for |y - round(u)| <= 1
        peak = _PI ** j / (j + 1)
        return min(s1 * peak, top * (width * peak + 2.0 * _kernel_decay_const(j) * harmonic))
    near = min(s1, width * top) * _PI ** m * (
        (_WEIGHT_ERR[min(m, 3)] + gamma(width + 1)) / (m + 1) + _PI * _UNIT)
    far = _PI ** m / (_PI - 1.0) * min(s1 / (m + 1.5), 2.0 * top * harmonic)
    if m == 0:
        far *= sine
    if _box_path(m, u.size, c.size):
        far *= 1.5 ** (m + 1)
    if delta is None:
        # delta < 1/2 wherever the tail is finite: the window holds 0 and u, so |u| < L
        delta = 18.0 * _UNIT * np.maximum(1.0, np.abs(u))
    rounding = near + gamma(c.size + 5 * m + 24) * far + 5.0 * _UNIT * mass(m) + delta * mass(m + 1)
    return rounding / _scale(s.h, m)


def _regularized_series(s: UniformSamples, m: int, xs, u, tol: float):
    """Oversampled: the local engine of
    :func:`~bandlimit.sinckernel._local_series` on 2N+1 samples per point,
    N chosen once for every point, with each point's certificate as its
    tail; the rows are built for blocks of points
    (:func:`~bandlimit.sinckernel._row_sums`)."""
    alpha = (_PI - s.h * s.sigma) / 2.0
    bound = max(float(np.max(np.abs(s.values))), s.tail_bound)
    n0 = np.rint(u)
    # every point needs its 2N+1 samples in the window
    gaps = np.minimum(n0 - s.k_min, s.k_max - n0)
    try:
        N, rows = _local_series(m, u, alpha, bound, s.h, tol, room=int(np.min(gaps)))
    except ToleranceError as exc:
        raise ToleranceError(f"{exc} at x = {xs.reshape(-1)[np.argmin(gaps)]}",
                             achievable=exc.achievable) from None
    tails = np.empty(u.size)

    def block(b):
        n_lo, _, w, tails[b] = rows(b)
        idx = (n_lo - s.k_min).astype(np.intp)[:, None] + np.arange(w.shape[1])
        return np.sum(w * s.values[idx], axis=1)

    return _row_sums(u.size, 2 * N + 1, block), tails


def wks_eval(s: UniformSamples, m: int, x: float, tol: float) -> float:
    """Scalar form of :func:`wks_eval_grid`."""
    return float(wks_eval_grid(s, m, np.array([float(x)]), tol)[0])


# ---------------------------------------------------------------------------
# Valiron / Tschakaloff
# ---------------------------------------------------------------------------

def _vt_point(s: UniformSamples, z: complex) -> complex:
    """u = z/h, where the Valiron/Tschakaloff sum and its tail both hold."""
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("evaluation point must be finite")
    if not _is_critical(s.h, s.sigma):
        raise ValueError("samples must be taken at the critical lattice k pi/sigma")
    if min(-s.k_min, s.k_max) < 2 * abs(z / s.h):
        raise ValueError("window too small relative to |z|")
    return z / s.h


def valiron_tschakaloff_eval(s: UniformSamples, f0: float, df0: float,
                             z: complex) -> complex:
    """Bounded-function sampling expansion at a complex point.

        f(z) = z f'(0) sinc(u) + f(0) sinc(u) + sum_{k != 0} f_k (u/k) sinc(u - k),

    u = sigma z/pi, f_k = f(k pi/sigma).  The extra 1/k makes the series
    absolutely convergent for merely bounded samples; the whole stored
    window is consumed.  Since sin(pi (u - k)) = (-1)^k sin(pi u), the
    partial fractions u/(k (u - k)) = 1/(u - k) + 1/k give

        (u/k) sinc(u - k) = sinc(u - k) + (-1)^k sin(pi u)/(pi k),

    so the sum is the cardinal sum of the f_k, k != 0, by
    :func:`~bandlimit.sinckernel._lattice_series`, plus sin(pi u)/pi times
    the constant sum_{k != 0} (-1)^k f_k/k.  sin(pi u) is taken as
    (-1)^n0 sin(pi (u - n0)), n0 = round(Re u), so at lattice points inside
    the window the sample is reproduced bit for bit.
    """
    z = complex(z)
    u = _vt_point(s, z)
    u = _snap_grid(np.array([u.real])) if u.imag == 0.0 else np.array([u])
    head = (z * df0 + f0) * complex(sinc_grid(u)[0])
    alt = np.arange(s.k_min, s.k_max + 1, dtype=float)
    alt[-s.k_min] = math.inf  # _vt_point keeps k = 0 in the window
    np.divide(s.values, alt, out=alt)
    alt[(s.k_min + 1) % 2::2] *= -1.0  # (-1)^k f_k/k, 0 at k = 0
    alt = float(np.sum(alt))
    n0 = float(np.rint(u.real[0]))
    sin_u = (1.0 - 2.0 * (n0 % 2)) * complex(np.sin(_PI * (u[0] - n0)))
    c = s.values.copy()
    c[-s.k_min] = 0.0
    return head + complex(_lattice_series(0, u, c, s.k_min)[0]) + sin_u / _PI * alt


def vt_tail_bound(s: UniformSamples, z: complex) -> float:
    """Rigorous bound on the error of :func:`valiron_tschakaloff_eval`: the
    truncation of the series plus the rounding of the sum
    (:func:`_vt_rounding`).

    |term_k| <= M (sigma|z|/(|k| pi)) e^{pi |Im u|} / (pi |u - k|), and
    |u - k| >= |k|/2 once |k| >= 2|u|, so the terms beyond an edge K sum to
    at most 2 M sigma |z| e^{pi |Im u|} / (pi^2 K).  The two sides add up to
    4 M sigma |z| e^{pi |Im u|} / (pi^2 K_h), with K_h the harmonic mean of
    k_max and -k_min; both must be at least 2|u|.

    The rounding term takes the head's data as |f0| = |f_0|, the stored
    sample at k = 0, and |df0| <= sigma M, Bernstein's inequality.  That
    premise is |f| <= M on the whole line, between the samples too, which
    UniformSamples does not certify: it bounds |f| beyond the window only.
    """
    z = complex(z)
    u = _vt_point(s, z)
    if z == 0:  # every term carries the factor u; a one-sided window has side 0
        return 0.0
    m_bound = max(float(np.max(np.abs(s.values))), s.tail_bound)
    grow = math.exp(_PI * abs(u.imag))
    # exactly k_max for a symmetric window
    side = 2 * s.k_max * -s.k_min / (s.k_max - s.k_min)
    head = abs(s.values[-s.k_min]) + abs(z) * s.sigma * m_bound
    return (4.0 * m_bound * s.sigma * abs(z) * grow / (_PI ** 2 * side)
            + _vt_rounding(s, u, head))


def _vt_rounding(s: UniformSamples, u: complex, head: float) -> float:
    """Bound on the rounding of :func:`valiron_tschakaloff_eval` at u = z/h
    as it computes it, with head >= |z df0 + f0| (README "The critical-rate
    cardinal sum" derives it).  With v the point the sum is taken at (u,
    snapped onto an integer on the real line), delta = |v - z/h|, r = v -
    round(v), A = 2 max|f_k| (1 + ln L) >= sum_(k != 0) |f_k/k| and
    gamma_n = n u_r/(1 - n u_r), u_r = 2^-53:

        head (20 u_r + pi delta/2)              the head, (z df0 + f0) sinc(v)
        + _window_rounding(s, 0, v, delta, min(1, pi |r|))    the cardinal sum
        + (min(1, pi |r|)/pi gamma_(L+18) + delta) A + 2.01 u_r head   alt, adds

    and off the real line 8 e^(pi |Im u|) times that."""
    if u.imag == 0.0:
        v = complex(_snap_grid(np.array([u.real]))[0])
        scale = 1.0
    else:
        v = u
        scale = 8.0 * math.exp(_PI * abs(u.imag))
    delta = abs(v - u) + 2.0 * _UNIT * abs(u)  # u itself is z/h rounded once
    sine = min(1.0, _PI * abs(v - round(v.real)))
    size = s.values.size
    alt = 2.0 * float(np.max(np.abs(s.values))) * (1.0 + math.log(size))
    card = float(_window_rounding(s, 0, np.array([v.real]), delta, sine))
    gamma = (size + 18) * _UNIT / (1.0 - (size + 18) * _UNIT)
    total = (head * (20.0 * _UNIT + _PI / 2.0 * delta) + card
             + (sine / _PI * gamma + delta) * alt + 2.01 * _UNIT * head)
    return scale * total


# ---------------------------------------------------------------------------
# Riesz interpolation for trigonometric polynomials
# ---------------------------------------------------------------------------

def riesz_trig_derivative(P: Callable[[float], float], N: int, x: float) -> float:
    """Derivative of a trigonometric polynomial of order <= N via the finite sum

        P'(x) = (1/4N) sum_{k=1}^{2N} (-1)^(k+1) P(x + x_k) / sin^2(x_k / 2),
        x_k = (2k - 1) pi / (2N).

    The sum is exact (no truncation).  Nodes k and 2N+1-k carry opposite
    weights w_k and -w_k; :func:`~bandlimit.grouporbit._weighted_sum` adds
    them in the order x_1, x_2N, x_2, x_(2N-1), ..., so each pair cancels
    before the next and a constant P is annihilated exactly in floating
    point.
    """
    if not (N >= 1 and float(N).is_integer()):
        raise ValueError(f"polynomial order N must be an integer >= 1, got {N}")
    x = float(x)
    k = np.arange(1, N + 1)
    xk = (2 * k - 1) * _PI / (2 * N)
    w = (-1.0) ** (k + 1) / np.sin(xk / 2.0) ** 2
    nodes = np.column_stack((xk, 2 * _PI - xk)).ravel()  # 2 * pi - x_k is x_(2N+1-k)
    weights = np.column_stack((w, -w)).ravel()
    total = _weighted_sum(0.0, weights, (float(P(x + s)) for s in nodes.tolist()))
    return total / (4.0 * N)
