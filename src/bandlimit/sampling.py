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
  derivatives (``riesz_trig_derivative``);
* smoothing onto a prescribed exponential type by averaging against a
  nonnegative type-one kernel (``fejer_regularize``).

The reconstruction grid is always x_k = k*h.  When h < pi/sigma the sampling
is strictly finer than necessary (oversampled): a Gaussian multiplier then
makes the kernel local, and bounded, non-decaying samples suffice.  At the
critical rate h = pi/sigma a decay certificate on the samples is required,
otherwise reconstruction is refused as unsound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .errors import QuadratureError, ReconstructionUnsoundError, ToleranceError
from .sinckernel import (
    _local_series,
    _snap_grid,
    sinc_derivative_grid,
    sinc_grid,
    snap_integer,
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
    """

    sigma: float
    sup_bound: float
    eval: Callable[[np.ndarray], np.ndarray]
    deriv_eval: Optional[Callable[[np.ndarray], np.ndarray]] = None
    lp_norms: Optional[Dict[float, float]] = None
    envelope: Optional[Tuple[float, float]] = None

    def __post_init__(self):
        if not (self.sigma >= 0.0 and math.isfinite(self.sigma)):
            raise ValueError("sigma must be finite and >= 0")
        if self.sup_bound < 0.0:
            raise ValueError("sup_bound must be >= 0")

    def __call__(self, x):
        return self.eval(x)


def make_reference(kind: str, sigma: float, phase: float = 0.0) -> BandlimitedFn:
    """Analytically certified reference functions of a given type.

    kind:
        "sin"   -> sin(sigma x + phase), type sigma, sup 1
        "cos"   -> cos(sigma x + phase), type sigma, sup 1
        "sinc"  -> sinc(sigma x / pi) = sin(sigma x)/(sigma x), type sigma
        "fejer" -> sinc^2(sigma x / (2 pi)), type sigma, nonnegative,
                   absolutely integrable (x^-2 decay)
        "const" -> 1 identically; true type 0, certified at the given sigma

    The returned objects carry exact derivative handles, decay envelopes, and
    the L^p norms that exist, so tests can cross-check quadrature against
    closed forms.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    s = float(sigma)
    ph = float(phase)
    if kind == "sin":
        return BandlimitedFn(
            sigma=s, sup_bound=1.0,
            eval=lambda x, s=s: np.sin(s * np.asarray(x, dtype=float) + ph),
            deriv_eval=lambda x, s=s: s * np.cos(s * np.asarray(x, dtype=float) + ph),
            lp_norms={math.inf: 1.0},
        )
    if kind == "cos":
        return BandlimitedFn(
            sigma=s, sup_bound=1.0,
            eval=lambda x, s=s: np.cos(s * np.asarray(x, dtype=float) + ph),
            deriv_eval=lambda x, s=s: -s * np.sin(s * np.asarray(x, dtype=float) + ph),
            lp_norms={math.inf: 1.0},
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
            envelope=(1.0 / s, 1.0),
        )
    if kind == "fejer":
        def f(x, s=s):
            return sinc_grid(s * np.asarray(x, dtype=float) / (2 * _PI)) ** 2

        def df(x, s=s):
            u = s * np.asarray(x, dtype=float) / (2 * _PI)
            return (s / _PI) * sinc_grid(u) * sinc_derivative_grid(1, u)

        # ||f||_1 = 2 pi / sigma, ||f||_2^2 = (2 pi / sigma) * (2/3)
        return BandlimitedFn(
            sigma=s, sup_bound=1.0, eval=f, deriv_eval=df,
            lp_norms={1.0: 2 * _PI / s,
                      2.0: math.sqrt(4 * _PI / (3 * s)),
                      math.inf: 1.0},
            envelope=(4.0 / s ** 2, 2.0),
        )
    if kind == "const":
        return BandlimitedFn(
            sigma=s, sup_bound=1.0,
            eval=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            deriv_eval=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            lp_norms={math.inf: 1.0},
        )
    raise ValueError(f"unknown reference kind {kind!r}")


@dataclass(frozen=True)
class UniformSamples:
    """Samples f(k h) for k_min <= k <= k_max with a tail certificate.

    ``tail_bound`` bounds sup_{k outside window} |f(k h)|.  ``tail_decay``
    strengthens it to |f(k h)| <= tail_bound * (k_edge/|k|)^tail_decay beyond
    the window (k_edge = min(|k_min|, k_max)); 0 means bounded only.  The
    decay certificate is what allows the cardinal-series tail to be closed at
    the critical sampling rate.
    """

    sigma: float
    h: float
    k_min: int
    k_max: int
    values: np.ndarray
    tail_bound: float
    tail_decay: float = 0.0

    def __post_init__(self):
        if self.h <= 0.0:
            raise ValueError("step h must be positive")
        if self.sigma <= 0.0:
            raise ValueError("sigma must be positive")
        if self.k_max < self.k_min:
            raise ValueError("empty sample window")
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.k_max - self.k_min + 1,):
            raise ValueError("values length does not match the index window")
        if not np.all(np.isfinite(vals)):
            raise ValueError("sample values must be finite")
        if self.tail_bound < 0.0 or self.tail_decay < 0.0:
            raise ValueError("tail certificate must be nonnegative")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_function(cls, f: BandlimitedFn, h: float, k_min: int, k_max: int,
                      tail_bound: Optional[float] = None,
                      tail_decay: Optional[float] = None) -> "UniformSamples":
        """Sample a reference on [k_min, k_max]; certificate defaults come from
        the function's envelope (or its sup bound when no envelope exists)."""
        ks = np.arange(k_min, k_max + 1)
        vals = np.asarray(f(ks * h), dtype=float)
        k_edge = min(abs(k_min), abs(k_max))
        if tail_bound is None or tail_decay is None:
            if f.envelope is not None and k_edge >= 1:
                c, d = f.envelope
                tail_bound = min(f.sup_bound, c / (k_edge * h) ** d)
                tail_decay = d
            else:
                tail_bound = f.sup_bound
                tail_decay = 0.0
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
    tail open and raise ReconstructionUnsoundError.

    The tail belongs to the whole-window sum, which :func:`wks_eval_grid`
    computes only at the critical rate h = pi/sigma.  Oversampled samples,
    with or without decay, are summed by the local kernel on 2N+1 samples
    per point; take their tail from ``wks_eval_grid(..., with_tail=True)``,
    not from here.
    """
    u = np.asarray(x, dtype=float) / s.h
    gap_left = u - s.k_min
    gap_right = s.k_max - u
    if np.min(np.minimum(gap_left, gap_right)) < max(2.0, float(m)):
        raise ValueError("evaluation point too close to the sample window edge")
    if s.tail_decay <= 0.0:
        raise ReconstructionUnsoundError(
            "bounded-only samples: the whole-window series tail cannot be closed "
            "without a decay certificate, and the sum may reconstruct the wrong function")
    scale = _kernel_decay_const(m) / s.h ** m * s.tail_bound
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


#: kernel entries per block of the cardinal-series evaluation
_WKS_BLOCK = 1 << 17


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
    window can reach.  Samples at the
    critical rate h = pi/sigma need a decay certificate; they are summed
    over the whole stored window, and :func:`wks_tail_bound` bounds the
    rest.  Either way, at grid points x = k h the stored sample is
    reproduced bit for bit (for m = 0).

    Returns the values, or (values, tails) with ``with_tail``: the tails
    come from the same N as the values.
    """
    if m < 0:
        raise ValueError("derivative order must be >= 0")
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    xs = np.asarray(xs, dtype=float)
    if not np.all(np.isfinite(xs)):
        raise ValueError("evaluation point must be finite")
    if s.h > _PI / s.sigma * (1.0 + 1e-12):
        raise ReconstructionUnsoundError(
            f"undersampled: h = {s.h} exceeds pi/sigma = {_PI / s.sigma}")
    u = _snap_grid(xs.reshape(-1) / s.h)
    if s.h * s.sigma < _PI * (1.0 - 1e-12):
        out, tails = _regularized_series(s, m, xs, u, tol)
    else:
        out, tails = _window_series(s, m, xs, u, tol)
    out = out.reshape(xs.shape) / s.h ** m
    return (out, tails.reshape(xs.shape)) if with_tail else out


def _window_series(s: UniformSamples, m: int, xs, u, tol: float):
    """Critical rate: the whole stored window, with wks_tail_bound's tail."""
    tails = np.asarray(wks_tail_bound(s, m, xs))
    tail = float(np.max(tails))
    if tail > tol:
        raise ToleranceError(
            f"reconstruction tail {tail:.3e} exceeds tol {tol:.3e}",
            achievable=tail)
    ks = np.arange(s.k_min, s.k_max + 1, dtype=float)
    return _row_sums(u.size, ks.size, lambda b: np.sum(
        sinc_derivative_grid(m, u[b, None] - ks) * s.values, axis=1)), tails


def _regularized_series(s: UniformSamples, m: int, xs, u, tol: float):
    """Oversampled: the local engine of
    :func:`~bandlimit.sinckernel._local_series` on 2N+1 samples per point,
    N chosen once for every point, with each point's certificate as its
    tail; the rows are built for blocks of points."""
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
        n0_b, _, w, tails[b] = rows(b)
        idx = (n0_b - s.k_min).astype(np.intp)[:, None] + np.arange(-N, N + 1)
        return np.sum(w * s.values[idx], axis=1)

    return _row_sums(u.size, 2 * N + 1, block), tails


def _row_sums(points: int, width: int, block_sums) -> np.ndarray:
    """block_sums(slice) for blocks of points of about _WKS_BLOCK kernel
    entries.  Each row is summed on its own, not by a matrix product, so a
    point's value does not depend on which other points share its block."""
    out = np.empty(points)
    rows = max(1, _WKS_BLOCK // width)
    for i in range(0, points, rows):
        out[i:i + rows] = block_sums(slice(i, i + rows))
    return out


def wks_eval(s: UniformSamples, m: int, x: float, tol: float) -> float:
    """Scalar form of :func:`wks_eval_grid`."""
    return float(wks_eval_grid(s, m, np.array([float(x)]), tol)[0])


# ---------------------------------------------------------------------------
# Valiron / Tschakaloff
# ---------------------------------------------------------------------------

#: lattice indices per block of the Valiron-Tschakaloff sum
_VT_BLOCK = 1 << 15


def valiron_tschakaloff_eval(s: UniformSamples, f0: float, df0: float,
                             z: complex) -> complex:
    """Bounded-function sampling expansion at a complex point.

        f(z) = z f'(0) sinc(sz/pi) + f(0) sinc(sz/pi)
               + sum_{k != 0} f(k pi/s) (s z / (k pi)) sinc(sz/pi - k)

    The extra 1/k makes the series absolutely convergent for merely bounded
    samples; the whole stored window is consumed.  Interpolation at lattice
    points inside it is exact.
    """
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError("evaluation point must be finite")
    if abs(s.h - _PI / s.sigma) > 1e-9 * s.h:
        raise ValueError("samples must be taken at the critical lattice k pi/sigma")
    u = z / s.h
    if u.imag == 0.0:
        u = complex(snap_integer(u.real), 0.0)
    head = (z * df0 + f0) * complex(sinc_grid(u))
    total = 0.0 + 0.0j
    for lo in range(s.k_min, s.k_max + 1, _VT_BLOCK):
        k = np.arange(lo, min(lo + _VT_BLOCK, s.k_max + 1))
        k = k[k != 0]
        # sigma z / (k pi) written as u/k so lattice interpolation is bit-exact
        total += complex(np.sum(s.values[k - s.k_min] * (u / k) * sinc_grid(u - k)))
    return head + total


def vt_tail_bound(s: UniformSamples, z: complex) -> float:
    """Rigorous truncation bound for :func:`valiron_tschakaloff_eval`.

    |term_k| <= M (sigma|z|/(|k| pi)) e^{pi |Im u|} / (pi |u - k|), and
    |u - k| >= |k|/2 once |k| >= 2|u|, so the terms beyond an edge K sum to
    at most 2 M sigma |z| e^{pi |Im u|} / (pi^2 K).  The two sides add up to
    4 M sigma |z| e^{pi |Im u|} / (pi^2 K_h), with K_h the harmonic mean of
    k_max and -k_min; both must be at least 2|u|.
    """
    z = complex(z)
    u = z / s.h
    if min(-s.k_min, s.k_max) < 2 * abs(u):
        raise ValueError("window too small relative to |z|")
    m_bound = max(float(np.max(np.abs(s.values))), s.tail_bound)
    grow = math.exp(_PI * abs(u.imag))
    # exactly k_max for a symmetric window
    side = 2 * s.k_max * -s.k_min / (s.k_max - s.k_min)
    return 4.0 * m_bound * s.sigma * abs(z) * grow / (_PI ** 2 * side)


# ---------------------------------------------------------------------------
# Riesz interpolation for trigonometric polynomials
# ---------------------------------------------------------------------------

def riesz_trig_derivative(P: Callable[[float], float], N: int, x: float) -> float:
    """Derivative of a trigonometric polynomial of order <= N via the finite sum

        P'(x) = (1/4N) sum_{k=1}^{2N} (-1)^(k+1) P(x + x_k) / sin^2(x_k / 2),
        x_k = (2k - 1) pi / (2N).

    The sum is exact (no truncation).  Terms k and 2N+1-k share the same
    weight with opposite signs, so they are paired explicitly; a constant P is
    annihilated exactly in floating point.
    """
    if N < 1:
        raise ValueError("polynomial order N must be >= 1")
    x = float(x)
    total = 0.0
    for k in range(1, N + 1):
        xk = (2 * k - 1) * _PI / (2 * N)
        xk_partner = 2 * _PI - xk  # node for index 2N+1-k
        w = 1.0 / math.sin(xk / 2.0) ** 2
        sign = (-1.0) ** (k + 1)
        total += sign * w * (float(P(x + xk)) - float(P(x + xk_partner)))
    return total / (4.0 * N)


# ---------------------------------------------------------------------------
# regularization onto a prescribed type
# ---------------------------------------------------------------------------

#: normalization making the smoothing kernel a probability density:
#: integral of (sin(t/4)/t)^4 dt = pi/96
KERNEL_NORM = 96.0 / _PI

#: first absolute moment integral of the kernel, int |t| h(t) dt = 12 ln2 / pi;
#: the approximation constant is C = 1 + that
KERNEL_MOMENT_CONST = 1.0 + 12.0 * math.log(2.0) / _PI


def smoothing_kernel(t) -> np.ndarray:
    """a (sin(t/4)/t)^4 with a = 96/pi: even, nonnegative, entire of
    exponential type 1, unit integral, finite first moment."""
    t = np.asarray(t, dtype=float)
    return KERNEL_NORM * (sinc_grid(t / (4 * _PI)) / 4.0) ** 4


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite-midpoint parameters for :func:`fejer_regularize`.

    half_width None derives the window from tol so the kernel tail
    64/(pi T^3) stays below tol/2.
    """

    tol: float = 1e-3
    half_width: Optional[float] = None
    nodes: int = 4096

    def resolved_half_width(self) -> float:
        if self.half_width is not None:
            return float(self.half_width)
        # kernel tail: a * int_{|t|>T} t^-4 dt = 64/(pi T^3) <= tol/2
        return (128.0 / (_PI * self.tol)) ** (1.0 / 3.0)


def fejer_regularize(f: Callable[[np.ndarray], np.ndarray], sigma: float,
                     sup_bound: float,
                     quad: QuadratureSpec = QuadratureSpec()) -> BandlimitedFn:
    """Smooth a bounded continuous f onto exponential type sigma:

        R(f)(x) = int h(t) f(x + t/sigma) dt,  h = smoothing_kernel.

    ``sup_bound`` is the caller's bound on |f| over the real line.  The
    output is entire of type sigma; its sup bound is sup_bound times the mass
    of the nonnegative quadrature weights (at least 1), which bounds the
    computed sum at every x.  ||f - R(f)||_inf <= C * w(f, 1/sigma) where w
    is the modulus of continuity and C = KERNEL_MOMENT_CONST.  The integral
    is evaluated by composite midpoint on [-T, T]; a Richardson probe at
    x = 0 estimates the quadrature error and raises QuadratureError when it
    exceeds tol.
    """
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    T = quad.resolved_half_width()
    n = int(quad.nodes)
    if n < 16:
        raise ValueError("need at least 16 quadrature nodes")
    step = 2.0 * T / n
    nodes = -T + (np.arange(n) + 0.5) * step
    weights = smoothing_kernel(nodes) * step

    def reval(x, _nodes=nodes, _w=weights, _s=sigma):
        x = np.asarray(x, dtype=float)
        shifted = x[..., None] + _nodes / _s
        vals = np.asarray(f(shifted.reshape(-1)), dtype=float).reshape(shifted.shape)
        return vals @ _w

    # error probe: halve the step at a few points (midpoint error ~ step^2),
    # and account for the kernel mass beyond the window
    probe = np.array([0.0, 0.37 / sigma, -1.0 / sigma])
    fine_nodes = -T + (np.arange(2 * n) + 0.5) * (step / 2.0)
    fine_w = smoothing_kernel(fine_nodes) * (step / 2.0)
    coarse = np.asarray(reval(probe))
    shifted = probe[:, None] + fine_nodes / sigma
    fine = np.asarray(f(shifted.reshape(-1)), dtype=float).reshape(shifted.shape) @ fine_w
    kernel_tail = 64.0 / (_PI * T ** 3)
    est = float(np.max(np.abs(fine - coarse))) * (4.0 / 3.0) + kernel_tail
    if est > quad.tol:
        raise QuadratureError(
            f"estimated quadrature error {est:.3e} exceeds tol {quad.tol:.3e}")

    return BandlimitedFn(sigma=float(sigma),
                         sup_bound=sup_bound * max(1.0, float(np.sum(weights))), eval=reval)
