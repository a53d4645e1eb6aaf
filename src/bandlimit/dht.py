"""The discrete Hilbert transform on l2 and its closed-form isometry group.

The operator acts entrywise on square-summable sequences a = (a_n):

    (H a)_m = sum_{n != m} a_n / (m - n)

with operator norm pi, attained only in the limit: ||H a|| < pi ||a|| strictly
for every nonzero a.  H generates a one-parameter group of isometries with a
fully explicit orbit map:

    t not an integer:  (e^(tH) a)_m = (sin(pi t)/pi) sum_n a_n / (m - n + t)
    t = N integer:     (e^(tH) a)_m = (-1)^N a_(m+N)

The integer branch is an exact signed shift; the general formula degenerates
to a 0 * inf limit there, so dispatch happens on |t - round(t)| < 1e-9 where
the limit value is exact and the generic kernel has lost precision anyway.

Because every vector satisfies ||H^k a|| <= pi^k ||a||, the whole space is
eligible for orbit sampling at unit spacing (sigma = pi, so u = t), and the
lattice samples e^(kH) a are signed shifts, free of any series evaluation.
The orbit formula's scalar series sum_{k!=0} sinc(t - k)/k = (1 - sinc t)/t
(Mittag-Leffler) folds its a terms into sinc(t) a, leaving the finite
bounded-vector expansion of ``dht_vt``:

    e^(tH)a = sinc(t) a + t sinc(t) Ha + sum_{k!=0} (t/k) sinc(t - k) (-1)^k a_(.+k)

Powers come from the symbol.  H is the Toeplitz operator with symbol
-i(pi - theta) on (0, 2 pi), so H^r has the kernel

    c_d = (1/2pi) int_0^(2pi) (-i(pi - theta))^r e^(i d theta) dtheta,

a polynomial in 1/d (c_d = 1/d for r = 1, -2/d^2 with c_0 = -pi^2/3 for
r = 2), computed exactly for |d| up to the span of the window.  The paper's
route superposes orbit samples,

    H^(2s-1) a = sum_k (-1)^(k+1) a(s,k) e^((k-1/2)H) a
    H^(2s)   a = sum_k (-1)^(k+1) b(s,k) e^(kH) a = - sum_k b(s,k) a_(.+k),

and reaches the same kernel only in the limit of the half-integer series;
it is kept as a test oracle.  H^r also equals the r-fold composition of the
order-1 operator, and hilbert_apply is the r = 1 case, with the same
certified spill bound.

Every operator that sums a kernel evaluates it on the input window grown by
``expand`` slots per side, through one direct convolution (no FFT), and
rejects ``expand`` outside [0, HARD_MAX_EXPAND] = [0, 10^7].  Integer times
are exact signed shifts and grow no window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .grouporbit import GroupInstance
from .sinckernel import sinc, sinc_grid, snap_integer

_PI = math.pi

#: |t - round(t)| below this dispatches to the exact integer branch
INTEGER_EPS = 1e-9

#: tolerance-derived default window growth is capped here; explicit expands
#: may exceed it up to the hard sanity limit
MAX_EXPAND = 100_000
HARD_MAX_EXPAND = 10_000_000


@dataclass(frozen=True)
class SeqWindow:
    """A finite window of an l2 sequence: entries n0 .. n0 + len - 1.

    ``tail_l2`` bounds the l2 mass outside the window, so the true norm lies
    in [window_norm, hypot(window_norm, tail_l2)].
    """

    n0: int
    values: np.ndarray
    tail_l2: float = 0.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("values must be a nonempty 1-d array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("entries must be finite")
        if self.tail_l2 < 0.0:
            raise ValueError("tail_l2 must be >= 0")
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "n0", int(self.n0))

    def __len__(self) -> int:
        return self.values.size

    @property
    def n_last(self) -> int:
        return self.n0 + len(self) - 1

    def entry(self, n: int) -> float:
        if self.n0 <= n <= self.n_last:
            return float(self.values[n - self.n0])
        return 0.0

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def norm_bracket(self) -> Tuple[float, float]:
        w = self.norm()
        return w, math.hypot(w, self.tail_l2)

    def on_range(self, n0: int, length: int) -> np.ndarray:
        """Entries on [n0, n0+length), zero-filled outside the window."""
        out = np.zeros(length)
        lo = max(n0, self.n0)
        hi = min(n0 + length - 1, self.n_last)
        if lo <= hi:
            out[lo - n0:hi - n0 + 1] = self.values[lo - self.n0:hi - self.n0 + 1]
        return out

    @classmethod
    def basis(cls, n: int = 0) -> "SeqWindow":
        return cls(n0=n, values=np.array([1.0]), tail_l2=0.0)

    # -- vector-space operations (windows are aligned by index) -------------

    def __add__(self, other: "SeqWindow") -> "SeqWindow":
        if not isinstance(other, SeqWindow):
            return NotImplemented
        n0 = min(self.n0, other.n0)
        n1 = max(self.n_last, other.n_last)
        length = n1 - n0 + 1
        return SeqWindow(n0=n0,
                         values=self.on_range(n0, length) + other.on_range(n0, length),
                         tail_l2=self.tail_l2 + other.tail_l2)

    def __sub__(self, other: "SeqWindow") -> "SeqWindow":
        return self.__add__((-1.0) * other)

    def __mul__(self, c: float) -> "SeqWindow":
        if not np.isscalar(c):
            return NotImplemented
        return SeqWindow(n0=self.n0, values=float(c) * self.values,
                         tail_l2=abs(float(c)) * self.tail_l2)

    __rmul__ = __mul__

    def __truediv__(self, c: float) -> "SeqWindow":
        if not np.isscalar(c):
            return NotImplemented
        return SeqWindow(n0=self.n0, values=self.values / float(c),
                         tail_l2=self.tail_l2 / abs(float(c)))


def _check_expand(expand: Optional[int]) -> None:
    """Reject an explicit ``expand`` outside [0, HARD_MAX_EXPAND]; every
    operator checks before its integer-time dispatch or any allocation."""
    if expand is not None and not 0 <= expand <= HARD_MAX_EXPAND:
        raise ValueError(f"expand must lie in [0, {HARD_MAX_EXPAND}]")


def _window_convolve(a: SeqWindow, expand: int, kernel):
    """The grown-window convolution behind every operator of this module.

    Returns the first index of the window grown by ``expand`` per side,
    c_m = sum_n kernel(m - n) a_n on it, and the kernel values c_d for
    d = -span .. span, span = len(a) + expand (``kernel`` is called once on
    that integer grid).  The grid covers every |m - n| of the sum, so the
    entries carry no truncation.  Evaluated directly through np.convolve
    (no FFT).
    """
    _check_expand(expand)
    L = len(a)
    span = L + expand
    c = kernel(np.arange(-span, span + 1))
    return a.n0 - expand, np.convolve(a.values, c)[L:2 * L + 2 * expand], c


# ---------------------------------------------------------------------------
# the operator and its group
# ---------------------------------------------------------------------------

def hilbert_apply(a: SeqWindow, expand: int = 0) -> SeqWindow:
    """Apply (H a)_m = sum_{n != m} a_n / (m - n) on the window grown by
    ``expand`` on each side: :func:`dht_power` with r = 1, whose tail
    certifies the spill past the output window plus pi times the input tail.
    """
    return dht_power(a, 1, expand=expand)


def integer_orbit(N: int, a: SeqWindow) -> SeqWindow:
    """e^(N H) a for integer N: the exact signed shift (-1)^N a_(m+N)."""
    N = int(N)
    return SeqWindow(n0=a.n0 - N, values=(-1.0) ** (N % 2) * a.values,
                     tail_l2=a.tail_l2)


def hilbert_group(t: float, a: SeqWindow, expand: int = 0) -> SeqWindow:
    """Closed-form orbit e^(tH) a with integer-branch dispatch.

    Off the integers the kernel is sin(pi t)/pi * 1/(m - n + t); the output
    tail uses the isometry: whatever norm is missing from the computed window
    must sit outside it.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    _check_expand(expand)
    if abs(t - round(t)) < INTEGER_EPS:
        return integer_orbit(round(t), a)
    s = math.sin(_PI * t) / _PI
    out_n0, vals, _ = _window_convolve(a, expand, lambda d: s / (d + t))
    in_hi = math.hypot(a.norm(), a.tail_l2)
    out_norm = float(np.linalg.norm(vals))
    tail = math.sqrt(max(in_hi ** 2 - out_norm ** 2, 0.0))
    return SeqWindow(n0=out_n0, values=vals, tail_l2=tail)


def dht_instance(expand: int = 256) -> GroupInstance:
    """Package the transform as a generic group instance (orbit/generator/norm)
    so the abstract orbit-sampling engine can drive it directly."""
    return GroupInstance(
        orbit=lambda t, a: hilbert_group(t, a, expand),
        generator=lambda a: hilbert_apply(a, expand),
        norm=lambda a: a.norm(),
        sigma_bound=_PI,
        dim=None,
    )


# ---------------------------------------------------------------------------
# orbit sampling specialized to the transform (sigma = pi, u = t)
# ---------------------------------------------------------------------------

def dht_vt(a: SeqWindow, t: float, tol: float = 1e-6,
           expand: Optional[int] = None) -> SeqWindow:
    """Trajectory value by the bounded-vector expansion:

        e^(tH)a = sinc(t) a + t sinc(t) Ha + sum_{k!=0} (t/k) sinc(t-k) (-1)^k a_(.+k)

    Entirely finite for a windowed sequence: the only series is the shifted
    convolution, with weights w(k) = (-1)^k sinc(t-k)/k = sin(pi t)/(pi k (t-k))
    at k = n - m, on the window grown by ``expand`` (default from tol), and
    shifts beyond the window vanish.
    """
    t = snap_integer(float(t))
    _check_expand(expand)
    if abs(t - round(t)) < INTEGER_EPS:
        return integer_orbit(round(t), a)
    if expand is None:
        expand = _default_expand(a, tol)
    ha = hilbert_apply(a, expand)
    s = math.sin(_PI * t)

    def w(d):  # w(k) at k = -d
        return np.where(d == 0, 0.0, s / (_PI * -np.where(d == 0, 1, d) * (t + d)))

    out_n0, shifted, _ = _window_convolve(a, expand, w)
    apad = a.on_range(out_n0, len(shifted))
    vals = sinc(t) * apad + t * sinc(t) * ha.values + t * shifted
    tail = a.tail_l2 * (1.0 + abs(t) * (1.0 + _PI)) + abs(t) * ha.tail_l2
    return SeqWindow(n0=out_n0, values=vals, tail_l2=tail)


# ---------------------------------------------------------------------------
# powers of H through the symbol kernel
# ---------------------------------------------------------------------------

def _power_coefficients(r: int) -> np.ndarray:
    """alpha with c_d = sum_p alpha[p] d^(-p) for d != 0, the kernel of H^r.

    With phi = pi - theta the kernel is c_d = (1/2pi) int (-i phi)^r
    (-1)^d e^(-id phi) dphi = Re[(-i)^r (-1)^d J_r(d)] / (2 pi), where
    J_q(d) = int_(-pi)^(pi) phi^q e^(-id phi) dphi.  Integration by parts gives

        J_q(d) = (-1)^d pi^q (1 - (-1)^q) / (-id) + (q / (id)) J_(q-1)(d),

    J_0(d) = 0, so (-1)^d J_q is a polynomial in y = i/d with real
    coefficients beta, and (-i)^r y^p = (-1)^r i^(r+p) d^(-p).
    """
    beta = np.zeros(r + 1)
    for q in range(1, r + 1):
        beta = np.concatenate(([0.0], -q * beta[:-1]))
        beta[1] += (1 - (-1) ** q) * _PI ** q
    re_i = np.array([1.0, 0.0, -1.0, 0.0])[(r + np.arange(r + 1)) % 4]
    return (-1) ** r * beta * re_i / (2.0 * _PI)


def _power_kernel(r: int, span: int) -> np.ndarray:
    """c_d for d = -span .. span, the kernel (H^r a)_m = sum_n c_(m-n) a_n;
    c_0 = Re[(-i)^r] pi^r / (r + 1), zero for odd r."""
    alpha = _power_coefficients(r)
    ds = np.arange(-span, span + 1, dtype=float)
    x = 1.0 / np.where(ds == 0.0, 1.0, ds)
    c = np.zeros_like(x)
    for coef in alpha[:0:-1]:
        c = (c + coef) * x
    c[span] = (-1) ** (r // 2) * _PI ** r / (r + 1) if r % 2 == 0 else 0.0
    return c


def dht_power(a: SeqWindow, r: int, tol: float = 1e-6,
              expand: Optional[int] = None,
              iterated: bool = False) -> SeqWindow:
    """H^r a on the window grown by ``expand`` (default from tol).

    One convolution with the exact kernel c_d of H^r (see
    :func:`_power_kernel`); every |m - n| in play is within the kernel's
    span, so the output entries carry no truncation.  The tail is pi^r times
    the input tail plus the Cauchy-Schwarz spill past the output window,
    ||a|| sqrt(sum_n sum_(m outside) c_(m-n)^2): summed from the kernel up
    to the span, and beyond it bounded through |c_d| <= sum_p |alpha_p|
    d^(-p) and sum_(d>N) d^(-s) <= N^(1-s)/(s-1) (1/N for r = 1, which is
    :func:`hilbert_apply`).  ``iterated=True`` instead composes the order-1
    operator r times.
    """
    if r < 1:
        raise ValueError("power r must be >= 1")
    if iterated:
        per = expand if expand is not None else _default_expand(a, tol)
        out = a
        for _ in range(r):
            out = dht_power(out, 1, tol=tol, expand=per)
        return out
    if expand is None:
        expand = _default_expand(a, tol)
    out_n0, vals, c = _window_convolve(a, expand, lambda d: _power_kernel(r, d[-1]))
    L = len(a)
    span = L + expand
    # entry n has its nearest excluded m at |d| = g on each side, with g
    # running over expand+1 .. span once per side; c_d^2 for d <= span then
    # counts d - expand times, and the sum beyond span L times
    d = np.arange(expand + 1, span + 1)
    inside = float(np.dot(d - expand, c[span + d] ** 2))
    alpha = np.abs(_power_coefficients(r)[1:])
    s = np.add.outer(np.arange(1, r + 1), np.arange(1, r + 1))
    beyond = float(np.sum(np.outer(alpha, alpha) * span ** (1.0 - s) / (s - 1)))
    spill = a.norm() * math.sqrt(2.0 * (inside + L * beyond))
    return SeqWindow(n0=out_n0, values=vals, tail_l2=_PI ** r * a.tail_l2 + spill)


def _default_expand(a: SeqWindow, tol: float) -> int:
    """Window growth per side when the caller gives none: a heuristic
    estimate, not a certificate.  1/(m-n+t) kernels put O(1/sqrt(N)) l2 mass
    beyond N extra slots; nothing proves this size meets tol."""
    grow = int(math.ceil(max(a.norm(), 1.0) / max(tol, 1e-12)))
    return min(max(grow, len(a)), MAX_EXPAND)


def _pairing(s: float, a: SeqWindow, b: SeqWindow) -> float:
    """<e^(sH) a, b> from the windows, without materializing the orbit."""
    if abs(s - round(s)) < INTEGER_EPS:
        shifted = integer_orbit(round(s), a)
        lo = max(shifted.n0, b.n0)
        hi = min(shifted.n_last, b.n_last)
        if lo > hi:
            return 0.0
        return float(np.dot(shifted.on_range(lo, hi - lo + 1),
                            b.on_range(lo, hi - lo + 1)))
    ms = np.arange(b.n0, b.n_last + 1)
    ns = np.arange(a.n0, a.n_last + 1)
    denom = ms[:, None] - ns[None, :] + s
    return float(math.sin(_PI * s) / _PI
                 * np.sum(b.values[:, None] * a.values[None, :] / denom))


def pairing_check(a: SeqWindow, b: SeqWindow, t: float, gamma: float = 0.5,
                  k_terms: int = 4000) -> Tuple[float, float]:
    """Scalar trajectory sampling at sub-unit spacing: returns the pairing
    <e^(tH) a, b> computed directly and through

        sum_k <e^((gamma k) H) a, b> sinc(t/gamma - k),  0 < gamma < 1.

    The pairing function of t is bounded of exponential type pi, so spacing
    gamma < 1 oversamples it and the cardinal series converges on compacts.
    Real t only; windows are consumed as given.
    """
    if not (0.0 < gamma < 1.0):
        raise ValueError("gamma must lie in (0, 1)")
    direct = _pairing(float(t), a, b)
    u = snap_integer(float(t) / gamma)
    ks = np.arange(-k_terms, k_terms + 1)
    kern = sinc_grid(u - ks)
    live = np.nonzero(kern)[0]
    sampled = 0.0
    for i in live:
        sampled += _pairing(gamma * float(ks[i]), a, b) * float(kern[i])
    return direct, sampled
