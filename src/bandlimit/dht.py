"""The discrete Hilbert transform on l2 and its closed-form isometry group.

The operator acts entrywise on square-summable sequences a = (a_n):

    (H a)_m = sum_{n != m} a_n / (m - n)

with operator norm pi, attained only in the limit: ||H a|| < pi ||a|| strictly
for every nonzero a.  H generates a one-parameter group of isometries with a
fully explicit orbit map:

    t not an integer:  (e^(tH) a)_m = (sin(pi t)/pi) sum_n a_n / (m - n + t)
    t = N integer:     (e^(tH) a)_m = (-1)^N a_(m+N)

The integer branch is an exact signed shift; the general formula degenerates
to a 0 * inf limit there, and the generic kernel has lost precision within
1e-9 of it.  So the shift e^(NH) a also serves |t - N| < 1e-9, and its tail
is charged ||e^(tH) a - e^(NH) a|| <= pi |t - N| ||a|| (nothing at t = N).

Because every vector satisfies ||H^k a|| <= pi^k ||a||, the whole space is
eligible for orbit sampling at unit spacing (sigma = pi, so u = t), and the
lattice samples e^(kH) a are signed shifts, free of any series evaluation.
The orbit formula's scalar series sum_{k!=0} sinc(t - k)/k = (1 - sinc t)/t
(Mittag-Leffler) folds its a terms into sinc(t) a, leaving the finite
bounded-vector expansion

    e^(tH)a = sinc(t) a + t sinc(t) Ha + sum_{k!=0} (t/k) sinc(t - k) (-1)^k a_(.+k),

which meets the closed form to rounding.  It is kept as a test oracle;
the trajectory value is ``hilbert_group``, whose tail is the norm the
output window misses by isometry, sqrt(||a||^2 - ||out||^2), plus the
input tail, which moves the entries inside the window as well.

Powers come from the symbol.  H is the Toeplitz operator with symbol
-i(pi - theta) on (0, 2 pi), so H^r has the kernel

    c_d = (1/2pi) int_0^(2pi) (-i(pi - theta))^r e^(i d theta) dtheta,

a polynomial in 1/d (c_d = 1/d for r = 1, -2/d^2 with c_0 = -pi^2/3 for
r = 2), computed exactly for |d| up to the span of the window.  The paper's
route superposes orbit samples,

    H^(2s-1) a = sum_k (-1)^(k+1) a(s,k) e^((k-1/2)H) a
    H^(2s)   a = sum_k (-1)^(k+1) b(s,k) e^(kH) a = - sum_k b(s,k) a_(.+k),

and reaches the same kernel only in the limit of the half-integer series;
it is kept as a test oracle, as is the r-fold composition of the order-1
operator.  hilbert_apply is the r = 1 case, with the same certified spill
bound.

Every operator takes its window by one rule before anything else: the input
grown by ``expand`` slots per side, refused outside [0, HARD_MAX_EXPAND] =
[0, 10^7], or by min(4 len(a), 4096) when left out (a size, not a
certificate; each output's ``tail_l2`` says what the window misses).
Kernels are summed on it by numpy's direct "valid" convolution (no FFT);
integer times are signed shifts and grow no window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .grouporbit import GroupInstance, _orbit_sum

_PI = math.pi

#: |t - round(t)| below this dispatches to the exact integer branch
INTEGER_EPS = 1e-9

HARD_MAX_EXPAND = 10_000_000


def _norm(values: np.ndarray) -> float:
    """||values||_2 at the scale of the largest |entry|: 2^k <= max |entry|
    < 2^(k+1), so the squares of the entries times 2^-k neither overflow nor
    underflow, and scaling by a power of two is exact."""
    k = math.frexp(float(np.max(np.abs(values))))[1] - 1
    return float(np.linalg.norm(np.ldexp(values, -k))) * 2.0 ** k


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
        if not self.tail_l2 >= 0.0:
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
        """||values||_2, finite wherever the norm is (see :func:`_norm`)."""
        return _norm(self.values)

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


def _grown(a: SeqWindow, expand: Optional[int]) -> int:
    """Slots per side of the grown window: ``expand``, or min(4 len(a), 4096)
    when it is None.  Every operator asks once, before its integer-time
    dispatch or any allocation; ValueError outside [0, HARD_MAX_EXPAND]."""
    if expand is None:
        return min(4 * len(a), 4096)
    if not 0 <= expand <= HARD_MAX_EXPAND:
        raise ValueError(f"expand must lie in [0, {HARD_MAX_EXPAND}]")
    return expand


# ---------------------------------------------------------------------------
# the operator and its group
# ---------------------------------------------------------------------------

def hilbert_apply(a: SeqWindow, expand: Optional[int] = None) -> SeqWindow:
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


def hilbert_group(t: float, a: SeqWindow, expand: Optional[int] = None) -> SeqWindow:
    """Closed-form orbit e^(tH) a with integer-branch dispatch.

    Off the integers the kernel is sin(pi t)/pi * 1/(m - n + t).  The output
    tail is the norm that the isometry puts outside the computed window,
    plus the input tail, which e^(tH) carries at its own norm into every
    entry (triangle inequality).  Near an integer, see the module docstring.
    """
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("t must be finite")
    grow = _grown(a, expand)
    N = round(t)
    if t == N:
        return integer_orbit(N, a)
    norm = a.norm()
    if not math.isfinite(norm):
        raise ValueError("the window norm ||a|| overflows float64")
    if abs(t - N) < INTEGER_EPS:  # the shift, charged pi |t - N| ||a||
        out = integer_orbit(N, a)
        return SeqWindow(out.n0, out.values, out.tail_l2 + _PI * abs(t - N) * norm)
    s = math.sin(_PI * t) / _PI
    span = len(a) + grow
    vals = np.convolve(s / (np.arange(1 - span, span) + t), a.values, "valid")
    # sqrt(norm^2 - kept^2) at the scale of the norm, as in _norm
    k = math.frexp(norm)[1] - 1
    x, y = math.ldexp(norm, -k), math.ldexp(_norm(vals), -k)
    spill = math.sqrt(max(x * x - y * y, 0.0)) * 2.0 ** k
    return SeqWindow(n0=a.n0 - grow, values=vals, tail_l2=spill + a.tail_l2)


def dht_instance(expand: int = 256) -> GroupInstance:
    """Package the transform as a generic group instance (orbit/generator/norm)
    so the abstract orbit-sampling engine can drive it directly.

    The fixed ``expand`` is not the length rule of the operators: the engine
    applies the orbit and the generator to their own outputs, and a growth
    proportional to the input length would compound with every step."""
    return GroupInstance(
        orbit=lambda t, a: hilbert_group(t, a, expand),
        generator=lambda a: hilbert_apply(a, expand),
        norm=lambda a: a.norm(),
        sigma_bound=_PI,
        dim=None,
    )


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


@np.errstate(over="ignore", invalid="ignore")  # checked before the return
def dht_power(a: SeqWindow, r: int, expand: Optional[int] = None) -> SeqWindow:
    """H^r a on the window grown by ``expand``.

    numpy's "valid" convolution with the exact kernel c_d of H^r on
    |d| < span = len(a) + expand (:func:`_power_kernel`), so the output
    entries carry no truncation.  The tail is pi^r times the input
    tail plus the Cauchy-Schwarz spill past the output window, ||a||
    sqrt(sum_n sum_(m outside) c_(m-n)^2): summed from the kernel up to the
    span, and beyond it bounded through |c_d| <= sum_p |alpha_p| d^(-p) and
    sum_(d>N) d^(-s) <= N^(1-s)/(s-1) (1/N for r = 1, which is
    :func:`hilbert_apply`); ValueError if an entry or the tail overflows.
    """
    if r < 1:
        raise ValueError("power r must be >= 1")
    expand = _grown(a, expand)
    L = len(a)
    span = L + expand
    overflow = ValueError(f"H^r of order r={r} overflows float64 on this window")
    try:
        c = _power_kernel(r, span)
    except OverflowError:  # pi^r as a Python float, from r = 621 on
        raise overflow from None
    vals = np.convolve(c[1:-1], a.values, "valid")
    # entry n has its nearest excluded m at |d| = g on each side, with g
    # running over expand+1 .. span once per side; c_d^2 for d <= span then
    # counts d - expand times, and the sum beyond span L times
    d = np.arange(expand + 1, span + 1)
    inside = float(np.dot(d - expand, c[span + d] ** 2))
    # span sum a_p a_q/(p+q-1), a_p = |alpha_p| span^-p: alpha_p alpha_q can overflow
    p = np.arange(1, r + 1)
    a_p = np.abs(_power_coefficients(r)[1:]) * float(span) ** -p
    beyond = span * float(np.sum(np.outer(a_p, a_p) / np.add.outer(p, p - 1)))
    tail = _PI ** r * a.tail_l2 + a.norm() * math.sqrt(2.0 * (inside + L * beyond))
    if not (math.isfinite(tail) and np.all(np.isfinite(vals))):
        raise overflow
    return SeqWindow(n0=a.n0 - expand, values=vals, tail_l2=tail)


def _pairing(s: float, a: SeqWindow, b: SeqWindow) -> float:
    """<e^(sH) a, b>: the orbit on the smallest window that covers b."""
    grow = max(a.n0 - b.n0, b.n_last - a.n_last, 0)
    return float(np.dot(hilbert_group(s, a, grow).on_range(b.n0, len(b)), b.values))


def pairing_check(a: SeqWindow, b: SeqWindow, t: float, tol: float = 1e-6,
                  k_terms: Optional[int] = None) -> Tuple[float, float]:
    """<e^(tH) a, b> computed directly, and sampled from p(s) = <e^(sH) a, b>
    at s = n/2 by the local orbit engine (:mod:`bandlimit.grouporbit`).

    p is entire of type pi and bounded by ||a|| ||b|| on the real line, so
    the engine's lattice at rate pi is h = 1/2, and its certificate with
    that bound meets tol, or N is ``k_terms`` when it is pinned.  Real t
    only; windows are consumed as given.
    """
    t = float(t)
    sampled, _ = _orbit_sum(lambda ns, dts: (_pairing(n / 2, a, b) for n in ns.tolist()), 0.0,
                            a.norm() * b.norm(), 0, t, _PI, tol, k_terms)
    return _pairing(t, a, b), sampled
