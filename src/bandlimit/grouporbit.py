"""Orbit sampling for one-parameter isometry groups.

Let e^(tD) be a strongly continuous group of isometries on a normed space and
let f satisfy the growth certificate ||D^k f|| <= sigma^k ||f|| for all k.
The whole trajectory t -> e^(tD) f is then recoverable from orbit samples,
and the generator powers D^r f come back from the same samples.

Two lattices serve the entry points.

* ``orbit_reconstruct`` and ``group_boas`` use the local orbit engine: the
  twice-oversampled lattice n h, h = pi/(2 sigma), and the regularized
  kernel of :mod:`bandlimit.sinckernel`,

      D^r e^(tD) f ~= h^(-r) sum_{|n - n0| <= N} e^(n h D) f
                      d^r/du^r [sinc(u - n) exp(-(pi/4) (u - n)^2 / N)],

  u = t/h, n0 = round(u) (t = 0 for group_boas).  Every unit functional of
  the trajectory is entire of type sigma and bounded by ||f|| on the real
  line, so the scalar certificate of the regularized series, with sample
  bound ||f||, bounds the error in norm; N is the smallest half-width it
  certifies, and only the samples whose weight is nonzero are fetched.

* ``orbit_vt`` and ``recover_initial`` are the paper's formulas on the
  critical lattice k pi / sigma:

      bounded: e^(tD)f = sinc(u) f + t sinc(u) Df
               + sum_{k!=0} (s t / (k pi)) sinc(u - k) e^((k pi/s)D)f
      initial: f = e^(tD)f - t sinc(u) e^(tD)Df
               - t sum_{k!=0} (e^((k pi/s + t)D)f - e^(tD)f) / (k pi/s) * sinc(u + k)

  with u = sigma t / pi.  Their terms are O(k^-2), and symmetric partial
  sums can still carry a slowly decaying c/K residue when the orbit phases
  resonate with the lattice (rotation blocks at exact type do), so they
  return the Richardson combination 2 S_K - S_(K/2) of the partial sums at
  half-widths K/2 and K, sized by an estimate (``_resolve_k``).

The weights and sample points never depend on the group: any object
implementing the :class:`GroupInstance` triple (orbit, generator, norm) plugs
in, finite-dimensional rotations and the discrete Hilbert transform alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

import numpy as np

from .errors import ToleranceError
from .sinckernel import (
    MAX_HALFWIDTH,
    regularized_halfwidth,
    regularized_sinc_certificate,
    regularized_sinc_grid,
    sinc,
    sinc_grid,
    snap_integer,
)

_PI = math.pi


@dataclass(frozen=True)
class GroupInstance:
    """A one-parameter isometry group presented through callables.

    orbit(t, v) applies e^(tD); generator(v) applies D; norm(v) is the space
    norm.  Every e^(tD) must be an isometry, ||e^(tD) v|| = ||v||: the
    certificates of the local orbit engine bound every orbit sample by
    ||f||.  sigma_bound is the smallest certified growth rate valid for
    every admissible vector.  Implementations must be safe for concurrent
    orbit evaluations; everything here treats them as pure.
    """

    orbit: Callable[[float, Any], Any]
    generator: Callable[[Any], Any]
    norm: Callable[[Any], float]
    sigma_bound: float
    dim: Optional[int] = None


@dataclass(frozen=True)
class BernsteinVector:
    """A vector with a certified growth rate under the group generator."""

    instance: GroupInstance
    v: Any
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError("certified sigma must be positive and finite")

    def validate(self, depth: int = 8, rtol: float = 1e-9) -> bool:
        """Check ||D^k v|| <= sigma^k ||v|| for k <= depth."""
        inst = self.instance
        base = inst.norm(self.v)
        w = self.v
        for k in range(1, depth + 1):
            w = inst.generator(w)
            if inst.norm(w) > self.sigma ** k * base * (1.0 + rtol):
                return False
        return True


def rotation_instance(sigmas) -> GroupInstance:
    """Exactly solvable oracle: block-diagonal generator with 2x2 blocks

        D_i = sigma_i [[0, -1], [1, 0]],

    so e^(tD) rotates block i by the angle sigma_i t and every block vector
    has certified rate exactly sigma_i.  Vectors are flat arrays of length
    2 * len(sigmas); orbits, generator, and norm are closed-form.
    """
    sig = np.asarray(list(sigmas), dtype=float)
    if sig.size == 0:
        raise ValueError("need at least one block")
    if np.any(sig <= 0.0) or np.any(~np.isfinite(sig)):
        raise ValueError("block rates must be positive and finite")

    def orbit(t: float, v):
        v = np.asarray(v, dtype=float).reshape(-1, 2)
        ang = sig * float(t)
        c, s = np.cos(ang), np.sin(ang)
        out = np.empty_like(v)
        out[:, 0] = c * v[:, 0] - s * v[:, 1]
        out[:, 1] = s * v[:, 0] + c * v[:, 1]
        return out.reshape(-1)

    def generator(v):
        v = np.asarray(v, dtype=float).reshape(-1, 2)
        out = np.empty_like(v)
        out[:, 0] = -sig * v[:, 1]
        out[:, 1] = sig * v[:, 0]
        return out.reshape(-1)

    def norm(v) -> float:
        return float(np.linalg.norm(np.asarray(v, dtype=float)))

    return GroupInstance(orbit=orbit, generator=generator, norm=norm,
                         sigma_bound=float(np.max(sig)), dim=2 * sig.size)


# ---------------------------------------------------------------------------
# critical-lattice series engine (orbit_vt, recover_initial)
# ---------------------------------------------------------------------------

def _shells(K: int) -> np.ndarray:
    """Shell indices 1..K, with K raised to an even number >= 2 so that the
    Richardson snapshot falls after shell K/2."""
    K = max(2, int(K))
    return np.arange(1, K + K % 2 + 1)


def _orbit_series(head, fetch: Callable[[Any], Any], times: np.ndarray,
                  weights: np.ndarray):
    """head + Richardson-extrapolated orbit series.

    Row k - 1 of ``times`` and ``weights`` is shell k: the two points it pairs
    (lattice indices k and -k, scaled to orbit times or passed as is to
    :attr:`OrbitSamples.at`) and their weights.  Each
    point is fetched once, outward from the center, and w * fetch(point)
    accumulated; the partial sum S_(K/2) after the first half of the shells
    feeds the 2 S_K - S_(K/2) combination.  Vectors need only + and
    multiplication by a float, so arrays and sequence windows share this
    loop.
    """
    half = times.size // 2
    acc = snap = None
    pairs = zip(times.ravel().tolist(), weights.ravel().tolist())
    for j, (s, w) in enumerate(pairs, 1):
        term = w * fetch(s)
        acc = term if acc is None else acc + term
        if j == half:
            snap = acc
    return 2.0 * (head + acc) - (head + snap)


def _resolve_k(tol: float, t_scale: float, norm_f: float, sigma: float,
               k_terms: Optional[int]) -> int:
    """Half-width for the orbit series: a heuristic estimate, not a
    certificate.

    The extrapolated residue is modelled as c2 / K^2 with
    c2 ~ 8 sigma ||f|| (1 + |u|)^2; K is sized so that model falls below
    tol, floored at 64 shells.  Nothing proves the model bounds the error.
    """
    if k_terms is not None:
        if k_terms < 2:
            raise ValueError("k_terms must be >= 2")
        return int(k_terms)
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    u = abs(t_scale) * sigma / _PI
    c2 = 8.0 * sigma * max(norm_f, 1e-30) * (1.0 + u) ** 2
    K = int(math.ceil(math.sqrt(c2 / tol))) + 2 * int(math.ceil(u))
    K = max(64, K)
    if K > MAX_HALFWIDTH:
        raise ToleranceError(
            f"tol {tol:.3e} needs half-width {K} > {MAX_HALFWIDTH}",
            achievable=c2 / MAX_HALFWIDTH ** 2)
    return K


# ---------------------------------------------------------------------------
# local orbit engine (orbit_reconstruct, group_boas)
# ---------------------------------------------------------------------------

#: the local engine samples at h = pi/(2 sigma), twice the critical rate,
#: so the regularized kernel's alpha = (pi - h sigma)/2 is pi/4
_ALPHA = _PI / 4.0


def _local_orbit(b: BernsteinVector, r: int, t: float, tol: float,
                 k_terms: Optional[int]):
    """D^r e^(tD) f from the orbit samples at n h, |n - n0| <= N, with
    h = pi/(2 sigma); returns the vector and its certificate.

    N is ``k_terms`` when given (tol is then ignored), else the smallest
    half-width whose certificate is <= tol.  The weights are
    ``regularized_sinc_grid(r, u - n, N, pi/4) / h^r``; a sample whose
    weight is exactly 0.0 (at a pinned N the Gaussian underflows beyond
    |u - n| of about sqrt(745 N / alpha)) is not fetched.  Sample n is
    fetched at t - (u - n) h, so the node n = u of a lattice time t is
    fetched at t itself and reproduced exactly for r = 0.

    The certificate covers the truncated series and the arithmetic of the
    sum.  It takes each fetched orbit vector as exact: the group's own
    rounding, and the rounding of each sample time, are outside it.
    """
    inst, v = b.instance, b.v
    h = _PI / (2.0 * b.sigma)
    u = snap_integer(t / h)
    offset = u - round(u)
    norm_f = inst.norm(v)  # bounds every sample: the group is isometric

    def cert(ns):
        return regularized_sinc_certificate(
            r, ns, _ALPHA, norm_f, u=abs(u),
            sin_factor=abs(math.sin(_PI * offset)) if r == 0 else 1.0) / h ** r

    if k_terms is not None:
        if k_terms < 1:
            raise ValueError("k_terms must be >= 1")
        N = int(k_terms)
    else:
        if tol <= 0.0:
            raise ValueError("tolerance must be positive")
        N = regularized_halfwidth(cert, tol)
    d = offset - np.arange(-N, N + 1)
    w = regularized_sinc_grid(r, d, N, _ALPHA) / h ** r
    keep = np.flatnonzero(w)
    acc = 0.0 * v
    for s, wn in zip((t - d[keep] * h).tolist(), w[keep].tolist()):
        acc = acc + wn * inst.orbit(s, v)
    return acc, float(cert(N))


def orbit_reconstruct(b: BernsteinVector, t: float, tol: float = 1e-6,
                      k_terms: Optional[int] = None):
    """Reconstruct e^(tD) f from twice-oversampled orbit samples with the
    local orbit engine (module docstring): an error of at most tol in norm,
    or 2 k_terms + 1 samples when ``k_terms`` pins the half-width.

    Exact at every t = m pi / (2 sigma), where one sample is fetched.
    Raises ToleranceError, with the achievable tol, below the rounding
    floor.
    """
    return _local_orbit(b, 0, float(t), tol, k_terms)[0]


def orbit_vt(b: BernsteinVector, t: float, tol: float = 1e-6,
             k_terms: Optional[int] = None):
    """Trajectory value by the bounded-vector expansion (extra 1/k decay)."""
    inst, v, sigma = b.instance, b.v, b.sigma
    t = float(t)
    u = snap_integer(sigma * t / _PI)
    K = _resolve_k(tol, t, inst.norm(v), sigma, k_terms)
    ks = _shells(max(K, 2 * (abs(int(round(u))) + 2)))
    lattice = np.column_stack((ks, -ks))
    weights = (u / lattice) * sinc_grid(u - lattice)
    head = sinc(u) * (v + t * inst.generator(v))
    return _orbit_series(head, lambda s: inst.orbit(s, v), lattice * (_PI / sigma), weights)


@dataclass(frozen=True)
class OrbitSamples:
    """Trajectory data around time t, as supplied by a caller.

    f_t is e^(tD) f, df_t is e^(tD) D f, and at(k) fetches
    e^((k pi/sigma + t) D) f.  Nothing here references f itself: for t off
    the lattice, initial-value recovery genuinely rebuilds f from shifted
    trajectory data only.
    """

    sigma: float
    t: float
    f_t: Any
    df_t: Any
    at: Callable[[int], Any]

    @classmethod
    def from_bernstein(cls, b: BernsteinVector, t: float) -> "OrbitSamples":
        inst, v, sigma = b.instance, b.v, b.sigma
        step = _PI / sigma
        return cls(sigma=sigma, t=float(t),
                   f_t=inst.orbit(t, v),
                   df_t=inst.orbit(t, inst.generator(v)),
                   at=lambda k: inst.orbit(k * step + float(t), v))


def recover_initial(samples: OrbitSamples, tol: float = 1e-6,
                    k_terms: Optional[int] = None,
                    norm: Optional[Callable[[Any], float]] = None):
    """Rebuild the initial vector f from trajectory samples around time t."""
    sigma, t = samples.sigma, samples.t
    u = snap_integer(sigma * t / _PI)
    f_t = samples.f_t
    if norm is not None:
        nf = norm(f_t)
    else:  # a vector's own norm() (SeqWindow), else Euclidean
        nf = f_t.norm() if hasattr(f_t, "norm") else float(np.linalg.norm(f_t))
    K = _resolve_k(tol, t, nf, sigma, k_terms)
    ks = _shells(max(K, 2 * (abs(int(round(u))) + 2)))
    lattice = np.column_stack((ks, -ks))
    weights = -t * sinc_grid(u + lattice) / (lattice * (_PI / sigma))
    head = f_t - (t * sinc(u)) * samples.df_t
    return _orbit_series(head, lambda k: samples.at(k) - f_t, lattice, weights)


def group_boas(b: BernsteinVector, r: int, tol: float = 1e-6,
               k_terms: Optional[int] = None):
    """Apply D^r through twice-oversampled orbit samples with the local orbit
    engine (module docstring): an error of at most tol in norm, or
    2 k_terms + 1 samples when ``k_terms`` pins the half-width.
    ||result|| <= sigma^r ||f|| up to that error.  Raises ToleranceError,
    with the achievable tol, below the rounding floor."""
    if r < 1:
        raise ValueError("power r must be >= 1")
    return _local_orbit(b, int(r), 0.0, tol, k_terms)[0]


@dataclass(frozen=True)
class TypeEstimate:
    """Growth-rate estimate ||D^k f||^(1/k) with its whole trace.

    The limit exists for any vector with a finite certified rate and equals
    the smallest admissible sigma; finite k_max certifies it only up to the
    horizon, so the final gap to the true rate is reported, not resolved.
    """

    estimate: float
    sequence: List[float] = field(repr=False)


def exponential_type(instance: GroupInstance, v, k_max: int = 60) -> TypeEstimate:
    """Estimate the certified growth rate of v by ||D^k v||^(1/k) at k = k_max.

    The iteration renormalizes after every generator application and
    accumulates log norms, so sigma^k never overflows and the ||v||^(1/k)
    bias cancels exactly (a pure rotation block returns its rate at every k).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    norm = instance.norm
    base = norm(v)
    if base == 0.0:
        raise ValueError("zero vector has no growth rate")
    w = v / base
    log_acc = 0.0
    seq: List[float] = []
    for k in range(1, k_max + 1):
        w = instance.generator(w)
        step_norm = norm(w)
        if step_norm == 0.0:
            seq.extend([0.0] * (k_max - len(seq)))
            return TypeEstimate(estimate=0.0, sequence=seq)
        log_acc += math.log(step_norm)
        w = w / step_norm
        seq.append(math.exp(log_acc / k))
    return TypeEstimate(estimate=seq[-1], sequence=seq)

