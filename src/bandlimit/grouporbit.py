"""Orbit sampling for one-parameter isometry groups.

Let e^(tD) be a strongly continuous group of isometries on a normed space and
let f satisfy the growth certificate ||D^k f|| <= sigma^k ||f|| for all k.
The whole trajectory t -> e^(tD) f is then recoverable from the countable
sample set e^((k pi / sigma) D) f:

    orbit:   e^(tD)f = f + t sinc(u) Df
             + t sum_{k!=0} (e^((k pi/s)D)f - f) / (k pi/s) * sinc(u - k)
    initial: f = e^(tD)f - t sinc(u) e^(tD)Df
             - t sum_{k!=0} (e^((k pi/s + t)D)f - e^(tD)f) / (k pi/s) * sinc(u + k)
    bounded: e^(tD)f = sinc(u) f + t sinc(u) Df
             + sum_{k!=0} (s t / (k pi)) sinc(u - k) e^((k pi/s)D)f

with u = sigma t / pi, and the generator powers come back through the same
weights that differentiate scalar bandlimited functions:

    D^(2m-1) f = (s/pi)^(2m-1) sum_k (-1)^(k+1) a(m,k) e^((pi(k-1/2)/s)D) f
    D^(2m)   f = (s/pi)^(2m)   sum_k (-1)^(k+1) b(m,k) e^((pi k/s)D) f

All four series have O(k^-2) terms.  Symmetric partial sums can still carry a
slowly decaying c/K residue when the orbit phases resonate with the lattice
(rotation blocks at exact type do), so the engine evaluates the partial sum
at half-widths K/2 and K and returns the Richardson combination
2 S_K - S_{K/2}, which cancels the c/K term and leaves O(K^-2) accuracy.

The coefficients and sample points never depend on the group: any object
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
    boas_coefficient,
    boas_coefficient_grid,
    coefficient_tail_bound,
    sinc,
    sinc_grid,
    snap_integer,
)

_PI = math.pi


@dataclass(frozen=True)
class GroupInstance:
    """A one-parameter isometry group presented through callables.

    orbit(t, v) applies e^(tD); generator(v) applies D; norm(v) is the space
    norm.  sigma_bound is the smallest certified growth rate valid for every
    admissible vector.  Implementations must be safe for concurrent orbit
    evaluations; everything here treats them as pure.
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
# series engine
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
    (lattice indices k and -k, or k - 1/2 and 1/2 - k, scaled to orbit times
    or passed as is to :attr:`OrbitSamples.at`) and their weights.  Each
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


def orbit_reconstruct(b: BernsteinVector, t: float, tol: float = 1e-6,
                      k_terms: Optional[int] = None):
    """Reconstruct e^(tD) f from lattice samples of the trajectory.

    Exact at the lattice t = m pi / sigma (all kernel weights vanish except
    the matching sample) and at t = 0.
    """
    inst, v, sigma = b.instance, b.v, b.sigma
    t = float(t)
    u = snap_integer(sigma * t / _PI)
    K = _resolve_k(tol, t, inst.norm(v), sigma, k_terms)
    ks = _shells(max(K, 2 * (abs(int(round(u))) + 2)))  # node shell in both partial sums
    lattice = np.column_stack((ks, -ks))
    times = lattice * (_PI / sigma)
    weights = t * sinc_grid(u - lattice) / times
    head = v + (t * sinc(u)) * inst.generator(v)
    return _orbit_series(head, lambda s: inst.orbit(s, v) - v, times, weights)


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
    """Apply D^r through shifted orbit samples; ||result|| <= sigma^r ||f||
    up to the truncation tolerance."""
    if r < 1:
        raise ValueError("power r must be >= 1")
    inst, v, sigma = b.instance, b.v, b.sigma
    scale = (sigma / _PI) ** r
    m = (r + 1) // 2
    parity = "odd" if r % 2 else "even"
    if k_terms is None:
        # plain truncation leaves at most tail(K) = c/K; the extrapolated
        # combination squares the decay, so size K by c/K^2 <= tol with the
        # rigorous coefficient-tail constant c = K * tail(K)
        c = scale * max(inst.norm(v), 1e-30) * 2.0 * coefficient_tail_bound(parity, m, 2)
        K = max(64, int(math.ceil(math.sqrt(4.0 * c / tol))))
        if K > MAX_HALFWIDTH:
            raise ToleranceError(
                f"tol {tol:.3e} needs half-width {K} > {MAX_HALFWIDTH}",
                achievable=c / MAX_HALFWIDTH ** 2)
    else:
        K = int(k_terms)
    ks = _shells(K)
    w = np.where(ks % 2, 1.0, -1.0) * boas_coefficient_grid(parity, m, ks)
    if r % 2:
        # index 1-k carries the same weight with opposite sign
        lattice = np.column_stack((ks - 0.5, 0.5 - ks))
        weights = np.column_stack((w, -w))
        head = 0.0 * v
    else:
        lattice = np.column_stack((ks, -ks))
        weights = np.column_stack((w, w))
        head = -boas_coefficient("even", m, 0) * v
    series = _orbit_series(head, lambda s: inst.orbit(s, v), lattice * (_PI / sigma), weights)
    return scale * series


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

