"""Orbit sampling for one-parameter isometry groups.

Let e^(tD) be a strongly continuous group of isometries on a normed space and
let f satisfy the growth certificate ||D^k f|| <= sigma^k ||f|| for all k.
The whole trajectory t -> e^(tD) f is then recoverable from orbit samples,
and the generator powers D^r f come back from the same samples.

Every entry point runs the local engine of
:func:`bandlimit.sinckernel._local_series` on the twice-oversampled
lattice n h, h = pi/(2 sigma),

    D^r e^(tD) f ~= h^(-r) sum_{|n - n0| <= N} e^(n h D) f
                    d^r/du^r [sinc(u - n) exp(-(pi/4) (u - n)^2 / N)],

u = t/h, n0 = round(u).  ``orbit_reconstruct`` and ``orbit_vt`` take r = 0,
``group_boas`` t = 0, and ``recover_initial`` reads the trajectory from a
base time t back to time 0 (u = -t/h, sample n at ``OrbitSamples.at(n/2)``).
Every unit functional of the trajectory is entire of type sigma and bounded
by ||f|| on the real line, so the scalar certificate of the regularized
series, with sample bound ||f||, bounds the error in norm; N is the
smallest half-width it certifies.  The engine's fetch rule sets the
smallest weights to 0.0 and charges them to the certificate; only the
samples with a nonzero weight are fetched.

The weights and sample points never depend on the group: any object
implementing the :class:`GroupInstance` triple (orbit, generator, norm) plugs
in, finite-dimensional rotations and the discrete Hilbert transform alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

import numpy as np

from .sinckernel import _local_series

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
# local orbit engine (every entry point)
# ---------------------------------------------------------------------------

#: the local engine samples at h = pi/(2 sigma), twice the critical rate,
#: so the regularized kernel's alpha = (pi - h sigma)/2 is pi/4
_ALPHA = _PI / 4.0


def _orbit_sum(fetch: Callable[[int, float], Any], zero, bound: float, r: int,
               u: float, h: float, tol: float, k_terms: Optional[int]):
    """h^-r sum_n w_n fetch(n, u - n) by the local engine
    (:func:`~bandlimit.sinckernel._local_series`, alpha = pi/4), and its
    certificate.

    ``fetch(n, d)`` returns the sample at lattice index n, d = u - n its
    offset from the evaluation point; ``bound`` bounds every sample's norm
    and ``zero`` starts the sum.  N is ``k_terms`` when given (tol is then
    ignored), else the smallest half-width the certificate allows.  Only
    the samples with a nonzero weight are fetched, each once, and summed in
    index order.  The certificate takes each fetched vector as exact: the
    group's own rounding, and the rounding of each sample time, are outside
    it.
    """
    N, rows = _local_series(r, u, _ALPHA, bound, h, tol, k_terms)
    n0, d, w, cert = rows(slice(None))
    w = w[0] / h ** r
    keep = np.flatnonzero(w)
    acc = zero
    for n, dn, wn in zip((int(n0[0]) - N + keep).tolist(), d[0, keep].tolist(),
                         w[keep].tolist()):
        acc = acc + wn * fetch(n, dn)
    return acc, float(cert[0])


def _trajectory(b: BernsteinVector, r: int, t: float, tol: float,
                k_terms: Optional[int]):
    """D^r e^(tD) f by the local orbit engine: sample n is fetched at
    t - (u - n) h, u = t/h, so the node n = u of a lattice time t is fetched
    at t itself."""
    inst, v = b.instance, b.v
    h = _PI / (2.0 * b.sigma)
    # every sample's norm is ||f||: the group is isometric
    return _orbit_sum(lambda n, d: inst.orbit(t - d * h, v), 0.0 * v, inst.norm(v),
                      r, t / h, h, tol, k_terms)


def orbit_reconstruct(b: BernsteinVector, t: float, tol: float = 1e-6,
                      k_terms: Optional[int] = None):
    """Reconstruct e^(tD) f from twice-oversampled orbit samples with the
    local orbit engine (module docstring): an error of at most tol in norm,
    or half-width ``k_terms`` when it is pinned.

    Exact at every t = m pi / (2 sigma), where one sample is fetched.
    Raises ToleranceError, with the achievable tol, below the rounding
    floor.
    """
    return _trajectory(b, 0, float(t), tol, k_terms)[0]


def orbit_vt(b: BernsteinVector, t: float, tol: float = 1e-6,
             k_terms: Optional[int] = None):
    """Trajectory value e^(tD) f, the quantity of the paper's bounded-vector
    expansion; served by the local orbit engine exactly as
    :func:`orbit_reconstruct`."""
    return _trajectory(b, 0, float(t), tol, k_terms)[0]


@dataclass(frozen=True)
class OrbitSamples:
    """Trajectory data around time t, as supplied by a caller.

    f_t is e^(tD) f and at(k) fetches e^((k pi/sigma + t) D) f.  The local
    orbit engine reads the twice-oversampled lattice, so k is a multiple of
    1/2: at(k) must accept half-integers.  Nothing here references f
    itself: for t off the lattice, initial-value recovery genuinely rebuilds
    f from shifted trajectory data only.
    """

    sigma: float
    t: float
    f_t: Any
    at: Callable[[float], Any]

    @classmethod
    def from_bernstein(cls, b: BernsteinVector, t: float) -> "OrbitSamples":
        inst, v, sigma = b.instance, b.v, b.sigma
        step = _PI / sigma
        return cls(sigma=sigma, t=float(t), f_t=inst.orbit(t, v),
                   at=lambda k: inst.orbit(k * step + float(t), v))


def _initial(samples: OrbitSamples, tol: float, k_terms: Optional[int],
             norm: Optional[Callable[[Any], float]]):
    """f by the local orbit engine from base time t to time 0, u = -t/h:
    sample n is at(n/2), bounded by ||f_t||."""
    f_t = samples.f_t
    if norm is not None:
        nf = norm(f_t)
    else:  # a vector's own norm() (SeqWindow), else Euclidean
        nf = f_t.norm() if hasattr(f_t, "norm") else float(np.linalg.norm(f_t))
    h = _PI / (2.0 * samples.sigma)
    return _orbit_sum(lambda n, d: samples.at(n / 2), 0.0 * f_t, nf,
                      0, -samples.t / h, h, tol, k_terms)


def recover_initial(samples: OrbitSamples, tol: float = 1e-6,
                    k_terms: Optional[int] = None,
                    norm: Optional[Callable[[Any], float]] = None):
    """Rebuild the initial vector f from trajectory samples around time t
    with the local orbit engine: an error of at most tol in norm, or
    half-width ``k_terms`` when it is pinned.  ``norm`` measures f_t, which
    bounds every sample.  Raises ToleranceError, with the achievable tol,
    below the rounding floor."""
    return _initial(samples, tol, k_terms, norm)[0]


def group_boas(b: BernsteinVector, r: int, tol: float = 1e-6,
               k_terms: Optional[int] = None):
    """Apply D^r through twice-oversampled orbit samples with the local orbit
    engine (module docstring): an error of at most tol in norm, or
    half-width ``k_terms`` when it is pinned.
    ||result|| <= sigma^r ||f|| up to that error.  Raises ToleranceError,
    with the achievable tol, below the rounding floor."""
    if r < 1:
        raise ValueError("power r must be >= 1")
    return _trajectory(b, int(r), 0.0, tol, k_terms)[0]


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

