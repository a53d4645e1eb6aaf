"""Orbit sampling for one-parameter isometry groups.

Let e^(tD) be a strongly continuous group of isometries on a normed space and
let f satisfy the growth certificate ||D^k f|| <= sigma^k ||f|| for all k.
The whole trajectory t -> e^(tD) f is then recoverable from orbit samples,
and the generator powers D^r f come back from the same samples.

Every entry point runs the local engine :func:`_orbit_sum`, which alone
sets the twice-oversampled lattice n h, h = pi/(2 sigma),

    D^r e^(tD) f ~= h^(-r) sum_{|n - n0| <= N} e^(n h D) f
                    d^r/du^r [sinc(u - n) exp(-(pi/4) (u - n)^2 / N)],

u = t/h, n0 = round(u).  ``orbit_reconstruct`` takes r = 0 (``orbit_vt``,
the paper's bounded-vector expansion, is the same function), ``group_boas``
t = 0, and ``recover_initial`` reads the trajectory from a base time t back
to time 0 (sample n at ``OrbitSamples.at(n/2)``).
Every unit functional of the trajectory is entire of type sigma and bounded
by ||f|| on the real line, so the scalar certificate of the regularized
series, with sample bound ||f||, bounds the error in norm; N is the
smallest half-width it certifies.  The engine builds a pinned N's
weights on a band around n0 only, and its fetch rule sets the smallest
weights to 0.0; both are charged to the certificate.  Only the samples
with a nonzero weight are fetched, in index order by one call, and array
samples are summed by one index-order accumulation per block,
bit-identical to adding them one by one (:func:`_weighted_sum`).  The
Boas derivatives of :mod:`bandlimit.boas` are this engine on translation.

The weights and sample points never depend on the group: any object
implementing the :class:`GroupInstance` triple (orbit, generator, norm) plugs
in, finite-dimensional rotations and the discrete Hilbert transform alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional

import numpy as np

from .sinckernel import _block_rows, _local_series

_PI = math.pi


@dataclass(frozen=True)
class GroupInstance:
    """A one-parameter isometry group presented through callables.

    orbit(t, v) applies e^(tD); generator(v) applies D; norm(v) is the space
    norm.  Every e^(tD) must be an isometry, ||e^(tD) v|| = ||v||: the
    certificates of the local orbit engine bound every orbit sample by
    ||f||.  sigma_bound, the smallest certified growth rate valid for every
    admissible vector, and dim, the vector length (None when it varies),
    describe the group to its callers: the engine never reads either, and
    takes the rate from each :class:`BernsteinVector`.  Implementations
    must be safe for concurrent orbit evaluations; everything here treats
    them as pure.
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

def _orbit_sum(samples: Callable[[np.ndarray, np.ndarray], Any], zero, bound: float,
               r: int, t: float, sigma: float, tol: float, k_terms: Optional[int],
               origin: Optional[float] = None):
    """D^r at time t of a trajectory of rate sigma, h^-r sum_n w_n x_n, by
    the local engine (:func:`~bandlimit.sinckernel._local_series`), and its
    certificate.  Only here is the lattice set: h = pi/(2 sigma), twice the
    critical rate, so alpha = (pi - h sigma)/2 = pi/4, and u = t/h.

    ``samples(ns, dts)`` is called once, with the int lattice indices n of
    the nonzero weights in index order and their time offsets dts = d h,
    d = u - n (sample n is the trajectory at t - dt), and returns the
    samples x_n in that order: an iterator whose items are each used or
    copied before the next is drawn, or an array of one per row.  ``bound``
    bounds every sample's norm; ``zero`` starts the sum of
    :func:`_weighted_sum`.  N is ``k_terms`` when given (tol is then
    ignored), else the smallest half-width the certificate allows.  The
    certificate takes each sample as exact (``origin``: see
    :func:`_local_series`); the group's own rounding, and that of each
    sample time, are outside it.
    """
    if not math.isfinite(t):
        raise ValueError(f"time t must be finite, got {t}")
    h = _PI / (2.0 * sigma)
    N, rows = _local_series(r, t / h, _PI / 4.0, bound, h, tol, k_terms, origin=origin)
    n_lo, d, w, cert = rows(slice(None))
    w = w[0] / h ** r
    keep = np.flatnonzero(w)
    xs = samples(int(n_lo[0]) + keep, d[0, keep] * h)
    return _weighted_sum(zero, w[keep], iter(xs)), float(cert[0])


#: largest vector that _weighted_sum stacks: np.add.accumulate along the
#: stack runs one inner loop per entry, and above about 128 entries that
#: costs more than adding the samples one by one
_STACKED_MAX_SIZE = 128

#: sample types whose product with a float weight, and whose sums, come out
#: the same stacked as one by one
_STACKED = (np.dtype(np.float64), np.dtype(np.complex128))


def _weighted_sum(zero, w: np.ndarray, samples: Iterator[Any]):
    """zero + w[0] x_0 + w[1] x_1 + ..., added left to right, each sample
    x_i drawn from the iterator, and copied or used, before the next.

    When zero is a float64 or complex128 array of at most _STACKED_MAX_SIZE
    entries, each sample of its shape and type is copied on arrival into a
    block (:func:`~bandlimit.sinckernel._block_rows`) behind the running
    sum; the block is scaled by one multiply and summed in place by one
    np.add.accumulate along the stack, which adds row by row, the additions
    of the loop in its order, so the sum is bit-identical to it.  Other
    vectors (larger arrays, SeqWindow), and every sample from the first that
    does not fit the block, are added one by one.
    """
    ws = w.tolist()
    acc, i = zero, 0
    if (isinstance(zero, np.ndarray) and zero.dtype in _STACKED
            and zero.size <= _STACKED_MAX_SIZE and ws):
        shape, dtype = zero.shape, zero.dtype
        buf = np.empty((min(_block_rows(zero.size), len(ws)) + 1,) + shape, dtype)
        buf[0] = zero
        odd = None
        while odd is None and i < len(ws):
            k = 0  # samples stacked behind the running sum buf[0]
            for row, x in zip(buf[1:len(ws) - i + 1], samples):
                if not (isinstance(x, np.ndarray) and x.dtype is dtype and x.shape == shape):
                    odd = x
                    break
                row[...] = x
                k += 1
            blk = buf[:k + 1]
            blk[1:] *= w[i:i + k].reshape((k,) + (1,) * len(shape))
            np.add.accumulate(blk, axis=0, out=blk)
            buf[0] = blk[k]
            i += k
        if odd is None:
            return buf[0].copy()
        acc = buf[0] + ws[i] * odd
        i += 1
    for wn, x in zip(ws[i:], samples):
        acc = acc + wn * x
    return acc


def _trajectory(b: BernsteinVector, r: int, t: float, tol: float,
                k_terms: Optional[int]):
    """D^r e^(tD) f by the local orbit engine: sample n is fetched at
    t - dt, so the node of a lattice time t is fetched at t itself."""
    inst, v = b.instance, b.v
    # every sample's norm is ||f||: the group is isometric
    return _orbit_sum(lambda ns, dts: (inst.orbit(t - dt, v) for dt in dts.tolist()),
                      0.0 * v, inst.norm(v), r, t, b.sigma, tol, k_terms)


def orbit_reconstruct(b: BernsteinVector, t: float, tol: float = 1e-6,
                      k_terms: Optional[int] = None):
    """Reconstruct e^(tD) f from twice-oversampled orbit samples with the
    local orbit engine (module docstring): an error of at most tol in norm,
    or half-width ``k_terms`` when it is pinned.  ``orbit_vt`` is this
    function under the name of the paper's bounded-vector expansion.

    Exact at every t = m pi / (2 sigma), where one sample is fetched.
    Raises ToleranceError, with the achievable tol, below the rounding
    floor.
    """
    return _trajectory(b, 0, float(t), tol, k_terms)[0]


orbit_vt = orbit_reconstruct


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
    """f by the local orbit engine, time 0 read from base time t, so at
    time -t of the trajectory: sample n is at(n/2), bounded by ||f_t||."""
    f_t = samples.f_t
    if norm is not None:
        nf = norm(f_t)
    else:  # a vector's own norm() (SeqWindow), else Euclidean
        nf = f_t.norm() if hasattr(f_t, "norm") else float(np.linalg.norm(f_t))
    return _orbit_sum(lambda ns, dts: (samples.at(n / 2) for n in ns.tolist()), 0.0 * f_t, nf,
                      0, -samples.t, samples.sigma, tol, k_terms)


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

