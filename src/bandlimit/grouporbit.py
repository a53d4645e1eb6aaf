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
samples are summed by one index-order accumulation, bit-identical to
adding them one by one (:func:`_weighted_sum`).  The trajectory entry
points fetch sample n at the one time n h for every t, and each
:class:`BernsteinVector` remembers the samples it fetched.  The Boas
derivatives of :mod:`bandlimit.boas` are this engine on translation.  At extreme rates,
for r >= 1 at sigma = 0 (f is constant) or h^r > e^700, Bernstein's
||D^r f|| <= sigma^r ||f|| answers: D^r f is 0 with that certificate.
Where h^r is otherwise not a normal float, ToleranceError names h and r.

The weights and sample points never depend on the group: any object
implementing the :class:`GroupInstance` triple (orbit, generator, norm) plugs
in, finite-dimensional rotations and the discrete Hilbert transform alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional

import numpy as np

from .errors import ToleranceError
from .sinckernel import _check_order, _local_series, _scale

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
    must be safe for concurrent orbit evaluations, and orbit must be pure:
    the same (t, v) gives the same vector every time, for a
    :class:`BernsteinVector` may answer a later call with a sample it
    fetched earlier, or fetch a sample twice.  A sample supports float * x
    and x + y; an array of v's type and shape is stacked (_weighted_sum)
    and held by the vector, any other is added one by one.
    """

    orbit: Callable[[float, Any], Any]
    generator: Callable[[Any], Any]
    norm: Callable[[Any], float]
    sigma_bound: float
    dim: Optional[int] = None


@dataclass(frozen=True)
class BernsteinVector:
    """A vector with a certified growth rate under the group generator.

    The trajectory entry points (``orbit_reconstruct``, ``orbit_vt``,
    ``group_boas``) read one lattice for every t: sample n is
    e^(n h D) f, fetched at the time n h, h = pi/(2 sigma), save a node
    (offset dt exactly 0.0), which is fetched at t itself and not
    remembered.  The certificate takes each sample as exact: the rounding
    of n h is outside it, as is the group's own.  When v is a vector the
    engine stacks (a float64 or complex128 array of at most
    _STACKED_MAX_SIZE entries), the vector holds its samples in one block,
    a row per lattice index, so a later call fetches only the indices it
    has not seen and gathers the rest by one index.  Only a sample of
    exactly v's type and shape is held: a call that fetches any other
    starts over, fetching its samples one by one.  The block has as many
    rows as the widest band the vector has summed, the symmetric window
    around n0 holding a call's kept samples; a call whose band leaves it
    re-centres it on n0, dropping the indices farthest from n0, and a
    dropped sample is fetched again.  Larger vectors and SeqWindow samples
    are fetched on every call.  This rests on orbit being pure
    (:class:`GroupInstance`) and on v not changing after the vector is
    built; ``dataclasses.replace`` starts a new, empty block.
    """

    instance: GroupInstance
    v: Any
    sigma: float
    #: (lo, rows, have): row k holds e^((lo + k) h D) f where have[k] is
    #: set; None until a call holds a sample (_from_block)
    _block: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ValueError("certified sigma must be positive and finite")


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
    critical rate, so alpha = (pi - h sigma)/2 = pi/4, and u = t/h; h is
    taken as (pi/2)/sigma, the same bits wherever 2 sigma is finite.

    ``samples(ns, dts)`` is called once, with the int lattice indices n of
    the nonzero weights in index order and their time offsets dts = d h,
    d = u - n (sample n is the trajectory at t - dt), and returns the
    samples x_n in that order: one array of them, a row each, when
    ``zero`` is a vector the engine stacks (_stacks), else an iterable
    whose items are each used before the next is drawn.  ``bound``
    bounds every sample's norm; ``zero`` starts the sum of
    :func:`_weighted_sum`.  N is ``k_terms`` when given (tol is then
    ignored), else the smallest half-width the certificate allows.  The
    certificate takes each sample as exact (``origin``: see
    :func:`_local_series`); the group's own rounding, and that of each
    sample time, are outside it.  At extreme rates: module docstring.
    """
    if not math.isfinite(t):
        raise ValueError(f"time t must be finite, got {t}")
    r = _check_order(r)
    if not (tol > 0.0 if k_terms is None else k_terms >= 1):  # what sizes N
        raise ValueError("tolerance must be positive" if k_terms is None else "k_terms must be >= 1")
    if r >= 1 and (sigma == 0.0 or r * math.log(_PI / 2.0 / sigma) > 700.0):
        bern = sigma ** r * bound
        if k_terms is None and bern > tol:
            raise ToleranceError(f"tol {tol:.3e} is below sigma^r ||f||", achievable=bern)
        return 0.0 * zero, bern
    h = _PI / 2.0 / sigma
    N, rows = _local_series(r, t / h, _PI / 4.0, bound, h, tol, k_terms, origin=origin)
    n_lo, d, w, cert = rows(slice(None))
    if not abs(n_lo[0]) + 2 * N < 2.0 ** 63:  # the lattice indices are int64
        raise ToleranceError(f"time t = {t!r} is 2^63 or more steps h = {h!r} from 0",
                             achievable=float(cert[0]))
    w = w[0] / _scale(h, r)
    keep = np.flatnonzero(w)
    xs = samples(int(n_lo[0]) + keep, d[0, keep] * h)
    return _weighted_sum(zero, w[keep], xs), float(cert[0])


#: largest vector that _weighted_sum stacks: np.add.accumulate along the
#: stack runs one inner loop per entry, and above about 128 entries that
#: costs more than adding the samples one by one
_STACKED_MAX_SIZE = 128

#: sample types whose product with a float weight, and whose sums, come out
#: the same stacked as one by one
_STACKED = (np.dtype(np.float64), np.dtype(np.complex128))


def _stacks(x) -> bool:
    """Whether x is a vector :func:`_weighted_sum` stacks: a float64 or
    complex128 array of at most _STACKED_MAX_SIZE entries."""
    return isinstance(x, np.ndarray) and x.dtype in _STACKED and x.size <= _STACKED_MAX_SIZE


def _fits(x, zero) -> bool:
    """Whether x is an array of exactly zero's type and shape, which a
    block of zero's takes as a row, neither cast nor broadcast (the test
    _initial makes inline of each sample)."""
    return isinstance(x, np.ndarray) and x.dtype is zero.dtype and x.shape == zero.shape


def _weighted_sum(zero, w: np.ndarray, samples: Iterable[Any]):
    """zero + w[0] x_0 + w[1] x_1 + ..., added left to right; ``samples``
    is an array of the x_i, a row each, or an iterable whose items are each
    used before the next is drawn.

    When zero is a vector the engine stacks (_stacks) and the samples an
    array of its type, a row of its shape each, one multiply scales them
    into a stack behind zero, and one np.add.accumulate sums it in place
    along the stack, row by row: the loop's additions in its order, so the
    sum is bit-identical to it.  Any other samples are added one by one; a
    sample that a float weight cannot scale raises a TypeError naming its
    type.
    """
    if (_stacks(zero) and isinstance(samples, np.ndarray) and samples.dtype is zero.dtype
            and samples.shape == (len(w),) + zero.shape):
        stack = np.empty((len(w) + 1,) + zero.shape, zero.dtype)
        stack[0] = zero
        np.multiply(samples, w.reshape((len(w),) + (1,) * zero.ndim), out=stack[1:])
        return np.add.accumulate(stack, axis=0, out=stack)[-1].copy()
    acc = zero
    for wn, x in zip(w.tolist(), samples):
        try:
            wx = wn * x
        except TypeError as exc:
            raise TypeError(f"a sample of type {type(x).__name__} cannot be scaled by a "
                            "float weight") from exc
        acc = acc + wx
    return acc


def _trajectory(b: BernsteinVector, r: int, t: float, tol: float,
                k_terms: Optional[int]):
    """D^r e^(tD) f by the local orbit engine, sample n fetched at n h or
    taken from b's block, a node at t itself (:class:`BernsteinVector`)."""
    inst, v, zero = b.instance, b.v, 0.0 * b.v
    h = _PI / 2.0 / b.sigma

    def fetch(ns, node):  # one by one, each fetched as it is drawn
        return (inst.orbit(t if at_t else n * h, v) for n, at_t in zip(ns.tolist(), node.tolist()))

    def samples(ns, dts):
        node = dts == 0.0
        xs = _from_block(b, ns, node, round(t / h), fetch, zero) if _stacks(zero) else None
        return fetch(ns, node) if xs is None else xs

    # every sample's norm is ||f||: the group is isometric
    return _orbit_sum(samples, zero, inst.norm(v), r, t, b.sigma, tol, k_terms)


def _from_block(b: BernsteinVector, ns: np.ndarray, node: np.ndarray, n0: int,
                fetch: Callable[[np.ndarray, np.ndarray], Iterable[Any]], zero):
    """The samples of the lattice indices ns, a row each, from b's block
    (:class:`BernsteinVector`), or None at the first one fetched that does
    not fit (_fits).  A call whose band leaves the block re-centres it on
    the call's n0 = round(t/h) first (_recentre).  All rows are gathered
    by one index; those the block lacks are fetched in index order by
    ``fetch`` and written in, save the ``node``, which is never held."""
    off = ns - n0
    reach = int(np.max(np.abs(off), initial=0))
    block = b._block
    if block is None or not block[0] <= n0 - reach <= n0 + reach < block[0] + len(block[2]):
        block = _recentre(block, n0, 2 * reach + 1, zero)
        object.__setattr__(b, "_block", block)  # one assignment: threads see one block
    lo, rows, have = block
    at = off + (n0 - lo)
    held = have[at] & ~node  # read before the rows: a flag is set after its row
    xs = np.take(rows, at, axis=0)
    miss = np.flatnonzero(~held)
    for i, j, at_t, x in zip(miss.tolist(), at[miss].tolist(), node[miss].tolist(),
                             fetch(ns[miss], node[miss])):
        if not _fits(x, zero):
            return None
        xs[i] = x
        if not at_t:
            rows[j] = x
            have[j] = True  # after its row
    return xs


def _recentre(block, n0: int, rows: int, zero):
    """A block centred on n0 of ``rows`` rows, or of as many as ``block``
    (None: none yet) when it has more, holding what ``block`` holds of its
    window.  The flags are copied before the rows, so a flag that another
    thread sets meanwhile comes with its row."""
    old_lo, old_rows, old_have = block or (n0, None, np.zeros(0, bool))
    rows = max(rows, len(old_have))
    lo = n0 - rows // 2
    new_rows, new_have = np.empty((rows,) + zero.shape, zero.dtype), np.zeros(rows, bool)
    a, z = max(lo, old_lo), min(lo + rows, old_lo + len(old_have))
    if a < z:
        new_have[a - lo:z - lo] = old_have[a - old_lo:z - old_lo]
        new_rows[a - lo:z - lo] = old_rows[a - old_lo:z - old_lo]
    return lo, new_rows, new_have


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
    f from shifted trajectory data only.  at is pure, and a sample supports
    float * x and x + y; an array of f_t's type and shape is stacked.
    """

    sigma: float
    t: float
    f_t: Any
    at: Callable[[float], Any]
    __post_init__ = BernsteinVector.__post_init__  # the same rate check

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
    f_t, at, zero = samples.f_t, samples.at, 0.0 * samples.f_t
    if norm is not None:
        nf = norm(f_t)
    else:  # a vector's own norm() (SeqWindow), else Euclidean
        nf = f_t.norm() if hasattr(f_t, "norm") else float(np.linalg.norm(f_t))

    def fetch(ns):  # one by one, each fetched as it is drawn
        return (at(n / 2) for n in ns.tolist())

    def source(ns, dts):  # a stacked f_t's samples fill one array
        if not _stacks(zero):
            return fetch(ns)
        dtype, shape = zero.dtype, zero.shape
        xs = np.empty((len(ns),) + shape, dtype)
        for i, x in enumerate(fetch(ns)):
            if not (isinstance(x, np.ndarray) and x.dtype is dtype and x.shape == shape):
                return fetch(ns)  # start over, one by one (_fits inline: a call costs 1 %)
            xs[i] = x
        return xs

    return _orbit_sum(source, zero, nf, 0, -samples.t, samples.sigma, tol, k_terms)


def recover_initial(samples: OrbitSamples, tol: float = 1e-6,
                    k_terms: Optional[int] = None,
                    norm: Optional[Callable[[Any], float]] = None):
    """Rebuild the initial vector f from trajectory samples around time t
    with the local orbit engine: an error of at most tol in norm, or
    half-width ``k_terms`` when it is pinned.  ``norm`` measures f_t, which
    bounds every sample (default: f_t.norm(), else Euclidean); OrbitSamples
    carries no norm, so it is the only way to bound the samples of an array
    space under another norm, such as translations under the sup norm.
    Raises ToleranceError, with the achievable tol, below the rounding floor."""
    return _initial(samples, tol, k_terms, norm)[0]


def group_boas(b: BernsteinVector, r: int, tol: float = 1e-6,
               k_terms: Optional[int] = None):
    """Apply D^r through twice-oversampled orbit samples with the local orbit
    engine (module docstring): an error of at most tol in norm, or
    half-width ``k_terms`` when it is pinned.
    ||result|| <= sigma^r ||f|| up to that error.  Raises ToleranceError,
    with the achievable tol, below the rounding floor, and at the extreme
    rates of the module docstring."""
    if r < 1:
        raise ValueError("power r must be >= 1")
    return _trajectory(b, r, 0.0, tol, k_terms)[0]


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
        if step_norm == 0.0:  # D^k v = 0: so is every later power
            return TypeEstimate(estimate=0.0, sequence=seq + [0.0] * (k_max - len(seq)))
        log_acc += math.log(step_norm)
        w = w / step_norm
        seq.append(math.exp(log_acc / k))
    return TypeEstimate(estimate=seq[-1], sequence=seq)

