"""Routes to the transform's quantities that the library does not take:
test oracles.

``vt_expansion`` sums the paper's bounded-vector expansion of the trajectory,

    e^(tH)a = sinc(t) a + t sinc(t) Ha + sum_{k!=0} (t/k) sinc(t - k) (-1)^k a_(.+k),

which meets the closed form of ``bandlimit.dht.hilbert_group`` to rounding.
``composed_power`` applies the order-1 operator r times, a second route to
H^r beside the symbol kernel of ``bandlimit.dht.dht_power``.
"""

import math

import numpy as np

from bandlimit.dht import SeqWindow, dht_power, hilbert_apply
from bandlimit.sinckernel import sinc

PI = math.pi


def vt_expansion(a, t, expand):
    """e^(tH) a, t off the integers, on the window grown by ``expand`` per
    side by the bounded-vector expansion: Ha from :func:`hilbert_apply`, and
    the shifted sum as one convolution with the weights
    w(k) = (-1)^k sinc(t - k)/k = sin(pi t)/(pi k (t - k)) at k = n - m.
    Shifts beyond the window vanish, so the expansion is finite.  Entries
    only: the returned window carries no tail."""
    ha = hilbert_apply(a, expand)
    L = len(a)
    k = -np.arange(-(L + expand), L + expand + 1)  # the kernel runs over d = m - n = -k
    w = np.where(k == 0, 0.0, math.sin(PI * t) / (PI * np.where(k == 0, 1, k) * (t - k)))
    shifted = np.convolve(a.values, w)[L:2 * L + 2 * expand]
    vals = sinc(t) * a.on_range(ha.n0, len(ha)) + t * sinc(t) * ha.values + t * shifted
    return SeqWindow(n0=ha.n0, values=vals)


def composed_power(a, r, expand):
    """H^r a as r applications of the order-1 operator, each on its input
    grown by ``expand`` per side."""
    out = a
    for _ in range(r):
        out = dht_power(out, 1, expand=expand)
    return out
