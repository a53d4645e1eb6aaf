"""Extended-precision references for the kernel tests (needs mpmath).

The two branches of sinc^(m) as separate functions, so the tests can check
one against the other, a 50-digit sinc^(m) to check both against, and tone
sums evaluated exactly at real and complex points for the regularized
series.
"""

import math

import mpmath as mp
import numpy as np

from bandlimit.sinckernel import _closed_grid, _quad_grid

PI = math.pi

#: closed form loses roughly m*log10(1/(pi|x|)) digits to cancellation; past
#: this loss factor it is re-evaluated in extended precision
CANCEL_GUARD = 1e3


def sinc_derivative_quad(m, x):
    """Quadrature branch of sinc^(m); spectrally accurate for small |x|."""
    if m < 0:
        raise ValueError("derivative order must be >= 0")
    return float(_quad_grid(m, np.array([float(x)]))[0])


def sinc_derivative_closed(m, x):
    """Closed-form branch of sinc^(m), valid for x != 0.

    The two bracketed sums cancel to O((pi x)^(m+1)) as x -> 0, losing about
    (pi|x|)^(-m) in relative precision.  When the loss exceeds CANCEL_GUARD
    the bracket is re-evaluated with mpmath at a working precision sized to
    the loss, so this branch stays trustworthy arbitrarily close to the
    origin.
    """
    if m < 0:
        raise ValueError("derivative order must be >= 0")
    x = float(x)
    if x == 0.0:
        raise ValueError("closed form undefined at x = 0; use the quadrature branch")
    loss = (PI * abs(x)) ** (-m) if PI * abs(x) < 1.0 else 1.0
    if loss <= CANCEL_GUARD:
        return float(_closed_grid(m, np.array([x]))[0])
    digits_lost = m * math.log10(1.0 / (PI * abs(x)))
    with mp.workdps(25 + int(math.ceil(digits_lost))):
        xm = mp.mpf(x)
        px = mp.pi * xm
        s1 = mp.fsum((-1) ** v * px ** (2 * v) / mp.factorial(2 * v)
                     for v in range(m // 2 + 1))
        s2 = mp.fsum((-1) ** v * px ** (2 * v + 1) / mp.factorial(2 * v + 1)
                     for v in range((m - 1) // 2 + 1))
        lead = (-1) ** m * mp.factorial(m) / (mp.pi * xm ** (m + 1))
        return float(lead * (mp.sin(px) * s1 - mp.cos(px) * s2))


def sinc_derivative_mp(m, x):
    """sinc^(m)(x) from the termwise-differentiated Taylor series at 50
    digits; for |x| <= 8 the alternating terms cost at most 11 of them."""
    with mp.workdps(50):
        x = mp.mpf(float(x))
        total = mp.mpf(0)
        j = (m + 1) // 2
        while True:
            term = ((-1) ** j * mp.pi ** (2 * j) * x ** (2 * j - m)
                    / ((2 * j + 1) * mp.factorial(2 * j - m)))
            total += term
            if 2 * j - m > 40 and abs(term) < mp.mpf(10) ** -55:
                return float(total)
            j += 1


class ToneSum:
    """f(x) = sum_j a_j sin(w_j x + phi_j) at 30 digits: entire of type
    max|w_j|, with sup |f| <= sum |a_j| on the real line."""

    def __init__(self, amps, freqs, phases):
        self.terms = list(zip(amps, freqs, phases))

    def __call__(self, x, r=0):
        """f^(r)(x) at a real or complex x."""
        with mp.workdps(30):
            x = mp.mpmathify(x)
            total = mp.fsum(a * w ** r * mp.sin(w * x + p + r * mp.pi / 2)
                            for a, w, p in self.terms)
        return complex(total) if isinstance(x, mp.mpc) else float(total)

    def samples(self, ns, h):
        with mp.workdps(30):
            return np.array([self(mp.mpf(int(n)) * mp.mpf(h)) for n in ns])

    def regularized(self, z, h, N, alpha):
        """The regularized series at a complex z from the rounded samples,
        summed at 30 digits over |n - round(Re z/h)| <= N."""
        with mp.workdps(30):
            v = mp.mpc(z) / h
            n0 = int(mp.nint(v.real))
            ns = range(n0 - N, n0 + N + 1)
            vals = self.samples(ns, h)
            return complex(mp.fsum(f * mp.sinc(mp.pi * (v - n)) * mp.exp(-alpha * (v - n) ** 2 / N)
                                   for f, n in zip(vals, ns)))
