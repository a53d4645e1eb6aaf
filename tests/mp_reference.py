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


def cardinal_sum_mp(values, k_min, h, m, x):
    """h^-m sum_k f_k sinc^(m)(x/h - k) over a stored window, x/h taken
    exactly, at 80 digits.  With d = u - k, sin(pi d) = (-1)^k sin(pi u), so

        sinc^(m)(d) = (-1)^k sum_j C(m, j) (-1)^(m-j) (m-j)! pi^(j-1)
                      sin(pi u + j pi/2) / d^(m-j+1),

    each entry a few divisions; where |d| < 1e-12 the Taylor series at 0 to
    d^2 replaces it (the closed form would cancel)."""
    with mp.workdps(80):
        u = mp.mpf(float(x)) / mp.mpf(float(h))
        su, cu = mp.sinpi(u), mp.cospi(u)
        trig = [su, cu, -su, -cu]  # sin(pi u + j pi/2)
        coef = [mp.binomial(m, j) * (-1) ** (m - j) * mp.factorial(m - j) * mp.pi ** (j - 1)
                * trig[j % 4] for j in range(m + 1)]

        def at_zero(j):  # sinc^(j)(0)
            return 0 if j % 2 else (-1) ** (j // 2) * mp.pi ** j / (j + 1)
        total = mp.mpf(0)
        for i, f in enumerate(np.asarray(values, dtype=float).tolist()):
            if f == 0.0:
                continue
            k = k_min + i
            d = u - k
            if abs(d) < mp.mpf(10) ** -12:
                term = at_zero(m) + d * at_zero(m + 1) + d * d / 2 * at_zero(m + 2)
            else:
                inv = 1 / d
                term = mp.fsum(c * inv ** (m - j + 1) for j, c in enumerate(coef))
                term = -term if k % 2 else term
            total += f * term
        return float(total / mp.mpf(float(h)) ** m)


def vt_sum_mp(values, k_min, h, f0, df0, z):
    """The Valiron/Tschakaloff sum of the stored samples at 40 digits, z/h
    taken exactly, as an mpmath number:

        (z df0 + f0) sinc(u) + sum_(k != 0) f_k (u/k) sinc(u - k),

    with sin(pi (u - k)) = (-1)^k sin(pi u), so that each term is
    (-1)^k f_k sin(pi u) u/(pi k (u - k)): one division per term.  At a
    lattice point u = n the sum is its one nonzero term."""
    with mp.workdps(40):
        z = mp.mpc(complex(z)) if complex(z).imag else mp.mpf(complex(z).real)
        u = z / mp.mpf(float(h))
        head = (z * mp.mpf(float(df0)) + mp.mpf(float(f0)))
        if u == mp.nint(u.real):
            n = int(mp.nint(u.real))
            return head if n == 0 else mp.mpf(float(values[n - k_min]))
        total = mp.mpf(0)
        for k, f in enumerate(np.asarray(values, dtype=float).tolist(), start=k_min):
            if k == 0 or f == 0.0:
                continue
            term = mp.mpf(f) / (k * (u - k))
            total = total - term if k % 2 else total + term
        sin_u = mp.sin(mp.pi * u)
        return head * sin_u / (mp.pi * u) + sin_u * u / mp.pi * total


def reference_mp(kind, sigma, x, k, h):
    """make_reference(kind, sigma)(x - k h) at 40 digits, x - k h taken
    exactly from the floats x and h and the integer k, as a float."""
    with mp.workdps(40):
        a = mp.mpf(float(sigma)) * (mp.mpf(float(x)) - int(k) * mp.mpf(float(h)))
        if kind == "sin":
            return float(mp.sin(a))
        if kind == "cos":
            return float(mp.cos(a))
        if kind == "const":
            return 1.0
        if kind == "fejer":
            a /= 2
        value = mp.sin(a) / a if a != 0 else mp.mpf(1)
        return float(value ** 2 if kind == "fejer" else value)
