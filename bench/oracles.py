"""Closed-form references the benchmark checks bandlimit against.

Nothing here calls bandlimit: each oracle is an independent numpy
implementation of a known identity, so a defect in the library cannot hide
in its own reference.
"""

from __future__ import annotations

import math

import numpy as np

_PI = math.pi


def sine(x, sigma: float, phase: float, r: int = 0) -> np.ndarray:
    """r-th derivative of sin(sigma x + phase)."""
    x = np.asarray(x, dtype=float)
    return sigma ** r * np.sin(sigma * x + phase + r * _PI / 2)


def fejer(x, sigma: float, r: int = 0) -> np.ndarray:
    """r-th derivative of the Fejer kernel sinc^2(sigma x / (2 pi)).

    The kernel is the Fourier transform of a triangle,

        F(x) = (1/sigma) int_{-sigma}^{sigma} (1 - |w|/sigma) e^{iwx} dw,

    so F^(r)(x) = (2/sigma) int_0^sigma w^r (1 - w/sigma) Re(i^r e^{iwx}) dw.
    The integrand is a polynomial times a trigonometric factor on a finite
    interval, and Gauss-Legendre quadrature with more nodes than sigma*|x|/2
    oscillations is exact to rounding.  r = 0 uses numpy's sinc directly.
    """
    x = np.asarray(x, dtype=float)
    if r == 0:
        return np.sinc(sigma * x / (2 * _PI)) ** 2
    reach = float(np.max(np.abs(x))) if x.size else 0.0
    nodes, weights = np.polynomial.legendre.leggauss(int(sigma * reach / 2) + 96)
    w = 0.5 * sigma * (nodes + 1.0)
    wt = 0.5 * sigma * weights * w ** r * (1.0 - w / sigma)
    phase = np.outer(x.ravel(), w) + r * _PI / 2
    return ((2.0 / sigma) * (np.cos(phase) @ wt)).reshape(x.shape)


class Rotation:
    """Block rotation group: block i turns by the angle sigma_i t.

    Serves both as the group the orbit engines sample and as their oracle:
    orbit(t, v) is exact, and D^r v is the r-fold generator.
    """

    def __init__(self, sigmas):
        self.sigmas = np.asarray(sigmas, dtype=float)

    def orbit(self, t: float, v) -> np.ndarray:
        v = np.asarray(v, dtype=float).reshape(-1, 2)
        ang = self.sigmas * float(t)
        c, s = np.cos(ang), np.sin(ang)
        out = np.empty_like(v)
        out[:, 0] = c * v[:, 0] - s * v[:, 1]
        out[:, 1] = s * v[:, 0] + c * v[:, 1]
        return out.reshape(-1)

    def generator(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float).reshape(-1, 2)
        out = np.empty_like(v)
        out[:, 0] = -self.sigmas * v[:, 1]
        out[:, 1] = self.sigmas * v[:, 0]
        return out.reshape(-1)

    def power(self, r: int, v) -> np.ndarray:
        for _ in range(r):
            v = self.generator(v)
        return v

    @staticmethod
    def norm(v) -> float:
        return float(np.linalg.norm(np.asarray(v, dtype=float)))


def hilbert_direct(values, n0: int, out_n0: int, out_len: int,
                   t: float | None = None) -> np.ndarray:
    """Direct sums over a finite window, for m in [out_n0, out_n0 + out_len).

    t None:  (H a)_m = sum_{n != m} a_n / (m - n)
    t given: (e^{tH} a)_m = sin(pi t)/pi * sum_n a_n / (m - n + t)

    Rows are summed in blocks of about 2^16 matrix entries (a few MB of
    temporaries), so building an oracle stays well below the library's own
    peak memory, which peak_rss_mb is meant to follow.
    """
    a = np.asarray(values, dtype=float)
    ns = np.arange(n0, n0 + a.size, dtype=float)
    out = np.empty(out_len)
    block = max(1, (1 << 16) // a.size)
    for lo in range(0, out_len, block):
        ms = np.arange(out_n0 + lo, out_n0 + min(lo + block, out_len), dtype=float)
        d = ms[:, None] - ns[None, :]
        if t is None:
            zero = d == 0.0
            inv = np.where(zero, 0.0, 1.0 / np.where(zero, 1.0, d))
        else:
            inv = (math.sin(_PI * t) / _PI) / (d + t)
        out[lo:lo + ms.size] = inv @ a
    return out
