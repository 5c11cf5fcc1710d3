"""Vectorized numeric kernels shared by the product evaluators.

The product kernels read fractional parts from `ConvergentTable.fracs`:
n*alpha = n*P/Q + n*w (mod 1) with the exact int64 residue n*P mod Q taken
in [-Q/2, Q/2) and w = (-1)^K theta_K / q_K, or w = 0 for a rational alpha.
The float64 result is signed, so it is small exactly where n*alpha is close
to an integer and its rounding error shrinks with it; the log of a single
sine factor is then accurate to ~1e-16/dist(n alpha, Z), which is what the
1e-9-level identity checks in the test suite rely on.  `frac_parts_dd`, the double-double product of n with a
106-bit {alpha}, is kept as an independent reference for that kernel.
"""

from __future__ import annotations

import math

import numpy as np

CHUNK = 1 << 16  # fixed block size of the array kernels; no result depends on it
_SPLITTER = 134217729.0  # 2**27 + 1, Dekker split constant

LOG_TWO_PI = math.log(2.0 * math.pi)


def _two_sum(a, b):
    s = a + b
    t = s - a
    e = (a - (s - t)) + (b - t)
    return s, e


def _split(a):
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _two_prod(a, b):
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    return p, e


def frac_parts_dd(n, a_hi: float, a_lo: float) -> np.ndarray:
    """{n * alpha} for an integer array n, with alpha = a_hi + a_lo.

    Requires |n| < 2**53 and |n * a_hi| < 2**53 so the Dekker product is
    exact, with alpha reduced mod 1.
    """
    n = np.asarray(n, dtype=np.float64)
    p, e = _two_prod(n, a_hi)
    e = e + n * a_lo
    f = p - np.floor(p)  # exact (Sterbenz)
    s, t = _two_sum(f, e)
    s -= np.floor(s)
    y = s + t
    y -= np.floor(y)
    # Guard the half-open interval against a final round up to 1.0.
    return np.where(y >= 1.0, y - 1.0, y)


def kahan_sum(values) -> float:
    """Neumaier-compensated sum of an iterable of floats."""
    total = 0.0
    comp = 0.0
    for v in values:
        t = total + v
        if abs(total) >= abs(v):
            comp += (total - t) + v
        else:
            comp += (v - t) + total
        total = t
    return total + comp


def log_two_sin(y: np.ndarray) -> tuple[np.ndarray, int]:
    """log|2 sin(pi y)| elementwise, counting exact-zero factors.

    Zero factors contribute 0 to the returned log array; the caller decides
    how to surface them.
    """
    s = np.abs(np.sin(np.pi * y))
    zeros = int(np.count_nonzero(s == 0.0))
    if zeros:
        out = np.zeros_like(s)
        nz = s != 0.0
        out[nz] = np.log(2.0 * s[nz])
        return out, zeros
    return np.log(2.0 * s), 0
