"""Vectorized numeric kernels shared by the product and cotangent evaluators.

The product kernels read fractional parts from `ConvergentTable.fracs`:
n*alpha = n*P/Q + n*w (mod 1) with the exact int64 residue n*P mod Q taken
in [-Q/2, Q/2) and w = (-1)^K theta_K / q_K, or w = 0 for a rational alpha.
The float64 result is signed, so it is small exactly where n*alpha is close
to an integer and its rounding error shrinks with it; the log of a single
sine factor is then accurate to ~1e-16/dist(n alpha, Z), which is what the
1e-9-level identity checks in the test suite rely on.  `frac_parts_dd`, the
double-double product of n with a 106-bit {alpha}, is kept as an independent
reference for that kernel.
"""

from __future__ import annotations

import numpy as np

CHUNK = 1 << 16  # fixed block size of the array kernels; no result depends on it
_SPLITTER = 134217729.0  # 2**27 + 1, Dekker split constant


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
    """Neumaier-compensated sum of an iterable of floats: `kahan_sum_rows` of one row."""
    return float(kahan_sum_rows(np.fromiter(values, dtype=np.float64)[None, :])[0])


def kahan_sum_rows(values: np.ndarray) -> np.ndarray:
    """Neumaier-compensated sum of each row of a 2-D array, adding its columns in order."""
    total = np.zeros(len(values))
    comp = np.zeros(len(values))
    for v in values.T:
        t = total + v
        comp += np.where(np.abs(total) >= np.abs(v), (total - t) + v, (v - t) + total)
        total = t
    return total + comp


# The cotangent power-sum expansions of `log_sudler_shifted` and `v_k`: a
# term is far when |cot| max|tan| < 1/_NEAR_T.
_NEAR_T = 16.0
_BULK_POWERS, _BULK_U = 6, 2.0 ** -12


def _power_sums(u: np.ndarray, p: np.ndarray, count: int) -> np.ndarray:
    """sum(p * u**j) for j = 0 .. count - 1, the power sums of the expansions.

    Indices from _BULK_POWERS on are summed only over |u| > _BULK_U: a
    smaller u adds at most _BULK_U^6 |p| ~ 2.1e-22 |p| to them.  Most far
    terms of an expansion are small (|u| > 2^-12 holds for about 1% of a
    k = 5 limit-curve block and 0.1% at k = 6), so this saves most of the
    multiplications.
    """
    out = np.empty(count)
    p = p.copy()
    for j in range(count):
        if j == _BULK_POWERS:
            big = np.abs(u) > _BULK_U
            u, p = u[big], p[big]
        out[j] = p.sum()
        p *= u
    return out


def log_two_sin(y: np.ndarray) -> tuple[np.ndarray, int]:
    """log|2 sin(pi y)| elementwise, counting exact-zero factors.

    Zero factors contribute 0 to the returned log array; the caller decides
    how to surface them.  y is left as it is; the other steps work in place
    on one temporary.
    """
    s = np.multiply(y, np.pi)
    np.abs(np.sin(s, out=s), out=s)
    if s.size and not s.min() > 0.0:  # a zero factor (or a NaN, which min propagates)
        nz = s != 0.0
        out = np.zeros_like(s)
        out[nz] = np.log(2.0 * s[nz])
        return out, s.size - int(np.count_nonzero(nz))
    s *= 2.0
    return np.log(s, out=s), 0
