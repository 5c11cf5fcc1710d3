"""Vasyunin-type cotangent sums, their sine-weighted variants, and digamma.

Every sum runs over n = 1 .. q - 1 in blocks of the signed residues behind
`ConvergentTable.fracs`: O(q_k) time and O(CHUNK) memory per call, and
q_k <= 10^7.  A call with a grid of shifts x makes one such pass for all of
them (see `_cot_sum`).
"""

from __future__ import annotations

import math

import numpy as np

from .cf import ConvergentTable, _residues, _signed_residues
from .errors import BudgetError, PoleError, RangeError
from .numerics import _NEAR_T, CHUNK, _power_sums, kahan_sum_rows

COTANGENT_BUDGET = 10 ** 7

# Bernoulli numbers B_2..B_16 for the asymptotic digamma tail.
_BERNOULLI = (
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0,
    5.0 / 66.0, -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0,
)


def digamma(x: float) -> float:
    """psi(x) for x > 0 via the shift recurrence plus an asymptotic tail."""
    x = float(x)
    if x <= 0.0:
        raise RangeError("digamma requires a positive argument")
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    power = inv2
    for n, b in enumerate(_BERNOULLI, start=1):
        tail += b / (2 * n) * power
        power *= inv2
    return acc + math.log(x) - 0.5 / x - tail


def vasyunin(p: int, q: int, x: float = 0.0) -> float:
    """sum_{n=1}^{q-1} (n/q) cot(pi (n p + x)/q) by direct summation."""
    p, q = int(p), int(q)
    if q < 2 or math.gcd(p, q) != 1:
        raise RangeError("p/q must be a reduced fraction with q >= 2")
    return _cot_sum(p, q, float(x), lambda n: n / q)


def _weighted_cot(table: ConvergentTable, k: int, x, exclude: tuple = ()):
    """sum_{n<q_k} sin(pi n theta_k/q_k) cot(pi (n (-1)^k p_k + x)/q_k)."""
    q_k = int(table.q[k])
    theta_over_q = float(table.theta[k]) / q_k
    return _cot_sum((-1) ** k * table.p[k], q_k, x,
                    lambda n: np.sin(np.pi * n * theta_over_q), exclude)


_POWERS = 25  # power sums of the grid form (_cot_sum)


def _cot_sum(P: int, Q: int, x, weight, exclude: tuple = ()):
    """sum_{n=1}^{Q-1} weight(n) cot(pi (r_n + x)/Q) over n not in exclude, r_n = n*P mod Q.

    A float x gives a float, a 1-D sequence of shifts a list with one sum per
    x.  The residues are signed as in `ConvergentTable.fracs`, so (r_n + x)/Q
    is small, and exact but for one rounding, where cot is large.  A float x
    and a one-element sequence sum the cotangents directly.

    Two or more shifts share one pass over the blocks.  With c = cot(pi r_n/Q)
    and t = tan(pi x/Q), cot(pi (r_n + x)/Q) = (c - t)/(1 + c t)
    = -t + (1 + t^2) sum_j (-t)^j c^(j+1).  A term is far when |c| tau <
    1/_NEAR_T for tau = max |t| over the grid; its 1 + c t is then at least
    15/16 from a pole.  The pass keeps the far terms' sum of weights and the
    power sums A_j = sum w c (c tau)^j for j < _POWERS, so that each x's far
    part is -t sum w + (1 + t^2) sum_j (-t/tau)^j A_j, with a dropped tail
    below 16^-25 ~ 8e-31 of the sum of |w c|.  The near terms, |r_n| up to
    about 16 max|x| (a few dozen), are summed directly for each x and carry
    the pole guard.  Two shifts already pay from q ~ 10^4 (2 CPUs, numpy
    2.4, [0;(15)]): at q_4 = 51,301 one pass took 4.8 ms against 6.0 ms for
    two direct sums, at q_5 = 772,920 39 ms against 60 ms; at q <= 3,405 it
    cost at most 0.04 ms more.  Against a long-double evaluation at q_5, the
    pass is within 1.1e-16 for x in [-0.99, 0.99], the direct sum 8.9e-16.
    """
    if Q > COTANGENT_BUDGET:
        raise BudgetError(f"{Q - 1} terms exceed the direct-summation budget q <= {COTANGENT_BUDGET}")
    scalar = np.ndim(x) == 0
    xs = np.array([x] if scalar else x, dtype=np.float64)
    expand = xs.size > 1
    t = np.tan(np.pi * (xs / Q))
    tau = float(np.max(np.abs(t), initial=0.0))
    R = _residues(P, Q, min(Q - 1, CHUNK))

    def block(lo: int, hi: int) -> tuple:
        # (r_n, weight(n)) for lo <= n < hi; n and the unfiltered arrays are
        # freed on return, which keeps the pass's peak near the direct sum's.
        n = np.arange(lo, hi, dtype=np.int64)
        r = _signed_residues(P, Q, R, lo, hi)
        if exclude:
            keep = ~np.isin(n, exclude)
            n, r = n[keep], r[keep]
        return r, weight(n)

    near, far = [], []
    for lo in range(1, Q, CHUNK):
        r, w = block(lo, min(lo + CHUNK, Q))
        if expand:
            tan_r = np.tan(np.pi * (r / Q))
            is_far = np.abs(tan_r) > _NEAR_T * tau
            r, w, tan_r, w_far = r[~is_far], w[~is_far], tan_r[is_far], w[is_far]
            far.append((float(w_far.sum()), *_power_sums(tau / tan_r, w_far / tan_r, _POWERS)))
        near.append(_near_cot(r, xs, Q, w))
    # One row per x (per far-part sum), one column per block, added in block order.
    sums = kahan_sum_rows(np.reshape(near, (len(near), xs.size)).T)
    if expand:
        w_sum, *powers = kahan_sum_rows(np.reshape(far, (len(far), _POWERS + 1)).T)
        ratio = -t / tau if tau else t
        sums += -t * w_sum + (1.0 + t * t) * (ratio[:, None] ** np.arange(_POWERS) @ powers)
    return float(sums[0]) if scalar else sums.tolist()


def _near_cot(r: np.ndarray, xs: np.ndarray, Q: int, w: np.ndarray) -> np.ndarray:
    """Per x, the pairwise sum of w cot(pi (r + x)/Q), guarding the poles.

    Shifts are batched so that a temporary holds at most CHUNK elements (or
    one shift's row).
    """
    out = np.zeros(xs.size)
    step = max(1, CHUNK // max(1, r.size))
    for i in range(0, xs.size, step):
        v = r + xs[i:i + step, None]
        v /= Q
        if v.size and float(np.min(np.abs(v - np.round(v)))) * Q < 1e-9:
            raise PoleError("cotangent argument within guard distance of a pole")
        out[i:i + step] = np.sum(w / np.tan(np.pi * v), axis=1)
    return out


def _check_shifts(x, lo: float, hi: float) -> None:
    """Raise RangeError unless x is a float or a 1-D sequence of floats in (lo, hi)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim > 1 or not all(lo < v < hi for v in x.ravel()):
        raise RangeError(f"x must be a float or a 1-D sequence of floats in ({lo:g}, {hi:g})")


def v_k(table: ConvergentTable, k: int, x):
    """Sine-weighted shifted cotangent sum over all nonzero residues.

    A float x gives a float, a sequence a list of floats from one pass over
    the blocks (see `_cot_sum`).
    """
    if not 1 <= k <= table.K_max:
        raise RangeError(f"k={k} outside [1, {table.K_max}]")
    _check_shifts(x, -1.0, 1.0)
    return _weighted_cot(table, k, x)


def v_k_star(table: ConvergentTable, k: int, x):
    """As v_k but skipping n = q_{k-1} and n = q_k - q_{k-1}.

    Removing those residues (the +-1 classes) clears the poles at x = +-1,
    extending the domain to (-2, 2).
    """
    if not 2 <= k <= table.K_max:
        raise RangeError(f"k={k} outside [2, {table.K_max}]")
    _check_shifts(x, -2.0, 2.0)
    skip = (int(table.q[k - 1]), int(table.q[k] - table.q[k - 1]))
    return _weighted_cot(table, k, x, exclude=skip)


def _main_term(a_k: int, s: float, x: float) -> float:
    return math.log(a_k / (2.0 * math.pi)) - digamma(s + float(x))


def v_k_main_term(table: ConvergentTable, k: int, x: float,
                  starred: bool = False) -> float:
    """delta_k * (log(a_k / 2 pi) - psi(1 + x)), with psi(2 + x) for the starred sum."""
    if not 1 <= k <= table.K_max:
        raise RangeError(f"k={k} outside [1, {table.K_max}]")
    return float(table.delta[k]) * _main_term(table.a[k], 2.0 if starred else 1.0, x)
