"""Limit curves of shifted block products and their closed-form main terms.

For a periodic alpha the block products P_{q_k}(alpha, (-1)^k x / q_k)
stabilize along each residue class of k mod p; the closed-form main term
needs only the limit constants C_r, D_r and one digamma evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cf import AlphaSpec, ConvergentTable, build_table, parse_alpha
from .cotangent import digamma
from .errors import BudgetError, RangeError, SudlerError
from .products import log_sudler_shifted, scaled_shift

DEFAULT_CURVE_BUDGET = 10 ** 7


@dataclass(frozen=True)
class LimitConstants:
    """Limits C_r of q_k ||q_k alpha|| and D_r of q_{k-1} ||q_k alpha|| along k = k0 + r (mod p)."""

    C_r: float
    D_r: float


def limit_constants(alpha: AlphaSpec | str, r: int) -> LimitConstants:
    """Limit constants for residue class r (1 <= r <= p).

    C_r = 1/(beta + gamma) and D_r = gamma C_r with beta = [c_{r+1}; c_{r+2}, ...]
    and gamma = [0; c_r, c_{r-1}, ...] over the period c.  With beta and gamma
    the deep convergents P/Q of two K = 1 tables, both are integer quotients,
    rounded once.
    """
    if isinstance(alpha, str):
        alpha = parse_alpha(alpha)
    if alpha.period is None:
        raise SudlerError("limit constants require a periodic alpha")
    per = alpha.period
    p = len(per)
    if not 1 <= r <= p:
        raise RangeError(f"r={r} outside [1, {p}]")
    forward = AlphaSpec(per[r % p], period=tuple(per[(r + 1 + i) % p] for i in range(p)))
    backward = AlphaSpec(period=tuple(per[(r - 1 - i) % p] for i in range(p)))
    Pb, Qb = build_table(forward, 1).deep
    Pg, Qg = build_table(backward, 1).deep
    denom = Pb * Qg + Pg * Qb  # beta + gamma = denom / (Qb Qg)
    C, D = Qb * Qg / denom, Pg * Qb / denom
    if not 0 < D < C < 1:
        raise SudlerError("limit constants failed the 0 < D < C < 1 sanity check")
    return LimitConstants(C, D)


def _three_sinc(x: np.ndarray) -> np.ndarray:
    """|sin(pi x) / (pi x (1 - x^2))| with the removable points at 0, +-1 filled in."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    near_pos = x > 0.5
    near_neg = x < -0.5
    mid = ~(near_pos | near_neg)
    out[mid] = np.abs(np.sinc(x[mid]) / (1.0 - x[mid] ** 2))
    # sin(pi x) = -sin(pi (x -+ 1)) folds the zero at +-1 into a sinc.
    out[near_pos] = np.abs(np.sinc(x[near_pos] - 1.0) / (x[near_pos] * (x[near_pos] + 1.0)))
    out[near_neg] = np.abs(np.sinc(x[near_neg] + 1.0) / (x[near_neg] * (x[near_neg] - 1.0)))
    return out


def _main_term_curve(a_exp: int, C: float, D: float, x) -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    base = 2.0 * math.pi * _three_sinc(x)
    shifted = np.abs(x + C) * np.abs(x + 1.0 + (C - D)) * np.abs(x - 1.0 + D)
    expo = np.array(
        [C * (math.log(a_exp / (2.0 * math.pi)) - digamma(2.0 + t)) for t in x]
    )
    return base * shifted * np.exp(expo)


def g_alpha(a: int, x):
    """Closed-form main term of the limit curve for alpha = [0; (a)].

    This is `g_alpha_r` at r = 1.  The pole/zero pairs are evaluated in
    factored form, so grid points landing exactly on 0 or +-1 are fine.
    Valid for |x| <= 2 - 2/a.
    """
    a = int(a)
    if a < 1:
        raise RangeError("a must be >= 1")
    return g_alpha_r(AlphaSpec(period=(a,)), 1, x)


def g_alpha_r(alpha: AlphaSpec | str, r: int, x):
    """Closed-form main term for residue class r of a periodic alpha."""
    if isinstance(alpha, str):
        alpha = parse_alpha(alpha)
    lc = limit_constants(alpha, r)
    k0 = len(alpha.preperiod)
    a_exp = alpha.partial_quotient(k0 + r)
    out = _main_term_curve(a_exp, lc.C_r, lc.D_r, x)
    return out if np.ndim(x) else float(out[0])


def empirical_limit(table: ConvergentTable, k: int, grid,
                    budget: int = DEFAULT_CURVE_BUDGET) -> np.ndarray:
    """Sampled values of P_{q_k}(alpha, (-1)^k x / q_k) over the grid.

    The whole grid is one call of log_sudler_shifted, so from three points
    on (q_k >= 10^4) the curve costs one log-sine pass over the block plus
    about 30 near terms and 16 power sums per point, not one pass per point.
    """
    if not 1 <= k <= table.K_max:
        raise RangeError(f"k={k} outside [1, {table.K_max}]")
    q_k = int(table.q[k])
    if q_k > budget:
        raise BudgetError(f"q_k={q_k} exceeds curve budget {budget}")
    lp = log_sudler_shifted(table, q_k, scaled_shift(table, k, np.asarray(grid, dtype=np.float64)))
    # math.exp: numpy's SIMD exp differs from libm's in the last bit for some inputs
    return np.where(lp.is_zero, 0.0, [math.exp(v) for v in lp.log_value.tolist()])


def a15_curve_sup(k: int) -> float:
    """sup |E_k - g_alpha| at x = -0.95, -0.94, ..., 0.95 for [0;(15)], on a table built to k.

    The limits suite bounds it at k = 4 by limit_curve.a15_k4_sup; calibration
    sets a15_k{4,6}_sup to 1.3 times it.  q_6 = 11,645,101 needs the budget.
    """
    grid = np.round(np.arange(-0.95, 0.9501, 0.01), 10)
    curve = empirical_limit(build_table("[0;(15)]", k), k, grid, budget=15_000_000)
    return float(np.max(np.abs(curve - g_alpha(15, grid))))


def crossing_abscissa(grid: np.ndarray, curve: np.ndarray) -> float:
    """Last downward crossing of 1 by the curve on [1/2, 1], by linear interpolation."""
    xs = np.asarray(grid, dtype=np.float64)
    ys = np.asarray(curve, dtype=np.float64)
    sel = (xs >= 0.5) & (xs <= 1.0)
    xs, ys = xs[sel], ys[sel]
    hits = []
    for i in range(len(xs) - 1):
        if ys[i] > 1.0 >= ys[i + 1]:
            t = (1.0 - ys[i]) / (ys[i + 1] - ys[i])
            hits.append(xs[i] + t * (xs[i + 1] - xs[i]))
    if not hits:
        raise SudlerError("curve does not cross the level on the window")
    return float(hits[-1])
