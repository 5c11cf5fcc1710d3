"""Vasyunin-type cotangent sums, their sine-weighted variants, and digamma.

The sums are evaluated by direct summation over the q_k - 1 nonzero residues,
which costs O(q_k); callers are held to q_k <= 10^7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cf import ConvergentTable, _residues
from .errors import BudgetError, PoleError, RangeError

COTANGENT_BUDGET = 10 ** 7

KIND_V = "V_k"
KIND_V_STAR = "V_k_star"

# Bernoulli numbers B_2..B_16 for the asymptotic digamma tail.
_BERNOULLI = (
    1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0,
    5.0 / 66.0, -691.0 / 2730.0, 7.0 / 6.0, -3617.0 / 510.0,
)


@dataclass(frozen=True)
class CotangentSumValue:
    value: float
    k: int
    x: float
    kind: str


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


def _budget_check(q: int):
    if q > COTANGENT_BUDGET:
        raise BudgetError(f"q={q} exceeds the direct-summation budget {COTANGENT_BUDGET}")


def vasyunin(p: int, q: int, x: float = 0.0, parity_sign: int = 1) -> float:
    """sum_{n=1}^{q-1} (n/q) cot(pi (n p + parity_sign x)/q) by direct summation."""
    p, q = int(p), int(q)
    if q < 2 or math.gcd(p, q) != 1:
        raise RangeError("p/q must be a reduced fraction with q >= 2")
    if parity_sign not in (1, -1):
        raise RangeError("parity_sign must be +1 or -1")
    _budget_check(q)
    n = np.arange(1, q, dtype=np.int64)
    r = (n * (p % q)) % q
    t = (r + parity_sign * float(x)) / q
    dist = np.abs(t - np.round(t))
    if float(np.min(dist)) < 1e-12:
        raise PoleError("cotangent argument lands on an integer")
    vals = (n / q) / np.tan(np.pi * t)
    return float(np.sum(vals))


def _weighted_cot(table: ConvergentTable, k: int, x: float,
                  exclude: tuple = ()) -> float:
    q_k = int(table.q[k])
    _budget_check(q_k)
    sign = 1 if k % 2 == 0 else -1
    n = np.arange(1, q_k, dtype=np.int64)
    m = _residues(sign * table.p[k], q_k, q_k)[1:]
    if exclude:
        mask = ~np.isin(n, np.asarray(exclude, dtype=np.int64))
        n, m = n[mask], m[mask]
    if len(n) == 0:
        return 0.0  # empty sum: q_k = 1, or q_k = 2 with its one residue excluded
    t = (m + float(x)) / q_k
    dist = np.abs(t - np.round(t))
    if float(np.min(dist)) * q_k < 1e-9:
        raise PoleError("cotangent argument within guard distance of a pole")
    theta_over_q = float(table.theta[k]) / q_k
    weights = np.sin(np.pi * n * theta_over_q)
    return float(np.sum(weights / np.tan(np.pi * t)))


def v_k(table: ConvergentTable, k: int, x: float) -> CotangentSumValue:
    """Sine-weighted shifted cotangent sum over all nonzero residues."""
    if not 1 <= k <= table.K_max:
        raise RangeError(f"k={k} outside [1, {table.K_max}]")
    if not -1.0 < x < 1.0:
        raise RangeError("x must lie in (-1, 1)")
    return CotangentSumValue(_weighted_cot(table, k, x), k, float(x), KIND_V)


def v_k_star(table: ConvergentTable, k: int, x: float) -> CotangentSumValue:
    """As v_k but skipping n = q_{k-1} and n = q_k - q_{k-1}.

    Removing those residues (the +-1 classes) clears the poles at x = +-1,
    extending the domain to (-2, 2).
    """
    if not 2 <= k <= table.K_max:
        raise RangeError(f"k={k} outside [2, {table.K_max}]")
    if not -2.0 < x < 2.0:
        raise RangeError("x must lie in (-2, 2)")
    skip = (int(table.q[k - 1]), int(table.q[k] - table.q[k - 1]))
    return CotangentSumValue(
        _weighted_cot(table, k, x, exclude=skip), k, float(x), KIND_V_STAR
    )


def v_k_main_term(table: ConvergentTable, k: int, x: float,
                  starred: bool = False) -> float:
    """delta_k * (log(a_k / 2 pi) - psi(1 + x)), with psi(2 + x) for the starred sum."""
    if not 1 <= k <= table.K_max:
        raise RangeError(f"k={k} outside [1, {table.K_max}]")
    a_k = table.a[k]
    shift = 2.0 if starred else 1.0
    return float(table.delta[k]) * (
        math.log(a_k / (2.0 * math.pi)) - digamma(shift + float(x))
    )
