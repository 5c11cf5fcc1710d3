"""Vasyunin-type cotangent sums, their sine-weighted variants, and digamma.

Every sum runs over n = 1 .. M in blocks of the signed residues behind
`ConvergentTable.fracs`: O(q_k) time, O(CHUNK) memory, and q_k <= 10^7.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cf import ConvergentTable, _residues, _signed_residues
from .errors import BudgetError, PoleError, RangeError
from .numerics import CHUNK, kahan_sum

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


def vasyunin(p: int, q: int, x: float = 0.0, parity_sign: int = 1) -> float:
    """sum_{n=1}^{q-1} (n/q) cot(pi (n p + parity_sign x)/q) by direct summation."""
    p, q = int(p), int(q)
    if q < 2 or math.gcd(p, q) != 1:
        raise RangeError("p/q must be a reduced fraction with q >= 2")
    if parity_sign not in (1, -1):
        raise RangeError("parity_sign must be +1 or -1")
    return _cot_sum(p, q, parity_sign * float(x), q - 1, lambda n: n / q)


def _weighted_cot(table: ConvergentTable, k: int, x: float,
                  exclude: tuple = (), M: int | None = None) -> float:
    """sum_{n<=M} sin(pi n theta_k/q_k) cot(pi (n (-1)^k p_k + x)/q_k); M = q_k - 1 by default."""
    q_k = int(table.q[k])
    theta_over_q = float(table.theta[k]) / q_k
    return _cot_sum((-1) ** k * table.p[k], q_k, float(x), q_k - 1 if M is None else int(M),
                    lambda n: np.sin(np.pi * n * theta_over_q), exclude)


def _cot_sum(P: int, Q: int, x: float, M: int, weight, exclude: tuple = ()) -> float:
    """sum_{n=1}^{M} weight(n) cot(pi (r_n + x)/Q) over n not in exclude, r_n = n*P mod Q.

    The residues are signed as in `ConvergentTable.fracs`, so t = (r_n + x)/Q
    is small, and exact but for one rounding, where cot(pi t) is large.
    """
    if M >= COTANGENT_BUDGET:
        raise BudgetError(f"{M} terms exceed the direct-summation budget q <= {COTANGENT_BUDGET}")
    R = _residues(P, Q, min(M, CHUNK))
    parts = []
    for lo in range(1, M + 1, CHUNK):
        hi = min(lo + CHUNK, M + 1)
        n = np.arange(lo, hi, dtype=np.int64)
        t = _signed_residues(P, Q, R, lo, hi) + x
        if exclude:
            keep = ~np.isin(n, exclude)
            n, t = n[keep], t[keep]
        t /= Q
        if t.size and float(np.min(np.abs(t - np.round(t)))) * Q < 1e-9:
            raise PoleError("cotangent argument within guard distance of a pole")
        parts.append(float(np.sum(weight(n) / np.tan(np.pi * t))))
    return kahan_sum(parts)


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
