"""Ostrowski numeration: encode/decode, distinguished digit vectors, epsilon profiles.

Digits are stored least-significant first: digits[k] is the coefficient of q_k.
eps_k is the exact integer quotient (-1)^k q_k S_k / Q of the table's deep
convergent P/Q, with S_k the integer suffix sum of the digits above k
(`tail_term`, `epsilon_numerator`); `epsilon_profile` rounds it once to
WORKING_BITS and `products.decompose_all` once to float64.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import mpmath

from .cf import WORKING_BITS, ConvergentTable
from .errors import InvalidDigitsError, RangeError

#: Projection guard used throughout the prediction machinery; T is the bound
#: on log(a_k)/a_{k+1}.
def delta_T_default(T: float) -> float:
    return min(1.0 / (4.0 * math.pi * math.exp(2.0 * T)), 0.01)


@dataclass(frozen=True)
class OstrowskiDigits:
    """Digit vector b_0..b_{K-1} over a convergent table.

    The digit rules are checked once, here: length <= K_max,
    0 <= b_0 < a_1, 0 <= b_k <= a_{k+1}, and b_k = a_{k+1} only after
    b_{k-1} = 0.  A vector that breaks them raises InvalidDigitsError, so
    every OstrowskiDigits in hand is valid.
    """

    digits: tuple
    table: ConvergentTable

    @property
    def K(self) -> int:
        return len(self.digits)

    def __post_init__(self):
        t = self.table
        if self.K > t.K_max:
            bad = [f"length {self.K} exceeds table K_max={t.K_max}"]
        else:
            bad = []
            for k, b in enumerate(self.digits):
                hi = t.a[1] - 1 if k == 0 else t.a[k + 1]
                if not 0 <= b <= hi:
                    bad.append(f"b_{k}={b} outside [0, {hi}]")
            for k in range(1, self.K):
                if self.digits[k] == t.a[k + 1] and self.digits[k - 1] != 0:
                    bad.append(f"b_{k}=a_{k + 1} requires b_{k - 1}=0")
        if bad:
            raise InvalidDigitsError(
                "invalid Ostrowski digits: " + "; ".join(bad),
                digits=self.digits, violations=bad,
            )


def encode(table: ConvergentTable, N: int, K: int | None = None) -> OstrowskiDigits:
    """Greedy expansion of N from the top; digits satisfy the carry rule."""
    N = int(N)
    if not 0 <= N < table.q[table.K_max]:
        raise RangeError(f"N={N} outside [0, q_K={table.q[table.K_max]})")
    if K is None:
        K = 1
        while K < table.K_max and table.q[K] <= N:
            K += 1
    elif not 1 <= K <= table.K_max:
        raise RangeError(f"K={K} outside [1, {table.K_max}]")
    elif N >= table.q[K]:
        raise RangeError(f"N={N} does not fit in {K} digits (q_{K}={table.q[K]})")
    digits = [0] * K
    rem = N
    for k in range(K - 1, -1, -1):
        digits[k], rem = divmod(rem, table.q[k])
    return OstrowskiDigits(tuple(digits), table)


def decode(digits: OstrowskiDigits) -> int:
    return sum(b * digits.table.q[k] for k, b in enumerate(digits.digits))


def b_star(a_next: int) -> int:
    """The near-maximizer digit floor(5 a_{k+1} / 6) below a_{k+1}."""
    return (5 * a_next) // 6


def n_star(table: ConvergentTable, K: int) -> OstrowskiDigits:
    """The near-maximizer digit vector b_k = b_star(a_{k+1})."""
    if not 1 <= K <= table.K_max:
        raise RangeError(f"K={K} outside [1, {table.K_max}]")
    digits = tuple(b_star(table.a[k + 1]) for k in range(K))
    return OstrowskiDigits(digits, table)  # floor(5a/6) < a, so always valid


def epsilon_profile(digits: OstrowskiDigits) -> dict:
    """Alternating tail sums eps_k = q_k sum_{l>k} (-1)^(k+l) b_l ||q_l alpha||.

    Keyed by the indices k with b_k >= 1; eps_k is undefined elsewhere.  Each
    eps_k is the exact quotient epsilon_numerator / Q rounded once to
    WORKING_BITS, as `ConvergentTable.frac_part` rounds {n alpha}.
    """
    t = digits.table
    eps = {}
    suffix = 0
    for k in range(digits.K - 1, -1, -1):
        if digits.digits[k] >= 1:
            eps[k] = mpmath.fdiv(epsilon_numerator(t, k, suffix), t.deep[1], prec=WORKING_BITS)
        suffix += tail_term(t, k, digits.digits[k])
    return eps


def tail_term(table: ConvergentTable, k: int, b: int) -> int:
    """(-1)^k b T_k, the term of b_k = b in the suffix sums S_j = sum_{l>j} (-1)^l b_l T_l.

    T_k = theta_k Q = |q_k P - p_k Q| is an integer for the table's deep
    convergent P/Q, so every S_j is one too.
    """
    P, Q = table.deep
    T = abs(table.q[k] * P - table.p[k] * Q)
    return -b * T if k % 2 else b * T


def epsilon_numerator(table: ConvergentTable, k: int, suffix: int) -> int:
    """(-1)^k q_k S_k, so that eps_k = (-1)^k q_k S_k / Q for the suffix sum S_k above k."""
    return -table.q[k] * suffix if k % 2 else table.q[k] * suffix


def project(digits: OstrowskiDigits, m: int, B: int) -> OstrowskiDigits:
    """Replace digit m with B; raises if the result breaks the digit rules."""
    if not 0 <= m < digits.K:
        raise RangeError(f"index m={m} outside [0, {digits.K - 1}]")
    new = list(digits.digits)
    new[m] = int(B)
    return OstrowskiDigits(tuple(new), digits.table)


def enumerate_valid(table: ConvergentTable, K: int):
    """All valid digit vectors of length K, in lexicographic order from b_0.

    These are the vectors of the box 0 <= b_k <= a_{k+1} that OstrowskiDigits
    accepts; the box has prod (a_{k+1} + 1) entries, so keep a and K small.
    """
    if not 1 <= K <= table.K_max:
        raise RangeError(f"K={K} outside [1, {table.K_max}]")
    for digits in itertools.product(*(range(table.a[k + 1] + 1) for k in range(K))):
        try:
            yield OstrowskiDigits(digits, table)
        except InvalidDigitsError:
            pass
