"""Sudler product evaluation: direct, shifted, rational, decomposed, and scans.

All products are accumulated in log space.  A direct product sums its factor
logs by numpy's pairwise reduction per block and adds the block sums with
compensated summation.  A scan takes a sequential cumsum per block and adds
the block totals in block order; over q_K ~ 1.2e7 indices its values[N] stay
within 1e-12 of log_sudler (9.3e-13 measured for [0;(15)], K = 6).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import mpmath
import numpy as np

from .cf import ConvergentTable
from .errors import BudgetError, RangeError, ZeroFactorError
from .numerics import CHUNK, kahan_sum, log_two_sin
from .ostrowski import OstrowskiDigits, epsilon_profile

DEFAULT_SCAN_BUDGET = 10 ** 7
DEFAULT_TOP_M = 32

METHOD_DIRECT = "direct"
METHOD_RATIONAL = "rational-closed-form"


@dataclass(frozen=True)
class LogProduct:
    """Natural log of a (shifted) Sudler product magnitude.

    A vanishing factor is a tagged state: log_value then sums only the
    nonzero factors so downstream consumers can skip zeros explicitly.
    """

    log_value: float
    n_terms: int
    method: str
    zero_factors: int = 0

    @property
    def is_zero(self) -> bool:
        return self.zero_factors > 0

    def require_nonzero(self) -> float:
        if self.is_zero:
            raise ZeroFactorError(
                f"{self.zero_factors} factor(s) vanish in a {self.n_terms}-term product"
            )
        return self.log_value


def _check_range(table: ConvergentTable, N: int):
    if not 0 <= N <= table.q[table.K_max]:
        raise RangeError(f"N={N} outside [0, q_K={table.q[table.K_max]}]")


def log_sudler(table: ConvergentTable, N: int) -> LogProduct:
    """log prod_{n=1..N} |2 sin(pi n alpha)|; the empty product is 0."""
    return log_sudler_shifted(table, N, 0.0)


def log_sudler_shifted(table: ConvergentTable, M: int, x: float) -> LogProduct:
    """log prod_{n=1..M} |2 sin(pi (n alpha + x))|.

    Callers supply the full shift (the decomposition passes (-1)^k x / q_k).
    """
    M = int(M)
    _check_range(table, M)
    if M == 0:
        return LogProduct(0.0, 0, METHOD_DIRECT)
    y = table.frac_doubles(M + 1)[1:] + float(x)
    zeros = 0
    if table.is_rational:
        # Exact-residue fractional parts plus a shift can land exactly on an
        # integer; sin would round to ~1e-16 there, so detect on the argument.
        at_int = y == np.round(y)
        zeros = int(np.count_nonzero(at_int))
        if zeros:
            y = y[~at_int]
    parts = []
    for lo in range(0, len(y), CHUNK):
        g, z = log_two_sin(y[lo:lo + CHUNK])
        zeros += z
        parts.append(float(np.sum(g)))
    return LogProduct(kahan_sum(parts), M, METHOD_DIRECT, zeros)


def log_sudler_rational(p: int, q: int, N: int, x: float = 0.0) -> LogProduct:
    """log prod_{n=1..N} |2 sin(pi (n p/q + x))| with exact residue reduction."""
    p, q, N = int(p), int(q), int(N)
    if q < 1 or math.gcd(p, q) != 1:
        raise RangeError("p/q must be a reduced fraction with q >= 1")
    if not 0 <= N < q:
        raise RangeError(f"N={N} outside [0, q={q})")
    if N == 0:
        return LogProduct(0.0, 0, METHOD_RATIONAL)
    n = np.arange(1, N + 1, dtype=np.int64)
    r = (n * (p % q)) % q
    r[2 * r >= q] -= q  # signed, as in ConvergentTable.fracs
    y = r / q + float(x)
    # A factor vanishes iff its argument is an integer; detect on the
    # argument, since sin(pi * y) does not round to exactly zero there.
    at_int = y == np.round(y)
    zeros = int(np.count_nonzero(at_int))
    if zeros:
        y = y[~at_int]
    g, _ = log_two_sin(y)
    return LogProduct(float(np.sum(g)), N, METHOD_RATIONAL, zeros)


def reflection_rhs(q: int, x: float) -> float:
    """log of the reflection target: |sin(pi q x)| / |sin(pi x)|, or q at integer x."""
    if float(x) == round(x):
        return math.log(q)
    return math.log(abs(math.sin(math.pi * q * x))) - math.log(abs(math.sin(math.pi * x)))


@dataclass(frozen=True)
class Decomposition:
    """Per-(k, b) factor logs of the Ostrowski product form, plus their total."""

    factors: tuple  # entries (k, b, factor_log)
    total: float
    n_terms: int


def block_shifts(table: ConvergentTable, digits: OstrowskiDigits, k: int, eps) -> list:
    """Shifts (-1)^k (b delta_k + eps_k) / q_k of the b_k length-q_k blocks at digit k.

    eps is the digit vector's epsilon_profile.  Each inner argument
    b*delta_k + eps_k is re-checked against (-1, 1) at runtime; a violation
    indicates an upstream bug and raises.
    """
    b_k = digits.digits[k]
    if b_k < 1:
        return []
    sign = 1 if k % 2 == 0 else -1
    shifts = []
    with mpmath.workprec(table.cfg.working_bits + 16):
        for b in range(b_k):
            arg = b * table.delta[k] + eps[k]
            if not (mpmath.mpf(-1) < arg < mpmath.mpf(1)):
                raise AssertionError(
                    f"shift argument {float(arg)} outside (-1,1) at k={k}, b={b}"
                )
            shifts.append(float(sign * arg / table.q[k]))
    return shifts


def decompose(table: ConvergentTable, digits: OstrowskiDigits) -> Decomposition:
    """Evaluate P_N through shifted length-q_k blocks driven by the digit vector."""
    digits.require_valid()
    eps = epsilon_profile(digits)
    factors = []
    for k in range(digits.K):
        for b, shift in enumerate(block_shifts(table, digits, k, eps)):
            lp = log_sudler_shifted(table, table.q[k], shift)
            factors.append((k, b, lp.require_nonzero()))
    n_terms = sum(b_k * table.q[k] for k, b_k in enumerate(digits.digits))
    total = kahan_sum(f for _, _, f in factors)
    return Decomposition(tuple(factors), total, n_terms)


def b_transfer(table: ConvergentTable, k: int, M: int, x: float) -> float:
    """Transfer defect between the product at alpha and at p_k/q_k.

    log(P_M(alpha, s)/P_M(p_k/q_k, s)) minus the partial sine-weighted
    cotangent sum to M, with s = (-1)^k x / q_k.
    """
    if not 1 <= k <= table.K_max:
        raise RangeError(f"k={k} outside [1, {table.K_max}]")
    if not 0 <= M < table.q[k]:
        raise RangeError(f"M={M} outside [0, q_k={table.q[k]})")
    if not -1.0 < x < 1.0:
        raise RangeError("x must lie in (-1, 1)")
    if M == 0:
        return 0.0
    sign = 1 if k % 2 == 0 else -1
    shift = sign * x / table.q[k]
    num = log_sudler_shifted(table, M, shift).require_nonzero()
    den = log_sudler_rational(table.p[k] % table.q[k], table.q[k], M, shift)
    n = np.arange(1, M + 1, dtype=np.int64)
    m = (sign * n * table.p[k]) % table.q[k]
    theta_k = float(table.theta[k])
    weights = np.sin(np.pi * n * (theta_k / table.q[k]))
    cots = 1.0 / np.tan(np.pi * (m + x) / table.q[k])
    partial = float(np.sum(weights * cots))
    return num - den.require_nonzero() - partial


@dataclass(frozen=True)
class ScanResult:
    """Outcome of a sweep over 0 <= N < q_K."""

    K: int
    q_K: int
    argmax_N: int
    max_log: float
    sums: dict  # c -> log(sum_N P_N^c)
    top: tuple  # ((N, log P_N), ...) best top_m, descending
    values: np.ndarray  # values[N] = log P_N

    def equals_bitwise(self, other: "ScanResult") -> bool:
        if (self.K, self.q_K, self.argmax_N) != (other.K, other.q_K, other.argmax_N):
            return False
        if self.max_log != other.max_log or self.sums != other.sums:
            return False
        return self.top == other.top and np.array_equal(self.values, other.values)


def scan(table: ConvergentTable, K: int, c_list=(), parallelism: int = 1,
         top_m: int = DEFAULT_TOP_M, budget: int = DEFAULT_SCAN_BUDGET) -> ScanResult:
    """log P_N for N = 0 .. q_K - 1, reduced to the max, the c-norm sums and top_m.

    values[N] is built block by block: a sequential cumsum of the block's
    factor logs, seeded with the in-order running sum of the earlier block
    totals.  Every reduction then runs over fixed blocks merged in block
    order, so the result is bit-identical for any parallelism level.
    """
    if not 1 <= K <= table.K_max:
        raise RangeError(f"K={K} outside [1, {table.K_max}]")
    if parallelism < 1:
        raise RangeError(f"parallelism={parallelism} must be >= 1")
    if top_m < 0:
        raise RangeError(f"top_m={top_m} must be >= 0")
    q_K = int(table.q[K])
    if q_K > budget:
        raise BudgetError(f"q_K={q_K} exceeds scan budget {budget}")
    c_list = tuple(float(c) for c in c_list)
    if any(c <= 0 for c in c_list):
        raise RangeError("norm exponents must be positive")
    table.residue_kernel(min(CHUNK, q_K))  # built once, outside the worker pool
    values = np.empty(q_K, dtype=np.float64)
    blocks = [slice(lo, min(lo + CHUNK, q_K)) for lo in range(0, q_K, CHUNK)]

    def prefix(block):
        g, zeros = log_two_sin(table.fracs(block.start, block.stop))
        # y[0] = 0 is the one expected zero: it makes values[0] = log P_0 = 0.
        if zeros > (block.start == 0):
            raise ZeroFactorError(f"vanishing factor in block [{block.start},{block.stop})")
        v = values[block]
        np.cumsum(g, out=v)
        cand = np.argpartition(-v, top_m)[:top_m] if top_m < len(v) else range(len(v))
        return float(v[-1]), [block.start + int(i) for i in cand]

    def seed(block, s):
        v = values[block]
        v += s
        arg = int(np.argmax(v))
        return float(v[arg]), block.start + arg

    def norms(block):
        v = values[block] - max_log
        return [float(np.sum(np.exp(c * v))) for c in c_list]

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        totals, cands = zip(*pool.map(prefix, blocks))
        seeds = np.concatenate(([0.0], np.cumsum(totals[:-1])))
        best = list(pool.map(seed, blocks, seeds))
        # Block order breaks ties toward the lowest N.
        max_log, argmax_N = max(best, key=lambda b: b[0])
        parts = list(pool.map(norms, blocks)) if c_list else []
    sums = {c: c * max_log + math.log(math.fsum(p[i] for p in parts))
            for i, c in enumerate(c_list)}
    top = sorted(((n, float(values[n])) for block_cands in cands for n in block_cands),
                 key=lambda t: (-t[1], t[0]))
    return ScanResult(K, q_K, argmax_N, max_log, sums, tuple(top[:top_m]), values)
