"""Sudler product evaluation: direct, shifted, rational, decomposed, and scans.

All products are accumulated in log space, over blocks of n*alpha mod 1 from
`ConvergentTable.fracs` or, for `log_sudler_rational`, of the same signed
exact residues n*p mod q.  A direct product sums its factor logs by numpy's
pairwise reduction per block and adds the block sums with compensated
summation; many shifts of one block product can instead share one log-sine
pass through a cotangent power-sum expansion (see `log_sudler_shifted`).  A
scan takes a sequential cumsum per block and adds the block totals in block
order; over q_K ~ 1.2e7 indices its values[N] stay within 1e-12 of
log_sudler (9.3e-13 measured for [0;(15)], K = 6).  A first pass takes the
cumsums and block peaks, and a second seeds the blocks, adds up their c-norm
terms and picks the top candidates from the few blocks that can hold them.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cf import ConvergentTable, _residues, _signed_residues
from .errors import BudgetError, RangeError, ZeroFactorError
from .numerics import _NEAR_T, CHUNK, _power_sums, kahan_sum, kahan_sum_rows, log_two_sin
from .ostrowski import OstrowskiDigits, epsilon_numerator, epsilon_profile, tail_term

DEFAULT_SCAN_BUDGET = 10 ** 7
DEFAULT_TOP_M = 32
# scan raises its c-norm exponents to this before exp, whose fast path ends
# near -707.5 (17-190 ns an element below, 1 ns above, on numpy 2.4's AVX512
# build; the bound is build-specific).  A raised term adds at most e^-707, so
# q_K <= 1.5e7 of them move a sum >= 1 (the max term is exp(0)) by less than
# 2^-990; that holds for any floor <= -707.
_EXP_FLOOR = -707.0


@dataclass(frozen=True, slots=True)
class LogProduct:
    """Natural log of a (shifted) Sudler product magnitude, or of one per shift.

    For G shifts, log_value and zero_factors are float64 and int64 arrays of
    length G.  A vanishing factor is a tagged state: log_value then sums
    only the nonzero factors so downstream consumers can skip zeros explicitly.
    """

    log_value: float | np.ndarray
    n_terms: int
    zero_factors: int | np.ndarray = 0

    @property
    def is_zero(self) -> bool | np.ndarray:
        return self.zero_factors > 0

    def require_nonzero(self) -> float | np.ndarray:
        zeros = int(np.sum(self.zero_factors))
        if zeros:
            raise ZeroFactorError(f"{zeros} factor(s) vanish in the {self.n_terms}-term product(s)")
        return self.log_value


def _check_range(table: ConvergentTable, N: int):
    if not 0 <= N <= table.q[table.K_max]:
        raise RangeError(f"N={N} outside [0, q_K={table.q[table.K_max]}]")


def log_sudler(table: ConvergentTable, N: int) -> LogProduct:
    """log prod_{n=1..N} |2 sin(pi n alpha)|; the empty product is 0."""
    return log_sudler_shifted(table, N, 0.0)


def log_sudler_shifted(table: ConvergentTable, M: int, x) -> LogProduct:
    """log prod_{n=1..M} |2 sin(pi (n alpha + s))| for a shift s = x, or each s in x.

    A float x gives a LogProduct of floats, a 1-D sequence one of arrays
    (see LogProduct).  The decomposition passes the shifts s = (-1)^k x / q_k
    of `scaled_shift`, a limit curve one such s per grid point.  Each s must
    be finite and is replaced by s - rint(s) on entry, which is exact and
    leaves |s| <= 1/2 as it is (-0.0 becomes 0.0).  Each block n in
    [1 + i*CHUNK, 1 + (i+1)*CHUNK) of `table.fracs` is computed once and
    shared by every shift.

    A float x, and a sequence whose G shifts and M terms make the direct sum
    the cheaper one (`_expansion_pays`), sum log_two_sin(y_n + s) for every
    shift: G*M log-sines.  Other sequences take one pass over the blocks
    (`_log_sudler_expanded`).  With c = cot(pi y_n) and t = tan(pi s),
    log|2 sin pi(y_n + s)| = log|2 sin pi y_n| + log|cos pi s| + log(1 + c t).
    A term is far when |c| tau < 1/_NEAR_T for tau = max |t| over the shifts.
    The pass keeps the sum of the far terms' log|2 sin pi y_n| and the power
    sums S_j of (c tau)^j for j <= _POWERS; a shift's far part is then
    n_far log|cos pi s| + sum_j (-1)^(j+1) (t/tau)^j S_j / j, with a dropped
    tail below _NEAR_T^-17/17 ~ 2e-22 a term.  The near terms, about 30 per
    limit-curve shift, are summed directly for each shift, so an exact
    residue landing on an integer still counts as a zero factor.  Both sums
    of logs are exact up to a tiny remainder (`_split_sum`): at q_6 of
    [0;(15)] the products are within 0.63e-12 of long double, against
    1.01e-12 for the direct sum.
    """
    M = int(M)
    _check_range(table, M)
    shifts = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(shifts)):
        raise RangeError("shifts must be finite")
    shifts = np.ravel(shifts - np.rint(shifts))
    if np.ndim(x) == 0:
        value, zeros = _log_sudler_direct(table.fracs, M, shifts, table.is_rational)
        return LogProduct(float(value[0]), M, int(zeros[0]))
    kernel = _log_sudler_expanded if _expansion_pays(shifts, M) else _log_sudler_direct
    value, zeros = kernel(table.fracs, M, shifts, table.is_rational)
    return LogProduct(value, M, zeros)


# The cotangent power-sum expansion of the sequence form (log_sudler_shifted).
_POWERS = 16
_HI_SCALE = 2.0 ** 20


def _expansion_pays(shifts: np.ndarray, M: int) -> bool:
    """Whether the expansion is as accurate as, and cheaper than, G direct passes.

    Accuracy: the far terms' n_far log|cos pi s|, about M tau^2 / 2, carries
    the rounding of log|cos pi s| n_far times, so M tau^2 <= 64 keeps that
    near 1e-14; at a shift of 0.2 over q_5 of [0;(15)] it costs 1.6e-12.
    Every limit-curve and Ostrowski-block shift, |s| < 2/q_k, passes.  tau <= 1
    keeps cos pi s >= 1/sqrt(2), where log1p(-sin^2 pi s)/2 is accurate.

    Cost, in units of one direct term (about 11 ns): the direct kernel
    costs G M plus 670 per numpy pass of CHUNK // M shifts (one shift from
    M = CHUNK/2 on), the expansion 2.5 (M + 4000) for its pass plus, per
    shift, 120 and its near terms, about M (2/pi) atan(_NEAR_T tau) for
    equidistributed y_n.  Fitted to both kernels on [0;(15)] and [0;(12)]
    for M from 1 to 65536 and G from 1 to 160,000, best of 5 to 9 (2 CPUs,
    numpy 2.4).  For shifts |s| <= 1/M the expansion wins from G = 203 at
    M = 200, G = 68 at M = 300, G = 14 at M = 1000 and G = 4 from M = 10^4,
    and never below M = 150.
    """
    G = len(shifts)
    direct = G * M + 670 * -(-G // max(1, CHUNK // max(1, M)))

    def cheaper(near: float) -> bool:
        return direct > 2.5 * (M + 4000) + G * (120 + near)

    if not cheaper(0.0):  # most Ostrowski-digit calls stop here
        return False
    tau = float(np.max(np.abs(np.tan(np.pi * shifts))))
    if not (tau <= 1.0 and M * tau * tau <= 64.0):
        return False
    return cheaper(M * (2.0 / math.pi) * math.atan(_NEAR_T * tau))


def _log_sudler_direct(fracs, M: int, shifts: np.ndarray, exact: bool) -> tuple:
    """G log-sine passes over blocks fracs(lo, hi): logs summed pairwise, block sums compensated.

    Returns the log sums and zero counts per shift.  The shifts of a block
    go through _shifted_logs in batches, so many shifts of a short block cost
    one numpy pass.  Each row is summed alone by numpy's pairwise reduction:
    a shift's result does not depend on its batch.
    """
    starts = range(1, M + 1, CHUNK) if len(shifts) else ()
    parts = np.empty((len(shifts), len(starts)))
    zeros = np.zeros(len(shifts), dtype=np.int64)
    for i, lo in enumerate(starts):
        for rows, g in _shifted_logs(fracs(lo, min(lo + CHUNK, M + 1)), shifts, exact, zeros):
            parts[rows, i] = g.sum(axis=1)
    return kahan_sum_rows(parts), zeros


def _log_sudler_expanded(fracs, M: int, shifts: np.ndarray, exact: bool) -> tuple:
    """The sequence form in one pass over the blocks (see log_sudler_shifted), as _log_sudler_direct."""
    t = np.tan(np.pi * shifts)
    tau = float(np.max(np.abs(t)))
    # Per shift, the unshifted far factors plus the shifted near factors, as
    # an exact hi part and a remainder (_split_sum).
    hi = np.zeros(len(shifts))
    lo = np.zeros(len(shifts))
    zeros = np.zeros(len(shifts), dtype=np.int64)
    powers = np.zeros(_POWERS)
    n_far = 0
    for start in range(1, M + 1, CHUNK):
        y = fracs(start, min(start + CHUNK, M + 1))
        tan_y = np.tan(np.pi * y)
        far = np.abs(tan_y) > _NEAR_T * tau
        h, l = _split_sum(log_two_sin(y[far])[0])
        hi += h
        lo += l
        for rows, g in _shifted_logs(y[~far], shifts, exact, zeros):
            h, l = _split_sum(g)
            hi[rows] += h
            lo[rows] += l
        u = tau / tan_y[far]
        n_far += u.size
        powers += _power_sums(u, u, _POWERS)
    j = np.arange(1, _POWERS + 1)
    coef = powers * np.where(j % 2, 1.0, -1.0) / j
    r = t / tau if tau else t
    sin_s = np.sin(np.pi * shifts)
    # log|cos pi s| through log1p: log(cos) is off by up to half an ulp of 1,
    # and n_far such errors add up.
    far_part = (r[:, None] ** j) @ coef + n_far * 0.5 * np.log1p(-sin_s * sin_s)
    return kahan_sum_rows(np.column_stack((hi, lo, far_part))), zeros


def _split_sum(g: np.ndarray) -> tuple:
    """Sums of g along its last axis as (hi, lo): hi sums g rounded to multiples of 2^-20.

    A factor above 1e-13 has |g| < 32, so its rounded log is an integer below
    2^25 in units of 2^-20, and hi is exact in float64 up to 2^28 such terms,
    also summed over blocks; the remainders g - hi are exact and below 2^-21,
    so lo's rounding error is tiny.  Summed apart, the far and near terms of
    a large shift have partial sums of 29,000 against a total of -2.6 (q_5 of
    [0;(15)], s = 0.2), where pairwise sums lost 1.7e-12; for a limit curve
    at q_6 the split removes the 0.39e-12 that pairwise summation adds.
    """
    h = g * _HI_SCALE
    r = np.rint(h)
    h -= r
    return r.sum(axis=-1) / _HI_SCALE, h.sum(axis=-1) / _HI_SCALE


def _shifted_logs(y: np.ndarray, shifts: np.ndarray, exact: bool, zeros: np.ndarray):
    """Yield (rows, g): g[i] = log|2 sin pi(y + s)| for the shifts s = shifts[rows][i].

    Adds each shift's zero factors to `zeros`.  Shifts are batched so that a
    temporary holds at most CHUNK elements (or one shift's row).  sin(pi v)
    is 0.0 in float64 only at v = 0, so a row's zero factors are its zero
    entries after _log_factors.
    """
    step = max(1, CHUNK // max(1, y.size))
    for i in range(0, len(shifts), step):
        v = shifts[i:i + step, None] + y
        g, z = _log_factors(v.ravel(), exact)
        if z:
            zeros[i:i + step] += np.count_nonzero(v == 0.0, axis=1)
        yield slice(i, i + step), g.reshape(v.shape)


def _log_factors(y: np.ndarray, exact: bool) -> tuple[np.ndarray, int]:
    """log_two_sin(y), counting an integer y as a zero factor when `exact`.

    An exact residue plus a shift can land on an integer, where sin(pi y)
    rounds to ~1e-16 instead of 0; such y are zeroed in place.
    """
    if exact:
        y[y == np.round(y)] = 0.0
    return log_two_sin(y)


def log_sudler_rational(p: int, q: int, N: int, x: float = 0.0) -> LogProduct:
    """log prod_{n=1..N} |2 sin(pi (n p/q + x))|: the direct kernel on exact (n*p mod q)/q."""
    p, q, N = int(p), int(q), int(N)
    if q < 1 or math.gcd(p, q) != 1:
        raise RangeError("p/q must be a reduced fraction with q >= 1")
    if not 0 <= N < q:
        raise RangeError(f"N={N} outside [0, q={q})")
    P = p % q
    R = _residues(P, q, min(N, CHUNK))
    value, zeros = _log_sudler_direct(lambda lo, hi: _signed_residues(P, q, R, lo, hi) / q,
                                      N, np.array([float(x)]), True)
    return LogProduct(float(value[0]), N, int(zeros[0]))


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


def block_args(digits: OstrowskiDigits, k: int, eps) -> np.ndarray:
    """x_b = b delta_k + eps_k for 0 <= b <= b_k as one float64 vector, empty if b_k = 0.

    eps is the digit vector's epsilon_profile.  x_0 .. x_{b_k - 1} are the
    arguments of the blocks at digit k, x_{b_k} gives the block surrogate's
    boundary term.  Each x_b is within 4 half-ulps of max(b delta_k, |eps_k|,
    |x_b|) of the exact value.  Every x_b must lie in (-1, 1); a violation
    indicates an upstream bug and raises.
    """
    b_k = digits.digits[k]
    if b_k < 1:
        return np.empty(0)
    return _block_args(digits.table, k, float(eps[k]), b_k + 1)


def _block_args(table: ConvergentTable, k: int, eps, count: int) -> np.ndarray:
    """x_b for 0 <= b < count: a vector for a float eps_k, a row per entry of a column of them."""
    x = float(table.delta[k]) * np.arange(count) + eps
    bad = np.argwhere(~((-1.0 < x) & (x < 1.0)))
    if bad.size:
        at = tuple(bad[0])
        raise AssertionError(f"block argument {x[at]} outside (-1,1) at k={k}, b={at[-1]}")
    return x


def scaled_shift(table: ConvergentTable, k: int, x):
    """The shift (-1)^k x / q_k of a length-q_k block at argument x, a float or an array."""
    return (x if k % 2 == 0 else -x) / table.q[k]


def block_shifts(digits: OstrowskiDigits, k: int, eps) -> np.ndarray:
    """Shifts (-1)^k x_b / q_k of the b_k length-q_k blocks at digit k (see block_args)."""
    return scaled_shift(digits.table, k, block_args(digits, k, eps)[:-1])


def decompose(digits: OstrowskiDigits) -> Decomposition:
    """Evaluate P_N through shifted length-q_k blocks driven by the digit vector."""
    table = digits.table
    eps = epsilon_profile(digits)
    factors = []
    for k in range(digits.K):
        blocks = log_sudler_shifted(table, table.q[k], block_shifts(digits, k, eps))
        factors.extend((k, b, f) for b, f in enumerate(blocks.require_nonzero().tolist()))
    total = kahan_sum(f for _, _, f in factors)
    return Decomposition(tuple(factors), total)


def decompose_all(table: ConvergentTable, K: int) -> np.ndarray:
    """decompose(encode(table, N, K)).total for every N < q_K, in N order, in one tree walk.

    A node at level k is a valid prefix b_{K-1} .. b_{k+1}, which fixes
    eps_k (the integer suffix sum S_k, once per node, over Q rounded once)
    and so the blocks at digit k of every N below it.  Going down from
    k = K - 1, each level makes one log_sudler_shifted call with the block
    shifts of all its nodes, and a child b_k adds its node's first b_k block
    logs to the node's total.  The carry rule leaves a node ending in
    b_{k+1} = a_{k+2} the one child b_k = 0.  Cost: O(q_K / a_1) integer
    additions, and a peak of about 122 bytes per N ([0;(12)], K = 5) and 129
    for golden.  The block logs are summed in another order than
    decompose's, so the totals differ from it by about 1e-15.
    """
    if not 1 <= K <= table.K_max:
        raise RangeError(f"K={K} outside [1, {table.K_max}]")
    Q = table.deep[1]
    totals = np.zeros(1)
    suffixes = [0]  # the integer S_k of each node
    free = np.ones(1, dtype=bool)  # whether the node's b_k may be nonzero
    for k in range(K - 1, -1, -1):
        top = table.a[k + 1] - (k == 0)  # the largest b_k
        logs = np.zeros((len(totals), top))
        if top:
            eps = [epsilon_numerator(table, k, s) / Q for s, f in zip(suffixes, free) if f]
            x = _block_args(table, k, np.array(eps)[:, None], top)
            blocks = log_sudler_shifted(table, table.q[k], scaled_shift(table, k, x).ravel())
            logs[free] = blocks.require_nonzero().reshape(x.shape)
        cum = np.cumsum(np.hstack((np.zeros((len(totals), 1)), logs)), axis=1)
        counts = np.where(free, top + 1, 1)
        node = np.repeat(np.arange(len(totals)), counts)
        digit = np.arange(len(node)) - np.repeat(np.cumsum(counts) - counts, counts)
        totals = totals[node] + cum[node, digit]
        if k:
            free = digit < table.a[k + 1]
            if table.a[k] - (k == 1):  # only a level k - 1 with blocks reads the suffixes
                terms = [tail_term(table, k, b) for b in range(top + 1)]
                suffixes = [suffixes[i] + terms[b] for i, b in zip(node.tolist(), digit.tolist())]
    return totals


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
    totals.  The first pass takes the cumsums; fl(v + s) is monotone in v,
    so the block peaks give max_log before any block is seeded.  The second
    seeds each block and adds its c-norm terms, exp of c (log P_N - max_log)
    raised to _EXP_FLOOR, while the block is in cache.  Only the top_m
    blocks with the largest seeded peaks (ties to the lower block) can hold
    a top value: each of their peaks is a distinct N that ranks above every
    value of another block.  The second pass takes those blocks' own top_m
    in the order of `top`, (-log P_N, N), from the seeded values.  Every
    reduction runs over fixed blocks merged in block order, so the result is
    bit-identical for any parallelism level.
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
    if not all(0 < c < math.inf for c in c_list):
        raise RangeError("norm exponents must be positive and finite")
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
        return float(v[-1]), float(v.max())

    def finish(i, s):
        v = values[blocks[i]]
        v += s
        terms = []
        if c_list:
            x = v - max_log
            y = np.empty_like(x)
            for c in c_list:
                np.multiply(x, c, out=y)
                np.maximum(y, _EXP_FLOOR, out=y)
                terms.append(float(np.exp(y, out=y).sum()))
        return terms, (_block_top(v, top_m) + blocks[i].start).tolist() if i in picked else []

    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        totals, peaks = zip(*pool.map(prefix, blocks))
        seeds = np.concatenate(([0.0], np.cumsum(totals[:-1])))
        peaks = [float(m + s) for m, s in zip(peaks, seeds)]
        max_log = max(peaks)
        picked = set(sorted(range(len(blocks)), key=lambda i: (-peaks[i], i))[:top_m])
        parts, cands = zip(*pool.map(finish, range(len(blocks)), seeds))
    # The lowest block holding the max, and its first entry: ties go to the lowest N.
    win = blocks[peaks.index(max_log)]
    argmax_N = win.start + int(np.argmax(values[win]))
    sums = {c: c * max_log + math.log(math.fsum(p[i] for p in parts))
            for i, c in enumerate(c_list)}
    top = sorted(((n, float(values[n])) for block_cands in cands for n in block_cands),
                 key=lambda t: (-t[1], t[0]))
    return ScanResult(K, q_K, argmax_N, max_log, sums, tuple(top[:top_m]), values)


def _block_top(v: np.ndarray, m: int) -> np.ndarray:
    """Indices of v's m >= 1 largest values, ties to the lowest index, in no order."""
    if m >= v.size:
        return np.arange(v.size)
    kth = np.partition(v, v.size - m)[v.size - m]  # the m-th largest
    above = np.flatnonzero(v > kth)
    return np.concatenate((above, np.flatnonzero(v == kth)[:m - above.size]))
