"""Continued-fraction engine: alpha specifications and convergent tables.

A ConvergentTable carries exact big-integer convergents p_k/q_k together with
high-precision values of theta_k = ||q_k alpha||, delta_k = q_k ||q_k alpha||
and eta_k = q_k ||q_{k+1} alpha||.  Every theta_k is the exact integer
|q_k p_N - p_k q_N| over q_N, rounded once, for one deep convergent p_N/q_N:
the last one of a rational alpha, so its table is exact, and for periodic and
rule-generated alpha the first that holds theta_k to 2^-(WORKING_BITS+17)
relative.  Nothing comes from the unstable three-term recursion for ||q_k alpha||.
The same pair, kept as `ConvergentTable.deep`, gives the scalar fractional
parts, the residue kernel's w and the limit constants C_r, D_r.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .errors import ParseError, RangeError, RationalDepthError, SudlerError
from .numerics import CHUNK, frac_parts_dd  # noqa: F401  (the benchmark tracer resolves it here)

# Named digit generators for well-approximable test numbers.  Each maps the
# index k >= 1 to the partial quotient a_k.
RULES = {
    "powers-of-two": lambda k: 2 ** k,
}

# The mpmath precision of every table column and scalar fractional part.  The
# float64 values the kernels read did not change between 64 and 1024 bits.
WORKING_BITS = 256

# Residues below 2^62 add without leaving int64: R + (lo*P mod Q) < 2^63.
RESIDUE_LIMIT = 1 << 62


@dataclass(frozen=True)
class AlphaSpec:
    """Parsed description of alpha: finite, eventually periodic, or rule-generated."""

    integer_part: int = 0
    preperiod: tuple = ()
    period: tuple | None = None
    rule: str | None = None

    def __post_init__(self):
        if self.period is not None and self.rule is not None:
            raise SudlerError("period and rule are mutually exclusive")
        if self.period is not None and len(self.period) == 0:
            raise SudlerError("period must be non-empty when present")
        for a in self.preperiod + (self.period or ()):
            if int(a) < 1:
                raise SudlerError(f"partial quotient {a} must be >= 1")
        if self.rule is not None and self.rule not in RULES:
            raise SudlerError(f"unknown rule {self.rule!r}")
        if self.is_rational and len(self.preperiod) >= 2 and self.preperiod[-1] == 1:
            # [..., c, 1] = [..., c + 1]: two expansions, and theta_{n-1} = theta_n.
            same = AlphaSpec(self.integer_part,
                             self.preperiod[:-2] + (self.preperiod[-2] + 1,))
            raise SudlerError(f"{self.render()} ends in the partial quotient 1; "
                              f"write it as {same.render()}")

    @property
    def is_rational(self) -> bool:
        return self.period is None and self.rule is None

    def partial_quotient(self, k: int) -> int:
        """a_k for k >= 1."""
        if k < 1:
            raise RangeError("partial quotients are indexed from 1")
        if k <= len(self.preperiod):
            return self.preperiod[k - 1]
        if self.period is not None:
            return self.period[(k - len(self.preperiod) - 1) % len(self.period)]
        if self.rule is not None:
            a = int(RULES[self.rule](k))
            if a < 1:
                raise SudlerError(f"rule {self.rule!r} produced a_{k}={a} < 1")
            return a
        raise RationalDepthError(
            f"rational spec has no partial quotient a_{k} (last is a_{len(self.preperiod)})"
        )

    def render(self) -> str:
        if self.rule is not None:
            return f"rule:{self.rule}"
        parts = [str(a) for a in self.preperiod]
        if self.period is not None:
            parts.append("(" + ",".join(str(a) for a in self.period) + ")")
        return f"[{self.integer_part};" + ",".join(parts) + "]"


ALIASES = {
    "golden": AlphaSpec(integer_part=1, period=(1,)),
    "sqrt2": AlphaSpec(integer_part=1, period=(2,)),
}


def parse_alpha(text: str) -> AlphaSpec:
    """Parse an alpha specification string.

    Accepted forms (whitespace-insensitive):
      "[a0;a1,...,an]", "[a0;a1,...,an,(b1,...,bm)]", "[a0;(b1,...,bm)]",
      a named alias ("golden", "sqrt2"), or "rule:<name>".
    """
    s = "".join(text.split())
    if s in ALIASES:
        return ALIASES[s]
    if s.startswith("rule:"):
        name = s[5:]
        if name not in RULES:
            raise ParseError(f"unknown rule {name!r}", position=5)
        return AlphaSpec(integer_part=0, rule=name)
    if not s.startswith("["):
        raise ParseError("expected '[', alias, or 'rule:<name>'", position=0)
    if not s.endswith("]"):
        raise ParseError("expected closing ']'", position=len(s) - 1)
    body = s[1:-1]
    if ";" not in body:
        raise ParseError("expected ';' after the integer part", position=1)
    head, _, tail = body.partition(";")
    try:
        a0 = int(head)
    except ValueError:
        raise ParseError(f"bad integer part {head!r}", position=1) from None
    preperiod: list[int] = []
    period: tuple | None = None
    pos = 1 + len(head) + 1
    i = 0
    while i < len(tail):
        if period is not None:
            raise ParseError("period group must be last", position=pos + i)
        if tail[i] == "(":
            j = tail.find(")", i)
            if j < 0:
                raise ParseError("unclosed period group", position=pos + i)
            inner = tail[i + 1 : j]
            if not inner:
                raise ParseError("empty period", position=pos + i + 1)
            period = tuple(
                _parse_quotient(tok, pos + i + 1) for tok in inner.split(",")
            )
            i = j + 1
            if i < len(tail) and tail[i] == ",":
                raise ParseError("period group must be last", position=pos + i)
        else:
            j = tail.find(",", i)
            if j < 0:
                j = len(tail)
            preperiod.append(_parse_quotient(tail[i:j], pos + i))
            i = j + 1 if j < len(tail) else j
    return AlphaSpec(integer_part=a0, preperiod=tuple(preperiod), period=period)


def _parse_quotient(tok: str, position: int) -> int:
    if not tok:
        raise ParseError("empty partial quotient", position=position)
    try:
        a = int(tok)
    except ValueError:
        raise ParseError(f"bad partial quotient {tok!r}", position=position) from None
    if a < 1:
        raise ParseError(
            f"partial quotient {a} must be a positive integer", position=position
        )
    return a


class ConvergentTable:
    """Exact convergents plus high-precision theta/delta/eta columns.

    theta[k] is the signed distance |q_k alpha - p_k|, which equals
    ||q_k alpha|| for every k >= 1 and also at k = 0 unless a_1 = 1.

    Every product computes n*alpha mod 1 block by block with `fracs`, so
    the only state added after construction is the O(CHUNK) int64 residue
    kernel behind it, replaced whole and without a lock.  `scan` builds the
    kernel before it starts its thread pool, so its workers only read it.
    """

    def __init__(self, alpha: AlphaSpec, K_max: int,
                 a, p, q, theta, delta, eta, deep):
        self.alpha = alpha
        self.K_max = K_max
        self.a = a            # a[k] for 1 <= k <= len(a)-1; a[0] unused
        self.p = p            # p[0..K_hi]
        self.q = q            # q[0..K_hi]
        self.theta = theta    # theta[0..] as mpf, ||q_k alpha||
        self.delta = delta    # delta[k] = q_k ||q_k alpha||
        self.eta = eta        # eta[k] = q_k ||q_{k+1} alpha||
        self.deep = deep      # (P, Q): the deep convergent every column is read off
        self._kernel: tuple | None = None

    @property
    def is_rational(self) -> bool:
        return self.alpha.is_rational

    @property
    def alpha_value(self):
        """P/Q as an mpf, rounded once."""
        return mpmath.fdiv(*self.deep, prec=WORKING_BITS + 16)

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise SudlerError("alpha is not rational")
        return Fraction(*self.deep)

    # --- scalar fractional parts at working precision ---

    def frac_part(self, n: int):
        """{n*alpha} as the exact residue (n*P mod Q)/Q, rounded once to WORKING_BITS.

        For n < q_K, n*|alpha - P/Q| < 2^-(WORKING_BITS+18) (see `build_table`),
        while n*alpha stays at least 1/(2 q_K) from an integer, so the residue
        is {n*alpha} to that accuracy, and exactly it for a rational alpha.
        """
        n = int(n)
        if not 0 <= n < self.q[self.K_max]:
            raise RangeError(f"n={n} outside [0, q_K={self.q[self.K_max]})")
        P, Q = self.deep
        return mpmath.fdiv(n * P % Q, Q, prec=WORKING_BITS)

    # --- float64 fractional parts for the product kernels ---

    def frac_doubles(self, n_hi: int) -> np.ndarray:
        """`fracs` for n = 0 .. n_hi-1 as one float64 array, filled block by block."""
        n_hi = int(n_hi)
        arr = np.empty(n_hi, dtype=np.float64)
        for lo in range(0, n_hi, CHUNK):
            arr[lo:lo + CHUNK] = self.fracs(lo, min(lo + CHUNK, n_hi))
        return arr

    def fracs(self, lo: int, hi: int) -> np.ndarray:
        """y_n = n*alpha mod 1 for lo <= n < hi, signed, as float64.

        y_n = r_n/Q + n*w (see `residue_kernel`) with the exact residue
        r_n = n*P mod Q taken in [-Q/2, Q/2) by `_signed_residues`, so y_n
        is n*alpha minus its nearest integer (up to 1/Q near +-1/2) and is
        small exactly where n*alpha is close to an integer.  A pure function
        of n; blocks of at most CHUNK indices keep every temporary O(CHUNK).
        """
        lo, hi = int(lo), int(hi)
        P, Q, w, R = self.residue_kernel(hi - lo)
        y = np.arange(lo, hi, dtype=np.float64)
        y *= w
        y += _signed_residues(P, Q, R, lo, hi) / Q
        return y

    def residue_kernel(self, size: int) -> tuple:
        """(P, Q, w, R) with n*alpha = n*P/Q + n*w (mod 1) and R[j] = j*P mod Q.

        A rational alpha with Q < 2^62 is P/Q itself and w = 0, so its
        residues are exact.  Otherwise P/Q = p_j/q_j at the deepest j <= K_max
        with q_j < 2^62, and w = (-1)^j theta_j / q_j rounded once; that is
        accurate for every n < q_{j+1}.  R has at least `size` entries: it is
        built on first use and rebuilt when a larger size is asked for, so a
        small table pays only for the indices it asks for.
        """
        if self._kernel is None or len(self._kernel[3]) < size:
            P, Q, w = self._kernel[:3] if self._kernel else self._residue_params()
            self._kernel = (P, Q, w, _residues(P, Q, size))
        return self._kernel

    def _residue_params(self) -> tuple:
        P, Q = self.deep
        if self.is_rational and Q < RESIDUE_LIMIT:
            return P % Q, Q, 0.0
        j = max(k for k in range(self.K_max + 1) if self.q[k] < RESIDUE_LIMIT)
        # (-1)^j theta_j / q_j with theta_j = |q_j P - p_j Q| / Q, rounded once.
        w = (-1) ** j * abs(self.q[j] * P - self.p[j] * Q) / (Q * self.q[j])
        return self.p[j] % self.q[j], self.q[j], w


def _residues(P: int, Q: int, size: int) -> np.ndarray:
    """R[j] = j*P mod Q as int64 for 0 <= j < max(size, 1).

    Built by doubling, R[m + j] = (R[j] + m*P) mod Q with m*P mod Q taken in
    Python integers, so nothing leaves int64, whatever the size of P.
    """
    P, Q = int(P), int(Q)
    if not 1 <= Q < RESIDUE_LIMIT:
        raise RangeError(f"residue modulus {Q} outside [1, 2^62)")
    P %= Q
    R = np.zeros(1, dtype=np.int64)
    while len(R) < size:
        R = np.concatenate((R, _reduce_once(R[:size - len(R)] + len(R) * P % Q, Q)))
    return R


def _signed_residues(P: int, Q: int, R: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """n*P mod Q in [-Q//2, Q - Q//2) for lo <= n < hi, from R = _residues(P, Q, >= hi - lo)."""
    h = Q // 2  # (n*P + h) mod Q - h is n*P mod Q shifted into [-h, Q - h)
    return _reduce_once(R[:hi - lo] + (lo * P + h) % Q, Q) - h


def _reduce_once(x: np.ndarray, Q: int) -> np.ndarray:
    """x mod Q in place, for int64 0 <= x < 2Q < 2^63.

    Seen as uint64, x - Q wraps past x exactly when x < Q, so the smaller of
    the two is x mod Q.
    """
    u = x.view(np.uint64)
    np.minimum(u, u - np.uint64(Q), out=u)
    return x


def _convergents(alpha: AlphaSpec, deep_enough=None) -> tuple[list, list, list]:
    """Partial quotients a[k] and convergents p[k]/q[k] from k = 0 on.

    The recursion p_k = a_k p_{k-1} + p_{k-2} (q_k likewise, from p_{-1} = 1,
    q_{-1} = 0) runs to the last index of a rational alpha, where p/q is alpha
    itself, and otherwise until deep_enough(q) holds.
    """
    a, p, q = [0], [alpha.integer_part], [1]
    while (len(a) <= len(alpha.preperiod) if alpha.is_rational
           else not deep_enough(q)):
        c = alpha.partial_quotient(len(a))
        a.append(c)
        p.append(c * p[-1] + (p[-2] if len(p) > 1 else 1))
        q.append(c * q[-1] + (q[-2] if len(q) > 1 else 0))
    return a, p, q


def build_table(alpha: AlphaSpec | str, K_max: int) -> ConvergentTable:
    """Build the convergent table for alpha up to index K_max."""
    if isinstance(alpha, str):
        alpha = parse_alpha(alpha)
    if K_max < 1:
        raise RangeError("K_max must be >= 1")

    rational_len = len(alpha.preperiod) if alpha.is_rational else None
    if rational_len is not None and K_max > rational_len:
        raise RationalDepthError(
            f"rational alpha has convergents only up to k={rational_len}"
        )
    # One digit beyond K_max is needed for q_{K_max+1} and eta_{K_max}.
    K_hi = K_max + 1
    if rational_len is not None:
        K_hi = min(K_hi, rational_len)

    def deep_enough(q):
        # For k < N, |theta_k - |q_k p_N - p_k q_N|/q_N| < q_k/(q_N q_{N+1})
        # and theta_k > 1/(2 q_{k+1}), so stopping at the first N with
        # q_N q_{N+1} >= 2^(wb+18) q_{K_hi} q_{K_hi+1}, wb = WORKING_BITS,
        # holds every theta_k, k <= K_hi, to 2^-(wb+17) relative.  That N
        # exceeds K_hi.
        return (len(q) >= K_hi + 2
                and q[-2] * q[-1] >= (q[K_hi] * q[K_hi + 1]) << (WORKING_BITS + 18))

    a, p, q = _convergents(alpha, deep_enough)
    for k in range(len(q) - 1):
        det = q[k + 1] * p[k] - q[k] * p[k + 1]
        if det != (-1) ** (k + 1):
            raise SudlerError(f"determinant identity failed at k={k}")

    # theta_k = |q_k alpha - p_k|, read off p_N/q_N (the last index of a
    # rational alpha, so exact there).  theta_0 = {alpha} differs from
    # ||q_0 alpha|| only when a_1 = 1; the signed-distance convention is the
    # one under which theta decreases strictly and
    # q_{k+1} theta_k + q_k theta_{k+1} = 1 holds from k = 0.
    N = len(q) - 1 if rational_len is not None else len(q) - 2
    P, Q = p[N], q[N]
    with mpmath.workprec(WORKING_BITS + 16):
        theta = [mpmath.fdiv(abs(q[k] * P - p[k] * Q), Q) for k in range(K_hi + 1)]
        delta = [theta[k] * q[k] for k in range(K_max + 1)]
        eta = [q[k] * theta[k + 1] for k in range(min(K_max, K_hi - 1) + 1)]
    for k in range(len(theta) - 1):
        if not theta[k] > theta[k + 1]:
            raise SudlerError(f"theta not strictly decreasing at k={k}")

    return ConvergentTable(alpha, K_max, a[:K_hi + 1], p[:K_hi + 1],
                           q[:K_hi + 1], theta, delta, eta, (P, Q))
