"""Continued-fraction engine: alpha specifications and convergent tables.

A ConvergentTable carries exact big-integer convergents p_k/q_k together with
high-precision values of theta_k = ||q_k alpha||, delta_k = q_k ||q_k alpha||
and eta_k = q_k ||q_{k+1} alpha||.  The delta values are produced from the
continued-fraction tails (exact quadratic surds for periodic alpha, deep
truncated tails for rule-generated alpha), never from the unstable
three-term recursion for ||q_k alpha||.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .errors import (
    ParseError,
    PrecisionError,
    RangeError,
    RationalDepthError,
    SudlerError,
)
from .numerics import CHUNK, frac_parts_dd  # noqa: F401  (the benchmark tracer resolves it here)
from .surd import Surd, periodic_tail, prepend_digits

# Named digit generators for well-approximable test numbers.  Each maps the
# index k >= 1 to the partial quotient a_k.
RULES = {
    "powers-of-two": lambda k: 2 ** k,
}

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

    @property
    def kind(self) -> str:
        if self.rule is not None:
            return "rule"
        if self.period is not None:
            return "periodic"
        return "rational"

    @property
    def is_rational(self) -> bool:
        return self.kind == "rational"

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


@dataclass(frozen=True)
class PrecisionConfig:
    """Working precision for the real scalars derived from a table."""

    working_bits: int = 256
    tail_depth: int = 64

    def __post_init__(self):
        if self.working_bits < 64:
            raise SudlerError("working_bits must be >= 64")
        if self.tail_depth < 1:
            raise SudlerError("tail_depth must be >= 1")


class ConvergentTable:
    """Exact convergents plus high-precision theta/delta/eta columns.

    theta[k] is the signed distance |q_k alpha - p_k|, which equals
    ||q_k alpha|| for every k >= 1 and also at k = 0 unless a_1 = 1.

    Immutable after construction apart from two caches, each replaced
    whole and without a lock: the residue kernel behind `fracs` and the
    float64 fractional-part array of `frac_doubles`.  `scan` builds the
    kernel before it starts its thread pool, so its workers only read it,
    and never touches the array.
    """

    def __init__(self, alpha: AlphaSpec, K_max: int, cfg: PrecisionConfig,
                 a, p, q, theta, delta, eta, alpha_value):
        self.alpha = alpha
        self.K_max = K_max
        self.cfg = cfg
        self.a = a            # a[k] for 1 <= k <= len(a)-1; a[0] unused
        self.p = p            # p[0..K_hi]
        self.q = q            # q[0..K_hi]
        self.theta = theta    # theta[0..] as mpf, ||q_k alpha||
        self.delta = delta    # delta[k] = q_k ||q_k alpha||
        self.eta = eta        # eta[k] = q_k ||q_{k+1} alpha||
        self.alpha_value = alpha_value
        self._frac_cache: np.ndarray | None = None
        self._kernel: tuple | None = None

    @property
    def is_rational(self) -> bool:
        return self.alpha.is_rational

    def rational_value(self) -> Fraction:
        if not self.is_rational:
            raise SudlerError("alpha is not rational")
        return _fold_rational(self.alpha)

    # --- scalar fractional parts at working precision ---

    def frac_part(self, n: int):
        """{n*alpha} as an mpf with absolute error well below 2^(64-wb)*n."""
        n = int(n)
        if not 0 <= n < self.q[self.K_max]:
            raise RangeError(f"n={n} outside [0, q_K={self.q[self.K_max]})")
        if n == 0:
            return mpmath.mpf(0)
        wb = self.cfg.working_bits
        if wb <= n.bit_length() + 64:
            raise PrecisionError(
                f"working_bits={wb} too small for n with {n.bit_length()} bits"
            )
        if self.is_rational:
            val = self.rational_value()
            r = (n * val.numerator) % val.denominator
            with mpmath.workprec(wb):
                return mpmath.mpf(r) / val.denominator
        with mpmath.workprec(wb + n.bit_length() + 16):
            x = self.alpha_value * n
            return x - mpmath.floor(x)

    def frac_part_via_convergent(self, n: int, k: int | None = None):
        """Oracle path: exact reduction against p_k/q_k plus the n*theta correction."""
        n = int(n)
        if k is None:
            k = self.K_max
        if not 0 <= n < self.q[k]:
            raise RangeError(f"n={n} outside [0, q_{k})")
        if n == 0:
            return mpmath.mpf(0)
        r = (n * self.p[k]) % self.q[k]
        sign = 1 if k % 2 == 0 else -1
        with mpmath.workprec(self.cfg.working_bits + 16):
            t = mpmath.mpf(r) / self.q[k] + sign * n * self.theta[k] / self.q[k]
            return t - mpmath.floor(t)

    # --- float64 fractional parts for the product kernels ---

    def frac_doubles(self, n_hi: int) -> np.ndarray:
        """`fracs` for n = 0 .. n_hi-1 as one cached float64 array."""
        n_hi = int(n_hi)
        cache = self._frac_cache
        have = 0 if cache is None else len(cache)
        if have >= n_hi:
            return cache[:n_hi]
        grow = max(n_hi, 1024, 2 * have)
        grow = min(grow, max(n_hi, int(self.q[self.K_max])))
        arr = np.empty(grow, dtype=np.float64)
        if cache is not None:
            arr[:have] = cache
        for lo in range(have, grow, CHUNK):
            arr[lo:lo + CHUNK] = self.fracs(lo, min(lo + CHUNK, grow))
        self._frac_cache = arr
        return arr[:n_hi]

    def fracs(self, lo: int, hi: int) -> np.ndarray:
        """y_n = n*alpha mod 1 for lo <= n < hi, signed, as float64.

        y_n = r_n/Q + n*w (see `residue_kernel`) with the exact residue
        r_n = n*P mod Q taken in [-Q/2, Q/2), so y_n is n*alpha minus its
        nearest integer (up to 1/Q near +-1/2) and is small exactly where
        n*alpha is close to an integer.  A pure function of n; blocks of at
        most CHUNK indices keep every temporary O(CHUNK).
        """
        lo, hi = int(lo), int(hi)
        P, Q, w, R = self.residue_kernel(hi - lo)
        h = Q // 2
        # (n*P + h) mod Q - h is n*P mod Q shifted into [-h, Q - h).
        r = _reduce_once(R[:hi - lo] + (lo * P + h) % Q, Q)
        r -= h
        y = np.arange(lo, hi, dtype=np.float64)
        y *= w
        y += r / Q
        return y

    def residue_kernel(self, size: int) -> tuple:
        """(P, Q, w, R) with n*alpha = n*P/Q + n*w (mod 1) and R[j] = j*P mod Q.

        A rational alpha with Q < 2^62 is P/Q itself and w = 0, so its
        residues are exact.  Otherwise P/Q = p_j/q_j at the deepest j <= K_max
        with q_j < 2^62, and w = (-1)^j theta_j / q_j rounded once; that is
        accurate for every n < q_{j+1}.  R has at least `size` entries: it is
        built on first use and grown by doubling, R[m + j] = (R[j] + m*P) mod Q,
        so a small table pays only for the indices it asks for.
        """
        if self._kernel is None:
            self._kernel = (*self._residue_params(), np.zeros(1, dtype=np.int64))
        P, Q, w, R = self._kernel
        while len(R) < size:
            R = np.concatenate((R, _reduce_once(R + len(R) * P % Q, Q)))
            self._kernel = (P, Q, w, R)
        return self._kernel

    def _residue_params(self) -> tuple:
        if self.is_rational:
            val = self.rational_value()
            if val.denominator < RESIDUE_LIMIT:
                return val.numerator % val.denominator, val.denominator, 0.0
        j = max(k for k in range(self.K_max + 1) if self.q[k] < RESIDUE_LIMIT)
        sign = 1 if j % 2 == 0 else -1
        with mpmath.workprec(self.cfg.working_bits + 16):
            w = float(sign * self.theta[j] / self.q[j])
        return self.p[j] % self.q[j], self.q[j], w


def _reduce_once(x: np.ndarray, Q: int) -> np.ndarray:
    """x mod Q in place, for int64 0 <= x < 2Q < 2^63.

    Seen as uint64, x - Q wraps past x exactly when x < Q, so the smaller of
    the two is x mod Q.
    """
    u = x.view(np.uint64)
    np.minimum(u, u - np.uint64(Q), out=u)
    return x


def _fold_rational(alpha: AlphaSpec) -> Fraction:
    """Exact value of a finite continued fraction."""
    digits = (alpha.integer_part,) + alpha.preperiod
    x = Fraction(digits[-1])
    for c in reversed(digits[:-1]):
        x = c + 1 / x
    return x


def build_table(alpha: AlphaSpec | str, K_max: int,
                cfg: PrecisionConfig | None = None) -> ConvergentTable:
    """Build the convergent table for alpha up to index K_max."""
    if isinstance(alpha, str):
        alpha = parse_alpha(alpha)
    if cfg is None:
        cfg = PrecisionConfig()
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

    a = [0] * (K_hi + 1)
    for k in range(1, K_hi + 1):
        a[k] = alpha.partial_quotient(k)

    p = [0] * (K_hi + 1)
    q = [0] * (K_hi + 1)
    p[0], q[0] = alpha.integer_part, 1
    if K_hi >= 1:
        p[1], q[1] = alpha.integer_part * a[1] + 1, a[1]
    for k in range(2, K_hi + 1):
        p[k] = a[k] * p[k - 1] + p[k - 2]
        q[k] = a[k] * q[k - 1] + q[k - 2]
    for k in range(K_hi):
        det = q[k + 1] * p[k] - q[k] * p[k + 1]
        if det != (-1) ** (k + 1):
            raise SudlerError(f"determinant identity failed at k={k}")

    builder = _ThetaBuilder(alpha, cfg, a, p, q, K_hi)
    theta_hi = K_max + 1 if rational_len is None else K_hi
    theta = [builder.theta(k) for k in range(theta_hi + 1)]
    wb = cfg.working_bits
    with mpmath.workprec(wb + 16):
        delta = [theta[k] * q[k] for k in range(min(K_max, theta_hi) + 1)]
        eta = [q[k] * theta[k + 1] for k in range(min(K_max, theta_hi - 1) + 1)]
    for k in range(len(theta) - 1):
        if not theta[k] > theta[k + 1]:
            raise SudlerError(f"theta not strictly decreasing at k={k}")

    return ConvergentTable(alpha, K_max, cfg, a, p, q, theta, delta, eta,
                           builder.alpha_value())


class _ThetaBuilder:
    """Computes ||q_k alpha|| from continued-fraction tails."""

    def __init__(self, alpha, cfg, a, p, q, K_hi):
        self.alpha = alpha
        self.cfg = cfg
        self.a = a
        self.p = p
        self.q = q
        self.K_hi = K_hi
        self._rot_cache: dict[int, Surd] = {}

    # tail_from(j) = value of [a_j; a_{j+1}, a_{j+2}, ...]

    def _tail_surd(self, j: int) -> Surd:
        k0 = len(self.alpha.preperiod)
        per = self.alpha.period
        if j >= k0 + 1:
            r = (j - k0 - 1) % len(per)
            if r not in self._rot_cache:
                digits = tuple(per[(r + i) % len(per)] for i in range(len(per)))
                self._rot_cache[r] = periodic_tail(digits)
            return self._rot_cache[r]
        head = tuple(self.alpha.partial_quotient(i) for i in range(j, k0 + 1))
        return prepend_digits(self._tail_surd(k0 + 1), head)

    def _tail_mpf(self, j: int):
        """Truncated tail for rule alpha, validated against the precision budget."""
        wb = self.cfg.working_bits
        depth = self.cfg.tail_depth
        h0, h1 = 1, self.alpha.partial_quotient(j)
        k0, k1 = 0, 1
        for i in range(1, depth):
            c = self.alpha.partial_quotient(j + i)
            h0, h1 = h1, c * h1 + h0
            k0, k1 = k1, c * k1 + k0
        # Truncation error of a continued-fraction tail is below 1/k1^2.
        if 2 * k1.bit_length() - 2 < wb // 2:
            raise PrecisionError(
                f"tail_depth={depth} leaves truncation error above 2^-{wb // 2}"
            )
        with mpmath.workprec(wb + 16):
            return mpmath.mpf(h1) / k1

    def theta(self, k: int):
        wb = self.cfg.working_bits
        kind = self.alpha.kind
        if kind == "rational":
            diff = abs(self.q[k] * _fold_rational(self.alpha) - self.p[k])
            with mpmath.workprec(wb + 16):
                return mpmath.mpf(diff.numerator) / diff.denominator
        if k == 0:
            return self._theta0()
        q_k, q_km1 = self.q[k], self.q[k - 1]
        if kind == "periodic":
            tail = self._tail_surd(k + 1)
            # theta_k = 1 / (q_k * tail + q_{k-1}), exact until one rounding
            return tail.mobius(0, q_k, 1, q_km1).to_mpf(wb)
        tail = self._tail_mpf(k + 1)
        with mpmath.workprec(wb + 16):
            return 1 / (q_k * tail + q_km1)

    def _theta0(self):
        # theta_0 is |q_0 alpha - p_0| = {alpha}, which differs from
        # ||q_0 alpha|| only when a_1 = 1; the signed-distance convention is
        # the one under which theta decreases strictly and
        # q_{k+1} theta_k + q_k theta_{k+1} = 1 holds from k = 0.
        wb = self.cfg.working_bits
        if self.alpha.kind == "periodic":
            return self._tail_surd(1).reciprocal().to_mpf(wb)
        tail = self._tail_mpf(1)
        with mpmath.workprec(wb + 16):
            return 1 / tail

    def alpha_value(self):
        wb = self.cfg.working_bits
        kind = self.alpha.kind
        if kind == "rational":
            val = _fold_rational(self.alpha)
            with mpmath.workprec(wb + 16):
                return mpmath.mpf(val.numerator) / val.denominator
        if kind == "periodic":
            x = self._tail_surd(1).reciprocal().add_rational(self.alpha.integer_part)
            return x.to_mpf(wb)
        # Rule: deepen convergents until q_j^2 resolves alpha to working precision.
        h0, h1 = 1, self.alpha.partial_quotient(1)
        g0, g1 = self.alpha.integer_part, self.alpha.integer_part * h1 + 1
        j = 1
        while 2 * (h1.bit_length() - 1) < wb + 4:
            j += 1
            c = self.alpha.partial_quotient(j)
            g0, g1 = g1, c * g1 + g0
            h0, h1 = h1, c * h1 + h0
        with mpmath.workprec(wb + 16):
            return mpmath.mpf(g1) / h1
