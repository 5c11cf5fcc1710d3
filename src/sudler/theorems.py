"""Analysis harness: constants, digit penalties, block surrogates, predictions.

The prediction formulas carry only main terms; their error budgets are shaped
like the corresponding remainder sums and use constants frozen by a one-time
calibration run.  A passing report is a regression statement about those
frozen constants, not a claim about the true asymptotic constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from .cf import ConvergentTable
from .cotangent import v_k
from .errors import BudgetError, RangeError, SudlerError
from .ostrowski import OstrowskiDigits, b_star, decode, encode, epsilon_profile, n_star, project
from .products import (
    DEFAULT_SCAN_BUDGET,
    block_args,
    block_shifts,
    log_sudler,
    log_sudler_shifted,
    scan,
)

# zeta(2n) / (n (2n + 1)), n = 1..25: the Clausen-series coefficients.  At
# y = 1/2 the 26th term is below 1e-19.
with mpmath.workprec(80):
    _CLAUSEN_COEFFS = tuple(
        float(mpmath.zeta(2 * n) / (n * (2 * n + 1))) for n in range(1, 26)
    )

QUADRATIC_CONSTANT = math.pi * math.sqrt(3.0) / 2.0
PENALTY_LOWER_CONSTANT = 0.2326

REGIME_FORMULA = "formula-ii"
REGIME_QUADRATIC = "quadratic"
REGIME_OUT = "out-of-regime"


# --- constants and quadrature ---


def _F_half(y: float) -> float:
    """int_0^y log(2 sin(pi x)) dx = -Cl_2(2 pi y) / (2 pi) for 0 <= y <= 1/2.

    Series: y (log(2 pi y) - 1) - sum_n zeta(2n) y^(2n+1) / (n (2n+1)).
    """
    if y == 0.0:
        return 0.0
    y2 = y * y
    tail = 0.0
    for c in reversed(_CLAUSEN_COEFFS):
        tail = tail * y2 + c
    return y * (math.log(2.0 * math.pi * y) - 1.0) - tail * y * y2


def _F(y: float) -> float:
    """int_0^y log|2 sin(pi x)| dx on [0, 1]; vanishes at 0, 1/2, and 1."""
    if not 0.0 <= y <= 1.0:
        raise RangeError("integration limit must lie in [0, 1]")
    if y <= 0.5:
        return _F_half(y)
    return -_F_half(1.0 - y)


def log_sin_integral(y0: float, y1: float) -> float:
    """int_{y0}^{y1} log|2 sin(pi x)| dx from the Clausen series."""
    return _F(float(y1)) - _F(float(y0))


def vol41() -> float:
    """Hyperbolic volume of the figure-eight knot complement, 4 pi int_0^{5/6}."""
    return 4.0 * math.pi * log_sin_integral(0.0, 5.0 / 6.0)


# Coefficients of s^-(n+2), n = 0..15, in the series of one period below:
# (-1)^n (n+1) m_n / 2 = (-1)^n n (n-1) / (12 (n+2) (n+3)), where
# m_n = int_0^1 t^n B2(t) dt; each is a correctly rounded integer quotient.
_B2_SERIES = tuple((-1) ** n * n * (n - 1) / (12 * (n + 2) * (n + 3)) for n in range(16))


def _b2_period(s: np.ndarray) -> np.ndarray:
    """int_0^1 (B2(t)/2) / (t+s)^2 dt for s > 0, with B2(t) = t^2 - t + 1/6.

    The exact closed form below s = 20; from there on, where its O(1) terms
    cancel to about 1/(120 s^4), 14 terms of the series in 1/s.
    """
    out = np.empty_like(s)
    near = s < 20.0
    x = s[near]
    out[near] = 0.5 - (x + 0.5) * np.log1p(1.0 / x) + (x * x / 2 + x / 2 + 1.0 / 12.0) / (
        x * (x + 1.0))
    out[~near] = np.polynomial.polynomial.polyval(1.0 / s[~near], (0.0, 0.0) + _B2_SERIES)
    return out


def bernoulli_b2_integrals() -> tuple[float, float]:
    """int_1^inf (B2({x})/2)/(x-5/6)^2 dx and int_1^inf (B2({x})/2)/x^2 dx.

    B2({x})/2 is Euler-Maclaurin's periodic Bernoulli function.  The sum runs
    over the periods up to x = 200,000 and is within 5e-16 of the Gamma-function
    closed forms; the remainder past x = 200,000 is about 200,000^-3 / 360.
    """
    m = np.arange(1, 200_001, dtype=np.float64)
    return (float(np.sum(_b2_period(m - 5.0 / 6.0))),
            float(np.sum(_b2_period(m))))


def bernoulli_b2_closed_forms() -> tuple[float, float]:
    """Gamma-function closed forms the numeric integrals are checked against."""
    first = 1.0 / 3.0 - math.log(
        math.gamma(1.0 / 6.0)
        / (2.0 ** (5.0 / 6.0) * 3.0 ** (1.0 / 3.0) * math.sqrt(math.pi))
    )
    second = -11.0 / 12.0 + math.log(math.sqrt(2.0 * math.pi))
    return first, second


# --- digit penalty terms and the block surrogate ---


@dataclass(frozen=True)
class DkTerm:
    """Penalty data for one digit position.

    Above 0.99 a_{k+1} the integral formula no longer applies and only the
    quadratic lower bound is available, so `value` switches to that bound and
    any check using it must be one-sided.
    """

    k: int
    a_next: int
    b: int
    b_star: int
    main: float
    quad: float
    regime: str

    @property
    def lower(self) -> float:
        return PENALTY_LOWER_CONSTANT * (self.b - self.b_star) ** 2 / self.a_next

    @property
    def value(self) -> float:
        if self.regime == REGIME_OUT:
            return self.lower
        return self.main


def digit_penalty(k: int, a_next: int, b: int) -> DkTerm:
    """Penalty of digit b at position k against b* = b_star(a_{k+1})."""
    star = b_star(a_next)
    main = a_next * log_sin_integral(b / a_next, star / a_next)
    quad_term = QUADRATIC_CONSTANT * (b - star) ** 2 / a_next
    if 100 * b > 99 * a_next:
        regime = REGIME_OUT
    elif (b - star) ** 2 <= a_next:
        regime = REGIME_QUADRATIC  # both forms apply; main is used
    else:
        regime = REGIME_FORMULA
    return DkTerm(k, a_next, b, star, main, quad_term, regime)


def d_k_terms(digits: OstrowskiDigits) -> list[DkTerm]:
    """Per-digit penalty terms for the drop log P_N - log P_{N*}."""
    return [digit_penalty(k, digits.table.a[k + 1], b) for k, b in enumerate(digits.digits)]


def u_k_log(digits: OstrowskiDigits, k: int) -> float:
    """log u_k: the digit-k main-term surrogate for the block product.

    It reads the block arguments x_b and the boundary b_k delta_k + eps_k
    from block_args, as the block products do.
    """
    if not 1 <= k < digits.K:
        raise RangeError(f"k={k} outside [1, {digits.K - 1}]")
    if digits.digits[k] == 0:
        return 0.0
    xs = block_args(digits, k, epsilon_profile(digits))
    sin_part = float(np.sum(np.log(np.abs(2.0 * np.sin(np.pi * xs[1:-1])))))
    v_part = sum(v_k(digits.table, k, xs[:-1]))
    boundary = math.log(2.0 * math.pi * xs[-1])
    return sin_part + v_part + boundary


@dataclass(frozen=True)
class UNValue:
    """Block surrogate log U_N over the blocks k >= 1, with the k = 0 block products kept apart."""

    log_u: float
    below_k0_log: float


def u_n_log(digits: OstrowskiDigits) -> UNValue:
    table = digits.table
    total = sum(u_k_log(digits, k) for k in range(1, digits.K))
    shifts = block_shifts(digits, 0, epsilon_profile(digits))
    below = sum(log_sudler_shifted(table, table.q[0], shifts).require_nonzero().tolist())
    return UNValue(total, below)


def e_k_residual(digits: OstrowskiDigits, k: int) -> float:
    """Defect of the block surrogate against the actual shifted block products."""
    if digits.digits[k] == 0:
        return 0.0
    table = digits.table
    shifts = block_shifts(digits, k, epsilon_profile(digits))
    blocks = sum(log_sudler_shifted(table, table.q[k], shifts).require_nonzero().tolist())
    return blocks - u_k_log(digits, k)


# --- prediction reports ---


@dataclass(frozen=True)
class PredictionReport:
    label: str
    prediction: float
    observed: float
    error_budget: float
    one_sided: bool = False

    @property
    def residual(self) -> float:
        # One-sided reports assert observed <= prediction + budget, for cases
        # where the formula is only an upper bound on the observable.
        if self.one_sided:
            return max(0.0, self.observed - self.prediction)
        return abs(self.prediction - self.observed)

    @property
    def passed(self) -> bool:
        return self.residual <= self.error_budget

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "prediction": self.prediction,
            "observed": self.observed,
            "error_budget": self.error_budget,
            "one_sided": self.one_sided,
            "pass": self.passed,
        }


def fixture_value(fixtures: dict, key: str, field: str) -> float:
    try:
        return float(fixtures[key][field])
    except (KeyError, TypeError, ValueError) as exc:
        raise SudlerError(
            f"calibration fixtures lack a numeric {key}.{field}; run `sudler calibrate`"
        ) from exc


def _fixture_pair(fixtures: dict, key: str) -> tuple[float, float]:
    return fixture_value(fixtures, key, "C_cal"), fixture_value(fixtures, key, "C_alpha")


def theorem1_budget_shape(table: ConvergentTable, K: int) -> float:
    return sum(1.0 / table.a[k] for k in range(1, K + 1))


def theorem1_formula_shape(terms) -> float:
    """Error shape of the integral penalty formula itself.

    Each in-regime digit contributes |b - b*|/a_{k+1}, plus log a_{k+1} when
    the digit sits in the near-zero band b <= 0.01 a_{k+1}.
    """
    total = 0.0
    for t in terms:
        if t.regime == REGIME_OUT:
            continue
        total += abs(t.b - t.b_star) / t.a_next
        if 100 * t.b <= t.a_next:
            total += math.log(t.a_next)
    return total


def theorem2_budget_shape(table: ConvergentTable, K: int, c: float) -> float:
    total = 0.0
    for k in range(1, K + 1):
        a_k = table.a[k]
        L = math.log(a_k / c + 2.0)
        total += (
            math.sqrt(L) / (math.sqrt(c) * math.sqrt(a_k))
            + L ** 1.5 / (c ** 1.5 * math.sqrt(a_k))
            + 1.0 / a_k
        )
    return total


def theorem3_budget_shape(table: ConvergentTable, K: int) -> float:
    return sum(
        (1.0 + math.log(table.a[k] * table.a[k + 1])) / table.a[k + 1]
        for k in range(1, K + 1)
    )


def pnstar_prediction(table: ConvergentTable, K: int, fixtures: dict) -> PredictionReport:
    """Main-term value of log P at the near-maximizer digit vector vs. direct evaluation."""
    N = decode(n_star(table, K))
    if N > DEFAULT_SCAN_BUDGET:
        raise BudgetError(f"N*={N} exceeds scan budget {DEFAULT_SCAN_BUDGET}")
    observed = log_sudler(table, N).require_nonzero()
    v = vol41() / (4.0 * math.pi)
    prediction = v * sum(table.a[k] for k in range(1, K + 1)) + 0.5 * sum(
        math.log(table.a[k]) for k in range(1, K + 1)
    )
    C_cal, C_alpha = _fixture_pair(fixtures, "theorem3")
    budget = C_cal * theorem3_budget_shape(table, K) + C_alpha
    return PredictionReport(f"pnstar K={K}", prediction, observed, budget)


def lcnorm_prediction(table: ConvergentTable, K: int, fixtures: dict,
                      c_list=()) -> list[PredictionReport]:
    """Predicted c-norms against the log-sum-exp accumulators of one scan.

    One report per c of `c_list`, (0.5, 2, 64) when it is empty; the scan
    shares its pass over N < q_K between all of them.
    """
    cs = tuple(float(c) for c in c_list) or (0.5, 2.0, 64.0)
    res = scan(table, K, c_list=cs)  # rejects non-positive and non-finite c first
    if not all(0.01 <= c < math.inf for c in cs):
        raise RangeError("c must be finite and >= 0.01")
    star_log = float(res.values[decode(n_star(table, K))])
    C_cal, C_alpha = _fixture_pair(fixtures, "theorem2")
    out = []
    for c in cs:
        correction = sum(
            math.log(2.0 * table.a[k] / (math.sqrt(3.0) * c)) for k in range(1, K + 1)
        ) / (2.0 * c)
        budget = C_cal * theorem2_budget_shape(table, K, c) + C_alpha
        out.append(PredictionReport(f"lcnorm K={K} c={c}", star_log + correction,
                                    res.sums[c] / c, budget))
    return out


def theorem1_check(table: ConvergentTable, K: int, fixtures: dict,
                   seed: int = 0) -> list[PredictionReport]:
    """Digit-penalty prediction of log P_N - log P_{N*}, one report per N.

    N runs over every N < q_K when q_K <= 4096, else over 512 distinct N
    drawn with `seed`.  When every digit stays within the 0.99 a_{k+1} regime
    the check is two-sided; a digit at the carry maximum only admits the
    quadratic lower bound on its penalty, so those N are checked one-sidedly
    (the observed drop must be at least the predicted one, up to budget).
    """
    values = scan(table, K).values  # checks the scan budget before anything is sampled
    q_K = len(values)
    sample = (range(q_K) if q_K <= 4096 else
              sorted(int(n) for n in np.random.default_rng(seed).choice(q_K, 512, replace=False)))
    star_log = float(values[decode(n_star(table, K))])
    C_cal, C_alpha = _fixture_pair(fixtures, "theorem1")
    base_shape = theorem1_budget_shape(table, K)
    out = []
    for N in sample:
        digits = encode(table, N, K=K)
        observed = float(values[N]) - star_log
        terms = d_k_terms(digits)
        one_sided = any(t.regime == REGIME_OUT for t in terms)
        prediction = -sum(t.value for t in terms)
        budget = C_cal * (theorem1_formula_shape(terms) + base_shape) + C_alpha
        out.append(PredictionReport(f"N={N}", prediction, observed, budget,
                                    one_sided=one_sided))
    return out


def quadratic_slope_estimate(table: ConvergentTable, K: int, m: int) -> float:
    """Curvature of the single-digit drop around the near-maximizer.

    Second differences of log P across b_m = b_m^* + j, |j| <= 3, cancel the
    linear slack, leaving the quadratic coefficient (scaled by a_{m+1}).
    """
    j_max = 3
    star = n_star(table, K)
    b_star = star.digits[m]
    a_next = table.a[m + 1]
    if not (j_max <= b_star and b_star + j_max < a_next):
        raise RangeError("perturbation window leaves the admissible digit range")
    drops = {}
    base = log_sudler(table, decode(star)).require_nonzero()
    for j in range(-j_max, j_max + 1):
        pert = project(star, m, b_star + j)
        drops[j] = base - log_sudler(table, decode(pert)).require_nonzero()
    second = [
        (drops[j + 1] - 2.0 * drops[j] + drops[j - 1]) / 2.0 * a_next
        for j in range(-j_max + 1, j_max)
    ]
    return float(np.mean(second))
