"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time

import mpmath
import numpy as np
import pytest

from sudler import (
    build_table,
    decode,
    decompose,
    digamma,
    empirical_limit,
    encode,
    g_alpha,
    lcnorm_prediction,
    log_sudler_rational,
    pnstar_prediction,
    reflection_rhs,
    scan,
    theorem1_check,
    v_k,
    vasyunin,
    vol41,
)
from sudler.calibration import load_fixtures
from sudler.limitfn import crossing_abscissa
from sudler.ostrowski import enumerate_valid, epsilon_profile
from sudler.theorems import (
    QUADRATIC_CONSTANT,
    bernoulli_b2_closed_forms,
    bernoulli_b2_integrals,
    quadratic_slope_estimate,
)

from conftest import TEST_SPECS


class _Criterion:
    def __init__(self, number, label, limit_seconds):
        self.number = number
        self.label = label
        self.limit = limit_seconds
        self.start = time.perf_counter()
        self.failures = []

    def check(self, name, ok):
        if not ok:
            self.failures.append(name)

    def finish(self):
        elapsed = time.perf_counter() - self.start
        ok = not self.failures and elapsed < self.limit
        status = "PASS" if ok else "FAIL"
        print(f"CRITERION {self.number} ({self.label}): {status} "
              f"[{elapsed:.1f}s / {self.limit:.0f}s]"
              + (f" failures={self.failures}" if self.failures else ""))
        assert not self.failures, f"criterion {self.number}: {self.failures}"
        assert elapsed < self.limit, f"criterion {self.number} over time budget"


@pytest.fixture(scope="module")
def fx():
    return load_fixtures()


def test_criterion_1_constants():
    c = _Criterion(1, "constants", 1.0)
    v = vol41()
    c.check("vol41", abs(v - 2.02988) <= 5e-6)
    c.check("9V/25pi", abs(9 * v / (25 * math.pi) - 0.23260748) <= 1e-8)
    gamma_prod = math.gamma(1 / 6) * math.gamma(5 / 6)
    c.check("gamma reflection", abs(gamma_prod - 2 * math.pi) <= 2 * math.pi * 1e-10)
    n1, n2 = bernoulli_b2_integrals()
    c1, c2 = bernoulli_b2_closed_forms()
    c.check("improper1", abs(n1 - c1) <= 1e-6)
    c.check("improper2", abs(n2 - c2) <= 1e-6)
    c.finish()


def test_criterion_2_exact_identities():
    c = _Criterion(2, "exact identities", 10.0)
    # determinant identity, exact integers, k <= 40
    for spec in TEST_SPECS:
        t = build_table(spec, 40)
        ok = all(
            t.q[k + 1] * t.p[k] - t.q[k] * t.p[k + 1] == (-1) ** (k + 1)
            for k in range(40)
        )
        c.check(f"determinant {spec}", ok)
    # reflection over 1000 random (N, x) pairs, q <= 10^4, with the integer-x
    # branch; x is drawn keeping q*x away from integers so double precision
    # stays within the 1e-10 tolerance (the identity itself holds for all x)
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(1000):
        q = int(rng.integers(2, 10001))
        p = int(rng.integers(1, q))
        while math.gcd(p, q) != 1:
            p = int(rng.integers(1, q))
        N = int(rng.integers(0, q))
        if trial % 5 == 0:
            x = float(rng.integers(-2, 3))  # integer branch: product equals q
        else:
            x = float(rng.uniform(0.05, 0.95))
            while min((q * x) % 1.0, 1.0 - (q * x) % 1.0) < 0.05:
                x = float(rng.uniform(0.05, 0.95))
        l1 = log_sudler_rational(p, q, N, x)
        l2 = log_sudler_rational(p, q, q - N - 1, -x)
        if l1.is_zero or l2.is_zero:
            c.check(f"unexpected zero q={q}", False)
            continue
        rhs = reflection_rhs(q, x)
        err = abs(l1.log_value + l2.log_value - rhs) / max(1.0, abs(rhs))
        worst = max(worst, err)
    c.check("reflection 1e-10", worst <= 1e-10)
    # last-term closed form
    worst = 0.0
    for q, p, x in ((7, 3, 0.1), (11, 4, 0.37), (101, 10, 0.009), (9973, 7, 0.51)):
        err = abs(log_sudler_rational(p, q, q - 1, x).log_value - reflection_rhs(q, x))
        worst = max(worst, err)
    c.check("last-term closed form", worst <= 1e-10)
    c.finish()


def test_criterion_3_decomposition_oracle():
    c = _Criterion(3, "decomposition oracle", 30.0)
    for spec in TEST_SPECS:
        t = build_table(spec, 6)
        vals = scan(t, 5).values
        worst = 0.0
        for N in range(int(t.q[5])):
            digits = encode(t, N, K=5)
            total = decompose(digits).total
            direct = float(vals[N])
            worst = max(worst, abs(total - direct) / (1.0 + abs(direct)))
        c.check(f"decomposition {spec}", worst <= 1e-9)
    c.finish()


def test_criterion_4_ostrowski():
    c = _Criterion(4, "ostrowski", 10.0)
    rng = np.random.default_rng(41)
    for spec in TEST_SPECS:
        t = build_table(spec, 8)
        ok = all(decode(encode(t, N, K=6)) == N for N in range(int(t.q[6])))
        c.check(f"roundtrip {spec}", ok)
        for K in range(1, 6):
            seen = {decode(d) for d in enumerate_valid(t, K)}
            c.check(f"bijectivity {spec} K={K}", seen == set(range(int(t.q[K]))))
        bounds_ok = True
        with mpmath.workprec(300):
            slop = mpmath.mpf(2) ** -200  # both bounds are attainable
            for N in rng.integers(0, int(t.q[7]), size=10_000):
                digits = encode(t, int(N), K=7)
                for k, e in epsilon_profile(digits).items():
                    if not (-t.delta[k] + t.eta[k] - slop <= e <= t.eta[k] + slop):
                        bounds_ok = False
                    if not -1 < float(e) < 0.5:
                        bounds_ok = False
        c.check(f"epsilon bounds {spec}", bounds_ok)
    c.finish()


def test_criterion_5_cotangent(fx):
    c = _Criterion(5, "cotangent", 60.0)

    def oracle_2_5():
        total = 0.0
        for n in (1, 2):  # pair n with 5 - n
            m = 5 - n
            total += (n / 5) / math.tan(math.pi * (n * 2 % 5) / 5)
            total += (m / 5) / math.tan(math.pi * (m * 2 % 5) / 5)
        return total

    c.check("vasyunin(2,5,0)", abs(vasyunin(2, 5) - oracle_2_5()) <= 1e-6)
    # strict decrease on the grid
    grid = np.linspace(-0.99, 0.99, 101)
    for spec in TEST_SPECS:
        t = build_table(spec, 8)
        for k in range(1, 9):
            if t.q[k] == 1 or t.q[k] > 10 ** 6:
                continue  # q_k = 1 has an empty sum
            vals = v_k(t, k, grid)
            c.check(f"monotone {spec} k={k}",
                    all(a > b for a, b in zip(vals, vals[1:])))
    # frozen envelope at a in {15, 50, 200}; the q_k <= 1e7 cap is part of
    # the criterion, so a=200 has no admissible k >= 4 and contributes only
    # the cap path
    C = fx["vk_envelope"]["C_cal"]
    checked = 0
    for a in (15, 50, 200):
        t = build_table(f"[0;({a})]", 8)
        for k in range(4, 9):
            if t.q[k] > 10 ** 7:
                continue
            delta = float(t.delta[k])
            for x in (-0.9, -0.5, 0.0, 0.5, 0.9):
                resid = abs(
                    v_k(t, k, x) / delta
                    - (math.log(a / (2 * math.pi)) - digamma(1.0 + x))
                )
                shape = (1 + 2 * math.log(a)) / ((1 - abs(x)) * a)
                c.check(f"envelope a={a} k={k} x={x}", resid <= C * shape)
                checked += 1
    c.check("envelope coverage", checked >= 15)
    c.finish()


def test_criterion_6_limit_functions(fx):
    c = _Criterion(6, "limit functions", 300.0)
    t15 = build_table("[0;(15)]", 6)
    grid = np.round(np.arange(-0.95, 0.9501, 0.01), 10)
    closed = g_alpha(15, grid)
    curve4 = empirical_limit(t15, 4, grid)
    c.check("fig1/fig3 sup vs closed form",
            float(np.max(np.abs(curve4 - closed))) <= fx["limit_curve"]["a15_k4_sup"])
    # curve stability between k=4 and k=6 (q_6 = 1.165e7 needs the budget
    # override; the 1e-3 sup-norm bound is the criterion itself)
    coarse = np.round(np.arange(-0.95, 0.9501, 0.05), 10)
    c4 = empirical_limit(t15, 4, coarse)
    c6 = empirical_limit(t15, 6, coarse, budget=15_000_000)
    c.check("k4 vs k6 stability", float(np.max(np.abs(c4 - c6))) <= 1e-3)
    # fig2 crossing windows
    t250 = build_table("[0;(2,50)]", 5)
    cross_grid = np.round(np.arange(0.5, 1.0001, 0.005), 10)
    c4x = crossing_abscissa(cross_grid, empirical_limit(t250, 4, cross_grid))
    c5x = crossing_abscissa(cross_grid, empirical_limit(t250, 5, cross_grid))
    c.check("fig2 crossing near 0.95", abs(c4x - 0.95) <= 0.02)
    c.check("fig2 crossing near 5/6", abs(c5x - 5.0 / 6.0) <= 0.02)
    c.finish()


def test_criterion_7_theorem1(fx):
    c = _Criterion(7, "theorem 1", 120.0)
    t = build_table("[0;(10)]", 4)
    K = 3
    reports = theorem1_check(t, K, fx)
    c.check("exhaustive N < q_3", all(r.passed for r in reports))
    c.check("sample size", len(reports) == int(t.q[K]))
    t50 = build_table("[0;(50)]", 4)
    ests = [quadratic_slope_estimate(t50, 3, m) for m in (1, 2)]
    est = float(np.mean(ests))
    c.check("quadratic slope within 15%",
            abs(est - QUADRATIC_CONSTANT) / QUADRATIC_CONSTANT < 0.15)
    c.finish()


def test_criterion_8_theorems_2_3(fx):
    c = _Criterion(8, "theorems 2-3", 120.0)
    t = build_table("[0;(30)]", 4)
    K = 3
    cs = (0.5, 2.0, 64.0)
    res = scan(t, K, c_list=cs)
    for cc, rep in zip(cs, lcnorm_prediction(t, K, fx, cs)):
        c.check(f"lcnorm c={cc}", rep.passed)
    rep = pnstar_prediction(t, K, fx)
    c.check("pnstar", rep.passed)
    proxy = res.sums[64.0] / 64.0
    c.check("c=64 within log(q_K)/64 of max",
            res.max_log <= proxy <= res.max_log + math.log(res.q_K) / 64.0)
    c.finish()


def test_criterion_9_scan_determinism():
    c = _Criterion(9, "scan determinism", 60.0)
    t = build_table("[0;(6)]", 5)
    results = [
        scan(t, 4, c_list=(0.5, 2.0, 64.0), parallelism=par)
        for par in (1, 4, 16)
    ]
    c.check("parallelism 1 vs 4", results[0].equals_bitwise(results[1]))
    c.check("parallelism 1 vs 16", results[0].equals_bitwise(results[2]))
    c.finish()
