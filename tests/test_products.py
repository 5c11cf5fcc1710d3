import dataclasses
import math
import sys

import numpy as np
import pytest

from sudler import (
    OstrowskiDigits,
    RangeError,
    ZeroFactorError,
    b_transfer,
    build_table,
    decompose,
    encode,
    log_sudler,
    log_sudler_rational,
    log_sudler_shifted,
    n_star,
    reflection_rhs,
    scan,
)


class TestDirect:
    def test_empty_product(self, tables):
        lp = log_sudler(tables["golden"], 0)
        assert lp.log_value == 0.0 and lp.n_terms == 0

    def test_small_hand_value(self):
        # P_2(phi) = |2 sin(pi phi)| * |2 sin(2 pi phi)|
        t = build_table("golden", 8)
        phi = (1 + math.sqrt(5)) / 2
        expected = math.log(abs(2 * math.sin(math.pi * phi))) + math.log(
            abs(2 * math.sin(2 * math.pi * phi))
        )
        assert log_sudler(t, 2).log_value == pytest.approx(expected, abs=1e-12)

    def test_golden_desk_windows(self):
        # bounded below and P_N/N bounded above at desk scale
        t = build_table("golden", 22)
        vals = scan(t, 21).values
        P = np.exp(vals[1:10001])
        N = np.arange(1, 10001)
        assert P.min() > 0.5
        assert 0.05 < (P / N).max() < 4.0

    def test_shifted_zero_shift(self, tables):
        t = tables["[0;(5)]"]
        a = log_sudler(t, 100).log_value
        b = log_sudler_shifted(t, 100, 0.0).log_value
        assert a == b

    def test_shifted_tracks_two_sin_large_a(self):
        # block product at a=50, k=4 follows |2 sin(pi x)| to ~(1+log a)/a
        t = build_table("[0;(50)]", 5)
        scale = (1 + math.log(50)) / 50
        for x in (-0.9, -0.5, 0.2, 0.5, 0.9):
            lp = log_sudler_shifted(t, int(t.q[4]), x / t.q[4])
            assert abs(math.exp(lp.log_value) - abs(2 * math.sin(math.pi * x))) < 2.5 * scale


class TestRational:
    def test_sqrt_five(self):
        lp = log_sudler_rational(1, 5, 2)
        assert math.exp(lp.log_value) == pytest.approx(math.sqrt(5), abs=1e-12)

    def test_last_term_closed_form(self):
        # P_{q-1}(p/q, x) = |sin(pi q x)| / |sin(pi x)|
        lp = log_sudler_rational(1, 3, 2, 0.25)
        assert math.exp(lp.log_value) == pytest.approx(1.0, abs=1e-12)
        for q, p, x in ((7, 3, 0.1), (11, 4, 0.37), (101, 10, 0.009)):
            lp = log_sudler_rational(p, q, q - 1, x)
            assert lp.log_value == pytest.approx(reflection_rhs(q, x), abs=1e-10)

    def test_integer_shift_gives_log_q(self):
        for q, p in ((7, 2), (12, 5)):
            lp = log_sudler_rational(p, q, q - 1, 1.0)
            assert lp.log_value == pytest.approx(math.log(q), abs=1e-11)

    def test_zero_factor_state(self):
        lp = log_sudler_rational(1, 2, 1, 0.5)
        assert lp.is_zero and lp.zero_factors == 1
        with pytest.raises(ZeroFactorError):
            lp.require_nonzero()

    def test_reflection_small_exhaustive(self):
        q, p = 17, 3
        for N in range(q):
            for x in (0.0, 0.3, 1.0):
                l1 = log_sudler_rational(p, q, N, x)
                l2 = log_sudler_rational(p, q, q - N - 1, -x)
                lhs = l1.log_value + l2.log_value
                assert lhs == pytest.approx(reflection_rhs(q, x), abs=1e-11)

    def test_preconditions(self):
        with pytest.raises(RangeError):
            log_sudler_rational(2, 4, 1)
        with pytest.raises(RangeError):
            log_sudler_rational(1, 5, 5)

    def test_rational_table_vanishes_at_q(self):
        # the full product at N = q contains the factor sin(pi q p/q) = 0
        t = build_table("[0;2,3]", 2)
        lp = log_sudler(t, 7)
        assert lp.is_zero and lp.zero_factors == 1

    def test_rational_table_shifted_zero_tagged(self):
        # exact-integer arguments are a tagged state, not log(1e-16)
        t = build_table("[0;2]", 1)  # alpha = 1/2
        lp = log_sudler_shifted(t, 2, 0.5)  # n=1 lands on sin(pi)
        assert lp.is_zero and lp.zero_factors == 1


class TestDecompose:
    def test_all_zero_digits(self, tables):
        t = tables["golden"]
        d = encode(t, 0, K=5)
        dec = decompose(t, d)
        assert dec.factors == () and dec.total == 0.0

    def test_single_digit_telescopes(self):
        t = build_table("[0;(5)]", 4)
        d = OstrowskiDigits((3,), t)
        dec = decompose(t, d)
        assert dec.total == pytest.approx(log_sudler(t, 3).log_value, abs=1e-10)

    def test_identity_one_alpha(self):
        t = build_table("[0;(5)]", 6)
        vals = scan(t, 4).values
        for N in range(int(t.q[4])):
            d = encode(t, N, K=4)
            dec = decompose(t, d)
            direct = float(vals[N])
            assert abs(dec.total - direct) <= 1e-9 * (1 + abs(direct))

    def test_shift_arguments_in_range(self):
        # every inner shift b*delta_k + eps_k must fall inside (-1, 1)
        t = build_table("[0;2,(1,4)]", 6)
        for N in range(int(t.q[5])):
            decompose(t, encode(t, N, K=5))  # raises on violation


class TestBTransfer:
    def test_empty(self, tables):
        assert b_transfer(tables["[0;(5)]"], 2, 0, 0.3) == 0.0

    def test_within_frozen_envelope(self, fixtures):
        t = build_table("[0;(15)]", 6)
        val = b_transfer(t, 5, int(t.q[5]) - 1, 0.3)
        assert abs(val) <= fixtures["b_transfer"]["max_abs"]

    def test_upper_bound_shape(self):
        # one-sided bound: B <= C / (a_{k+1}^2 q_k) with a modest C
        t = build_table("[0;(15)]", 6)
        for k, x in ((4, 0.0), (4, 0.5), (5, 0.3)):
            val = b_transfer(t, k, int(t.q[k]) - 1, x)
            assert val <= 100.0 / (t.a[k + 1] ** 2 * int(t.q[k]))


class TestScan:
    def test_max_matches_values(self):
        t = build_table("[0;(6)]", 5)
        res = scan(t, 4)
        assert res.max_log == res.values[res.argmax_N]
        assert res.max_log == pytest.approx(
            log_sudler(t, res.argmax_N).log_value, abs=1e-9
        )

    def test_norm_inequality_c64(self):
        t = build_table("[0;(6)]", 4)
        res = scan(t, 3, c_list=(64.0,))
        proxy = res.sums[64.0] / 64.0
        assert res.max_log <= proxy <= res.max_log + math.log(res.q_K) / 64.0

    def test_argmax_digits_near_star(self, fixtures):
        t = build_table("[0;(6)]", 4)
        res = scan(t, 3, c_list=(2.0,))
        best = encode(t, res.argmax_N, K=3)
        star = n_star(t, 3)
        assert max(abs(b - s) for b, s in zip(best.digits, star.digits)) <= 2

    def test_monotone_window(self):
        t = build_table("[0;(5)]", 6)
        m4 = scan(t, 4).max_log
        m5 = scan(t, 5).max_log
        assert m5 >= m4

    def test_norm_monotinicity_in_c(self):
        # (sum P^c)^(1/c) is non-increasing in c
        t = build_table("[0;(6)]", 4)
        res = scan(t, 4, c_list=(0.5, 1.0, 2.0, 8.0, 64.0))
        norms = [res.sums[c] / c for c in (0.5, 1.0, 2.0, 8.0, 64.0)]
        for a, b in zip(norms, norms[1:]):
            assert a >= b - 1e-12

    def test_rational_scan_reflection(self):
        # scan over N < q at alpha = p_K/q_K agrees with the reflection identity
        t6 = build_table("[0;(6)]", 4)
        p, q = t6.p[4], t6.q[4]
        spec = f"[0;{','.join(str(t6.a[k]) for k in range(1, 5))}]"
        t = build_table(spec, 4)
        assert (t.p[4], t.q[4]) == (p, q)
        res = scan(t, 4)
        rng = np.random.default_rng(5)
        for N in rng.integers(0, q, size=200):
            lhs = res.values[N] + res.values[q - N - 1]
            assert abs(lhs - math.log(q)) < 1e-10 * max(1.0, math.log(q))

    def test_top_m_sorted(self):
        t = build_table("[0;(6)]", 4)
        res = scan(t, 4, top_m=8)
        assert len(res.top) == 8
        assert res.top[0][0] == res.argmax_N
        vals = [v for _, v in res.top]
        assert vals == sorted(vals, reverse=True)

    def test_multi_block(self):
        # q_7 = 328,776 spans six 65536-wide blocks
        t = build_table("[0;(6)]", 7)
        cs = (0.5, 2.0, 64.0)
        res = scan(t, 7, c_list=cs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the worker threads finely
        try:
            others = [scan(t, 7, c_list=cs, parallelism=p) for p in (2, 8)]
        finally:
            sys.setswitchinterval(interval)
        for other in others:
            assert res.equals_bitwise(other)
            assert np.array_equal(res.values, other.values)
        vals = res.values
        q = res.q_K
        assert q == 328_776
        for N in (65535, 65536, 65537, q - 1):
            assert abs(vals[N] - log_sudler(t, N).log_value) <= 1e-9
        assert res.argmax_N == int(np.argmax(vals))
        assert res.max_log == vals[res.argmax_N]
        for c in cs:
            lse = c * res.max_log + math.log(math.fsum(np.exp(c * (vals - res.max_log))))
            assert res.sums[c] == pytest.approx(lse, rel=1e-12)
        order = np.argsort(-vals, kind="stable")[:32]
        assert res.top == tuple((int(n), float(vals[n])) for n in order)

    def test_equals_bitwise_compares_values(self):
        res = scan(build_table("[0;(6)]", 4), 4)
        other = dataclasses.replace(res, values=res.values.copy())
        assert res.equals_bitwise(other)
        other.values[-1] = np.nextafter(other.values[-1], np.inf)
        assert not res.equals_bitwise(other)

    def test_bad_arguments(self):
        t = build_table("[0;(6)]", 4)
        with pytest.raises(RangeError):
            scan(t, 3, parallelism=0)
        with pytest.raises(RangeError):
            scan(t, 3, top_m=-1)

    def test_budget(self):
        t = build_table("[0;(50)]", 5)
        with pytest.raises(Exception):
            scan(t, 5, budget=10 ** 7)
