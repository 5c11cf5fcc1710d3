import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sudler import (
    BudgetError,
    PoleError,
    RangeError,
    build_table,
    digamma,
    v_k,
    v_k_main_term,
    v_k_star,
    vasyunin,
)
from sudler.theorems import v_k_reports

EULER_GAMMA = 0.5772156649015329


def vasyunin_paired_oracle(p, q, x=0.0, sign=1):
    """Brute-force oracle pairing n with q-n before summing."""
    total = 0.0
    for n in range(1, q // 2 + 1):
        m = q - n
        t_n = ((n * p) % q + sign * x) / q
        total += (n / q) * 1.0 / math.tan(math.pi * t_n)
        if m != n:
            t_m = ((m * p) % q + sign * x) / q
            total += (m / q) * 1.0 / math.tan(math.pi * t_m)
    return total


class TestVasyunin:
    def test_example_2_5(self):
        # four-term value, pinned by the paired oracle
        got = vasyunin(2, 5)
        assert got == pytest.approx(0.0803245663544910, abs=1e-12)
        assert got == pytest.approx(vasyunin_paired_oracle(2, 5), abs=1e-12)

    def test_q2_vanishes(self):
        assert vasyunin(1, 2) == pytest.approx(0.0, abs=1e-15)

    def test_pairing_symmetry(self):
        for p, q in ((3, 7), (10, 101), (41, 137)):
            assert vasyunin(p, q) == pytest.approx(
                vasyunin_paired_oracle(p, q), abs=1e-12
            )

    def test_pole_detection(self):
        with pytest.raises(PoleError):
            vasyunin(2, 5, x=1.0)  # n p + x = 5 at n = 2

    def test_pole_guard_in_residue_units(self):
        # q |t - round t| < 1e-9 is a pole: 1e-11 off is one (the former
        # |t - round t| < 1e-12 rule let it through), 1e-8 off is not
        for sign in (1, -1):
            with pytest.raises(PoleError):
                vasyunin(2, 5, x=sign * (1.0 + 1e-11))  # n = 2 and n = 3
            assert math.isfinite(vasyunin(2, 5, x=sign * (1.0 + 1e-8)))

    def test_gcd_guard(self):
        with pytest.raises(RangeError):
            vasyunin(2, 4)

    def test_x0_main_term_large_a(self):
        # pi C_k(0) / ((-1)^k q_k) approaches log(a / 2 pi) + gamma
        t = build_table("[0;(50)]", 5)
        k = 4
        c = vasyunin(t.p[k] % t.q[k], int(t.q[k]))
        got = math.pi * c / ((-1) ** k * int(t.q[k]))
        target = math.log(50 / (2 * math.pi)) + EULER_GAMMA
        assert abs(got - target) < (1.0 + 2 * math.log(50)) / 50


class TestVk:
    def test_monotone_decreasing_grid(self, tables):
        grid = np.linspace(-0.99, 0.99, 101)
        for t in tables.values():
            for k in range(1, 9):
                if t.q[k] == 1 or t.q[k] > 10 ** 6:
                    continue  # q_k = 1 has an empty sum
                vals = v_k(t, k, grid)
                assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_v0_bounded(self, tables):
        # |V_k(0)| <= (1 + log max a) / a_{k+1}, comfortably
        for t in tables.values():
            for k in range(2, 9):
                if t.q[k] > 10 ** 6:
                    continue
                bound = (1 + math.log(max(t.a[1:k + 1]))) / t.a[k + 1]
                assert abs(v_k(t, k, 0.0)) <= bound

    def test_envelope_frozen(self, fixtures):
        # lemma (iii) shape with the single constant frozen at a=15
        for a in (15, 50, 200):
            t = build_table(f"[0;({a})]", 8)
            for k in range(4, 9):
                if t.q[k] > 10 ** 7:
                    continue
                reports = v_k_reports(t, k, (-0.9, -0.5, 0.0, 0.5, 0.9), fixtures)
                assert all(r.passed for r in reports), (a, k)

    def test_reports_read_v_k_and_the_envelope(self):
        t = build_table("[0;(15)]", 5)
        delta, log_a = float(t.delta[4]), math.log(15)
        for starred, s, x in ((False, 1.0, -0.6), (True, 2.0, 1.5)):
            key = "vk_star_envelope" if starred else "vk_envelope"
            (r,) = v_k_reports(t, 4, [x], {key: {"C_cal": 2.0}}, starred=starred)
            assert r.observed == (v_k_star if starred else v_k)(t, 4, x) / delta
            assert r.prediction == math.log(15 / (2 * math.pi)) - digamma(s + x)
            assert r.error_budget == pytest.approx(2.0 * (1 + 2 * log_a) / ((s - abs(x)) * 15))

    def test_main_term_x0(self):
        t = build_table("[0;(15)]", 5)
        got = v_k_main_term(t, 4, 0.0)
        expected = float(t.delta[4]) * (math.log(15 / (2 * math.pi)) + EULER_GAMMA)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_coarse_stationary_value(self):
        # V_k(x) is about log(a_k)/a_{k+1} for stationary quotients
        t = build_table("[0;(50)]", 5)
        val = v_k(t, 4, 0.2)
        assert abs(val - math.log(50) / 50) < 2.0 / 50

    def test_integer_part_does_not_matter(self):
        # alpha and alpha + 10^12 have the same residues n*p_k mod q_k, though
        # n*p_k leaves int64 for the second
        a = build_table("[0;(15)]", 6)
        b = build_table("[1000000000000;(15)]", 6)
        assert b.p[5] * b.q[5] >= 2 ** 63
        for k, x in ((5, 0.3), (4, -0.7)):
            assert v_k(a, k, x) == v_k(b, k, x)

    def test_domain(self, tables):
        with pytest.raises(RangeError):
            v_k(tables["[0;(5)]"], 3, 1.0)

    def test_budget(self):
        t = build_table("[0;(200)]", 4)
        with pytest.raises(BudgetError):
            v_k(t, 4, 0.0)


class TestVkAccuracy:
    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                        reason="needs an 80-bit long double")
    def test_long_double_oracle(self):
        # V_k and V_k* for [0;(15)] at k = 5 (q_5 = 772,920) against the same
        # sums in long double, with the kernel's float64 pi and theta_k/q_k.
        # The signed residues keep t = (r_n + x)/q_k small where cot is large;
        # unsigned ones were 1.2e-11 off at x = 0.85.
        t = build_table("[0;(15)]", 6)
        k = 5
        q_k = int(t.q[k])
        n = np.arange(1, q_k, dtype=np.int64)
        r = (-n * t.p[k]) % q_k
        r[2 * r >= q_k] -= q_k
        pi = np.longdouble(np.pi)
        w = np.sin(pi * n.astype(np.longdouble) * np.longdouble(float(t.theta[k]) / q_k))
        keep = ~np.isin(n, (int(t.q[k - 1]), q_k - int(t.q[k - 1])))
        for x in (-0.9, 0.3, 0.85):
            terms = w / np.tan(pi * (r.astype(np.longdouble) + np.longdouble(x)) / q_k)
            assert abs(v_k(t, k, x) - float(np.sum(terms))) <= 1e-14, x
            assert abs(v_k_star(t, k, x) - float(np.sum(terms[keep]))) <= 1e-14, x

    def test_memory_is_per_block(self):
        # O(CHUNK) temporaries: q_5 = 772,920 int64 residues alone are 6 MB
        t = build_table("[0;(15)]", 6)
        tracemalloc.start()
        try:
            v_k(t, 5, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestVkGrid:
    """The sequence form: one power-sum pass over the blocks for every x."""

    def test_matches_scalar(self):
        t = build_table("[0;(15)]", 6)
        for k in (4, 5):
            for f, grid in ((v_k, np.linspace(-0.99, 0.99, 11)),
                            (v_k_star, np.linspace(-1.99, 1.99, 11))):
                got = f(t, k, grid)
                assert isinstance(got, list) and len(got) == len(grid)
                for x, g in zip(grid.tolist(), got):
                    assert abs(g - f(t, k, x)) <= 1e-15, (f.__name__, k, x)

    def test_small_tables(self, tables):
        # q_1 = 5: every term is near; q_2 = 26: 18 of 25 are.  V_2(-0.99) is
        # 15.09, one term's cot(pi 0.01/26) in all but 0.008, and both forms
        # are within 3.8e-15 (2 ulps) of mpmath there, so the bound is relative.
        t = tables["[0;(5)]"]
        for k in (1, 2):
            for f, grid in ((v_k, np.linspace(-0.99, 0.99, 9)),
                            (v_k_star, np.linspace(-1.99, 1.99, 9))):
                if f is v_k_star and k == 1:
                    continue
                for x, g in zip(grid.tolist(), f(t, k, grid)):
                    assert abs(g - f(t, k, x)) <= 1e-15 * max(1.0, abs(g)), (f.__name__, k, x)

    def test_only_zero(self):
        # tau = 0: every term is far and only the first power sum is left
        t = build_table("[0;(15)]", 6)
        for k in (2, 5):
            assert v_k(t, k, [0.0, -0.0]) == pytest.approx([v_k(t, k, 0.0)] * 2, abs=1e-15)
            assert v_k_star(t, k, [0.0, 0.0]) == pytest.approx([v_k_star(t, k, 0.0)] * 2,
                                                               abs=1e-15)

    def test_one_element_is_the_scalar_form(self):
        t = build_table("[0;(15)]", 6)
        assert v_k(t, 4, [0.3]) == [v_k(t, 4, 0.3)]
        assert v_k_star(t, 4, (-1.5,)) == [v_k_star(t, 4, -1.5)]
        assert v_k(t, 4, []) == []

    def test_pole_raises_as_in_scalar_form(self):
        # r_n = -1 with x = 1 - 1e-12 (V_k) and r_n = -2 with x = 2 - 1e-12 (V_k*)
        # are within the 1e-9 guard of a pole
        t = build_table("[0;(15)]", 6)
        for sign in (1, -1):
            for f, x in ((v_k, sign * (1 - 1e-12)), (v_k_star, sign * (2 - 1e-12))):
                with pytest.raises(PoleError):
                    f(t, 4, x)
                with pytest.raises(PoleError):
                    f(t, 4, [0.3, x, -0.5])

    def test_domain(self, tables):
        with pytest.raises(RangeError):
            v_k(tables["[0;(5)]"], 3, [0.0, 1.0])
        with pytest.raises(RangeError):
            v_k_star(tables["[0;(5)]"], 3, [0.0, float("nan")])
        with pytest.raises(RangeError):
            v_k(tables["[0;(5)]"], 3, [[0.1, 0.2]])

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                        reason="needs an 80-bit long double")
    def test_long_double_oracle(self):
        # as TestVkAccuracy, for the grid form and closer to the poles at +-1
        t = build_table("[0;(15)]", 6)
        k = 5
        q_k = int(t.q[k])
        n = np.arange(1, q_k, dtype=np.int64)
        r = (-n * t.p[k]) % q_k
        r[2 * r >= q_k] -= q_k
        pi = np.longdouble(np.pi)
        w = np.sin(pi * n.astype(np.longdouble) * np.longdouble(float(t.theta[k]) / q_k))
        keep = ~np.isin(n, (int(t.q[k - 1]), q_k - int(t.q[k - 1])))
        xs = [-0.99, -0.9, 0.3, 0.85, 0.99]
        for x, v, v_star in zip(xs, v_k(t, k, xs), v_k_star(t, k, xs)):
            terms = w / np.tan(pi * (r.astype(np.longdouble) + np.longdouble(x)) / q_k)
            assert abs(v - float(np.sum(terms))) <= 1e-15, x
            assert abs(v_star - float(np.sum(terms[keep]))) <= 1e-15, x

    def test_memory_is_per_block(self):
        t = build_table("[0;(15)]", 6)
        grid = np.linspace(-0.99, 0.99, 101)
        tracemalloc.start()
        try:
            v_k(t, 5, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestVkStar:
    def test_excluded_terms_reconstruct_vk(self):
        t = build_table("[0;(15)]", 5)
        k, x = 4, 0.4
        full = v_k(t, k, x)
        star = v_k_star(t, k, x)
        q_k, sign = int(t.q[k]), (-1) ** k
        theta = float(t.theta[k])
        back = 0.0
        for n in (int(t.q[k - 1]), q_k - int(t.q[k - 1])):
            m = (sign * n * t.p[k]) % q_k
            back += math.sin(math.pi * n * theta / q_k) / math.tan(
                math.pi * (m + x) / q_k
            )
        assert full == pytest.approx(star + back, abs=1e-12)

    def test_finite_at_one_where_vk_blows_up(self):
        t = build_table("[0;(15)]", 5)
        star = v_k_star(t, 4, 1.0)
        assert abs(star) < 1.0
        near_pole = v_k(t, 4, 0.999999)
        assert abs(near_pole) > 10 * abs(star)

    def test_starred_envelope_frozen(self, fixtures):
        for a, ks in ((15, (4, 5)), (50, (4,))):
            t = build_table(f"[0;({a})]", 8)
            for k in ks:
                reports = v_k_reports(t, k, (-1.5, 0.0, 1.5), fixtures, starred=True)
                assert all(r.passed for r in reports), (a, k)

    def test_domain(self, tables):
        with pytest.raises(RangeError):
            v_k_star(tables["[0;(5)]"], 1, 0.0)
        with pytest.raises(RangeError):
            v_k_star(tables["[0;(5)]"], 3, 2.0)


class TestDigamma:
    def test_at_one_is_minus_gamma(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)

    def test_at_two(self):
        assert digamma(2.0) == pytest.approx(1 - EULER_GAMMA, abs=1e-14)

    @given(st.floats(min_value=0.01, max_value=10.0))
    @settings(max_examples=60, deadline=None)
    def test_recurrence(self, x):
        assert digamma(1.0 + x) - digamma(x) == pytest.approx(1.0 / x, rel=1e-11)

    def test_against_mpmath(self):
        for x in (0.001, 0.1, 0.5, 1.5, 2.95, 4.0, 9.99, 25.0):
            assert digamma(x) == pytest.approx(float(mpmath.digamma(x)), rel=1e-13)

    def test_domain(self):
        with pytest.raises(RangeError):
            digamma(0.0)
