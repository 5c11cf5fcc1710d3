import math

import mpmath
import numpy as np
import pytest

from sudler import (
    BudgetError,
    SudlerError,
    build_table,
    empirical_limit,
    g_alpha,
    g_alpha_r,
    limit_constants,
    log_sudler,
)
from sudler.limitfn import crossing_abscissa


class TestLimitConstants:
    def test_closed_form_a5(self):
        lc = limit_constants("[0;(5)]", 1)
        assert lc.C_r == pytest.approx(1 / math.sqrt(29), rel=1e-12)
        assert lc.D_r == pytest.approx(
            (math.sqrt(29) - 5) / (2 * math.sqrt(29)), rel=1e-12
        )

    def test_golden(self):
        lc = limit_constants("golden", 1)
        assert lc.C_r == pytest.approx(1 / math.sqrt(5), rel=1e-12)

    def test_ordering(self):
        for spec, p in (("[0;(2,50)]", 2), ("[0;2,(1,4)]", 2), ("[0;(7)]", 1)):
            for r in range(1, p + 1):
                lc = limit_constants(spec, r)
                assert 0 < lc.D_r < lc.C_r < 1

    def test_delta_converges_along_progression(self):
        # delta_k -> C_r along k = k0 + r (mod p), error like q_k^-2
        spec = "[0;(2,50)]"
        t = build_table(spec, 9)
        for r in (1, 2):
            lc = limit_constants(spec, r)
            for k in range(r + 4, 10, 2):
                err = abs(float(t.delta[k]) - lc.C_r)
                assert err < 10.0 / int(t.q[k]) ** 2

    def test_requires_period(self):
        with pytest.raises(SudlerError):
            limit_constants("[0;2,3]", 1)


class TestClosedForm:
    def test_reduces_to_pure_period(self):
        grid = np.linspace(-1.0, 1.0, 201)
        a = g_alpha(7, grid)
        b = g_alpha_r("[0;(7)]", 1, grid)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_zeros_at_shifted_points(self):
        lc = limit_constants("[0;(15)]", 1)
        C, D = lc.C_r, lc.D_r
        for zero in (-1.0 - (C - D), -C, 1.0 - D):
            assert g_alpha(15, zero) == pytest.approx(0.0, abs=1e-12)

    def test_removable_points_finite(self):
        vals = g_alpha(15, np.array([-1.0, 0.0, 1.0]))
        assert np.all(np.isfinite(vals)) and np.all(vals > 0)

    def test_coarse_law(self):
        # g = |2 sin(pi x)| e^{log a / a} + O(1/a); observed constant is ~8
        for a in (15, 50):
            xs = np.arange(-1.9, 1.9001, 0.05)
            xs = xs[np.abs(xs) <= 2 - 2.0 / a]
            dev = np.abs(g_alpha(a, xs)
                         - np.abs(2 * np.sin(np.pi * xs)) * math.exp(math.log(a) / a))
            assert np.max(dev) <= 10.0 / a


class TestEmpirical:
    def test_zero_shift_is_plain_product(self):
        t = build_table("[0;(5)]", 5)
        val = empirical_limit(t, 4, np.array([0.0]))[0]
        assert val == pytest.approx(
            math.exp(log_sudler(t, int(t.q[4])).log_value), rel=1e-12
        )

    def test_matches_closed_form_a15(self, fixtures):
        t = build_table("[0;(15)]", 4)
        grid = np.round(np.arange(-0.95, 0.9501, 0.05), 10)
        dev = np.abs(empirical_limit(t, 4, grid) - g_alpha(15, grid))
        assert float(np.max(dev)) <= fixtures["limit_curve"]["a15_k4_sup"]

    def test_empirical_zero_near_minus_C(self):
        t = build_table("[0;(15)]", 4)
        C = limit_constants("[0;(15)]", 1).C_r
        xs = np.arange(-0.12, 0.0, 0.002)
        emp = empirical_limit(t, 4, xs)
        x0 = float(xs[np.argmin(emp)])
        assert abs(x0 + C) < 0.005

    def test_well_approximable_rule_curve(self):
        # growing quotients pull the curve onto |2 sin(pi x)|
        t = build_table("rule:powers-of-two", 6)
        xs = np.arange(-0.9, 0.9001, 0.05)
        devs = []
        for k in (4, 5):
            emp = empirical_limit(t, k, xs)
            dev = float(np.max(np.abs(emp - np.abs(2 * np.sin(np.pi * xs)))))
            shape = (1 + math.log(max(t.a[1:k + 1]))) / t.a[k + 1]
            assert dev <= 3.0 * shape
            devs.append(dev)
        assert devs[1] < devs[0]

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                        reason="needs an 80-bit long double")
    def test_long_double_oracle(self):
        # P_{q_5}(alpha, -x/q_5) for [0;(15)] against the same product in long
        # double: exact residues n*p_7 mod q_7 plus the theta_7 correction,
        # with the kernel's own float64 pi and float64 shift.
        t = build_table("[0;(15)]", 6)
        q_k = int(t.q[5])
        xs = np.array([-0.9, -0.4, 0.0, 0.35, 0.8])
        emp = empirical_limit(t, 5, xs)
        n = np.arange(1, q_k + 1, dtype=np.int64)
        r = n * t.p[7] % t.q[7]
        r[2 * r >= t.q[7]] -= t.q[7]
        with mpmath.workprec(256):
            w = -t.theta[7] / t.q[7]
            w_ld = np.longdouble(float(w)) + np.longdouble(float(w - float(w)))
        y = r.astype(np.longdouble) / t.q[7] + n.astype(np.longdouble) * w_ld
        pi = np.longdouble(np.pi)
        for x, e in zip(xs, emp):
            arg = pi * (y + np.longdouble(-x / q_k))
            oracle = np.sum(np.log(np.abs(2 * np.sin(arg))))
            assert abs(math.log(e) - float(oracle)) <= 1e-11, x

    def test_budget_guard(self):
        t = build_table("[0;(50)]", 5)
        with pytest.raises(BudgetError):
            empirical_limit(t, 5, np.array([0.1]))


class TestCrossings:
    def test_fig2_windows(self):
        # inflated residue crosses height 1 near 0.95, the tame one near 5/6
        t = build_table("[0;(2,50)]", 5)
        grid = np.round(np.arange(0.5, 1.0001, 0.005), 10)
        c4 = crossing_abscissa(grid, empirical_limit(t, 4, grid))
        c5 = crossing_abscissa(grid, empirical_limit(t, 5, grid))
        assert abs(c4 - 0.95) <= 0.02
        assert abs(c5 - 5.0 / 6.0) <= 0.02

    def test_inflated_vs_tame_residue(self):
        # the residue with a_k = 50 sits far above |2 sin(pi x)|
        t = build_table("[0;(2,50)]", 5)
        xs = np.array([0.5])
        k4 = empirical_limit(t, 4, xs)[0]
        k5 = empirical_limit(t, 5, xs)[0]
        assert k4 > 2.0 * 2.0  # well above the unshifted value 2
        assert abs(k5 - 2.0) < 0.25

    def test_no_crossing_raises(self):
        grid = np.array([0.6, 0.7, 0.8])
        with pytest.raises(SudlerError):
            crossing_abscissa(grid, np.array([2.0, 2.1, 2.2]))
