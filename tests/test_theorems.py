import math

import mpmath
import numpy as np
import pytest

from sudler import (
    RangeError,
    build_table,
    decode,
    encode,
    lcnorm_prediction,
    log_sudler,
    n_star,
    pnstar_prediction,
    scan,
    theorem1_check,
    vol41,
)
from sudler import products, theorems
from sudler.ostrowski import OstrowskiDigits, delta_T_default
from sudler.theorems import (
    QUADRATIC_CONSTANT,
    REGIME_FORMULA,
    REGIME_OUT,
    REGIME_QUADRATIC,
    PredictionReport,
    bernoulli_b2_closed_forms,
    bernoulli_b2_integrals,
    d_k_terms,
    digit_penalty,
    e_k_residual,
    log_sin_integral,
    quadratic_slope_estimate,
    theorem1_formula_shape,
    u_k_log,
    u_n_log,
    u_n_residuals,
)

VOL41 = 2.029883212819307  # 4 pi int_0^{5/6} log(2 sin pi x) dx, via Clausen series


def clausen_integral(y: float) -> float:
    """Independent oracle: int_0^y log|2 sin(pi x)| dx = -Cl_2(2 pi y)/(2 pi)."""
    with mpmath.workprec(80):
        return float(-mpmath.clsin(2, 2 * mpmath.pi * y) / (2 * mpmath.pi))


class TestQuadrature:
    def test_vol41_value(self):
        assert vol41() == pytest.approx(VOL41, abs=1e-10)
        assert vol41() == pytest.approx(2.02988, abs=5e-6)

    def test_vol41_over_4pi(self):
        assert vol41() / (4 * math.pi) == pytest.approx(0.161533, abs=1e-6)

    def test_nine_vol_constant(self):
        assert 9 * vol41() / (25 * math.pi) == pytest.approx(0.23260748, abs=1e-8)

    def test_against_clausen_oracle(self):
        edges = (1e-9, 1e-3 - 1e-12, 1e-3 + 1e-12, 0.5 - 1e-12, 1.0 - 1e-9)
        for y in [*np.linspace(0.0, 1.0, 1001), *edges]:
            assert log_sin_integral(0.0, y) == pytest.approx(
                clausen_integral(y), abs=1e-15
            )

    def test_full_period_vanishes(self):
        assert abs(log_sin_integral(0.0, 1.0)) < 1e-12

    def test_antisymmetric(self):
        a = log_sin_integral(0.1, 0.7)
        assert log_sin_integral(0.7, 0.1) == pytest.approx(-a, abs=1e-14)

    def test_positive_region(self):
        assert log_sin_integral(1 / 6, 5 / 6) > 0


class TestBernoulliIntegrals:
    def test_numeric_vs_closed(self):
        n1, n2 = bernoulli_b2_integrals()
        c1, c2 = bernoulli_b2_closed_forms()
        assert n1 == pytest.approx(c1, abs=1e-6)
        assert n2 == pytest.approx(c2, abs=1e-6)

    def test_sums_at_double_precision(self):
        # Summing the closed form per period cancels to ~3e-13 over 200,000
        # periods; the large-s series keeps both sums at rounding level.
        n1, n2 = bernoulli_b2_integrals()
        c1, c2 = bernoulli_b2_closed_forms()
        assert abs(n1 - c1) <= 2e-15 and abs(n2 - c2) <= 2e-15

    @pytest.mark.parametrize("s", [1.0, 19.5, 20.0, 37.25, 1e5])
    def test_one_period_is_half_b2(self, s):
        # the integrand is B2({x})/2, not B2({x}); the series takes over at s = 20
        with mpmath.workdps(40):
            ref = mpmath.quad(lambda t: (t * t - t + mpmath.mpf(1) / 6) / (t + s) ** 2, [0, 1]) / 2
        got = float(theorems._b2_period(np.array([s]))[0])
        # the closed form is good to a few 1e-16 absolute, the series relative
        tol = 4e-16 if s < 20 else 1e-15 * float(ref)
        assert abs(got - float(ref)) <= tol

    def test_second_value(self):
        # -11/12 + log sqrt(2 pi) = 0.0022719...
        _, n2 = bernoulli_b2_integrals()
        assert n2 == pytest.approx(0.0022719, abs=1e-6)

    def test_gamma_reflection(self):
        prod = math.gamma(1 / 6) * math.gamma(5 / 6)
        assert abs(prod - 2 * math.pi) <= 2 * math.pi * 1e-10


class TestDkTerms:
    def test_zero_at_star(self):
        t = build_table("[0;(50)]", 4)
        star = n_star(t, 3)
        for term in d_k_terms(star):
            assert term.main == 0.0

    def test_quadratic_constant(self):
        assert QUADRATIC_CONSTANT == pytest.approx(2.7207, abs=1e-4)

    def test_main_integral_case(self):
        t = build_table("[0;(50)]", 4)
        d = OstrowskiDigits((0, 41, 41), t)
        term = d_k_terms(d)[0]
        assert term.main == pytest.approx(
            50 * log_sin_integral(0.0, 41.0 / 50.0), rel=1e-12
        )

    def test_lower_bound_with_slack(self):
        # The integral formula dominates the quadratic lower bound at every
        # in-regime digit but one: b = b* + 1 when 5a/6 is not an integer.
        # There b* = floor(5a/6) lies below the integrand's zero at 5a/6, so
        # the integral from b* to b* + 1 partly cancels.
        for a in range(3, 301):
            peak_is_digit = 5 * a % 6 == 0
            for b in range(a):
                term = digit_penalty(0, a, b)
                if term.regime == REGIME_OUT or (b == term.b_star + 1 and not peak_is_digit):
                    continue
                assert term.main >= term.lower, (a, b)

    def test_regimes(self):
        t = build_table("[0;(100)]", 4)
        d = OstrowskiDigits((0, 100, 83), t)
        terms = d_k_terms(d)
        assert terms[0].regime == REGIME_FORMULA  # |b - b*| = 83 too far for the quadratic tag
        assert terms[1].regime == REGIME_OUT  # carry digit, only the lower bound applies
        assert terms[2].regime == REGIME_QUADRATIC  # at the peak

    def test_formula_regime_tag(self):
        t = build_table("[0;(100)]", 4)
        d = OstrowskiDigits((0, 40, 0), t)
        assert d_k_terms(d)[1].regime == REGIME_FORMULA


class TestBlockSurrogate:
    def test_zero_digit_gives_unity(self):
        t = build_table("[0;(20)]", 5)
        d = encode(t, int(t.q[2]) * 3, K=4)  # b_1 = 0 positions exist
        for k in range(1, 4):
            if d.digits[k] == 0:
                assert u_k_log(d, k) == 0.0

    def test_un_residual_band(self, fixtures):
        # log P_N - log U_N - (below-k0 part) stays in the frozen band for
        # digit vectors away from the carry maximum
        lo, hi = fixtures["un_residual"]["lo"], fixtures["un_residual"]["hi"]
        resids = u_n_residuals(build_table("[0;(20)]", 5), 4, seed=77, size=30)
        assert len(resids) >= 10
        assert all(lo <= r <= hi for r in resids)

    def test_un_residuals_skip_digits_near_the_carry_maximum(self):
        t = build_table("[0;(20)]", 5)
        cutoff = (1 - delta_T_default(1.0)) * 20
        rng = np.random.default_rng(20)  # the calibration's draw, two N of which are skipped
        kept = []
        for N in rng.integers(0, int(t.q[4]), size=60):
            d = encode(t, int(N), K=4)
            if all(b <= cutoff for b in d.digits[1:]):
                un = u_n_log(d)
                kept.append(log_sudler(t, int(N)).require_nonzero() - un.log_u - un.below_k0_log)
        assert len(kept) == 58
        assert u_n_residuals(t, 4, seed=20, size=60) == kept

    def test_ek_residual_upper_bound(self):
        # The block surrogate overshoots the block products: E_k < 0, at
        # N*, q_K - 1 and q_K // 2, on every level with a nonzero digit.
        for spec in ("[0;(10)]", "[0;(30)]"):
            t = build_table(spec, 4)
            for N in (decode(n_star(t, 3)), int(t.q[3]) - 1, int(t.q[3]) // 2):
                d = encode(t, N, K=3)
                for k in (1, 2):
                    if d.digits[k]:
                        assert e_k_residual(d, k) < 0, (spec, N, k)

    def test_ek_blocks_and_surrogate_read_the_same_arguments(self, monkeypatch):
        seen = []
        real = products.block_args

        def record(*args):
            seen.append(real(*args))
            return seen[-1]

        monkeypatch.setattr(products, "block_args", record)  # behind block_shifts
        monkeypatch.setattr(theorems, "block_args", record)  # u_k_log's own name
        t = build_table("[0;(10)]", 4)
        d = n_star(t, 3)
        for k in (1, 2):
            seen.clear()
            e_k_residual(d, k)
            blocks, surrogate = seen
            assert blocks.tobytes() == surrogate.tobytes() and blocks.size == d.digits[k] + 1


class TestPredictions:
    def test_report_passes_within_budget(self):
        assert PredictionReport("x", 1.0, 1.5, 0.5).passed
        assert not PredictionReport("x", 1.0, 1.5, 0.25).passed
        assert PredictionReport("x", 1.0, 0.0, 0.25, one_sided=True).passed
        assert not PredictionReport("x", 1.0, 1.5, 0.25, one_sided=True).passed

    def test_pnstar_a50_value(self, fixtures):
        t = build_table("[0;(50)]", 4)
        rep = pnstar_prediction(t, 3, fixtures)
        assert rep.prediction == pytest.approx(30.098, abs=2e-3)
        assert rep.passed

    def test_pnstar_golden_formula_only(self, fixtures):
        # liminf regime: the formula degenerates to 0.161533 K; report only
        t = build_table("golden", 7)
        rep = pnstar_prediction(t, 6, fixtures)
        assert rep.prediction == pytest.approx(0.161533 * 6, abs=1e-4)
        assert decode(n_star(t, 6)) == 0  # all digits floor(5/6) = 0

    def test_lcnorm_collapses_at_large_c(self, fixtures):
        t = build_table("[0;(30)]", 4)
        rep, = lcnorm_prediction(t, 3, fixtures, (64.0,))
        star_log = log_sudler(t, decode(n_star(t, 3))).log_value
        assert abs(rep.prediction - star_log) < 0.05
        assert rep.passed

    def test_lcnorm_reads_star_from_scan(self, fixtures, monkeypatch):
        # six c share one scan and evaluate log P_{N*} from its values, not anew
        t = build_table("[0;(30)]", 4)
        cs = (0.5, 1.0, 2.0, 4.0, 8.0, 64.0)
        calls, scans = [], []
        monkeypatch.setattr(theorems, "log_sudler",
                            lambda *a: calls.append(a) or log_sudler(*a))
        monkeypatch.setattr(theorems, "scan",
                            lambda *a, **kw: scans.append(kw) or scan(*a, **kw))
        reps = lcnorm_prediction(t, 3, fixtures, cs)
        assert calls == [] and scans == [{"c_list": cs}]
        star_log = log_sudler(t, decode(n_star(t, 3))).log_value
        for c, rep in zip(cs, reps):
            correction = 3 * math.log(60.0 / (math.sqrt(3.0) * c)) / (2.0 * c)
            assert rep.prediction == pytest.approx(star_log + correction, abs=1e-9)

    def test_lcnorm_drops_repeated_c(self, fixtures):
        t = build_table("[0;(30)]", 4)
        reports = lcnorm_prediction(t, 3, fixtures, (2, 0.5, 2.0, 0.5))
        assert [r.label for r in reports] == ["lcnorm K=3 c=2.0", "lcnorm K=3 c=0.5"]

    def test_lcnorm_rejects_tiny_c(self, fixtures):
        t = build_table("[0;(30)]", 4)
        with pytest.raises(Exception):
            lcnorm_prediction(t, 3, fixtures, (0.001,))

    @pytest.mark.parametrize("c", [math.nan, math.inf])
    def test_lcnorm_rejects_non_finite_c(self, fixtures, c):
        t = build_table("[0;(30)]", 4)
        with pytest.raises(RangeError):
            lcnorm_prediction(t, 3, fixtures, (c,))

    def test_theorem1_at_star_trivial(self, fixtures):
        t = build_table("[0;(10)]", 4)
        star_N = decode(n_star(t, 3))
        rep = theorem1_check(t, 3, fixtures)[star_N]  # q_3 = 1020: one report per N
        assert rep.prediction == 0.0 and rep.observed == 0.0 and rep.passed

    def test_theorem1_out_of_regime_one_sided(self, fixtures):
        t = build_table("[0;(10)]", 4)
        N = decode(OstrowskiDigits((0, 10, 5), t))
        rep = theorem1_check(t, 3, fixtures)[N]
        assert rep.one_sided and rep.passed

    def test_quadratic_slope_recovery(self):
        t = build_table("[0;(50)]", 4)
        ests = [quadratic_slope_estimate(t, 3, m) for m in (1, 2)]
        est = float(np.mean(ests))
        assert abs(est - QUADRATIC_CONSTANT) / QUADRATIC_CONSTANT < 0.15

    def test_argmax_digits_near_star(self):
        # Every digit of the scan's argmax is floor(5a/6) or ceil(5a/6).
        for a in (7, 10, 12, 20, 30, 50):
            t = build_table(f"[0;({a})]", 4)
            best = encode(t, scan(t, 3).argmax_N, K=3)
            assert set(best.digits) <= {5 * a // 6, -(-5 * a // 6)}, (a, best.digits)

    def test_formula_shape_components(self):
        t = build_table("[0;(100)]", 4)
        d = OstrowskiDigits((0, 0, 40), t)
        terms = d_k_terms(d)
        shape = theorem1_formula_shape(terms)
        # two digits in the near-zero band contribute log(a) each
        assert shape > 2 * math.log(100)
