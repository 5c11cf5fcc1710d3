import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sudler import (
    AlphaSpec,
    ParseError,
    PrecisionConfig,
    PrecisionError,
    RationalDepthError,
    build_table,
    parse_alpha,
)
from sudler.numerics import CHUNK, frac_parts_dd, log_two_sin
from sudler.serialize import mpf_from_hex, mpf_to_hex, table_from_dict, table_to_dict
from sudler.surd import Surd, periodic_tail


class TestParse:
    def test_pure_period(self):
        spec = parse_alpha("[0;(5)]")
        assert spec.integer_part == 0
        assert spec.preperiod == ()
        assert spec.period == (5,)

    def test_alias_golden(self):
        spec = parse_alpha("golden")
        assert spec.integer_part == 1
        assert spec.period == (1,)

    def test_alias_sqrt2(self):
        assert parse_alpha("sqrt2").period == (2,)

    def test_preperiod_and_period(self):
        spec = parse_alpha("[0;2,(1,4)]")
        assert spec.preperiod == (2,)
        assert spec.period == (1, 4)

    def test_whitespace_insensitive(self):
        assert parse_alpha(" [ 0 ; 2 , ( 1 , 4 ) ] ") == parse_alpha("[0;2,(1,4)]")

    def test_rational(self):
        spec = parse_alpha("[1;2,3]")
        assert spec.is_rational
        assert spec.preperiod == (2, 3)

    def test_rule(self):
        spec = parse_alpha("rule:powers-of-two")
        assert spec.rule == "powers-of-two"
        assert spec.partial_quotient(3) == 8

    def test_render_roundtrip_canonical(self):
        for s in ("[0;(5)]", "[0;2,(1,4)]", "[1;2,3]", "rule:powers-of-two", "[-1;3,(2)]"):
            spec = parse_alpha(s)
            assert parse_alpha(spec.render()) == spec
            assert parse_alpha(spec.render()).render() == spec.render()

    def test_alias_renders_expanded(self):
        assert parse_alpha("golden").render() == "[1;(1)]"

    @pytest.mark.parametrize("bad", [
        "[0;0]", "[0;2,-3]", "[0;()]", "[0;(2),(3)]", "[0;(2),3]", "0;(5)",
        "[0;(5)", "[0;x]", "rule:nope", "[a;1]",
    ])
    def test_errors(self, bad):
        with pytest.raises(ParseError):
            parse_alpha(bad)

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_alpha("[0;2,0]")
        assert err.value.position is not None


class TestSurd:
    def test_golden_fixed_point(self):
        phi = periodic_tail((1,))
        assert abs(float(phi) - (1 + math.sqrt(5)) / 2) < 1e-12

    def test_floor_exact(self):
        x = periodic_tail((1,))  # golden ratio
        assert x.floor() == 1
        assert x.scale(100).floor() == 161  # 100*phi = 161.80...
        assert x.scale(-1).floor() == -2

    def test_reciprocal_mul(self):
        x = periodic_tail((2,))  # 1 + sqrt(2)
        y = x.mul(x.reciprocal())
        assert y.a == Fraction(1) and y.b == 0

    def test_sign(self):
        x = Surd(Fraction(-3), Fraction(1), 5)  # sqrt(5) - 3 < 0
        assert x.sign() == -1
        assert Surd(Fraction(-2), Fraction(1), 5).sign() == 1


class TestBuildTable:
    def test_convergents_golden(self):
        t = build_table("golden", 8)
        assert t.q[:6] == [1, 1, 2, 3, 5, 8]
        assert t.p[:6] == [1, 2, 3, 5, 8, 13]

    def test_determinant_identity_exact(self, tables):
        # q_{k+1} p_k - q_k p_{k+1} = (-1)^(k+1), exact integers
        for spec in ("golden", "[0;(2)]", "[0;2,(1,4)]"):
            t = build_table(spec, 40)
            for k in range(40):
                assert t.q[k + 1] * t.p[k] - t.q[k] * t.p[k + 1] == (-1) ** (k + 1)

    @pytest.mark.parametrize("a", [1, 2, 5, 15, 50])
    def test_delta_limit_single_quotient(self, a):
        # delta_k -> 1/sqrt(a^2+4), within 1/q_k
        t = build_table(f"[0;({a})]", 8)
        target = 1.0 / math.sqrt(a * a + 4)
        for k in range(2, 9):
            assert abs(float(t.delta[k]) - target) < 1.0 / t.q[k]

    def test_delta_bounds(self, tables):
        for t in tables.values():
            for k in range(t.K_max + 1):
                d = float(t.delta[k])
                assert 1.0 / (t.a[k + 1] + 2) <= d <= 1.0 / t.a[k + 1]

    def test_delta_eta_identity(self, tables):
        # delta_k * q_{k+1}/q_k + eta_k = 1, to 2^(8 - working_bits) relative
        with mpmath.workprec(300):
            tol = mpmath.mpf(2) ** (8 - 256)
            for t in tables.values():
                for k in range(t.K_max):
                    lhs = t.delta[k] * t.q[k + 1] / t.q[k] + t.eta[k]
                    assert abs(lhs - 1) < tol

    def test_theta_strictly_decreasing(self, tables):
        for t in tables.values():
            for k in range(len(t.theta) - 1):
                assert t.theta[k] > t.theta[k + 1]

    def test_rational_table(self):
        t = build_table("[0;2,3]", 2)
        assert t.rational_value() == Fraction(3, 7)
        with pytest.raises(RationalDepthError):
            build_table("[0;2,3]", 3)

    def test_rational_table_below_last_convergent(self):
        # K_max short of the last index still sees the exact value
        t = build_table("[0;2,3,5,7]", 2)
        assert t.rational_value() == Fraction(115, 266)
        assert float(t.frac_part(5)) == pytest.approx(float(Fraction(575 % 266, 266)))

    def test_rule_table_deltas(self):
        t = build_table("rule:powers-of-two", 6)
        assert t.q[:4] == [1, 2, 9, 74]
        for k in range(1, 7):
            d = float(t.delta[k])
            assert 1.0 / (t.a[k + 1] + 2) <= d <= 1.0 / t.a[k + 1]

    def test_rule_tail_depth_too_small(self):
        with pytest.raises(PrecisionError):
            build_table("rule:powers-of-two", 4,
                        PrecisionConfig(working_bits=256, tail_depth=2))


class TestFracPart:
    def test_zero(self, tables):
        assert tables["golden"].frac_part(0) == 0

    def test_golden_unit(self, tables):
        # {phi} = (sqrt(5) - 1)/2
        got = float(tables["golden"].frac_part(1))
        assert abs(got - (math.sqrt(5) - 1) / 2) < 1e-15

    def test_at_convergent_denominators(self, tables):
        # {q_k alpha} is theta_k or 1 - theta_k according to the parity
        with mpmath.workprec(300):
            for t in tables.values():
                for k in range(1, 7):
                    f = t.frac_part(t.q[k])
                    theta = t.theta[k]
                    expected = theta if k % 2 == 0 else 1 - theta
                    assert abs(f - expected) < mpmath.mpf(2) ** -200

    def test_two_paths_agree(self, tables):
        # accumulation at working precision vs reduction against p_k/q_k
        rng = np.random.default_rng(3)
        tol = mpmath.mpf(2) ** (32 - 256)
        for t in tables.values():
            for n in rng.integers(0, int(t.q[6]), size=25):
                a = t.frac_part(int(n))
                b = t.frac_part_via_convergent(int(n), k=6)
                assert abs(a - b) < tol

    def test_precision_guard(self):
        t = build_table("golden", 8, PrecisionConfig(working_bits=64))
        with pytest.raises(PrecisionError):
            t.frac_part(7)  # 64 bits cannot cover bitlen(n) + 64

    def test_frac_doubles_match_scalar(self, tables):
        # Signed: arr[n] is n*alpha minus its nearest integer, to within a
        # few ulp of dist(n alpha, Z) itself.
        for t in tables.values():
            arr = t.frac_doubles(int(t.q[6]))
            ns = {1, 7, int(t.q[6]) - 1} | {int(t.q[k]) for k in range(1, 6)}
            with mpmath.workprec(160):
                for n in sorted(ns):
                    f = t.frac_part(n)
                    s = f - mpmath.nint(f)
                    assert abs(arr[n] - s) <= 2.0 ** -51 * abs(s), n

    def test_rational_frac_doubles_exact(self):
        t = build_table("[0;2,3]", 2)
        arr = t.frac_doubles(7)
        assert arr[0] == 0.0
        assert arr[1] == pytest.approx(3.0 / 7.0, abs=1e-16)

    def test_kernel_accuracy_at_budget(self):
        # Every q_k plus 256 seeded n below q_6 = 11,645,101, computing only
        # the blocks that hold them: each factor's log is within
        # 2^-53 / dist(n alpha, Z) of the mpmath oracle.
        t = build_table("[0;(15)]", 6)
        q = int(t.q[6])
        rng = np.random.default_rng(11)
        ns = {int(t.q[k]) for k in range(6)} | {int(n) for n in rng.integers(1, q, 256)}
        by_block = {}
        for n in sorted(ns):
            by_block.setdefault(n - n % CHUNK, []).append(n)
        worst = 0.0
        with mpmath.workprec(160):
            for lo, group in by_block.items():
                y = t.fracs(lo, min(lo + CHUNK, q))[[n - lo for n in group]]
                logs, _ = log_two_sin(y)
                for n, g in zip(group, logs):
                    f = t.frac_part(n)
                    d = min(f, 1 - f)
                    ref = mpmath.log(2 * mpmath.sin(mpmath.pi * d))
                    worst = max(worst, float(abs(g - ref) * d))
        assert worst <= 2.0 ** -53

    def test_fracs_match_double_double(self):
        # The residue kernel against the double-double product with a 106-bit
        # {alpha}, mod 1, on the first and the last block below q_6.
        t = build_table("[0;(15)]", 6)
        q = int(t.q[6])
        with mpmath.workprec(256):
            a = t.alpha_value - mpmath.floor(t.alpha_value)
            a_hi = float(a)
            a_lo = float(a - a_hi)
        for lo in (0, q - q % CHUNK):
            hi = min(lo + CHUNK, q)
            d = t.fracs(lo, hi) - frac_parts_dd(np.arange(lo, hi), a_hi, a_lo)
            assert np.max(np.abs(d - np.round(d))) <= 2.0 ** -52

    @pytest.mark.parametrize("spec,K,j", [
        ("golden", 80, 80),  # q_80 > 2^53
        ("[0;(15)]", 17, 15),  # q_16 > 2^62: the kernel stops at q_15
        ("[0;" + ",".join(["15"] * 17) + "]", 16, 15),  # rational, Q > 2^62
    ])
    def test_deep_table_small_n(self, spec, K, j):
        t = build_table(spec, K)
        P, Q, w, _ = t.residue_kernel(1)
        assert (P, Q) == (t.p[j] % t.q[j], t.q[j]) and Q < 2 ** 62
        assert j == K or t.q[j + 1] >= 2 ** 62
        y = t.fracs(0, 64)
        assert np.array_equal(y, t.frac_doubles(64))
        with mpmath.workprec(160):
            for n in range(1, 64):
                f = t.frac_part(n)
                s = f - mpmath.nint(f)
                assert abs(y[n] - s) <= 2.0 ** -51 * abs(s), n

    @given(st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_frac_part_in_unit_interval(self, n):
        t = build_table("sqrt2", 12)
        if n < t.q[12]:
            f = t.frac_part(n)
            assert 0 <= f < 1


class TestSerialization:
    def test_mpf_hex_roundtrip(self):
        with mpmath.workprec(256):
            vals = [mpmath.mpf(0), mpmath.sqrt(2), -mpmath.mpf(1) / 3, mpmath.mpf(5)]
        for v in vals:
            assert mpf_from_hex(mpf_to_hex(v)) == v

    def test_table_roundtrip_bit_exact(self, tables):
        t = tables["[0;2,(1,4)]"]
        doc = table_to_dict(t)
        t2 = table_from_dict(doc)
        assert table_to_dict(t2) == doc
        assert t2.theta[5] == t.theta[5]

    def test_spec_invariants(self):
        with pytest.raises(Exception):
            AlphaSpec(period=(), rule=None)
        with pytest.raises(Exception):
            AlphaSpec(period=(2,), rule="powers-of-two")
