import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sudler import (
    AlphaSpec,
    ParseError,
    RationalDepthError,
    SudlerError,
    build_table,
    encode,
    epsilon_profile,
    parse_alpha,
)
from sudler.cf import WORKING_BITS, _convergents
from sudler.limitfn import limit_constants
from sudler.numerics import CHUNK, frac_parts_dd, log_two_sin
from sudler.serialize import mpf_to_hex, table_from_dict, table_to_dict


def frac_part_via_convergent(t, n, k):
    """Oracle for {n alpha}, n < q_k: exact reduction against p_k/q_k plus n theta_k/q_k."""
    r = (n * t.p[k]) % t.q[k]
    sign = 1 if k % 2 == 0 else -1
    with mpmath.workprec(WORKING_BITS + 16):
        y = mpmath.mpf(r) / t.q[k] + sign * n * t.theta[k] / t.q[k]
        return y - mpmath.floor(y)

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

    @pytest.mark.parametrize("text, integer_part, preperiod, same", [
        ("[0;2,1]", 0, (2, 1), "[0;3]"),
        ("[0;1,1]", 0, (1, 1), "[0;2]"),
        ("[-1;2,3,1]", -1, (2, 3, 1), "[-1;2,4]"),
    ])
    def test_trailing_one_names_the_shorter_spec(self, text, integer_part, preperiod, same):
        # [..., c, 1] = [..., c + 1], whose table exists; this one's theta ties.
        with pytest.raises(SudlerError, match=re.escape(same)):
            parse_alpha(text)
        with pytest.raises(SudlerError, match=re.escape(same)):
            AlphaSpec(integer_part, preperiod)
        assert build_table(same, len(preperiod) - 1).alpha.render() == same

    def test_single_quotient_one_and_inner_ones_still_parse(self):
        assert build_table("[0;1]", 1).q == [1, 1]
        assert parse_alpha("[0;1,(1)]").preperiod == (1,)
        assert parse_alpha("[0;1,2]").preperiod == (1, 2)

    def test_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_alpha("[0;2,0]")
        assert err.value.position is not None


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
        # delta_k * q_{k+1}/q_k + eta_k = 1, to 2^(8 - WORKING_BITS) relative
        with mpmath.workprec(300):
            tol = mpmath.mpf(2) ** (8 - WORKING_BITS)
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


def _single_quotient(a):
    """[0;(a)] = (sqrt(a^2+4) - a)/2 at the current mpmath precision."""
    return lambda: (mpmath.sqrt(a * a + 4) - a) / 2


class TestDeepConvergent:
    """theta_k for k <= K_max + 1 to 2^-(WORKING_BITS+8) relative, from one deep convergent.

    The tables are built under an ambient mpmath precision mp_prec, which
    build_table must not read.
    """

    @staticmethod
    def _check(t, exact_theta):
        assert len(t.theta) == t.K_max + 2
        for k, theta in enumerate(t.theta):
            ref = exact_theta(k)
            assert abs(theta - ref) < ref * mpmath.mpf(2) ** -(WORKING_BITS + 8), k

    @pytest.mark.parametrize("mp_prec", [64, 256, 1024])
    @pytest.mark.parametrize("spec,K,closed_form", [
        pytest.param("[0;(1)]", 100, _single_quotient(1), id="a1"),
        pytest.param("[0;(3)]", 60, _single_quotient(3), id="a3"),
        pytest.param("[0;(12)]", 40, _single_quotient(12), id="a12"),
        pytest.param("[0;(50)]", 30, _single_quotient(50), id="a50"),
        pytest.param("golden", 100, lambda: (1 + mpmath.sqrt(5)) / 2, id="golden"),
        pytest.param("sqrt2", 80, lambda: mpmath.sqrt(2), id="sqrt2"),
    ])
    def test_closed_forms(self, spec, K, closed_form, mp_prec):
        with mpmath.workprec(mp_prec):
            t = build_table(spec, K)
        # 4*WORKING_BITS bits, plus the bits that cancel in q_k alpha - p_k.
        with mpmath.workprec(4 * WORKING_BITS + 2 * t.q[-1].bit_length()):
            alpha = closed_form()
            self._check(t, lambda k: abs(t.q[k] * alpha - t.p[k]))

    @pytest.mark.parametrize("mp_prec", [64, 256, 1024])
    @pytest.mark.parametrize("spec,K", [
        ("rule:powers-of-two", 16), ("[0;(1,1000000000000)]", 30),
    ])
    def test_against_deep_table(self, spec, K, mp_prec):
        # The reference reads theta_k off a convergent that holds it to
        # 2^-4113 relative, the stopping rule of build_table at 4096 bits.
        with mpmath.workprec(mp_prec):
            t = build_table(spec, K)
        _, p, q = _convergents(t.alpha, lambda q: (
            len(q) >= K + 3 and q[-2] * q[-1] >= (q[K + 1] * q[K + 2]) << 4114))
        assert (t.p, t.q) == (p[:K + 2], q[:K + 2])
        P, Q = p[-2], q[-2]
        with mpmath.workprec(4112):
            self._check(t, lambda k: mpmath.fdiv(abs(q[k] * P - p[k] * Q), Q))

    @pytest.mark.parametrize("a", [1, 2, 5, 12, 50])
    def test_limit_constants_closed_form(self, a):
        lc = limit_constants(f"[0;({a})]", 1)
        with mpmath.workprec(256):
            s = mpmath.sqrt(a * a + 4)
            assert (lc.C_r, lc.D_r) == (float(1 / s), float((s - a) / (2 * s)))


class TestFloatColumns:
    """The float64 values the kernels read are exact quotients rounded once.

    Each of theta_k, delta_k, eta_k, the residue kernel's w and eps_k is a
    signed integer over Q for the exact convergent P/Q of a rational alpha,
    or, up to far below an ulp, for a convergent P/Q with Q >= 2^4096.
    Python's int / int rounds that quotient correctly.  eps_k itself is the
    same quotient rounded once to WORKING_BITS.
    """

    @pytest.mark.parametrize("spec,K", [
        ("golden", 40), ("sqrt2", 30), ("[0;(15)]", 8), ("[0;(2,50)]", 8),
        ("[0;3,(11)]", 8), ("rule:powers-of-two", 12), ("[0;(1,1000000000000)]", 12),
        ("[0;2,3,5,7,11,13]", 5),
    ])
    def test_exact_quotients(self, spec, K):
        t = build_table(spec, K)
        _, p, q = _convergents(t.alpha, lambda q: q[-1].bit_length() > 4096)
        P, Q = p[-1], q[-1]
        assert len(q) > len(t.q) or t.is_rational
        # |q_k alpha - p_k| over Q, and (-1)^k of it
        num = [abs(q[k] * P - p[k] * Q) for k in range(len(t.theta))]
        signed = [(-1) ** k * n for k, n in enumerate(num)]
        assert [float(x) for x in t.theta] == [n / Q for n in num]
        assert [float(x) for x in t.delta] == [q[k] * num[k] / Q for k in range(len(t.delta))]
        assert [float(x) for x in t.eta] == [q[k] * num[k + 1] / Q for k in range(len(t.eta))]
        _, q_w, w, _ = t.residue_kernel(1)
        if w:
            j = q[:len(t.q)].index(q_w)
            assert w == signed[j] / (Q * q_w)
        rng = np.random.default_rng(11)
        for N in rng.integers(0, min(int(t.q[K]), 2 ** 62), size=50):
            digits = encode(t, int(N), K=K)
            for k, e in epsilon_profile(digits).items():
                tail = sum(b * signed[l] for l, b in enumerate(digits.digits) if l > k)
                numerator = (-1) ** k * q[k] * tail
                assert float(e) == numerator / Q, (N, k)
                assert e == mpmath.fdiv(numerator, Q, prec=WORKING_BITS), (N, k)


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
                b = frac_part_via_convergent(t, int(n), 6)
                assert abs(a - b) < tol

    @pytest.mark.parametrize("spec,K", [
        ("golden", 60), ("sqrt2", 40), ("[0;(15)]", 8), ("[0;(1,1000000000000)]", 8),
        ("rule:powers-of-two", 20),
    ])
    def test_exact_residue_of_deeper_convergent(self, spec, K):
        # Within 2^-250 of n*P mod Q over Q for a convergent P/Q with
        # Q > 2^4096, at every n the table covers; q_20 of rule:powers-of-two
        # has 211 bits.
        t = build_table(spec, K)
        q_K = int(t.q[K])
        _, p, q = _convergents(t.alpha, lambda q: q[-1].bit_length() > 4096)
        P, Q = p[-1], q[-1]
        rng = np.random.default_rng(5)
        ns = {1, q_K - 1, int(t.q[K - 1])} | {int(n) % q_K for n in rng.integers(1, 2 ** 62, 8)}
        if q_K.bit_length() > 192:
            ns |= {2 ** 191 - 1, 2 ** 191}
        with mpmath.workprec(600):
            for n in sorted(ns):
                assert abs(t.frac_part(n) - mpmath.mpf(n * P % Q) / Q) < mpmath.mpf(2) ** -250, n

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

    def test_log_two_sin_in_place(self):
        # log_two_sin works in place on one temporary: its logs are the plain
        # numpy expression's bit for bit, a zero factor reads 0 and is
        # counted, and the input is left as it was.
        t = build_table("[0;(15)]", 6)
        blocks = ((t.fracs(1, CHUNK + 1), 0), (t.fracs(0, CHUNK), 1),
                  (build_table("[0;2,3]", 2).fracs(0, 50), 8))
        for y, zeros in blocks:
            before = y.copy()
            logs, count = log_two_sin(y)
            s = np.abs(np.sin(np.pi * y))
            with np.errstate(divide="ignore"):
                ref = np.where(s == 0.0, 0.0, np.log(2.0 * s))
            assert count == zeros == np.count_nonzero(s == 0.0)
            assert logs.tobytes() == ref.tobytes()
            assert y.tobytes() == before.tobytes()

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
        # The hex mantissa times 2^exponent is the mpf exactly.
        with mpmath.workprec(256):
            vals = [mpmath.mpf(0), mpmath.sqrt(2), -mpmath.mpf(1) / 3, mpmath.mpf(5)]
        for v in vals:
            man, _, exp = mpf_to_hex(v).partition("p")
            assert mpmath.ldexp(int(man, 16), int(exp)) == v

    def test_table_roundtrip_bit_exact(self, tables):
        t = tables["[0;2,(1,4)]"]
        doc = table_to_dict(t)
        t2 = table_from_dict(doc)
        assert table_to_dict(t2) == doc
        assert t2.theta[5] == t.theta[5]

    def test_loads_document_with_tail_depth(self, tables):
        # `cf --out` files written before the deep-convergent tables carry
        # a "tail_depth" key; it is ignored.
        t = tables["[0;2,(1,4)]"]
        doc = dict(table_to_dict(t), tail_depth=64)
        t2 = table_from_dict(doc)
        assert table_to_dict(t2) == table_to_dict(t)

    def test_spec_invariants(self):
        with pytest.raises(Exception):
            AlphaSpec(period=(), rule=None)
        with pytest.raises(Exception):
            AlphaSpec(period=(2,), rule="powers-of-two")
