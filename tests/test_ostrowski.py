import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sudler import (
    InvalidDigitsError,
    OstrowskiDigits,
    RangeError,
    build_table,
    decode,
    delta_T_default,
    encode,
    epsilon_profile,
    n_star,
    project,
)
from sudler.ostrowski import enumerate_valid


def greedy_oracle(qs, N):
    """Independent top-down expansion used to pin the encode examples."""
    digits = []
    rem = N
    for q in reversed(qs):
        digits.append(rem // q)
        rem %= q
    return tuple(reversed(digits))


class TestEncodeDecode:
    def test_example_a2(self):
        t = build_table("[0;(2)]", 6)
        d = encode(t, 8)
        assert d.digits == (1, 1, 1) == greedy_oracle([1, 2, 5], 8)
        assert decode(d) == 8

    def test_example_golden(self):
        t = build_table("golden", 6)
        d = encode(t, 4)
        assert d.digits == (0, 1, 0, 1) == greedy_oracle([1, 1, 2, 3], 4)

    def test_zero(self, tables):
        for t in tables.values():
            d = encode(t, 0)
            assert all(b == 0 for b in d.digits)

    def test_decode_example_a6(self):
        t = build_table("[0;(6)]", 4)
        d = OstrowskiDigits((5, 5, 5), t)
        assert decode(d) == 220  # 5*1 + 5*6 + 5*37

    def test_out_of_range(self, tables):
        t = tables["golden"]
        with pytest.raises(RangeError):
            encode(t, int(t.q[8]))

    def test_roundtrip_exhaustive(self, tables):
        for t in tables.values():
            for N in range(int(t.q[6])):
                assert decode(encode(t, N, K=6)) == N

    def test_enumeration_bijective(self, tables):
        # valid length-K vectors decode onto {0, ..., q_K - 1} exactly once
        for t in tables.values():
            for K in range(1, 6):
                seen = {decode(d) for d in enumerate_valid(t, K)}
                assert seen == set(range(int(t.q[K])))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_random(self, data):
        t = build_table("[0;(5)]", 8)
        N = data.draw(st.integers(min_value=0, max_value=int(t.q[8]) - 1))
        assert decode(encode(t, N)) == N


class TestDistinguishedDigits:
    def test_n_star_floor(self):
        t = build_table("[0;(6)]", 4)
        assert n_star(t, 3).digits == (5, 5, 5)
        tg = build_table("golden", 4)
        assert n_star(tg, 3).digits == (0, 0, 0)

    def test_n_star_a50(self):
        t = build_table("[0;(50)]", 5)
        assert n_star(t, 4).digits == (41, 41, 41, 41)

    def test_delta_T_default(self):
        assert delta_T_default(1.0) == 0.01
        assert delta_T_default(10.0) == pytest.approx(
            1.0 / (4 * math.pi * math.e ** 20)
        )


class TestEpsilon:
    def test_single_digit_zero(self):
        t = build_table("[0;(5)]", 4)
        d = OstrowskiDigits((3,), t)
        eps = epsilon_profile(d)
        assert eps[0] == 0

    def test_top_digit_zero(self, tables):
        for t in tables.values():
            d = n_star(t, 6)
            if d.digits[-1] >= 1:
                assert epsilon_profile(d)[5] == 0

    def test_absent_for_zero_digits(self):
        t = build_table("[0;(5)]", 4)
        d = OstrowskiDigits((0, 2, 0), t)
        eps = epsilon_profile(d)
        assert 1 in eps and 0 not in eps and 2 not in eps

    def test_bounds_random(self, tables):
        # -delta_k + eta_k <= eps_k <= eta_k on random N, all test alphas;
        # both bounds are attainable, so allow rounding-level slop
        rng = np.random.default_rng(11)
        with mpmath.workprec(300):
            slop = mpmath.mpf(2) ** -200
            for t in tables.values():
                for N in rng.integers(0, int(t.q[7]), size=2500):
                    d = encode(t, int(N), K=7)
                    eps = epsilon_profile(d)
                    for k, e in eps.items():
                        assert -t.delta[k] + t.eta[k] - slop <= e <= t.eta[k] + slop
                        assert -1 < float(e) < 0.5

    def test_n_star_ratio_five_sixths(self):
        # eps_k / delta_k = -5/6 + O(1/a) along the near-maximizer digits
        t = build_table("[0;(50)]", 6)
        d = n_star(t, 6)
        eps = epsilon_profile(d)
        for k in range(4):
            ratio = float(eps[k] / t.delta[k])
            assert abs(ratio + 5.0 / 6.0) < 2.0 / 50.0

    def test_strengthened_lower_bound(self, tables):
        # b_{k+1} <= (1 - delta) a_{k+2} forces eps_k >= -(1 - delta/3) delta_k
        rng = np.random.default_rng(13)
        for t in tables.values():
            for N in rng.integers(0, int(t.q[7]), size=800):
                d = encode(t, int(N), K=7)
                eps = epsilon_profile(d)
                for k, e in eps.items():
                    if k + 1 >= d.K:
                        continue
                    a_next2 = t.a[k + 2]
                    b_next = d.digits[k + 1]
                    if b_next == 0:
                        delta = 1.0
                    else:
                        delta = 1.0 - b_next / a_next2
                        if delta <= 0:
                            continue
                    assert float(e) >= -(1 - delta / 3) * float(t.delta[k]) - 1e-12


class TestProject:
    def test_identity(self):
        t = build_table("[0;(50)]", 5)
        star = n_star(t, 4)
        assert project(star, 2, star.digits[2]).digits == star.digits

    def test_replacement(self):
        t = build_table("[0;(50)]", 5)
        star = n_star(t, 4)
        assert project(star, 2, 0).digits == (41, 41, 0, 41)

    def test_rule_violation_raises(self):
        t = build_table("[0;(5)]", 5)
        d = OstrowskiDigits((2, 1, 1), t)
        with pytest.raises(InvalidDigitsError) as err:
            project(d, 1, t.a[2])  # b_1 = a_2 with b_0 != 0 breaks the carry rule
        assert err.value.violations

    def test_validity_state_surfaced(self):
        t = build_table("[0;(5)]", 5)
        with pytest.raises(InvalidDigitsError) as err:
            OstrowskiDigits((2, 5, 1), t)
        assert err.value.violations == ["b_1=a_2 requires b_0=0"]
        assert err.value.digits == (2, 5, 1)

    @pytest.mark.parametrize("digits, violations", [
        ((2, 5, 1, 0, 0, 0), ["length 6 exceeds table K_max=3"]),
        ((5, 6, -1), ["b_0=5 outside [0, 4]", "b_1=6 outside [0, 5]", "b_2=-1 outside [0, 5]"]),
    ])
    def test_every_rule_checked_at_construction(self, digits, violations):
        t = build_table("[0;(5)]", 3)
        with pytest.raises(InvalidDigitsError) as err:
            OstrowskiDigits(digits, t)
        assert err.value.violations == violations
