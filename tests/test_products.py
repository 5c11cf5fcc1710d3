import dataclasses
import math
import random
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from sudler import (
    OstrowskiDigits,
    RangeError,
    ZeroFactorError,
    build_table,
    decompose,
    decompose_all,
    empirical_limit,
    encode,
    epsilon_profile,
    log_sudler,
    log_sudler_rational,
    log_sudler_shifted,
    n_star,
    reflection_rhs,
    scan,
    v_k,
)
from sudler import products
from sudler.cf import WORKING_BITS
from sudler.numerics import CHUNK, kahan_sum, kahan_sum_rows, log_two_sin
from sudler.products import (
    _expansion_pays,
    _log_sudler_direct,
    _log_sudler_expanded,
    block_args,
    block_shifts,
    scaled_shift,
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

    def test_batched_shifts_match_one_by_one(self):
        # q_7 = 328,776 spans six blocks.  A list of shifts, through whichever
        # kernel the call picks, stays within 1e-12 of one scalar (direct)
        # call per shift; with 0.25 in it, nearly every term is near.  The
        # scalar form is the blockwise sum over frac_doubles, bit for bit.
        t = build_table("[0;(6)]", 7)
        M = int(t.q[7])
        shifts = [0.0, -0.3 / M, 0.25, 1e-9]
        batched = log_sudler_shifted(t, M, shifts)
        assert batched.log_value.dtype == np.float64 and batched.zero_factors.dtype == np.int64
        assert batched.n_terms == M and batched.zero_factors.tolist() == [0, 0, 0, 0]
        y = t.frac_doubles(M + 1)[1:]
        for s, b in zip(shifts, batched.log_value):
            lp = log_sudler_shifted(t, M, s)
            assert abs(b - lp.log_value) <= 1e-12, s
            parts = [float(np.sum(log_two_sin(y[lo:lo + CHUNK] + s)[0]))
                     for lo in range(0, M, CHUNK)]
            assert lp.log_value == kahan_sum(parts)
        empty = log_sudler_shifted(t, M, [])
        assert empty.log_value.shape == empty.zero_factors.shape == (0,)
        assert empty.require_nonzero().shape == (0,)

    def test_sequence_result_is_one_log_product(self):
        # alpha = p_4/q_4: shift 0 vanishes at n = q_4, 1/q_4 at the n with
        # n p_4 = -1 (mod q_4), 0.5/q_4 nowhere.  is_zero acts per entry, and
        # require_nonzero raises with the total count.
        t = build_table("[0;15,15,15,15]", 4)
        M = int(t.q[4])
        lp = log_sudler_shifted(t, M, [0.0, 0.5 / M, 1.0 / M])
        assert lp.is_zero.tolist() == [True, False, True]
        with pytest.raises(ZeroFactorError, match="^2 factor"):
            lp.require_nonzero()
        ok = log_sudler_shifted(t, M, [0.5 / M, 0.25 / M])
        assert np.array_equal(ok.require_nonzero(), ok.log_value)

    def test_table_holds_no_full_length_array(self):
        t = build_table("[0;(15)]", 5)
        log_sudler(t, int(t.q[5]))
        empirical_limit(t, 5, [0.1, 0.4])
        held = [a for v in vars(t).values()
                for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray)]
        assert held and max(len(a) for a in held) <= CHUNK


class TestExpansion:
    """The cotangent power-sum expansion against the scalar (direct) form."""

    @staticmethod
    def _check(t, M, shifts, bound):
        value, zeros = _log_sudler_expanded(t.fracs, M, np.asarray(shifts), t.is_rational)
        assert value.shape == zeros.shape == (len(shifts),)
        for s, v, z in zip(shifts, value, zeros):
            lp = log_sudler_shifted(t, M, s)
            assert abs(v - lp.log_value) <= bound, s
            assert z == lp.zero_factors, s
        return value, zeros

    def test_tiny_shifts(self):
        # a limit-curve call: q_5 = 772,920 (twelve blocks), nine points,
        # about 15 near terms each; the public call takes the expansion
        t = build_table("[0;(15)]", 6)
        M = int(t.q[5])
        shifts = np.linspace(-0.95, 0.95, 9) / M
        assert _expansion_pays(shifts, M)
        value, zeros = self._check(t, M, shifts, 5e-13)
        lp = log_sudler_shifted(t, M, shifts)
        assert np.array_equal(lp.log_value, value) and np.array_equal(lp.zero_factors, zeros)

    def test_one_large_shift(self):
        # tau = tan(0.2 pi) makes 95% of the terms near for every shift.  The
        # call takes the direct sum: the expansion's n_far log|cos pi s|
        # carries the rounding of log|cos pi s| n_far times (1.6e-12 at -0.2).
        t = build_table("[0;(15)]", 6)
        M = int(t.q[5])
        shifts = np.array([1e-7, -0.2, 0.3 / M])
        assert not _expansion_pays(shifts, M)
        self._check(t, M, shifts, 2.5e-12)

    def test_single_shift_sequence(self):
        t = build_table("[0;(15)]", 6)
        M = int(t.q[5])
        lp = log_sudler_shifted(t, M, [0.4 / M])
        one = log_sudler_shifted(t, M, 0.4 / M)
        assert (lp.log_value.tolist(), lp.zero_factors.tolist()) == ([one.log_value], [0])
        self._check(t, M, [0.4 / M], 5e-13)
        self._check(t, M, [0.0], 5e-13)

    def test_all_shifts_zero(self):
        t = build_table("[0;(6)]", 7)
        M = int(t.q[7])
        self._check(t, M, [0.0, 0.0, 0.0], 5e-13)

    def test_rational_zero_factor(self):
        # n*p_6/q_6 + 1/q_6 is an integer for one n <= q_6: exact zero counts
        t = build_table("[0;15,15,15,15,15,15]", 6)
        M = int(t.q[6])
        shifts = np.array([1.0 / M, 0.3 / M, -1.0 / M])
        assert _expansion_pays(shifts, M)
        out = log_sudler_shifted(t, M, shifts)
        assert out.zero_factors.tolist() == [1, 0, 1]
        for s, v, z in zip(shifts, out.log_value, out.zero_factors):
            lp = log_sudler_shifted(t, M, s)
            assert abs(v - lp.log_value) <= 1e-12, s
            assert z == lp.zero_factors
        # One period away the shifts are reduced mod 1, exactly: y_n = -1/q_6
        # at n = q_5, and the float -1 + 1/q_6 reduces to 1/q_6 + 3.9e-17, so
        # y_n + s is 3.9e-17, not the -1 that the unreduced sum rounded to,
        # and no factor vanishes, as for the float 1 + 1/q_6.
        Q, M = M, int(t.q[5])
        shifts = np.array([-1.0 + 1.0 / Q, 1.0 - 0.3 / Q, 1.0 + 1.0 / Q])
        assert _expansion_pays(shifts, M)
        assert log_sudler_shifted(t, M, shifts).zero_factors.tolist() == [0, 0, 0]
        assert log_sudler_shifted(t, M, shifts[0]).zero_factors == 0


class TestShiftReduction:
    """Shifts are reduced mod 1 on entry, exactly, so a shift near a nonzero
    integer keeps all of its offset."""

    def test_near_integer_shifts(self):
        t = build_table("[0;15,15,15,15,15,15]", 6)
        Q, M = int(t.q[6]), int(t.q[5])
        shifts = [1.0 + 1.0 / Q, 1.0 - 0.3 / Q, -1.0 + 1.0 / Q, -1.0 - 0.3 / Q]
        offsets = [s - 1.0 if s > 0 else s + 1.0 for s in shifts]
        scalar = [log_sudler_shifted(t, M, s) for s in shifts]
        assert scalar == [log_sudler_shifted(t, M, s) for s in offsets]
        assert _expansion_pays(np.asarray(shifts), M)
        batched = log_sudler_shifted(t, M, shifts)
        for lp, v, z in zip(scalar, batched.log_value, batched.zero_factors):
            assert abs(v - lp.log_value) <= 1e-12
            assert z == lp.zero_factors == 0
        # unreduced, 1 + 1/q_6 gave -20.764 against -21.681 for the offset
        assert abs(scalar[0].log_value + 21.681) < 1e-3

    def test_non_finite_shifts_rejected(self):
        t = build_table("[0;(5)]", 5)
        for x in (math.inf, -math.inf, math.nan, [0.1, math.nan]):
            with pytest.raises(RangeError):
                log_sudler_shifted(t, 10, x)

    def test_half_period_shifts_unchanged(self):
        # |s| <= 1/2 reaches the kernel as it is, the halves and -0.0 included
        t = build_table("[0;(15)]", 6)
        M = int(t.q[4])
        for s in (0.5, -0.5, 0.3, -0.0, 1e-300):
            lp = log_sudler_shifted(t, M, s)
            value, zeros = _log_sudler_direct(t.fracs, M, np.array([s]), False)
            assert (lp.log_value, lp.zero_factors) == (value[0], zeros[0])

    def test_sequence_reduces_like_scalar(self):
        # s - rint(s) on the whole sequence: halves round to even, as
        # math.remainder does, and each entry is the scalar call's bit for bit
        t = build_table("[0;(15)]", 6)
        M = int(t.q[2])
        shifts = [0.5, -0.5, 1.5, -2.5, 3.0, -0.0, 7 + 1e-9, -4 - 0.3 / M]
        assert not _expansion_pays(np.asarray(shifts), M)
        batched = log_sudler_shifted(t, M, shifts)
        assert batched.log_value.tolist() == [log_sudler_shifted(t, M, s).log_value
                                              for s in shifts]
        assert batched.log_value[1] == batched.log_value[2] == batched.log_value[3]


class TestRational:
    def test_memory_is_per_block(self):
        t = build_table("[0;(15)]", 6)
        q = int(t.q[5])
        tracemalloc.start()
        try:
            log_sudler_rational(t.p[5] % q, q, q - 1)
            v_k(t, 5, 0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

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

    def test_rational_table_zero_factors_across_blocks(self):
        # q_5 = 772,920 spans 12 blocks.  Shift 0 vanishes at n = q_5 and
        # 1/q_5 at the n with n*p_5 = -1 (mod q_5), 1/(2 q_5) nowhere.  The
        # zero counts are exact, and the logs match the blockwise sum over
        # the nonzero factors alone, whose blocks do not line up with the
        # kernel's once a factor is left out.
        t = build_table("[0;15,15,15,15,15]", 5)
        M = int(t.q[5])
        y = t.frac_doubles(M + 1)[1:]
        shifts = [0.0, 1 / M, 0.5 / M]
        lps = log_sudler_shifted(t, M, shifts)
        assert lps.zero_factors.tolist() == [1, 1, 0]
        for s, v, z in zip(shifts, lps.log_value, lps.zero_factors):
            ys = y + s
            at_int = ys == np.round(ys)
            assert z == np.count_nonzero(at_int)
            nz = ys[~at_int]
            ref = kahan_sum(float(np.sum(log_two_sin(nz[lo:lo + CHUNK])[0]))
                            for lo in range(0, len(nz), CHUNK))
            assert abs(v - ref) <= 1e-13

    def test_large_modulus_exact_residues(self):
        # q ~ 2^50 and N = 2^15: n*p overflows int64, the residues must not.
        q = 2 ** 50 + 1
        p = next(p for p in range(0x2545F4914F6CD, q) if math.gcd(p, q) == 1)
        N = 2 ** 15
        r = np.array([(n * p) % q for n in range(1, N + 1)], dtype=np.int64)
        r[2 * r >= q] -= q
        lp = log_sudler_rational(p, q, N, 0.1)
        assert lp.log_value == float(np.sum(log_two_sin(r / q + 0.1)[0]))

    def test_too_deep_raises(self):
        # q_95 of the golden ratio exceeds 2^62, the limit of exact residues
        t = build_table("golden", 100)
        q = int(t.q[95])
        assert q >= 2 ** 62
        with pytest.raises(RangeError):
            log_sudler_rational(int(t.p[95]) % q, q, 5)


class TestDecompose:
    def test_all_zero_digits(self, tables):
        t = tables["golden"]
        d = encode(t, 0, K=5)
        dec = decompose(d)
        assert dec.factors == () and dec.total == 0.0

    def test_single_digit_telescopes(self):
        t = build_table("[0;(5)]", 4)
        d = OstrowskiDigits((3,), t)
        dec = decompose(d)
        assert dec.total == pytest.approx(log_sudler(t, 3).log_value, abs=1e-10)

    def test_identity_one_alpha(self):
        t = build_table("[0;(5)]", 6)
        vals = scan(t, 4).values
        for N in range(int(t.q[4])):
            d = encode(t, N, K=4)
            dec = decompose(d)
            direct = float(vals[N])
            assert abs(dec.total - direct) <= 1e-9 * (1 + abs(direct))

    def test_shift_arguments_in_range(self):
        # every inner shift b*delta_k + eps_k must fall inside (-1, 1)
        t = build_table("[0;2,(1,4)]", 6)
        for N in range(int(t.q[5])):
            decompose(encode(t, N, K=5))  # raises on violation


class TestDecomposeAll:
    """The one-pass walk over the digit tree against one decompose per N."""

    @pytest.mark.parametrize("spec, K", [
        ("[0;(5)]", 3), ("[0;(7)]", 3), ("[0;(12)]", 3), ("[0;(7,12)]", 3),
        ("[0;3,(11)]", 3), ("[0;(2,50)]", 3), ("golden", 8),
    ])
    def test_matches_decompose_for_every_n(self, spec, K):
        t = build_table(spec, K)
        totals = decompose_all(t, K)
        assert totals.shape == (t.q[K],) and totals.dtype == np.float64
        for N in range(int(t.q[K])):
            ref = decompose(encode(t, N, K=K)).total
            assert abs(totals[N] - ref) <= 1e-14 * (1.0 + abs(ref)), N

    @pytest.mark.parametrize("spec, K", [
        ("[0;(7)]", 3), ("[0;3,(11)]", 3), ("[0;(2,50)]", 3), ("golden", 8),
    ])
    def test_level_shifts_are_block_shifts(self, spec, K, monkeypatch):
        # One log_sudler_shifted call per level, k = K-1 .. 0, holding a row
        # of a_{k+1} shifts (a_1 - 1 at k = 0) for each prefix b_{K-1}..b_{k+1}
        # that allows b_k >= 1, in N order.  The first b_k entries of a row
        # are block_shifts of each digit vector below it, bit for bit.
        t = build_table(spec, K)
        calls = []

        def record(table, M, x):
            calls.append((M, np.array(x)))
            return log_sudler_shifted(table, M, x)

        monkeypatch.setattr(products, "log_sudler_shifted", record)
        decompose_all(t, K)
        rows = {}
        for k in range(K - 1, -1, -1):
            top = t.a[k + 1] - (k == 0)
            M, shifts = calls.pop(0) if top else (t.q[k], np.empty(0))
            assert M == t.q[k]
            rows[k] = shifts.reshape(-1, top) if top else shifts
        assert not calls
        nodes = {k: {} for k in range(K)}
        for N in range(int(t.q[K])):
            d = encode(t, N, K=K)
            eps = epsilon_profile(d)
            for k in eps:
                node = nodes[k].setdefault(d.digits[k + 1:], len(nodes[k]))
                expected = block_shifts(d, k, eps)
                assert rows[k][node, :len(expected)].tobytes() == expected.tobytes(), (N, k)
        for k in range(K):
            assert len(rows[k]) == len(nodes[k])

    def test_bad_k(self):
        t = build_table("[0;(5)]", 3)
        for K in (0, 4):
            with pytest.raises(RangeError):
                decompose_all(t, K)

    def test_peak_memory_per_n(self):
        # [0;(12)], q_5 = 255,780: the level shifts and block logs are
        # arrays, which peak at about 122 bytes per N.  Golden, q_20 = 10,946:
        # with a_1 = 1 every N has its own level-1 node, whose integer suffix
        # brings the peak to about 125 bytes per N.
        for spec, K, per_n in (("[0;(12)]", 5, 140), ("golden", 20, 160)):
            t = build_table(spec, K)
            decompose_all(t, 2)  # the table's residue kernel, built once
            tracemalloc.start()
            try:
                decompose_all(t, K)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= per_n * t.q[K], spec


def _neumaier(values):
    total = comp = 0.0
    for v in values:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp


def test_kahan_sum_is_kahan_sum_rows_of_one_row():
    rng = np.random.default_rng(5)
    rows = np.concatenate([
        rng.standard_normal((4, 37)),
        rng.standard_normal((4, 37)) * 10.0 ** rng.integers(-20, 20, (4, 37)),  # mixed magnitudes
        np.array([[1e16, 1.0, -1e16] + [0.0] * 34]),
    ])
    by_rows = kahan_sum_rows(rows)
    for row, total in zip(rows, by_rows):
        assert kahan_sum(row.tolist()) == total == _neumaier(row.tolist())
        assert kahan_sum(iter(row)) == total
    assert by_rows[-1] == 1.0
    assert kahan_sum([]) == 0.0


def test_scaled_shift_is_the_one_shift_formula():
    # (-1)^k x / q_k for a float and for an array, as block_shifts,
    # decompose_all and empirical_limit form their shifts
    t = build_table("[0;(15)]", 5)
    x = np.array([-0.9, 0.0, 0.35, 0.8])
    for k in (1, 2, 5):
        expected = [(-1) ** k * v / int(t.q[k]) for v in x.tolist()]
        assert scaled_shift(t, k, x).tolist() == expected
        assert scaled_shift(t, k, 0.35) == expected[2]
    d = encode(t, 1000, K=4)
    eps = epsilon_profile(d)
    for k in eps:
        assert np.array_equal(block_shifts(d, k, eps), scaled_shift(t, k, block_args(d, k, eps)[:-1]))


class TestBatchedDirect:
    """Shifts batched in the direct kernel give each shift's scalar result."""

    @pytest.mark.parametrize("M", [1, 12, 145, 65537])
    @pytest.mark.parametrize("G", [1, 7, 2000])
    def test_bit_identical_to_scalar_calls(self, M, G):
        t = build_table("[0;(12)]", 5)
        shifts = np.random.default_rng(M + G).uniform(-0.5, 0.5, G)
        if M * G > 10 ** 7:  # two blocks; the scalar calls take a sample of rows
            rows = range(0, G, 97)
        else:
            rows = range(G)
        value, zeros = _log_sudler_direct(t.fracs, M, shifts, False)
        assert value.shape == zeros.shape == (G,)
        for j in rows:
            lp = log_sudler_shifted(t, M, float(shifts[j]))
            assert (value[j], zeros[j]) == (lp.log_value, lp.zero_factors), j
            # The per-shift loop: each block's logs summed pairwise on their own.
            parts = [float(np.sum(log_two_sin(t.fracs(lo, min(lo + CHUNK, M + 1)) + shifts[j])[0]))
                     for lo in range(1, M + 1, CHUNK)]
            assert lp.log_value == kahan_sum(parts), j

    @pytest.mark.parametrize("M", [12, 145])
    def test_one_exact_zero_in_a_batch(self, M):
        # A rational alpha's y_n are exact residues, so s = -y_n puts factor
        # n of that shift on 0 and no factor of any other shift on an integer.
        t = build_table("[0;12,12,12,12]", 4)
        n = M // 2 + 1
        shifts = np.random.default_rng(M).uniform(-0.5, 0.5, 2000)
        shifts[777] = -t.fracs(n, n + 1)[0]
        value, zeros = _log_sudler_direct(t.fracs, M, shifts, True)
        assert np.flatnonzero(zeros).tolist() == [777]
        assert zeros[777] == 1
        for j in (0, 776, 777, 778, 1999):
            lp = log_sudler_shifted(t, M, float(shifts[j]))
            assert (value[j], zeros[j]) == (lp.log_value, lp.zero_factors), j


class TestBlockArgs:
    # x_b = b delta_k + eps_k rounds fl(delta_k), its product with b, fl(eps_k)
    # and the sum once each: an error below 4 half-ulps of the largest of
    # b delta_k, |eps_k| and |x_b|.  The shift divides by q_k as a float.
    @pytest.mark.parametrize("spec, K", [
        ("[0;(2)]", 8), ("[0;(7)]", 5), ("[0;(12)]", 4), ("[0;(50)]", 3),
        ("golden", 20), ("rule:powers-of-two", 6), ("[0;(1,1000000000000)]", 6),
    ])
    def test_float64_against_mpmath(self, spec, K):
        t = build_table(spec, K + 1)
        rng = random.Random(17)
        q_K = int(t.q[K])
        checked = 0
        for N in (q_K - 1, *(rng.randrange(q_K) for _ in range(20))):
            # A digit up to 10^12 would be 10^12 blocks: cap it, which keeps the
            # digit vector valid, since the capped digits stay below a_{k+1}.
            d = OstrowskiDigits(tuple(min(b, 9) for b in encode(t, N, K=K).digits), t)
            eps = epsilon_profile(d)
            for k in eps:
                x = block_args(d, k, eps)
                shifts = block_shifts(d, k, eps)
                assert x.dtype == np.float64 and len(x) == d.digits[k] + 1
                assert len(shifts) == d.digits[k]
                sign = 1 if k % 2 == 0 else -1
                with mpmath.workprec(WORKING_BITS + 16):
                    for b, xb in enumerate(x):
                        ref = b * t.delta[k] + eps[k]
                        scale = float(max(b * t.delta[k], abs(eps[k]), abs(ref)))
                        assert abs(float(mpmath.mpf(xb) - ref)) <= 2.0 ** -51 * scale
                        if b < len(shifts):
                            err = abs(float(mpmath.mpf(shifts[b]) - sign * ref / t.q[k]))
                            assert err <= 2.0 ** -50 * scale / t.q[k]
                checked += 1
        assert checked >= 20

    def test_range_check_raises_on_unvalidated_digits(self):
        t = build_table("[0;(10)]", 4)
        d = OstrowskiDigits((0, 5, 0), t)
        # b_1 = 15 > a_2 = 10 fails at construction, so force it onto a valid vector.
        object.__setattr__(d, "digits", (0, 15, 0))
        # eps_1 = -q_1 (b_2 theta_2 - ...) = 0: the digits above index 1 are 0.
        with pytest.raises(AssertionError, match=r"outside \(-1,1\) at k=1, b=11"):
            block_args(d, 1, {1: 0.0})


def _three_pass_norm(values, max_log, c):
    """log sum_N P_N^c as scan summed it in a pass of its own: exp of every
    c (log P_N - max_log), per CHUNK-wide block, the block sums added by fsum."""
    parts = [np.sum(np.exp(c * (values[lo:lo + CHUNK] - max_log)))
             for lo in range(0, len(values), CHUNK)]
    return c * max_log + math.log(math.fsum(parts))


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
            assert res.sums[c] == _three_pass_norm(vals, res.max_log, c)
        order = np.argsort(-vals, kind="stable")[:32]
        assert res.top == tuple((int(n), float(vals[n])) for n in order)

    def test_fused_pass_keeps_three_pass_result(self):
        # q_5 = 772,920 spans twelve blocks; at c >= 64 most exp terms
        # underflow, which the fused pass raises to _EXP_FLOOR first
        t = build_table("[0;(15)]", 5)
        cs = (0.5, 2.0, 64.0, 1024.0)
        res = scan(t, 5, c_list=cs)
        assert -(-res.q_K // CHUNK) == 12
        vals = res.values
        assert res.max_log == vals.max()
        assert res.argmax_N == int(np.argmax(vals))
        for c in cs:
            assert res.sums[c] == _three_pass_norm(vals, res.max_log, c)
        assert res.equals_bitwise(scan(t, 5, c_list=cs, parallelism=2))

    def test_ties_go_to_lowest_n(self, monkeypatch):
        # with every factor's log 0, all q_7 products tie at 1 over six blocks
        monkeypatch.setattr(products, "log_two_sin", lambda y: (np.zeros(len(y)), 0))
        t = build_table("[0;(6)]", 7)
        for parallelism in (1, 2):
            res = scan(t, 7, c_list=(2.0,), parallelism=parallelism)
            assert (res.argmax_N, res.max_log) == (0, 0.0)
            assert res.sums[2.0] == math.log(res.q_K)
            assert [n for n, _ in res.top] == list(range(32))
            assert res.top[0][0] == res.argmax_N

    @pytest.mark.parametrize("spec, K, n_blocks", [
        ("[0;(15)]", 5, 12), ("golden", 28, 8), ("[0;15,15,15,15,15]", 5, 12)])
    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_top_from_fewer_blocks(self, spec, K, n_blocks, parallelism):
        # scan picks top candidates only in the top_m blocks with the largest
        # seeded peaks; with fewer top_m than blocks it skips the others
        t = build_table(spec, K)
        for top_m in (0, 1, 2, 5, 11, 12, 13, 32, 100):
            res = scan(t, K, parallelism=parallelism, top_m=top_m)
            assert -(-res.q_K // CHUNK) == n_blocks
            order = np.argsort(-res.values, kind="stable")[:top_m]
            assert res.top == tuple((int(n), float(res.values[n])) for n in order)

    def test_result_field_types(self):
        # an np.float64 max_log would change the repr of everything built on it
        res = scan(build_table("[0;(15)]", 5), 5, c_list=(0.5, 64.0))
        assert type(res.max_log) is float
        assert type(res.argmax_N) is int
        assert all(type(v) is float for v in res.sums.values())
        assert res.top and all(type(n) is int and type(v) is float for n, v in res.top)

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

    @pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
    def test_non_finite_norm_exponent(self, c):
        with pytest.raises(RangeError):
            scan(build_table("[0;(6)]", 4), 3, c_list=(2.0, c))

    def test_budget(self):
        t = build_table("[0;(50)]", 5)
        with pytest.raises(Exception):
            scan(t, 5, budget=10 ** 7)
