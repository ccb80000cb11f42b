import math

import numpy as np
import pytest

from cesaro_copson.power import (breakpoint_index, breakpoint_s,
                                 cesaro_minus_id_power, cesaro_power,
                                 closed_form, copson_minus_id_power,
                                 copson_power, two_op_cc_power,
                                 two_op_cstarc_power)
from cesaro_copson.special_sums import (hurwitz_tail_scaled,
                                        shifted_tail_scaled, zeta)
from cesaro_copson.operators import OpKind
from cesaro_copson.weights import Cone


class TestBreakpoints:
    def test_values(self):
        assert breakpoint_s(1) == -math.inf
        assert breakpoint_s(2) == pytest.approx(1 + math.log(0.5) / math.log(1.5))
        assert breakpoint_s(2) == pytest.approx(-0.70951, abs=1e-5)
        assert breakpoint_s(3) == pytest.approx(1 + math.log(2 / 3) / math.log(4 / 3))
        assert breakpoint_s(3) == pytest.approx(-0.40942, abs=1e-5)

    def test_strictly_increasing_negative_to_zero(self):
        vals = [breakpoint_s(m) for m in range(2, 200)]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v < 0 for v in vals)
        assert breakpoint_s(10 ** 6) == pytest.approx(0.0, abs=2e-6)

    def test_index_selection(self):
        assert breakpoint_index(-3.0) == 1
        assert breakpoint_index(-0.5) == 2
        assert breakpoint_index(-0.3) == 3
        assert breakpoint_index(-0.1) == 10
        # boundary alpha = s_{m+1} belongs to branch m
        assert breakpoint_index(breakpoint_s(3)) == 2
        with pytest.raises(ValueError):
            breakpoint_index(0.0)


class TestBranchTables:
    def test_cesaro(self):
        assert cesaro_power(0.5, Cone.ALL).value == pytest.approx(2.0)
        assert cesaro_power(-3, Cone.NONINCR).value == 1.0
        assert cesaro_power(2, Cone.NONDECR).value == 0.0
        assert cesaro_power(1.0, Cone.ALL).value == math.inf
        assert cesaro_power(0.0, Cone.ALL).case_label == "0 <= alpha < 1"
        assert cesaro_power(0.0, Cone.NONDECR).value == 1.0

    def test_copson(self):
        r = copson_power(1.0, Cone.NONNEG)
        assert r.value == pytest.approx(math.pi ** 2 / 6, abs=1e-12)
        assert r.zeta_arg == 2.0
        assert copson_power(-0.5, Cone.ALL).value == math.inf
        assert copson_power(3.0, Cone.NONDECR).value == 0.0
        assert copson_power(0.0, Cone.NONINCR).value == math.inf

    def test_cesaro_minus_id(self):
        assert cesaro_minus_id_power(0.5, Cone.ALL).value == pytest.approx(3.0)
        r = cesaro_minus_id_power(-0.5, Cone.NONINCR)
        assert r.m_breakpoint == 2
        assert r.value == pytest.approx(3.0 ** -1.5 * 2.0, abs=1e-15)
        assert r.value == pytest.approx(0.3849001794597505, abs=1e-12)
        assert cesaro_minus_id_power(0.0, Cone.NONDECR).value == 1.0
        assert cesaro_minus_id_power(1.0, Cone.NONINCR).value == math.inf

    def test_copson_minus_id(self):
        assert copson_minus_id_power(2.0, Cone.ALL).value == pytest.approx(1.5)
        assert copson_minus_id_power(0.5, Cone.NONNEG).value == pytest.approx(2.0)
        assert copson_minus_id_power(-1.0, Cone.ALL).value == math.inf
        assert copson_minus_id_power(1.0, Cone.NONNEG).value == 1.0
        with pytest.raises(ValueError):
            copson_minus_id_power(1.0, Cone.NONINCR)

    def test_two_op_cc(self):
        assert two_op_cc_power(-1.0, Cone.ALL).value == pytest.approx(3.0)
        assert two_op_cc_power(0.5, Cone.NONNEG).value == pytest.approx(2.0)
        assert two_op_cc_power(1.0, Cone.ALL).value == math.inf
        # boundary alpha = 0 belongs to the first branch of this theorem
        assert two_op_cc_power(0.0, Cone.ALL).case_label == "alpha <= 0"
        assert two_op_cc_power(0.0, Cone.ALL).value == 2.0

    def test_two_op_cstarc(self):
        assert two_op_cstarc_power(0.5, Cone.ALL).value == pytest.approx(3.0)
        r = two_op_cstarc_power(2.0, Cone.ALL)
        assert r.value == pytest.approx(4 * (math.pi ** 2 / 6 - 1), abs=1e-10)
        assert r.m_alpha_value == pytest.approx(math.pi ** 2 / 6 - 1, abs=1e-12)
        assert two_op_cstarc_power(2.0, Cone.NONNEG).value == 0.0
        # boundary alpha = 1 belongs to the middle branch; both branches agree
        r = two_op_cstarc_power(1.0, Cone.ALL)
        assert r.case_label == "0 < alpha <= 1" and r.value == pytest.approx(2.0)
        assert 2.0 * zeta(2.0).value != 2.0  # the branches differ off the boundary


def test_branch_continuity_at_breakpoints():
    for m in range(2, 11):
        s = breakpoint_s(m)
        left = m ** (s - 1.0) * (m - 1)        # branch m-1 at its right edge
        right = (m + 1.0) ** (s - 1.0) * m     # branch m at its left edge
        assert abs(left - right) <= 1e-12 * max(left, right)


def test_breakpoint_selection_matches_brute_force():
    n = np.arange(1, 10 ** 5 + 1, dtype=float)
    for alpha in (-3.0, -2.0, -1.0, -0.6, -0.3, -0.1):
        r = cesaro_minus_id_power(alpha, Cone.NONINCR)
        g = n ** (alpha - 1.0) * (n - 1.0)
        argmax = int(np.argmax(g)) + 1
        assert argmax == r.m_breakpoint + 1
        assert float(np.max(g)) == pytest.approx(r.value, rel=1e-12)


def test_closed_form_dispatch():
    assert closed_form(OpKind.C, Cone.ALL, 0.5).value == pytest.approx(2.0)
    assert closed_form(OpKind.CSTAR_MINUS_I, Cone.NONINCR, 0.5) is None
    assert closed_form(OpKind.CSTAR_MINUS_I, Cone.NONDECR, 0.5).value == 0.0
    # C - S* on ALL and NONINCR is the C <= A C* constant on ALL and NONNEG
    assert closed_form(OpKind.C_MINUS_SSTAR, Cone.ALL, 0.5).value == 3.0
    assert closed_form(OpKind.C_MINUS_SSTAR, Cone.NONINCR, 0.5).value == 2.0
    assert closed_form(OpKind.C_MINUS_SSTAR, Cone.NONNEG, 0.5) is None
    assert closed_form(OpKind.C_MINUS_SSTAR, Cone.NONDECR, 0.5) is None
    assert closed_form(OpKind.CSTARSD, Cone.ALL, 0.5) is None


class TestMonotoneAverages:
    """The monotone quantities the proofs rely on, checked numerically."""

    N = 10 ** 4

    def test_prefix_average(self):
        # n**(a-1) sum_{k<=n} k**-a: increases for a >= 0, decreases for a <= 0
        n = np.arange(1, self.N + 1, dtype=float)
        for alpha in (0.0, 0.4, 0.9, 2.0):
            vals = n ** (alpha - 1.0) * np.cumsum(n ** -alpha)
            assert np.all(np.diff(vals) >= -1e-12)
        for alpha in (-2.0, -0.5, 0.0):
            vals = n ** (alpha - 1.0) * np.cumsum(n ** -alpha)
            assert np.all(np.diff(vals) <= 1e-12)

    def test_strict_prefix_average_increases_for_all_alpha(self):
        n = np.arange(1, self.N + 1, dtype=float)
        for alpha in (-2.0, -0.5, 0.0, 0.5, 0.9, 2.0):
            prefix = np.concatenate([[0.0], np.cumsum(n ** -alpha)])[:-1]
            vals = n ** (alpha - 1.0) * prefix
            assert np.all(np.diff(vals) >= -1e-12)

    def test_tail_average_decreases(self):
        # n**a sum_{k>=n} k**-(a+1) decreases for a > 0
        n = np.arange(1, self.N + 1)
        for alpha in (0.3, 1.0, 2.5):
            vals = hurwitz_tail_scaled(alpha + 1.0, n, alpha)
            assert np.all(np.diff(vals) <= 1e-12 * vals[0])

    def test_strict_tail_average_increases(self):
        # n**a sum_{k>n} k**-(a+1) increases for a > 0
        n = np.arange(1, self.N + 1)
        for alpha in (0.3, 1.0, 2.5):
            vals = (n.astype(float) ** alpha) * hurwitz_tail_scaled(alpha + 1.0, n + 1)
            assert np.all(np.diff(vals) >= -1e-12 * vals[-1])
            assert vals[-1] <= 1.0 / alpha + 1e-9

    def test_shifted_tail_average(self):
        # n**a sum_{k>=n} k**-a/(k+1): increases to 1/a for 0 < a <= 1,
        # decreases for a > 1
        n = np.arange(1, self.N + 1)
        for alpha in (0.3, 0.7, 1.0):
            vals = shifted_tail_scaled(alpha, n, alpha)
            assert np.all(np.diff(vals) >= -1e-12 * vals[-1])
            assert vals[-1] <= 1.0 / alpha + 1e-9
            assert abs(vals[-1] - 1.0 / alpha) <= 2.0 / self.N ** min(alpha, 1.0) + 1e-6
        for alpha in (1.5, 3.0):
            vals = shifted_tail_scaled(alpha, n, alpha)
            assert np.all(np.diff(vals) <= 1e-12 * vals[0])
