import functools
import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import zeta as scipy_zeta

from cesaro_copson.oracle import _POWER_GRID
from cesaro_copson.special_sums import (_BLOCK, hurwitz_tail,
                                        hurwitz_tail_scaled, m_alpha,
                                        shifted_tail, shifted_tail_scaled,
                                        zeta)

mp.mp.dps = 40


@functools.lru_cache(maxsize=None)
def ref_hurwitz(s: float, n: int) -> float:
    return float(mp.zeta(s, n))


@functools.lru_cache(maxsize=None)
def ref_shifted(beta: float, n: int) -> float:
    # head sum plus the alternating Hurwitz expansion of 1/(k+1), well past
    # the radius-of-convergence issues (mpmath's plain nsum mis-extrapolates
    # these slowly convergent series).  The expansion's terms decrease, so
    # stopping once a term is below 1e-30 of the sum leaves an error below it.
    n0 = max(n, 40)
    head = mp.fsum(k ** mp.mpf(-beta) / (k + 1) for k in range(n, n0))
    tail = mp.mpf(0)
    for j in range(80):
        term = mp.zeta(beta + 1 + j, n0)
        tail += (-1) ** j * term
        if term < mp.mpf(10) ** -30 * tail:
            break
    return float(head + tail)


def test_zeta_known_values():
    assert zeta(2.0).value == pytest.approx(math.pi ** 2 / 6, abs=1e-12)
    assert zeta(4.0).value == pytest.approx(math.pi ** 4 / 90, abs=1e-12)
    assert zeta(30.0).value == pytest.approx(1.0, abs=1e-8)
    assert zeta(2.0).error_bound <= 1e-12


def test_zeta_monotone_to_one():
    vals = [zeta(s).value for s in (1.5, 2.0, 3.0, 5.0, 10.0, 25.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 1.0


def test_zeta_rejects_pole():
    for s in (1.0, 0.5, -2.0):
        with pytest.raises(ValueError):
            zeta(s)
    with pytest.raises(ValueError):
        hurwitz_tail(1.0, 3)
    with pytest.raises(ValueError):
        shifted_tail(0.0, 1)
    with pytest.raises(ValueError):
        m_alpha(-1.0)


@pytest.mark.parametrize("s", [1.01, 1.3, 2.0, 3.7, 8.0])
def test_zeta_against_independent_references(s):
    cv = zeta(s)
    assert abs(cv.value - float(mp.zeta(s))) <= max(cv.error_bound, 1e-12)
    assert cv.value == pytest.approx(float(scipy_zeta(s, 1)), rel=1e-13)


@pytest.mark.parametrize("s,n", [(2.0, 1), (2.0, 2), (1.1, 5), (3.0, 10),
                                 (4.7, 100), (2.5, 1000)])
def test_hurwitz_tail_against_reference(s, n):
    cv = hurwitz_tail(s, n)
    assert abs(cv.value - ref_hurwitz(s, n)) <= max(cv.error_bound, 1e-12)


def test_hurwitz_tail_examples():
    assert hurwitz_tail(2.0, 1).value == pytest.approx(zeta(2.0).value, abs=1e-14)
    assert hurwitz_tail(2.0, 2).value == pytest.approx(zeta(2.0).value - 1.0, abs=1e-12)
    v = hurwitz_tail(3.0, 10).value
    assert 0.005 < v < 1.0 / (2 * 81)  # integral bracket (see below)


def test_hurwitz_difference_is_single_term():
    for s, n in [(1.5, 1), (2.0, 7), (3.0, 40), (2.2, 500)]:
        a = hurwitz_tail(s, n)
        b = hurwitz_tail(s, n + 1)
        expected = float(n) ** (-s)
        tol = 2 * (a.error_bound + b.error_bound) + 8 * np.finfo(float).eps * a.value
        assert abs((a.value - b.value) - expected) <= tol


def test_hurwitz_integral_bracketing():
    # int_n^inf x^-s dx <= tail <= int_{n-1}^inf x^-s dx for n >= 2
    for s in (1.2, 2.0, 3.5):
        for n in (2, 5, 20, 200):
            v = hurwitz_tail(s, n).value
            lo = n ** (1.0 - s) / (s - 1.0)
            hi = (n - 1.0) ** (1.0 - s) / (s - 1.0)
            assert lo <= v <= hi


def test_shifted_tail_closed_values():
    # partial fractions: 1/(k^2(k+1)) = 1/k^2 - 1/k + 1/(k+1)
    assert shifted_tail(2.0, 1).value == pytest.approx(math.pi ** 2 / 6 - 1, abs=1e-12)
    # telescoping: sum 1/(k(k+1)) = 1
    assert shifted_tail(1.0, 1).value == pytest.approx(1.0, abs=1e-12)
    # 1/(k^3(k+1)) = 1/k^3 - 1/k^2 + 1/(k(k+1))
    expected = zeta(3.0).value - zeta(2.0).value + 1.0
    assert m_alpha(3.0).value == pytest.approx(expected, abs=1e-12)
    assert m_alpha(2.0).value == pytest.approx(zeta(2.0).value - 1.0, abs=1e-12)


def test_shifted_tail_integral_bracket_at_100():
    # terms k^-0.5/(k+1) lie between x^-1.5 (1 - 1/x) and x^-1.5
    v = shifted_tail(0.5, 100).value
    hi = 100.0 ** -0.5 / 101.0 + 2.0 / math.sqrt(100)
    lo = 2.0 / math.sqrt(100) - (2.0 / 3.0) * 100.0 ** -1.5
    assert lo <= v <= hi
    assert v == pytest.approx(ref_shifted(0.5, 100), abs=1e-12)


@pytest.mark.parametrize("beta,n", [(0.3, 1), (1.0, 3), (2.0, 7), (3.5, 100)])
def test_shifted_tail_against_reference(beta, n):
    cv = shifted_tail(beta, n)
    assert abs(cv.value - ref_shifted(beta, n)) <= max(cv.error_bound, 1e-12)


def test_brute_force_sum_lands_inside_certificate():
    # 1e8 explicit terms plus an integral bracket for the rest
    s = 1.5
    cv = zeta(s)
    total = 0.0
    N = 10 ** 8
    for lo in range(1, N + 1, 10 ** 7):
        k = np.arange(lo, min(lo + 10 ** 7 - 1, N) + 1, dtype=float)
        total += float(np.sum(k ** -s))
    lo_rest = (N + 1) ** (1 - s) / (s - 1)
    hi_rest = N ** (1 - s) / (s - 1)
    assert total + lo_rest - 1e-9 <= cv.value <= total + hi_rest + 1e-9


# Scattered rows take the Euler-Maclaurin path; contiguous runs n0..n1 take
# the blocked reverse-sum path, checked at block ends, block ends +-1 and the
# run ends.
_RUN_STARTS = (1, 2, 15, 16, 31, 32, 33)
_RUN_LENGTHS = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7)
_SCALED_INPUTS = [np.array([1, 2, 5, 15, 16, 33, 1000, 10 ** 6])] + [
    np.arange(n0, n0 + length) for n0 in _RUN_STARTS for length in _RUN_LENGTHS]
# (exponent, p): the (s, p) / (beta, p) of the scans for u_k = k**-alpha
_HURWITZ_CASES = [(2.5, 1.5)] + [(a + 1.0, a) for a in _POWER_GRID if a > 0]
_SHIFTED_CASES = [(0.7, 0.7)] + [(a + 1.0, a) for a in _POWER_GRID if a > -1]


def _check_positions(n: np.ndarray) -> list[int]:
    if not np.all(np.diff(n) == 1):
        return list(range(n.size))
    ends = np.arange(_BLOCK - 1, n.size, _BLOCK)
    pos = {0, n.size - 1, *ends, *(ends - 1), *(ends + 1)}
    return sorted(i for i in pos if 0 <= i < n.size)


@pytest.mark.parametrize("n", _SCALED_INPUTS,
                         ids=["scattered"] + [f"run{n[0]}+{n.size}"
                                              for n in _SCALED_INPUTS[1:]])
def test_scaled_vector_variants_match_scalars(n):
    positions = _check_positions(n)
    for s, p in _HURWITZ_CASES:
        hv = hurwitz_tail_scaled(s, n, p)
        assert hv.shape == n.shape
        for i in positions:
            ni = int(n[i])
            assert hv[i] == pytest.approx(ref_hurwitz(s, ni) * float(ni) ** p,
                                          rel=1e-11)
    for beta, p in _SHIFTED_CASES:
        sv = shifted_tail_scaled(beta, n, p)
        assert sv.shape == n.shape
        for i in positions:
            ni = int(n[i])
            assert sv[i] == pytest.approx(ref_shifted(beta, ni) * float(ni) ** p,
                                          rel=1e-10)


def test_long_run_matches_euler_maclaurin_path():
    # a reversed array is not an increasing run, so it takes the E-M path;
    # below row 32 mpmath is the referee (test above)
    n = np.arange(1, 10 ** 6 + 1)
    em_rows = n[31:][::-1]
    for fn, exponent, p in ((hurwitz_tail_scaled, 1.3, 0.3),
                            (shifted_tail_scaled, 0.3, 0.0),
                            (shifted_tail_scaled, 1.7, 0.7)):
        run = fn(exponent, n, p)[31:]
        em = fn(exponent, em_rows, p)[::-1]
        np.testing.assert_allclose(run, em, rtol=1e-12, atol=0.0)


def test_extreme_exponents_stay_finite():
    # terms k**-300 underflow on this run, so it must keep the folded E-M path
    n = np.arange(32, 20032)
    for fn, exponent in ((hurwitz_tail_scaled, 300.0), (shifted_tail_scaled, 299.0)):
        out = fn(exponent, n, 299.0)
        assert np.all(np.isfinite(out))
        np.testing.assert_array_equal(out, fn(exponent, n[::-1], 299.0)[::-1])
