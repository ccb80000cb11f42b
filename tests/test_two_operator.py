import math

import numpy as np
import pytest

from conftest import random_list_weight
from cesaro_copson.norms import NormResult, Status, TruncConfig
from cesaro_copson.two_operator import (Direction, TwoOpQuery, best_constant,
                                        two_op_row_terms, w_envelope,
                                        witness_ratio)
from cesaro_copson.weights import Cone, ListWeight, PowerWeight

P = PowerWeight
DIR_CONES = [(d, c) for d in Direction for c in (Cone.ALL, Cone.NONNEG)]


def test_query_validation():
    with pytest.raises(ValueError):
        TwoOpQuery(Direction.C_LE_CSTAR, Cone.NONINCR, P(1), P(1))


def test_power_examples():
    q = TwoOpQuery(Direction.C_LE_CSTAR, Cone.ALL, P(-1), P(-1))
    r = best_constant(q)
    assert r.value == pytest.approx(3.0, abs=1e-12)
    assert r.status is Status.CLOSED_FORM
    q = TwoOpQuery(Direction.CSTAR_LE_C, Cone.NONNEG, P(0.5), P(0.5))
    assert best_constant(q).value == pytest.approx(2.0, abs=1e-12)
    q = TwoOpQuery(Direction.CSTAR_LE_C, Cone.ALL, P(2), P(2))
    assert best_constant(q).value == pytest.approx(4 * (math.pi ** 2 / 6 - 1), abs=1e-10)
    q = TwoOpQuery(Direction.CSTAR_LE_C, Cone.NONNEG, P(2), P(2))
    assert best_constant(q).value == 0.0
    q = TwoOpQuery(Direction.CSTAR_LE_C, Cone.ALL, P(-0.5), P(-0.5))
    assert best_constant(q).status is Status.DIVERGENT


def test_zero_weight():
    u = ListWeight((0.0,) * 6)
    v = ListWeight((1.0,) * 6)
    for d, c in DIR_CONES:
        assert best_constant(TwoOpQuery(d, c, u, v)).value == 0.0


def test_w_envelope_examples():
    assert np.allclose(w_envelope(P(0.5), 3), [1.0, math.sqrt(2), math.sqrt(3)])
    assert np.allclose(w_envelope(P(2.0), 3), [0.0, 0.0, 0.0])
    assert np.allclose(w_envelope(ListWeight((3, 1, 2)), 3), [2.0, 2.0, 6.0])
    # a power u's envelope is k**(1 - alpha) itself, to the bit, up to alpha = 1
    k = np.arange(1.0, 101.0)
    for a in (-2.5, -0.1, 0.0, 0.3, 1.0 - 2 ** -52, 1.0):
        np.testing.assert_array_equal(w_envelope(P(a), 100), k ** (1.0 - a))
    np.testing.assert_array_equal(w_envelope(P(1.0 + 2 ** -52), 100), np.zeros(100))


@pytest.mark.parametrize("cone, a", [(Cone.ALL, -0.5), (Cone.NONNEG, 0.0)])
def test_row_terms_of_a_divergent_inner_tail_are_inf(cone, a):
    # C* <= A C reduces to (C* - S)D against k**(1 - a), whose tail under
    # 1/(k(k+1)) diverges here: every row's term is +inf (a private
    # exception with an empty message escaped before)
    q = TwoOpQuery(Direction.CSTAR_LE_C, cone, P(a), P(a))
    terms = two_op_row_terms(q, 5)
    np.testing.assert_array_equal(terms, np.full(5, np.inf))
    assert best_constant(q, use_closed_forms=False).status is Status.DIVERGENT


@pytest.mark.parametrize("alpha", [-2, -1, -0.5, 0, 0.3, 0.7, 0.99])
def test_closed_forms_match_general_formulas(alpha):
    cfg = TruncConfig(n_max=10 ** 6)
    for d, c in DIR_CONES:
        q = TwoOpQuery(d, c, P(alpha), P(alpha), cfg)
        cf = best_constant(q)
        general = best_constant(q, use_closed_forms=False)
        if math.isinf(cf.value):
            assert general.status is Status.DIVERGENT
        else:
            tol = max(1e-3, general.residual_estimate)
            assert abs(general.value - cf.value) <= tol


def test_alpha_above_one_attained_branch():
    # the reversed inequality for alpha > 1 peaks at n = 2 inside the scan
    q = TwoOpQuery(Direction.CSTAR_LE_C, Cone.ALL, P(1.5), P(1.5),
                   TruncConfig(n_max=50000))
    cf = best_constant(q)
    general = best_constant(q, use_closed_forms=False)
    assert general.value == pytest.approx(cf.value, abs=1e-9)
    assert general.status is Status.TRUNCATED_CONVERGED


@pytest.mark.parametrize("a", (0.2, 0.6, 1.0, 1.2, 1.45))
def test_power_rows_match_the_defining_series(a):
    # rows 1..64 of C* <= A C on the matched pair, against the module
    # docstring's series summed by mpmath: with T(n) = sum_{k>=n} k^-a/(k+1),
    #   ALL:     n^a [ ((n-1)/n) (n-1)^-a + T(n) ]
    #   NONNEG:  n^a sum_{k>=n} inf_{j>=k} j^(1-a) / (k(k+1)),
    # where the infimum is k^(1-a) for a <= 1 (so the sum is T(n)) and 0
    # for a > 1.  T(1) is summed by Levin's transform: nsum's default
    # (Richardson and Shanks) is off in the first digit on this slowly
    # converging series
    mpmath = pytest.importorskip("mpmath")
    N = 64
    with mpmath.workdps(30):
        term = lambda k: mpmath.mpf(k) ** -a / (k + 1)   # noqa: E731
        tails = [mpmath.nsum(term, [1, mpmath.inf], method="levin")]
        for n in range(1, N):
            tails.append(tails[-1] - term(n))
        rows = {Cone.ALL: [], Cone.NONNEG: []}
        for n in range(1, N + 1):
            prev = mpmath.mpf(n - 1) / n * mpmath.mpf(n - 1) ** -a if n > 1 else 0
            rows[Cone.ALL].append(mpmath.mpf(n) ** a * (prev + tails[n - 1]))
            rows[Cone.NONNEG].append(mpmath.mpf(n) ** a * tails[n - 1] if a <= 1 else 0)
    for cone, want in rows.items():
        got = two_op_row_terms(TwoOpQuery(Direction.CSTAR_LE_C, cone, P(a), P(a)), N)
        want = np.array([float(x) for x in want])
        assert got.shape == (N,)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want)), (cone, got - want)


def test_power_u_scan_reads_the_whole_horizon():
    # C* <= A C against a PowerWeight u takes no tail bound, so a > 1 scans
    # cost what a <= 1 scans cost, though the (C* - S)D tail of norms would
    # meet the attained certificate at row 256; the answer is the closed
    # form's.  On NONNEG past a = 1 the envelope of k u_k is 0: so is every
    # row, and no row is read
    for a, cone, n_used in ((1.2, Cone.ALL, 10 ** 6), (0.6, Cone.ALL, 10 ** 6),
                            (1.2, Cone.NONNEG, 0)):
        q = TwoOpQuery(Direction.CSTAR_LE_C, cone, P(a), P(a))
        r = best_constant(q, use_closed_forms=False)
        if cone is Cone.NONNEG:
            assert repr(r) == repr(NormResult(0.0, Status.CLOSED_FORM, 0, 0.0))
        else:
            assert r.status is Status.TRUNCATED_CONVERGED and r.n_used == n_used
        assert r.value == pytest.approx(best_constant(q).value, rel=1e-12, abs=0)


def test_witness_round_trip_random_pairs(rng):
    for _ in range(25):
        L = int(rng.integers(1, 21))
        u = random_list_weight(rng, L)
        v = random_list_weight(rng, L)
        for d, c in DIR_CONES:
            q = TwoOpQuery(d, c, u, v)
            val = best_constant(q).value
            terms = two_op_row_terms(q, L)
            assert float(np.max(terms)) == pytest.approx(val, rel=1e-12, abs=1e-15)
            nstar = int(np.argmax(terms)) + 1
            ratio = witness_ratio(q, nstar)
            assert ratio == pytest.approx(val, rel=1e-12, abs=1e-15)


def test_witness_ratio_requires_lists():
    with pytest.raises(ValueError):
        witness_ratio(TwoOpQuery(Direction.C_LE_CSTAR, Cone.ALL, P(1), P(1)), 1)


def test_sandwich_nonneg_below_all(rng):
    for _ in range(20):
        L = int(rng.integers(1, 21))
        u = random_list_weight(rng, L)
        v = random_list_weight(rng, L)
        for d in Direction:
            a = best_constant(TwoOpQuery(d, Cone.ALL, u, v)).value
            ap = best_constant(TwoOpQuery(d, Cone.NONNEG, u, v)).value
            assert ap <= a + 1e-12 * (1 + a)


def test_envelope_replacement_invariance(rng):
    from cesaro_copson.weights import envelope_down
    for _ in range(15):
        L = int(rng.integers(2, 18))
        u = random_list_weight(rng, L, zero_frac=0.0)
        v = random_list_weight(rng, L)
        u_down = ListWeight(tuple(envelope_down(u, L)))
        q1 = TwoOpQuery(Direction.C_LE_CSTAR, Cone.NONNEG, u, v)
        q2 = TwoOpQuery(Direction.C_LE_CSTAR, Cone.NONNEG, u_down, v)
        assert best_constant(q1).value == pytest.approx(best_constant(q2).value,
                                                        rel=1e-14, abs=1e-15)
        # the reversed direction only reads the nondecreasing minorant of k u_k
        w = np.arange(1, L + 1) * np.asarray(u.values)
        wup = np.minimum.accumulate(w[::-1])[::-1]
        u_rep = ListWeight(tuple(wup / np.arange(1, L + 1)))
        q1 = TwoOpQuery(Direction.CSTAR_LE_C, Cone.NONNEG, u, v)
        q2 = TwoOpQuery(Direction.CSTAR_LE_C, Cone.NONNEG, u_rep, v)
        assert best_constant(q1).value == pytest.approx(best_constant(q2).value,
                                                        rel=1e-13, abs=1e-15)


def test_truncated_constant_is_attainable_not_exceeded(rng):
    # random cone search must stay below the formula (tight at the witness)
    for _ in range(6):
        L = int(rng.integers(2, 10))
        u = random_list_weight(rng, L, zero_frac=0.0)
        v = random_list_weight(rng, L, zero_frac=0.0)
        ks = np.arange(1, L + 1, dtype=float)
        C = np.tril(np.ones((L, L))) / ks[:, None]
        Cs = np.triu(np.ones((L, L))) / ks[None, :]
        uv = np.asarray(u.values)
        vv = np.asarray(v.values)
        for d, c in DIR_CONES:
            val = best_constant(TwoOpQuery(d, c, u, v)).value
            best = 0.0
            for _ in range(4000):
                x = rng.uniform(-1, 1, L) if c is Cone.ALL else rng.uniform(0, 1, L)
                if d is Direction.C_LE_CSTAR:
                    num = np.max(np.abs(C @ x) * vv)
                    den = np.max(np.abs(Cs @ x) / uv)
                else:
                    num = np.max(np.abs(Cs @ x) * vv)
                    den = np.max(np.abs(C @ x) / uv)
                if den > 0:
                    best = max(best, num / den)
            assert best <= val + 1e-9
