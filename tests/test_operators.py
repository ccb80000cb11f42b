import math

import numpy as np
import pytest

from cesaro_copson.operators import (NO_FLIP, OpKind, PRINCIPAL_KINDS,
                                     RowPattern, SignFlip, apply, apply_batch,
                                     check_identity_first,
                                     check_identity_second, classify_row,
                                     cone_plan, entry, last_index_of_part,
                                     row_entries)
from cesaro_copson.weights import Cone, SeqWindow

NONNEG_KINDS = (OpKind.C, OpKind.CSTAR, OpKind.D, OpKind.E)


def test_entry_examples():
    assert entry(OpKind.CSTARSD, 1, 1) == 0.5
    assert entry(OpKind.C_MINUS_I, 3, 3) == -2.0 / 3.0
    assert entry(OpKind.C, 4, 5) == 0.0


def test_entry_matches_defining_formulas():
    assert entry(OpKind.C, 5, 3) == 0.2
    assert entry(OpKind.CSTAR, 2, 4) == 0.25
    assert entry(OpKind.C_MINUS_SSTAR, 3, 4) == -1.0
    assert entry(OpKind.CSTARSD, 4, 3) == -0.25
    assert entry(OpKind.CSTARSD, 2, 5) == 1.0 / 30.0
    assert entry(OpKind.S, 3, 2) == 1.0 and entry(OpKind.S, 1, 1) == 0.0
    assert entry(OpKind.SSTAR, 2, 3) == 1.0
    assert entry(OpKind.D, 3, 3) == 0.25
    assert entry(OpKind.E, 4, 2) == 1.0
    assert entry(OpKind.I, 2, 2) == 1.0


def test_nonnegative_kinds_have_nonnegative_entries():
    for kind in NONNEG_KINDS:
        for n in range(1, 12):
            assert np.all(row_entries(kind, n, 15) >= 0.0)


def test_pos_neg_decomposition():
    for kind in PRINCIPAL_KINDS:
        for n in (1, 2, 3, 7):
            e = row_entries(kind, n, 12)
            pos = np.clip(e, 0, None)
            neg = np.clip(-e, 0, None)
            assert np.array_equal(pos - neg, e)
            assert np.array_equal(pos + neg, np.abs(e))
            assert np.all(pos * neg == 0.0)


def test_shape_table_matches_entry():
    # row_entries is built from the row-shape table; entry is the ground truth
    flips = (NO_FLIP, SignFlip(flip_all=True), SignFlip(flip_rows=frozenset({1, 3})))
    for kind in OpKind:
        for n in range(1, 61):
            for K in sorted({1, n - 1, n, n + 1, 60} - {0}):
                for flip in flips:
                    want = [entry(kind, n, k, flip) for k in range(1, K + 1)]
                    assert np.array_equal(row_entries(kind, n, K, flip), want), \
                        (kind, n, K, flip)


def test_sign_flip_negates_rows():
    fl = SignFlip(flip_all=True, flip_rows=frozenset({1}))
    assert entry(OpKind.CSTARSD, 1, 1, fl) == 0.5       # row 1 exempted
    assert entry(OpKind.CSTARSD, 2, 1, fl) == 0.5       # row 2 negated
    assert np.array_equal(row_entries(OpKind.C, 3, 5, SignFlip(flip_all=True)),
                          -row_entries(OpKind.C, 3, 5))


@pytest.mark.parametrize("flip_all", [False, True])
def test_flipped_matches_sign(flip_all, rng):
    # the cached lookup table against sign(n) < 0, on rows in any order and
    # on rows past the largest flipped one
    n = np.arange(0, 800)
    for size in (0, 1, 5, 512):
        fl = SignFlip(flip_all, frozenset(int(r) for r in
                                          rng.choice(np.arange(1, 600), size, replace=False)))
        want = np.array([fl.sign(int(r)) < 0 for r in n])
        np.testing.assert_array_equal(fl.flipped(n), want)
        m = rng.permutation(n)
        np.testing.assert_array_equal(fl.flipped(m), want[m])


def test_classify_row_examples():
    rc = classify_row(OpKind.C_MINUS_SSTAR, 3)
    assert rc.satisfies(RowPattern.POS_BEFORE_NEG) and rc.row_sum == 0.0
    rc = classify_row(OpKind.CSTAR_MINUS_I, 1)
    assert rc.satisfies(RowPattern.NEG_BEFORE_POS)
    assert rc.row_sum == math.inf and not rc.finite_sum
    rc = classify_row(OpKind.C, 2)
    assert rc.satisfies(RowPattern.POS_BEFORE_NEG) and rc.row_sum == 1.0


def test_classify_special_rows():
    assert classify_row(OpKind.C_MINUS_I, 1).pattern is RowPattern.ALL_ZERO
    assert classify_row(OpKind.CSTARSD, 1).row_sum == 1.0
    assert classify_row(OpKind.CSTARSD, 4).row_sum == 0.0
    assert classify_row(OpKind.CSTARSD, 4, ncols=10).row_sum == pytest.approx(-1.0 / 11)
    assert classify_row(OpKind.S, 1).pattern is RowPattern.ALL_ZERO


def test_classify_agrees_with_entry_scan():
    # scan of the first 1e4 columns plus the analytic tail sign
    rng = np.random.default_rng(0)
    rows = sorted(set(rng.integers(1, 101, size=12)) | {1, 2, 100})
    for kind in OpKind:
        for n in rows:
            es = row_entries(kind, n, 10 ** 4)
            rc = classify_row(kind, n)
            has_pos = bool(np.any(es > 0))
            has_neg = bool(np.any(es < 0))
            if not has_pos and not has_neg:
                assert rc.pattern is RowPattern.ALL_ZERO
            elif has_pos != has_neg:
                # infinite rows of the tail operators keep their tail sign
                assert rc.pattern in (RowPattern.BOTH, RowPattern.POS_BEFORE_NEG,
                                      RowPattern.NEG_BEFORE_POS)
            if has_pos and has_neg:
                first_neg = int(np.argmax(es < 0))
                last_pos = len(es) - 1 - int(np.argmax(es[::-1] > 0))
                if rc.pattern is RowPattern.POS_BEFORE_NEG:
                    assert last_pos < first_neg or np.all(es[first_neg + 1:] >= 0)
            if rc.finite_sum:
                # row sums of the finite-sum kinds converge within the scan
                tail_bound = 2.0 / 10 ** 4 if kind in (
                    OpKind.CSTAR, OpKind.CSTAR_MINUS_I) else 1e-4
                assert abs(rc.row_sum - float(np.sum(es))) <= tail_bound


def test_classify_truncated_rows_match_scan(rng):
    for kind in OpKind:
        for L in (1, 3, 9, 60):
            for n in range(1, L + 3):
                rc = classify_row(kind, n, ncols=L)
                es = row_entries(kind, n, L)
                assert rc.row_sum == pytest.approx(float(np.sum(es)), abs=1e-14)


def test_apply_examples():
    out = apply(OpKind.C, SeqWindow(1, (1.0, 1.0, 1.0, 1.0)), 4)
    assert np.allclose(out.values, [1, 1, 1, 1])
    out = apply(OpKind.CSTAR, SeqWindow(1, (1.0,)), 2)
    assert np.allclose(out.values, [1.0, 0.0])
    out = apply(OpKind.E, SeqWindow(1, (1.0, 2.0, 3.0)), 3)
    assert np.allclose(out.values, [1.0, 3.0, 6.0])


def test_apply_matches_dense_matrix(rng):
    for kind in OpKind:
        x = SeqWindow(2, tuple(rng.uniform(-1, 1, 6)))
        N = 10
        dense = np.array([[entry(kind, n, k) for k in range(1, x.end + 1)]
                          for n in range(1, N + 1)])
        xs = np.array([x.at(k) for k in range(1, x.end + 1)])
        got = np.asarray(apply(kind, x, N).values)
        assert np.allclose(got, dense @ xs, atol=1e-14), kind


def test_apply_batch_matches_dense(rng):
    for kind in OpKind:
        K, T, R = 8, 4, 12
        X = rng.uniform(-1, 1, (T, K))
        M = np.array([[entry(kind, n, k) for k in range(1, K + 1)]
                      for n in range(1, R + 1)])
        assert np.allclose(apply_batch(kind, X, R), X @ M.T, atol=1e-13), kind


@pytest.mark.parametrize("K", [1, 2, 7, 64, 513])
@pytest.mark.parametrize("kind", list(OpKind), ids=lambda k: k.name)
def test_apply_batch_matches_row_entries(kind, K, rng):
    # the oracle reads every row's B w from apply_batch: pin it to the
    # literal rows on windows shorter than, equal to and past the columns
    X = rng.uniform(-1, 1, (3, K))
    for R in sorted({1, K - 1, K, K + 5} - {0}):
        M = np.array([row_entries(kind, n, K) for n in range(1, R + 1)])
        err = np.abs(apply_batch(kind, X, R) - X @ M.T)
        assert np.all(err <= 1e-13 * (np.abs(X) @ np.abs(M).T)), (K, R)


def test_identity_first_examples():
    # x = unit vector: both sides are (1, 1/2, 1/3, 1/4, 1/5)
    assert check_identity_first(SeqWindow(1, (1.0,)), 5) <= 1e-15
    assert check_identity_first(SeqWindow(1, (0.0, 0.0)), 6) == 0.0


def test_identity_second_examples():
    # Ex finitely supported
    assert check_identity_second(SeqWindow(1, (1.0, -1.0)), 5) <= 1e-15
    # Ex constant 1: the tail telescopes analytically
    assert check_identity_second(SeqWindow(1, (1.0,)), 5) <= 1e-12


def test_identities_on_random_windows(rng):
    worst1 = worst2 = 0.0
    for _ in range(300):
        start = int(rng.integers(1, 8))
        x = SeqWindow(start, tuple(rng.uniform(-1, 1, int(rng.integers(1, 41)))))
        hi = 1e-12 * (1.0 + max(abs(t) for t in x.values))
        d1 = check_identity_first(x, 50)
        d2 = check_identity_second(x, 50)
        assert d1 <= hi and d2 <= hi
        worst1 = max(worst1, d1)
        worst2 = max(worst2, d2)
    assert worst1 <= 1e-12 and worst2 <= 1e-12


def test_cone_plan_rows_satisfy_hypotheses():
    for kind in PRINCIPAL_KINDS:
        for cone in (Cone.NONINCR, Cone.NONDECR):
            for L in (None, 1, 3, 8, 20):
                plan = cone_plan(kind, cone, L, max_row=L)
                if not plan.ok or plan.trivially_zero:
                    continue
                want = (RowPattern.POS_BEFORE_NEG if cone is Cone.NONINCR
                        else RowPattern.NEG_BEFORE_POS)
                rows = range(1, (L or 30) + 1)
                for n in rows:
                    rc = classify_row(kind, n, L, plan.flip)
                    assert rc.satisfies(want), (kind, cone, L, n)
                    assert rc.row_sum >= -1e-15, (kind, cone, L, n)


def test_cone_plan_open_and_trivial_cases():
    assert not cone_plan(OpKind.CSTAR_MINUS_I, Cone.NONINCR, None).ok
    assert cone_plan(OpKind.CSTAR, Cone.NONDECR, None).trivially_zero
    assert cone_plan(OpKind.CSTAR_MINUS_I, Cone.NONDECR, None).trivially_zero
    # truncated (C*-S)D rows have sums -1/(L+1): hypotheses fail
    assert not cone_plan(OpKind.CSTARSD, Cone.NONDECR, 6, max_row=6).ok
    # but the infinite problem is fine (row sums 1 and 0)
    assert cone_plan(OpKind.CSTARSD, Cone.NONDECR, None).ok


def test_last_index_of_part_matches_scan():
    L = 9
    cases = [(kind, NO_FLIP, negative) for kind in OpKind for negative in (False, True)]
    for kind in PRINCIPAL_KINDS:
        for cone in (Cone.NONINCR, Cone.NONDECR):
            plan = cone_plan(kind, cone, L, max_row=L)
            if plan.ok and not plan.trivially_zero:
                cases.append((kind, plan.flip, cone is Cone.NONDECR))
    for kind, flip, negative in cases:
        for n in range(1, L + 2):
            es = row_entries(kind, n, L, flip)
            want = es < 0 if negative else es > 0
            expected = int(np.nonzero(want)[0][-1]) + 1 if np.any(want) else 0
            got = last_index_of_part(kind, n, L, negative, flip)
            assert got == expected, (kind, flip, negative, n)
