import itertools
import math

import numpy as np
import pytest

from cesaro_copson.operators import (NO_FLIP, OpKind, PRINCIPAL_KINDS,
                                     SignFlip, apply, apply_batch,
                                     check_identity_first,
                                     check_identity_second, cone_plan, entry,
                                     last_index_of_part, row_entries)
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


def _switch_entry(kind, n, k, flip):
    """b_{n,k} by a switch on the kind, as entry() was written before its
    table of formulas: the reference the table must equal bit for bit."""
    e = 0.0
    if kind is OpKind.C:
        e = 1.0 / n if k <= n else 0.0
    elif kind is OpKind.CSTAR:
        e = 1.0 / k if k >= n else 0.0
    elif kind is OpKind.C_MINUS_I:
        if k < n:
            e = 1.0 / n
        elif k == n:
            e = -(n - 1.0) / n
    elif kind is OpKind.CSTAR_MINUS_I:
        if k > n:
            e = 1.0 / k
        elif k == n:
            e = -(n - 1.0) / n
    elif kind is OpKind.C_MINUS_SSTAR:
        if k <= n:
            e = 1.0 / n
        elif k == n + 1:
            e = -1.0
    elif kind is OpKind.CSTARSD:
        if k >= n:
            e = 1.0 / (k * (k + 1.0))
        elif k == n - 1:
            e = -1.0 / n
    elif kind is OpKind.S:
        e = 1.0 if k == n - 1 else 0.0
    elif kind is OpKind.SSTAR:
        e = 1.0 if k == n + 1 else 0.0
    elif kind is OpKind.D:
        e = 1.0 / (n + 1.0) if k == n else 0.0
    elif kind is OpKind.E:
        e = 1.0 if k <= n else 0.0
    elif kind is OpKind.I:
        e = 1.0 if k == n else 0.0
    return flip.sign(n) * e


@pytest.mark.parametrize("kind", list(OpKind), ids=lambda k: k.name)
def test_entry_table_matches_the_switch(kind):
    flips = (NO_FLIP, SignFlip(1, None), SignFlip(2, None), SignFlip(7, 40))
    for flip in flips:
        for n in range(1, 41):
            for k in range(1, 41):
                got, want = entry(kind, n, k, flip), _switch_entry(kind, n, k, flip)
                # == with the sign bit too: -0.0 stays -0.0
                assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), \
                    (kind, n, k, flip)


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
    flips = (NO_FLIP, SignFlip(1, None), SignFlip(2, None), SignFlip(2, 3))
    for kind in OpKind:
        for n in range(1, 61):
            for K in sorted({1, n - 1, n, n + 1, 60} - {0}):
                for flip in flips:
                    want = [entry(kind, n, k, flip) for k in range(1, K + 1)]
                    assert np.array_equal(row_entries(kind, n, K, flip), want), \
                        (kind, n, K, flip)


def test_sign_flip_negates_rows():
    fl = SignFlip(2, None)
    assert entry(OpKind.CSTARSD, 1, 1, fl) == 0.5       # row 1 before the run
    assert entry(OpKind.CSTARSD, 2, 1, fl) == 0.5       # row 2 negated
    assert entry(OpKind.CSTARSD, 10 ** 6, 10 ** 6 - 1, fl) == 1e-6
    fl = SignFlip(2, 4)
    assert [fl.sign(n) for n in range(1, 7)] == [1.0, -1.0, -1.0, -1.0, 1.0, 1.0]
    assert np.array_equal(row_entries(OpKind.C, 3, 5, SignFlip(1, None)),
                          -row_entries(OpKind.C, 3, 5))
    assert all(NO_FLIP.sign(n) == 1.0 for n in range(0, 50))


@pytest.mark.parametrize("infinite", [False, True])
def test_flipped_matches_sign(infinite, rng):
    # the array form against sign(n) < 0, on rows in any order, before, in
    # and past the run; the finite runs include empty and one-row runs
    n = np.arange(0, 800)
    firsts = (1, 2, 3, 599, 900) if infinite else (1, 2, 7, 40, 599)
    for first in firsts:
        lasts = [None] if infinite else [first - 1, first, first + 5,
                                         int(rng.integers(first, 800))]
        for last in lasts:
            fl = SignFlip(first, last)
            want = np.array([fl.sign(int(r)) < 0 for r in n])
            np.testing.assert_array_equal(fl.flipped(n), want)
            m = rng.permutation(n)
            np.testing.assert_array_equal(fl.flipped(m), want[m])


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
        X = rng.uniform(-1, 1, (K, T))
        M = np.array([[entry(kind, n, k) for k in range(1, K + 1)]
                      for n in range(1, R + 1)])
        assert np.allclose(apply_batch(kind, X, R), M @ X, atol=1e-13), kind


@pytest.mark.parametrize("K", [1, 2, 7, 64, 513])
@pytest.mark.parametrize("kind", list(OpKind), ids=lambda k: k.name)
def test_apply_batch_matches_row_entries(kind, K, rng):
    # the oracle reads every row's B w from apply_batch: pin it to the
    # literal rows on windows shorter than, equal to and past the columns
    X = rng.uniform(-1, 1, (K, 3))
    for R in sorted({1, K - 1, K, K + 5} - {0}):
        M = np.array([row_entries(kind, n, K) for n in range(1, R + 1)])
        err = np.abs(apply_batch(kind, X, R) - M @ X)
        assert np.all(err <= 1e-13 * (np.abs(M) @ np.abs(X))), (K, R)


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


def _literal_row(kind, n, L, flip):
    """Row n within columns 1..L from row_entries, flipped; on an infinite
    horizon a window of n + 2 columns plus one last entry for the columns
    past it: 1/(K+1) under the kernel 1/(k(k+1)), +inf under 1/k, times the
    row's sign."""
    if L is not None:
        return row_entries(kind, n, L, flip)
    K = n + 2
    e = row_entries(kind, n, K, flip)
    tail = {OpKind.CSTAR: math.inf, OpKind.CSTAR_MINUS_I: math.inf,
            OpKind.CSTARSD: 1.0 / (K + 1)}.get(kind, 0.0)
    return np.append(e, flip.sign(n) * tail)


def test_cone_plan_rows_satisfy_hypotheses():
    # every flipped row in the cone's sign order, with a nonnegative sum
    for kind in OpKind:
        for cone in (Cone.NONINCR, Cone.NONDECR):
            for L in (None, 1, 2, 3, 8, 20):
                plan = cone_plan(kind, cone, L, max_row=L)
                if not plan.ok or plan.trivially_zero:
                    continue
                for n in range(1, (L or 30) + 1):
                    e = _literal_row(kind, n, L, plan.flip)
                    pos, neg = np.flatnonzero(e > 0), np.flatnonzero(e < 0)
                    if pos.size and neg.size:
                        if cone is Cone.NONINCR:
                            assert pos[-1] < neg[0], (kind, cone, L, n)
                        else:
                            assert neg[-1] < pos[0], (kind, cone, L, n)
                    assert math.fsum(e) >= -1e-15, (kind, cone, L, n)


def _switch_first_negative_row(kind, L, max_row, flipped=lambda n: False):
    hi = L + 1 if max_row is None else min(L + 1, max_row)
    s = apply_batch(kind, np.ones(L), hi)
    for n in range(2, hi + 1):
        if (-s[n - 1] if flipped(n) else s[n - 1]) < 0:
            return n
    return None


def _switch_plan(kind, cone, L, max_row):
    """cone_plan as a switch per kind and cone, as it was written before
    the row shapes decided the single-signed kinds, with its flips as a
    global toggle plus a set of exceptions: (ok, trivially_zero, reason,
    flip_all, flip_rows), the reference the plans must equal."""
    if cone in (Cone.ALL, Cone.NONNEG):
        return True, False, "", False, set()
    nonneg_kinds = (OpKind.C, OpKind.CSTAR, OpKind.S, OpKind.SSTAR,
                    OpKind.D, OpKind.E, OpKind.I)
    if cone is Cone.NONINCR:
        if kind in nonneg_kinds or kind in (OpKind.C_MINUS_I, OpKind.C_MINUS_SSTAR):
            return True, False, "", False, set()
        if kind is OpKind.CSTARSD:
            return True, False, "", True, {1}
        if L is None:
            return False, False, "flipped rows of C*-I have sum -inf", False, set()
        rows = set(range(2, L + 1))
        n = _switch_first_negative_row(kind, L, max_row, lambda n: n in rows)
        if n is not None:
            return False, False, f"flipped row {n} has negative sum", False, set()
        return True, False, "", False, rows
    if kind in nonneg_kinds:
        if kind is OpKind.CSTAR and L is None:
            return True, True, "", False, set()
        return True, False, "", False, set()
    if kind is OpKind.C_MINUS_I:
        if L is None:
            return True, False, "", True, set()
        return True, False, "", False, set(range(1, L + 1))
    if kind is OpKind.C_MINUS_SSTAR:
        if L is None:
            return True, False, "", True, set()
        return True, False, "", False, set(range(1, L))
    if kind is OpKind.CSTAR_MINUS_I:
        if L is None:
            return True, True, "", False, set()
        n = _switch_first_negative_row(kind, L, max_row)
        if n is not None:
            return False, False, f"row {n} has negative sum", False, set()
        return True, False, "", False, set()
    if L is not None and _switch_first_negative_row(kind, L, max_row) is not None:
        return False, False, "truncated rows of (C*-S)D have sum -1/(L+1)", False, set()
    return True, False, "", False, set()


def test_cone_plan_matches_the_switch():
    # the plans read from the row shapes and the flips as runs, against the
    # switch: the same refusals with the same reasons, and the same sign on
    # every nonzero row the problem can see
    for L in (None, *range(1, 13), 64, 513):
        max_rows = {None, 1, 2} | ({L - 1, L, L + 1, L + 2} - {0} if L else set())
        for kind in OpKind:
            rows = range(1, (L + 2 if L else 40) + 1)
            nonzero = [n for n in rows if np.any(row_entries(kind, n, L or n + 3))]
            for cone, max_row in itertools.product(Cone, max_rows):
                plan = cone_plan(kind, cone, L, max_row=max_row)
                ok, zero, reason, flip_all, flip_rows = _switch_plan(kind, cone, L, max_row)
                case = (kind, cone, L, max_row)
                assert (plan.ok, plan.trivially_zero, plan.reason) == (ok, zero, reason), case
                if ok and not zero:
                    seen = [n for n in nonzero if max_row is None or n <= max_row]
                    want = [-1.0 if flip_all != (n in flip_rows) else 1.0 for n in seen]
                    assert [plan.flip.sign(n) for n in seen] == want, case


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
