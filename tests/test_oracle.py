import dataclasses
import warnings

import numpy as np
import pytest

from conftest import random_list_weight
from cesaro_copson.norms import SPECIALIZED_BY_KIND, Status, norm_cesaro, norm_general
from cesaro_copson import oracle
from cesaro_copson.operators import (ENTRY_FORMULAS, OpKind, PRINCIPAL_KINDS, ROW_SHAPES,
                                     SignFlip, cone_plan, entry, last_index_of_part,
                                     row_entries)
from cesaro_copson.oracle import (UnsupportedConeError, _horizons, _sample_cone,
                                  extremal_lower_bound, random_lower_bound,
                                  run_identity_suite, run_oracle_suite,
                                  run_power_consistency_suite, verify)
from cesaro_copson.weights import (Cone, ListWeight, PowerWeight, codomain_values,
                                   envelope_down, envelope_up, truncation_length,
                                   weight_values)

P = PowerWeight
ONES4 = ListWeight((1.0,) * 4)


def test_extremal_examples():
    e = extremal_lower_bound(OpKind.C, ONES4, ONES4, Cone.ALL, 4)
    assert e == pytest.approx(norm_cesaro(ONES4, ONES4, Cone.ALL).value, abs=1e-15)
    ones3 = ListWeight((1.0,) * 3)
    from cesaro_copson.norms import norm_c_minus_sstar
    e = extremal_lower_bound(OpKind.C_MINUS_SSTAR, ones3, ones3, Cone.NONNEG, 2)
    f = norm_c_minus_sstar(ones3, ones3, Cone.NONNEG).value
    assert e == pytest.approx(f, rel=1e-12)
    assert extremal_lower_bound(OpKind.CSTAR, P(2), P(2), Cone.NONDECR, 50) == 0.0


def test_extremal_rejects_open_problem():
    with pytest.raises(UnsupportedConeError):
        extremal_lower_bound(OpKind.CSTAR_MINUS_I, ONES4, ONES4, Cone.NONINCR, 4)


def test_random_lower_bound_examples():
    with pytest.raises(ValueError):
        random_lower_bound(OpKind.C, ONES4, ONES4, Cone.ALL, 4, 0, 1)
    r = random_lower_bound(OpKind.C, P(0.5), P(0.5), Cone.ALL, 10 ** 4, 200, 42)
    assert 0.0 < r <= 2.0 + 1e-9
    # identity with v_n u_n = 1: every nonzero sample achieves exactly 1
    u = ListWeight((2.0, 4.0, 5.0))
    v = ListWeight((0.5, 0.25, 0.2))
    r = random_lower_bound(OpKind.I, u, v, Cone.ALL, 3, 20, 7)
    assert r == pytest.approx(1.0, abs=1e-15)


def test_random_search_spec_parameters():
    # the prescribed uniform sampler plateaus well inside (0, 2]; the value
    # below is what the deterministic search yields at these parameters
    r = random_lower_bound(OpKind.C, P(0.5), P(0.5), Cone.ALL, 10 ** 4, 10 ** 3, 42)
    assert 0.0 < r <= 2.0
    assert r == pytest.approx(1.217287504109565, rel=1e-12)


# random_lower_bound's values, bit for bit, recorded when the batch held one
# sample per row: the batch-last layout draws the same stream and reduces
# the same numbers.  u has a zero weight (the masked ratios) and L_u != L_v.
_PIN_U = ListWeight((0.7, 1.3, 0.4, 0.0, 2.1, 0.9, 1.1))
_PIN_V = ListWeight((0.5, 1.2, 0.8, 0.0, 1.7, 0.3, 2.2, 0.6, 1.4, 0.9, 0.25))
_PINNED_LIST = {
    OpKind.C: (1.7030004820164355, 1.7955878939421206, 0.84, 0.9114285714285716),
    OpKind.CSTAR: (1.3700519191552696, 1.6725145587380632, 0.5916666666666666,
                   0.8281428571428572),
    OpKind.C_MINUS_I: (3.493970521060086, 2.7436521782096053, 0.612,
                       1.5813794995253556),
    OpKind.CSTAR_MINUS_I: (3.241566124790688, 2.7810113189918146,
                           0.29447288507251224, 2.0742857142857143),
    OpKind.C_MINUS_SSTAR: (2.702100663297878, 1.7955878939421206, 0.612,
                           1.2881984164540197),
    OpKind.CSTARSD: (0.7390465688096229, 0.35866352100572896, 0.30040341777459406,
                     0.2475),
}


@pytest.mark.parametrize("kind", PRINCIPAL_KINDS, ids=lambda k: k.name)
def test_random_search_keeps_its_recorded_bits(kind):
    for cone, want in zip(Cone, _PINNED_LIST[kind]):
        got = random_lower_bound(kind, _PIN_U, _PIN_V, cone, _PIN_V.length, 200, 5)
        assert got == want, cone


def test_random_search_extension_tail_and_rescale_keep_their_bits():
    # NONDECR on an infinite domain: (C*-S)D adds the constant extension's
    # tail to every row, C-S* zeroes the row at the window edge
    w = P(-0.5)
    assert random_lower_bound(OpKind.CSTARSD, w, w, Cone.NONDECR, 40, 100, 11) == \
        1.7025675190949425
    assert random_lower_bound(OpKind.C_MINUS_SSTAR, w, w, Cone.NONDECR, 40, 100, 11) == \
        1.4080189250898634
    # C-I's prefix sums of 1e308s overflow: the overflowing trials are taken
    # again against the rescaled batch, on every cone
    u, v = ListWeight((1e308,) * 3), ListWeight((1.0,) * 3)
    want = (1.2743365089679324e+308, 6.615924663423549e+307, 6.615924663423549e+307,
            5.867811519028502e+307)
    for cone, value in zip(Cone, want):
        assert random_lower_bound(OpKind.C_MINUS_I, u, v, cone, 3, 500, 7) == value, cone


def test_random_samples_lie_in_the_cone():
    u = ListWeight((0.5, 2.0, 0.0, 1.5, 3.0, 0.25, 1.0))
    K = u.length
    uvals, down, up = weight_values(u, K), envelope_down(u, K), envelope_up(u, K)
    for cone in Cone:
        X = _sample_cone(np.random.default_rng(3), cone, 64, uvals, down, up)
        assert X.shape == (K, 64)
        if cone is Cone.ALL:
            assert np.all(np.abs(X) <= uvals[:, None])
        elif cone is Cone.NONNEG:
            assert np.all((0.0 <= X) & (X <= uvals[:, None]))
        elif cone is Cone.NONINCR:
            assert np.all(np.diff(X, axis=0) <= 0.0)
            assert np.all((0.0 <= X) & (X <= down[:, None]))
        else:
            assert np.all(np.diff(X, axis=0) >= 0.0)
            assert np.all((0.0 <= X) & (X <= up[:, None]))
        again = _sample_cone(np.random.default_rng(3), cone, 64, uvals, down, up)
        assert np.array_equal(X, again)


@pytest.mark.parametrize("N", [0, -3])
@pytest.mark.parametrize("w", [P(0.5), ListWeight((1.0, 0.5, 0.25))], ids=["power", "list"])
@pytest.mark.parametrize("kind", [OpKind.C, OpKind.CSTAR], ids=["C", "Cstar"])
def test_window_below_one_is_rejected(kind, w, N):
    with pytest.raises(ValueError, match="N must be >= 1"):
        extremal_lower_bound(kind, w, w, Cone.ALL, N)
    with pytest.raises(ValueError, match="N must be >= 1"):
        random_lower_bound(kind, w, w, Cone.ALL, N, 10, 1)
    with pytest.raises(ValueError, match="N must be >= 1"):
        verify(kind, w, w, Cone.ALL, N=N, trials=10)


def test_window_must_be_an_integer():
    with pytest.raises(ValueError, match="N must be an integer"):
        extremal_lower_bound(OpKind.C, P(0.5), P(0.5), Cone.ALL, 2.5)
    with pytest.raises(ValueError, match="N must be an integer"):
        random_lower_bound(OpKind.C, P(0.5), P(0.5), Cone.ALL, 2.5, 10, 1)


def test_trial_count_must_be_an_integer():
    # numpy used to reject the float deep inside the sample draw, with
    # TypeError: 'float' object cannot be interpreted as an integer
    with pytest.raises(ValueError, match=r"trials must be an integer, not 5\.5"):
        random_lower_bound(OpKind.C, P(0.5), P(0.5), Cone.ALL, 10, 5.5, 1)
    with pytest.raises(ValueError, match=r"trials must be an integer, not 5\.5"):
        verify(OpKind.C, ONES4, ONES4, Cone.ALL, trials=5.5)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        random_lower_bound(OpKind.C, P(0.5), P(0.5), Cone.ALL, 10, 0, 1)
    assert random_lower_bound(OpKind.C, ONES4, ONES4, Cone.ALL, 4, np.int64(5), 1) == \
        random_lower_bound(OpKind.C, ONES4, ONES4, Cone.ALL, 4, 5, 1)


def test_overflowing_prefix_sum_is_rescaled_not_reported():
    # C's prefix sum 2e308 overflows, the norm (1/2)(2e308) does not
    rep = verify(OpKind.C, ListWeight((1e308, 1e308)), ListWeight((1.0, 1.0)), Cone.ALL)
    assert rep.passed and rep.extremal_value == 1e308 and rep.random_best <= 1e308


def test_overflowing_block_sums_are_rescaled_not_reported():
    # B u sums C-I's blocks before splitting off the diagonal; the witness
    # values reach 4/3 * 1e308 on ALL
    u, v = ListWeight((1e308,) * 3), ListWeight((1.0,) * 3)
    for cone in Cone:
        rep = verify(OpKind.C_MINUS_I, u, v, cone)
        assert rep.passed and np.isfinite(rep.random_best), cone
    assert extremal_lower_bound(OpKind.C_MINUS_I, u, v, Cone.ALL, 3) == \
        pytest.approx(1e308 / 3 * 4, rel=1e-15)


def test_overflowing_supremum_is_a_clear_error():
    # v_n (C u)_n is about n**799 / 800: row 5 is far past float64
    with pytest.raises(ValueError, match="overflows float64"):
        extremal_lower_bound(OpKind.C, P(-400), P(400), Cone.ALL, 5)
    with pytest.raises(ValueError, match="overflows float64"):
        random_lower_bound(OpKind.C, P(-400), P(400), Cone.ALL, 5, 20, 1)


@pytest.mark.parametrize("cone", list(Cone), ids=lambda c: c.name)
def test_overflowing_weight_is_a_clear_error(cone):
    # u_6 = 6**400 overflows float64: the random search used to drop every
    # sample (its ratio is NaN) and return 0.0, which bounds nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="overflows float64"):
            random_lower_bound(OpKind.C, P(-400), P(400), cone, 6, 10, 1)
        with pytest.raises(ValueError, match="overflows float64"):
            random_lower_bound(OpKind.C, P(0.5), P(400), cone, 6, 10, 1)
    with pytest.raises(ValueError, match="overflows float64"):
        extremal_lower_bound(OpKind.C, P(-400), P(400), Cone.ALL, 6)


def counted_formulas(monkeypatch):
    """Record every evaluation of a literal entry formula, as (kind, n, k)."""
    calls = []

    def counted(kind, real):
        def formula(n, k):
            calls.append((kind, n, k))
            return real(n, k)
        return formula

    for kind, real in list(ENTRY_FORMULAS.items()):
        monkeypatch.setitem(ENTRY_FORMULAS, kind, counted(kind, real))
    return calls


def test_kinds_without_an_off_sign_entry_read_no_entries(monkeypatch):
    calls = counted_formulas(monkeypatch)
    e = extremal_lower_bound(OpKind.C, P(0.5), P(0.5), Cone.ALL, 10 ** 6)
    assert not calls
    # the value of the literal prefix-sum evaluation this replaced
    assert e == pytest.approx(1.9985401454911986, rel=1e-12)
    for kind in (OpKind.CSTAR, OpKind.S, OpKind.D, OpKind.E, OpKind.I):
        extremal_lower_bound(kind, P(0.7), P(0.7), Cone.ALL, 200)
    assert not calls


def test_one_entry_per_row_at_most(monkeypatch):
    calls = counted_formulas(monkeypatch)
    extremal_lower_bound(OpKind.C_MINUS_I, P(0.5), P(0.5), Cone.ALL, 2000)
    assert 0 < len(calls) <= 2000
    assert len({n for _, n, _ in calls}) == len(calls)


@pytest.mark.parametrize("kind", PRINCIPAL_KINDS, ids=lambda k: k.name)
def test_one_entry_call_per_row_with_an_off_sign_column(kind, monkeypatch, rng):
    # the coefficient of each row's off-sign entry is one evaluation of the
    # kind's literal formula, at that row and column, once per process for a
    # given row shape and formula: a window evaluates only its rows past the
    # largest window read before (the counted formulas start a cold table),
    # the same window again evaluates none, and flipped rows carry the flip's
    # sign, with the bits of entry().  The list pair has rows past the column
    # horizon, without such a column; the last pair is a larger window
    calls = counted_formulas(monkeypatch)
    pairs = ((random_list_weight(rng, 7), random_list_weight(rng, 12), 60),
             (P(0.5), P(0.5), 60), (P(0.5), P(0.5), 90))
    evaluated, wanted, flipped = [], set(), 0
    for u, v, N in pairs:
        rows, cols = _horizons(u, v, N)
        want = [(n, j) for n in range(1, rows + 1)
                if (j := last_index_of_part(kind, n, cols, negative=True))]
        wanted.update((kind, n, j) for n, j in want)
        for cone in Cone:
            calls.clear()
            try:
                extremal_lower_bound(kind, u, v, cone, N)
            except UnsupportedConeError:
                continue
            plan = cone_plan(kind, cone, truncation_length(u), max_row=truncation_length(v))
            done = {n for _, n, _ in evaluated}
            new = [] if plan.trivially_zero else [(kind, n, j) for n, j in want
                                                  if n not in done]
            assert calls == new, (cone, u, N)
            evaluated += calls
            calls.clear()
            extremal_lower_bound(kind, u, v, cone, N)
            assert calls == [], (cone, u, N)
            coefs = oracle._off_sign_coefficients(
                kind, *oracle._off_sign_columns(kind, rows, cols), plan.flip)
            evaluated += calls
            signed = [entry(kind, n, j, plan.flip) for n, j in want]
            assert coefs.tolist() == signed, (cone, u, N)
            flipped += sum(plan.flip.sign(n) < 0 for n, _ in want)
    # every off-sign pair of every window, each evaluated once
    assert sorted(evaluated) == sorted(wanted)
    if any(k is kind for k, _ in FLIPPED):
        assert flipped > 0


OFF_SIGN_KINDS = [k for k in PRINCIPAL_KINDS if ROW_SHAPES[k].neg_scale is not None]


@pytest.mark.parametrize("kind", OFF_SIGN_KINDS, ids=lambda k: k.name)
def test_replacing_the_row_shape_rebuilds_the_coefficient_table(kind, monkeypatch):
    # the table remembers the row shape it selected its rows by: an equal
    # but new ROW_SHAPES entry evaluates every row again, to the same bits
    calls = counted_formulas(monkeypatch)
    u = P(0.5)
    e0 = extremal_lower_bound(kind, u, u, Cone.ALL, 40)
    first = list(calls)
    assert first
    calls.clear()
    monkeypatch.setitem(ROW_SHAPES, kind, dataclasses.replace(ROW_SHAPES[kind]))
    assert extremal_lower_bound(kind, u, u, Cone.ALL, 40) == e0
    assert calls == first
    calls.clear()
    assert extremal_lower_bound(kind, u, u, Cone.ALL, 40) == e0
    assert calls == []
    # the rebuilt table holds 8 B per row of the one window read
    coefs = oracle._OFF_SIGN_TABLES[kind].coefs
    assert coefs.dtype == np.float64 and coefs.size <= 40


@pytest.mark.parametrize("kind", OFF_SIGN_KINDS, ids=lambda k: k.name)
def test_the_coefficient_table_is_read_only(kind):
    # every window reads the same array: no caller can write into it, and
    # the coefficients a window returns are its own copy
    n, j = oracle._off_sign_columns(kind, 30, 30)
    coefs = oracle._off_sign_coefficients(kind, n, j, SignFlip(1, None))
    table = oracle._OFF_SIGN_TABLES[kind]
    assert table.shape is ROW_SHAPES[kind] and table.formula is ENTRY_FORMULAS[kind]
    assert table.coefs.size >= n[-1] and not table.coefs.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table.coefs[n[0] - 1] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.coefs = np.zeros(30)
    coefs[:] = 0.0
    assert oracle._off_sign_coefficients(kind, n, j, SignFlip()).tolist() == [
        entry(kind, a, b) for a, b in zip(n.tolist(), j.tolist())]


@pytest.mark.parametrize("K", [1, 2, 7, 2000])
def test_off_sign_columns_are_last_index_of_part(K):
    # the one array pass the witnesses read, against the per-row scalar
    # code, on rows past the column horizon as well
    for kind in OpKind:
        want = [(n, j) for n in range(1, K + 3)
                if (j := last_index_of_part(kind, n, K, negative=True))]
        n, j = oracle._off_sign_columns(kind, K + 2, K)
        assert list(zip(n.tolist(), j.tolist())) == want, kind


def test_coefficients_and_engine_read_separate_statements(monkeypatch, rng):
    # the oracle's off-sign coefficients come from the literal entry
    # formulas alone, and the engine reads only the row shapes: perturbing
    # one moves one side and not the other
    kind, cone = OpKind.C_MINUS_I, Cone.ALL
    u, v = random_list_weight(rng, 9, 0.0), random_list_weight(rng, 9, 0.0)
    e0 = extremal_lower_bound(kind, u, v, cone, 9)
    g0 = norm_general(kind, u, v, cone).value
    real = ENTRY_FORMULAS[kind]
    with monkeypatch.context() as m:
        m.setitem(ENTRY_FORMULAS, kind, lambda n, k: real(n, k) * (1 + 1e-6))
        assert extremal_lower_bound(kind, u, v, cone, 9) != e0
        assert norm_general(kind, u, v, cone).value == g0
    n, j = oracle._off_sign_columns(kind, 9, 9)
    c0 = oracle._off_sign_coefficients(kind, n, j, SignFlip())
    sh = ROW_SHAPES[kind]

    def neg_scale(x, m, out=None):
        r = sh.neg_scale(x, m, out)
        return r * (1 + 1e-6) if out is None else np.multiply(r, 1 + 1e-6, out=out)

    monkeypatch.setitem(ROW_SHAPES, kind, dataclasses.replace(sh, neg_scale=neg_scale))
    assert norm_general(kind, u, v, cone).value != g0
    assert oracle._off_sign_coefficients(kind, n, j, SignFlip()).tolist() == c0.tolist()


def masked_witness_values(kind, u, v, cone, N):
    """The literal O(N^2) witness evaluation: every row from row_entries and
    every witness a full-width array, masked by the row's signs or by where
    its part ends."""
    plan = cone_plan(kind, cone, truncation_length(u), max_row=truncation_length(v))
    if plan.trivially_zero:
        return 0.0
    rows, cols = _horizons(u, v, N)
    vvals, uvals = codomain_values(v, rows), weight_values(u, cols)
    down, up = envelope_down(u, cols), envelope_up(u, cols)
    cols_1 = np.arange(1, cols + 1)
    best = 0.0
    for n in range(1, rows + 1):
        e = row_entries(kind, n, cols)
        if cone is Cone.ALL:
            val = abs(float(e @ (np.sign(e) * uvals)))
        elif cone is Cone.NONNEG:
            xp = np.where(e > 0, uvals, 0.0)
            xm = np.where(e < 0, uvals, 0.0)
            val = max(abs(float(e @ xp)), abs(float(e @ xm)))
        elif cone is Cone.NONINCR:
            m = last_index_of_part(kind, n, cols, negative=False, flip=plan.flip)
            val = abs(float(e @ np.where(cols_1 <= m, down, 0.0)))
        else:
            m = last_index_of_part(kind, n, cols, negative=True, flip=plan.flip)
            val = abs(float(e @ np.where(cols_1 > m, up, 0.0)))
        best = max(best, vvals[n - 1] * val)
    return best


# the kinds and cones of the benchmark's N = 2000 windows, with an alpha where
# each norm is finite
WINDOW_2000 = {(OpKind.C, Cone.ALL): 0.5}
WINDOW_2000.update({(OpKind.CSTAR, c): 0.7 for c in (Cone.ALL, Cone.NONNEG, Cone.NONINCR)})
WINDOW_2000.update({(OpKind.C_MINUS_I, c): 0.5 for c in Cone})
WINDOW_2000.update({(OpKind.CSTAR_MINUS_I, c): 0.7 for c in (Cone.ALL, Cone.NONNEG)})
# the plans that flip rows (C*-I on NONDECR holds, unflipped, only while v is
# shorter than u, as in the (12, 3), (40, 5) and (25, 2) list pairs)
FLIPPED = {(OpKind.C_MINUS_I, Cone.NONDECR), (OpKind.C_MINUS_SSTAR, Cone.NONDECR),
           (OpKind.CSTARSD, Cone.NONINCR)}


# C*-I on NONINCR is the open problem
@pytest.mark.parametrize("kind, cone", [
    (k, c) for k in PRINCIPAL_KINDS for c in Cone
    if (k, c) != (OpKind.CSTAR_MINUS_I, Cone.NONINCR)
], ids=lambda kc: kc.name)
def test_witness_values_match_masked_witnesses(kind, cone, rng):
    # B w for all rows sums each row's block in another order than the
    # literal row loop, so the two agree to rounding, not bit for bit
    cases = [(random_list_weight(rng, L), random_list_weight(rng, L), L)
             for L in (1, 2, 7, 40)]
    # L_u != L_v: rows past the column horizon, and rows stopping short of it
    cases += [(random_list_weight(rng, L_u), random_list_weight(rng, L_v), N)
              for L_u, L_v, N in ((3, 12, 12), (1, 6, 9), (12, 3, 12), (40, 5, 40),
                                  (40, 9, 7), (25, 2, 25))]
    cases += [(random_list_weight(rng, 9), P(0.5), 30)]
    cases += [(P(a), P(b), N) for a, b in ((0.5, 0.5), (-0.5, -0.7), (1.5, 1.2))
              for N in (1, 50, 300)]
    if (kind, cone) in WINDOW_2000:
        a = WINDOW_2000[kind, cone]
        cases.append((P(a), P(a), 2000))
    checked = flipped = 0
    for u, v, N in cases:
        plan = cone_plan(kind, cone, truncation_length(u), max_row=truncation_length(v))
        if not plan.ok:
            continue
        got = extremal_lower_bound(kind, u, v, cone, N)
        want = masked_witness_values(kind, u, v, cone, N)
        assert got == pytest.approx(want, rel=1e-14, abs=0), (u, v, N)
        checked += 1
        flipped += plan.flip != SignFlip()
    assert checked >= 10
    if (kind, cone) in FLIPPED:
        assert flipped >= 5


def test_exactness_on_truncated_problems(rng):
    checked = 0
    for kind in PRINCIPAL_KINDS:
        for cone in Cone:
            if kind is OpKind.CSTAR_MINUS_I and cone is Cone.NONINCR:
                continue
            for _ in range(8):
                L = int(rng.integers(1, 21))
                u = random_list_weight(rng, L)
                v = random_list_weight(rng, L)
                try:
                    rep = verify(kind, u, v, cone, trials=200, seed=7)
                except UnsupportedConeError:
                    continue
                assert rep.passed, (kind, cone, rep)
                checked += 1
    assert checked > 100


def test_verify_with_unequal_lengths():
    # u and v of different lengths, one column included: the suites draw
    # one shared length, so they never see a v longer than u
    rng = np.random.default_rng(20261019)
    checked = 0
    for kind in PRINCIPAL_KINDS:
        for cone in Cone:
            if kind is OpKind.CSTAR_MINUS_I and cone is Cone.NONINCR:
                continue   # the open problem
            for L_u in (1, 2, 3):
                for L_v in range(1, 8):
                    if L_v == L_u or not cone_plan(kind, cone, L_u, max_row=L_v).ok:
                        continue
                    u = random_list_weight(rng, L_u)
                    v = random_list_weight(rng, L_v)
                    rep = verify(kind, u, v, cone, trials=100, seed=L_u * 8 + L_v)
                    assert rep.passed, (kind, cone, u, v, rep)
                    checked += 1
    assert checked >= 300


def test_lower_bound_soundness_on_power(rng):
    for kind in PRINCIPAL_KINDS:
        for cone in Cone:
            for alpha in (-0.5, 0.5, 2.0):
                f = SPECIALIZED_BY_KIND[kind](P(alpha), P(alpha), cone)
                if f.status is Status.UNSUPPORTED:
                    continue
                try:
                    e = extremal_lower_bound(kind, P(alpha), P(alpha), cone, 400)
                except UnsupportedConeError:
                    continue
                r = random_lower_bound(kind, P(alpha), P(alpha), cone, 400, 150, 3)
                assert e <= f.value + 1e-9
                assert r <= f.value + 1e-9


def test_convergence_from_below_at_large_window():
    # the supremum for the averaging operator at alpha in (0,1) is a limit;
    # the witness value climbs to within 1% by N = 1e6
    f = 2.0
    prev = 0.0
    for N in (10 ** 2, 10 ** 4, 10 ** 6):
        e = extremal_lower_bound(OpKind.C, P(0.5), P(0.5), Cone.ALL, N)
        assert prev <= e <= f + 1e-12
        prev = e
    assert (f - prev) / f < 0.01


def test_verify_report_determinism():
    u = ListWeight((0.5, 0.2, 0.9))
    v = ListWeight((1.0, 0.3, 0.7))
    r1 = verify(OpKind.CSTARSD, u, v, Cone.ALL, trials=64, seed=5)
    r2 = verify(OpKind.CSTARSD, u, v, Cone.ALL, trials=64, seed=5)
    assert r1 == r2
    assert r1.to_dict()["pass"] is True


@pytest.mark.parametrize("kind", [OpKind.S, OpKind.SSTAR, OpKind.D, OpKind.E, OpKind.I],
                         ids=lambda k: k.name)
def test_verify_refuses_a_helper_kind(kind):
    # the helpers have no norm formula to verify: a clear error naming the
    # principal kinds, not a KeyError from the formula table
    w = ListWeight((1.0, 2.0, 3.0))
    with pytest.raises(ValueError, match="principal kind.*CSTARSD.*not " + kind.name):
        verify(kind, w, w, Cone.ALL)


def test_verify_propagates_unsupported():
    with pytest.raises(UnsupportedConeError):
        verify(OpKind.CSTAR_MINUS_I, ONES4, ONES4, Cone.NONINCR)


def test_zero_weight_all_paths_zero():
    u = ListWeight((0.0,) * 5)
    v = ListWeight((1.0,) * 5)
    rep = verify(OpKind.CSTARSD, u, v, Cone.ALL, trials=50, seed=1)
    assert rep.formula_value == 0.0 and rep.extremal_value == 0.0
    assert rep.random_best == 0.0 and rep.passed


def test_oracle_suite_draws_the_two_lengths_apart():
    # L_u and L_v are drawn separately, the first pair has a one-column u,
    # and every report names both lengths
    oc = run_oracle_suite(pairs=6, trials=40, seed=3)
    assert all(c["pass"] for c in oc)
    lengths = {(c["pair"], c["L_u"], c["L_v"]) for c in oc}
    assert len(lengths) == 6
    assert all(L_u == 1 for pair, L_u, _ in lengths if pair == 0)
    assert any(L_u != L_v for _, L_u, L_v in lengths)


def test_suite_runners_smoke():
    ids = run_identity_suite(count=50, N=30, seed=1)
    assert ids["pass"]
    pc = run_power_consistency_suite(n_max=20000, alphas=(-1.0, 0.5))
    assert all(c["pass"] for c in pc)
    # every kind with a closed form is checked, C - S* on ALL and NONINCR too
    assert {("cesaro-minus-shift", "all"), ("cesaro-minus-shift", "nonincr")} <= {
        (c["op"], c["cone"]) for c in pc}
    oc = run_oracle_suite(pairs=3, trials=60, seed=9)
    assert all(c["pass"] for c in oc)
    assert any(c.get("skipped") for c in oc)  # hypothesis-violating combos


def test_suite_runners_reject_a_run_that_checks_nothing(monkeypatch):
    # pairs=0 used to return [] and N=0 to pass without comparing a row;
    # negative pairs, L_max=0 and support_max=0 failed inside numpy's draw
    # ("negative dimensions", "low >= high")
    for call, message in ((lambda: run_oracle_suite(pairs=0), "pairs must be >= 1"),
                          (lambda: run_oracle_suite(pairs=-3), "pairs must be >= 1"),
                          (lambda: run_oracle_suite(pairs=2.5), "pairs must be an integer"),
                          (lambda: run_oracle_suite(pairs=2, trials=0), "trials must be >= 1"),
                          (lambda: run_oracle_suite(pairs=2, trials=10, L_max=0),
                           "L_max must be >= 1"),
                          (lambda: run_identity_suite(N=0), "N must be >= 1"),
                          (lambda: run_identity_suite(count=0), "count must be >= 1"),
                          (lambda: run_identity_suite(count=3, support_max=0),
                           "support_max must be >= 1")):
        with pytest.raises(ValueError, match=message):
            call()
    # run_all_suites checks its counts before the slow power-consistency suite
    monkeypatch.setattr(oracle, "run_power_consistency_suite", None)
    for kwargs, message in (({"oracle_pairs": 0}, "pairs"), ({"N": 0}, "N"),
                            ({"trials": -1}, "trials")):
        with pytest.raises(ValueError, match=f"{message} must be >= 1"):
            oracle.run_all_suites(**kwargs)
