import math

import numpy as np
import pytest

from conftest import random_list_weight
from cesaro_copson import norms
from cesaro_copson.norms import (SPECIALIZED_BY_KIND, NormResult, Status,
                                 TruncConfig,
                                 _finite_sup, _part_values, _SeqData,
                                 dist_cesaro_identity, dist_copson_identity,
                                 norm_c_minus_sstar, norm_cesaro, norm_copson,
                                 norm_cstarsd, norm_general)
from cesaro_copson.operators import (INV_K, INV_K_KP1, PRINCIPAL_KINDS, ROW_SHAPES, OpKind,
                                     cone_plan, entry)
from cesaro_copson.two_operator import Direction, TwoOpQuery, best_constant
from cesaro_copson.weights import (Cone, ListWeight, PowerWeight, codomain_values,
                                   envelope_down, envelope_up, weight_values)

P = PowerWeight
CONES = list(Cone)
FAST = TruncConfig(n_max=3000)


def L(*vals):
    return ListWeight(tuple(float(t) for t in vals))


class TestSpecExamples:
    def test_cesaro(self):
        r = norm_cesaro(P(0.5), P(0.5), Cone.ALL)
        assert r.value == pytest.approx(2.0, abs=1e-12)
        assert r.status is Status.CLOSED_FORM
        assert norm_cesaro(P(-1), P(-1), Cone.NONINCR).value == 1.0
        assert norm_cesaro(L(3, 1, 2), L(1, 0, 0), Cone.ALL).value == pytest.approx(3.0)

    def test_copson(self):
        r = norm_copson(P(1), P(1), Cone.NONNEG)
        assert r.value == pytest.approx(math.pi ** 2 / 6, abs=1e-10)
        r = norm_copson(P(-1), P(-1), Cone.ALL)
        assert r.status is Status.DIVERGENT and r.value == math.inf
        r = norm_copson(P(3), P(3), Cone.NONDECR)
        assert r.value == 0.0 and r.status is Status.CLOSED_FORM

    def test_cesaro_minus_identity(self):
        assert dist_cesaro_identity(P(0.5), P(0.5), Cone.ALL).value == pytest.approx(3.0)
        assert dist_cesaro_identity(P(-1), P(-1), Cone.NONNEG).value == 1.0
        assert dist_cesaro_identity(P(0), P(0), Cone.NONDECR).value == 1.0

    def test_copson_minus_identity(self):
        assert dist_copson_identity(P(2), P(2), Cone.ALL).value == pytest.approx(1.5)
        assert dist_copson_identity(P(0.5), P(0.5), Cone.NONNEG).value == pytest.approx(2.0)
        r = dist_copson_identity(P(1), P(1), Cone.NONINCR)
        assert r.status is Status.UNSUPPORTED
        r = dist_copson_identity(L(1, 1, 1), L(1, 1, 1), Cone.NONINCR)
        assert r.status is Status.UNSUPPORTED  # open problem, never computed

    def test_c_minus_sstar(self):
        r = norm_c_minus_sstar(P(0), P(0), Cone.ALL, FAST)
        assert r.value == pytest.approx(2.0, abs=1e-12)
        assert norm_c_minus_sstar(L(1, 1), L(1), Cone.NONNEG).value == pytest.approx(1.0)
        r = norm_c_minus_sstar(P(0), P(0), Cone.NONDECR, FAST)
        assert r.value == pytest.approx(1.0, abs=1e-12)
        # on ALL and NONINCR it is the C <= A C* constant on ALL and NONNEG:
        # (2 - a)/(1 - a) and 1/(1 - a) for 0 < a < 1, infinite for a >= 1
        for cone, value in ((Cone.ALL, 17 / 7), (Cone.NONINCR, 10 / 7)):
            r = norm_c_minus_sstar(P(0.3), P(0.3), cone)
            assert r.status is Status.CLOSED_FORM
            assert r.value == pytest.approx(value, rel=1e-15)
            r = norm_c_minus_sstar(P(1.3), P(1.3), cone)
            assert r.status is Status.DIVERGENT and r.value == math.inf
        # no theorem on the nonnegative cone: it still scans
        r = norm_c_minus_sstar(P(0.3), P(0.3), Cone.NONNEG, FAST)
        assert r.status is Status.TRUNCATED_LOWER_BOUND

    def test_cstarsd(self):
        r = norm_cstarsd(P(0), P(0), Cone.NONDECR, FAST)
        assert r.value == pytest.approx(1.0, abs=1e-9)
        # nonincreasing cone: the full first row dominates (brute-force
        # verified: the proper preprocessing keeps row 1 unflipped)
        r = norm_cstarsd(P(0), P(0), Cone.NONINCR, FAST)
        assert r.value == pytest.approx(1.0, abs=1e-9)
        assert norm_cstarsd(L(0, 0, 0), L(1, 1, 1), Cone.ALL).value == 0.0

    def test_norm_general_identity_and_ones(self):
        r = norm_general(OpKind.I, L(2, 4), L(0.5, 0.25), Cone.ALL)
        assert r.value == pytest.approx(1.0)
        r = norm_general(OpKind.C, L(1, 1, 1, 1), L(1, 1, 1, 1), Cone.ALL)
        assert r.value == pytest.approx(1.0)


def test_one_column_cstarsd_on_nondecr_is_refused():
    # with one column the nondecreasing cone is x_1 >= 0, so the true norm
    # is NONNEG's, max(v_1, v_2) u_1 / 2 = 2**0.3 / 2 = 0.61557.  Row 2 of
    # the one-column block has sum -1/2, as rows 2..L+1 have sum -1/(L+1)
    # for any L, so the plan refuses L = 1 as it refuses L >= 2; it used to
    # return ClosedForm 0.5
    u, v = L(1), P(0.3)
    assert norm_cstarsd(u, v, Cone.NONDECR).status is Status.UNSUPPORTED
    assert norm_general(OpKind.CSTARSD, u, v, Cone.NONDECR).status is Status.UNSUPPORTED
    assert not cone_plan(OpKind.CSTARSD, Cone.NONDECR, 1).ok
    assert norm_cstarsd(u, v, Cone.NONNEG).value == pytest.approx(2 ** 0.3 / 2, rel=1e-15)
    # a one-row v never reads row 2: x_1 >= 0 gives u_1 v_1 / 2
    assert cone_plan(OpKind.CSTARSD, Cone.NONDECR, 1, max_row=1).ok
    assert norm_cstarsd(u, L(1), Cone.NONDECR).value == 0.5


def test_nonincr_cstarsd_includes_first_row(rng):
    # the first-row term v_1 sum u_down_k/(k(k+1)) can dominate; a formula
    # without it would undercount (cross-checked against a cone search in
    # the oracle tests)
    u = L(1, 1, 1, 1, 1, 1)
    r = norm_cstarsd(u, L(1, 0, 0, 0, 0, 0), Cone.NONINCR)
    ks = np.arange(1, 7)
    assert r.value == pytest.approx(float(np.sum(1.0 / (ks * (ks + 1)))))


def test_generic_agrees_with_specialized_on_lists(rng):
    for _ in range(40):
        u = random_list_weight(rng, int(rng.integers(1, 31)))
        v = random_list_weight(rng, int(rng.integers(1, 31)))
        for kind, op in SPECIALIZED_BY_KIND.items():
            for cone in CONES:
                a = op(u, v, cone, FAST)
                b = norm_general(kind, u, v, cone, FAST)
                if Status.UNSUPPORTED in (a.status, b.status):
                    # the open problem is refused by the specialised op even
                    # on tiny truncations where the theorem machinery applies
                    assert a.status == b.status or kind is OpKind.CSTAR_MINUS_I
                    continue
                assert a.value == pytest.approx(b.value, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("alpha", [-2, -1, -0.5, 0, 0.3, 0.7, 1, 1.5, 2])
def test_generic_agrees_with_specialized_on_power_grid(alpha):
    cfg = TruncConfig(n_max=20000)
    u = v = P(alpha)
    for kind, op in SPECIALIZED_BY_KIND.items():
        for cone in CONES:
            a = op(u, v, cone, cfg)
            b = norm_general(kind, u, v, cone, cfg)
            if Status.UNSUPPORTED in (a.status, b.status):
                assert a.status == b.status
                continue
            if math.isinf(a.value) or math.isinf(b.value):
                assert a.value == b.value
                continue
            tol = max(1e-9, a.residual_estimate + b.residual_estimate)
            assert abs(a.value - b.value) <= tol * (1 + abs(b.value))


def test_entry_points_are_the_engine_off_matched_pairs(rng):
    # mismatched power pairs, list-u / power-v and power-u / list-v: no
    # closed form and no dense path, so each entry point and norm_general
    # read the same engine rows and return the same result
    lists = [random_list_weight(rng, m) for m in (1, 9, 40)]
    pairs = ([(P(a), P(b)) for a, b in ((0.5, 0.3), (-0.5, -0.8), (1.5, 1.2), (0.3, 0.9))]
             + [(w, P(b)) for w in lists for b in (0.4, -0.5)]
             + [(P(a), w) for w in lists for a in (0.6, -0.5)])
    cfg = TruncConfig(n_max=20000)
    for u, v in pairs:
        for kind, op in SPECIALIZED_BY_KIND.items():
            for cone in CONES:
                got = op(u, v, cone, cfg)
                if kind is OpKind.CSTAR_MINUS_I and cone is Cone.NONINCR:
                    assert got.status is Status.UNSUPPORTED   # the open problem
                    continue
                assert got == norm_general(kind, u, v, cone, cfg), (kind, cone, u, v)


def test_cone_ordering(rng):
    # nested cones: A_down <= A_plus <= A_all and A_up <= A_plus
    for _ in range(25):
        u = random_list_weight(rng, int(rng.integers(1, 25)))
        v = random_list_weight(rng, int(rng.integers(1, 25)))
        for kind, op in SPECIALIZED_BY_KIND.items():
            vals = {}
            for cone in CONES:
                r = op(u, v, cone, FAST)
                if r.status is not Status.UNSUPPORTED:
                    vals[cone] = r.value
            slack = 1e-12 * (1 + vals.get(Cone.ALL, 0.0))
            if Cone.NONNEG in vals and Cone.ALL in vals:
                assert vals[Cone.NONNEG] <= vals[Cone.ALL] + slack
            if Cone.NONINCR in vals and Cone.NONNEG in vals:
                assert vals[Cone.NONINCR] <= vals[Cone.NONNEG] + slack
            if Cone.NONDECR in vals and Cone.NONNEG in vals:
                assert vals[Cone.NONDECR] <= vals[Cone.NONNEG] + slack


def test_envelope_substitution_invariance(rng):
    from cesaro_copson.weights import envelope_down, envelope_up
    for _ in range(20):
        Lu = int(rng.integers(2, 20))
        u = random_list_weight(rng, Lu, zero_frac=0.0)
        v = random_list_weight(rng, Lu)
        u_down = ListWeight(tuple(envelope_down(u, Lu)))
        u_up = ListWeight(tuple(envelope_up(u, Lu)))
        for op in SPECIALIZED_BY_KIND.values():
            a = op(u, v, Cone.NONINCR, FAST)
            b = op(u_down, v, Cone.NONINCR, FAST)
            if Status.UNSUPPORTED not in (a.status, b.status):
                assert a.value == pytest.approx(b.value, rel=1e-14, abs=1e-14)
            a = op(u, v, Cone.NONDECR, FAST)
            b = op(u_up, v, Cone.NONDECR, FAST)
            if Status.UNSUPPORTED not in (a.status, b.status):
                assert a.value == pytest.approx(b.value, rel=1e-14, abs=1e-14)


def test_monotone_truncation_in_n_max():
    u = v = P(0.7)
    prev = 0.0
    for n_max in (10, 100, 1000, 10000):
        r = norm_cesaro(u, P(0.69), Cone.ALL, TruncConfig(n_max=n_max))
        assert r.value >= prev - 1e-15
        prev = r.value


def test_scaling_homogeneity(rng):
    u = random_list_weight(rng, 12, zero_frac=0.0)
    v = random_list_weight(rng, 12, zero_frac=0.0)
    cu = ListWeight(tuple(2.0 * t for t in u.values))
    cv = ListWeight(tuple(4.0 * t for t in v.values))
    for op in SPECIALIZED_BY_KIND.values():
        for cone in CONES:
            base = op(u, v, cone, FAST)
            if base.status is Status.UNSUPPORTED:
                continue
            assert op(cu, v, cone, FAST).value == pytest.approx(2 * base.value, abs=1e-14)
            assert op(u, cv, cone, FAST).value == pytest.approx(4 * base.value, abs=1e-14)


def test_statuses_on_scans():
    # an unmatched power pair stops where its proven tail bound closes
    r = norm_cesaro(P(0.5), P(0.3), Cone.ALL, TruncConfig(n_max=50000))
    assert r.status is Status.TRUNCATED_CONVERGED and r.n_used == 256
    # a rapidly growing unmatched pair: its prefix rows grow like n**4, so
    # their floor decides it before any scan
    r = norm_cesaro(P(-1.0), P(3.0), Cone.ALL, TruncConfig(n_max=100000))
    assert repr(r) == repr(NormResult(math.inf, Status.DIVERGENT, 0, 0.0))
    # certificate: matched pair at alpha close to 1 converges slowly but the
    # monotone certificate still certifies the limit
    r = norm_general(OpKind.C, P(0.99), P(0.99), Cone.ALL, TruncConfig(n_max=200000))
    assert r.status is Status.TRUNCATED_CONVERGED
    assert r.value == pytest.approx(100.0, abs=1e-9)
    assert r.residual_estimate <= 1e-9


@pytest.mark.parametrize("call", [
    lambda: norm_copson(P(0.3), P(0.301), Cone.ALL),
    lambda: norm_general(OpKind.C, P(-0.7), P(-0.699), Cone.NONDECR),
    lambda: norm_general(OpKind.C_MINUS_SSTAR, P(-0.7), P(-0.699), Cone.NONDECR),
], ids=["copson-all", "cesaro-nondecr", "c-minus-sstar-nondecr"])
def test_stalled_infinite_norm_is_only_a_lower_bound(call):
    # the rows grow like n**0.001 without bound, far too slowly for the
    # running max to move over 10^6 rows; a stalled max used to be
    # reported as TruncatedConverged.  The floor of the part each large row
    # reads grows against v_n, so the rows are Divergent before any scan
    r = call()
    assert r.status is not Status.TRUNCATED_CONVERGED
    assert repr(r) == repr(NormResult(math.inf, Status.DIVERGENT, 0, 0.0))


def test_single_row_scan_is_only_a_lower_bound():
    # one row proves nothing (its tail bound does not close); the supremum
    # 1.0588 is at n = 3
    r = norm_cesaro(P(0.5), P(0.3), Cone.ALL, TruncConfig(n_max=1))
    assert r.status is Status.TRUNCATED_LOWER_BOUND
    assert r.value == pytest.approx(1.0)


def test_trunc_config_validation():
    with pytest.raises(ValueError):
        TruncConfig(n_max=0)
    with pytest.raises(ValueError):
        TruncConfig(tol=-1.0)


@pytest.mark.parametrize("kwargs", [
    {"n_max": 1e5}, {"n_max": True}, {"n_max": False}, {"n_max": "10"},
    {"tol": math.nan},
], ids=repr)
def test_trunc_config_rejects_values_that_break_later(kwargs):
    # a float n_max used to fail deep inside the scan, True came back as
    # n_used=True, and NaN tolerances disabled every convergence test
    with pytest.raises(ValueError):
        TruncConfig(**kwargs)


def test_trunc_config_takes_numpy_integers():
    cfg = TruncConfig(n_max=np.int64(5000))
    assert cfg.n_max == 5000 and type(cfg.n_max) is int
    assert norm_cesaro(P(0.5), P(0.3), Cone.ALL, cfg).n_used == 256


def _c_le_cstar(u, v):
    return best_constant(TwoOpQuery(Direction.C_LE_CSTAR, Cone.ALL, u, v))


@pytest.mark.parametrize("call, length", [
    (lambda u, v: norm_cesaro(u, v, Cone.ALL), 3),
    (lambda u, v: norm_copson(u, v, Cone.ALL), 3),
    (lambda u, v: dist_cesaro_identity(u, v, Cone.ALL), 3),
    (lambda u, v: norm_c_minus_sstar(u, v, Cone.ALL), 3),
    (lambda u, v: norm_general(OpKind.C, u, v, Cone.ALL), 3),
    (_c_le_cstar, 2),
], ids=["cesaro", "copson", "cesaro-id", "c-minus-sstar", "general-c", "c-le-cstar"])
def test_float_overflow_on_a_finite_problem_is_not_divergence(call, length):
    # with u = (1e308, ...) the prefix sums and tails overflow although the
    # problem is finite: the answer is 1e308 times the all-ones answer, or a
    # ValueError naming the overflow when that does not fit in a float64
    ones = L(*[1.0] * length)
    expected = 1e308 * call(ones, ones).value
    if math.isinf(expected):
        with pytest.raises(ValueError, match="overflow"):
            call(L(*[1e308] * length), ones)
        return
    r = call(L(*[1e308] * length), ones)
    assert r.status is Status.CLOSED_FORM
    assert r.value == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("kind", list(OpKind), ids=lambda k: k.name)
def test_part_values_match_entry(kind, rng):
    # the engine's positive and negative parts come from the row-shape
    # table; check them against the dense rows of entry applied to u, on
    # runs of rows from row 1, from inside, and past the horizon
    u = random_list_weight(rng, 40)
    M = np.array([[entry(kind, r, k) for k in range(1, 41)] for r in range(1, 62)])
    uv = np.array(u.values)
    for lo, hi in ((1, 60), (2, 41), (39, 61)):
        for part, dense in (("pos", np.clip(M, 0.0, None)), ("neg", np.clip(-M, 0.0, None))):
            got = _part_values(ROW_SHAPES[kind], part, _SeqData(u, "id", 61), lo, hi - lo + 1)
            np.testing.assert_allclose(got, dense[lo - 1:hi] @ uv, rtol=1e-13, atol=0,
                                       err_msg=f"{part} rows {lo}..{hi}")


RANGE_K = 40   # the column horizon of the range reads below
RANGE_SEQS = {   # mode: (u, envelope, u~ over columns 1..RANGE_K + 2)
    "list": (ListWeight(tuple(1.0 + 0.1 * ((7 * k) % 11) for k in range(45))), "id",
             np.r_[1.0 + 0.1 * ((7 * np.arange(RANGE_K)) % 11), 0.0, 0.0]),
    "list-short": (ListWeight(tuple(2.0 - 0.05 * k for k in range(RANGE_K - 3))), "down",
                   np.r_[2.0 - 0.05 * np.arange(RANGE_K - 3), [0.0] * 5]),
    "power": (P(0.6), "id", np.arange(1, RANGE_K + 3) ** -0.6),
    "ones": (P(-0.5), "down", np.ones(RANGE_K + 2)),
    "zeros": (P(0.5), "up", np.zeros(RANGE_K + 2)),
}


def _entry_rows(kind, cols):
    return np.array([[entry(kind, c, k) for k in range(1, cols + 1)]
                     for c in range(1, cols + 1)])


@pytest.mark.parametrize("mode", list(RANGE_SEQS))
def test_range_reads_match_dense_rows(mode):
    # values, prefix sums and both kernel tails read by (first column,
    # count) at the horizon's edges (column 0, last column K and K + 1),
    # against dense rows of entry applied to u~: I for values, E for
    # prefix sums, C* for tails under 1/k and the positive part of (C* - S)D
    # for tails under 1/(k(k+1)).  u_0 = 0.  The infinite modes' tails are
    # checked against the formula, on its scattered path, instead.
    u, env, ut = RANGE_SEQS[mode]
    K, cols = RANGE_K, RANGE_K + 2
    values = np.r_[0.0, _entry_rows(OpKind.I, cols) @ ut]   # column 0 first
    prefix = np.r_[0.0, _entry_rows(OpKind.E, cols) @ ut]
    tails = {INV_K: np.r_[np.nan, _entry_rows(OpKind.CSTAR, cols) @ ut],
             INV_K_KP1: np.r_[np.nan, np.clip(_entry_rows(OpKind.CSTARSD, cols), 0.0,
                                              None) @ ut]}
    sd = _SeqData(u, env, K)
    assert sd.mode == mode.split("-")[0]
    for first, count in ((0, K + 2), (0, 1), (1, K), (K - 1, 2), (K, 2), (K + 1, 1)):
        last = first + count - 1
        sd.load(first, last)
        np.testing.assert_array_equal(sd.vals_at(first, count), values[first:last + 1])
        np.testing.assert_allclose(sd.prefix(first, count), prefix[first:last + 1],
                                   rtol=1e-14, atol=0)
        if first == 0:
            continue
        for kernel, dense in tails.items():
            c = np.arange(first, last + 1)
            if mode == "power":
                formula = (norms.hurwitz_tail_scaled if kernel is INV_K
                           else norms.shifted_tail_scaled)
                want = formula(1.6, c[::-1])[::-1]
            elif mode == "ones" and kernel is INV_K:
                with pytest.raises(norms._DivergentTail):
                    sd.tail(kernel, first, count)
                continue
            else:
                want = 1.0 / c if mode == "ones" else dense[first:last + 1]
            np.testing.assert_allclose(sd.tail(kernel, first, count), want,
                                       rtol=1e-12, atol=0)


def dense_entry_norm(kind, u, v, cone):
    """The norm of a fully truncated problem from its literal matrix, filled
    one ``entry`` call at a time: the reference the dense path is pinned to."""
    plan = cone_plan(kind, cone, u.length, max_row=v.length)
    M = np.array([[entry(kind, nn, kk, plan.flip) for kk in range(1, u.length + 1)]
                  for nn in range(1, v.length + 1)])
    pos = np.clip(M, 0.0, None)
    neg = np.clip(-M, 0.0, None)

    def rows(w):
        if cone is Cone.ALL:
            return (pos + neg) @ weight_values(w, u.length)
        if cone is Cone.NONNEG:
            uv = weight_values(w, u.length)
            return np.maximum(pos @ uv, neg @ uv)
        if cone is Cone.NONINCR:
            return pos @ envelope_down(w, u.length)
        return pos @ envelope_up(w, u.length)

    return _finite_sup(rows, u, codomain_values(v, v.length), False)


@pytest.mark.parametrize("kind", PRINCIPAL_KINDS, ids=lambda k: k.name)
@pytest.mark.parametrize("cone", CONES, ids=lambda c: c.name)
def test_dense_path_matches_entry(kind, cone, rng):
    # square, L_u < L_v and L_u > L_v; (2, 1) is where C*-I on NONINCR has
    # a plan, and C-I / C-S* on NONDECR and (C*-S)D on NONINCR flip rows
    for L_u, L_v in ((7, 7), (4, 11), (11, 4), (2, 1)):
        u, v = random_list_weight(rng, L_u), random_list_weight(rng, L_v)
        plan = cone_plan(kind, cone, L_u, max_row=L_v)
        got = norm_general(kind, u, v, cone)
        if not plan.ok:
            assert got.status is Status.UNSUPPORTED
            continue
        want = dense_entry_norm(kind, u, v, cone)
        assert got.status is Status.CLOSED_FORM
        assert got.value == want.value, (L_u, L_v)


def test_dense_path_rescale_matches_entry(monkeypatch):
    # |row| sums to 2 for C-S*, so against u near 1e308 the rows overflow and
    # both the dense path and its reference go through the rescale
    u, v = L(*[1e308] * 4), L(0.25, 0.5, 0.125)
    rescaled = norms._rescaled_sup
    calls = []
    monkeypatch.setattr(norms, "_rescaled_sup",
                        lambda *args: calls.append(1) or rescaled(*args))
    got = norm_general(OpKind.C_MINUS_SSTAR, u, v, Cone.ALL)
    want = dense_entry_norm(OpKind.C_MINUS_SSTAR, u, v, Cone.ALL)
    assert len(calls) == 2
    assert got.status is Status.CLOSED_FORM and math.isfinite(got.value)
    assert got.value == want.value


@pytest.mark.parametrize("call, row", [
    # row 10 of C: (1/10) sum_{k<=10} k**400
    (norm_cesaro, lambda mp: sum(mp.mpf(k) ** 400 for k in range(1, 11)) / 10),
    # row 10 of C - S* on ALL: that, plus the off-diagonal u_11 = 11**400
    (norm_c_minus_sstar,
     lambda mp: sum(mp.mpf(k) ** 400 for k in range(1, 11)) / 10 + mp.mpf(11) ** 400),
], ids=["C", "C-S*"])
def test_power_weight_overflow_on_a_finite_problem_is_rescaled(call, row):
    # k**400 overflows in u from k = 6, but v = 1e-300 at row 10 alone
    # brings the norm back to about 1e99 (C) or 3.6e116 (C - S*)
    mp = pytest.importorskip("mpmath")
    r = call(P(-400), L(*[0.0] * 9, 1e-300), Cone.ALL)
    with mp.workdps(40):
        want = mp.mpf(1e-300) * row(mp)
    assert r.status is Status.CLOSED_FORM
    assert abs(r.value - want) <= 1e-12 * want


def test_power_weight_overflow_is_a_clear_error():
    # with v_10 = 1 the norm itself is about 1e399, past float64
    with pytest.raises(ValueError, match="overflow"):
        norm_cesaro(P(-400), L(*[0.0] * 9, 1.0), Cone.ALL)
    # rows 2.. of a weight this steep overflow with any v_n > 0; row 1 reads
    # u_1 = 1 alone, and rows where v_n = 0 are 0
    with pytest.raises(ValueError, match="overflow"):
        norm_cesaro(P(-1e300), L(1.0, 1e-300), Cone.ALL)
    assert norm_cesaro(P(-1e300), L(1.0, 0.0), Cone.ALL).value == 1.0


def test_list_u_power_v_divergence_is_not_converged():
    # past row 3 the rows are 6 * n^(1e-10), unbounded
    r = norm_cesaro(L(1, 2, 3), P(1 + 1e-10), Cone.ALL)
    assert r.status is Status.DIVERGENT


def test_large_finite_norm_is_not_divergent():
    # the norm is 1e16, attained at n = 1
    r = norm_cesaro(L(1e16), P(-0.5), Cone.ALL)
    assert r.status is not Status.DIVERGENT
    assert r.value == pytest.approx(1e16)

