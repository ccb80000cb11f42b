"""One divergence rule: Divergent only from an analytic argument (a floor
read off the row shapes, a divergent inner sum or closed-form branch),
never from float overflow or from the size of a row.  The grids reach past
float64 on purpose: a route may then raise ValueError, and nothing else."""

import math
import warnings

import pytest

from cesaro_copson import norms, power
from cesaro_copson.norms import (SPECIALIZED_BY_KIND, NormResult, Status, TruncConfig,
                                 norm_cesaro, norm_copson, norm_general)
from cesaro_copson.operators import (NO_FLIP, PRINCIPAL_KINDS, SINGLE, OpKind, RowShape,
                                     SignFlip, _one, _over)
from cesaro_copson.two_operator import Direction, TwoOpQuery, best_constant
from cesaro_copson.weights import Cone, ListWeight
from cesaro_copson.weights import PowerWeight as P

CFG = TruncConfig(n_max=10 ** 5)
GRID_ALPHAS = [s * a for a in (1e-3, 0.5, 1.0, 2.0, 51.0, 60.0, 125.0, 130.0, 150.0,
                               700.0, 1100.0) for s in (1.0, -1.0)]
EXTREME_ALPHAS = [s * a for a in (700.0, 1023.0, 1025.0, 1100.0, 2000.0, 1e4, 1e100,
                                  1e300) for s in (1.0, -1.0)]
THEOREMS = {Direction.C_LE_CSTAR: power.two_op_cc_power,
            Direction.CSTAR_LE_C: power.two_op_cstarc_power}
BEYOND = "finite, past float64"   # a closed form that raised ValueError


def _answer(call):
    """The call's result, or None when it raises ValueError: the one error
    any route may raise."""
    try:
        return call()
    except ValueError:
        return None


def _truth(theorem, *args):
    """The closed form's value, BEYOND when it leaves float64 (every branch
    that overflows is finite), None where the theorems give none."""
    try:
        cf = theorem(*args)
    except ValueError:
        return BEYOND
    return None if cf is None else cf.value


def _check(r: NormResult | None, truth, label) -> None:
    if r is None or truth is None:
        return
    assert not math.isnan(r.value), label
    if truth is BEYOND:
        assert r.status is not Status.DIVERGENT, label
    elif math.isinf(truth):
        assert r.status is Status.DIVERGENT, label
    else:
        assert r.status is not Status.DIVERGENT, label
        tol = max(CFG.tol, 1e-9 * (1.0 + abs(truth)))
        if r.status in (Status.CLOSED_FORM, Status.TRUNCATED_CONVERGED):
            assert abs(r.value - truth) <= tol, (label, r)
        elif r.status is Status.TRUNCATED_LOWER_BOUND:
            assert r.value <= truth + tol, (label, r)


def _matched_routes(alpha: float):
    """(label, closed form, [route calls]) for every matched cell at alpha:
    each kind x cone through closed_form, its entry point and norm_general,
    and each two-operator constant with and without its closed form."""
    u = P(alpha)
    for kind in PRINCIPAL_KINDS:
        for cone in Cone:
            yield ((kind, cone), _truth(power.closed_form, kind, cone, alpha), [
                lambda k=kind, c=cone: SPECIALIZED_BY_KIND[k](u, u, c, CFG),
                lambda k=kind, c=cone: norm_general(k, u, u, c, CFG)])
    for direction, theorem in THEOREMS.items():
        for cone in (Cone.ALL, Cone.NONNEG):
            q = TwoOpQuery(direction, cone, u, u, CFG)
            yield ((direction, cone), _truth(theorem, alpha, cone), [
                lambda q=q: best_constant(q),
                lambda q=q: best_constant(q, use_closed_forms=False)])


@pytest.mark.parametrize("alpha", GRID_ALPHAS)
def test_status_grid_on_matched_pairs(alpha):
    # a finite closed form never meets Divergent, an infinite one always
    # does; a proven answer lies within tolerance of it and a lower bound
    # at or below it
    for label, truth, calls in _matched_routes(alpha):
        for call in calls:
            _check(_answer(call), truth, (alpha, label))


def test_status_grid_mismatched_cases():
    # C on k**150 against n**-150.1: row 1 is 1 and the rows past it fall
    # like n**-0.1 / 151, so the norm is 1.0; the prefix sums overflow from
    # row 114, which used to read as Divergent at n_used 10**6
    _check(_answer(lambda: norm_cesaro(P(-150), P(-150.1), Cone.ALL, CFG)), 1.0, "C")
    _check(_answer(lambda: norm_general(OpKind.C, P(-150), P(-150.1), Cone.ALL,
                                        CFG)), 1.0, "general C")
    # C* on k**-150 against n**150.1: the rows are at least n**0.1 / 150, a
    # floor that grows; at n**149.9 they fall, and row 1 (zeta(151)) is the norm
    r = norm_copson(P(150), P(150.1), Cone.ALL, CFG)
    assert repr(r) == repr(NormResult(math.inf, Status.DIVERGENT, 0, 0.0))
    _check(_answer(lambda: norm_copson(P(150), P(149.9), Cone.ALL, CFG)), 1.0, "C*")
    # C* <= A C on the nonnegative cone past alpha = 1 is 0: every row is
    # 0, and n**55 overflows only past the horizon here
    q = TwoOpQuery(Direction.CSTAR_LE_C, Cone.NONNEG, P(55), P(55), CFG)
    _check(_answer(lambda: best_constant(q, use_closed_forms=False)), 0.0, "C* <= A C")


def test_large_finite_constant_is_not_divergent():
    # 2**51 M_51 = 1.126e15 used to pass the 1e15 divergence threshold
    q = TwoOpQuery(Direction.CSTAR_LE_C, Cone.ALL, P(51), P(51))
    want = power.two_op_cstarc_power(51.0, Cone.ALL).value
    r = best_constant(q, use_closed_forms=False)
    assert r.status is Status.TRUNCATED_CONVERGED
    assert r.value == pytest.approx(want, rel=1e-9) and want > 1e15


def test_extreme_alpha_raises_only_value_error():
    # every kind x cone x direction of closed_form, the norms and
    # best_constant at 16 values of alpha past float64's reach: nothing
    # raises but ValueError (an OverflowError escaped 64 of these calls
    # before), and nothing answers NaN
    cfg = TruncConfig(n_max=10 ** 4)
    for alpha in EXTREME_ALPHAS:
        u = P(alpha)
        calls = []
        for kind in PRINCIPAL_KINDS:
            for cone in Cone:
                calls += [lambda k=kind, c=cone: power.closed_form(k, c, alpha),
                          lambda k=kind, c=cone: SPECIALIZED_BY_KIND[k](u, u, c, cfg),
                          lambda k=kind, c=cone: norm_general(k, u, u, c, cfg)]
        for direction in Direction:
            for cone in (Cone.ALL, Cone.NONNEG):
                q = TwoOpQuery(direction, cone, u, u, cfg)
                calls += [lambda q=q: best_constant(q),
                          lambda q=q: best_constant(q, use_closed_forms=False)]
        for call in calls:
            r = _answer(call)
            assert r is None or not math.isnan(r.value), alpha


def test_closed_forms_past_float64_are_a_clear_error():
    with pytest.raises(ValueError, match="overflows float64"):
        power.two_op_cstarc_power(1100.0, Cone.ALL)
    with pytest.raises(ValueError, match="overflows float64"):
        power.two_op_cc_power(-1100.0, Cone.ALL)
    # the value itself decides, not 2**alpha: just past alpha = 1024 the
    # constant 2**alpha M_alpha, with M_alpha = 1/2 in float64, still fits
    assert power.two_op_cstarc_power(1024.5, Cone.ALL).value == pytest.approx(
        2.0 ** 1023.5, rel=1e-15)


def test_list_u_prefix_overflow_is_a_clear_error():
    # the prefix sum 3e308 overflows: a clear ValueError naming the row,
    # with no RuntimeWarning on the way, and not Divergent
    u = ListWeight((1e308,) * 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^row 2 overflows float64$"):
            norm_cesaro(u, P(0.5), Cone.ALL)


@pytest.mark.parametrize("cone, flip, diverges", [
    (Cone.ALL, NO_FLIP, True), (Cone.NONNEG, NO_FLIP, True),
    (Cone.NONINCR, SignFlip(1, None), False), (Cone.NONINCR, SignFlip(1, 5), True),
], ids=["all", "nonneg", "every-row-flipped", "run-ends"])
def test_only_a_part_every_large_row_reads_decides(cone, flip, diverges, monkeypatch):
    # a row of u_n and -u_n / n against v_n = n**0.9, u_k = k**-0.5: the
    # first part grows like n**0.4, the second falls like n**-0.6.  On a
    # monotone cone a flipped row reads the second part alone, so the rows
    # grow only where the rows past the flipped run read the first
    shape = RowShape(SINGLE, 0, _one, 0, _over)
    monkeypatch.setitem(norms.ROW_SHAPES, OpKind.C, shape)
    tail = norms._tail(OpKind.C, cone, flip, P(0.5), P(0.9))
    assert (tail is norms._DIVERGES) is diverges
    assert diverges or tail is None   # the growing part has no bound either
