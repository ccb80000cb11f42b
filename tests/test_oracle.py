import numpy as np
import pytest

from conftest import random_list_weight
from cesaro_copson.norms import SPECIALIZED_BY_KIND, Status, norm_cesaro
from cesaro_copson.operators import OpKind, PRINCIPAL_KINDS
from cesaro_copson.oracle import (UnsupportedConeError, _sample_cone,
                                  extremal_lower_bound, random_lower_bound,
                                  run_identity_suite, run_oracle_suite,
                                  run_power_consistency_suite, verify)
from cesaro_copson.weights import (Cone, ListWeight, PowerWeight, envelope_down,
                                   envelope_up, weight_values)

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


def test_random_samples_lie_in_the_cone():
    u = ListWeight((0.5, 2.0, 0.0, 1.5, 3.0, 0.25, 1.0))
    K = u.length
    uvals, down, up = weight_values(u, K), envelope_down(u, K), envelope_up(u, K)
    for cone in Cone:
        X = _sample_cone(np.random.default_rng(3), cone, 64, uvals, down, up)
        assert X.shape == (64, K)
        if cone is Cone.ALL:
            assert np.all(np.abs(X) <= uvals)
        elif cone is Cone.NONNEG:
            assert np.all((0.0 <= X) & (X <= uvals))
        elif cone is Cone.NONINCR:
            assert np.all(np.diff(X, axis=1) <= 0.0)
            assert np.all((0.0 <= X) & (X <= down))
        else:
            assert np.all(np.diff(X, axis=1) >= 0.0)
            assert np.all((0.0 <= X) & (X <= up))
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


def test_verify_propagates_unsupported():
    with pytest.raises(UnsupportedConeError):
        verify(OpKind.CSTAR_MINUS_I, ONES4, ONES4, Cone.NONINCR)


def test_zero_weight_all_paths_zero():
    u = ListWeight((0.0,) * 5)
    v = ListWeight((1.0,) * 5)
    rep = verify(OpKind.CSTARSD, u, v, Cone.ALL, trials=50, seed=1)
    assert rep.formula_value == 0.0 and rep.extremal_value == 0.0
    assert rep.random_best == 0.0 and rep.passed


def test_suite_runners_smoke():
    ids = run_identity_suite(count=50, N=30, seed=1)
    assert ids["pass"]
    pc = run_power_consistency_suite(n_max=20000, alphas=(-1.0, 0.5))
    assert all(c["pass"] for c in pc)
    oc = run_oracle_suite(pairs=3, trials=60, seed=9)
    assert all(c["pass"] for c in oc)
    assert any(c.get("skipped") for c in oc)  # hypothesis-violating combos
