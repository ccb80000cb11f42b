"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from conftest import random_list_weight
from cesaro_copson.norms import (SPECIALIZED_BY_KIND, Status, TruncConfig,
                                 norm_general)
from cesaro_copson.operators import (OpKind, PRINCIPAL_KINDS, SeqWindow,
                                     check_identity_first,
                                     check_identity_second)
from cesaro_copson.oracle import extremal_lower_bound, random_lower_bound
from cesaro_copson.power import (breakpoint_s, cesaro_minus_id_power,
                                 cesaro_power, closed_form, copson_minus_id_power,
                                 copson_power, two_op_cc_power,
                                 two_op_cstarc_power)
from cesaro_copson.two_operator import (Direction, TwoOpQuery, best_constant,
                                        two_op_row_terms, witness_ratio)
from cesaro_copson.weights import Cone, PowerWeight

P = PowerWeight


def _report(name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_closed_form_spot_checks():
    t0 = time.time()
    checks = [
        ("cesaro(0.5, all) = 2", cesaro_power(0.5, Cone.ALL).value, 2.0),
        ("cesaro(0.5, nonincr) = 2", cesaro_power(0.5, Cone.NONINCR).value, 2.0),
        ("cesaro-minus-id(0.5, all) = 3",
         cesaro_minus_id_power(0.5, Cone.ALL).value, 3.0),
        ("copson-minus-id(2, all) = 1.5",
         copson_minus_id_power(2.0, Cone.ALL).value, 1.5),
        ("two-op C<=C*(-1, all) = 3", two_op_cc_power(-1.0, Cone.ALL).value, 3.0),
        ("two-op C*<=C(0.5, nonneg) = 2",
         two_op_cstarc_power(0.5, Cone.NONNEG).value, 2.0),
    ]
    elapsed = time.time() - t0
    ok = all(abs(got - want) <= 1e-9 for _, got, want in checks) and elapsed < 1.0
    _report("criterion 1: closed-form spot checks (1e-9, < 1s)", ok,
            f"{elapsed * 1000:.1f} ms")


def test_criterion_2_zeta_branch():
    z2 = copson_power(1.0, Cone.NONNEG).value
    m2 = two_op_cstarc_power(2.0, Cone.ALL).value
    ok = (abs(z2 - math.pi ** 2 / 6) <= 1e-10
          and abs(m2 - 4.0 * (math.pi ** 2 / 6 - 1.0)) <= 1e-10)
    _report("criterion 2: zeta branches (1e-10)", ok,
            f"zeta(2)={z2!r}, 4(zeta(2)-1)={m2!r}")


def test_criterion_3_breakpoint_suite():
    n = np.arange(1, 10 ** 5 + 1, dtype=float)
    ok = True
    detail = []
    for alpha in (-3.0, -2.0, -1.0, -0.6, -0.3, -0.1):
        r = cesaro_minus_id_power(alpha, Cone.NONINCR)
        g = n ** (alpha - 1.0) * (n - 1.0)
        argmax = int(np.argmax(g)) + 1
        ok &= argmax == r.m_breakpoint + 1
        ok &= abs(float(np.max(g)) - r.value) <= 1e-12 * r.value
        detail.append(f"a={alpha}: m={r.m_breakpoint}")
    for m in range(2, 11):
        s = breakpoint_s(m)
        left = m ** (s - 1.0) * (m - 1)
        right = (m + 1.0) ** (s - 1.0) * m
        ok &= abs(left - right) <= 1e-12 * max(left, right)
    _report("criterion 3: breakpoint selection + continuity (1e-12)", ok,
            "; ".join(detail))


def test_criterion_4_identity_suite():
    rng = np.random.default_rng(20240404)
    t0 = time.time()
    worst = 0.0
    for _ in range(1000):
        start = int(rng.integers(1, 8))
        x = SeqWindow(start, tuple(rng.uniform(-1, 1, int(rng.integers(1, 41)))))
        scale = 1.0 + max(abs(t) for t in x.values)
        worst = max(worst,
                    check_identity_first(x, 50) / scale,
                    check_identity_second(x, 50) / scale)
    elapsed = time.time() - t0
    ok = worst <= 1e-12 and elapsed <= 5.0
    _report("criterion 4: operator identities, 1000 windows (1e-12, <= 5s)",
            ok, f"worst rel. deviation {worst:.2e}, {elapsed:.2f}s")


def test_criterion_5_oracle_exactness():
    rng = np.random.default_rng(777)
    t0 = time.time()
    pairs = [(random_list_weight(rng, int(L)), random_list_weight(rng, int(L)))
             for L in rng.integers(1, 21, size=50)]
    checked = skipped = 0
    worst_gap = 0.0
    ok = True
    for kind in PRINCIPAL_KINDS:
        for cone in Cone:
            if kind is OpKind.CSTAR_MINUS_I and cone is Cone.NONINCR:
                continue  # open problem
            for u, v in pairs:
                formula = SPECIALIZED_BY_KIND[kind](u, v, cone)
                if formula.status is Status.UNSUPPORTED:
                    skipped += 1
                    continue
                f = formula.value
                e = extremal_lower_bound(kind, u, v, cone, u.length)
                r = random_lower_bound(kind, u, v, cone, u.length, 500, 7)
                ok &= abs(f - e) <= 1e-12 * (1.0 + abs(f))
                ok &= r <= f + 1e-9
                worst_gap = max(worst_gap, abs(f - e) / (1.0 + abs(f)))
                checked += 1
    elapsed = time.time() - t0
    ok = ok and elapsed <= 60.0
    _report("criterion 5: oracle exactness, 6 ops x 4 cones x 50 pairs "
            "(1e-12 / 1e-9, <= 60s)", ok,
            f"{checked} checked, {skipped} hypothesis-violating skips, "
            f"worst gap {worst_gap:.2e}, {elapsed:.1f}s")


def test_criterion_6_power_general_consistency():
    t0 = time.time()
    cfg = TruncConfig(n_max=10 ** 6)
    ok = True
    n_checked = 0
    for alpha in (-2.0, -1.0, -0.5, 0.0, 0.3, 0.7, 0.99):
        u = P(alpha)
        for kind in (OpKind.C, OpKind.CSTAR, OpKind.C_MINUS_I, OpKind.CSTAR_MINUS_I):
            for cone in Cone:
                cf = closed_form(kind, cone, alpha)
                if cf is None:
                    continue
                general = norm_general(kind, u, u, cone, cfg)
                if math.isinf(cf.value):
                    ok &= general.status is Status.DIVERGENT
                else:
                    tol = max(1e-3, general.residual_estimate)
                    ok &= abs(general.value - cf.value) <= tol
                n_checked += 1
        for direction in Direction:
            for cone in (Cone.ALL, Cone.NONNEG):
                q = TwoOpQuery(direction, cone, u, u, cfg)
                cf_val = best_constant(q).value
                general = best_constant(q, use_closed_forms=False)
                if math.isinf(cf_val):
                    ok &= general.status is Status.DIVERGENT
                else:
                    ok &= abs(general.value - cf_val) <= max(
                        1e-3, general.residual_estimate)
                n_checked += 1
    elapsed = time.time() - t0
    ok = ok and elapsed <= 120.0
    _report("criterion 6: closed forms vs general engine at n_max=1e6 "
            "(max(1e-3, residual), <= 120s)", ok,
            f"{n_checked} theorem/cone/alpha cases, {elapsed:.1f}s")


def test_criterion_7_monotonicity_suite():
    from cesaro_copson.special_sums import (hurwitz_tail_scaled,
                                            shifted_tail_scaled)
    N = 10 ** 4
    n = np.arange(1, N + 1)
    nf = n.astype(float)
    ok = True
    # prefix averages move monotonically, direction set by the sign of alpha
    for alpha in (0.3, 0.9, 2.0):
        vals = nf ** (alpha - 1.0) * np.cumsum(nf ** -alpha)
        ok &= bool(np.all(np.diff(vals) >= -1e-12))
    for alpha in (-2.0, -0.5):
        vals = nf ** (alpha - 1.0) * np.cumsum(nf ** -alpha)
        ok &= bool(np.all(np.diff(vals) <= 1e-12))
    # tail averages decrease ...
    for alpha in (0.3, 1.0, 2.5):
        vals = hurwitz_tail_scaled(alpha + 1.0, n, alpha)
        ok &= bool(np.all(np.diff(vals) <= 1e-12 * vals[0]))
    # ... strict-tail averages increase ...
    for alpha in (0.3, 1.0, 2.5):
        vals = nf ** alpha * hurwitz_tail_scaled(alpha + 1.0, n + 1)
        ok &= bool(np.all(np.diff(vals) >= -1e-12 * vals[-1]))
    # ... and the shifted tail averages increase to 1/alpha (alpha <= 1)
    # or decrease (alpha > 1)
    for alpha in (0.3, 0.7, 1.0):
        vals = shifted_tail_scaled(alpha, n, alpha)
        ok &= bool(np.all(np.diff(vals) >= -1e-12 * vals[-1]))
        ok &= abs(vals[-1] - 1.0 / alpha) <= 2.0 / N ** min(alpha, 1.0) + 1e-6
    for alpha in (1.5, 3.0):
        vals = shifted_tail_scaled(alpha, n, alpha)
        ok &= bool(np.all(np.diff(vals) <= 1e-12 * vals[0]))
    _report("criterion 7: monotone-average suite over n <= 1e4", ok)


def test_criterion_8_witness_round_trip():
    rng = np.random.default_rng(808)
    ok = True
    worst = 0.0
    for _ in range(20):
        L = int(rng.integers(1, 21))
        u = random_list_weight(rng, L)
        v = random_list_weight(rng, L)
        for direction in Direction:
            for cone in (Cone.ALL, Cone.NONNEG):
                q = TwoOpQuery(direction, cone, u, v)
                val = best_constant(q).value
                nstar = int(np.argmax(two_op_row_terms(q, L))) + 1
                ratio = witness_ratio(q, nstar)
                gap = abs(ratio - val) / (1.0 + abs(val))
                worst = max(worst, gap)
                ok &= gap <= 1e-12
    _report("criterion 8: two-operator witness round-trip, 20 pairs (1e-12)",
            ok, f"worst rel. gap {worst:.2e}")


def test_criterion_9_cli_contract(tmp_path):
    t0 = time.time()
    cmd = [sys.executable, "-m", "cesaro_copson.cli"]

    def run(*args):
        return subprocess.run(cmd + list(args), capture_output=True, text=True)

    ok = True
    # norm examples
    r = run("norm", "--op", "cesaro", "--cone", "all",
            "--u", "power:0.5", "--v", "power:0.5")
    doc = json.loads(r.stdout)
    ok &= r.returncode == 0 and abs(doc["value"] - 2.0) < 1e-9
    ok &= doc["status"] == "ClosedForm"
    r2 = run("norm", "--op", "cesaro", "--cone", "all",
             "--u", "power:0.5", "--v", "power:0.5")
    ok &= r2.stdout == r.stdout  # byte-identical rerun
    r = run("norm", "--op", "copson-minus-identity", "--cone", "nonincr",
            "--u", "power:1", "--v", "power:1")
    ok &= r.returncode == 2 and "open problem" in r.stderr
    w = tmp_path / "w.csv"
    w.write_text("1\n1\n1\n1\n")
    r = run("norm", "--op", "cesaro", "--cone", "all",
            "--u", f"list:{w}", "--v", f"list:{w}")
    ok &= r.returncode == 0 and abs(json.loads(r.stdout)["value"] - 1.0) < 1e-12
    # two-op examples
    r = run("two-op", "--dir", "c-le-cstar", "--cone", "all",
            "--u", "power:-1", "--v", "power:-1")
    ok &= r.returncode == 0 and abs(json.loads(r.stdout)["value"] - 3.0) < 1e-9
    r = run("two-op", "--dir", "cstar-le-c", "--cone", "nonneg",
            "--u", "power:2", "--v", "power:2")
    ok &= r.returncode == 0 and json.loads(r.stdout)["value"] == 0.0
    r = run("two-op", "--dir", "cstar-le-c", "--cone", "all",
            "--u", "power:2", "--v", "power:2")
    ok &= r.returncode == 0
    ok &= abs(json.loads(r.stdout)["value"] - 2.5797362) < 1e-6
    # full verification suite
    r = run("verify", "--suite", "all", "--seed", "42")
    ok &= r.returncode == 0
    elapsed = time.time() - t0
    ok = ok and elapsed <= 300.0
    _report("criterion 9: CLI contract + verify --suite all (<= 5 min)", ok,
            f"{elapsed:.0f}s")
