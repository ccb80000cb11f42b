"""Independent verification of the norm formulas.

Two lower-bound paths probe the defining supremum of every norm:

* ``extremal_lower_bound`` builds, for each row, the witness sequence the
  structure theory prescribes (sign-pattern witnesses on the whole space,
  positive/negative part witnesses on the nonnegative cone, envelope
  prefixes/suffixes on the monotone cones) and evaluates the operator on it
  by direct summation against generated row entries - no norm formula is
  consulted.  On truncated problems this reproduces the formula value
  exactly; on power-weight problems it is a lower bound increasing in the
  window size N.

* ``random_lower_bound`` samples a batch of sequences from the cone
  (deterministically, one generator per seed) and takes the best observed
  ratio of the two weighted norms.  It is a sanity lower bound, never an
  equality check.

``verify`` runs the formula and both probes and assembles a report; the
suite runners at the bottom drive the package-wide verification the CLI
exposes (identities, power consistency, oracle exactness).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import power as power_mod
from .norms import (DEFAULT_TRUNC, SPECIALIZED_BY_KIND, Status, TruncConfig,
                    norm_general)
from .operators import (OpKind, PRINCIPAL_KINDS, apply_batch,
                        check_identity_first, check_identity_second,
                        cone_plan, last_index_of_part, row_entries)
from .two_operator import Direction, TwoOpQuery, best_constant
from .weights import (Cone, ListWeight, PowerWeight, SeqWindow, Weight,
                      codomain_values, envelope_down, envelope_up,
                      truncation_length, weight_values)

__all__ = [
    "UnsupportedConeError",
    "VerifyReport",
    "extremal_lower_bound",
    "random_lower_bound",
    "verify",
    "run_identity_suite",
    "run_power_consistency_suite",
    "run_oracle_suite",
    "run_all_suites",
]


class UnsupportedConeError(ValueError):
    """The cone hypotheses fail (or the case is the open problem)."""


@dataclass(frozen=True)
class VerifyReport:
    formula_value: float
    extremal_value: float
    random_best: float
    gap_extremal: float
    gap_random: float
    passed: bool
    seed: int
    trials: int
    N: int

    def to_dict(self) -> dict:
        d = asdict(self)
        d["pass"] = d.pop("passed")
        return d


def _horizons(u: Weight, v: Weight, N: int) -> tuple[int, int]:
    L_u = truncation_length(u)
    L_v = truncation_length(v)
    cols = L_u if L_u is not None else N
    rows = min(N, L_v) if L_v is not None else N
    return rows, cols


def extremal_lower_bound(kind: OpKind, u: Weight, v: Weight, cone: Cone,
                         N: int) -> float:
    """max over rows n <= N of v_n (B x^(n))_n with x^(n) the structure
    theory's witness for row n, evaluated by direct summation."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if kind is OpKind.CSTAR_MINUS_I and cone is Cone.NONINCR:
        raise UnsupportedConeError("open problem: nonincreasing cone for C*-I")
    L_u = truncation_length(u)
    L_v = truncation_length(v)
    plan = cone_plan(kind, cone, L_u, max_row=L_v)
    if not plan.ok:
        raise UnsupportedConeError(plan.reason)
    if plan.trivially_zero:
        return 0.0
    rows, cols = _horizons(u, v, N)
    vvals = codomain_values(v, rows)
    uvals = weight_values(u, cols)

    if kind is OpKind.C:
        # lower triangular and nonnegative: applying B to the full witness
        # window realises every row's prefix witness at once
        if cone in (Cone.ALL, Cone.NONNEG):
            x = uvals
        elif cone is Cone.NONINCR:
            x = envelope_down(u, cols)
        else:
            x = envelope_up(u, cols)
        out = np.cumsum(x)
        npts = np.arange(1, rows + 1, dtype=float)
        upto = np.minimum(np.arange(1, rows + 1), cols)
        vals = vvals * out[upto - 1] / npts
        return float(np.max(vals)) if rows else 0.0

    down = envelope_down(u, cols) if cone is Cone.NONINCR else None
    up = envelope_up(u, cols) if cone is Cone.NONDECR else None
    best = 0.0
    for n in range(1, rows + 1):
        e = row_entries(kind, n, cols)
        if cone is Cone.ALL:
            x = np.sign(e) * uvals
            val = abs(float(e @ x))
        elif cone is Cone.NONNEG:
            xp = np.where(e > 0, uvals, 0.0)
            xm = np.where(e < 0, uvals, 0.0)
            val = max(abs(float(e @ xp)), abs(float(e @ xm)))
        elif cone is Cone.NONINCR:
            m = last_index_of_part(kind, n, cols, negative=False, flip=plan.flip)
            x = np.where(np.arange(1, cols + 1) <= m, down, 0.0)
            val = abs(float(e @ x))
        else:
            m = last_index_of_part(kind, n, cols, negative=True, flip=plan.flip)
            x = np.where(np.arange(1, cols + 1) > m, up, 0.0)
            val = abs(float(e @ x))
        best = max(best, vvals[n - 1] * val)
    return best


def _sample_cone(rng: np.random.Generator, cone: Cone, trials: int,
                 uvals: np.ndarray, down: np.ndarray, up: np.ndarray) -> np.ndarray:
    """A (trials, K) batch of cone samples, one per row."""
    shape = (trials, len(uvals))
    if cone is Cone.ALL:
        return rng.uniform(-1.0, 1.0, shape) * uvals
    if cone is Cone.NONNEG:
        return rng.uniform(0.0, 1.0, shape) * uvals
    if cone is Cone.NONINCR:
        raw = np.sort(rng.uniform(0.0, 1.0, shape), axis=1)[:, ::-1]
        return np.minimum(raw * (1.0 + np.max(down)), down)
    raw = np.maximum.accumulate(rng.uniform(0.0, 1.0, shape), axis=1)
    return np.minimum(raw * (1.0 + np.max(up)), up)


def random_lower_bound(kind: OpKind, u: Weight, v: Weight, cone: Cone,
                       N: int, trials: int, seed: int) -> float:
    """Best observed ||Bx||_{l_inf(v)} / ||x||_{d(u)} over random cone
    samples; deterministic given the seed (one stream for the batch)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if N < 1:
        raise ValueError("N must be >= 1")
    infinite_domain = truncation_length(u) is None
    if cone is Cone.NONDECR and infinite_domain:
        plan = cone_plan(kind, cone, None)
        if plan.trivially_zero:
            return 0.0  # the cone meets the domain only in the zero sequence
    rows, cols = _horizons(u, v, N)
    uvals = weight_values(u, cols)
    down = envelope_down(u, cols)
    up = envelope_up(u, cols)
    X = _sample_cone(np.random.default_rng(seed), cone, trials, uvals, down, up)
    out = apply_batch(kind, X, rows)
    if cone is Cone.NONDECR and infinite_domain:
        # a windowed nondecreasing sample stands for its constant extension:
        # account for the extension's tail where the operator sees it
        if kind is OpKind.CSTARSD:
            out[:, :] += X[:, -1:] / (cols + 1.0)
        elif kind in (OpKind.C_MINUS_SSTAR, OpKind.SSTAR) and rows >= cols:
            out[:, cols - 1] = 0.0  # row at the window edge reads x_{K+1}
    vvals = codomain_values(v, rows)
    nums = np.max(np.abs(out) * vvals, axis=1)
    pos = uvals > 0
    ratios = np.abs(X[:, pos]) / uvals[pos]
    dens = np.max(ratios, axis=1) if np.any(pos) else np.zeros(trials)
    bad = np.any(np.abs(X[:, ~pos]) > 0, axis=1)  # nonzero over zero weight
    ok = ~bad & (dens > 0)
    return float(np.max(nums[ok] / dens[ok], initial=0.0))


def verify(kind: OpKind, u: Weight, v: Weight, cone: Cone,
           cfg: TruncConfig = DEFAULT_TRUNC, N: int | None = None,
           trials: int = 500, seed: int = 7, tol_exact: float = 1e-12,
           tol_lb: float = 1e-9) -> VerifyReport:
    """Formula vs the two lower-bound probes.

    On fully truncated problems the extremal path must reproduce the formula
    to ``tol_exact`` (relative); on all problems both probes must stay below
    the formula value within ``tol_lb``.
    """
    formula = SPECIALIZED_BY_KIND[kind](u, v, cone, cfg)
    if formula.status is Status.UNSUPPORTED:
        raise UnsupportedConeError("formula unsupported for this cone")
    L_v = truncation_length(v)
    if N is None:
        if L_v is None:
            raise ValueError("N is required on infinite problems")
        N = L_v
    f = formula.value
    e = extremal_lower_bound(kind, u, v, cone, N)
    r = random_lower_bound(kind, u, v, cone, N, trials, seed)
    truncated = (truncation_length(u) is not None and L_v is not None)
    gap_e = f - e
    gap_r = max(0.0, f - r)
    ok = (e <= f + tol_lb) and (r <= f + tol_lb)
    if truncated and math.isfinite(f):
        ok = ok and abs(f - e) <= tol_exact * (1.0 + abs(f))
    return VerifyReport(float(f), float(e), float(r), float(gap_e),
                        float(gap_r), bool(ok), seed, trials, N)


# ---------------------------------------------------------------------------
# Suites (shared by the CLI and the acceptance tests)
# ---------------------------------------------------------------------------

def run_identity_suite(count: int = 1000, N: int = 50, support_max: int = 40,
                       seed: int = 42) -> dict:
    """Random finitely supported windows through both operator identities."""
    rng = np.random.default_rng(seed)
    worst_first = 0.0
    worst_second = 0.0
    for _ in range(count):
        start = int(rng.integers(1, 10))
        length = int(rng.integers(1, support_max + 1))
        x = SeqWindow(start, tuple(rng.uniform(-1.0, 1.0, length)))
        worst_first = max(worst_first, check_identity_first(x, N))
        worst_second = max(worst_second, check_identity_second(x, N))
    tol = 1e-12
    return {
        "suite": "identities",
        "count": count,
        "N": N,
        "worst_first": worst_first,
        "worst_second": worst_second,
        "tolerance": tol,
        "pass": bool(worst_first <= tol and worst_second <= tol),
    }


_POWER_GRID = (-2.0, -1.0, -0.5, 0.0, 0.3, 0.7, 0.99)


def _power_consistency_case(kind: OpKind, cone: Cone, alpha: float,
                            n_max: int) -> dict:
    u = PowerWeight(alpha)
    cfg = TruncConfig(n_max=n_max)
    cf = power_mod.closed_form(kind, cone, alpha)
    general = norm_general(kind, u, u, cone, cfg)
    case = {
        "suite": "power-consistency",
        "op": kind.value,
        "cone": cone.value,
        "alpha": alpha,
        "closed_form": cf.value,
        "general": general.value,
        "status": general.status.value,
    }
    if math.isinf(cf.value):
        ok = general.status is Status.DIVERGENT or general.value > 1e6
    else:
        tol = max(1e-3, general.residual_estimate)
        ok = (general.status is not Status.UNSUPPORTED
              and abs(general.value - cf.value) <= tol)
    case["pass"] = bool(ok)
    return case


def _two_op_consistency_case(direction: Direction, cone: Cone, alpha: float,
                             n_max: int) -> dict:
    u = PowerWeight(alpha)
    q = TwoOpQuery(direction, cone, u, u, TruncConfig(n_max=n_max))
    cf = best_constant(q)
    general = best_constant(q, use_closed_forms=False)
    if math.isinf(cf.value):
        ok = general.status is Status.DIVERGENT or general.value > 1e6
    else:
        ok = abs(general.value - cf.value) <= max(1e-3, general.residual_estimate)
    return {
        "suite": "power-consistency",
        "op": f"two-op:{direction.value}",
        "cone": cone.value,
        "alpha": alpha,
        "closed_form": cf.value,
        "general": general.value,
        "status": general.status.value,
        "pass": bool(ok),
    }


def run_power_consistency_suite(n_max: int = 1_000_000,
                                alphas: tuple = _POWER_GRID) -> list[dict]:
    """Closed forms vs the general engine over the alpha grid; infinite
    branches must be flagged analytically (or exceed 1e6 in the scan)."""
    out = []
    for alpha in alphas:
        for kind in (OpKind.C, OpKind.CSTAR, OpKind.C_MINUS_I, OpKind.CSTAR_MINUS_I):
            for cone in Cone:
                if power_mod.closed_form(kind, cone, alpha) is not None:
                    out.append(_power_consistency_case(kind, cone, alpha, n_max))
    return out + [_two_op_consistency_case(d, c, a, n_max) for a in alphas
                  for d in Direction for c in (Cone.ALL, Cone.NONNEG)]


def _oracle_pair_case(kind: OpKind, cone: Cone, pair_idx: int, L: int,
                      trials: int, seed: int) -> dict:
    rng = np.random.default_rng([seed, 971, pair_idx])
    uu = rng.uniform(0.0, 1.0, L)
    vv = rng.uniform(0.0, 1.0, L)
    uu[rng.uniform(0.0, 1.0, L) < 0.1] = 0.0
    vv[rng.uniform(0.0, 1.0, L) < 0.1] = 0.0
    u = ListWeight(tuple(uu))
    v = ListWeight(tuple(vv))
    try:
        rep = verify(kind, u, v, cone, trials=trials, seed=seed)
    except UnsupportedConeError:
        return {
            "suite": "oracle", "op": kind.value, "cone": cone.value,
            "pair": pair_idx, "skipped": True, "pass": True,
        }
    d = rep.to_dict()
    d.update({"suite": "oracle", "op": kind.value, "cone": cone.value,
              "pair": pair_idx, "skipped": False})
    return d


def run_oracle_suite(pairs: int = 50, L_max: int = 20, trials: int = 500,
                     seed: int = 7) -> list[dict]:
    """Formula = extremal witness value (exactly, on truncated problems) and
    formula >= randomized search, over principal operators x cones x random
    weight pairs; hypothesis-violating combinations are recorded as skips."""
    rng = np.random.default_rng([seed, 13])
    sizes = [int(x) for x in rng.integers(1, L_max + 1, size=pairs)]
    out = []
    for kind in PRINCIPAL_KINDS:
        for cone in Cone:
            if kind is OpKind.CSTAR_MINUS_I and cone is Cone.NONINCR:
                continue  # open problem
            for i, L in enumerate(sizes):
                out.append(_oracle_pair_case(kind, cone, i, L, trials, seed))
    return out


def run_all_suites(seed: int = 42, trials: int = 500, N: int = 50,
                   oracle_pairs: int = 20, n_max: int = 200_000) -> list[dict]:
    out = [run_identity_suite(seed=seed, N=N)]
    out += run_power_consistency_suite(n_max=n_max)
    out += run_oracle_suite(pairs=oracle_pairs, trials=trials, seed=seed)
    return out
