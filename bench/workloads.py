"""Seeded inputs, reference answers and answer checks for the three workloads.

A workload is a sequence of *blocks*.  A block holds every query template of
the workload, so any whole number of blocks has the same mix of operators,
cones and routes, and only the drawn parameters change with the seed.  Block
``b`` is drawn from ``default_rng([seed, workload index, b])``: the same seed
always gives the same inputs, whatever the pool size.

Each query is one public call into ``cesaro_copson``.  Its answer is checked
against a reference computed once per input, before the timed loop, by a
different route through the library (``reference``/``judge``):

=================  =========================================================
rule               check
=================  =========================================================
``exact``          truncated problem: ``extremal_lower_bound`` (or, for the
                   two-operator constants, the best proof witness from
                   ``witness_ratio``) agrees to 1e-12 relative
``consistent``     matched power pair: the closed form agrees within
                   ``max(1e-3, residual)`` (the power-consistency rule)
``lower``          scan: finite, not Unsupported/Divergent, and not below a
                   small-window ``extremal_lower_bound`` by more than 1e-9
``unsupported``    the cone hypotheses fail (see ``_NO_CONE_PLAN``): the
                   answer must be Unsupported
``passed``         ``verify``: ``VerifyReport.passed``
``bracket``        ``extremal_lower_bound`` at N=2000: at least its value at
                   N=100 and at most the closed form
=================  =========================================================
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import cesaro_copson as cc
from cesaro_copson import Cone, Direction, ListWeight, OpKind, PowerWeight

N_MAX = 10 ** 6         # the CLI default horizon of an infinite problem
LOWER_WINDOW = 200      # window of the extremal lower bound behind ``lower``
L_MIN, L_MAX = 8, 512   # list lengths, log-spaced
VERIFY_L_MAX = 20       # run_oracle_suite defaults
VERIFY_TRIALS = 500
EXTREMAL_N = 2000
EXTREMAL_SMALL_N = 100

NORM_FN = {
    OpKind.C: "norm_cesaro",
    OpKind.CSTAR: "norm_copson",
    OpKind.C_MINUS_I: "dist_cesaro_identity",
    OpKind.CSTAR_MINUS_I: "dist_copson_identity",
    OpKind.C_MINUS_SSTAR: "norm_c_minus_sstar",
    OpKind.CSTARSD: "norm_cstarsd",
}
KINDS = tuple(NORM_FN)
CONES = tuple(Cone)

# Combinations whose monotone-cone hypotheses fail for every column horizon
# L >= 2: the open problem (C*-I on the nonincreasing cone), the last row of
# C*-I with sum -(L-1)/L, and the rows of (C*-S)D with sum -1/(L+1).
_NO_CONE_PLAN = {(OpKind.CSTAR_MINUS_I, Cone.NONINCR),
                 (OpKind.CSTAR_MINUS_I, Cone.NONDECR),
                 (OpKind.CSTARSD, Cone.NONDECR)}

# alpha ranges where the matched-pair closed forms are finite
_C_LIKE_ALPHA = (-1.5, 0.9)
_CSTAR_LIKE_ALPHA = (0.15, 1.5)


@dataclass
class Query:
    """One public library call and the rule its answer is checked by."""

    label: str            # template name, the same for every seed
    fn: str               # public name in the cesaro_copson package
    args: tuple
    rule: str
    ref_args: tuple = ()
    kwargs: dict = field(default_factory=dict)

    def call(self):
        return getattr(cc, self.fn)(*self.args, **self.kwargs)


@dataclass(frozen=True)
class Workload:
    name: str
    make_block: Callable[[np.random.Generator], list]
    pool_blocks: int      # distinct blocks generated and checked per run
    trace_blocks: int     # blocks run once untraced and once traced


def _draw(rng: np.random.Generator, lo_hi: tuple[float, float]) -> float:
    return float(rng.uniform(*lo_hi))


def log_spaced_lengths(m: int, lo: int = L_MIN, hi: int = L_MAX) -> list[int]:
    """m list lengths, log-spaced from lo to hi, for m templates in order.

    A log-uniform draw of L would make a block's O(L^2) work, and so every
    timing, depend on the seed; a fixed grid gives every seed the same
    sizes.  Stepping through the grid with stride 5 mixes small and large
    lengths across the kinds, so no operator gets only the large lists.
    """
    if m > 1 and math.gcd(5, m) != 1:
        raise ValueError("the stride must be coprime to the template count")
    grid = np.rint(np.exp(np.linspace(np.log(lo), np.log(hi), m)))
    return [int(grid[(5 * i) % m]) for i in range(m)]


def list_weight(rng: np.random.Generator, L: int) -> ListWeight:
    """Uniform [0, 1) entries with about 10% zeros, as in the oracle suite."""
    vals = rng.uniform(0.0, 1.0, L)
    vals[rng.uniform(0.0, 1.0, L) < 0.1] = 0.0
    return ListWeight(tuple(vals))


def _mismatched(rng: np.random.Generator, cone: Cone) -> tuple[PowerWeight, PowerWeight]:
    """u_k = k^-a, v_n = n^b with b < a: every row functional decays like
    n^(b-a), so the supremum is finite and attained early.  The
    nondecreasing cone takes a < 0, where its envelope is not zero."""
    a = _draw(rng, (-0.85, -0.15) if cone is Cone.NONDECR else (0.15, 0.85))
    return PowerWeight(a), PowerWeight(a - _draw(rng, (0.1, 0.4)))


# ---------------------------------------------------------------------------
# power-scan
# ---------------------------------------------------------------------------

_MATCHED = [(OpKind.C, c, _C_LIKE_ALPHA) for c in CONES] + \
           [(OpKind.CSTAR, c, _CSTAR_LIKE_ALPHA) for c in CONES] + \
           [(OpKind.C_MINUS_I, c, _C_LIKE_ALPHA) for c in CONES] + \
           [(OpKind.CSTAR_MINUS_I, c, _CSTAR_LIKE_ALPHA)
            for c in (Cone.ALL, Cone.NONNEG, Cone.NONDECR)]
# C* <= A C on the nonnegative cone is identically 0 past alpha = 1 and then
# skips the tail kernel, so it stays on the branch that scans.
_TWO_OP_ALPHA = {(Direction.C_LE_CSTAR, Cone.ALL): _C_LIKE_ALPHA,
                 (Direction.C_LE_CSTAR, Cone.NONNEG): _C_LIKE_ALPHA,
                 (Direction.CSTAR_LE_C, Cone.ALL): _CSTAR_LIKE_ALPHA,
                 (Direction.CSTAR_LE_C, Cone.NONNEG): (0.15, 1.0)}
_MIXED = [(OpKind.C, Cone.NONDECR), (OpKind.CSTAR, Cone.ALL),
          (OpKind.C_MINUS_I, Cone.NONNEG), (OpKind.CSTAR_MINUS_I, Cone.ALL),
          (OpKind.C_MINUS_SSTAR, Cone.NONINCR), (OpKind.CSTARSD, Cone.NONINCR)]
# The (C*-S)D and C* <= A C kernels cost ~10x a Cesaro scan; a second draw
# of each puts them above the 10% tail, so latency_p90_ms measures them.
_SLOW_NORMS = [(OpKind.CSTARSD, Cone.ALL), (OpKind.CSTARSD, Cone.NONNEG)]


def _scan_norm_query(kind: OpKind, cone: Cone, u, v, cfg, tag: str) -> Query:
    label = f"{NORM_FN[kind]}/{cone.value}/{tag}"
    args = (u, v, cone, cfg)
    if (kind, cone) == (OpKind.CSTAR_MINUS_I, Cone.NONINCR):
        return Query(label, NORM_FN[kind], args, "unsupported")
    return Query(label, NORM_FN[kind], args, "lower",
                 (kind, u, v, cone, LOWER_WINDOW))


def power_scan_block(rng: np.random.Generator) -> list:
    cfg = cc.TruncConfig(n_max=N_MAX)
    qs = []
    for kind in KINDS:
        for cone in CONES:
            qs.append(_scan_norm_query(kind, cone, *_mismatched(rng, cone), cfg,
                                       "mismatched"))
    for kind, cone in _SLOW_NORMS:
        qs.append(_scan_norm_query(kind, cone, *_mismatched(rng, cone), cfg,
                                   "mismatched#2"))
    for kind, cone, rng_alpha in _MATCHED:
        alpha = _draw(rng, rng_alpha)
        u = PowerWeight(alpha)
        qs.append(Query(f"norm_general/{kind.value}/{cone.value}/matched",
                        "norm_general", (kind, u, u, cone, cfg), "consistent",
                        ("norm", kind, cone, alpha)))
    two_ops = [(d, c, "") for d in Direction for c in (Cone.ALL, Cone.NONNEG)]
    two_ops += [(Direction.CSTAR_LE_C, c, "#2") for c in (Cone.ALL, Cone.NONNEG)]
    for direction, cone, tag in two_ops:
        alpha = _draw(rng, _TWO_OP_ALPHA[direction, cone])
        u = PowerWeight(alpha)
        q = cc.TwoOpQuery(direction, cone, u, u, cfg)
        qs.append(Query(f"best_constant/{direction.value}/{cone.value}/matched{tag}",
                        "best_constant", (q,), "consistent",
                        ("two-op", direction, cone, alpha),
                        {"use_closed_forms": False}))
    for (kind, cone), L in zip(_MIXED, log_spaced_lengths(len(_MIXED))):
        u = list_weight(rng, L)
        v = PowerWeight(_draw(rng, (-0.5, 0.9)))  # b < 1: rows past L decay
        qs.append(_scan_norm_query(kind, cone, u, v, cfg, "list-u-power-v"))
    return qs


# ---------------------------------------------------------------------------
# list-exact
# ---------------------------------------------------------------------------

_SUPPORTED = [(k, c) for k in KINDS for c in CONES if (k, c) not in _NO_CONE_PLAN]
_UNSUPPORTED = sorted(_NO_CONE_PLAN, key=lambda kc: (KINDS.index(kc[0]), CONES.index(kc[1])))
_POWER_U_LIST_V = [(OpKind.C, Cone.ALL), (OpKind.CSTAR, Cone.NONNEG),
                   (OpKind.C_MINUS_SSTAR, Cone.NONINCR), (OpKind.CSTARSD, Cone.ALL)]


def list_exact_block(rng: np.random.Generator) -> list:
    qs = []
    # Supported and unsupported combinations get a grid each, so every size
    # carries the O(L^2) dense work of a supported case.
    for combos in (_SUPPORTED, _UNSUPPORTED):
        for (kind, cone), L in zip(combos, log_spaced_lengths(len(combos))):
            u, v = list_weight(rng, L), list_weight(rng, L)
            if (kind, cone) in _NO_CONE_PLAN:
                rule, ref = "unsupported", ()
            else:
                rule, ref = "exact", ("extremal", kind, u, v, cone, L)
            qs.append(Query(f"{NORM_FN[kind]}/{cone.value}/list", NORM_FN[kind],
                            (u, v, cone), rule, ref))
            qs.append(Query(f"norm_general/{kind.value}/{cone.value}/list",
                            "norm_general", (kind, u, v, cone), rule, ref))
    two_ops = [(d, c) for d in Direction for c in (Cone.ALL, Cone.NONNEG)]
    for (direction, cone), L in zip(two_ops, log_spaced_lengths(len(two_ops))):
        q = cc.TwoOpQuery(direction, cone, list_weight(rng, L), list_weight(rng, L))
        qs.append(Query(f"best_constant/{direction.value}/{cone.value}/list",
                        "best_constant", (q,), "exact", ("witness", q)))
    for (kind, cone), L in zip(_POWER_U_LIST_V, log_spaced_lengths(len(_POWER_U_LIST_V))):
        u, v = PowerWeight(_draw(rng, (0.2, 0.9))), list_weight(rng, L)
        # rows 1..L, but every column: the window must cover all rows
        qs.append(Query(f"{NORM_FN[kind]}/{cone.value}/power-u-list-v",
                        NORM_FN[kind], (u, v, cone), "lower",
                        (kind, u, v, cone, max(LOWER_WINDOW, 2 * L))))
    return qs


# ---------------------------------------------------------------------------
# oracle-verify
# ---------------------------------------------------------------------------

_EXTREMAL = [(OpKind.C, Cone.ALL, _C_LIKE_ALPHA)] + \
            [(OpKind.CSTAR, c, _CSTAR_LIKE_ALPHA)
             for c in (Cone.ALL, Cone.NONNEG, Cone.NONINCR)] + \
            [(OpKind.C_MINUS_I, c, _C_LIKE_ALPHA) for c in CONES] + \
            [(OpKind.CSTAR_MINUS_I, c, _CSTAR_LIKE_ALPHA) for c in (Cone.ALL, Cone.NONNEG)]


def oracle_verify_block(rng: np.random.Generator) -> list:
    qs = []
    for kind, cone in _SUPPORTED:
        L = int(rng.integers(1, VERIFY_L_MAX + 1))
        u, v = list_weight(rng, L), list_weight(rng, L)
        qs.append(Query(f"verify/{kind.value}/{cone.value}", "verify",
                        (kind, u, v, cone), "passed", (),
                        {"trials": VERIFY_TRIALS, "seed": int(rng.integers(0, 2 ** 31))}))
    for kind, cone, rng_alpha in _EXTREMAL:
        alpha = _draw(rng, rng_alpha)
        u = PowerWeight(alpha)
        qs.append(Query(f"extremal_lower_bound/{kind.value}/{cone.value}/power",
                        "extremal_lower_bound", (kind, u, u, cone, EXTREMAL_N),
                        "bracket", (kind, cone, alpha)))
    return qs


WORKLOADS = {w.name: w for w in (
    Workload("power-scan", power_scan_block, pool_blocks=3, trace_blocks=1),
    Workload("list-exact", list_exact_block, pool_blocks=4, trace_blocks=4),
    Workload("oracle-verify", oracle_verify_block, pool_blocks=10, trace_blocks=6),
)}


def make_pool(name: str, seed: int, blocks: int | None = None) -> list:
    """The workload's first ``blocks`` blocks (its pool size by default)."""
    w = WORKLOADS[name]
    index = list(WORKLOADS).index(name)
    count = w.pool_blocks if blocks is None else blocks
    return [w.make_block(np.random.default_rng([seed, index, b])) for b in range(count)]


def digest(pool: list) -> str:
    """SHA-256 of every generated input, to show two generations agree."""
    text = repr([(q.label, q.fn, q.args, q.kwargs, q.rule, q.ref_args)
                 for block in pool for q in block])
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# References and checks
# ---------------------------------------------------------------------------

def _closed_form(ref_args: tuple) -> float:
    route, what, cone, alpha = ref_args
    if route == "norm":
        return cc.power.closed_form(what, cone, alpha).value
    if what is Direction.C_LE_CSTAR:
        return cc.two_op_cc_power(alpha, cone).value
    return cc.two_op_cstarc_power(alpha, cone).value


def reference(q: Query):
    """The query's reference answer, computed by an independent route."""
    if q.rule == "exact":
        if q.ref_args[0] == "witness":
            tq = q.ref_args[1]
            return max(cc.witness_ratio(tq, n) for n in range(1, tq.v.length + 1))
        return cc.extremal_lower_bound(*q.ref_args[1:])
    if q.rule == "lower":
        return cc.extremal_lower_bound(*q.ref_args)
    if q.rule == "consistent":
        return _closed_form(q.ref_args)
    if q.rule == "bracket":
        kind, cone, alpha = q.ref_args
        u = PowerWeight(alpha)
        low = cc.extremal_lower_bound(kind, u, u, cone, EXTREMAL_SMALL_N)
        return low, cc.power.closed_form(kind, cone, alpha).value
    if q.rule in ("unsupported", "passed"):
        return None
    raise ValueError(f"unknown rule {q.rule!r}")


def judge(q: Query, ref, out) -> bool:
    """True when ``out`` is a correct answer to ``q`` given its reference."""
    if q.rule == "unsupported":
        return out.status.value == "Unsupported"
    if q.rule == "passed":
        return bool(out.passed)
    if q.rule == "bracket":
        low, high = ref
        return low - 1e-12 * (1.0 + abs(low)) <= out <= high + 1e-9 * (1.0 + abs(high))
    if out.status.value in ("Unsupported", "Divergent") or not math.isfinite(out.value):
        return False
    if q.rule == "exact":
        return abs(out.value - ref) <= 1e-12 * (1.0 + abs(ref))
    if q.rule == "lower":
        return out.value >= ref - 1e-9 * (1.0 + abs(ref))
    if q.rule == "consistent":
        return abs(out.value - ref) <= max(1e-3, out.residual_estimate)
    raise ValueError(f"unknown rule {q.rule!r}")
