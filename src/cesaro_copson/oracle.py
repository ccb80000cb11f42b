"""Independent verification of the norm formulas.

Two lower-bound paths probe the defining supremum of every norm:

* ``extremal_lower_bound`` evaluates, for each row, the witness sequence
  the structure theory prescribes (sign patterns on the whole space,
  positive/negative parts on the nonnegative cone, envelope prefixes or
  suffixes on the monotone cones).  One ``apply_batch`` pass gives B w for
  every row; every row's off-sign column comes from its row shape
  (``ROW_SHAPES``) in one array pass, and that entry's coefficient from a
  per-kind table of the kind's literal formula (``ENTRY_FORMULAS``), the
  plan's flip applied as one exact negation.  The table is built once per
  process: it holds b_{m, m+neg_at} for the rows m of the largest window
  read so far (8 B per row, read-only), evaluates the formula only at rows
  past its end, and is rebuilt when the kind's row shape or formula is
  replaced.  The tests pin the first two to the defining formulas (the
  column pass to ``last_index_of_part``) and the coefficients to
  ``entry``'s bits; no norm formula is read.  An N = 2000 C-I or C*-I
  window takes about 0.10 ms once the table holds its rows, against about
  0.43 ms with one formula pass per window.  On truncated problems this
  reproduces the formula value; on power-weight problems it is a lower
  bound increasing in the window size N.

* ``random_lower_bound`` samples a batch of sequences from the cone
  (deterministically, one generator per seed) and takes the best observed
  ratio of the two weighted norms.  It is a sanity lower bound, never an
  equality check.  The batch holds one sample per column, (K, trials), so
  each norm and row maximum is one vector operation across all trials: a
  500-trial call on K <= 20 columns takes about 0.15 ms, against about
  0.19 ms with one sample per row.

``verify`` runs the formula and both probes and assembles a report; the
suite runners at the bottom drive the package-wide verification the CLI
exposes (identities, power consistency, oracle exactness).
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from . import power as power_mod
from .norms import (DEFAULT_TRUNC, SPECIALIZED_BY_KIND, Status, TruncConfig,
                    norm_general)
from .operators import (ENTRY_FORMULAS, OpKind, PRINCIPAL_KINDS, ROW_SHAPES,
                        TAIL, RowShape, SignFlip, apply_batch, check_identity_first,
                        check_identity_second, cone_plan)
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


def _positive_int(x, name: str) -> int:
    try:
        x = operator.index(x)
    except TypeError:
        raise ValueError(f"{name} must be an integer, not {x!r}") from None
    if x < 1:
        raise ValueError(f"{name} must be >= 1")
    return x


def _horizons(u: Weight, v: Weight, N: int) -> tuple[int, int]:
    N = _positive_int(N, "N")
    L_u = truncation_length(u)
    L_v = truncation_length(v)
    cols = L_u if L_u is not None else N
    rows = min(N, L_v) if L_v is not None else N
    return rows, cols


def _finite_max(f: Callable, w: np.ndarray, what: str) -> float:
    """max of f(w, None) >= 0, where f(w, idx) evaluates the items idx (None:
    all) and is positively homogeneous in w.  Items that overflow are taken
    again against w * 2**-shift and scaled back, so overflow does not warn;
    ValueError only when the maximum itself does not fit.  w holds K columns
    along axis 0: one vector (K,) or a batch (K, T), one item per column."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = f(w, None)
        over = ~np.isfinite(vals)
        if not over.any():
            return float(np.max(vals, initial=0.0))
        # every intermediate is at most (2K + 2) max|w| over K columns: after
        # the shift it is below 1, and a finite weight times it stays finite
        shift = math.frexp(np.max(np.abs(w)))[1] + (2 * w.shape[0] + 2).bit_length()
        top = float(np.ldexp(np.max(f(np.ldexp(w, -shift), np.flatnonzero(over))), shift))
    if not math.isfinite(top):
        raise ValueError(f"the {what} overflows float64")
    return max(top, float(np.max(vals[~over], initial=0.0)))


def _off_sign_columns(kind: OpKind, rows: int,
                      cols: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows n among 1..rows where ``last_index_of_part(kind, n, cols,
    negative=True)`` is nonzero, and its value j there: each row's off-sign
    column within 1..cols, for all rows at once, read from the row shape."""
    sh = ROW_SHAPES[kind]
    if sh.neg_scale is None:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    n = np.arange(1, rows + 1)
    j = n + sh.neg_at
    n = n[(j >= 1) & (j <= cols) & (sh.neg_scale(1.0, n) != 0.0)]
    return n, n + sh.neg_at


@dataclass(frozen=True)
class _CoefTable:
    """A kind's unflipped off-sign coefficients: coefs[m - 1] is the literal
    formula at (m, m + shape.neg_at) for each row m <= coefs.size that
    ``_off_sign_columns`` selects, 0 at the rows it skips.  The array is
    read-only, and a window that needs more rows replaces the whole table."""

    shape: RowShape      # the ROW_SHAPES entry the rows were selected by
    formula: Callable    # the ENTRY_FORMULAS entry they were evaluated by
    coefs: np.ndarray


# one table per kind with an off-sign entry, grown to the largest window read
# so far (8 B per row) and rebuilt when its row shape or formula is replaced
_OFF_SIGN_TABLES: dict[OpKind, _CoefTable] = {}


def _off_sign_coefficients(kind: OpKind, n: np.ndarray, j: np.ndarray,
                           flip: SignFlip) -> np.ndarray:
    """b_{n,j} after the flip at each pair (n, j) of ``_off_sign_columns``
    (n ascending): read from the kind's table, which evaluates the literal
    formula (``ENTRY_FORMULAS``) once, in one pass, at the rows past its end,
    then the flipped rows negated.  The negation is exact, so each value has
    the bits of ``entry(kind, n, j, flip)``."""
    shape, formula = ROW_SHAPES[kind], ENTRY_FORMULAS[kind]
    table = _OFF_SIGN_TABLES.get(kind)
    if table is None or table.shape is not shape or table.formula is not formula:
        table = _CoefTable(shape, formula, np.zeros(0))
    new = np.flatnonzero(n > table.coefs.size)
    if new.size:
        coefs = np.zeros(int(n[-1]))
        coefs[:table.coefs.size] = table.coefs
        coefs[n[new] - 1] = np.fromiter(
            map(formula, n[new].tolist(), j[new].tolist()), float, new.size)
        coefs.flags.writeable = False
        table = _OFF_SIGN_TABLES[kind] = _CoefTable(shape, formula, coefs)
    coefs = table.coefs[n - 1]
    return np.negative(coefs, out=coefs, where=flip.flipped(n))


def extremal_lower_bound(kind: OpKind, u: Weight, v: Weight, cone: Cone,
                         N: int) -> float:
    """max over rows n <= N of v_n (B x^(n))_n, x^(n) the structure theory's
    witness for row n over w (u, or its envelope on the monotone cones).

    Each row is a single-signed block plus at most one entry of the other
    sign: B w gives block + single for every row, and that entry splits
    them, at the column ``_off_sign_columns`` finds for all rows and with
    its coefficient read from the kind's table of its literal b_{n,k}
    formula (``_off_sign_coefficients``: 8 B per row of the largest window,
    each row evaluated once per process; an N = 2000 C-I or C*-I window then
    takes about 0.10 ms).  The value is both parts (ALL), the larger
    (NONNEG), or the positive part of the flipped row, which the plan's sign
    order puts inside the witness window (NONINCR, NONDECR)."""
    rows, cols = _horizons(u, v, N)
    if kind is OpKind.CSTAR_MINUS_I and cone is Cone.NONINCR:
        raise UnsupportedConeError("open problem: nonincreasing cone for C*-I")
    plan = cone_plan(kind, cone, truncation_length(u), max_row=truncation_length(v))
    if not plan.ok:
        raise UnsupportedConeError(plan.reason)
    if plan.trivially_zero:
        return 0.0
    with np.errstate(over="ignore"):
        vvals = codomain_values(v, rows)
        w = (envelope_down(u, cols) if cone is Cone.NONINCR else
             envelope_up(u, cols) if cone is Cone.NONDECR else weight_values(u, cols))
    off_rows, off_cols = _off_sign_columns(kind, rows, cols)
    coefs = (_off_sign_coefficients(kind, off_rows, off_cols, plan.flip)
             if off_rows.size else None)

    def values(w: np.ndarray, idx: np.ndarray | None) -> np.ndarray:
        sel = slice(None) if idx is None else idx
        n, block = np.arange(1, rows + 1)[sel], apply_batch(kind, w, rows)[sel]
        np.negative(block, out=block, where=plan.flip.flipped(n))
        single = 0.0
        if off_rows.size:
            single = np.zeros(rows)
            single[off_rows - 1] = coefs * w[off_cols - 1]
            single = single[sel]
            block -= single
        if cone is Cone.ALL:
            val = np.abs(block) + np.abs(single)
        else:
            val = np.maximum(block, 0.0) + np.maximum(single, 0.0)
            if cone is Cone.NONNEG:
                val = np.maximum(val, np.maximum(-block, 0.0) + np.maximum(-single, 0.0))
        return vvals[sel] * val

    return _finite_max(values, w, "extremal witness value")


def _sample_cone(rng: np.random.Generator, cone: Cone, trials: int,
                 uvals: np.ndarray, down: np.ndarray | None,
                 up: np.ndarray | None) -> np.ndarray:
    """A (K, trials) batch of cone samples, one per column: down (up) is
    read, and needed, only on the nonincreasing (nondecreasing) cone.  The
    stream is drawn (trials, K), one sample per row, and copied once into
    the batch-last layout, so each sample keeps its draws."""
    raw = rng.uniform(-1.0 if cone is Cone.ALL else 0.0, 1.0, (trials, len(uvals)))
    if cone is Cone.NONINCR:
        raw.sort(axis=1)
    X = np.ascontiguousarray(raw.T[::-1] if cone is Cone.NONINCR else raw.T)
    if cone is Cone.ALL or cone is Cone.NONNEG:
        return X * uvals[:, None]
    if cone is Cone.NONINCR:
        return np.minimum(X * (1.0 + np.max(down)), down[:, None])
    np.maximum.accumulate(X, axis=0, out=X)
    return np.minimum(X * (1.0 + np.max(up)), up[:, None])


def random_lower_bound(kind: OpKind, u: Weight, v: Weight, cone: Cone,
                       N: int, trials: int, seed: int) -> float:
    """Best observed ||Bx||_{l_inf(v)} / ||x||_{d(u)} over random cone
    samples; deterministic given the seed (one stream for the batch).

    The samples sit one per column of a (K, trials) batch, so the weighted
    sup norms, the row maxima and the constant extension's tail each take
    one vector operation across all trials; at trials = 500 and K <= 20 a
    call takes about 0.15 ms, against about 0.19 ms with one sample per
    row, where each maximum reduced along rows of 1-20 entries."""
    trials = _positive_int(trials, "trials")
    rows, cols = _horizons(u, v, N)
    infinite_domain = truncation_length(u) is None
    if cone is Cone.NONDECR and infinite_domain:
        plan = cone_plan(kind, cone, None)
        if plan.trivially_zero:
            return 0.0  # the cone meets the domain only in the zero sequence
    with np.errstate(over="ignore"):
        uvals = weight_values(u, cols)
        vvals = codomain_values(v, rows)
    # inf weights make every sample's ratio NaN, which would drop every trial
    for name, vals in (("domain", uvals), ("codomain", vvals)):
        if not np.isfinite(vals).all():
            raise ValueError(f"the {name} weight overflows float64")
    # only the envelope the cone's samples are drawn against
    down = envelope_down(u, cols) if cone is Cone.NONINCR else None
    up = envelope_up(u, cols) if cone is Cone.NONDECR else None
    X = _sample_cone(np.random.default_rng(seed), cone, trials, uvals, down, up)
    pos = uvals > 0
    if pos.all():   # no zero weight: no masked copies
        dens = np.max(np.abs(X) / uvals[:, None], axis=0)
        ok = dens > 0
    else:
        ratios = np.abs(X[pos]) / uvals[pos, None]
        dens = np.max(ratios, axis=0) if np.any(pos) else np.zeros(trials)
        bad = np.any(np.abs(X[~pos]) > 0, axis=0)  # nonzero over zero weight
        ok = ~bad & (dens > 0)
    vcol = vvals[:, None]

    def best_ratios(samples: np.ndarray, idx: np.ndarray | None) -> np.ndarray:
        t = slice(None) if idx is None else idx
        Xt = samples[:, t]
        out = apply_batch(kind, Xt, rows)
        if cone is Cone.NONDECR and infinite_domain:
            # a windowed nondecreasing sample stands for its constant
            # extension: account for the extension's tail where the operator
            # sees it (a 1/k tail never gets here: that norm is trivially 0)
            sh = ROW_SHAPES[kind]
            if sh.block is TAIL:   # sum_{k>K} x_K / (k(k+1)) = x_K / (K+1)
                out += Xt[-1] / (cols + 1.0)
            elif 1 in (sh.at, sh.neg_at) and rows >= cols:
                out[cols - 1] = 0.0  # row at the window edge reads x_{K+1}
        nums = np.max(np.abs(out) * vcol, axis=0)
        return np.divide(nums, dens[t], out=np.zeros_like(nums), where=ok[t])

    return _finite_max(best_ratios, X, "random search ratio")


# verify's tolerances: the extremal value on a truncated problem must equal
# the formula to TOL_EXACT (relative), and neither probe may exceed it by
# more than TOL_LB
TOL_EXACT = 1e-12
TOL_LB = 1e-9


def verify(kind: OpKind, u: Weight, v: Weight, cone: Cone,
           cfg: TruncConfig = DEFAULT_TRUNC, N: int | None = None,
           trials: int = 500, seed: int = 7) -> VerifyReport:
    """Formula vs the two lower-bound probes, for a principal kind.

    On fully truncated problems the extremal path must reproduce the formula
    to ``TOL_EXACT`` (relative); on all problems both probes must stay below
    the formula value within ``TOL_LB``.
    """
    if kind not in SPECIALIZED_BY_KIND:
        names = ", ".join(k.name for k in PRINCIPAL_KINDS)
        raise ValueError(f"verify takes a principal kind ({names}), not {kind.name}")
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
    ok = (e <= f + TOL_LB) and (r <= f + TOL_LB)
    if truncated and math.isfinite(f):
        ok = ok and abs(f - e) <= TOL_EXACT * (1.0 + abs(f))
    return VerifyReport(float(f), float(e), float(r), float(gap_e),
                        float(gap_r), bool(ok), seed, trials, N)


# ---------------------------------------------------------------------------
# Suites (shared by the CLI and the acceptance tests)
# ---------------------------------------------------------------------------

def run_identity_suite(count: int = 1000, N: int = 50, support_max: int = 40,
                       seed: int = 42) -> dict:
    """Random finitely supported windows through both operator identities."""
    count, N = _positive_int(count, "count"), _positive_int(N, "N")
    support_max = _positive_int(support_max, "support_max")
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


def _consistency_case(op: str, cone: Cone, alpha: float, cf: float,
                      general) -> dict:
    """A closed form (or the closed-form route) against the general engine."""
    if math.isinf(cf):
        ok = general.status is Status.DIVERGENT
    else:
        ok = (general.status is not Status.UNSUPPORTED
              and abs(general.value - cf) <= max(1e-3, general.residual_estimate))
    return {"suite": "power-consistency", "op": op, "cone": cone.value,
            "alpha": alpha, "closed_form": cf, "general": general.value,
            "status": general.status.value, "pass": bool(ok)}


def _power_consistency_case(kind: OpKind, cone: Cone, alpha: float,
                            n_max: int) -> dict:
    u = PowerWeight(alpha)
    general = norm_general(kind, u, u, cone, TruncConfig(n_max=n_max))
    return _consistency_case(kind.value, cone, alpha,
                             power_mod.closed_form(kind, cone, alpha).value, general)


def _two_op_consistency_case(direction: Direction, cone: Cone, alpha: float,
                             n_max: int) -> dict:
    u = PowerWeight(alpha)
    q = TwoOpQuery(direction, cone, u, u, TruncConfig(n_max=n_max))
    return _consistency_case(f"two-op:{direction.value}", cone, alpha,
                             best_constant(q).value,
                             best_constant(q, use_closed_forms=False))


def run_power_consistency_suite(n_max: int = 1_000_000,
                                alphas: tuple = _POWER_GRID) -> list[dict]:
    """Closed forms vs the general engine over the alpha grid; infinite
    branches must be Divergent, which only an analytic argument gives."""
    out = []
    for alpha in alphas:
        for kind in PRINCIPAL_KINDS:
            for cone in Cone:
                if power_mod.closed_form(kind, cone, alpha) is not None:
                    out.append(_power_consistency_case(kind, cone, alpha, n_max))
    return out + [_two_op_consistency_case(d, c, a, n_max) for a in alphas
                  for d in Direction for c in (Cone.ALL, Cone.NONNEG)]


def _oracle_pair_case(kind: OpKind, cone: Cone, pair_idx: int, L_u: int, L_v: int,
                      trials: int, seed: int) -> dict:
    rng = np.random.default_rng([seed, 971, pair_idx])
    uu = rng.uniform(0.0, 1.0, L_u)
    vv = rng.uniform(0.0, 1.0, L_v)
    uu[rng.uniform(0.0, 1.0, L_u) < 0.1] = 0.0
    vv[rng.uniform(0.0, 1.0, L_v) < 0.1] = 0.0
    u = ListWeight(tuple(uu))
    v = ListWeight(tuple(vv))
    head = {"suite": "oracle", "op": kind.value, "cone": cone.value, "pair": pair_idx,
            "L_u": L_u, "L_v": L_v}
    try:
        rep = verify(kind, u, v, cone, trials=trials, seed=seed)
    except UnsupportedConeError:
        return {**head, "skipped": True, "pass": True}
    return {**rep.to_dict(), **head, "skipped": False}


def run_oracle_suite(pairs: int = 50, L_max: int = 20, trials: int = 500,
                     seed: int = 7) -> list[dict]:
    """Formula = extremal witness value (exactly, on truncated problems) and
    formula >= randomized search, over principal operators x cones x random
    weight pairs; hypothesis-violating combinations are recorded as skips.
    The lengths L_u of u and L_v of v are drawn apart from 1..L_max, and the
    first pair has L_u = 1: a one-column u is where the cone plans have been
    wrong before."""
    pairs, trials = _positive_int(pairs, "pairs"), _positive_int(trials, "trials")
    L_max = _positive_int(L_max, "L_max")
    rng = np.random.default_rng([seed, 13])
    L_u = [int(x) for x in rng.integers(1, L_max + 1, size=pairs)]
    L_v = [int(x) for x in rng.integers(1, L_max + 1, size=pairs)]
    if L_u:
        L_u[0] = 1
    out = []
    for kind in PRINCIPAL_KINDS:
        for cone in Cone:
            if kind is OpKind.CSTAR_MINUS_I and cone is Cone.NONINCR:
                continue  # open problem
            for i, lengths in enumerate(zip(L_u, L_v)):
                out.append(_oracle_pair_case(kind, cone, i, *lengths, trials, seed))
    return out


def run_all_suites(seed: int = 42, trials: int = 500, N: int = 50,
                   oracle_pairs: int = 20, n_max: int = 200_000) -> list[dict]:
    # checked before the slow power-consistency suite runs
    for x, name in ((trials, "trials"), (N, "N"), (oracle_pairs, "pairs")):
        _positive_int(x, name)
    out = [run_identity_suite(seed=seed, N=N)]
    out += run_power_consistency_suite(n_max=n_max)
    out += run_oracle_suite(pairs=oracle_pairs, trials=trials, seed=seed)
    return out
