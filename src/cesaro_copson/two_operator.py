"""Best constants in the two-operator inequalities

    ||Cx||_{l_inf(v)} <= A ||C*x||_{d(u)}     (direction C_LE_CSTAR)
    ||C*x||_{l_inf(v)} <= A ||Cx||_{d(u)}     (direction CSTAR_LE_C)

over all real x and over nonnegative x, for arbitrary weight pairs.

Each constant is a norm of one of the paper's two auxiliary operators, so
``best_constant`` maps the query to that norm (``_reduced``) and takes its
rows and supremum from ``norms``, and the tail of C - S* too (``_tail``):

    C <= A C*  on ALL / NONNEG:  C - S*     on ALL / NONINCR, against u
    C* <= A C  on ALL / NONNEG:  (C* - S)D  on ALL / NONDECR, against w_k = k u_k

With u_0 = 0 the second reads

    A (all x)    = sup_n v_n [ ((n-1)/n) u_{n-1} + sum_{k>=n} u_k/(k+1) ]
    A (x >= 0)   = sup_n v_n sum_{k>=n} (1/(k(k+1))) inf_{j>=k} j u_j

For a PowerWeight u, w = PowerWeight(alpha - 1).  A matched power pair's
scan carries its theorem as a certificate.

On an L-truncated problem (ListWeight u; sequences x live on 1..L) the
change of variables z = Ex gives the last column the coefficient 1/L rather
than 1/(L(L+1)), so the truncated C* <= A C formulas end with a u_L (resp.
w_up_L / L) term, and the reduction to (C* - S)D does not hold: those rows
stay here, with the exact zero tail past row L.  The proof witnesses attain
the truncated formulas exactly, which ``witness_ratio`` checks end to end
by reconstructing x and evaluating both norms directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import norms
from . import power as power_mod
from .norms import (DEFAULT_TRUNC, NormResult, TruncConfig, _closed_form_result,
                    _range_read, _Tail, matched_power_alpha)
from .operators import NO_FLIP, OpKind, apply
# unused here: bench/tests/test_harness.py checks that the tracer wraps this
# binding; it goes with that check (ROADMAP item 2)
from .special_sums import shifted_tail_scaled  # noqa: F401
from .weights import (Cone, ListWeight, PowerWeight, SeqWindow, Weight,
                      codomain_values, envelope_down, quotient_norm_weighted,
                      sup_norm_weighted, truncation_length, weight_values)

__all__ = [
    "Direction",
    "TwoOpQuery",
    "w_envelope",
    "best_constant",
    "two_op_row_terms",
    "witness_ratio",
]


class Direction(Enum):
    C_LE_CSTAR = "c-le-cstar"
    CSTAR_LE_C = "cstar-le-c"


@dataclass(frozen=True)
class TwoOpQuery:
    direction: Direction
    cone: Cone
    u: Weight
    v: Weight
    cfg: TruncConfig = DEFAULT_TRUNC

    def __post_init__(self) -> None:
        if self.cone not in (Cone.ALL, Cone.NONNEG):
            raise ValueError("two-operator constants cover cones ALL and NONNEG")


def w_envelope(u: Weight, K: int) -> np.ndarray:
    """(w_up)_k = inf_{j>=k} j u_j for k = 1..K, w_k = k u_k.

    For a PowerWeight, w_k = k**(1-alpha) is nondecreasing when alpha <= 1
    (its own minorant) and tends to 0 when alpha > 1 (zero minorant).  For a
    ListWeight the infimum runs over the truncated horizon j in k..L.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if isinstance(u, PowerWeight):
        if u.alpha > 1:
            return np.zeros(K)
        k = np.arange(1, K + 1, dtype=float)
        return np.power(k, 1.0 - u.alpha)
    L = u.length
    w = np.arange(1, L + 1, dtype=float) * u.array
    suff = np.minimum.accumulate(w[::-1])[::-1]
    out = np.zeros(K)
    out[: min(K, L)] = suff[: min(K, L)]
    return out


def _rows_cstar_le_c(u: ListWeight, cone: Cone, bufs: norms._Buffers) -> Callable:
    """Row terms F(n) of the truncated C* <= A C formulas (without the v_n
    factor) against a ListWeight u, at the rows first..first+count-1 of a
    block, in the scan state bufs: rows 1..L from a table, 0 past row L."""
    L = u.length
    uv = weight_values(u, L)
    k = np.arange(1, L + 1, dtype=float)
    if cone is Cone.ALL:
        # coefficients of |z_k|: u_k/(k+1) for k < L and u_L at k = L
        coef = uv / (k + 1.0)
        coef[L - 1] = uv[L - 1]
        upad = np.concatenate([[0.0], uv[:-1]])   # u_{n-1}, u_0 = 0
        rows = (k - 1.0) / k * upad + np.cumsum(coef[::-1])[::-1]
    else:
        wup = w_envelope(u, L)
        coef = wup / (k * (k + 1.0))
        coef[L - 1] = wup[L - 1] / L
        rows = np.cumsum(coef[::-1])[::-1]
    return lambda first, count: _range_read(rows, first - 1, bufs.take("pos", count), 0.0)


def _reduced(q: TwoOpQuery) -> tuple[OpKind, Cone, Weight] | None:
    """The norm (kind, cone, domain weight) that q's constant is, or None
    for C* <= A C against a ListWeight u, which keeps its own rows."""
    if q.direction is Direction.C_LE_CSTAR:
        return OpKind.C_MINUS_SSTAR, Cone.ALL if q.cone is Cone.ALL else Cone.NONINCR, q.u
    if isinstance(q.u, PowerWeight):   # k u_k = k**(1 - alpha)
        return (OpKind.CSTARSD, Cone.ALL if q.cone is Cone.ALL else Cone.NONDECR,
                PowerWeight(q.u.alpha - 1.0))
    return None


def _row_builder(q: TwoOpQuery, reduced) -> tuple[Callable, Weight]:
    """The row builder (w, K, bufs) -> F of q's constant and the domain
    weight it reads, given ``_reduced(q)``."""
    if reduced is None:
        return (lambda w, K, bufs: _rows_cstar_le_c(w, q.cone, bufs)), q.u
    kind, cone, u = reduced
    return (lambda w, K, bufs: norms._kind_rows(kind, w, cone, K, bufs=bufs)), u


def best_constant(q: TwoOpQuery, use_closed_forms: bool = True) -> NormResult:
    """Best constant for the query; matched power pairs route to the closed
    forms unless ``use_closed_forms`` is False (then the norm the constant
    reduces to is scanned, with the theorem's branch as its certificate)."""
    alpha = matched_power_alpha(q.u, q.v)
    certificate = None
    if alpha is not None:
        theorem = (power_mod.two_op_cc_power if q.direction is Direction.C_LE_CSTAR
                   else power_mod.two_op_cstarc_power)
        certificate = theorem(alpha, q.cone)
        if use_closed_forms:
            return _closed_form_result(certificate)
    reduced = _reduced(q)
    rows, u = _row_builder(q, reduced)
    return norms._row_sup(rows, u, q.v, q.cfg, certificate, _tail(q, reduced))


def _tail(q: TwoOpQuery, reduced) -> _Tail | None:
    """The tail against a PowerWeight v: C - S*'s for C <= A C*, and 0 past
    row L of a ListWeight u for C* <= A C.  C* <= A C against a PowerWeight
    u takes only the (C* - S)D floors (``norms._DIVERGES``) and zero
    envelopes (``norms._ZERO``), not its bound, until that bound closes for
    alpha <= 1 too (ROADMAP item 3): alone it stops alpha > 1 scans at row
    256 and leaves alpha <= 1 ones at n_max, a hundredfold step in cost."""
    if not isinstance(q.v, PowerWeight):
        return None
    if reduced is not None:
        kind, cone, u = reduced
        tail = norms._tail(kind, cone, NO_FLIP, u, q.v)
        if q.direction is Direction.C_LE_CSTAR or tail in (norms._DIVERGES, norms._ZERO):
            return tail
        return None
    L = q.u.length
    return _Tail(lambda N: 0.0 if N >= L else None, exact=True)


def two_op_row_terms(q: TwoOpQuery, N: int) -> np.ndarray:
    """The first N terms v_n * F(n) of the defining supremum (diagnostics
    and witness selection)."""
    rows, u = _row_builder(q, _reduced(q))
    K = max(N + 1, truncation_length(u) or 0)
    return codomain_values(q.v, N) * rows(u, K, norms._Buffers())(1, N)


def witness_ratio(q: TwoOpQuery, n: int) -> float:
    """Evaluate the two-operator ratio on the proof's witness for row n,
    end to end: build the witness, reconstruct x, apply both operators and
    take the two weighted norms directly.  ListWeight problems only (the
    witness lives on the truncated horizon)."""
    L_u = truncation_length(q.u)
    L_v = truncation_length(q.v)
    if L_u is None or L_v is None:
        raise ValueError("witness_ratio needs ListWeight problems")
    if n < 1 or n > L_v:
        raise ValueError("witness row out of range")
    uv = weight_values(q.u, L_u)

    def snap(win: SeqWindow) -> SeqWindow:
        # the reconstructions telescope exactly in exact arithmetic; round
        # off the O(eps) residue so it cannot trip the 0/0 convention at
        # zero weights
        scale = 1.0 + max((abs(t) for t in win.values), default=0.0)
        return SeqWindow(win.start, tuple(
            0.0 if abs(t) <= 1e-13 * scale else t for t in win.values))

    if q.direction is Direction.C_LE_CSTAR:
        # y = (u_1..u_n, -u_{n+1}, 0, ...) or its nonincreasing variant;
        # x_k = k (y_k - y_{k+1}) satisfies C*x = y.
        m = min(n, L_u)
        y = np.zeros(L_u + 2)
        if q.cone is Cone.ALL:
            y[:m] = uv[:m]
            if n + 1 <= L_u:
                y[n] = -uv[n]
        else:
            y[:m] = envelope_down(q.u, L_u)[:m]
        k = np.arange(1, L_u + 2, dtype=float)
        x = k * (y - np.concatenate([y[1:], [0.0]]))[: L_u + 1]
        x = x[:L_u]  # the witness lives on 1..L_u
        xw = SeqWindow(1, tuple(x))
        num = sup_norm_weighted(apply(OpKind.C, xw, L_v), q.v)
        den = quotient_norm_weighted(snap(apply(OpKind.CSTAR, xw, L_u)), q.u)
    else:
        w = np.arange(1, L_u + 1, dtype=float) * uv
        z = np.zeros(L_u)
        if q.cone is Cone.ALL:
            if n >= 2:
                z[n - 2] = -w[n - 2]
            z[n - 1:] = w[n - 1:]
        else:
            z[n - 1:] = w_envelope(q.u, L_u)[n - 1:]
        x = np.diff(np.concatenate([[0.0], z]))
        xw = SeqWindow(1, tuple(x))
        num = sup_norm_weighted(apply(OpKind.CSTAR, xw, L_v), q.v)
        den = quotient_norm_weighted(snap(apply(OpKind.C, xw, L_u)), q.u)

    if den == 0.0:
        return 0.0
    if not math.isfinite(den):
        return 0.0
    return num / den
