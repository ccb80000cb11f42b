"""Best constants in the two-operator inequalities

    ||Cx||_{l_inf(v)} <= A ||C*x||_{d(u)}     (direction C_LE_CSTAR)
    ||C*x||_{l_inf(v)} <= A ||Cx||_{d(u)}     (direction CSTAR_LE_C)

over all real x and over nonnegative x, for arbitrary weight pairs.

The C <= A C* direction reduces exactly to norms of C - S* (whole space and
nonincreasing cone), so those formulas are reused.  The reversed direction
substitutes w_k = k u_k and, with u_0 = 0, evaluates

    A (all x)    = sup_n v_n [ ((n-1)/n) u_{n-1} + sum_{k>=n} u_k/(k+1) ]
    A (x >= 0)   = sup_n v_n sum_{k>=n} (1/(k(k+1))) inf_{j>=k} j u_j

On an L-truncated problem (ListWeight u; sequences x live on 1..L) the
change of variables z = Ex gives the last column the coefficient 1/L rather
than 1/(L(L+1)), so the truncated formulas end with a u_L (resp. w_up_L / L)
term; the proof witnesses attain these exactly, which ``witness_ratio``
checks end to end by reconstructing x and evaluating both norms directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import norms
from . import power as power_mod
from .norms import (DEFAULT_TRUNC, NormResult, TruncConfig, _Buffers,
                    _DivergentTail, _closed_form_result, _row_sup, _Tail,
                    matched_power_alpha)
from .operators import NO_FLIP, OpKind, _frac_prev, apply
from .special_sums import shifted_tail_scaled
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
    w = np.arange(1, L + 1, dtype=float) * np.asarray(u.values)
    suff = np.minimum.accumulate(w[::-1])[::-1]
    out = np.zeros(K)
    out[: min(K, L)] = suff[: min(K, L)]
    return out


def _rows_cstar_le_c(u: Weight, cone: Cone, K: int) -> Callable:
    """Row terms F(n) of the CSTAR_LE_C formulas (without the v_n factor)."""
    L = truncation_length(u)
    if L is None:
        alpha = u.alpha  # type: ignore[union-attr]
        bufs = _Buffers()
        if cone is Cone.ALL:
            def fn(n: np.ndarray) -> np.ndarray:
                if alpha <= 0:
                    raise _DivergentTail
                # ((n-1)/n) u_{n-1} for rows n >= 1: row 1 reads u_1 in
                # place of u_0 = 0, as its factor (n-1)/n is 0 either way
                k = bufs.take("cols", n.size, np.int64)
                np.maximum(np.subtract(n, 1, out=k), 1, out=k)
                uprev = np.power(k, -alpha, out=bufs.take("u", n.size), dtype=float)
                prev = _frac_prev(uprev, n, bufs.take("row", n.size))
                tail = shifted_tail_scaled(alpha, n, out=uprev)   # u is used up
                return np.add(prev, tail, out=prev)

            return fn

        def fn(n: np.ndarray) -> np.ndarray:
            out = bufs.take("row", n.size)
            if alpha > 1:
                out[...] = 0.0
                return out
            if alpha <= 0:
                raise _DivergentTail
            return shifted_tail_scaled(alpha, n, out=out)

        return fn

    uv = weight_values(u, L)
    k = np.arange(1, L + 1, dtype=float)
    if cone is Cone.ALL:
        # coefficients of |z_k|: u_k/(k+1) for k < L and u_L at k = L
        coef = uv / (k + 1.0)
        coef[L - 1] = uv[L - 1]
        tails = np.concatenate([np.cumsum(coef[::-1])[::-1], [0.0]])
        upad = np.concatenate([[0.0], uv])  # u_0 = 0

        def fn(n: np.ndarray) -> np.ndarray:
            nf = n.astype(float)
            prev = np.where(n <= L + 1, (nf - 1.0) / nf * upad[np.minimum(n, L + 1) - 1], 0.0)
            tail = tails[np.minimum(n, L + 1) - 1]
            return np.where(n <= L, prev + tail, 0.0)

        return fn

    wup = w_envelope(u, L)
    coef = wup / (k * (k + 1.0))
    coef[L - 1] = wup[L - 1] / L
    tails = np.concatenate([np.cumsum(coef[::-1])[::-1], [0.0]])

    def fn(n: np.ndarray) -> np.ndarray:
        return np.where(n <= L, tails[np.minimum(n, L + 1) - 1], 0.0)

    return fn


def _certificate(direction: Direction, cone: Cone, alpha: float) -> power_mod.ScanCertificate | None:
    """Monotonicity certificates from the two-operator power theorems."""
    if direction is Direction.C_LE_CSTAR:
        cf = power_mod.two_op_cc_power(alpha, cone)
        if math.isinf(cf.value):
            return power_mod.ScanCertificate("divergent", math.inf)
        mode = "attained" if alpha <= 0 else "limit"
        return power_mod.ScanCertificate(mode, cf.value)
    cf = power_mod.two_op_cstarc_power(alpha, cone)
    if math.isinf(cf.value):
        return power_mod.ScanCertificate("divergent", math.inf)
    mode = "attained" if alpha > 1 else "limit"
    return power_mod.ScanCertificate(mode, cf.value)


def best_constant(q: TwoOpQuery, use_closed_forms: bool = True) -> NormResult:
    """Best constant for the query; matched power pairs route to the closed
    forms unless ``use_closed_forms`` is False (then the general formulas are
    scanned, certified by the theorems' monotonicity facts)."""
    alpha = matched_power_alpha(q.u, q.v)
    if alpha is not None and use_closed_forms:
        if q.direction is Direction.C_LE_CSTAR:
            cf = power_mod.two_op_cc_power(alpha, q.cone)
        else:
            cf = power_mod.two_op_cstarc_power(alpha, q.cone)
        return _closed_form_result(cf)

    rows = _rows(q.direction)
    certificate = _certificate(q.direction, q.cone, alpha) if alpha is not None else None
    return _row_sup(lambda w, K: rows(w, q.cone, K), q.u, q.v, q.cfg, certificate,
                    _tail(q))


def _tail(q: TwoOpQuery) -> _Tail | None:
    """The tail against a PowerWeight v.  Past row L of a ListWeight u the
    C* <= A C rows are 0; no bound is derived for them on a PowerWeight u.
    The C <= A C* rows are those of C - S* (unflipped, on the cone
    ``_c_le_cstar_rows`` maps to), so they take its tail: exact for a
    ListWeight u, an integral-comparison bound for a PowerWeight u."""
    if not isinstance(q.v, PowerWeight):
        return None
    if q.direction is Direction.CSTAR_LE_C:
        if not isinstance(q.u, ListWeight):
            return None
        L = q.u.length
        return _Tail(lambda N: 0.0 if N >= L else None, exact=True)
    return norms._tail(OpKind.C_MINUS_SSTAR, _c_minus_sstar_cone(q.cone), NO_FLIP,
                       q.u, q.v)


def two_op_row_terms(q: TwoOpQuery, N: int) -> np.ndarray:
    """The first N terms v_n * F(n) of the defining supremum (diagnostics
    and witness selection)."""
    n = np.arange(1, N + 1, dtype=np.int64)
    K = max(N + 1, truncation_length(q.u) or 0)
    return codomain_values(q.v, N) * _rows(q.direction)(q.u, q.cone, K)(n)


def _c_minus_sstar_cone(cone: Cone) -> Cone:
    """The cone of the C - S* norm that C <= A C* on ``cone`` reduces to."""
    return Cone.ALL if cone is Cone.ALL else Cone.NONINCR


def _c_le_cstar_rows(u: Weight, cone: Cone, K: int) -> Callable:
    """Row terms of C <= A C*: by the reduction, the engine's unflipped
    C - S* rows on the mapped cone."""
    return norms._kind_rows(OpKind.C_MINUS_SSTAR, u, _c_minus_sstar_cone(cone), K)


def _rows(direction: Direction) -> Callable[[Weight, Cone, int], Callable]:
    """The direction's row builder: ``rows(u, cone, K)`` gives F(n) against
    u on the column horizon K."""
    return _c_le_cstar_rows if direction is Direction.C_LE_CSTAR else _rows_cstar_le_c


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
