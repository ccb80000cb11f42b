"""Operator norms on weighted l-infinity cones: the generic engine and the
specialised evaluators.

Every norm here is a supremum over rows n of  v_n * F(n)  where F is a row
functional built from the domain weight u (or one of its monotone minorants):

    cone ALL      F = (|B| u)_n
    cone NONNEG   F = max((B+ u)_n, (B- u)_n)
    cone NONINCR  F = (B~+ u_down)_n   after admissible row flips B~
    cone NONDECR  F = (B~+ u_up)_n     after admissible row flips B~

The generic engine (``norm_general``) derives F from the operator structure:
dense entry generation on fully truncated problems, and a prefix/point/tail
decomposition with analytic tails on power-weight problems.  The specialised
functions evaluate the per-operator closed formulas directly and route
matched power pairs (u and v both PowerWeight with the same alpha) to the
closed-form branch tables.

Truncation of the outer supremum is reported honestly in ``NormResult``:
exact finite problems are ClosedForm; scans are TruncatedConverged only when
a proven monotonicity certificate applies (re-verified numerically along the
scan) or the running supremum has stalled below the tolerance, and
TruncatedLowerBound otherwise.  Divergence is decided analytically for power
weights (divergent inner tails, divergent closed-form branches) and by a
threshold heuristic for general weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from . import power as power_mod
from .operators import ConePlan, OpKind, SignFlip, cone_plan, entry
from .special_sums import hurwitz_tail_scaled, shifted_tail_scaled
from .weights import (Cone, PowerWeight, Weight, codomain_values,
                      envelope_down, envelope_up, truncation_length,
                      weight_values)

__all__ = [
    "Status",
    "TruncConfig",
    "NormResult",
    "DEFAULT_TRUNC",
    "norm_general",
    "norm_cesaro",
    "norm_copson",
    "dist_cesaro_identity",
    "dist_copson_identity",
    "norm_c_minus_sstar",
    "norm_cstarsd",
    "SPECIALIZED_BY_KIND",
    "matched_power_alpha",
]


class Status(Enum):
    CLOSED_FORM = "ClosedForm"
    TRUNCATED_CONVERGED = "TruncatedConverged"
    TRUNCATED_LOWER_BOUND = "TruncatedLowerBound"
    DIVERGENT = "Divergent"
    UNSUPPORTED = "Unsupported"


@dataclass(frozen=True)
class TruncConfig:
    n_max: int = 1_000_000
    tol: float = 1e-9
    divergence_threshold: float = 1e15

    def __post_init__(self) -> None:
        if self.n_max < 1 or self.tol <= 0 or self.divergence_threshold <= 0:
            raise ValueError("invalid truncation configuration")


DEFAULT_TRUNC = TruncConfig()


@dataclass(frozen=True)
class NormResult:
    value: float
    status: Status
    n_used: int
    residual_estimate: float

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value) and self.status is not Status.UNSUPPORTED


def _unsupported(reason: str = "") -> NormResult:
    return NormResult(0.0, Status.UNSUPPORTED, 0, math.inf)


def _divergent(n_used: int = 0) -> NormResult:
    return NormResult(math.inf, Status.DIVERGENT, n_used, 0.0)


def matched_power_alpha(u: Weight, v: Weight) -> float | None:
    """alpha when (u, v) is the matched power pair u_k=k^-a, v_n=n^a."""
    if isinstance(u, PowerWeight) and isinstance(v, PowerWeight) and u.alpha == v.alpha:
        return u.alpha
    return None


# ---------------------------------------------------------------------------
# Domain-weight data with an envelope applied: values, prefix sums, tails
# ---------------------------------------------------------------------------

class _DivergentTail(Exception):
    pass


INV_K = "inv_k"            # kernel 1/k
INV_K_KP1 = "inv_k_kp1"    # kernel 1/(k(k+1))


class _SeqData:
    """Envelope-applied domain weight over columns 1..horizon, with O(1)
    vectorised prefix sums and analytic/precomputed kernel tails."""

    def __init__(self, u: Weight, env: str, K: int):
        self.K = K
        self.L = truncation_length(u)
        if isinstance(u, PowerWeight):
            a = u.alpha
            if env == "id" or (env == "down" and a >= 0) or (env == "up" and a <= 0):
                self.mode, self.alpha = "power", a
            elif env == "down":
                self.mode, self.alpha = "ones", 0.0
            else:
                self.mode, self.alpha = "zeros", 0.0
            if self.mode == "power":
                base = weight_values(u, K)
            elif self.mode == "ones":
                base = np.ones(K)
            else:
                base = np.zeros(K)
        else:
            self.mode, self.alpha = "list", 0.0
            if env == "id":
                base = weight_values(u, K)
            elif env == "down":
                base = envelope_down(u, K)
            else:
                base = envelope_up(u, K)
        self._vals = base
        self._prefix = np.concatenate([[0.0], np.cumsum(base)])
        if self.mode == "list":
            k = np.arange(1, K + 1, dtype=float)
            self._tail1 = np.concatenate([np.cumsum((base / k)[::-1])[::-1], [0.0]])
            self._tail2 = np.concatenate(
                [np.cumsum((base / (k * (k + 1.0)))[::-1])[::-1], [0.0]])

    def vals_at(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k)
        out = np.zeros(k.shape, dtype=float)
        ok = (k >= 1) & (k <= self.K)
        out[ok] = self._vals[k[ok] - 1]
        return out

    def prefix(self, end: np.ndarray) -> np.ndarray:
        end = np.clip(np.asarray(end), 0, self.K)
        return self._prefix[end]

    def tail(self, kernel: str, start: np.ndarray) -> np.ndarray:
        """sum over k >= start (within the horizon) of kernel_k * value_k."""
        start = np.asarray(start)
        if self.mode == "list":
            s = np.clip(start, 1, self.K + 1)
            return (self._tail1 if kernel == INV_K else self._tail2)[s - 1]
        if self.mode == "zeros":
            return np.zeros(start.shape, dtype=float)
        if self.mode == "ones":
            if kernel == INV_K:
                raise _DivergentTail
            return 1.0 / start.astype(float)  # telescoping
        a = self.alpha
        if kernel == INV_K:
            if a <= 0:
                raise _DivergentTail
            return hurwitz_tail_scaled(a + 1.0, start)
        if a + 1.0 <= 0:
            raise _DivergentTail
        return shifted_tail_scaled(a + 1.0, start)


# ---------------------------------------------------------------------------
# Generic row functional from the operator structure (Theorem engine)
# ---------------------------------------------------------------------------

def _part_values(kind: OpKind, part: str, sd: _SeqData, n: np.ndarray) -> np.ndarray:
    """(B+ u~)_n or (B- u~)_n for the unflipped operator, vectorised."""
    nf = n.astype(float)
    pos = part == "pos"
    if kind is OpKind.C:
        return sd.prefix(n) / nf if pos else np.zeros(n.shape)
    if kind is OpKind.E:
        return sd.prefix(n) if pos else np.zeros(n.shape)
    if kind is OpKind.CSTAR:
        return sd.tail(INV_K, n) if pos else np.zeros(n.shape)
    if kind is OpKind.C_MINUS_I:
        if pos:
            return sd.prefix(n - 1) / nf
        return (nf - 1.0) / nf * sd.vals_at(n)
    if kind is OpKind.CSTAR_MINUS_I:
        if pos:
            return sd.tail(INV_K, n + 1)
        return (nf - 1.0) / nf * sd.vals_at(n)
    if kind is OpKind.C_MINUS_SSTAR:
        return sd.prefix(n) / nf if pos else sd.vals_at(n + 1)
    if kind is OpKind.CSTARSD:
        return sd.tail(INV_K_KP1, n) if pos else sd.vals_at(n - 1) / nf
    if kind is OpKind.S:
        return sd.vals_at(n - 1) if pos else np.zeros(n.shape)
    if kind is OpKind.SSTAR:
        return sd.vals_at(n + 1) if pos else np.zeros(n.shape)
    if kind is OpKind.D:
        return sd.vals_at(n) / (nf + 1.0) if pos else np.zeros(n.shape)
    if kind is OpKind.I:
        return sd.vals_at(n) if pos else np.zeros(n.shape)
    raise ValueError(f"unknown kind {kind}")


def _flip_signs(flip: SignFlip, n: np.ndarray) -> np.ndarray:
    flipped = np.full(n.shape, flip.flip_all)
    if flip.flip_rows:
        flipped ^= np.isin(n, np.fromiter(flip.flip_rows, dtype=np.int64))
    return flipped


def _generic_row_values(kind: OpKind, cone: Cone, plan: ConePlan, u: Weight,
                        n: np.ndarray, K: int) -> np.ndarray:
    if cone is Cone.ALL:
        sd = _SeqData(u, "id", K)
        return _part_values(kind, "pos", sd, n) + _part_values(kind, "neg", sd, n)
    if cone is Cone.NONNEG:
        sd = _SeqData(u, "id", K)
        return np.maximum(_part_values(kind, "pos", sd, n),
                          _part_values(kind, "neg", sd, n))
    env = "down" if cone is Cone.NONINCR else "up"
    sd = _SeqData(u, env, K)
    flipped = _flip_signs(plan.flip, n)
    out = np.empty(n.shape, dtype=float)
    if np.any(~flipped):
        out[~flipped] = _part_values(kind, "pos", sd, n[~flipped])
    if np.any(flipped):
        out[flipped] = _part_values(kind, "neg", sd, n[flipped])
    return out


# ---------------------------------------------------------------------------
# Supremum drivers
# ---------------------------------------------------------------------------

def _finite_sup(values: np.ndarray, vvals: np.ndarray,
                analytic_tails: bool) -> NormResult:
    prods = vvals * values
    val = float(np.max(prods)) if prods.size else 0.0
    if not math.isfinite(val):
        return _divergent(len(values))
    residual = 1e-12 if analytic_tails else 0.0
    return NormResult(val, Status.CLOSED_FORM, len(values), residual)


def _scan_sup(values_fn: Callable[[np.ndarray], np.ndarray], cfg: TruncConfig,
              certificate: power_mod.ScanCertificate | None) -> NormResult:
    if certificate is not None and certificate.mode == "divergent":
        return _divergent()
    N = cfg.n_max
    n = np.arange(1, N + 1, dtype=np.int64)
    try:
        vals = values_fn(n)
    except _DivergentTail:
        return _divergent()
    if not np.all(np.isfinite(vals)):
        return _divergent(N)
    m = float(np.max(vals))
    if m > cfg.divergence_threshold:
        return _divergent(int(np.argmax(vals)) + 1)
    # stall window: the rows after the first 90% (empty when N == 1)
    cut = max(1, int(0.9 * N))
    delta = m - float(np.max(vals[:cut]))
    if certificate is not None:
        scale = 1.0 + abs(certificate.value if math.isfinite(certificate.value) else m)
        if certificate.mode == "limit":
            monotone = bool(np.all(np.diff(vals) >= -1e-9 * scale))
            if monotone and m <= certificate.value * (1.0 + 1e-9) + 1e-12:
                return NormResult(certificate.value, Status.TRUNCATED_CONVERGED, N, 1e-12)
        elif certificate.mode == "attained":
            if abs(m - certificate.value) <= max(cfg.tol, 1e-9 * scale):
                return NormResult(m, Status.TRUNCATED_CONVERGED, N,
                                  abs(certificate.value - m))
        # certificate did not verify: fall back to the heuristic statuses
    if cut < N and delta <= cfg.tol:
        return NormResult(m, Status.TRUNCATED_CONVERGED, N, delta)
    return NormResult(m, Status.TRUNCATED_LOWER_BOUND, N, delta)


# ---------------------------------------------------------------------------
# The generic engine
# ---------------------------------------------------------------------------

def _dense_norm(kind: OpKind, u: Weight, v: Weight, cone: Cone, plan: ConePlan,
                cfg: TruncConfig) -> NormResult:
    L_u = truncation_length(u)
    L_v = truncation_length(v)
    M = np.array([[entry(kind, nn, kk, plan.flip)
                   for kk in range(1, L_u + 1)] for nn in range(1, L_v + 1)])
    pos = np.clip(M, 0.0, None)
    neg = np.clip(-M, 0.0, None)
    if cone is Cone.ALL:
        rowvals = (pos + neg) @ weight_values(u, L_u)
    elif cone is Cone.NONNEG:
        uv = weight_values(u, L_u)
        rowvals = np.maximum(pos @ uv, neg @ uv)
    elif cone is Cone.NONINCR:
        rowvals = pos @ envelope_down(u, L_u)
    else:
        rowvals = pos @ envelope_up(u, L_u)
    return _finite_sup(rowvals, codomain_values(v, L_v), False)


def norm_general(kind: OpKind, u: Weight, v: Weight, cone: Cone,
                 cfg: TruncConfig = DEFAULT_TRUNC) -> NormResult:
    """Norm of the operator on the given cone, from the general theorem:
    row functionals against u, its envelopes, after admissible row flips."""
    L_u = truncation_length(u)
    L_v = truncation_length(v)
    plan = cone_plan(kind, cone, L_u, max_row=L_v)
    if not plan.ok:
        return _unsupported(plan.reason)
    if plan.trivially_zero:
        return NormResult(0.0, Status.CLOSED_FORM, 0, 0.0)
    if L_v is not None:
        if L_u is not None:
            return _dense_norm(kind, u, v, cone, plan, cfg)
        n = np.arange(1, L_v + 1, dtype=np.int64)
        try:
            vals = _generic_row_values(kind, cone, plan, u, n, L_v + 1)
        except _DivergentTail:
            return _divergent()
        return _finite_sup(vals, codomain_values(v, L_v), True)

    alpha = matched_power_alpha(u, v)
    certificate = None
    if alpha is not None:
        certificate = power_mod.scan_certificate(kind, cone, alpha)

    K = max(cfg.n_max + 1, L_u or 0)

    def values_fn(n: np.ndarray) -> np.ndarray:
        vals = _generic_row_values(kind, cone, plan, u, n, K)
        return codomain_values(v, len(n)) * vals

    return _scan_sup(values_fn, cfg, certificate)


# ---------------------------------------------------------------------------
# Specialised evaluators (the per-operator closed formulas)
# ---------------------------------------------------------------------------

def _closed_form_result(cf: power_mod.PowerCaseResult) -> NormResult:
    if math.isinf(cf.value):
        return _divergent()
    return NormResult(cf.value, Status.CLOSED_FORM, 0, 0.0)


def _specialized(kind: OpKind, u: Weight, v: Weight, cone: Cone,
                 cfg: TruncConfig,
                 row_fn_builder: Callable[[Weight, Cone, int], Callable]) -> NormResult:
    L_u = truncation_length(u)
    L_v = truncation_length(v)
    plan = cone_plan(kind, cone, L_u, max_row=L_v)
    if not plan.ok:
        return _unsupported(plan.reason)
    if plan.trivially_zero:
        return NormResult(0.0, Status.CLOSED_FORM, 0, 0.0)
    alpha = matched_power_alpha(u, v)
    if alpha is not None:
        cf = power_mod.closed_form(kind, cone, alpha)
        if cf is not None:
            return _closed_form_result(cf)
        certificate = power_mod.scan_certificate(kind, cone, alpha)
    else:
        certificate = None
    K = (L_v + 1) if L_v is not None else (cfg.n_max + 1)
    K = max(K, L_u or 0)
    row_fn = row_fn_builder(u, cone, K)
    if L_v is not None:
        n = np.arange(1, L_v + 1, dtype=np.int64)
        try:
            vals = row_fn(n)
        except _DivergentTail:
            return _divergent()
        analytic = L_u is None
        return _finite_sup(vals, codomain_values(v, L_v), analytic)

    def values_fn(n: np.ndarray) -> np.ndarray:
        return codomain_values(v, len(n)) * row_fn(n)

    return _scan_sup(values_fn, cfg, certificate)


def _cesaro_rows(u: Weight, cone: Cone, K: int) -> Callable:
    env = ("id" if cone in (Cone.ALL, Cone.NONNEG)
           else "down" if cone is Cone.NONINCR else "up")
    sd = _SeqData(u, env, K)

    def fn(n: np.ndarray) -> np.ndarray:
        return sd.prefix(n) / n.astype(float)

    return fn


def _copson_rows(u: Weight, cone: Cone, K: int) -> Callable:
    env = "id" if cone in (Cone.ALL, Cone.NONNEG) else (
        "down" if cone is Cone.NONINCR else "up")
    sd = _SeqData(u, env, K)

    def fn(n: np.ndarray) -> np.ndarray:
        return sd.tail(INV_K, n)

    return fn


def _cesaro_id_rows(u: Weight, cone: Cone, K: int) -> Callable:
    L = truncation_length(u)
    if cone in (Cone.ALL, Cone.NONNEG):
        sd = _SeqData(u, "id", K)

        def fn(n: np.ndarray) -> np.ndarray:
            nf = n.astype(float)
            diag = (nf - 1.0) * sd.vals_at(n)
            rest = sd.prefix(n - 1)
            if cone is Cone.ALL:
                return (diag + rest) / nf
            return np.maximum(diag, rest) / nf

        return fn
    if cone is Cone.NONINCR:
        sd = _SeqData(u, "down", K)

        def fn(n: np.ndarray) -> np.ndarray:
            return sd.prefix(n - 1) / n.astype(float)

        return fn
    sd = _SeqData(u, "up", K)

    def fn(n: np.ndarray) -> np.ndarray:
        nf = n.astype(float)
        inner = (nf - 1.0) / nf * sd.vals_at(n)
        if L is not None:
            # rows past the column horizon are all-positive averaging rows
            beyond = n > L
            if np.any(beyond):
                inner = np.where(beyond, sd.prefix(n) / nf, inner)
        return inner

    return fn


def _copson_id_rows(u: Weight, cone: Cone, K: int) -> Callable:
    if cone in (Cone.ALL, Cone.NONNEG):
        sd = _SeqData(u, "id", K)

        def fn(n: np.ndarray) -> np.ndarray:
            nf = n.astype(float)
            diag = (nf - 1.0) / nf * sd.vals_at(n)
            tail = sd.tail(INV_K, n + 1)
            if cone is Cone.ALL:
                return diag + tail
            return np.maximum(diag, tail)

        return fn
    # NONDECR (NONINCR is rejected before reaching here)
    sd = _SeqData(u, "up", K)

    def fn(n: np.ndarray) -> np.ndarray:
        return sd.tail(INV_K, n + 1)

    return fn


def _c_minus_sstar_rows(u: Weight, cone: Cone, K: int) -> Callable:
    L = truncation_length(u)
    if cone in (Cone.ALL, Cone.NONNEG):
        sd = _SeqData(u, "id", K)

        def fn(n: np.ndarray) -> np.ndarray:
            nf = n.astype(float)
            mean = sd.prefix(n) / nf
            nxt = sd.vals_at(n + 1)
            return mean + nxt if cone is Cone.ALL else np.maximum(mean, nxt)

        return fn
    if cone is Cone.NONINCR:
        sd = _SeqData(u, "down", K)

        def fn(n: np.ndarray) -> np.ndarray:
            return sd.prefix(n) / n.astype(float)

        return fn
    sd = _SeqData(u, "up", K)

    def fn(n: np.ndarray) -> np.ndarray:
        inner = sd.vals_at(n + 1)
        if L is not None:
            beyond = n + 1 > L  # no shifted column inside the block
            if np.any(beyond):
                inner = np.where(beyond, sd.prefix(n) / n.astype(float), inner)
        return inner

    return fn


def _cstarsd_rows(u: Weight, cone: Cone, K: int) -> Callable:
    if cone in (Cone.ALL, Cone.NONNEG):
        sd = _SeqData(u, "id", K)

        def fn(n: np.ndarray) -> np.ndarray:
            nf = n.astype(float)
            prev = sd.vals_at(n - 1) / nf
            tail = sd.tail(INV_K_KP1, n)
            return prev + tail if cone is Cone.ALL else np.maximum(prev, tail)

        return fn
    if cone is Cone.NONINCR:
        sd = _SeqData(u, "down", K)

        def fn(n: np.ndarray) -> np.ndarray:
            # row 1 keeps its full positive tail; rows >= 2 flip to the
            # single entry 1/n at column n-1
            out = sd.vals_at(n - 1) / n.astype(float)
            first = n == 1
            if np.any(first):
                t1 = float(sd.tail(INV_K_KP1, np.array([1]))[0])
                out = np.where(first, t1, out)
            return out

        return fn
    sd = _SeqData(u, "up", K)

    def fn(n: np.ndarray) -> np.ndarray:
        return sd.tail(INV_K_KP1, n)

    return fn


def norm_cesaro(u: Weight, v: Weight, cone: Cone,
                cfg: TruncConfig = DEFAULT_TRUNC) -> NormResult:
    """sup_n (v_n/n) sum_{k<=n} u~_k over the requested cone."""
    return _specialized(OpKind.C, u, v, cone, cfg, _cesaro_rows)


def norm_copson(u: Weight, v: Weight, cone: Cone,
                cfg: TruncConfig = DEFAULT_TRUNC) -> NormResult:
    """sup_n v_n sum_{k>=n} u~_k/k; the nondecreasing cone is trivially 0 on
    infinite problems (every row sum is infinite)."""
    return _specialized(OpKind.CSTAR, u, v, cone, cfg, _copson_rows)


def dist_cesaro_identity(u: Weight, v: Weight, cone: Cone,
                         cfg: TruncConfig = DEFAULT_TRUNC) -> NormResult:
    """Distance of the averaging operator to the identity on the cone."""
    return _specialized(OpKind.C_MINUS_I, u, v, cone, cfg, _cesaro_id_rows)


def dist_copson_identity(u: Weight, v: Weight, cone: Cone,
                         cfg: TruncConfig = DEFAULT_TRUNC) -> NormResult:
    """Distance of the tail operator to the identity.  The nonincreasing
    cone is an open problem and is never computed."""
    if cone is Cone.NONINCR:
        return _unsupported("open problem: nonincreasing cone for C*-I")
    return _specialized(OpKind.CSTAR_MINUS_I, u, v, cone, cfg, _copson_id_rows)


def norm_c_minus_sstar(u: Weight, v: Weight, cone: Cone,
                       cfg: TruncConfig = DEFAULT_TRUNC) -> NormResult:
    """Norms of C - S* (and of S* - C on the nondecreasing cone)."""
    return _specialized(OpKind.C_MINUS_SSTAR, u, v, cone, cfg, _c_minus_sstar_rows)


def norm_cstarsd(u: Weight, v: Weight, cone: Cone,
                 cfg: TruncConfig = DEFAULT_TRUNC) -> NormResult:
    """Norms of (C* - S)D (and of (S - C*)D on the nonincreasing cone)."""
    return _specialized(OpKind.CSTARSD, u, v, cone, cfg, _cstarsd_rows)


SPECIALIZED_BY_KIND = {
    OpKind.C: norm_cesaro,
    OpKind.CSTAR: norm_copson,
    OpKind.C_MINUS_I: dist_cesaro_identity,
    OpKind.CSTAR_MINUS_I: dist_copson_identity,
    OpKind.C_MINUS_SSTAR: norm_c_minus_sstar,
    OpKind.CSTARSD: norm_cstarsd,
}
