"""Closed-form best constants for the matched power weights u_k = k**(-a),
v_n = n**a.

Each function returns a :class:`PowerCaseResult` whose ``case_label`` names
the branch taken, with the branch boundaries encoded exactly as the theorems
state them (half-open intervals matter: e.g. the averaging operator uses
0 <= a < 1 while the reversed two-operator constant uses 0 < a <= 1).

For the distance of the averaging operator to the identity on the
nonincreasing cone with a < 0, the supremum of g(n) = n**(a-1) (n-1) is
attained at an integer selected by the breakpoints

    s_1 = -inf,   s_m = 1 + log(1 - 1/m) / log(1 + 1/m)   (m >= 2),

a strictly increasing negative sequence tending to 0: the maximiser is n=m+1
exactly when s_m < a <= s_{m+1}, and adjacent branches agree at a = s_m.

Each finite branch also names, as its ``mode``, how the rows v_n F(n) that
the general engine scans reach its value, from the monotone-average facts
behind the proofs (n**(a-1) sum_{k<=n} k**(-a) moves monotonically with n,
in a direction set by the sign of a; the tail averages n**a sum_{k>=n}
k**(-a-1) decrease; the strict-tail averages n**a sum_{k>n} k**(-a-1)
increase): "limit" when they rise monotonically to it, so that it is their
limit, and "attained" when their maximum over any reasonable scan window is
the value.
A branch whose rows are never scanned has no mode, and an infinite value
says the rows diverge.  ``scan_certificate`` reads these branches for the
scan engine, which uses them to certify its truncated suprema.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .operators import OpKind
from .special_sums import m_alpha, zeta
from .weights import Cone

__all__ = [
    "PowerCaseResult",
    "breakpoint_s",
    "breakpoint_index",
    "cesaro_power",
    "copson_power",
    "cesaro_minus_id_power",
    "copson_minus_id_power",
    "two_op_cc_power",
    "two_op_cstarc_power",
    "closed_form",
    "scan_certificate",
]


@dataclass(frozen=True)
class PowerCaseResult:
    value: float
    case_label: str
    zeta_arg: float | None = None
    m_alpha_value: float | None = None
    m_breakpoint: int | None = None
    mode: str | None = None   # "limit" or "attained": see the module docstring


# zeta(s) and M_alpha per argument, cached as special_sums._em_table is: a
# matched scan's certificate reads one on every call, and each is an fsum
# over some 30-60 terms
@functools.lru_cache(maxsize=64)
def _zeta(s: float) -> float:
    return zeta(s).value


@functools.lru_cache(maxsize=64)
def _m_alpha(alpha: float) -> float:
    return m_alpha(alpha).value


def _times_pow2(c: float, x: float) -> float:
    """c * 2**x for 0 < c <= 1, formed as 2.0 ** x * c while 2**x fits in
    float64 and from x's integer part as a binary exponent past it;
    ValueError when the product itself leaves float64."""
    try:
        try:
            return 2.0 ** x * c
        except OverflowError:
            return math.ldexp(2.0 ** (x % 1.0) * c, math.floor(x))
    except OverflowError:
        raise ValueError(f"the closed form overflows float64 (2**{x:g})") from None


def breakpoint_s(m: int) -> float:
    """s_m; s_1 = -inf, strictly increasing, negative, -> 0 as m -> inf."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return -math.inf
    return 1.0 + math.log1p(-1.0 / m) / math.log1p(1.0 / m)


def breakpoint_index(alpha: float) -> int:
    """The m >= 1 with s_m < alpha <= s_{m+1}, for alpha < 0."""
    if alpha >= 0:
        raise ValueError("breakpoints select maximisers only for alpha < 0")
    hi = 2
    while breakpoint_s(hi + 1) < alpha:
        hi *= 2
    lo = 1
    # smallest m with s_{m+1} >= alpha
    while lo < hi:
        mid = (lo + hi) // 2
        if breakpoint_s(mid + 1) >= alpha:
            hi = mid
        else:
            lo = mid + 1
    return lo


def cesaro_power(alpha: float, cone: Cone) -> PowerCaseResult:
    """Norm of the averaging operator on power-weighted l-infinity cones."""
    if cone is Cone.NONDECR:
        if alpha <= 0:
            return PowerCaseResult(1.0, "alpha <= 0", mode="attained")
        return PowerCaseResult(0.0, "alpha > 0", mode="attained")
    if alpha < 0:
        return PowerCaseResult(1.0, "alpha < 0", mode="attained")
    if alpha < 1:
        return PowerCaseResult(1.0 / (1.0 - alpha), "0 <= alpha < 1", mode="limit")
    return PowerCaseResult(math.inf, "alpha >= 1")


def copson_power(alpha: float, cone: Cone) -> PowerCaseResult:
    """Norm of the tail operator; the nondecreasing cone is trivial."""
    if cone is Cone.NONDECR:
        return PowerCaseResult(0.0, "nondecreasing cone: zero sequence only")
    if alpha <= 0:
        return PowerCaseResult(math.inf, "alpha <= 0")
    return PowerCaseResult(_zeta(alpha + 1.0), "alpha > 0",
                           zeta_arg=alpha + 1.0, mode="attained")


def cesaro_minus_id_power(alpha: float, cone: Cone) -> PowerCaseResult:
    """Distance of the averaging operator to the identity."""
    if cone is Cone.ALL:
        if alpha < 1:
            return PowerCaseResult((2.0 - alpha) / (1.0 - alpha), "alpha < 1",
                                   mode="limit")
        return PowerCaseResult(math.inf, "alpha >= 1")
    if cone is Cone.NONNEG:
        if alpha < 0:
            return PowerCaseResult(1.0, "alpha < 0", mode="limit")
        if alpha < 1:
            return PowerCaseResult(1.0 / (1.0 - alpha), "0 <= alpha < 1", mode="limit")
        return PowerCaseResult(math.inf, "alpha >= 1")
    if cone is Cone.NONINCR:
        if alpha < 0:
            m = breakpoint_index(alpha)
            val = (m + 1.0) ** (alpha - 1.0) * m
            return PowerCaseResult(val, f"s_m < alpha <= s_(m+1), m={m}",
                                   m_breakpoint=m, mode="attained")
        if alpha < 1:
            return PowerCaseResult(1.0 / (1.0 - alpha), "0 <= alpha < 1", mode="limit")
        return PowerCaseResult(math.inf, "alpha >= 1")
    # NONDECR
    if alpha <= 0:
        return PowerCaseResult(1.0, "alpha <= 0", mode="limit")
    return PowerCaseResult(0.0, "alpha > 0", mode="attained")


def copson_minus_id_power(alpha: float, cone: Cone) -> PowerCaseResult:
    """Distance of the tail operator to the identity (whole space and
    nonnegative cone; the nonincreasing cone is the open problem)."""
    if cone is Cone.ALL:
        if alpha <= 0:
            return PowerCaseResult(math.inf, "alpha <= 0")
        return PowerCaseResult(1.0 + 1.0 / alpha, "alpha > 0", mode="limit")
    if cone is Cone.NONNEG:
        if alpha <= 0:
            return PowerCaseResult(math.inf, "alpha <= 0")
        if alpha < 1:
            return PowerCaseResult(1.0 / alpha, "0 < alpha < 1", mode="limit")
        return PowerCaseResult(1.0, "alpha >= 1", mode="limit")
    raise ValueError("copson_minus_id_power covers cones ALL and NONNEG only")


def two_op_cc_power(alpha: float, cone: Cone) -> PowerCaseResult:
    """Best constant in ||Cx|| <= A ||C*x|| for the matched power pair;
    ValueError on ALL once 1 + 2**-alpha leaves float64 (alpha <= -1024)."""
    if cone is Cone.ALL:
        if alpha <= 0:
            return PowerCaseResult(1.0 + _times_pow2(1.0, -alpha), "alpha <= 0",
                                   mode="attained")
        if alpha < 1:
            return PowerCaseResult((2.0 - alpha) / (1.0 - alpha), "0 < alpha < 1",
                                   mode="limit")
        return PowerCaseResult(math.inf, "alpha >= 1")
    if cone is Cone.NONNEG:
        if alpha <= 0:
            return PowerCaseResult(1.0, "alpha <= 0", mode="attained")
        if alpha < 1:
            return PowerCaseResult(1.0 / (1.0 - alpha), "0 < alpha < 1", mode="limit")
        return PowerCaseResult(math.inf, "alpha >= 1")
    raise ValueError("two_op_cc_power covers cones ALL and NONNEG only")


def two_op_cstarc_power(alpha: float, cone: Cone) -> PowerCaseResult:
    """Best constant in ||C*x|| <= A ||Cx|| for the matched power pair;
    ValueError on ALL once 2**alpha M_alpha leaves float64 (alpha > 1024)."""
    if cone is Cone.ALL:
        if alpha <= 0:
            return PowerCaseResult(math.inf, "alpha <= 0")
        if alpha <= 1:
            return PowerCaseResult(1.0 + 1.0 / alpha, "0 < alpha <= 1", mode="limit")
        ma = _m_alpha(alpha)
        return PowerCaseResult(_times_pow2(ma, alpha), "alpha > 1", m_alpha_value=ma,
                               mode="attained")
    if cone is Cone.NONNEG:
        if alpha <= 0:
            return PowerCaseResult(math.inf, "alpha <= 0")
        if alpha <= 1:
            return PowerCaseResult(1.0 / alpha, "0 < alpha <= 1", mode="limit")
        return PowerCaseResult(0.0, "alpha > 1", mode="attained")
    raise ValueError("two_op_cstarc_power covers cones ALL and NONNEG only")


def closed_form(kind: OpKind, cone: Cone, alpha: float) -> PowerCaseResult | None:
    """Closed form for a single-operator norm on the matched power pair,
    None where the theorems give none (the open nonincreasing case of
    C*-I, C - S* on the nonnegative and nondecreasing cones, and (C*-S)D)."""
    return _branch(kind, cone, alpha)


def scan_certificate(kind: OpKind, cone: Cone, alpha: float) -> PowerCaseResult | None:
    """The closed-form branch of a matched power pair as the certificate of
    its scan: a branch with a mode, or an infinite one (divergent rows).
    None where there is no closed form or its branch is never scanned.  The
    scan trusts a certificate only where the rows it has read agree with it
    (monotone steps up to a limit, a maximum at an attained value), and
    stops early only once its proven tail bound also meets it."""
    cf = _branch(kind, cone, alpha)
    if cf is None or (cf.mode is None and not math.isinf(cf.value)):
        return None
    return cf


def _branch(kind: OpKind, cone: Cone, alpha: float) -> PowerCaseResult | None:
    """The branch table of the kind.  ``closed_form`` and
    ``scan_certificate`` both read it, under this separate name so that a
    tracer that wraps one of them does not count the other's reads."""
    if kind is OpKind.C:
        return cesaro_power(alpha, cone)
    if kind is OpKind.CSTAR:
        return copson_power(alpha, cone)
    if kind is OpKind.C_MINUS_I:
        return cesaro_minus_id_power(alpha, cone)
    if kind is OpKind.CSTAR_MINUS_I:
        if cone is Cone.NONINCR:
            return None
        if cone is Cone.NONDECR:
            return PowerCaseResult(0.0, "first row has an infinite sum")
        return copson_minus_id_power(alpha, cone)
    if kind is OpKind.C_MINUS_SSTAR and cone in (Cone.ALL, Cone.NONINCR):
        # the norm the C <= A C* constant on ALL or NONNEG is (two_operator)
        return two_op_cc_power(alpha, Cone.ALL if cone is Cone.ALL else Cone.NONNEG)
    return None
