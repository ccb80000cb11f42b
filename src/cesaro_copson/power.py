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

``scan_certificate`` exposes the monotonicity facts behind these proofs so
the general scan engine can certify its truncated suprema: each scanned
functional is either monotone increasing to the closed form ("limit"),
or attains its supremum inside any reasonable scan window ("attained").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .operators import OpKind
from .special_sums import m_alpha, zeta
from .weights import Cone

__all__ = [
    "PowerCaseResult",
    "ScanCertificate",
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


@dataclass(frozen=True)
class ScanCertificate:
    """How a scanned power functional relates to its closed form.

    mode "limit": the functional increases to ``value`` (the supremum is the
    limit, never attained); "attained": the supremum equals the scan maximum
    inside the window; "divergent": the supremum is +inf.
    """

    mode: str
    value: float


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
            return PowerCaseResult(1.0, "alpha <= 0")
        return PowerCaseResult(0.0, "alpha > 0")
    if alpha < 0:
        return PowerCaseResult(1.0, "alpha < 0")
    if alpha < 1:
        return PowerCaseResult(1.0 / (1.0 - alpha), "0 <= alpha < 1")
    return PowerCaseResult(math.inf, "alpha >= 1")


def copson_power(alpha: float, cone: Cone) -> PowerCaseResult:
    """Norm of the tail operator; the nondecreasing cone is trivial."""
    if cone is Cone.NONDECR:
        return PowerCaseResult(0.0, "nondecreasing cone: zero sequence only")
    if alpha <= 0:
        return PowerCaseResult(math.inf, "alpha <= 0")
    return PowerCaseResult(zeta(alpha + 1.0).value, "alpha > 0",
                           zeta_arg=alpha + 1.0)


def cesaro_minus_id_power(alpha: float, cone: Cone) -> PowerCaseResult:
    """Distance of the averaging operator to the identity."""
    if cone is Cone.ALL:
        if alpha < 1:
            return PowerCaseResult((2.0 - alpha) / (1.0 - alpha), "alpha < 1")
        return PowerCaseResult(math.inf, "alpha >= 1")
    if cone is Cone.NONNEG:
        if alpha < 0:
            return PowerCaseResult(1.0, "alpha < 0")
        if alpha < 1:
            return PowerCaseResult(1.0 / (1.0 - alpha), "0 <= alpha < 1")
        return PowerCaseResult(math.inf, "alpha >= 1")
    if cone is Cone.NONINCR:
        if alpha < 0:
            m = breakpoint_index(alpha)
            val = (m + 1.0) ** (alpha - 1.0) * m
            return PowerCaseResult(val, f"s_m < alpha <= s_(m+1), m={m}",
                                   m_breakpoint=m)
        if alpha < 1:
            return PowerCaseResult(1.0 / (1.0 - alpha), "0 <= alpha < 1")
        return PowerCaseResult(math.inf, "alpha >= 1")
    # NONDECR
    if alpha <= 0:
        return PowerCaseResult(1.0, "alpha <= 0")
    return PowerCaseResult(0.0, "alpha > 0")


def copson_minus_id_power(alpha: float, cone: Cone) -> PowerCaseResult:
    """Distance of the tail operator to the identity (whole space and
    nonnegative cone; the nonincreasing cone is the open problem)."""
    if cone is Cone.ALL:
        if alpha <= 0:
            return PowerCaseResult(math.inf, "alpha <= 0")
        return PowerCaseResult(1.0 + 1.0 / alpha, "alpha > 0")
    if cone is Cone.NONNEG:
        if alpha <= 0:
            return PowerCaseResult(math.inf, "alpha <= 0")
        if alpha < 1:
            return PowerCaseResult(1.0 / alpha, "0 < alpha < 1")
        return PowerCaseResult(1.0, "alpha >= 1")
    raise ValueError("copson_minus_id_power covers cones ALL and NONNEG only")


def two_op_cc_power(alpha: float, cone: Cone) -> PowerCaseResult:
    """Best constant in ||Cx|| <= A ||C*x|| for the matched power pair."""
    if cone is Cone.ALL:
        if alpha <= 0:
            return PowerCaseResult(1.0 + 2.0 ** (-alpha), "alpha <= 0")
        if alpha < 1:
            return PowerCaseResult((2.0 - alpha) / (1.0 - alpha), "0 < alpha < 1")
        return PowerCaseResult(math.inf, "alpha >= 1")
    if cone is Cone.NONNEG:
        if alpha <= 0:
            return PowerCaseResult(1.0, "alpha <= 0")
        if alpha < 1:
            return PowerCaseResult(1.0 / (1.0 - alpha), "0 < alpha < 1")
        return PowerCaseResult(math.inf, "alpha >= 1")
    raise ValueError("two_op_cc_power covers cones ALL and NONNEG only")


def two_op_cstarc_power(alpha: float, cone: Cone) -> PowerCaseResult:
    """Best constant in ||C*x|| <= A ||Cx|| for the matched power pair."""
    if cone is Cone.ALL:
        if alpha <= 0:
            return PowerCaseResult(math.inf, "alpha <= 0")
        if alpha <= 1:
            return PowerCaseResult(1.0 + 1.0 / alpha, "0 < alpha <= 1")
        ma = m_alpha(alpha).value
        return PowerCaseResult(2.0 ** alpha * ma, "alpha > 1", m_alpha_value=ma)
    if cone is Cone.NONNEG:
        if alpha <= 0:
            return PowerCaseResult(math.inf, "alpha <= 0")
        if alpha <= 1:
            return PowerCaseResult(1.0 / alpha, "0 < alpha <= 1")
        return PowerCaseResult(0.0, "alpha > 1")
    raise ValueError("two_op_cstarc_power covers cones ALL and NONNEG only")


def closed_form(kind: OpKind, cone: Cone, alpha: float) -> PowerCaseResult | None:
    """Closed form for a single-operator norm on the matched power pair,
    None where the theorems give none (the open nonincreasing case of
    C*-I, C - S* on the nonnegative and nondecreasing cones, and (C*-S)D)."""
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


def scan_certificate(kind: OpKind, cone: Cone, alpha: float) -> ScanCertificate | None:
    """Monotonicity certificate for the scanned functional of a matched
    power pair.  Backed by the monotone-average facts: n**(a-1) sum_{k<=n}
    k**(-a) moves monotonically with n (direction per sign of a), the
    tail averages n**a sum_{k>=n} k**(-a-1) decrease, and the strict-tail
    averages n**a sum_{k>n} k**(-a-1) increase.  The scan trusts a
    certificate only where the rows it has read agree with it (monotone
    steps up to a limit, a maximum at an attained value), and stops early
    only once its proven tail bound also meets it."""
    if kind is OpKind.C:
        if cone is Cone.NONDECR:
            if alpha > 0:
                return ScanCertificate("attained", 0.0)
            return ScanCertificate("attained", 1.0)
        if alpha < 0:
            return ScanCertificate("attained", 1.0)
        if alpha < 1:
            return ScanCertificate("limit", 1.0 / (1.0 - alpha))
        return ScanCertificate("divergent", math.inf)
    if kind is OpKind.CSTAR:
        if cone is Cone.NONDECR:
            return None  # trivial cone, never scanned
        if alpha <= 0:
            return ScanCertificate("divergent", math.inf)
        return ScanCertificate("attained", zeta(alpha + 1.0).value)
    if kind is OpKind.C_MINUS_I:
        cf = cesaro_minus_id_power(alpha, cone)
        if math.isinf(cf.value):
            return ScanCertificate("divergent", math.inf)
        if cone is Cone.NONINCR and alpha < 0:
            return ScanCertificate("attained", cf.value)
        if cone is Cone.NONDECR and alpha > 0:
            return ScanCertificate("attained", 0.0)
        return ScanCertificate("limit", cf.value)
    if kind is OpKind.CSTAR_MINUS_I:
        if cone in (Cone.NONINCR, Cone.NONDECR):
            return None
        if alpha <= 0:
            return ScanCertificate("divergent", math.inf)
        cf = copson_minus_id_power(alpha, cone)
        return ScanCertificate("limit", cf.value)
    if kind is OpKind.C_MINUS_SSTAR and cone in (Cone.ALL, Cone.NONINCR):
        cf = closed_form(kind, cone, alpha)
        if math.isinf(cf.value):
            return ScanCertificate("divergent", math.inf)
        return ScanCertificate("attained" if alpha <= 0 else "limit", cf.value)
    return None
