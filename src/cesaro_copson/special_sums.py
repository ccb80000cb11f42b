"""Certified evaluation of the special sums the closed forms need.

All quantities are tails of completely monotone terms, evaluated by direct
summation up to a cut N plus an Euler-Maclaurin correction whose remainder is
bounded by the first omitted term (valid because x**(-s) is completely
monotone for s > 0, so the E-M remainder alternates).  Every public function
returns a :class:`CertifiedValue` carrying an absolute error bound <= 1e-12.

The two primitives are

    hurwitz_tail(s, n)  = sum_{k>=n} k**(-s)                (s > 1)
    shifted_tail(a, n)  = sum_{k>=n} k**(-a) / (k+1)        (a > 0)

The shifted tail is reduced to Hurwitz tails through the exact geometric
split 1/(k+1) = sum_{j<J} (-1)**j k**(-j-1) + (-1)**J k**(-J) / (k+1), whose
remainder is bounded by hurwitz_tail(a+J+1, n).

Vectorised ``*_scaled`` variants evaluate n**p * tail(n) elementwise for scan
loops.  On scattered rows the Euler-Maclaurin expansion is evaluated per row,
with the scaling folded into the exponents so no huge or tiny intermediates
appear.  On a contiguous increasing run n0, n0+1, ..., n1 (what every scan
passes) the tails are reverse cumulative sums of the terms, one per block of
_BLOCK rows, each anchored by the Euler-Maclaurin tail just past the block.
The terms are positive and summed smallest first, so the error of a row is
its anchor's certified error plus at most _BLOCK * 2**-53 (~4.5e-13)
relative.  Runs whose terms k**(-s) or scales n**p would leave the normal
float range keep the per-row path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "CertifiedValue",
    "zeta",
    "hurwitz_tail",
    "shifted_tail",
    "m_alpha",
    "hurwitz_tail_scaled",
    "shifted_tail_scaled",
]

# Bernoulli correction coefficients B_{2i}/(2i)! for i = 1..4 and the bound
# coefficient B_10/10!.
_EM_COEFFS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0)
_EM_BOUND_COEFF = 5.0 / 66.0 / 3628800.0

_TARGET = 5e-14  # internal target, leaves headroom under the 1e-12 contract
_GEOM_J = 14     # geometric-split depth for shifted tails (cut at n >= 32)


@dataclass(frozen=True)
class CertifiedValue:
    """A float with a certified absolute error bound."""

    value: float
    error_bound: float

    def __float__(self) -> float:
        return self.value


def _rising(s: float, m: int) -> float:
    out = 1.0
    for i in range(m):
        out *= s + i
    return out


def _em_tail_at(s: float, N: int) -> tuple[float, float]:
    """Euler-Maclaurin tail sum_{k>=N} k**(-s) and its remainder bound."""
    t = N ** (1.0 - s) / (s - 1.0) + 0.5 * N ** (-s)
    for i, c in enumerate(_EM_COEFFS, start=1):
        t += c * _rising(s, 2 * i - 1) * N ** (-s - 2 * i + 1)
    bound = _EM_BOUND_COEFF * _rising(s, 9) * N ** (-s - 9)
    return t, abs(bound)


def _em_cut(s: float, n: int) -> int:
    N = max(n, 16)
    while _EM_BOUND_COEFF * _rising(s, 9) * N ** (-s - 9) > _TARGET:
        N *= 2
    return N


def hurwitz_tail(s: float, n: int) -> CertifiedValue:
    """sum_{k>=n} k**(-s) for s > 1, certified to 1e-12 absolute."""
    if s <= 1.0:
        raise ValueError("hurwitz_tail requires s > 1 (series diverges)")
    if n < 1:
        raise ValueError("n must be >= 1")
    N = _em_cut(s, n)
    head = math.fsum(k ** (-s) for k in range(n, N))
    tail, bound = _em_tail_at(s, N)
    # fsum is exactly rounded; charge one ulp per addition for the assembly
    slack = 4.0 * np.finfo(float).eps * (abs(head) + abs(tail))
    return CertifiedValue(head + tail, bound + slack)


def zeta(s: float) -> CertifiedValue:
    """Riemann zeta(s) for s > 1, certified to 1e-12 absolute."""
    return hurwitz_tail(s, 1)


def _shifted_tail_from(beta: float, n0: int) -> tuple[float, float]:
    """sum_{k>=n0} k**(-beta)/(k+1) via the geometric split; n0 >= 32."""
    total = 0.0
    err = 0.0
    sign = 1.0
    for j in range(_GEOM_J):
        cv = hurwitz_tail(beta + 1.0 + j, n0)
        total += sign * cv.value
        err += cv.error_bound
        sign = -sign
    rem = hurwitz_tail(beta + _GEOM_J + 1.0, n0)
    err += rem.value + rem.error_bound
    return total, err


def shifted_tail(alpha: float, n: int) -> CertifiedValue:
    """sum_{k>=n} k**(-alpha)/(k+1) for alpha > 0, certified to 1e-12."""
    if alpha <= 0.0:
        raise ValueError("shifted_tail requires alpha > 0 (series diverges)")
    if n < 1:
        raise ValueError("n must be >= 1")
    n0 = max(n, 32)
    head = math.fsum(k ** (-alpha) / (k + 1.0) for k in range(n, n0))
    tail, err = _shifted_tail_from(alpha, n0)
    slack = 4.0 * np.finfo(float).eps * (abs(head) + abs(tail))
    return CertifiedValue(head + tail, err + slack)


def m_alpha(alpha: float) -> CertifiedValue:
    """M_alpha = sum_{k>=1} k**(-alpha)/(k+1), alpha > 0."""
    if alpha <= 0.0:
        raise ValueError("m_alpha requires alpha > 0")
    return shifted_tail(alpha, 1)


# ---------------------------------------------------------------------------
# Vectorised scan helpers: n**p * tail(n) elementwise, stable for large n.
# ---------------------------------------------------------------------------

_BLOCK = 4096        # rows per reverse cumsum: _BLOCK * 2**-53 ~ 4.5e-13 relative
_RUN_ANCHOR = 32     # runs are extended so that every anchor is >= this row
_LOG_NORMAL = 700.0  # exp(-700) is still a normal double


def _em_tail_scaled_vec(s: float, n: np.ndarray, p: float) -> np.ndarray:
    """n**p * sum_{k>=n} k**(-s) via pure E-M; requires all n >= 16."""
    nf = n.astype(float)
    out = np.power(nf, p + 1.0 - s) / (s - 1.0) + 0.5 * np.power(nf, p - s)
    for i, c in enumerate(_EM_COEFFS, start=1):
        out += c * _rising(s, 2 * i - 1) * np.power(nf, p - s - 2 * i + 1)
    return out


def _shifted_em_scaled_vec(beta: float, n: np.ndarray, p: float) -> np.ndarray:
    """n**p * sum_{k>=n} k**(-beta)/(k+1) via the geometric split; all n >= 32."""
    acc = np.zeros(n.shape, dtype=float)
    sign = 1.0
    for j in range(_GEOM_J):
        acc += sign * _em_tail_scaled_vec(beta + 1.0 + j, n, p)
        sign = -sign
    return acc


def _run_start(n: np.ndarray) -> int | None:
    """n[0] when the integer array n is the run n[0], n[0]+1, ..., n[-1],
    None otherwise.  Strictly increasing integers that span n.size - 1 form
    a run: one comparison pass, and no array of differences."""
    if (n.ndim != 1 or n.size == 0 or not np.issubdtype(n.dtype, np.integer)
            or int(n[-1]) - int(n[0]) != n.size - 1
            or not (n[1:] > n[:-1]).all()):
        return None
    return int(n[0])


def _run_bounds(n: np.ndarray, s: float, p: float) -> tuple[int, int] | None:
    """(n0, n1) when n is n0, n0+1, ..., n1 with n0 >= 1 and the terms
    k**(-s) and the scales k**p of the (extended) run are normal floats."""
    n0 = _run_start(n)
    if n0 is None or n0 < 1:
        return None
    n1 = n0 + n.size - 1
    log_end = math.log(max(n1, _RUN_ANCHOR) + 1.0)
    if s * log_end >= _LOG_NORMAL or abs(p) * log_end >= _LOG_NORMAL:
        return None
    return n0, n1


def _run_tails(n: np.ndarray, n0: int, n1: int, p: float,
               term: Callable[[np.ndarray, np.ndarray], object],
               em_tail: Callable[[np.ndarray], np.ndarray],
               out: np.ndarray) -> np.ndarray:
    """n**p * tail(n), tail(n) = sum_{k>=n} term(k), for the run n = n0..n1,
    written into out.

    The run is extended to row _RUN_ANCHOR - 1 and cut into blocks of _BLOCK
    rows.  Inside a block the tails are one reverse cumsum of the positive,
    decreasing terms, so they are summed smallest first (relative rounding
    error <= _BLOCK * 2**-53); each block is anchored by the certified tail
    ``em_tail`` at the first row past it, all anchors in one vectorised call.
    ``term(k, t)`` writes the terms at the run k into t.  The terms, sums
    and anchors are formed in place in out, unless the run is extended.
    """
    end = max(n1, _RUN_ANCHOR - 1)
    m = end - n0 + 1
    t, k = (out, n) if end == n1 else (np.empty(m), np.arange(n0, end + 1))
    term(k, t)
    anchors = em_tail(np.minimum(n0 + _BLOCK * np.arange(1, -(-m // _BLOCK) + 1),
                                 end + 1))
    # whole blocks, then the last short one (the zeros a padded block would
    # add first change no sum)
    full = m - m % _BLOCK
    for seg, anc in ((t[:full].reshape(-1, _BLOCK), anchors[:full // _BLOCK]),
                     (t[full:].reshape(1, -1), anchors[full // _BLOCK:])):
        if seg.size:
            rev = seg[:, ::-1]
            np.cumsum(rev, axis=1, out=rev)
            np.add(seg, anc[:, None], out=seg)
    if t is not out:
        out[...] = t[: n1 - n0 + 1]
    if p != 0.0:
        out *= np.power(np.arange(n0, n1 + 1, dtype=float), p)
    return out


def _shifted_terms(beta: float, k: np.ndarray, t: np.ndarray) -> None:
    """k**-beta / (k + 1) written into t: on the run k, k + 1 is k one
    place on."""
    np.power(k, -beta, out=t, dtype=float)
    np.divide(t[:-1], k[1:], out=t[:-1], dtype=float)
    t[-1] /= k[-1] + 1.0


def hurwitz_tail_scaled(s: float, n: np.ndarray, p: float = 0.0,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise n**p * sum_{k>=n} k**(-s) for an integer array n (s > 1),
    written into the float array out of n's shape when given."""
    if s <= 1.0:
        raise ValueError("hurwitz_tail_scaled requires s > 1")
    n = np.asarray(n)
    out = np.empty(n.shape) if out is None else out
    run = _run_bounds(n, s, p)
    if run is not None:
        return _run_tails(n, *run, p, lambda k, t: np.power(k, -s, out=t, dtype=float),
                          lambda a: _em_tail_scaled_vec(s, a, 0.0), out)
    small = n < 16
    if np.any(small):
        for idx in np.nonzero(small)[0]:
            ni = int(n[idx])
            out[idx] = hurwitz_tail(s, ni).value * float(ni) ** p
    big = ~small
    if np.any(big):
        out[big] = _em_tail_scaled_vec(s, n[big], p)
    return out


def shifted_tail_scaled(beta: float, n: np.ndarray, p: float = 0.0,
                        out: np.ndarray | None = None) -> np.ndarray:
    """Elementwise n**p * sum_{k>=n} k**(-beta)/(k+1) (beta > 0), written
    into the float array out of n's shape when given."""
    if beta <= 0.0:
        raise ValueError("shifted_tail_scaled requires beta > 0")
    n = np.asarray(n)
    out = np.empty(n.shape) if out is None else out
    run = _run_bounds(n, beta + 1.0, p)
    if run is not None:
        return _run_tails(n, *run, p, lambda k, t: _shifted_terms(beta, k, t),
                          lambda a: _shifted_em_scaled_vec(beta, a, 0.0), out)
    small = n < 32
    if np.any(small):
        for idx in np.nonzero(small)[0]:
            ni = int(n[idx])
            out[idx] = shifted_tail(beta, ni).value * float(ni) ** p
    big = ~small
    if np.any(big):
        out[big] = _shifted_em_scaled_vec(beta, n[big], p)
    return out
