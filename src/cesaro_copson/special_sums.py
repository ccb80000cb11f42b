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
remainder is bounded by hurwitz_tail(a+J+1, n).  The split and the Bernoulli
terms collapse into one coefficient table per exponent (``_em_table``, a
bounded cache): the tail past N is N**e * P(1/N), with e = 1 - s and P of
degree 8 for the Hurwitz tail, e = -a and degree J + 7 = 21 for the shifted
one, and each evaluation is one power and one Horner loop.  Its rounding is
below 8 * 2**-53 <= (deg + 1) * 2**-53 relative for s <= 31 and n >= 16.

Vectorised ``*_scaled`` variants evaluate n**p * tail(n) elementwise for scan
loops.  On scattered rows the series is evaluated per row, with the scaling
folded into the power n**(p+e) so no huge or tiny intermediates appear.  The
series starts at the first row where its E-M remainder is at most 2**-53 of
the tail (``_em_cut``, 16 to 40 rows for s <= 3, 223 for s = 30); a row below
it sums its terms exactly, each formed relative to the row, up to a row m <=
cut where the series, scaled to the row, is within 2**-53 of its tail, and
adds the series at m (``_below_cut``).  On a contiguous increasing run n0,
n0+1, ..., n1 (what every scan passes) the tails are reverse cumulative sums
of the terms, one per cell of a fixed grid, each anchored by the series at the
row just past the cell, as the scattered path evaluates it there.  Cells end
at every grid row g (_FIRST_BLOCK and the multiples of _BLOCK), at g + 1, and
at the run's end, so a row's value depends only on the row and the end of the
request: the blocks of a scan, which end on grid rows (one row later for tails
read from column n + 1), give the bits of one whole-array request.  The terms
are positive and summed smallest first, so the error of a row is its anchor's
error (E-M remainder plus Horner rounding) plus at most _BLOCK * 2**-53
(~4.5e-13) relative.  Runs whose terms k**(-s) or scales n**p would leave the
normal float range keep the per-row path.

A caller that already holds the values u_k = k**(1 - s) (Hurwitz) or
k**(1 - beta) (shifted) over a run's columns can have the run's terms formed
from them, u_k / k or u_k / (k (k + 1)), and summed on the same grid with
the same anchors (``_value_run_tails``): no power per term.  Such a term
meets at most one rounding more than the formula's (the division by k, or
the product k (k + 1) past 2**26), so it stays within a few 2**-53 of the
term, and a row stays inside its cell's _BLOCK * 2**-53 bound plus the
anchor's error.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=64)
def _em_table(s: float, terms: int) -> tuple[tuple[float, ...], ...]:
    """Euler-Maclaurin expansion of sum_{j<terms} (-1)**j sum_{k>=N} k**(-s-j)
    as N**(1-s) * P(1/N), highest degree first: P, R with N**(1-s) * R(1/N)
    bounding the E-M remainders, and W with N**(1-s) * W(1/N) * 2**-53
    bounding the rounding of ``_em_scaled`` (the degree-i term meets 3i + 4
    roundings, and one more covers their products)."""
    P = [0.0] * (terms + 8)
    R = [0.0] * (terms + 10)
    for j in range(terms):
        sj, sign = s + j, (-1.0) ** j
        P[j] += sign / (sj - 1.0)
        P[j + 1] += sign * 0.5
        for i, c in enumerate(_EM_COEFFS, start=1):
            P[j + 2 * i] += sign * c * _rising(sj, 2 * i - 1)
        R[j + 10] = _EM_BOUND_COEFF * _rising(sj, 9)
    W = [(3 * i + 5) * abs(c) for i, c in enumerate(P)]
    return tuple(P[::-1]), tuple(R[::-1]), tuple(W[::-1])


def _horner(coeffs: tuple[float, ...], x):
    """The polynomial with these coefficients (highest degree first) at the
    float or float array x."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * x + c
    return acc


_FEW = 16   # up to this many rows, the Horner loop runs in Python floats


def _em_scaled(s: float, terms: int, n: np.ndarray, p: float = 0.0) -> np.ndarray:
    """n**p * sum_{j<terms} (-1)**j sum_{k>=n} k**(-s-j) elementwise by the
    Euler-Maclaurin table (all n >= 16): one power and one Horner loop, the
    loop in Python floats for a few rows (the same bits, without a ufunc call
    per coefficient).  Rows below the series' first row ``_em_cut`` sum
    their first terms exactly (``_below_cut``)."""
    nf = np.asarray(n, dtype=float)
    P = _em_table(s, terms)[0]
    cut = _em_cut(s, terms)
    if nf.size <= _FEW:
        rows = nf.tolist()
        poly = np.array([_horner(P, 1.0 / x) for x in rows])
        steep = any(x < cut for x in rows)
    else:
        poly = _horner(P, 1.0 / nf)
        steep = True
    if steep:
        low = nf < cut
        if low.any():
            poly[low] = _below_cut(s, terms, nf[low], cut)
    return np.power(nf, p + 1.0 - s) * poly


@functools.lru_cache(maxsize=64)
def _em_cut(s: float, terms: int) -> int:
    """The first row N where the table's E-M remainder is at most 2**-53 of
    the tail, R(1/N) <= 2**-53 P(1/N) (by doubling, then bisection: the
    ratio falls like N**-10)."""
    P, R, _ = _em_table(s, terms)

    def ok(N: int) -> bool:
        return _horner(R, 1.0 / N) <= 2.0 ** -53 * _horner(P, 1.0 / N)

    hi = 1
    while not ok(hi):
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


def _below_cut(s: float, terms: int, n: np.ndarray, cut: int) -> np.ndarray:
    """tail(n) / n**(1-s) for the rows n < cut (a float array): for each
    row the terms k = n..m-1 relative to it, (k/n)**-s / n for the Hurwitz
    tail and (k/n)**(1-s) / (k+1) for the shifted one (each within
    (s + 2) * 2**-53), summed exactly, plus the series at a row m <= cut.
    All rows' terms are formed in one pass.

    The series at m is off by its remainder R(1/m) m**(1-s), and R has
    nonnegative coefficients of degree >= 10, so R(1/m) <= (n/m)**10 R(1/n).
    Its error over n**(1-s) is then at most 2**-53 n / ((n+1) (s-1)), under
    2**-53 of the tail (whose integral is at least that), once
    (m/n)**(s+9) >= R(1/n) / that: a steep exponent's head stops after a
    small fraction of n terms, not at the cut."""
    P, R, _ = _em_table(s, terms)
    bound = 2.0 ** -53 * n / ((n + 1.0) * (s - 1.0))
    log_r = np.log(np.maximum(_horner(R, 1.0 / n) / bound, 1.0)) / (s + 9.0)
    m = np.minimum(cut, np.ceil(n * np.exp(np.minimum(log_r, np.log(cut / n)))) + 1.0)
    lengths = (m - n).astype(np.int64)
    ends = np.cumsum(lengths)
    nk = np.repeat(n, lengths)
    k = nk + (np.arange(ends[-1]) - np.repeat(ends - lengths, lengths))
    head = (np.power(k / nk, -s) / nk if terms == 1
            else np.power(k / nk, 1.0 - s) / (k + 1.0)).tolist()
    bounds = ends.tolist()
    sums = np.array([math.fsum(head[a:b]) for a, b in zip([0] + bounds[:-1], bounds)])
    return sums + np.power(m / n, 1.0 - s) * _horner(P, 1.0 / m)


def _em_error(s: float, terms: int, N: int) -> float:
    """Bound on the error of the table's series at row N (the E-M remainders
    and the rounding of ``_em_scaled``) as the tail it expands: the Hurwitz
    tail for terms = 1, otherwise the shifted tail sum_{k>=N} k**(1-s)/(k+1),
    whose geometric remainder sum_{k>=N} k**(1-s-terms)/(k+1) is at most
    sum_{k>=N} k**q <= N**q + N**(q+1) / (-q-1), q = -s - terms."""
    _, R, W = _em_table(s, terms)
    x = 1.0 / N
    err = N ** (1.0 - s) * (_horner(R, x) + 2.0 ** -53 * _horner(W, x))
    if terms > 1:
        q = -s - terms
        err += N ** q + N ** (q + 1.0) / (-q - 1.0)
    return err


def _certified(s: float, terms: int, n: int, first: int,
               term: Callable[[int], float]) -> CertifiedValue:
    """sum_{k>=n} term(k) for the tail the table (s, terms) expands: an fsum
    head up to the cut N >= first where the E-M remainder drops below
    _TARGET, plus the table's series at N."""
    P, R, _ = _em_table(s, terms)
    N = max(n, first)
    while N ** (1.0 - s) * _horner(R, 1.0 / N) > _TARGET:
        N *= 2
    head = math.fsum(term(k) for k in range(n, N))
    tail = N ** (1.0 - s) * _horner(P, 1.0 / N)
    # fsum is exactly rounded; charge one ulp per addition for the assembly
    slack = 4.0 * np.finfo(float).eps * (abs(head) + abs(tail))
    return CertifiedValue(head + tail, _em_error(s, terms, N) + slack)


def hurwitz_tail(s: float, n: int) -> CertifiedValue:
    """sum_{k>=n} k**(-s) for s > 1, certified to 1e-12 absolute."""
    if s <= 1.0:
        raise ValueError("hurwitz_tail requires s > 1 (series diverges)")
    if n < 1:
        raise ValueError("n must be >= 1")
    return _certified(s, 1, n, 16, lambda k: k ** (-s))


def zeta(s: float) -> CertifiedValue:
    """Riemann zeta(s) for s > 1, certified to 1e-12 absolute."""
    return hurwitz_tail(s, 1)


def shifted_tail(alpha: float, n: int) -> CertifiedValue:
    """sum_{k>=n} k**(-alpha)/(k+1) for alpha > 0, certified to 1e-12."""
    if alpha <= 0.0:
        raise ValueError("shifted_tail requires alpha > 0 (series diverges)")
    if n < 1:
        raise ValueError("n must be >= 1")
    return _certified(alpha + 1.0, _GEOM_J, n, 32, lambda k: k ** (-alpha) / (k + 1.0))


def m_alpha(alpha: float) -> CertifiedValue:
    """M_alpha = sum_{k>=1} k**(-alpha)/(k+1), alpha > 0."""
    if alpha <= 0.0:
        raise ValueError("m_alpha requires alpha > 0")
    return shifted_tail(alpha, 1)


# ---------------------------------------------------------------------------
# Vectorised scan helpers: n**p * tail(n) elementwise, stable for large n.
# ---------------------------------------------------------------------------

_FIRST_BLOCK = 256   # the first grid row, and the rows of a scan's first block
_BLOCK = 4096        # grid period past it: _BLOCK * 2**-53 ~ 4.5e-13 relative
_RUN_ANCHOR = 32     # runs are extended so that every anchor is >= this row
_LOG_NORMAL = 700.0  # exp(-700) is still a normal double


def _run_start(n: np.ndarray) -> int | None:
    """n[0] when the integer array n is the run n[0], n[0]+1, ..., n[-1],
    None otherwise.  Strictly increasing integers that span n.size - 1 form
    a run: one comparison pass, and no array of differences."""
    if (n.ndim != 1 or n.size == 0 or n.dtype.kind not in "iu"
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

    The run is extended to row _RUN_ANCHOR - 1 and cut into the grid's
    cells: before the period that starts past row g0 (the first multiple of
    _BLOCK, at least _BLOCK, at or past n0 - 1), a cell ends at rows
    _FIRST_BLOCK and _FIRST_BLOCK + 1 and at g0; then come whole periods,
    each a single row g + 1 and the cell g + 2..g + _BLOCK; then the row
    past the last period and the rest of the run.  Inside a cell the tails
    are one reverse cumsum of the positive, decreasing terms, so they are
    summed smallest first (relative rounding error <= _BLOCK * 2**-53); each
    cell is anchored by the certified tail ``em_tail`` at the first row past
    it, all anchors in one call.  ``term(k, t)`` writes the terms at the run
    k into t.  The terms, sums and anchors are formed in place in out,
    unless the run is extended.
    """
    end = max(n1, _RUN_ANCHOR - 1)
    t, k = (out, n) if end == n1 else (np.empty(end - n0 + 1), np.arange(n0, end + 1))
    term(k, t)
    g0 = max(_BLOCK, -(-(n0 - 1) // _BLOCK) * _BLOCK)
    periods = max(end - g0, 0) // _BLOCK
    g1 = g0 + periods * _BLOCK
    ends = [e for e in (_FIRST_BLOCK, _FIRST_BLOCK + 1) if n0 <= e < min(end, g0)]
    if n0 <= g0:
        ends.append(min(end, g0))
    if end > g1:
        ends += [g1 + 1] + ([end] if end > g1 + 1 else [])
    rows = [e + 1 for e in ends]
    if periods:
        g = g0 + _BLOCK * np.arange(periods)
        rows = np.concatenate([rows, g + 2, g + (_BLOCK + 1)])
    anchors = em_tail(rows)
    lo = n0
    for e, anc in zip(ends, anchors[:len(ends)].tolist()):
        if e > g1:   # past the whole periods
            lo = max(lo, g1 + 1)
        seg = t[lo - n0:e - n0 + 1]
        rev = seg[::-1]
        np.cumsum(rev, out=rev)
        seg += anc
        lo = e + 1
    if periods:
        body = t[g0 + 1 - n0:g1 + 1 - n0].reshape(periods, _BLOCK)
        cells = body[:, 1:]
        rev = cells[:, ::-1]
        np.cumsum(rev, axis=1, out=rev)
        cells += anchors[len(ends) + periods:, None]
        body[:, 0] += anchors[len(ends):len(ends) + periods]
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
                          lambda a: _em_scaled(s, 1, a), out)
    small = n < 16
    if np.any(small):
        for idx in np.nonzero(small)[0]:
            ni = int(n[idx])
            out[idx] = hurwitz_tail(s, ni).value * float(ni) ** p
    big = ~small
    if np.any(big):
        out[big] = _em_scaled(s, 1, n[big], p)
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
                          lambda a: _em_scaled(beta + 1.0, _GEOM_J, a), out)
    small = n < 32
    if np.any(small):
        for idx in np.nonzero(small)[0]:
            ni = int(n[idx])
            out[idx] = shifted_tail(beta, ni).value * float(ni) ** p
    big = ~small
    if np.any(big):
        out[big] = _em_scaled(beta + 1.0, _GEOM_J, n[big], p)
    return out


def _value_run_tails(param: float, shifted: bool, n: np.ndarray, n0: int, n1: int,
                     kernel: Callable, vals: np.ndarray,
                     out: np.ndarray) -> np.ndarray | None:
    """hurwitz_tail_scaled(param, n, out=out), or shifted_tail_scaled when
    shifted, on the run n = n0..n1 (n0 >= 1), with each term formed as
    kernel(u_k, k, t) from values the caller holds: vals[i] is
    u_{n0 + i} = (n0 + i)**(1 - param) up to column max(n1, _RUN_ANCHOR - 1),
    and kernel writes x / k (Hurwitz) or x / (k (k + 1)) (shifted) into t.
    None, with nothing written, when the run's terms would leave the normal
    float range."""
    s, terms = (param + 1.0, _GEOM_J) if shifted else (param, 1)
    if s * math.log(max(n1, _RUN_ANCHOR) + 1.0) >= _LOG_NORMAL:
        return None
    return _run_tails(n, n0, n1, 0.0, lambda k, t: kernel(vals[:k.size], k, t),
                      lambda a: _em_scaled(s, terms, a), out)
