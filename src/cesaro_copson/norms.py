"""Operator norms on weighted l-infinity cones from one row engine.

Every norm here is a supremum over rows n of  v_n * F(n)  where F is a row
functional built from the domain weight u (or one of its monotone minorants):

    cone ALL      F = (|B| u)_n
    cone NONNEG   F = max((B+ u)_n, (B- u)_n)
    cone NONINCR  F = (B~+ u_down)_n   after admissible row flips B~
    cone NONDECR  F = (B~+ u_up)_n     after admissible row flips B~

One engine (``_kind_rows``) computes F for every kind: the positive and
negative parts of each row, read from the kind's row shape
(``operators.ROW_SHAPES``: a prefix, tail or single-column block and at most
one negative entry) against prefix sums, kernel tails and values of u, with
analytic tails on power-weight problems; on the monotone cones the cone
plan's row flips pick one part per row.  ``norm_general``, the six
per-operator functions (``norm_cesaro`` ... ``norm_cstarsd``) and the best
constants of ``two_operator`` all read their rows from it.  The
per-operator functions also route matched power pairs (u and v both
PowerWeight with the same alpha) to the closed-form branch tables.  The
supremum goes through one driver, ``_row_sup``: ``_finite_sup`` over the
rows of a truncated v, ``_scan_sup`` otherwise.  ``norm_general`` on a fully
truncated problem is the one exception: it reads the literal matrix, built
row by row from ``operators.row_entries`` (which the tests pin to
``entry``), through ``_dense_norm``, which calls ``_finite_sup`` itself.

Infinite problems scan rows 1..n_max in contiguous blocks (rows 1..256,
then up to 4096, then up to 65,536, then _SCAN_BLOCK rows each), ending on
rows of the tails' grid (``special_sums``), keeping only running state
between blocks, so a scan's memory does not depend on n_max.  ``_SeqData``
serves the blocks without tables of the horizon's length: power prefix sums
are carried from block to block, which assumes requests move forward (an
earlier request is recomputed from column 1).  Every per-block array of a
scan (row indices, v_n, the row parts, the value and prefix windows, the
tails) is written with ``out=`` into block buffers (``_Buffers``) that the
later blocks reuse, with the same operations in the same order as a fresh
array would get, so a scan allocates a few arrays instead of some twenty
per block, and the allocator does not hand memory back to the kernel and
fault it in again between blocks.  What a row function or ``_SeqData``
returns is valid only until its next call.

A scan may stop after any block, at its tail (``_tail``, read from the row
shapes).  For a ListWeight u against a PowerWeight v the rows past the
column horizon are c * n**e, so the tail is exact.  For a power pair, matched
or not, each part of a row is bounded by a nonincreasing power of n by
integral comparison, so the tail is a proven bound.  Each best constant of
``two_operator`` is a norm, with its rows: C <= A C* on ALL and NONNEG is
C - S* on ALL and NONINCR against u, with its tail, and C* <= A C against
a PowerWeight u is (C* - S)D on ALL and NONDECR against w_k = k u_k, with
no tail yet.  C* <= A C against a ListWeight u keeps its own rows.

Truncation of the outer supremum is reported honestly in ``NormResult``:
exact finite problems, and list-u / power-v problems closed by their exact
tail, are ClosedForm.  A scan is TruncatedConverged when a tail bound is
within the tolerance of the running supremum (residual: the gap); for a
matched power pair, whose scan carries a monotonicity certificate from the
power theorems, only once that bound also meets the certificate (most
matched pairs do at row 256, the end of the first block).  A certificate
the bound does not meet is checked numerically at the end of the scan
instead.  A scan is also TruncatedConverged when the running supremum has
stalled below the tolerance (a heuristic), and TruncatedLowerBound
otherwise.  Divergence is decided analytically for power weights
(divergent inner tails, divergent closed-form branches, prefix rows that
grow on the whole space and the nonnegative cone) and list-u / power-v
problems (an unbounded exact tail), and by a threshold heuristic
otherwise.  A finite problem is never Divergent: rows that overflow float64
are recomputed with the domain weight scaled by a power of two, and a norm
that does not fit raises ValueError.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable

import numpy as np

from . import power as power_mod
from .operators import (INV_K, INV_K_KP1, NO_FLIP, PREFIX, ROW_SHAPES,
                        SCALE_POWERS, SINGLE, TAIL, ConePlan, OpKind, RowShape,
                        SignFlip, cone_plan, row_entries)
from .special_sums import (_BLOCK, _FIRST_BLOCK, _run_start, _value_run_tails,
                           hurwitz_tail_scaled, shifted_tail_scaled)
from .weights import (Cone, ListWeight, PowerWeight, Weight, _fill_range,
                      codomain_values, envelope_down, envelope_up,
                      truncation_length, weight_values)

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
        if isinstance(self.n_max, bool):
            raise ValueError("n_max must be an integer, not a bool")
        try:
            n_max = operator.index(self.n_max)
        except TypeError:
            raise ValueError(f"n_max must be an integer, not {self.n_max!r}") from None
        object.__setattr__(self, "n_max", n_max)
        # "not x > 0" also refuses NaN, which would disable every test
        if n_max < 1 or not self.tol > 0 or not self.divergence_threshold > 0:
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


_ENV = {Cone.ALL: "id", Cone.NONNEG: "id", Cone.NONINCR: "down", Cone.NONDECR: "up"}


def _envelope(u: Weight, env: str, K: int) -> np.ndarray:
    """u_1..u_K with the envelope env ("id", "down" or "up") applied."""
    if env == "id":
        return weight_values(u, K)
    return envelope_down(u, K) if env == "down" else envelope_up(u, K)


_SCAN_BLOCK = 2 ** 16   # rows per values_fn call, a multiple of special_sums._BLOCK


class _Buffers:
    """Named block buffers of one scan.  ``take(name, size)`` returns the
    first ``size`` entries of that buffer, allocated again only when a block
    is longer than any before it, so a scan's blocks reuse the same memory.
    What a take returns is overwritten by the next take of the same name.

    A scan's first two blocks end at rows _FIRST_BLOCK and _BLOCK; past
    them it reads blocks of up to _SCAN_BLOCK rows, and a window adds two
    columns to a block: a longer request gets a buffer of at least that
    size at once, not a second one at the fourth block."""

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def take(self, name: str, size: int, dtype=float) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is None or buf.size < size:
            cap = size if size <= _BLOCK + 2 else max(size, _SCAN_BLOCK + 2)
            buf = self._bufs[name] = np.empty(cap, dtype)
        return buf[:size]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class _SeqData:
    """Envelope-applied domain weight over columns 1..K: values, prefix sums
    and kernel tails at requested columns, without any table of length K.

    A ListWeight keeps its tables up to L = min(K, length): past L the
    values are 0, so prefix sums are constant and tails are 0 there.  Power,
    ones and zeros modes evaluate values from the formula and tails
    analytically.  Power prefix sums are carried from one request to the
    next: a request past the last computed end extends it by
    cumsum([carry, terms]), which gives the same bits as one long cumsum
    from column 1, and the carry keeps only the window the last request
    needed (one scan block).  Precondition for O(request) cost: no prefix
    request reaches below the start of that window, as in a scan over
    increasing row blocks.  A request that does starts over from column 1:
    correct, but O(end) in time and memory.  A value read keeps its
    evaluation of u for the prefix or tail read that follows it
    (``_values``).

    In power mode the windows live in block buffers (``_Buffers``): the
    value window is refilled by each value read, and the prefix window by
    each prefix read that extends it, its carry moved to the front.  A
    slice handed out for a run of columns is a read-only view of such a
    buffer: it is valid only until the next request to this object, so
    copy it or use it before asking for anything else.
    """

    def __init__(self, u: Weight, env: str, K: int):
        self._u = u
        self._cols = K    # columns that may hold a nonzero value
        if isinstance(u, PowerWeight):
            a = u.alpha
            if env == "id" or (env == "down" and a >= 0) or (env == "up" and a <= 0):
                self.mode, self.alpha = "power", a
                self._bufs = _Buffers()
                self._p0, self._pwin = 0, np.zeros(1)   # prefix sums P[_p0..]
                self._w0, self._win = 1, None           # values u[_w0..]
            elif env == "down":
                self.mode, self.alpha = "ones", 0.0
            else:
                self.mode, self.alpha = "zeros", 0.0
            return
        self.mode, self.alpha = "list", 0.0
        self._cols = Lk = min(K, u.length)
        self._vals = base = _envelope(u, env, Lk)
        self._prefix = np.concatenate([[0.0], np.cumsum(base)])
        self._tails: dict[Callable, np.ndarray] = {}   # per kernel, at its first read

    def _values(self, first: int, count: int) -> np.ndarray:
        """u_first..u_{first+count-1} in power mode (first >= 0, u_0 = 0),
        from a window that reaches one column further on either side and is
        kept until the next prefix or tail read: the rows of C - I and
        C - S* read the values of a block (columns n-1..n+1) and then its
        prefix sums, and those of C* - I and (C* - S)D then its tails, and
        so evaluate u once."""
        win, w0 = self._win, self._w0
        if win is None or first < w0 or first + count > w0 + win.size:
            w0 = max(first - 1, 0)
            size = first + count + 1 - w0
            win = self._bufs.take("values", size)
            if w0 == 0:
                win[0] = 0.0
                weight_values(self._u, size - 1, 1, out=win[1:])
            else:
                weight_values(self._u, size, w0, out=win)
        self._w0, self._win = w0, win
        return _read_only(win[first - w0:first - w0 + count])

    def _powers_into(self, first: int, count: int, out: np.ndarray) -> None:
        """u_first..u_{first+count-1} written into out, from the kept value
        window when it covers them; the window is dropped."""
        win, w0 = self._win, self._w0
        self._win = None
        if win is not None and w0 <= first and first + count <= w0 + win.size:
            out[...] = win[first - w0:first - w0 + count]
        else:
            weight_values(self._u, count, first, out=out)

    def vals_at(self, k: np.ndarray) -> np.ndarray:
        k = np.asarray(k)
        if self.mode == "power":
            lo = _run_start(k)
            if lo is not None and 0 <= lo <= self._cols - k.size + 1:
                return self._values(lo, k.size)   # a block of columns
        out = np.zeros(k.shape, dtype=float)
        ok = (k >= 1) & (k <= self._cols)
        if self.mode == "list":
            out[ok] = self._vals[k[ok] - 1]
        elif self.mode == "ones":
            out[ok] = 1.0
        elif self.mode == "power" and np.any(ok):
            kk = k[ok]
            lo = int(kk.min())
            out[ok] = self._values(lo, int(kk.max()) - lo + 1)[kk - lo]
        return out

    def prefix(self, end: np.ndarray) -> np.ndarray:
        end = np.asarray(end)
        # a run of columns inside 0..K needs no clipping
        first = _run_start(end) if self.mode == "power" else None
        if first is None or first < 0 or first + end.size - 1 > self._cols:
            end, first = np.clip(end, 0, self._cols), None
        if self.mode == "list":
            return self._prefix[end]
        if self.mode == "ones":
            return end.astype(float)
        if self.mode == "zeros" or end.size == 0:
            return np.zeros(end.shape, dtype=float)
        lo, hi = (first, first + end.size - 1) if first is not None else (
            int(end.min()), int(end.max()))
        if lo < self._p0:
            self._p0, self._pwin = 0, np.zeros(1)
        last = self._p0 + self._pwin.size - 1
        if hi > last:
            # the kept sums P[start..last] moved to the front of the
            # buffer, then the new terms summed in place from the carry
            # P[last] on
            start = min(lo, last)
            keep = last - start + 1
            win = self._bufs.take("prefix", hi - start + 1)
            win[:keep] = self._pwin[start - self._p0:]
            self._powers_into(last + 1, hi - last, win[keep:])
            run = win[keep - 1:]
            np.cumsum(run, out=run)
            self._p0, self._pwin = start, win
        if first is not None:
            return _read_only(self._pwin[lo - self._p0:hi - self._p0 + 1])
        return self._pwin[end - self._p0]

    def tail(self, kernel: Callable, start: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
        """sum over k >= start (within the horizon) of kernel_k * value_k,
        for the tail kernels INV_K and INV_K_KP1 of ``operators``, written
        into the float array out of start's shape when given.

        In power mode the tails are analytic (``special_sums``).  When the
        kept value window covers a run of start columns (the rows of C* - I
        and (C* - S)D read their off-sign values first), the run's terms
        are kernel(u_k, k) formed from the window, at most one rounding
        more per term than the formula's and within the cells'
        4096 * 2**-53 bound; other requests form them from the formula."""
        start = np.asarray(start)
        out = np.empty(start.shape) if out is None else out
        if self.mode == "list":   # columns clipped to 1..L+1, where the tail is 0
            if kernel not in self._tails:
                k = np.arange(1, self._cols + 1, dtype=float)
                self._tails[kernel] = np.append(
                    np.cumsum(kernel(self._vals, k)[::-1])[::-1], 0.0)
            return np.take(self._tails[kernel], start - 1, out=out, mode="clip")
        if self.mode == "zeros":
            out[...] = 0.0
            return out
        if self.mode == "ones":
            if kernel is INV_K:
                raise _DivergentTail
            return np.divide(1.0, start, out=out)   # telescoping
        a, win, w0 = self.alpha, self._win, self._w0
        self._win = None
        shifted = kernel is not INV_K
        if (a + 1.0 if shifted else a) <= 0:
            raise _DivergentTail
        if win is not None:
            got = _value_run_tails(a + 1.0, shifted, start, kernel, win, w0, out)
            if got is not None:
                return got
        tail = shifted_tail_scaled if shifted else hurwitz_tail_scaled
        return tail(a + 1.0, start, out=out)


# ---------------------------------------------------------------------------
# The row engine: row functionals from the operator structure
# ---------------------------------------------------------------------------

def _columns(n: np.ndarray, at: int, bufs: _Buffers) -> np.ndarray:
    """Columns n + at of the rows n (n itself when at is 0)."""
    return n if at == 0 else np.add(n, at, out=bufs.take("cols", n.size, np.int64))


def _part_values(kind: OpKind, part: str, sd: _SeqData, n: np.ndarray,
                 bufs: _Buffers | None = None) -> np.ndarray:
    """(B+ u~)_n or (B- u~)_n for the unflipped operator at the 1-D rows n,
    vectorised, read from the kind's row shape, into the buffer named after
    the part."""
    bufs = _Buffers() if bufs is None else bufs
    sh = ROW_SHAPES[kind]
    out = bufs.take(part, n.size)
    if part == "neg":
        if sh.neg_scale is None:
            out[...] = 0.0
            return out
        return sh.neg_scale(sd.vals_at(_columns(n, sh.neg_at, bufs)), n, out)
    cols = _columns(n, sh.at, bufs)
    if sh.block is TAIL:
        return sd.tail(sh.scale, cols, out)
    read = sd.prefix if sh.block is PREFIX else sd.vals_at
    return sh.scale(read(cols), n, out)


def _generic_row_values(kind: OpKind, cone: Cone, flip: SignFlip, sd: _SeqData,
                        n: np.ndarray, bufs: _Buffers) -> np.ndarray:
    """Row functional at rows n, after the row flips flip of the monotone
    cones; sd is u with the cone's envelope _ENV[cone].  The negative part,
    a value read, goes first, so that a prefix read of the positive part can
    reuse its evaluation of u.  The result is one of the buffers of bufs."""
    if cone in (Cone.ALL, Cone.NONNEG):
        if ROW_SHAPES[kind].neg_scale is None:   # F is the positive part
            return _part_values(kind, "pos", sd, n, bufs)
        neg = _part_values(kind, "neg", sd, n, bufs)
        pos = _part_values(kind, "pos", sd, n, bufs)
        if cone is Cone.ALL:
            return np.add(pos, neg, out=pos)
        return np.maximum(pos, neg, out=pos)
    if not flip.flip_rows:   # every row flipped alike
        return _part_values(kind, "neg" if flip.flip_all else "pos", sd, n, bufs)
    flipped = flip.flipped(n)
    if not flipped.any():   # a block of unflipped rows, or of flipped ones
        return _part_values(kind, "pos", sd, n, bufs)
    if flipped.all():
        return _part_values(kind, "neg", sd, n, bufs)
    neg = _part_values(kind, "neg", sd, n, bufs)
    pos = _part_values(kind, "pos", sd, n, bufs)
    np.copyto(pos, neg, where=flipped)
    return pos


def _kind_rows(kind: OpKind, u: Weight, cone: Cone, K: int,
               flip: SignFlip = NO_FLIP) -> Callable[[np.ndarray], np.ndarray]:
    """The row engine: F(n) of the kind's rows flipped by flip, against u
    with the cone's envelope over the column horizon K.  What the returned
    function gives is valid only until its next call."""
    sd = _SeqData(u, _ENV[cone], K)
    bufs = _Buffers()
    return lambda n: _generic_row_values(kind, cone, flip, sd, n, bufs)


# ---------------------------------------------------------------------------
# Supremum drivers
# ---------------------------------------------------------------------------

def _finite_sup(row_values: Callable[[Weight], np.ndarray], u: Weight,
                vvals: np.ndarray, analytic_tails: bool) -> NormResult:
    """Supremum of v_n * F(n) over the rows of a truncated problem, where
    ``row_values(w)`` gives F against the domain weight w, one entry per row.

    A finite problem is never divergent: rows whose float evaluation
    overflows are recomputed with u scaled by an exact power of two, so that
    overflow is handled here and does not warn."""
    with np.errstate(over="ignore", invalid="ignore"):
        prods = vvals * row_values(u)
        val = float(np.max(prods)) if prods.size else 0.0
        if not math.isfinite(val):
            val = _rescaled_sup(row_values, u, vvals, prods)
    residual = 1e-12 if analytic_tails else 0.0
    return NormResult(val, Status.CLOSED_FORM, len(prods), residual)


def _rescaled_sup(row_values: Callable[[Weight], np.ndarray], u: Weight,
                  vvals: np.ndarray, prods: np.ndarray) -> float:
    """The supremum when some products overflowed: those rows are evaluated
    against u * 2**-shift and scaled back.  ValueError when u is not a
    ListWeight or the supremum does not fit in a float64."""
    if not isinstance(u, ListWeight):
        raise ValueError("row values overflow float64 (only a ListWeight "
                         "domain weight is rescaled)")
    # no row functional exceeds (2L + 2) * max(u): a positive and a negative
    # part of at most L entries under kernels <= 1 each, or, for the
    # two-operator rows, the envelope of k u_k under 1/(k(k+1)), at most
    # (L + 1) * max(u).  After this shift every scaled row is below 1, so
    # v_n times it stays finite.
    shift = math.frexp(max(u.values))[1] + (2 * u.length + 2).bit_length()
    scaled = ListWeight(tuple(math.ldexp(x, -shift) for x in u.values))
    over = ~np.isfinite(prods)
    top = float(np.max(vvals[over] * row_values(scaled)[over]))
    try:
        top = math.ldexp(top, shift)
    except OverflowError:
        raise ValueError(f"the norm overflows float64: {top!r} * 2**{shift}") from None
    rest = prods[~over]
    return max(top, float(np.max(rest))) if rest.size else top


@dataclass(frozen=True)
class _Tail:
    """sup over rows n > N of v_n * F(n), as ``at(N)``: that supremum itself
    when ``exact``, otherwise a proven upper bound on it.  ``at`` returns
    None while N is too small for it to say anything."""

    at: Callable[[int], float | None]
    exact: bool = False


def _scan_blocks(N: int):
    """The row blocks (lo, hi) of a scan over 1..N: rows 1.._FIRST_BLOCK,
    then up to _BLOCK, then up to _SCAN_BLOCK, then _SCAN_BLOCK rows each.
    Every block ends on a row of the tails' grid, so each run-tail anchor
    lands on the row a whole-array scan would use, and a scan that a tail
    stops early reads _FIRST_BLOCK rows, not _BLOCK."""
    lo = 1
    while lo <= N:
        hi = min(N, _FIRST_BLOCK if lo == 1 else _BLOCK if lo <= _BLOCK
                 else (lo // _SCAN_BLOCK + 1) * _SCAN_BLOCK)
        yield lo, hi
        lo = hi + 1


def _scan_sup(values_fn: Callable[[np.ndarray], np.ndarray], cfg: TruncConfig,
              certificate: power_mod.ScanCertificate | None,
              tail: _Tail | None = None) -> NormResult:
    """Supremum of values_fn over rows 1..n_max, called on the contiguous
    blocks of ``_scan_blocks``.  Running state across blocks (max and first
    argmax, max up to the stall cut, most negative step) gives the decision
    a whole-array scan would give, in O(block) memory; the per-block arrays
    live in block buffers.  values_fn may return a buffer of its own that
    its next call overwrites: nothing of a block is kept but scalars.

    A non-finite row ends the scan as Divergent at once, as the whole-array
    scan would end.  After each block ending at row N the tail, if any, may
    end the scan with a proven answer: an exact tail gives ClosedForm
    max(m, tail) (Divergent when it is infinite), a bound gives
    TruncatedConverged once it is within tol of the running max m.  With a
    certificate the bound must also meet it: a "limit" stops, with the
    answer the end of the scan would give, once the bound is within 1e-9
    of the limit and the rows read so far verify it; an "attained" value
    stops once m is within tolerance of it.  A certificate the bound or the
    rows disagree with never stops a scan early, and at the end of the scan
    a limit above both m and the last tail bound is refused."""
    if certificate is not None and certificate.mode == "divergent":
        return _divergent()
    N = cfg.n_max
    # stall window: the rows after the first 90% (empty when N == 1)
    cut = max(1, int(0.9 * N))
    steps = certificate is not None and certificate.mode == "limit"
    m = m_cut = -math.inf
    argmax = 0
    min_step = math.inf   # most negative vals[n+1] - vals[n], across blocks
    prev = None           # last value of the previous block
    bufs = _Buffers()
    t = None              # the last block's tail bound
    # a non-finite row ends the scan below, so its overflow does not warn
    with np.errstate(over="ignore", invalid="ignore"):
        for lo, hi in _scan_blocks(N):
            size = hi - lo + 1
            n = _fill_range(bufs.take("rows", size, np.int64), lo)
            try:
                vals = values_fn(n)
            except _DivergentTail:
                return _divergent()
            if not np.isfinite(vals, out=bufs.take("finite", size, bool)).all():
                return _divergent(N)
            top = float(vals.max())
            if top > m:
                m, argmax = top, lo + int(vals.argmax())
            if hi <= cut:
                m_cut = max(m_cut, top)
            elif lo <= cut:
                m_cut = max(m_cut, float(vals[: cut - lo + 1].max()))
            if steps:
                if prev is not None:   # the step across the block edge
                    min_step = min(min_step, float(vals[0] - prev))
                if size > 1:
                    d = np.subtract(vals[1:], vals[:-1], out=bufs.take("steps", size - 1))
                    min_step = min(min_step, float(d.min()))
                prev = vals[-1]
            t = tail.at(hi) if tail is not None else None
            if t is None:
                continue
            if tail.exact:
                if math.isinf(t):
                    return _divergent(hi)
                return NormResult(max(m, t), Status.CLOSED_FORM, hi, 0.0)
            if certificate is not None and certificate.mode == "limit":
                # every row past hi is at most t, which meets the certified
                # limit: the answer the end of the scan would accept, proven
                value = certificate.value
                if (abs(t - value) <= 1e-9 * abs(value) + 1e-12
                        and _verifies(certificate, m, min_step, cfg.tol)):
                    return NormResult(value, Status.TRUNCATED_CONVERGED, hi, 1e-12)
            elif t <= m + cfg.tol and (certificate is None
                                       or _verifies(certificate, m, min_step, cfg.tol)):
                return NormResult(m, Status.TRUNCATED_CONVERGED, hi, max(0.0, t - m))
    if m > cfg.divergence_threshold:
        return _divergent(argmax)
    delta = m - m_cut
    if (steps and t is not None
            and max(m, t) < certificate.value * (1.0 - 1e-9) - 1e-12):
        # no row reaches the limit, read or past N: a correct limit is at
        # most the tail bound, since t >= sup_{n>N} of the rows = the limit
        certificate = None
    if certificate is not None and _verifies(certificate, m, min_step, cfg.tol):
        if certificate.mode == "limit":
            return NormResult(certificate.value, Status.TRUNCATED_CONVERGED, N, 1e-12)
        return NormResult(m, Status.TRUNCATED_CONVERGED, N, abs(certificate.value - m))
    # no certificate, or it did not verify: the heuristic statuses
    if cut < N and delta <= cfg.tol:
        return NormResult(m, Status.TRUNCATED_CONVERGED, N, delta)
    return NormResult(m, Status.TRUNCATED_LOWER_BOUND, N, delta)


def _verifies(certificate: power_mod.ScanCertificate, m: float, min_step: float,
              tol: float) -> bool:
    """Whether the rows read so far, with running max m and most negative
    step min_step, agree with a "limit" or "attained" certificate: a limit
    needs monotone steps and m at most the limit, an attained value needs m
    within tolerance of it."""
    scale = 1.0 + abs(certificate.value if math.isfinite(certificate.value) else m)
    if certificate.mode == "limit":
        return (min_step >= -1e-9 * scale
                and m <= certificate.value * (1.0 + 1e-9) + 1e-12)
    return abs(m - certificate.value) <= max(tol, 1e-9 * scale)


def _row_sup(rows: Callable[[Weight, int], Callable[[np.ndarray], np.ndarray]],
             u: Weight, v: Weight, cfg: TruncConfig,
             certificate: power_mod.ScanCertificate | None,
             tail: _Tail | None = None) -> NormResult:
    """Supremum over rows n of v_n * F(n), where ``rows(w, K)`` returns F
    against the domain weight w on the column horizon K.  A truncated v
    reads its rows 1..L_v exactly; otherwise rows 1..n_max are scanned, up
    to the first block the tail closes."""
    L_u = truncation_length(u)
    L_v = truncation_length(v)
    K = max(L_v + 1 if L_v is not None else cfg.n_max + 1, L_u or 0)
    if L_v is not None:
        n = np.arange(1, L_v + 1, dtype=np.int64)
        try:
            return _finite_sup(lambda w: rows(w, K)(n), u,
                               codomain_values(v, L_v), L_u is None)
        except _DivergentTail:
            return _divergent()
    row_fn = rows(u, K)
    bufs = _Buffers()

    def values_fn(n: np.ndarray) -> np.ndarray:
        vals = codomain_values(v, len(n), int(n[0]), out=bufs.take("v", len(n)))
        return np.multiply(vals, row_fn(n), out=vals)

    return _scan_sup(values_fn, cfg, certificate, tail)


# ---------------------------------------------------------------------------
# Tails that end a scan early, read from the row shapes
# ---------------------------------------------------------------------------

def _tail(kind: OpKind, cone: Cone, flip: SignFlip, u: Weight,
          v: Weight) -> _Tail | None:
    """The tail of sup_n v_n F(n) past row N, for a PowerWeight v and the
    rows flipped by flip: exact for a ListWeight u, an integral-comparison
    bound for a PowerWeight u (matched or not); None when v is truncated or
    no bound is derived."""
    if not isinstance(v, PowerWeight):
        return None
    if isinstance(u, ListWeight):
        return _list_tail(ROW_SHAPES[kind], flip, u, _ENV[cone], v.alpha)
    env = _ENV[cone]
    if env == "up" and u.alpha > 0:   # the envelope is 0, and so is every row
        return _Tail(lambda N: 0.0)
    alpha = max(u.alpha, 0.0) if env == "down" else u.alpha
    return _power_tail(ROW_SHAPES[kind], alpha, v.alpha,
                       sum if cone is Cone.ALL else max)


def _list_tail(sh: RowShape, flip: SignFlip, u: ListWeight, env: str,
               b: float) -> _Tail | None:
    """Exact tail for u_1..u_L against v_n = n**b.  Past row L + 1 and the
    last listed flip (every offset in the row shapes is at least -1), no
    row reaches a column of u but an unflipped prefix, which reads the
    whole envelope: such rows are c * n**b * scale(1, n) = c * n**e, and
    every other row is 0."""
    start = max(u.length + 1, max(flip.flip_rows, default=0))
    c, e = 0.0, 0.0
    if sh.block is PREFIX and not flip.flip_all:
        q, exact = SCALE_POWERS[sh.scale]
        if not exact:
            return None
        c = float(np.cumsum(_envelope(u, env, u.length))[-1])   # as the prefix sums
        e = b + q

    def at(N: int) -> float | None:
        if N < start:
            return None
        if c == 0.0:
            return 0.0
        if e < 0:
            return c * (N + 1.0) ** e   # n**e decreases: its sup is at N + 1
        return c if e == 0 else math.inf

    return _Tail(at, exact=True)


# A part of row n >= 2 is at most n**(r - alpha) * f(n), r an integer and f
# positive and nonincreasing, from k**-alpha against an integral.  Times
# v_n = n**b the bound is nonincreasing when r + (b - alpha) <= 0, so its sup
# over n > N is its value at N + 1.  The exponent is formed in that order so
# that a matched pair (b == alpha) gets exactly r, and a part whose bound is
# constant is not lost to a rounding of 1 - (alpha + 1) + alpha.

def _entry_envelope(scale: Callable, at: int, alpha: float):
    """(r, f) for the single entry scale(u_{n+at}, n): u_{n+at} is
    n**-alpha (1 + at/n)**-alpha, and that factor is <= 1 when at * alpha
    > 0 and nonincreasing otherwise."""
    if abs(at) > 1:
        return None
    e = -alpha if at * alpha <= 0 else 0.0
    return SCALE_POWERS[scale][0], lambda n: (1.0 + at / n) ** e


def _block_envelope(sh: RowShape, alpha: float):
    """(r, f) for the positive block of the row shape sh, or None."""
    q = SCALE_POWERS[sh.scale][0]
    if sh.block is SINGLE:
        return _entry_envelope(sh.scale, sh.at, alpha)
    if sh.block is PREFIX:
        # 0 <= alpha < 1: sum_{k<=n} k**-alpha <= int_0^n x**-alpha dx =
        # n**(1-alpha)/(1-alpha).  alpha < 0, at <= -1: sum_{k<n} k**-alpha
        # <= int_1^n x**-alpha dx <= n**(1-alpha)/(1-alpha).  alpha < 0,
        # at == 0: sum_{k<=n} k**-alpha <= n * n**-alpha.
        if sh.at > 0 or alpha >= 1:
            return None
        c = 1.0 / (1.0 - alpha) if alpha >= 0 or sh.at <= -1 else 1.0
        return q + 1, lambda n: c
    # a tail under the kernel k**q, s = alpha - q > 1: sum_{k>n} k**-s <=
    # int_n^inf x**-s dx = n**(1-s)/(s-1), so at >= 1 needs nothing more and
    # at == 0 adds the term n**-s
    if sh.at < 0 or alpha - q <= 1:
        return None
    c = 1.0 / (alpha - (q + 1))
    if sh.at >= 1:
        return q + 1, lambda n: c
    return q + 1, lambda n: c + 1.0 / n


def _power_tail(sh: RowShape, alpha: float, b: float,
                join: Callable) -> _Tail | None:
    """Bound for u_k = k**-alpha (the envelope's exponent) against
    v_n = n**b: the part bounds summed (cone ALL) or their max (every other
    cone, whatever the flips), rounded up."""
    parts = [_block_envelope(sh, alpha)]
    if sh.neg_scale is not None:
        parts.append(_entry_envelope(sh.neg_scale, sh.neg_at, alpha))
    if any(part is None for part in parts):
        return None
    parts = [(r + (b - alpha), f) for r, f in parts]
    if any(e > 0 for e, _ in parts):
        return None

    def at(N: int) -> float:
        n = N + 1.0
        try:
            return join(n ** e * f(n) for e, f in parts) * (1.0 + 1e-12)
        except OverflowError:   # a factor past float range: no stop here
            return math.inf

    return _Tail(at)


def _power_diverges(kind: OpKind, cone: Cone, u: Weight, v: Weight) -> bool:
    """Whether the rows of a PowerWeight pair are unbounded, by analysis:
    for a prefix block with the exact scale n**q, on cones ALL and NONNEG,
    F(n) is at least its positive part n**q sum_{k<=n+at} k**-alpha, and
    for alpha < 1 that sum is at least int_1^{n+at} x**-alpha dx =
    ((n+at)**(1-alpha) - 1)/(1-alpha), so v_n F(n) grows like
    n**(q + 1 - alpha + b) when that exponent is positive."""
    if not (isinstance(u, PowerWeight) and isinstance(v, PowerWeight)):
        return False
    sh = ROW_SHAPES[kind]
    q, exact = SCALE_POWERS[sh.scale]
    return (cone in (Cone.ALL, Cone.NONNEG) and sh.block is PREFIX and exact
            and u.alpha < 1 and (q + 1) + (v.alpha - u.alpha) > 0)


# ---------------------------------------------------------------------------
# Norms: the dense path and the row engine's supremum
# ---------------------------------------------------------------------------

def _dense_norm(kind: OpKind, u: Weight, v: Weight, cone: Cone,
                plan: ConePlan) -> NormResult:
    L_u = truncation_length(u)
    L_v = truncation_length(v)
    M = np.array([row_entries(kind, nn, L_u, plan.flip) for nn in range(1, L_v + 1)])
    pos = np.clip(M, 0.0, None)
    neg = np.clip(-M, 0.0, None)

    def rows(w: Weight) -> np.ndarray:
        if cone is Cone.ALL:
            return (pos + neg) @ weight_values(w, L_u)
        if cone is Cone.NONNEG:
            uv = weight_values(w, L_u)
            return np.maximum(pos @ uv, neg @ uv)
        if cone is Cone.NONINCR:
            return pos @ envelope_down(w, L_u)
        return pos @ envelope_up(w, L_u)

    return _finite_sup(rows, u, codomain_values(v, L_v), False)


def _closed_form_result(cf: power_mod.PowerCaseResult) -> NormResult:
    if math.isinf(cf.value):
        return _divergent()
    return NormResult(cf.value, Status.CLOSED_FORM, 0, 0.0)


def _norm(kind: OpKind, u: Weight, v: Weight, cone: Cone, cfg: TruncConfig,
          rows: Callable[..., Callable] | None = None) -> NormResult:
    """Cone plan, then (for a per-operator entry point, which passes its
    ``rows``: ``_kind_rows`` bound to kind) the matched-pair closed form,
    then the supremum of the engine's rows, or, for ``norm_general`` on a
    fully truncated problem, of the literal matrix rows (``_dense_norm``).
    A power pair whose rows grow is Divergent before any scan.  A scan may
    stop at its tail, and a matched pair's scan only where that tail meets
    the power theorems' certificate."""
    L_u = truncation_length(u)
    L_v = truncation_length(v)
    plan = cone_plan(kind, cone, L_u, max_row=L_v)
    if not plan.ok:
        return _unsupported(plan.reason)
    if plan.trivially_zero:
        return NormResult(0.0, Status.CLOSED_FORM, 0, 0.0)
    alpha = matched_power_alpha(u, v)
    certificate = None
    if alpha is not None:
        cf = power_mod.closed_form(kind, cone, alpha) if rows else None
        if cf is not None:
            return _closed_form_result(cf)
        certificate = power_mod.scan_certificate(kind, cone, alpha)
    elif _power_diverges(kind, cone, u, v):
        return _divergent()
    if rows is None:
        if L_u is not None and L_v is not None:
            return _dense_norm(kind, u, v, cone, plan)
        rows = partial(_kind_rows, kind)
    return _row_sup(lambda w, K: rows(w, cone, K, plan.flip), u, v, cfg, certificate,
                    _tail(kind, cone, plan.flip, u, v))


def norm_general(kind: OpKind, u: Weight, v: Weight, cone: Cone,
                 cfg: TruncConfig = DEFAULT_TRUNC) -> NormResult:
    """Norm of the operator on the given cone, from the general theorem:
    row functionals against u, its envelopes, after admissible row flips."""
    return _norm(kind, u, v, cone, cfg)


# ---------------------------------------------------------------------------
# The per-operator entry points
# ---------------------------------------------------------------------------

# the engine bound to each principal kind, under the names the entry points
# pass to _norm (bench/tracing.py times the rows by these names)
_cesaro_rows = partial(_kind_rows, OpKind.C)
_copson_rows = partial(_kind_rows, OpKind.CSTAR)
_cesaro_id_rows = partial(_kind_rows, OpKind.C_MINUS_I)
_copson_id_rows = partial(_kind_rows, OpKind.CSTAR_MINUS_I)
_c_minus_sstar_rows = partial(_kind_rows, OpKind.C_MINUS_SSTAR)
_cstarsd_rows = partial(_kind_rows, OpKind.CSTARSD)


def norm_cesaro(u: Weight, v: Weight, cone: Cone,
                cfg: TruncConfig = DEFAULT_TRUNC) -> NormResult:
    """sup_n (v_n/n) sum_{k<=n} u~_k over the requested cone."""
    return _norm(OpKind.C, u, v, cone, cfg, _cesaro_rows)


def norm_copson(u: Weight, v: Weight, cone: Cone,
                cfg: TruncConfig = DEFAULT_TRUNC) -> NormResult:
    """sup_n v_n sum_{k>=n} u~_k/k; the nondecreasing cone is trivially 0 on
    infinite problems (every row sum is infinite)."""
    return _norm(OpKind.CSTAR, u, v, cone, cfg, _copson_rows)


def dist_cesaro_identity(u: Weight, v: Weight, cone: Cone,
                         cfg: TruncConfig = DEFAULT_TRUNC) -> NormResult:
    """Distance of the averaging operator to the identity on the cone."""
    return _norm(OpKind.C_MINUS_I, u, v, cone, cfg, _cesaro_id_rows)


def dist_copson_identity(u: Weight, v: Weight, cone: Cone,
                         cfg: TruncConfig = DEFAULT_TRUNC) -> NormResult:
    """Distance of the tail operator to the identity.  The nonincreasing
    cone is an open problem and is never computed."""
    if cone is Cone.NONINCR:
        return _unsupported("open problem: nonincreasing cone for C*-I")
    return _norm(OpKind.CSTAR_MINUS_I, u, v, cone, cfg, _copson_id_rows)


def norm_c_minus_sstar(u: Weight, v: Weight, cone: Cone,
                       cfg: TruncConfig = DEFAULT_TRUNC) -> NormResult:
    """Norms of C - S* (and of S* - C on the nondecreasing cone)."""
    return _norm(OpKind.C_MINUS_SSTAR, u, v, cone, cfg, _c_minus_sstar_rows)


def norm_cstarsd(u: Weight, v: Weight, cone: Cone,
                 cfg: TruncConfig = DEFAULT_TRUNC) -> NormResult:
    """Norms of (C* - S)D (and of (S - C*)D on the nonincreasing cone)."""
    return _norm(OpKind.CSTARSD, u, v, cone, cfg, _cstarsd_rows)


SPECIALIZED_BY_KIND = {
    OpKind.C: norm_cesaro,
    OpKind.CSTAR: norm_copson,
    OpKind.C_MINUS_I: dist_cesaro_identity,
    OpKind.CSTAR_MINUS_I: dist_copson_identity,
    OpKind.C_MINUS_SSTAR: norm_c_minus_sstar,
    OpKind.CSTARSD: norm_cstarsd,
}
