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
analytic tails on power-weight problems.  On the monotone cones the cone
plan flips one run of rows (``operators.SignFlip``), and each row reads one
part: a block of rows inside or outside the run reads only that part, and
only a block that straddles an end of the run reads both.
``norm_general``, the six per-operator functions (``norm_cesaro`` ...
``norm_cstarsd``) and the best constants of ``two_operator`` all read their
rows from it.  The per-operator functions also route matched power pairs
(u and v both PowerWeight with the same alpha) to the closed-form branch
tables.  The supremum goes through one driver, ``_row_sup``:
``_finite_sup`` over the rows of a truncated v, ``_scan_sup`` otherwise.
``norm_general`` on a fully truncated problem is the one exception: it
reads the literal matrix, built row by row from ``operators.row_entries``
(which the tests pin to ``entry``), through ``_dense_norm``, which calls
``_finite_sup`` itself.

Infinite problems scan rows 1..n_max in contiguous blocks (rows 1..256,
then up to 4096, then up to 65,536, then _SCAN_BLOCK rows each), ending on
rows of the tails' grid (``special_sums``), keeping only running state
between blocks, so a scan's memory does not depend on n_max.  A block is
a run (first, count) of rows, which ``_SeqData`` serves as one range of
columns, without tables of the horizon's length: the columns its row
shape reads, and its rows, as floats, whose powers are u over them (once
per block) and v_n, and which give the scales their rows and the tails
their run; power prefix sums are carried from block to block.  The
columns are a slice of the float ramp 0..8191 (``weights._RAMP``) in the
first two blocks, so a scan that its first block closes fills no range,
and one fill each past them.  One scan state per query (``_Buffers``)
holds them and every other per-block array (v_n, the row parts, the
window, the prefix sums, the tails), written with ``out=`` into buffers
that the later blocks reuse, with the same operations in the same order
as a fresh array would get, so that the allocator does not hand memory
back to the kernel and fault it in again between blocks.  What a row
function or ``_SeqData`` returns is valid only until its next call.

A scan may stop after any block, at its tail (``_tail``, read from the row
shapes).  For a ListWeight u against a PowerWeight v the rows past the
column horizon are c * n**e, so the tail is exact.  For a power pair, matched
or not, each part of a row is bounded by a nonincreasing power of n by
integral comparison, so the tail is a proven bound.  Each best constant of
``two_operator`` is a norm, with its rows and its tail: C <= A C* on ALL
and NONNEG is C - S* on ALL and NONINCR against u, and C* <= A C against a
PowerWeight u is (C* - S)D on ALL and NONDECR against w_k = k u_k.  C* <=
A C against a ListWeight u keeps its own rows.

Truncation of the outer supremum is reported honestly in ``NormResult``:
exact finite problems, and list-u / power-v problems closed by their exact
tail, are ClosedForm.  A scan is TruncatedConverged when a tail bound is
within the tolerance of the running supremum (residual: the gap); for a
matched power pair, whose scan carries its closed-form branch from the
power theorems as a certificate, only once that bound also meets the
certificate (most matched pairs do at row 256, the end of the first block).
A certificate the bound does not meet is checked numerically at the end of
the scan instead.  Every other scan is TruncatedLowerBound, with the rise of
the running supremum over its last 10% of rows as the residual.
Divergent needs an argument, and a divergent closed-form branch aside,
``_tail`` is the one place that makes it, before any row is read: a tail
block whose series diverges and that some row reads, for a list v as for
a power v; an unbounded exact tail (list u, power v); or, for a power
pair, a part of the rows that the cone reads at every large row whose
proven floor grows (``_power_tail``).  It also answers a zero envelope,
ClosedForm 0.  The size of a row proves nothing, and overflow is not
divergence: a scanned row that overflows float64 raises ValueError.  Nor
is a finite problem ever Divergent: rows that overflow are recomputed with
the domain weight scaled by a power of two, and a norm that does not fit
raises ValueError.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache, partial, wraps
from typing import Callable, NamedTuple

import numpy as np

from . import power as power_mod
from .operators import (INV_K, NO_FLIP, PREFIX, ROW_SHAPES, SCALE_POWERS,
                        SINGLE, TAIL, ConePlan, OpKind, RowShape, SignFlip,
                        cone_plan, row_entries)
from .special_sums import (_BLOCK, _FIRST_BLOCK, _RUN_ANCHOR, _value_run_tails,
                           hurwitz_tail_scaled, shifted_tail_scaled)
from .weights import (_RAMP, Cone, ListWeight, PowerWeight, Weight, _fill_range,
                      _power_vals, codomain_values, envelope_down, envelope_up,
                      power_envelope, truncation_length, weight_values)

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

    def __post_init__(self) -> None:
        if isinstance(self.n_max, bool):
            raise ValueError("n_max must be an integer, not a bool")
        try:
            n_max = operator.index(self.n_max)
        except TypeError:
            raise ValueError(f"n_max must be an integer, not {self.n_max!r}") from None
        object.__setattr__(self, "n_max", n_max)
        # "not x > 0" also refuses NaN, which would disable every test
        if n_max < 1 or not self.tol > 0:
            raise ValueError("invalid truncation configuration")


DEFAULT_TRUNC = TruncConfig()


@dataclass(frozen=True)
class NormResult:
    """An answer and how far it is proven.  ``reason`` says why an
    Unsupported answer was refused; it is not part of ``repr`` or ``==``."""

    value: float
    status: Status
    n_used: int
    residual_estimate: float
    reason: str = field(default="", repr=False, compare=False)

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.value) and self.status is not Status.UNSUPPORTED


def _unsupported(reason: str) -> NormResult:
    return NormResult(0.0, Status.UNSUPPORTED, 0, math.inf, reason)


def _divergent() -> NormResult:
    return NormResult(math.inf, Status.DIVERGENT, 0, 0.0)


def matched_power_alpha(u: Weight, v: Weight) -> float | None:
    """alpha when (u, v) is the matched power pair u_k=k^-a, v_n=n^a."""
    if isinstance(u, PowerWeight) and isinstance(v, PowerWeight) and u.alpha == v.alpha:
        return u.alpha
    return None


# ---------------------------------------------------------------------------
# Domain-weight data with an envelope applied: values, prefix sums, tails
# ---------------------------------------------------------------------------

_ENV = {Cone.ALL: "id", Cone.NONNEG: "id", Cone.NONINCR: "down", Cone.NONDECR: "up"}


def _envelope(u: Weight, env: str, K: int) -> np.ndarray:
    """u_1..u_K with the envelope env ("id", "down" or "up") applied."""
    if env == "id":
        return weight_values(u, K)
    return envelope_down(u, K) if env == "down" else envelope_up(u, K)


def _power_env(u: PowerWeight, env: str) -> PowerWeight | None:
    """The power u with the envelope env applied, None when that is 0."""
    return u if env == "id" else power_envelope(u, up=env == "up")


def _diverges(kernel: Callable, alpha: float) -> bool:
    """Whether sum_k kernel_k * k**-alpha diverges, for the tail kernels
    INV_K (alpha <= 0) and INV_K_KP1 (alpha <= -1) of ``operators``."""
    return (alpha if kernel is INV_K else alpha + 1.0) <= 0


_SCAN_BLOCK = 2 ** 16   # rows per values_fn call, a multiple of special_sums._BLOCK


class _Buffers(dict):
    """One scan's state, which its rows, v_n and driver share: the block's
    columns and named block buffers.  ``take(name, size)`` returns the first
    ``size`` entries of that buffer, allocated again only when a block is
    longer than any before it, and overwritten by the next take of the name.

    A scan's first two blocks end at rows _FIRST_BLOCK and _BLOCK; past
    them it reads blocks of up to _SCAN_BLOCK rows, and the block's columns
    add two: a longer request gets a buffer of at least that size at once,
    not a second one at the fourth block."""

    cols, c0 = _RAMP[:0], 0   # the block's columns (``_SeqData.load``), from c0

    def take(self, name: str, size: int) -> np.ndarray:
        buf = self.get(name)
        if buf is None or buf.size < size:
            cap = size if size <= _BLOCK + 2 else max(size, _SCAN_BLOCK + 2)
            buf = self[name] = np.empty(cap)
        return buf[:size]

    def columns(self, first: int, count: int, name: str = "columns") -> np.ndarray:
        """The columns first..first+count-1 (first >= 0) as floats: a slice
        of the loaded ones or of the ramp, else written into the named
        buffer (as ``weights._range``): "cols" for a load, so that no other
        miss overwrites the loaded columns."""
        i = first - self.c0
        if i >= 0 and i + count <= self.cols.size:
            return self.cols[i:i + count]
        if first + count <= _RAMP.size:
            return _RAMP[first:first + count]
        return _fill_range(self.take(name, count), first)


def _range_read(table: np.ndarray, first: int, out: np.ndarray,
                pad: float) -> np.ndarray:
    """table[first:first + out.size] (first >= 0) written into out, with pad
    past the table's end."""
    got = table[first:first + out.size]
    out[:got.size] = got
    out[got.size:] = pad
    return out


class _SeqData:
    """Envelope-applied domain weight: values, prefix sums and kernel tails
    over a run of columns, read by (first column, count), without any table
    of the horizon's length.  Column 0 holds u_0 = 0.

    Two modes.  A list keeps its tables up to L = min(K, length)
    (``length``, with ``total`` = P_L): past L the values are 0, the prefix
    sums keep their last value and the tails are 0.  A zero envelope is the
    empty list, L = 0.  A power, u~_k = k**-alpha with the envelope's alpha
    (``weights.power_envelope``), is an infinite sequence: its values come
    from the formula and its tails are analytic, +inf where the series
    diverges.

    The engine reads a row block first..first+count-1 as one range of
    columns: ``load(first, last)`` puts the columns first..last that the
    block reads in the scan state ``bufs`` as floats (a slice of the ramp
    in the first blocks), which give the rows to the scales and v_n and the
    columns to the tails, and in power mode holds their powers, u over
    them, as the block's window, which the value and prefix reads read.  A
    prefix read continues the sums of the last one, cumsum([carry, terms]),
    which gives the bits of one long cumsum from column 1; a read that does
    not start where the last ended sums the envelope's head again (correct,
    but O(first)).  A tail run that the window covers, as extended to row
    _RUN_ANCHOR - 1, forms its terms from it, kernel(u_k, k): at most one
    rounding more per term than the formula's, within the cells' 4096 *
    2**-53 bound.  Other tail runs, and every run of a block that loads no
    window, take the formula, over a range (first, last), not an array to
    be checked.

    What a read returns is a buffer of ``bufs``, a view of one or of the
    ramp: valid until the next load or read of its kind, not to be written.
    """

    def __init__(self, u: Weight, env: str, K: int, bufs: _Buffers | None = None):
        self.bufs = _Buffers() if bufs is None else bufs   # part buffers are named apart
        self.columns, self._win = self.bufs.columns, None   # _win: u over them
        env_u = _power_env(u, env) if isinstance(u, PowerWeight) else None
        if env_u is not None:
            self.mode, self.alpha, self._u = "power", env_u.alpha, env_u
            self._end, self._carry = 0, 0.0   # the last prefix read's P[_end]
            return
        L = min(K, u.length) if isinstance(u, ListWeight) else 0   # 0: a zero envelope
        self.mode, self.alpha, self.length = "list", 0.0, L
        self._vals = np.zeros(L + 1)     # u_0..u_L
        if L:
            self._vals[1:] = _envelope(u, env, L)
        self._prefix = np.zeros(L + 1)   # P_0..P_L, as np.cumsum
        with np.errstate(over="ignore"):   # an overflowed sum shows in the rows
            np.add.accumulate(self._vals[1:], out=self._prefix[1:])
        self._tails: dict[Callable, np.ndarray] = {}   # per kernel, at its first read

    @property
    def total(self) -> float:
        """P_L, the last entry of a list's prefix table."""
        return float(self._prefix[-1])

    def load(self, first: int, last: int) -> None:
        """The columns first..last (first >= 0) as the block's: as floats,
        and in power mode u over them as the window; no window when
        first > last."""
        if first > last:
            self._win = None
            return
        bufs, cols = self.bufs, self.bufs.columns(first, last - first + 1, "cols")
        bufs.c0, bufs.cols = first, cols
        if self.mode != "power":
            return
        self._win = win = bufs.take("window", cols.size)
        if first == 0:
            win[0] = 0.0
            _power_vals(self.alpha, cols[1:], win[1:])
        else:
            _power_vals(self.alpha, cols, win)

    def _window(self, first: int, count: int) -> np.ndarray:
        i = first - self.bufs.c0
        if self._win is None or i < 0 or i + count > self._win.size:
            raise ValueError(f"columns {first}..{first + count - 1} are not loaded")
        return self._win[i:i + count]

    def vals_at(self, first: int, count: int) -> np.ndarray:
        """u_first..u_{first+count-1} (first >= 0)."""
        if self.mode == "power":
            return self._window(first, count)
        return _range_read(self._vals, first, self.bufs.take("values", count), 0.0)

    def prefix(self, first: int, count: int) -> np.ndarray:
        """P_first..P_{first+count-1}, P_c = u_1 + ... + u_c (first >= 0)."""
        out = self.bufs.take("prefix", count)
        if self.mode == "list":
            return _range_read(self._prefix, first, out, self._prefix[-1])
        win = self._window(first, count)
        if first - 1 != self._end:   # not the run after the last read
            self._carry = (float(np.cumsum(weight_values(self._u, first - 1))[-1])
                           if first > 1 else 0.0)
        if self._carry:   # cumsum([carry, terms]); without it the window's own
            win = np.positive(win, out=out)
            win[0] += self._carry
        np.add.accumulate(win, out=out)   # np.cumsum, without its wrapper
        self._end, self._carry = first + count - 1, float(out[-1])
        return out

    def tail(self, kernel: Callable, first: int, count: int,
             out: np.ndarray | None = None) -> np.ndarray:
        """sum over k >= c of kernel_k * u_k for the columns c = first..
        first+count-1 (first >= 1) and the tail kernels INV_K and INV_K_KP1
        of ``operators``, +inf where it diverges, written into out when
        given."""
        out = np.empty(count) if out is None else out
        if self.mode == "list":
            table = self._tails.get(kernel)
            if table is None:
                k = self.columns(1, self._vals.size - 1)
                terms = kernel(self._vals[1:], k)
                table = self._tails[kernel] = np.add.accumulate(terms[::-1])[::-1]
            return _range_read(table, first - 1, out, 0.0)
        a, last, shifted = self.alpha, first + count - 1, kernel is not INV_K
        if _diverges(kernel, a):
            out[...] = math.inf
            return out
        win, c0 = self._win, self.bufs.c0
        if (win is not None and c0 <= first
                and max(last, _RUN_ANCHOR - 1) < c0 + win.size):
            got = _value_run_tails(a + 1.0, shifted, first, last, kernel,
                                   win[first - c0:], out, self.columns(first, count))
            if got is not None:
                return got
        tail = shifted_tail_scaled if shifted else hurwitz_tail_scaled
        return tail(a + 1.0, range(first, last + 1), out=out)


# ---------------------------------------------------------------------------
# The row engine: row functionals from the operator structure
# ---------------------------------------------------------------------------

def _part_values(sh: RowShape, part: str, sd: _SeqData, first: int,
                 count: int) -> np.ndarray:
    """(B+ u~)_n or (B- u~)_n for the unflipped operator of row shape sh at
    the rows n = first..first+count-1, into the buffer named after the
    part.  In power mode sd's window must hold the columns read (``_span``)."""
    out, cols = sd.bufs.take(part, count), sd.columns
    if part == "neg":
        if sh.neg_scale is None:
            out[...] = 0.0
            return out
        return sh.neg_scale(sd.vals_at(first + sh.neg_at, count), cols(first, count), out)
    if sh.block is TAIL:
        return sd.tail(sh.scale, first + sh.at, count, out)
    read = sd.prefix if sh.block is PREFIX else sd.vals_at
    return sh.scale(read(first + sh.at, count), cols(first, count), out)


def _span(sh: RowShape, parts: tuple[str, ...]) -> tuple[int, int] | None:
    """The offsets (lo, hi) from a block's first and last rows of the
    columns that its parts and its scales and v_n read; None when a tail
    block read alone loads nothing, so its tails come from the formula."""
    offsets = (sh.neg_at,) if "neg" in parts and sh.neg_scale is not None else ()
    if "pos" in parts and (offsets or sh.block is not TAIL):
        offsets += (sh.at,)
    return (min(0, *offsets), max(0, *offsets)) if offsets else None


_JOIN = {Cone.ALL: np.add, Cone.NONNEG: np.maximum}   # the monotone cones: none


@lru_cache(maxsize=64)   # one entry per row shape in use
def _reads(sh: RowShape) -> tuple:
    """(reads on ALL and NONNEG, reads on a monotone cone): (parts,
    ``_span``) of a block outside the flipped run, inside it and across an
    end of it, both parts on ALL and NONNEG (NO_FLIP: every block outside),
    and the positive part, the negative one and both."""
    both = ("pos",) if sh.neg_scale is None else ("pos", "neg")
    return ((both, _span(sh, both)),) * 3, tuple(
        (p, _span(sh, p)) for p in (("pos",), ("neg",), ("pos", "neg")))


def _generic_row_values(sh: RowShape, flip: SignFlip, reads: tuple, join: Callable | None,
                        sd: _SeqData, first: int, count: int) -> np.ndarray:
    """Row functional of the row shape sh at the rows first..first+count-1
    after the flips flip, read as ``_reads`` says and joined by join, against
    sd, u with the cone's envelope _ENV[cone]: a buffer of sd's scan state."""
    last = first + count - 1
    if last < flip.first or (flip.last is not None and first > flip.last):
        parts, span = reads[0]   # no row of the block flipped
    elif first >= flip.first and (flip.last is None or last <= flip.last):
        parts, span = reads[1]   # every row flipped
    else:
        parts, span = reads[2]   # the block straddles an end of the run
    sd.load(1, 0) if span is None else sd.load(first + span[0], last + span[1])
    if len(parts) == 1:
        return _part_values(sh, parts[0], sd, first, count)
    pos = _part_values(sh, "pos", sd, first, count)
    neg = _part_values(sh, "neg", sd, first, count)
    if join is not None:
        return join(pos, neg, out=pos)
    np.copyto(pos, neg, where=flip.flipped(sd.columns(first, count)))
    return pos


def _kind_rows(kind: OpKind, u: Weight | _SeqData, cone: Cone, K: int,
               flip: SignFlip = NO_FLIP, bufs: _Buffers | None = None) -> Callable:
    """The row engine: F(n) of the kind's rows flipped by flip, against u
    with the cone's envelope over the column horizon K (or the ``_SeqData``
    of them, already built), in the scan state bufs: a function of a block,
    rows first..first+count-1, read as one range of columns by the plan the
    row shape, cone and flip give once, valid only until its next call."""
    sd = u if isinstance(u, _SeqData) else _SeqData(u, _ENV[cone], K, bufs)
    sh, join = ROW_SHAPES[kind], _JOIN.get(cone)
    return partial(_generic_row_values, sh, flip, _reads(sh)[join is None], join, sd)


# ---------------------------------------------------------------------------
# Supremum drivers
# ---------------------------------------------------------------------------

if np.lib.NumpyVersion(np.__version__) >= "2.0.0":   # the state is kept per call
    _quiet = np.errstate(over="ignore", invalid="ignore")
else:   # numpy 1 keeps a decorator's state on its one instance, which threads share
    def _quiet(fn: Callable) -> Callable:
        def quiet(*args, **kwargs):
            with np.errstate(over="ignore", invalid="ignore"):
                return fn(*args, **kwargs)
        return wraps(fn)(quiet)


@_quiet   # rows that overflow are recomputed
def _finite_sup(row_values: Callable[[Weight], np.ndarray], u: Weight,
                vvals: np.ndarray, analytic_tails: bool) -> NormResult:
    """Supremum of v_n * F(n) over the rows of a truncated problem, where
    ``row_values(w)`` gives F against the domain weight w, one entry per row.

    A finite problem is never divergent: rows whose float evaluation
    overflows are recomputed with u scaled by an exact power of two, so that
    overflow is handled here and does not warn."""
    prods = vvals * row_values(u)
    val = float(prods[prods.argmax()]) if prods.size else 0.0   # the max, or a NaN
    if not math.isfinite(val):
        val = _rescaled_sup(row_values, u, vvals, prods)
    residual = 1e-12 if analytic_tails else 0.0
    return NormResult(val, Status.CLOSED_FORM, len(prods), residual)


def _rescaled_sup(row_values: Callable[[Weight], np.ndarray], u: Weight,
                  vvals: np.ndarray, prods: np.ndarray) -> float:
    """The supremum when some products overflowed: those rows are evaluated
    against u * 2**-shift, multiplied by v_n as mantissas and exponents, so
    that a small v_n does not lose bits to subnormals, and scaled back.
    ValueError when the supremum does not fit in a float64."""
    fine = np.isfinite(prods)
    rest = float(np.max(prods[fine], initial=0.0))
    over = ~fine & (vvals > 0)   # a row with v_n = 0 is 0, whatever F(n) is
    if not over.any():
        return rest
    # no row functional exceeds (2L + 2) * max(u): a positive and a negative
    # part of at most L entries under kernels <= 1 each, or, for the
    # two-operator rows, the envelope of k u_k under 1/(k(k+1)), at most
    # (L + 1) * max(u).  After this shift every scaled row is below 1.
    if isinstance(u, ListWeight):
        shift = math.frexp(max(u.values))[1] + (2 * u.length + 2).bit_length()
        scaled = ListWeight(tuple(math.ldexp(x, -shift) for x in u.values))
    elif -2.0 ** 13 <= u.alpha <= -1:
        shift, values = _scaled_powers(u.alpha, vvals.size + 1)
        scaled = ListWeight(tuple(values))
    else:
        # alpha > -1: u_k < k keeps F(n) finite over the horizon, so v_n F(n)
        # itself is past float64.  alpha < -2**13: an overflowed row reads
        # some u_k >= 2**8192 (k >= 2) with a coefficient >= 1/(K(K+1)),
        # and v_n >= 2**-1074 does not bring that back into range.
        raise ValueError("the norm overflows float64")
    mv, ev = np.frexp(vvals[over])
    mf, ef = np.frexp(row_values(scaled)[over])
    with np.errstate(over="ignore"):
        top = float(np.max(np.ldexp(mv * mf, ev + ef + shift)))
    if not math.isfinite(top):
        raise ValueError(f"the norm overflows float64 (scaled by 2**-{shift})")
    return max(top, rest)


def _scaled_powers(alpha: float, K: int) -> tuple[int, np.ndarray]:
    """(shift, u_1..u_K * 2**-shift) for u_k = k**-alpha, alpha <= -1, with
    the shift ``_rescaled_sup`` asks for, and without forming a power past
    float64: each value is (k**(a/m) * 2**(-shift/m))**m, a = -alpha, with m
    the least power of two that keeps k**(a/m) below 2**1000.

    Truncated rows 1..L_v read u at columns 1..L_v + 1 at most (no row
    shape has an offset above +1), and with alpha <= -1 every tail kernel's
    sum diverges, so ``_tail`` answered a problem whose rows read a tail
    before any row: these K = L_v + 1 values are all of u the rows read."""
    a = -alpha
    top = a * math.log2(K)   # log2 of the largest value, u_K
    m = 1 << max(0, math.ceil(math.log2(top / 1000.0))) if top > 1000.0 else 1
    shift = math.ceil(top) + 1 + (2 * K + 2).bit_length()
    shift += -shift % m   # a multiple of m
    x = np.ldexp(np.power(np.arange(1.0, K + 1.0), a / m), -(shift // m))
    return shift, np.power(x, float(m), out=x)


class _Tail(NamedTuple):
    """sup over rows n > N of v_n * F(n), as ``at(N)``: that supremum itself
    when ``exact``, otherwise a proven upper bound on it, or None while N is
    too small for it to say anything.  ``data`` is the ``_SeqData`` a list
    tail read its constant from, which the rows read too (built once).
    ``_DIVERGES`` and ``_ZERO`` decide the whole supremum, read from no row."""

    at: Callable[[int], float | None]
    exact: bool = False
    data: _SeqData | None = None


_DIVERGES = _Tail(lambda N: math.inf, exact=True)   # an infinite row, or rows that grow
_ZERO = _Tail(lambda N: 0.0, exact=True)   # a zero envelope: every row is 0


@_quiet   # a non-finite row raises instead
def _scan_sup(values_fn: Callable[[int, int], np.ndarray], cfg: TruncConfig,
              certificate: power_mod.PowerCaseResult | None,
              tail: _Tail | None = None, bufs: _Buffers | None = None) -> NormResult:
    """Supremum of values_fn over rows 1..n_max, called as values_fn(lo,
    hi - lo + 1) on contiguous blocks: rows 1.._FIRST_BLOCK, then up to
    _BLOCK, then up to _SCAN_BLOCK, then _SCAN_BLOCK rows each.  Every block
    ends on a row of the tails' grid, so each run-tail anchor lands on the
    row a whole-array scan would use, and a scan that a tail stops early
    reads _FIRST_BLOCK rows, not _BLOCK.  Running state across blocks (max,
    max up to the 90% cut, most negative step) gives the decision a
    whole-array scan would give, in O(block) memory, in the scan state
    bufs.  values_fn may return a buffer that its next call overwrites:
    nothing of a block is kept but scalars.

    A row that is not a finite float raises ValueError naming it: overflow
    is not divergence.  After each block ending at row N the tail, if any,
    may end the scan with a proven answer: an exact tail gives ClosedForm
    max(m, tail), a bound gives TruncatedConverged once it is within tol of
    the running max m.  With a certificate the bound must also meet it: a
    "limit" stops, with the answer the end of the scan would give, once the
    bound is within 1e-9 of the limit and the rows read so far verify it;
    an "attained" value stops once m is within tolerance of it.  A
    certificate the bound or the rows disagree with never stops a scan
    early, and at the end of the scan a limit above both m and the last
    tail bound is refused.  What nothing proves, however large, is
    TruncatedLowerBound, with residual the rise of m over the rows after
    the first 90% (0 if N == 1).  No scan is Divergent: ``_row_sup``
    answers an infinite supremum before any row."""
    N = cfg.n_max
    cut = max(1, int(0.9 * N))
    steps = certificate is not None and certificate.mode == "limit"
    m = m_cut = -math.inf
    min_step = math.inf   # most negative vals[n+1] - vals[n], across blocks
    prev = None           # last value of the previous block
    bufs = _Buffers() if bufs is None else bufs
    t = None              # the last block's tail bound
    hi = 0
    while hi < N:
        lo = hi + 1
        hi = min(N, _FIRST_BLOCK if lo == 1 else _BLOCK if lo <= _BLOCK
                 else (lo // _SCAN_BLOCK + 1) * _SCAN_BLOCK)
        size = hi - lo + 1
        vals = values_fn(lo, size)
        top = float(vals[vals.argmax()])   # the max, or the first NaN
        if not math.isfinite(top):   # rows are >= 0: NaN and inf show in the max
            raise ValueError(f"row {lo + int(np.isfinite(vals).argmin())} "
                             "overflows float64")
        m = max(m, top)
        if hi <= cut:
            m_cut = max(m_cut, top)
        elif lo <= cut:
            m_cut = max(m_cut, float(vals[: cut - lo + 1].max()))
        if steps:
            if prev is not None:   # the step across the block edge
                min_step = min(min_step, float(vals[0] - prev))
            if size > 1:
                d = np.subtract(vals[1:], vals[:-1], out=bufs.take("steps", size - 1))
                min_step = min(min_step, float(d[d.argmin()]))   # d.min(), faster
            prev = vals[-1]
        t = tail.at(hi) if tail is not None else None
        if t is None:
            continue
        if tail.exact:
            return NormResult(max(m, t), Status.CLOSED_FORM, hi, 0.0)
        if steps:
            # every row past hi is at most t, which meets the certified
            # limit: the answer the end of the scan would accept, proven
            value = certificate.value
            if (abs(t - value) <= 1e-9 * abs(value) + 1e-12
                    and _verifies(certificate, m, min_step, cfg.tol)):
                return NormResult(value, Status.TRUNCATED_CONVERGED, hi, 1e-12)
        elif t <= m + cfg.tol and (certificate is None
                                   or _verifies(certificate, m, min_step, cfg.tol)):
            return NormResult(m, Status.TRUNCATED_CONVERGED, hi, max(0.0, t - m))
    if (steps and t is not None
            and max(m, t) < certificate.value * (1.0 - 1e-9) - 1e-12):
        # no row reaches the limit, read or past N: a correct limit is at
        # most the tail bound, since t >= sup_{n>N} of the rows = the limit
        certificate = None
    if certificate is not None and _verifies(certificate, m, min_step, cfg.tol):
        if certificate.mode == "limit":
            return NormResult(certificate.value, Status.TRUNCATED_CONVERGED, N, 1e-12)
        return NormResult(m, Status.TRUNCATED_CONVERGED, N, abs(certificate.value - m))
    return NormResult(m, Status.TRUNCATED_LOWER_BOUND, N, m - m_cut)


def _verifies(certificate: power_mod.PowerCaseResult, m: float, min_step: float,
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


def _row_sup(rows: Callable[..., Callable[[int, int], np.ndarray]],
             u: Weight, v: Weight, cfg: TruncConfig,
             certificate: power_mod.PowerCaseResult | None,
             tail: _Tail | None = None) -> NormResult:
    """Supremum over rows n of v_n * F(n), where ``rows(w, K, bufs)``
    returns F against the domain weight w on the column horizon K in the
    scan state bufs, a function of a block (first, count).  A tail
    ``_ZERO`` is ClosedForm 0, and ``_DIVERGES`` or an infinite certificate
    Divergent, before any row is built.  Otherwise a truncated v reads its
    rows 1..L_v exactly, and a power v has rows 1..n_max scanned, up to the
    first block the tail closes, with v_n the power of the block's columns,
    in one scan state (that of a list tail's tables, if any)."""
    if tail is _ZERO:
        return NormResult(0.0, Status.CLOSED_FORM, 0, 0.0)
    if tail is _DIVERGES or (certificate is not None and math.isinf(certificate.value)):
        return _divergent()
    L_u = truncation_length(u)
    L_v = truncation_length(v)
    K = max(L_v + 1 if L_v is not None else cfg.n_max + 1, L_u or 0)
    data = None if tail is None else tail.data
    bufs = _Buffers() if data is None else data.bufs
    if L_v is not None:
        return _finite_sup(lambda w: rows(w, K, bufs)(1, L_v), u,
                           codomain_values(v, L_v), L_u is None)
    row_fn, b = rows(u if data is None else data, K, bufs), v.alpha

    def values_fn(first: int, count: int) -> np.ndarray:
        F = row_fn(first, count)
        vals = np.power(bufs.columns(first, count), b, out=bufs.take("v", count))
        return np.multiply(vals, F, out=vals)

    return _scan_sup(values_fn, cfg, certificate, tail, bufs)


# ---------------------------------------------------------------------------
# Tails that end a scan early, read from the row shapes
# ---------------------------------------------------------------------------

def _tail(kind: OpKind, cone: Cone, flip: SignFlip, u: Weight,
          v: Weight) -> _Tail | None:
    """The tail of sup_n v_n F(n) past row N for the rows flipped by flip,
    and the one place that decides the answers that need no row:

    * ``_ZERO`` for a zero envelope, whatever v: every row is 0;
    * ``_DIVERGES``, whatever v, for a power u whose tail block's series
      diverges (``_diverges``) when some row reads it: every row on ALL and
      NONNEG, and on a monotone cone every row outside the flipped run, so
      some row unless the run is SignFlip(1, None) (a plan for a power u
      flips no run that ends past row 0);
    * for a PowerWeight v, the exact tail of a ListWeight u (``_list_tail``,
      ``_DIVERGES`` when it grows), or an integral-comparison bound for a
      PowerWeight u, matched or not (``_power_tail``, ``_DIVERGES`` when a
      floor grows).

    None when no bound is derived, or for a truncated v that nothing
    decides."""
    sh, env, join = ROW_SHAPES[kind], _ENV[cone], _JOIN.get(cone)
    if isinstance(u, ListWeight):
        if not isinstance(v, PowerWeight):
            return None
        return _list_tail(sh, flip, _SeqData(u, env, u.length), v.alpha)
    env_u = _power_env(u, env)
    if env_u is None:
        return _ZERO
    alpha = env_u.alpha
    if (sh.block is TAIL and _diverges(sh.scale, alpha)
            and (join is not None or flip.first > 1 or flip.last is not None)):
        return _DIVERGES
    if not isinstance(v, PowerWeight):
        return None
    # the parts every large row reads: both with a join, else (a monotone
    # cone) the flipped one past the run's start if the run has no end
    counted = (("pos", "neg") if join is not None
               else ("neg",) if flip.last is None else ("pos",))
    return _power_tail(sh, alpha, v.alpha, sum if join is np.add else max, counted)


def _list_tail(sh: RowShape, flip: SignFlip, sd: _SeqData,
               b: float) -> _Tail | None:
    """Exact tail for the list u_1..u_L of sd against v_n = n**b.  Past row
    L + 1 and the end of the run of flipped rows (every offset in the row
    shapes is at least -1), no row reaches a column of u but an unflipped
    prefix, which reads the whole envelope: such rows are c * n**b *
    scale(1, n) = c * n**e, c the prefix table's last entry, and every
    other row is 0.  ``_DIVERGES`` when c > 0 and e > 0; otherwise the
    sup past row N is c * (N + 1)**e, since n**e does not increase."""
    start = max(sd.length + 1, flip.first if flip.last is None else flip.last)
    c, e = 0.0, 0.0
    if sh.block is PREFIX and flip.last is not None:
        q, exact = SCALE_POWERS[sh.scale]
        if not exact:
            return None
        c = sd.total
        e = b + q if c > 0 else 0.0
    if e > 0:
        return _DIVERGES
    return _Tail(lambda N: None if N < start else c * (N + 1.0) ** e, exact=True, data=sd)


# A part of row n >= 2, as (r, a, f), is at most f(n) n**(r - a), r an
# integer and f positive and nonincreasing (None: no such bound), from
# k**-alpha against an integral, and at least c n**(r - a), c > 0, at every
# large n, the other way round (each scale is at least m**q / 2, m >= 2).
# a is the envelope's alpha, or 1 for a prefix sum between 1 and 1 + log n.
# Times v_n = n**b the bound is nonincreasing when r + (b - a) <= 0, so its
# sup over n > N is its value at N + 1, and the floor grows when
# r + (b - a) > 0.  Formed in that order, the exponent of a matched pair
# (b == alpha) is exactly r, a constant bound is not lost to a rounding of
# 1 - (alpha + 1) + alpha, and no rounding makes a nonpositive one positive.

def _entry_envelope(scale: Callable, at: int, alpha: float):
    """The single entry scale(u_{n+at}, n), its own floor: u_{n+at} is
    n**-alpha (1 + at/n)**-alpha, and that factor is <= 1 when at * alpha
    > 0 and nonincreasing otherwise, and tends to 1."""
    if abs(at) > 1:
        return None
    e = -alpha if at * alpha <= 0 else 0.0
    return SCALE_POWERS[scale][0], alpha, lambda n: (1.0 + at / n) ** e


def _block_envelope(sh: RowShape, alpha: float):
    """(r, a, f) for the positive block of the row shape sh, or None."""
    q = SCALE_POWERS[sh.scale][0]
    if sh.block is SINGLE:
        return _entry_envelope(sh.scale, sh.at, alpha)
    if sh.block is PREFIX:
        # sum_{k<=m} k**-alpha >= (m**(1-alpha) - 1)/(1-alpha) for alpha < 1,
        # and >= 1 for alpha >= 1.  0 <= alpha < 1: sum_{k<=n} k**-alpha <=
        # int_0^n x**-alpha dx = n**(1-alpha)/(1-alpha).  alpha < 0, at <= -1:
        # sum_{k<n} k**-alpha <= int_1^n x**-alpha dx <= n**(1-alpha)/(1-alpha).
        # alpha < 0, at == 0: sum_{k<=n} k**-alpha <= n * n**-alpha.
        if alpha >= 1 or sh.at > 0:
            return q + 1, min(alpha, 1.0), None
        c = 1.0 / (1.0 - alpha) if alpha >= 0 or sh.at <= -1 else 1.0
        return q + 1, alpha, lambda n: c
    # a tail under the kernel k**q, s = alpha - q > 1: sum_{k>=n} k**-s lies
    # between int_n^inf x**-s dx = n**(1-s)/(s-1) and that plus n**-s, so
    # at >= 1 needs nothing more and at == 0 adds the term n**-s
    if sh.at < 0 or alpha - q <= 1:
        return None
    c = 1.0 / (alpha - (q + 1))
    if sh.at >= 1:
        return q + 1, alpha, lambda n: c
    return q + 1, alpha, lambda n: c + 1.0 / n


def _power_tail(sh: RowShape, alpha: float, b: float, join: Callable,
                counted: tuple[str, ...]) -> _Tail | None:
    """For u_k = k**-alpha (the envelope's exponent) against v_n = n**b:
    ``_DIVERGES`` when a part that every large row reads (``counted``) has
    a floor that grows, else the bound of the parts' ceilings summed (cone
    ALL) or their max (every other cone, whatever the flips), rounded up."""
    parts = [("pos", _block_envelope(sh, alpha))]
    if sh.neg_scale is not None:
        parts.append(("neg", _entry_envelope(sh.neg_scale, sh.neg_at, alpha)))
    bounds = []   # (exponent, factor) of each part, while every part has one
    for name, part in parts:
        r, a, f = part or (-math.inf, 0.0, None)   # None: nothing is proven
        e = r + (b - a)
        if e > 0 and name in counted:
            return _DIVERGES
        if f is None or e > 0:
            bounds = None
        elif bounds is not None:
            bounds.append((e, f))
    if bounds is None:
        return None

    def at(N: int) -> float:
        n = N + 1.0
        try:
            return join([n ** e * f(n) for e, f in bounds]) * (1.0 + 1e-12)
        except OverflowError:   # a factor past float range: no stop here
            return math.inf

    return _Tail(at)


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
        uv = _envelope(w, _ENV[cone], L_u)
        if cone is Cone.ALL:
            return (pos + neg) @ uv
        if cone is Cone.NONNEG:
            return np.maximum(pos @ uv, neg @ uv)
        return pos @ uv

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
    ``_tail`` decides every answer that needs no row, which ``_row_sup``
    gives before any row.  A scan may stop at its tail, a matched pair's
    only where it meets the certificate."""
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
    if rows is None:
        if L_u is not None and L_v is not None:
            return _dense_norm(kind, u, v, cone, plan)
        rows = partial(_kind_rows, kind)
    return _row_sup(lambda w, K, bufs: rows(w, cone, K, plan.flip, bufs), u, v, cfg,
                    certificate, _tail(kind, cone, plan.flip, u, v))


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
