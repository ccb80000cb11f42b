"""Structured representations of the averaging/tail matrices.

Matrices are never materialised.  ``entry`` gives b_{n,k} by its defining
formula, written out per kind: it is the ground truth the tests pin
``row_entries``, ``apply_batch`` and ``last_index_of_part`` to.  The dense
path (``norms``) reads rows through ``row_entries``; the oracle reads B w
for all rows from ``apply_batch``, each row's column of the entry of the
other sign from ``oracle._off_sign_columns`` (which the tests pin to
``last_index_of_part``), and that entry's value from ``entry`` itself.
Everything else reads one row shape per kind (``ROW_SHAPES``): row n is a
nonnegative block, the prefix 1..n+at, the tail from n+at or the single
column n+at, plus at most one negative entry at column n+neg_at.  Dense
rows, row sums and sign patterns, witness endpoints, ``apply`` /
``apply_batch`` and the engine's part values (``norms``) are all derived
from it, with the float operations of the formulas (x / n, not
x * (1/n)), so each derived value has the bits a per-kind formula gives.

Kinds
-----
    C            (Cx)_n = (1/n) sum_{k<=n} x_k          (averaging)
    CSTAR        (C*x)_n = sum_{k>=n} x_k / k           (tail averaging)
    C_MINUS_I    C - I
    CSTAR_MINUS_I C* - I
    C_MINUS_SSTAR C - S*   (S* = left shift)
    CSTARSD      (C* - S) D, entries 1/(k(k+1)) on and above the diagonal
                 and -1/n at k = n-1
    S, SSTAR, D, E, I   helpers: right shift, left shift, diag 1/(n+1),
                 partial sums, identity

A :class:`SignFlip` negates a set of rows (a global toggle plus a finite
exception set), the row-by-row preprocessing that brings a matrix into the
shape required by the monotone-cone norm formulas.  ``cone_plan`` computes
the canonical admissible flip for each kind/cone, or reports that the
hypotheses cannot be satisfied.  Which flip is canonical is a policy from
the paper, so it stays a switch per kind and cone; its row-sum checks read
the table.

A column horizon L (from a ListWeight) means the L-column principal block:
row sums, patterns and witness endpoints are all taken within 1..L.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

from .weights import Cone, SeqWindow

__all__ = [
    "OpKind",
    "row_entries",
    "PRINCIPAL_KINDS",
    "RowShape",
    "ROW_SHAPES",
    "SCALE_POWERS",
    "RowPattern",
    "RowClass",
    "SignFlip",
    "ConePlan",
    "entry",
    "classify_row",
    "cone_plan",
    "last_index_of_part",
    "apply",
    "apply_batch",
    "check_identity_first",
    "check_identity_second",
]


class OpKind(Enum):
    C = "cesaro"
    CSTAR = "copson"
    C_MINUS_I = "cesaro-minus-identity"
    CSTAR_MINUS_I = "copson-minus-identity"
    C_MINUS_SSTAR = "cesaro-minus-shift"
    CSTARSD = "copson-minus-shift-diag"
    S = "shift-right"
    SSTAR = "shift-left"
    D = "diag-inv-np1"
    E = "partial-sums"
    I = "identity"  # noqa: E741  (the customary name)


PRINCIPAL_KINDS = (
    OpKind.C,
    OpKind.CSTAR,
    OpKind.C_MINUS_I,
    OpKind.CSTAR_MINUS_I,
    OpKind.C_MINUS_SSTAR,
    OpKind.CSTARSD,
)


class RowPattern(Enum):
    POS_BEFORE_NEG = "pos-before-neg"
    NEG_BEFORE_POS = "neg-before-pos"
    BOTH = "both"          # single-signed row: satisfies either hypothesis
    ALL_ZERO = "all-zero"


@dataclass(frozen=True)
class RowClass:
    pattern: RowPattern
    row_sum: float          # may be +-inf
    finite_sum: bool

    def satisfies(self, pattern: RowPattern) -> bool:
        return self.pattern in (pattern, RowPattern.BOTH, RowPattern.ALL_ZERO)


@dataclass(frozen=True)
class SignFlip:
    """Rows with (flip_all XOR n in flip_rows) are multiplied by -1."""

    flip_all: bool = False
    flip_rows: frozenset[int] = field(default_factory=frozenset)

    def sign(self, n: int) -> float:
        return -1.0 if (self.flip_all != (n in self.flip_rows)) else 1.0

    @cached_property
    def _table(self) -> np.ndarray:
        """Whether rows 0..max(flip_rows) + 1 are negated; every later row
        is negated as the last one is."""
        table = np.full(max(self.flip_rows, default=0) + 2, self.flip_all)
        table[np.fromiter(self.flip_rows, np.int64, len(self.flip_rows))] = not self.flip_all
        return table

    def flipped(self, n: np.ndarray) -> np.ndarray:
        """Whether each row of the int array n (rows >= 0) is negated."""
        table = self._table
        return table[np.minimum(n, table.size - 1)]


NO_FLIP = SignFlip()


def entry(kind: OpKind, n: int, k: int, flip: SignFlip = NO_FLIP) -> float:
    """Matrix entry b_{n,k} (n, k >= 1), after any row sign flips."""
    if n < 1 or k < 1:
        raise ValueError("indices must be >= 1")
    e = 0.0
    if kind is OpKind.C:
        e = 1.0 / n if k <= n else 0.0
    elif kind is OpKind.CSTAR:
        e = 1.0 / k if k >= n else 0.0
    elif kind is OpKind.C_MINUS_I:
        if k < n:
            e = 1.0 / n
        elif k == n:
            e = -(n - 1.0) / n
    elif kind is OpKind.CSTAR_MINUS_I:
        if k > n:
            e = 1.0 / k
        elif k == n:
            e = -(n - 1.0) / n
    elif kind is OpKind.C_MINUS_SSTAR:
        if k <= n:
            e = 1.0 / n
        elif k == n + 1:
            e = -1.0
    elif kind is OpKind.CSTARSD:
        if k >= n:
            e = 1.0 / (k * (k + 1.0))
        elif k == n - 1:
            e = -1.0 / n
    elif kind is OpKind.S:
        e = 1.0 if k == n - 1 else 0.0
    elif kind is OpKind.SSTAR:
        e = 1.0 if k == n + 1 else 0.0
    elif kind is OpKind.D:
        e = 1.0 / (n + 1.0) if k == n else 0.0
    elif kind is OpKind.E:
        e = 1.0 if k <= n else 0.0
    elif kind is OpKind.I:
        e = 1.0 if k == n else 0.0
    return flip.sign(n) * e


# ---------------------------------------------------------------------------
# Row shapes: the one statement of each kind's row structure
# ---------------------------------------------------------------------------

# the three block forms
PREFIX = "prefix"   # columns 1..n+at
TAIL = "tail"       # columns n+at, n+at+1, ...
SINGLE = "single"   # column n+at


# Scales and kernels: scale(x, m, out) is x times the factor at row or column
# m, computed with the operations the formulas use (x / m, not x * (1 / m)).
# Given out (which must not be x), the same operations are ufuncs written
# into it; without, they stay plain operators, as the per-row scalar code
# (``row_entries``, ``last_index_of_part``) calls them on Python numbers,
# where a ufunc call costs ~1 us.
def _one(x, m, out=None):
    return x if out is None else np.positive(x, out=out)


def _over(x, m, out=None):
    return x / m if out is None else np.divide(x, m, out=out)


def _over_next(x, m, out=None):
    if out is None:
        return x / (m + 1.0)
    return np.divide(x, np.add(m, 1.0, out=out), out=out)


def _over_pair(x, m, out=None):
    if out is None:
        return x / (m * (m + 1.0))
    return np.divide(x, np.multiply(m, np.add(m, 1.0, out=out), out=out), out=out)


def _frac_prev(x, m, out=None):
    if out is None:
        return (m - 1.0) / m * x
    return np.multiply(np.divide(np.subtract(m, 1.0, out=out), m, out=out), x, out=out)


INV_K = _over            # tail kernel 1/k
INV_K_KP1 = _over_pair   # tail kernel 1/(k(k+1))

# Each scale as a power of m: scale(1, m) <= m**q for m >= 1, with equality
# where exact.  The tail bounds of ``norms`` read it.
SCALE_POWERS = {_one: (0, True), _over: (-1, True), _over_next: (-1, False),
                _over_pair: (-2, False), _frac_prev: (0, False)}


@dataclass(frozen=True)
class RowShape:
    """Row n: a nonnegative block plus at most one negative entry.

    A PREFIX or SINGLE block holds scale(1, n) in each of its columns, a
    TAIL block the kernel value scale(1, k) in column k.  The negative entry
    is -neg_scale(1, n) at column n + neg_at; there is none when neg_scale
    is None, or where neg_scale(1, n) is 0."""

    block: str          # PREFIX, TAIL or SINGLE
    at: int
    scale: Callable
    neg_at: int = 0
    neg_scale: Callable | None = None


ROW_SHAPES = {
    OpKind.C: RowShape(PREFIX, 0, _over),
    OpKind.CSTAR: RowShape(TAIL, 0, INV_K),
    OpKind.C_MINUS_I: RowShape(PREFIX, -1, _over, 0, _frac_prev),
    OpKind.CSTAR_MINUS_I: RowShape(TAIL, 1, INV_K, 0, _frac_prev),
    OpKind.C_MINUS_SSTAR: RowShape(PREFIX, 0, _over, 1, _one),
    OpKind.CSTARSD: RowShape(TAIL, 0, INV_K_KP1, -1, _over),
    OpKind.S: RowShape(SINGLE, -1, _one),
    OpKind.SSTAR: RowShape(SINGLE, 1, _one),
    OpKind.D: RowShape(SINGLE, 0, _over_next),
    OpKind.E: RowShape(PREFIX, 0, _one),
    OpKind.I: RowShape(SINGLE, 0, _one),
}


def _block_cols(sh: RowShape, n: int, L: int | None) -> tuple[int, int | None]:
    """Columns lo..hi of row n's block within 1..L: empty when lo > hi, hi
    None for an infinite tail.  Scalar code: ``row_entries`` and
    ``classify_row`` call it per row."""
    edge = n + sh.at
    if sh.block is TAIL:
        return edge, L
    hi = edge if L is None else min(edge, L)
    return (1 if sh.block is PREFIX else max(edge, 1)), hi


def _neg_col(sh: RowShape, n: int, L: int | None) -> int:
    """Column of row n's negative entry within 1..L, 0 if there is none."""
    j = n + sh.neg_at
    if (sh.neg_scale is None or j < 1 or (L is not None and j > L)
            or sh.neg_scale(1.0, n) == 0.0):
        return 0
    return j


def row_entries(kind: OpKind, n: int, K: int, flip: SignFlip = NO_FLIP) -> np.ndarray:
    """Row n as a dense vector over columns 1..K (vectorised entry())."""
    sh = ROW_SHAPES[kind]
    lo, hi = _block_cols(sh, n, K)
    j = _neg_col(sh, n, K)
    e = np.zeros(K)
    if lo <= hi:
        if sh.block is TAIL:
            e[lo - 1:hi] = sh.scale(1.0, np.arange(lo, hi + 1, dtype=float))
        else:
            e[lo - 1:hi] = sh.scale(1.0, n)
    if j:
        e[j - 1] = -sh.neg_scale(1.0, n)
    return -e if flip.sign(n) < 0 else e


def classify_row(kind: OpKind, n: int, ncols: int | None = None,
                 flip: SignFlip = NO_FLIP) -> RowClass:
    """Sign pattern and row sum of row n within columns 1..ncols.

    The block and the negative entry are each contiguous, so a mixed row is
    POS_BEFORE_NEG or NEG_BEFORE_POS depending on which comes first;
    single-signed rows satisfy both hypotheses and are reported as BOTH.
    """
    sh = ROW_SHAPES[kind]
    lo, hi = _block_cols(sh, n, ncols)
    j = _neg_col(sh, n, ncols)
    has_pos, has_neg = hi is None or lo <= hi, j > 0
    if not has_pos and not has_neg:
        return RowClass(RowPattern.ALL_ZERO, 0.0, True)
    if not has_pos:
        s = 0.0
    elif hi is None:   # 1/k diverges; sum_{k>=lo} 1/(k(k+1)) telescopes to 1/lo
        s = math.inf if sh.scale is INV_K else 1.0 / lo
    elif sh.block is TAIL:   # summed from column hi down, as apply_batch does
        s = float(np.cumsum(sh.scale(1.0, np.arange(hi, lo - 1, -1, dtype=float)))[-1])
    else:
        s = sh.scale(float(hi - lo + 1), n)
    if j:
        s -= sh.neg_scale(1.0, n)
    flipped = flip.sign(n) < 0
    if flipped:
        s = -s
    if has_pos != has_neg:
        return RowClass(RowPattern.BOTH, s, math.isfinite(s))
    neg_first = (j < lo) != flipped
    pat = RowPattern.NEG_BEFORE_POS if neg_first else RowPattern.POS_BEFORE_NEG
    return RowClass(pat, s, math.isfinite(s))


@dataclass(frozen=True)
class ConePlan:
    """Preprocessing decision for a monotone-cone norm computation."""

    ok: bool
    flip: SignFlip = NO_FLIP
    trivially_zero: bool = False
    reason: str = ""


def cone_plan(kind: OpKind, cone: Cone, L: int | None = None,
              max_row: int | None = None) -> ConePlan:
    """Canonical row flips making the monotone-cone hypotheses hold.

    For cone NONINCR every (flipped) row must be positives-before-negatives
    with nonnegative sum; for NONDECR negatives-before-positives with
    nonnegative sum, and an infinite row sum makes the norm trivially zero.
    ``L`` is the column horizon (None = infinite), ``max_row`` the largest
    row the problem can see (None = all rows).
    """
    if cone in (Cone.ALL, Cone.NONNEG):
        return ConePlan(True)

    nonneg_kinds = (OpKind.C, OpKind.CSTAR, OpKind.S, OpKind.SSTAR,
                    OpKind.D, OpKind.E, OpKind.I)

    if cone is Cone.NONINCR:
        if kind in nonneg_kinds or kind in (OpKind.C_MINUS_I, OpKind.C_MINUS_SSTAR):
            return ConePlan(True)
        if kind is OpKind.CSTARSD:
            # rows >= 2 flipped; flipped sums are 1/(L+1) (or 0), row 1 stays
            return ConePlan(True, SignFlip(flip_all=True, flip_rows=frozenset({1})))
        if kind is OpKind.CSTAR_MINUS_I:
            if L is None:
                return ConePlan(False, reason="flipped rows of C*-I have sum -inf")
            fl = SignFlip(flip_rows=frozenset(range(2, L + 1)))
            n = _first_negative_row(kind, L, max_row, fl)
            if n is not None:
                return ConePlan(False, reason=f"flipped row {n} has negative sum")
            return ConePlan(True, fl)
        raise ValueError(f"unknown kind {kind}")

    # cone NONDECR
    if kind in nonneg_kinds:
        if kind is OpKind.CSTAR and L is None:
            return ConePlan(True, trivially_zero=True)
        return ConePlan(True)
    if kind is OpKind.C_MINUS_I:
        if L is None:
            return ConePlan(True, SignFlip(flip_all=True))
        # rows past the column horizon are all-positive: leave them unflipped
        return ConePlan(True, SignFlip(flip_rows=frozenset(range(1, L + 1))))
    if kind is OpKind.C_MINUS_SSTAR:
        if L is None:
            return ConePlan(True, SignFlip(flip_all=True))
        return ConePlan(True, SignFlip(flip_rows=frozenset(range(1, L))))
    if kind is OpKind.CSTAR_MINUS_I:
        if L is None:
            return ConePlan(True, trivially_zero=True)
        n = _first_negative_row(kind, L, max_row)
        if n is not None:
            return ConePlan(False, reason=f"row {n} has negative sum")
        return ConePlan(True)
    if kind is OpKind.CSTARSD:
        if L is None:
            return ConePlan(True)
        if _first_negative_row(kind, L, max_row) is not None:
            return ConePlan(False, reason="truncated rows of (C*-S)D have sum -1/(L+1)")
        return ConePlan(True)
    raise ValueError(f"unknown kind {kind}")


def _first_negative_row(kind: OpKind, L: int, max_row: int | None,
                        flip: SignFlip = NO_FLIP) -> int | None:
    """The first row n >= 2, up to min(L + 1, max_row), whose flipped sum
    within columns 1..L is negative, or None.  The row sums are B applied to
    ones.  Row L + 1 still reads column L where an entry sits at column
    n - 1 (the -1/n of (C* - S)D)."""
    hi = L + 1 if max_row is None else min(L + 1, max_row)
    n = np.arange(2, hi + 1)
    s = apply_batch(kind, np.ones(L), hi)[0, 1:]
    bad = np.flatnonzero(np.where(flip.flipped(n), -s, s) < 0)
    return int(n[bad[0]]) if bad.size else None


def last_index_of_part(kind: OpKind, n: int, L: int | None, negative: bool,
                       flip: SignFlip = NO_FLIP) -> int:
    """Largest column index of the positive (or negative) part of flipped
    row n within columns 1..L; 0 if the part is empty, L for full tails.
    ``L`` must be finite here (witnesses are built on finite windows)."""
    if L is None:
        raise ValueError("witness construction needs a finite column window")
    sh = ROW_SHAPES[kind]
    if negative != (flip.sign(n) < 0):
        return _neg_col(sh, n, L)
    lo, hi = _block_cols(sh, n, L)
    return hi if lo <= hi else 0


# ---------------------------------------------------------------------------
# Application to finitely supported sequences
# ---------------------------------------------------------------------------

def _padded(x: SeqWindow, width: int) -> np.ndarray:
    out = np.zeros(width)
    if x.values:
        lo = x.start - 1
        hi = min(x.end, width)
        if hi > lo:
            out[lo:hi] = np.asarray(x.values)[: hi - lo]
    return out


def apply(kind: OpKind, x: SeqWindow, N: int) -> SeqWindow:
    """(Bx)_1..(Bx)_N for finitely supported x.  The C*-type row sums are
    finite because the support is; no truncation is involved."""
    xf = _padded(x, max(N + 1, x.end))
    return SeqWindow(1, tuple(apply_batch(kind, xf, N)[0]))


def _cols(A: np.ndarray, first: int, count: int) -> np.ndarray:
    """Columns first, ..., first + count - 1 of A (numbered from 1), with 0
    for those outside 1..A.shape[1]."""
    T, K = A.shape
    if first >= 1 and first + count - 1 <= K:
        return A[:, first - 1:first - 1 + count]
    out = np.zeros((T, count))
    lo, hi = max(first, 1), min(first + count - 1, K)
    if lo <= hi:
        out[:, lo - first:hi - first + 1] = A[:, lo - 1:hi]
    return out


def apply_batch(kind: OpKind, X: np.ndarray, n_rows: int | None = None) -> np.ndarray:
    """Apply the K-column principal block to a batch of vectors.

    ``X`` has shape (T, K): T sequences supported on columns 1..K.  Returns
    (T, R) with R = n_rows or K; rows past K read only the in-window columns
    (the truncated-problem convention)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    K = X.shape[1]
    R = K if n_rows is None else n_rows
    sh = ROW_SHAPES[kind]
    n = np.arange(1, R + 1, dtype=float)
    if sh.block is PREFIX:
        cs = np.cumsum(X, axis=1)
        if R > K:   # a prefix past the window is the whole window
            cs = np.hstack([cs, np.repeat(cs[:, -1:], R - K, axis=1)])
        out = sh.scale(_cols(cs, 1 + sh.at, R), n)
    elif sh.block is TAIL:
        t = sh.scale(X, np.arange(1, K + 1, dtype=float))
        out = _cols(np.cumsum(t[:, ::-1], axis=1)[:, ::-1], 1 + sh.at, R)
    else:
        out = sh.scale(_cols(X, 1 + sh.at, R), n)
    if sh.neg_scale is not None:
        out = out - sh.neg_scale(_cols(X, 1 + sh.neg_at, R), n)
    return out


# ---------------------------------------------------------------------------
# The two operator identities, checked on finitely supported input
# ---------------------------------------------------------------------------

def check_identity_first(x: SeqWindow, N: int) -> float:
    """max_{n<=N} |((C - S*) C* x)_n - (C x)_n| for finitely supported x."""
    lhs = np.asarray(apply(OpKind.C_MINUS_SSTAR, apply(OpKind.CSTAR, x, N + 1), N).values)
    rhs = np.asarray(apply(OpKind.C, x, N).values)
    return float(np.max(np.abs(lhs - rhs))) if N >= 1 else 0.0


def check_identity_second(x: SeqWindow, N: int) -> float:
    """max_{n<=N} |((C* - S) D E x)_n - (C* x)_n| for finitely supported x.

    Beyond the support (Ex)_k is the constant sigma = sum(x), and the tail of
    C*D telescopes exactly: sum_{k>=m} sigma/(k(k+1)) = sigma/m.
    """
    end = x.end
    width = max(end, N + 1)
    z = np.cumsum(_padded(x, width))  # (Ex)_k, constant sigma past end
    sigma = z[end - 1] if end >= 1 else 0.0
    k = np.arange(1, width + 1, dtype=float)
    t = z / (k * (k + 1.0))
    # sum_{k=n}^{width} t_k + analytic tail sigma/(width+1)
    tails = np.cumsum(t[::-1])[::-1] + sigma / (width + 1.0)
    n = np.arange(1, N + 1, dtype=float)
    zprev = np.concatenate([[0.0], z[: N - 1]]) if N >= 1 else np.zeros(0)
    lhs = tails[:N] - zprev / n
    rhs = np.asarray(apply(OpKind.CSTAR, x, N).values)
    return float(np.max(np.abs(lhs - rhs))) if N >= 1 else 0.0
