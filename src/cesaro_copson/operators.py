"""Structured representations of the averaging/tail matrices.

Matrices are never materialised.  ``entry`` gives b_{n,k} by its defining
formula, written out per kind in one table (``ENTRY_FORMULAS``) that each
call reads once: it is the ground truth the tests pin ``row_entries``,
``apply_batch`` and ``last_index_of_part`` to.  The dense
path (``norms``) reads rows through ``row_entries``; the oracle reads B w
for all rows from ``apply_batch``, each row's column of the entry of the
other sign from ``oracle._off_sign_columns`` (which the tests pin to
``last_index_of_part``), and that entry's value from the same formula
table ``entry`` reads, through a per-kind table of the values
(``oracle._off_sign_coefficients``): built once per process, 8 B per row
of the largest window read, and rebuilt when a kind's ``ROW_SHAPES`` or
``ENTRY_FORMULAS`` entry is replaced.
Everything else reads one row shape per kind (``ROW_SHAPES``): row n is a
nonnegative block, the prefix 1..n+at, the tail from n+at or the single
column n+at, plus at most one negative entry at column n+neg_at.  Dense
rows, row sums, witness endpoints, ``apply`` / ``apply_batch`` and the
engine's part values (``norms``) are all derived from it, with the float
operations of the formulas (x / n, not x * (1/n)), so each derived value
has the bits a per-kind formula gives.

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

A :class:`SignFlip` negates one run of rows, first..last (every row from
first on when last is None), the row-by-row preprocessing that brings a
matrix into the shape required by the monotone-cone norm formulas.  Every
row is one block plus at most one entry of the other sign, so the flips a
cone needs always form one such run.  ``cone_plan`` reads two cases from
the row shapes: a kind without a negative entry keeps its rows as they are,
and on the nondecreasing cone a 1/k tail block on an infinite horizon has
row sums of +inf, so that norm is trivially zero.  Only the four mixed
kinds keep a switch per cone: which run is canonical is the paper's case
analysis, and its row-sum checks read ``apply_batch``.

A column horizon L (from a ListWeight) means the L-column principal block:
row sums and witness endpoints are all taken within 1..L.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
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
    "SignFlip",
    "ConePlan",
    "ENTRY_FORMULAS",
    "entry",
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

    __hash__ = object.__hash__   # by identity, as weights.Cone


PRINCIPAL_KINDS = (
    OpKind.C,
    OpKind.CSTAR,
    OpKind.C_MINUS_I,
    OpKind.CSTAR_MINUS_I,
    OpKind.C_MINUS_SSTAR,
    OpKind.CSTARSD,
)


@dataclass(frozen=True)
class SignFlip:
    """Rows first..last are multiplied by -1, every row from first on when
    last is None; the default is the empty run."""

    first: int = 1
    last: int | None = 0

    def sign(self, n: int) -> float:
        last = self.last
        return -1.0 if self.first <= n and (last is None or n <= last) else 1.0

    def flipped(self, n: np.ndarray) -> np.ndarray:
        """Whether each row of the array n (integers or integral floats) is negated."""
        if self.last is None:
            return n >= self.first
        return (n >= self.first) & (n <= self.last)


NO_FLIP = SignFlip()


# The entry table: each kind's defining formula for b_{n,k} (n, k >= 1),
# written out literally.  ``entry`` looks its kind up once, so no call reads
# more than one OpKind member (on Python 3.10/3.11 an Enum member read goes
# through EnumMeta.__getattr__, about 110 ns against 8 ns for a global).
ENTRY_FORMULAS: dict[OpKind, Callable[[int, int], float]] = {
    OpKind.C: lambda n, k: 1.0 / n if k <= n else 0.0,
    OpKind.CSTAR: lambda n, k: 1.0 / k if k >= n else 0.0,
    OpKind.C_MINUS_I: lambda n, k: (1.0 / n if k < n else
                                    -(n - 1.0) / n if k == n else 0.0),
    OpKind.CSTAR_MINUS_I: lambda n, k: (1.0 / k if k > n else
                                        -(n - 1.0) / n if k == n else 0.0),
    OpKind.C_MINUS_SSTAR: lambda n, k: (1.0 / n if k <= n else
                                        -1.0 if k == n + 1 else 0.0),
    OpKind.CSTARSD: lambda n, k: (1.0 / (k * (k + 1.0)) if k >= n else
                                  -1.0 / n if k == n - 1 else 0.0),
    OpKind.S: lambda n, k: 1.0 if k == n - 1 else 0.0,
    OpKind.SSTAR: lambda n, k: 1.0 if k == n + 1 else 0.0,
    OpKind.D: lambda n, k: 1.0 / (n + 1.0) if k == n else 0.0,
    OpKind.E: lambda n, k: 1.0 if k <= n else 0.0,
    OpKind.I: lambda n, k: 1.0 if k == n else 0.0,
}


def entry(kind: OpKind, n: int, k: int, flip: SignFlip = NO_FLIP) -> float:
    """Matrix entry b_{n,k} (n, k >= 1), after any row sign flips."""
    if n < 1 or k < 1:
        raise ValueError("indices must be >= 1")
    return flip.sign(n) * ENTRY_FORMULAS[kind](n, k)


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
    ``last_index_of_part`` call it per row."""
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


@dataclass(frozen=True)
class ConePlan:
    """Preprocessing decision for a monotone-cone norm computation."""

    ok: bool
    flip: SignFlip = NO_FLIP
    trivially_zero: bool = False
    reason: str = ""


_AS_IS = ConePlan(True)   # the rows as they are: no flips
_AS_IS_CONES = frozenset((Cone.ALL, Cone.NONNEG))   # a set: no Enum member read


def cone_plan(kind: OpKind, cone: Cone, L: int | None = None,
              max_row: int | None = None) -> ConePlan:
    """Canonical row flips, one run of rows, making the monotone-cone
    hypotheses hold.

    For cone NONINCR every (flipped) row must be positives-before-negatives
    with nonnegative sum; for NONDECR negatives-before-positives with
    nonnegative sum, and an infinite row sum makes the norm trivially zero.
    ``L`` is the column horizon (None = infinite), ``max_row`` the largest
    row the problem can see (None = all rows).
    """
    if cone in _AS_IS_CONES:
        return _AS_IS
    sh = ROW_SHAPES[kind]
    if cone is Cone.NONDECR and L is None and sh.block is TAIL and sh.scale is INV_K:
        # a 1/k tail sums to +inf against a nonzero nondecreasing sequence
        return ConePlan(True, trivially_zero=True)
    if sh.neg_scale is None:   # single-signed rows
        return _AS_IS

    if cone is Cone.NONINCR:
        if kind is OpKind.C_MINUS_I or kind is OpKind.C_MINUS_SSTAR:
            return _AS_IS
        if kind is OpKind.CSTARSD:
            # rows >= 2 flipped; flipped sums are 1/(L+1) (or 0), row 1 stays
            return ConePlan(True, SignFlip(2, None))
        if kind is OpKind.CSTAR_MINUS_I:
            if L is None:
                return ConePlan(False, reason="flipped rows of C*-I have sum -inf")
            fl = SignFlip(2, L)
            n = _first_negative_row(kind, L, max_row, fl)
            if n is not None:
                return ConePlan(False, reason=f"flipped row {n} has negative sum")
            return ConePlan(True, fl)
    else:   # cone NONDECR
        if kind is OpKind.C_MINUS_I:
            # rows past the column horizon are all-positive: leave them unflipped
            return ConePlan(True, SignFlip(1, L))
        if kind is OpKind.C_MINUS_SSTAR:
            return ConePlan(True, SignFlip(1, None if L is None else L - 1))
        if kind is OpKind.CSTAR_MINUS_I:   # L is finite here
            n = _first_negative_row(kind, L, max_row)
            if n is not None:
                return ConePlan(False, reason=f"row {n} has negative sum")
            return _AS_IS
        if kind is OpKind.CSTARSD:
            if L is None or _first_negative_row(kind, L, max_row) is None:
                return _AS_IS
            return ConePlan(False, reason="truncated rows of (C*-S)D have sum -1/(L+1)")
    raise ValueError(f"unknown kind {kind}")


def _first_negative_row(kind: OpKind, L: int, max_row: int | None,
                        flip: SignFlip = NO_FLIP) -> int | None:
    """The first row n >= 2, up to min(L + 1, max_row), whose flipped sum
    within columns 1..L is negative, or None.  The row sums are B applied to
    ones.  Row L + 1 still reads column L where an entry sits at column
    n - 1 (the -1/n of (C* - S)D)."""
    hi = L + 1 if max_row is None else min(L + 1, max_row)
    n = np.arange(2, hi + 1)
    s = apply_batch(kind, np.ones(L), hi)[1:]
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
    return SeqWindow(1, tuple(apply_batch(kind, xf, N)))


def _rows(A: np.ndarray, first: int, count: int) -> np.ndarray:
    """Rows first, ..., first + count - 1 of A (numbered from 1), with 0 for
    those outside 1..A.shape[0]."""
    K = A.shape[0]
    if first >= 1 and first + count - 1 <= K:
        return A[first - 1:first - 1 + count]
    out = np.zeros((count,) + A.shape[1:])
    lo, hi = max(first, 1), min(first + count - 1, K)
    if lo <= hi:
        out[lo - first:hi - first + 1] = A[lo - 1:hi]
    return out


def apply_batch(kind: OpKind, X: np.ndarray, n_rows: int | None = None) -> np.ndarray:
    """Apply the K-column principal block to one vector or a batch of them.

    ``X`` has shape (K,) or (K, T): T sequences supported on columns 1..K,
    one per column, the batch axis last.  Returns (R,) or (R, T) with
    R = n_rows or K; rows past K read only the in-window columns (the
    truncated-problem convention).  Sums run along axis 0, and so do the
    callers' reductions, each one vector operation across the whole batch:
    the oracle's random search holds T = 500 samples of K <= 20 columns, and
    np.max over axis 0 of a (12, 500) batch takes about 3 us, against about
    22 us over the rows of its (500, 12) transpose."""
    X = np.asarray(X, dtype=float)
    K = X.shape[0]
    R = K if n_rows is None else n_rows
    sh = ROW_SHAPES[kind]
    batch = (1,) * (X.ndim - 1)   # row and column numbers broadcast across it
    n = np.arange(1, R + 1, dtype=float).reshape((R,) + batch)
    if sh.block is PREFIX:
        cs = np.cumsum(X, axis=0)
        if R > K:   # a prefix past the window is the whole window
            cs = np.concatenate([cs, np.repeat(cs[-1:], R - K, axis=0)])
        out = sh.scale(_rows(cs, 1 + sh.at, R), n)
    elif sh.block is TAIL:
        t = sh.scale(X, np.arange(1, K + 1, dtype=float).reshape((K,) + batch))
        out = _rows(np.cumsum(t[::-1], axis=0)[::-1], 1 + sh.at, R)
    else:
        out = sh.scale(_rows(X, 1 + sh.at, R), n)
    if sh.neg_scale is not None:
        out = out - sh.neg_scale(_rows(X, 1 + sh.neg_at, R), n)
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
