"""Tracing of the library's layers from outside the program.

``Tracer.install`` replaces each function named in ``TARGETS`` at every
module attribute of the ``cesaro_copson`` package that binds it (a function
imported into three modules is replaced in all three) and ``uninstall`` puts
the originals back.  Each call of a timed target records a span in memory:
layer name, start, end, parent span and query id.  Counts (calls, rows,
elements, trials) are recorded at the same boundaries.  Hot scalar calls
such as ``operators.entry`` are counted and not timed.

A layer's self time is its spans' durations minus the time their child spans
cover.  The harness opens one root span per query, so the self times of a
query's spans add up to the query's duration.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

PACKAGE = "cesaro_copson"
QUERY = "query"   # root span of one public call


@dataclass(frozen=True)
class Target:
    """A function of the package to trace, and what to count on each call."""

    module: str            # module that defines it
    attr: str
    layer: str             # span name and metric prefix
    mode: str = "timed"    # "timed", "count" (no span), "class" (constructor),
                           # "rows" (time the row function the builder returns)
    calls: str = "calls"   # counter for the number of calls
    size: str = ""         # counter for a size argument, e.g. "rows"
    size_of: tuple[str, Callable] | None = None   # (parameter, value -> int)


_LEN = ("n", np.size)
_SCALAR = "special_sums.scalar"
_ROWS = "norms.row_values"
_ROW_BUILDERS = ("_cesaro_rows", "_copson_rows", "_cesaro_id_rows",
                 "_copson_id_rows", "_c_minus_sstar_rows", "_cstarsd_rows")

TARGETS = (
    Target("special_sums", "hurwitz_tail_scaled", "special_sums.hurwitz_tail_scaled",
           size="rows", size_of=_LEN),
    Target("special_sums", "shifted_tail_scaled", "special_sums.shifted_tail_scaled",
           size="rows", size_of=_LEN),
    *(Target("special_sums", f, _SCALAR)
      for f in ("hurwitz_tail", "shifted_tail", "zeta", "m_alpha")),
    Target("norms", "_SeqData", "norms._SeqData", mode="class", calls="builds",
           size="elements", size_of=("K", int)),
    Target("norms", "_generic_row_values", _ROWS),
    *(Target("norms", f, _ROWS, mode="rows") for f in _ROW_BUILDERS),
    Target("norms", "_scan_sup", "norms._scan_sup", size="rows",
           size_of=("cfg", lambda cfg: cfg.n_max)),
    Target("norms", "_dense_norm", "norms._dense_norm"),
    Target("norms", "_finite_sup", "norms._finite_sup"),
    Target("operators", "cone_plan", "operators.cone_plan"),
    Target("operators", "entry", "operators.entry", mode="count"),
    Target("operators", "row_entries", "operators.row_entries"),
    Target("operators", "apply_batch", "operators.apply_batch"),
    Target("weights", "envelope_down", "weights.envelope"),
    Target("weights", "envelope_up", "weights.envelope"),
    Target("weights", "weight_values", "weights.values"),
    Target("weights", "codomain_values", "weights.values"),
    Target("power", "closed_form", "power.closed_form"),
    Target("power", "scan_certificate", "power.scan_certificate"),
    Target("two_operator", "best_constant", "two_operator.best_constant"),
    Target("oracle", "verify", "oracle.verify"),
    Target("oracle", "extremal_lower_bound", "oracle.extremal_lower_bound"),
    Target("oracle", "random_lower_bound", "oracle.random_lower_bound",
           size="trials", size_of=("trials", int)),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int    # index of the parent span, -1 for a root
    query: int


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.counts: Counter = Counter()
        self.missing: list[str] = []   # targets the package no longer has
        self._spans: list[list] = []
        self._stack: list[int] = []
        self._query = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self._spans)
        parent = self._stack[-1] if self._stack else -1
        self._spans.append([name, self.clock(), 0.0, parent, self._query])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self._spans[idx][2] = self.clock()

    def run_query(self, query_id: int, call: Callable):
        """Run ``call()`` under a root span for query ``query_id``."""
        self._query = query_id
        idx = self._open(QUERY)
        try:
            return call()
        finally:
            self._close(idx)
            self._query = -1

    def spans(self) -> list[Span]:
        return [Span(*s) for s in self._spans]

    # -- wrapping --------------------------------------------------------

    def _count(self, t: Target, sig, args, kwargs) -> None:
        self.counts[f"{t.layer}.{t.calls}"] += 1
        if t.size_of is not None:
            param, size = t.size_of
            bound = sig.bind(*args, **kwargs)
            self.counts[f"{t.layer}.{t.size}"] += int(size(bound.arguments[param]))

    def _timed(self, fn: Callable, t: Target) -> Callable:
        sig = inspect.signature(fn) if t.size_of else None

        def traced(*args, **kwargs):
            self._count(t, sig, args, kwargs)
            idx = self._open(t.layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _wrap(self, orig, t: Target):
        if t.mode == "timed":
            return self._timed(orig, t)
        if t.mode == "count":
            key = f"{t.layer}.{t.calls}"
            counts = self.counts

            def counted(*args, **kwargs):
                counts[key] += 1
                return orig(*args, **kwargs)

            return counted
        if t.mode == "rows":
            rows = Target("", "", t.layer)

            def builder(*args, **kwargs):
                return self._timed(orig(*args, **kwargs), rows)

            return builder
        if t.mode == "class":
            return type(orig.__name__, (orig,), {"__init__": self._timed(orig.__init__, t)})
        raise ValueError(f"unknown mode {t.mode!r}")

    def install(self, targets=TARGETS) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for t in targets:
            home = sys.modules.get(f"{PACKAGE}.{t.module}")
            orig = getattr(home, t.attr, None)
            if orig is None:
                self.missing.append(f"{t.module}.{t.attr}")
                continue
            wrapper = self._wrap(orig, t)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def write(self, path: str) -> None:
        """Write the spans as gzip-compressed columnar JSON."""
        names = sorted({s[0] for s in self._spans})
        index = {n: i for i, n in enumerate(names)}
        doc = {"names": names,
               "name": [index[s[0]] for s in self._spans],
               "start": [s[1] for s in self._spans],
               "end": [s[2] for s in self._spans],
               "parent": [s[3] for s in self._spans],
               "query": [s[4] for s in self._spans]}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def covered(lo: float, hi: float, intervals) -> float:
    """Length of the part of [lo, hi] that the union of ``intervals`` covers."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [(s.end - s.start) - covered(s.start, s.end, children[i])
            for i, s in enumerate(spans)]


def query_residuals(spans: list[Span], selfs: list[float]) -> list[float]:
    """Per query: |sum of its spans' self times - its root span's duration|."""
    total = defaultdict(float)
    for s, st in zip(spans, selfs):
        total[s.query] += st
    return [abs(total[s.query] - (s.end - s.start))
            for s in spans if s.parent < 0]


def layer_metrics(spans: list[Span], selfs: list[float], counts: Counter,
                  targets=TARGETS) -> dict[str, float]:
    """``<layer>.self_s`` per layer (root spans as ``query.self_s``) plus
    every counter, with zeros for layers that did no work."""
    out: dict[str, float] = {}
    for t in targets:
        if t.mode != "count":
            out[f"{t.layer}.self_s"] = 0.0
        out.setdefault(f"{t.layer}.{t.calls}", 0)
        if t.size:
            out[f"{t.layer}.{t.size}"] = 0
    out[f"{QUERY}.self_s"] = 0.0
    for s, st in zip(spans, selfs):
        out[f"{s.name}.self_s"] += st
    out.update(counts)
    return out
