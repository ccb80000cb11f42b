"""The blocked supremum scan: block edges against a whole-array reference,
and memory that does not grow with n_max."""

import math
import tracemalloc

import numpy as np
import pytest

from cesaro_copson import norms
from cesaro_copson.norms import (NormResult, Status, TruncConfig, _divergent,
                                 _DivergentTail, _scan_sup, dist_cesaro_identity,
                                 norm_copson, norm_cstarsd, norm_general)
from cesaro_copson.operators import OpKind
from cesaro_copson.power import ScanCertificate
from cesaro_copson.two_operator import Direction, TwoOpQuery, best_constant
from cesaro_copson.weights import Cone, ListWeight, PowerWeight

B = norms._SCAN_BLOCK
P = PowerWeight


def whole_array_scan(values_fn, cfg, certificate):
    """The scan before blocking: every row in one values_fn call."""
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
    if cut < N and delta <= cfg.tol:
        return NormResult(m, Status.TRUNCATED_CONVERGED, N, delta)
    return NormResult(m, Status.TRUNCATED_LOWER_BOUND, N, delta)


def _rows(N, feature, rows):
    """Synthetic scan values over 1..N with ``feature`` at each of ``rows``,
    and the certificate that goes with them."""
    n = np.arange(1, N + 1, dtype=float)
    certificate = None
    if feature in ("dip", "small-dip"):
        vals = 1.0 - 1.0 / (n + 1.0)   # increasing to the limit 1
        certificate = ScanCertificate("limit", 1.0)
    else:
        vals = 1.0 / n
    for r in rows:
        i = r - 1
        if feature == "max":
            vals[i] = 5.0
            certificate = ScanCertificate("attained", 5.0)
        elif feature == "tie":          # above the threshold: the first row wins
            vals[i:i + 2] = 2e15
        elif feature == "huge":
            vals[i] = 2e15 + r
        elif feature == "nan":
            vals[i] = np.nan
        elif feature == "dip" and r < N:
            vals[i + 1] = vals[i] - 1e-3
        elif feature == "small-dip" and r < N:
            vals[i + 1] = vals[i] - 1e-12
    return vals, certificate


def _compare(vals, cfg, certificate):
    calls = []

    def values_fn(n):
        calls.append((int(n[0]), int(n[-1]), n.size))
        return vals[n - 1]

    got = _scan_sup(values_fn, cfg, certificate)
    assert repr(got) == repr(whole_array_scan(lambda n: vals[n - 1], cfg, certificate))
    # contiguous blocks of B rows, in order, covering 1..N once
    N = cfg.n_max
    assert calls == [(lo, min(lo + B - 1, N), min(B, N - lo + 1))
                     for lo in range(1, N + 1, B)]


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("feature", ["max", "tie", "huge", "nan", "dip", "small-dip"])
@pytest.mark.parametrize("N", [1, B - 1, B, B + 1, 2 * B + 3])
def test_block_edges_match_whole_array_scan(N, feature, offset):
    # the feature sits next to every block edge inside 1..N (at row N when
    # there is none)
    rows = [k * B + offset for k in (1, 2) if 1 <= k * B + offset <= N] or [N]
    vals, certificate = _rows(N, feature, rows)
    _compare(vals, TruncConfig(n_max=N), certificate)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_stall_cut_at_a_block_edge(offset):
    # choose n_max so that the 90% cut is the row next to a block edge; the
    # values rise by distinct steps across the cut, so an off-by-one in the
    # stall window changes the residual
    cut = B + offset
    N = next(m for m in range(int(cut / 0.9) - 3, int(cut / 0.9) + 4)
             if int(0.9 * m) == cut)
    vals = np.ones(N)
    for r in range(cut - 1, cut + 3):
        vals[r - 1] = 1.0 + 1e-10 * (r - cut + 2)
    for tol in (1e-10, 1e-9):
        _compare(vals, TruncConfig(n_max=N, tol=tol), None)


MEMORY_CASES = {
    "cstarsd-power": lambda cfg: norm_cstarsd(P(.5), P(.3), Cone.ALL, cfg),
    "cesaro-id-nondecr": lambda cfg: dist_cesaro_identity(P(.5), P(.3), Cone.NONDECR, cfg),
    "copson-list-u": lambda cfg: norm_copson(
        ListWeight(tuple(float(k) for k in range(1, 300))), P(.3), Cone.ALL, cfg),
    "general-cstar-minus-i": lambda cfg: norm_general(
        OpKind.CSTAR_MINUS_I, P(.6), P(.6), Cone.ALL, cfg),
    "cstar-le-c-scan": lambda cfg: best_constant(
        TwoOpQuery(Direction.CSTAR_LE_C, Cone.ALL, P(.6), P(.6), cfg),
        use_closed_forms=False),
}


@pytest.mark.parametrize("case", list(MEMORY_CASES))
def test_scan_memory_does_not_grow_with_n_max(case):
    # a whole-array scan of 4e6 rows allocates 244-305 MB here; numpy
    # reports its buffers to tracemalloc
    cfg = TruncConfig(n_max=4 * 10 ** 6)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        r = MEMORY_CASES[case](cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.status is not Status.DIVERGENT and r.n_used == cfg.n_max
    assert peak <= 16 * 2 ** 20
