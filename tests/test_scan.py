"""The blocked supremum scan: block edges against a whole-array reference,
memory that does not grow with n_max, and the tails that stop a scan early."""

import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from cesaro_copson import norms, power, special_sums, two_operator, weights
from cesaro_copson.norms import (SPECIALIZED_BY_KIND, NormResult, Status,
                                 TruncConfig, _kind_rows, _row_sup, _scan_sup, _tail,
                                 dist_cesaro_identity, norm_c_minus_sstar,
                                 norm_cesaro, norm_copson, norm_cstarsd,
                                 norm_general)
from cesaro_copson.operators import PRINCIPAL_KINDS, ROW_SHAPES, OpKind, cone_plan
from cesaro_copson.power import PowerCaseResult
from cesaro_copson.special_sums import _BLOCK as F
from cesaro_copson.special_sums import _FIRST_BLOCK as S
from cesaro_copson.two_operator import Direction, TwoOpQuery, best_constant
from cesaro_copson.weights import Cone, ListWeight, PowerWeight, codomain_values

B = norms._SCAN_BLOCK
P = PowerWeight
EDGES = (S, F, B, 2 * B)   # the first four block ends of a long scan


def whole_array_scan(values_fn, cfg, certificate):
    """The scan before blocking: every row in one values_fn call."""
    N = cfg.n_max
    vals = values_fn(1, N)
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:   # overflow is not divergence
        raise ValueError(f"row {bad[0] + 1} overflows float64")
    m = float(np.max(vals))
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
    return NormResult(m, Status.TRUNCATED_LOWER_BOUND, N, delta)


def _scan_blocks(N):
    """The blocks (lo, hi) that a scan over rows 1..N reads, in order."""
    blocks = []

    def values_fn(first, count):
        blocks.append((first, first + count - 1))
        return np.zeros(count)

    _scan_sup(values_fn, TruncConfig(n_max=N), None)
    return blocks


def _rows(N, feature, rows):
    """Synthetic scan values over 1..N with ``feature`` at each of ``rows``,
    and the certificate that goes with them."""
    n = np.arange(1, N + 1, dtype=float)
    certificate = None
    if feature in ("dip", "small-dip"):
        vals = 1.0 - 1.0 / (n + 1.0)   # increasing to the limit 1
        certificate = PowerCaseResult(1.0, "rows rise to 1", mode="limit")
    else:
        vals = 1.0 / n
    for r in rows:
        i = r - 1
        if feature == "max":
            vals[i] = 5.0
            certificate = PowerCaseResult(5.0, "rows reach 5", mode="attained")
        elif feature == "tie":          # equal maxima, as large as any row
            vals[i:i + 2] = 2e15
        elif feature == "huge":         # however large, only a lower bound
            vals[i] = 2e15 + r
        elif feature == "nan":
            vals[i] = np.nan
        elif feature == "dip" and r < N:
            vals[i + 1] = vals[i] - 1e-3
        elif feature == "small-dip" and r < N:
            vals[i + 1] = vals[i] - 1e-12
    return vals, certificate


def _outcome(scan, values_fn, cfg, certificate):
    """repr of the scan's answer, or of the ValueError it raises."""
    try:
        return repr(scan(values_fn, cfg, certificate))
    except ValueError as exc:
        return f"ValueError: {exc}"


def _compare(vals, cfg, certificate):
    calls = []

    def values_fn(first, count):
        calls.append((first, first + count - 1, count))
        return vals[first - 1:first - 1 + count]

    got = _outcome(_scan_sup, values_fn, cfg, certificate)
    whole = _outcome(whole_array_scan, lambda first, count: vals[first - 1:first - 1 + count],
                     cfg, certificate)
    assert got == whole
    # contiguous blocks in order, covering 1..N once: rows 1..S, then up to
    # F, then up to B, then B rows each, up to the block that holds the first
    # non-finite row, where the scan raises
    N = cfg.n_max
    ends = [e for e in (S, F, *range(B, N + B, B)) if e < N] + [N]
    bad = np.flatnonzero(~np.isfinite(vals[:N]))
    if bad.size:
        row = bad[0] + 1
        ends = [e for e in ends if e < row] + [next(e for e in ends if e >= row)]
    assert calls == [(lo, hi, hi - lo + 1)
                     for lo, hi in zip([1] + [e + 1 for e in ends[:-1]], ends)]


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("feature", ["max", "tie", "huge", "nan", "dip", "small-dip"])
@pytest.mark.parametrize("N", [1, S - 1, S, S + 1, F - 1, F, F + 1, B - 1, B, B + 1,
                               2 * B + 3])
def test_block_edges_match_whole_array_scan(N, feature, offset):
    # the feature sits next to every block edge inside 1..N (at row N when
    # there is none)
    rows = [e + offset for e in EDGES if 1 <= e + offset <= N] or [N]
    vals, certificate = _rows(N, feature, rows)
    _compare(vals, TruncConfig(n_max=N), certificate)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_stall_cut_at_a_block_edge(offset):
    # choose n_max so that the 90% cut is the row next to a block edge; the
    # values rise by distinct steps across the cut, so an off-by-one in the
    # window after the cut changes the lower bound's residual
    cut = B + offset
    N = next(m for m in range(int(cut / 0.9) - 3, int(cut / 0.9) + 4)
             if int(0.9 * m) == cut)
    vals = np.ones(N)
    for r in range(cut - 1, cut + 3):
        vals[r - 1] = 1.0 + 1e-10 * (r - cut + 2)
    for tol in (1e-10, 1e-9):
        _compare(vals, TruncConfig(n_max=N, tol=tol), None)


# name: (call, stops early).  The cases that stop at a tail are still held
# to the memory bound, and each scan kernel keeps a case that reads the
# whole horizon: v = n^b with b at or a hair below where the rows stop
# decaying, so that rows rising to their limit keep the tail bound above
# them (the "-growing" cases used to sit a little past it, where the rows'
# floor now decides divergence before any scan), or the C* <= A C scan,
# which has no tail for a power u.
MEMORY_CASES = {
    "cstarsd-power": (lambda cfg: norm_cstarsd(P(.5), P(.3), Cone.ALL, cfg), True),
    "cesaro-id-nondecr": (lambda cfg: dist_cesaro_identity(
        P(.5), P(.3), Cone.NONDECR, cfg), True),
    "copson-list-u": (lambda cfg: norm_copson(
        ListWeight(tuple(float(k) for k in range(1, 300))), P(.3), Cone.ALL, cfg), True),
    "general-cstarsd-matched": (lambda cfg: norm_general(
        OpKind.CSTARSD, P(.5), P(.5), Cone.ALL, cfg), True),
    "general-cstarsd-growing": (lambda cfg: norm_general(
        OpKind.CSTARSD, P(-.5), P(.5), Cone.ALL, cfg), False),
    "general-cesaro-id-nondecr-matched": (lambda cfg: norm_general(
        OpKind.C_MINUS_I, P(-.5), P(-.5), Cone.NONDECR, cfg), True),
    "general-cesaro-id-nondecr-growing": (lambda cfg: norm_general(
        OpKind.C_MINUS_I, P(-.5), P(-.5 - 1e-12), Cone.NONDECR, cfg), False),
    "cstar-le-c-list-u": (lambda cfg: best_constant(TwoOpQuery(
        Direction.CSTAR_LE_C, Cone.ALL,
        ListWeight(tuple(float(k) for k in range(1, 300))), P(.3), cfg)), True),
    "general-cstar-minus-i": (lambda cfg: norm_general(
        OpKind.CSTAR_MINUS_I, P(.6), P(.6 - 1e-12), Cone.ALL, cfg), False),
    "cstar-le-c-scan": (lambda cfg: best_constant(
        TwoOpQuery(Direction.CSTAR_LE_C, Cone.ALL, P(.6), P(.6), cfg),
        use_closed_forms=False), False),
}


@pytest.mark.parametrize("case", list(MEMORY_CASES))
def test_scan_memory_does_not_grow_with_n_max(case):
    # a whole-array scan of 4e6 rows allocates 244-305 MB here; numpy
    # reports its buffers to tracemalloc
    cfg = TruncConfig(n_max=4 * 10 ** 6)
    call, stops = MEMORY_CASES[case]
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        r = call(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.status is not Status.DIVERGENT
    if stops:
        assert r.n_used <= B and r.status in (Status.TRUNCATED_CONVERGED,
                                              Status.CLOSED_FORM)
    else:
        assert r.n_used == cfg.n_max
    assert peak <= 16 * 2 ** 20


# ---------------------------------------------------------------------------
# Block buffers
# ---------------------------------------------------------------------------

def _record_blocks(monkeypatch):
    """Patch norms so that every scan records (rows, u, v, cfg, blocks):
    ``rows`` is the row builder handed to _row_sup and ``blocks`` a copy of
    each (rows, values) pair its values_fn returned."""
    scans = []
    row_sup, scan_sup = norms._row_sup, norms._scan_sup

    def recording_row_sup(rows, u, v, cfg, certificate, tail=None):
        scans.append((rows, u, v, cfg, []))
        return row_sup(rows, u, v, cfg, certificate, tail)

    def recording_scan_sup(values_fn, cfg, certificate, tail=None, bufs=None):
        blocks = scans[-1][4]

        def copying(first, count):
            vals = values_fn(first, count)
            blocks.append((np.arange(first, first + count), vals.copy()))
            return vals

        return scan_sup(copying, cfg, certificate, tail, bufs)

    monkeypatch.setattr(norms, "_row_sup", recording_row_sup)
    monkeypatch.setattr(norms, "_scan_sup", recording_scan_sup)
    return scans


def test_scan_rows_match_one_request(monkeypatch):
    # every block a scan reads from its buffers has the bits of one
    # whole-array request of the same rows, from a fresh row function.
    # Without tails the matched scans read their long blocks.
    scans = _record_blocks(monkeypatch)
    monkeypatch.setattr(norms, "_tail", lambda *args: None)
    cfg = TruncConfig(n_max=2 * B + 4101)
    u = P(0.6)
    for kind in PRINCIPAL_KINDS:
        for cone in Cone:
            norm_general(kind, u, u, cone, cfg)
    for direction in Direction:
        for cone in (Cone.ALL, Cone.NONNEG):
            best_constant(TwoOpQuery(direction, cone, u, u, cfg), use_closed_forms=False)
    checked = 0
    for rows, w, v, scan_cfg, blocks in scans:
        if not blocks:
            continue
        n = np.concatenate([b[0] for b in blocks])
        assert np.array_equal(n, np.arange(1, n.size + 1))
        row_fn = rows(w, scan_cfg.n_max + 1, norms._Buffers())
        whole = codomain_values(v, n.size) * row_fn(1, n.size)
        assert np.array_equal(np.concatenate([b[1] for b in blocks]), whole)
        checked += len(blocks) > 3   # the scan read the long blocks
    assert checked >= 25   # of the 28 calls, all that scan


def _count_window_tails(monkeypatch):
    """Whether each tail request was formed from the kept value window."""
    formed = []
    value_run_tails = norms._value_run_tails

    def counting(*args):
        out = value_run_tails(*args)
        formed.append(out is not None)
        return out

    monkeypatch.setattr(norms, "_value_run_tails", counting)
    return formed


# C*-I reads u_n, then the tails from column n + 1; (C*-S)D reads u_{n-1},
# then the tails from column n
WINDOW_TAILS = [(OpKind.CSTAR_MINUS_I, special_sums.hurwitz_tail_scaled),
                (OpKind.CSTARSD, special_sums.shifted_tail_scaled)]


@pytest.mark.parametrize("kind, formula", WINDOW_TAILS, ids=["cstar-minus-i", "cstarsd"])
@pytest.mark.parametrize("lo, hi", [(1, S), (F - 40, F + 40), (B - 40, B + 40), (1, 20)],
                         ids=["first-block", "across-4096", "across-65536", "below-31"])
def test_window_tails_match_the_formula_terms(kind, formula, lo, hi, monkeypatch):
    formed = _count_window_tails(monkeypatch)
    sh = ROW_SHAPES[kind]
    n = np.arange(lo, hi + 1)
    a = 0.6
    sd = norms._SeqData(P(a), "id", hi + 2)
    span = norms._span(sh, ("pos", "neg"))
    sd.load(lo + span[0], hi + span[1])   # as the engine loads a block
    first = lo + sh.neg_at
    vals = sd.vals_at(first, n.size)
    if first == 0:   # the first (C*-S)D block reads u_0 = 0
        assert vals[0] == 0.0
        vals, first = vals[1:], 1
    np.testing.assert_array_equal(vals, weights.weight_values(P(a), vals.size, first))
    got = sd.tail(sh.scale, lo + sh.at, n.size)
    want = formula(a + 1.0, n + sh.at)
    # a run that ends below row 31 is extended past the window: the formula
    # forms its terms, and the window is not offered
    covered = hi + sh.at >= special_sums._RUN_ANCHOR - 1
    assert formed == [True] * covered
    if covered:   # at most one rounding more per term, within the cells' bound
        np.testing.assert_allclose(got, want, rtol=2 * F * 2.0 ** -53, atol=0)
    else:
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("kind", [k for k, _ in WINDOW_TAILS], ids=["cstar-minus-i", "cstarsd"])
def test_window_tails_keep_a_blocked_scans_bits(kind, monkeypatch):
    formed = _count_window_tails(monkeypatch)
    n_max = 2 * B + 4101
    u = P(0.6)
    rows = _kind_rows(kind, u, Cone.ALL, n_max + 1)
    blocked = np.concatenate([rows(lo, hi - lo + 1).copy()
                              for lo, hi in _scan_blocks(n_max)])
    whole = _kind_rows(kind, u, Cone.ALL, n_max + 1)(1, n_max)
    np.testing.assert_array_equal(blocked, whole)
    assert len(formed) == len(_scan_blocks(n_max)) + 1 and all(formed)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor page faults are read from getrusage on Linux")
def test_scan_does_not_refault_its_buffers():
    # a 10^6-row scan reuses its block buffers: after a first run has
    # warmed the process, a second run faults in its few buffers and not
    # the ~20 fresh temporaries per block it would otherwise allocate
    code = textwrap.dedent("""
        import resource
        from cesaro_copson import Cone, OpKind, PowerWeight, norm_general
        from cesaro_copson.two_operator import Direction, TwoOpQuery, best_constant
        # rows that rise to their limit: no tail bound comes within the
        # tolerance of them by row 10^6, so no tail stops these
        u, v = PowerWeight(0.6), PowerWeight(0.6 - 1e-12)
        calls = [
            lambda: norm_general(OpKind.CSTARSD, PowerWeight(-0.5), PowerWeight(0.5),
                                 Cone.ALL),
            lambda: norm_general(OpKind.CSTAR_MINUS_I, u, v, Cone.ALL),
            lambda: best_constant(TwoOpQuery(Direction.CSTAR_LE_C, Cone.ALL, u, u),
                                  use_closed_forms=False),
        ]
        for call in calls:
            call()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            r = call()
            print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, r.n_used)
    """)
    src = os.path.dirname(os.path.dirname(norms.__file__))   # this package's tree
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    lines = out.stdout.splitlines()
    assert len(lines) == 3
    for line in lines:
        faults, n_used = map(int, line.split())
        assert n_used == 10 ** 6
        assert faults < 3000, out.stdout


def test_non_finite_row_ends_the_scan(monkeypatch):
    calls = []
    scan_sup = norms._scan_sup

    def counting(values_fn, cfg, certificate, tail=None, bufs=None):
        def fn(first, count):
            calls.append(count)
            return values_fn(first, count)

        return scan_sup(fn, cfg, certificate, tail, bufs)

    monkeypatch.setattr(norms, "_scan_sup", counting)
    # these rows overflow from n = 6, but their floor n**399.5 / 0.5 already
    # decides that they grow: Divergent before any row is read
    r = norm_copson(P(0.5), P(400), Cone.ALL)
    assert repr(r) == repr(NormResult(math.inf, Status.DIVERGENT, 0, 0.0))
    assert calls == []
    # the norm is 1.0 (row 1), but the prefix sums of k**150 overflow from
    # row 114: the first block raises, naming the row, and no later block is
    # read.  Overflow is not divergence
    with pytest.raises(ValueError, match="^row 114 overflows float64$"):
        norm_cesaro(P(-150), P(-150.1), Cone.ALL)
    assert calls == [S]


def test_scan_errstate_on_numpy_1():
    # numpy 1 keeps an errstate decorator's saved state on its one instance,
    # which threads would share: there each scan enters an errstate of its
    # own, with the same quiet overflow, and leaves the caller's state as is
    code = textwrap.dedent("""
        import threading, warnings
        import numpy as np
        real, np.__version__ = np.__version__, "1.26.4"
        from cesaro_copson import norms
        np.__version__ = real
        from cesaro_copson import Cone, OpKind, PowerWeight as P, norm_general
        warnings.simplefilter("error")
        assert not isinstance(norms._scan_sup, np.errstate)
        try:
            norm_general(OpKind.C, P(-150), P(-150.1), Cone.ALL)
        except ValueError as e:
            print(e)
        answers = []
        def scan():
            for _ in range(50):
                answers.append(norm_general(OpKind.CSTARSD, P(0.5), P(0.3), Cone.NONNEG))
        threads = [threading.Thread(target=scan) for _ in range(2)]
        [t.start() for t in threads]
        [t.join() for t in threads]
        print(len(set(map(repr, answers))), len(answers), np.geterr()["over"])
    """)
    src = os.path.dirname(os.path.dirname(norms.__file__))   # this package's tree
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.splitlines() == ["row 114 overflows float64", "1 100 warn"], out.stderr


# ---------------------------------------------------------------------------
# Tails that stop a scan
# ---------------------------------------------------------------------------

# A zero envelope: u = k**-a, a > 0, on NONDECR (and k u_k past a = 1, which
# C* <= A C on NONNEG reads) has the envelope 0, so every row is 0 and the
# norm is 0, however v grows: ClosedForm 0 before any row is read
ZERO_ENVELOPE_NORMS = [OpKind.C, OpKind.C_MINUS_I, OpKind.C_MINUS_SSTAR, OpKind.CSTARSD]
ZERO_ENVELOPE_PAIRS = [(150.0, 150.5), (0.5, 0.3)]
ZERO = NormResult(0.0, Status.CLOSED_FORM, 0, 0.0)   # a zero envelope's answer


def _no_rows(monkeypatch):
    def refuse(*args):
        raise AssertionError("a row was read")

    monkeypatch.setattr(norms, "_generic_row_values", refuse)
    monkeypatch.setattr(two_operator, "_rows_cstar_le_c", refuse)


@pytest.mark.parametrize("kind", ZERO_ENVELOPE_NORMS, ids=lambda k: k.name)
@pytest.mark.parametrize("a, b", ZERO_ENVELOPE_PAIRS, ids=["huge-v", "small-v"])
def test_zero_envelope_norm_reads_no_row(kind, a, b, monkeypatch):
    # at P(150) / P(150.5) the rows are 0 against v_n past float64 from row
    # 112: they used to overflow to NaN and raise
    _no_rows(monkeypatch)
    for fn in (lambda u, v, cone: norm_general(kind, u, v, cone), SPECIALIZED_BY_KIND[kind]):
        assert repr(fn(P(a), P(b), Cone.NONDECR)) == repr(ZERO), kind


@pytest.mark.parametrize("a, b", [(55.0, 55.0), (1.2, 1.3)], ids=["matched-55", "mismatched"])
def test_zero_envelope_best_constant_reads_no_row(a, b, monkeypatch):
    # C* <= A C on NONNEG reads the envelope of k u_k = k**(1 - a), 0 past
    # a = 1: at P(55) the rows used to raise at row 402,376, and at P(1.2) /
    # P(1.3) to read 10^6 rows of zeros for a TruncatedLowerBound
    _no_rows(monkeypatch)
    r = best_constant(TwoOpQuery(Direction.CSTAR_LE_C, Cone.NONNEG, P(a), P(b), TruncConfig()),
                      use_closed_forms=False)
    assert repr(r) == repr(ZERO)


GRID = [(.85, .75), (.15, .05), (.5, .1), (-.15, -.25), (-.85, -.95), (.85, .45)]
CLOSE = [(a, a - 1e-3) for a, _ in GRID]   # rows that barely decay
SPAN = 2 ** 17


def _plans():
    for kind in PRINCIPAL_KINDS:
        for cone in Cone:
            plan = cone_plan(kind, cone)
            if plan.ok and not plan.trivially_zero:
                yield kind, cone, plan


@pytest.mark.parametrize("a, b", GRID + CLOSE)
def test_tail_bound_is_sound(a, b):
    # the bound at N is at least every true row in N+1..N+2^17
    Ns = (1, 64, F, B)
    n = np.arange(1, B + SPAN + 1, dtype=np.int64)
    bounded = 0
    for kind, cone, plan in _plans():
        tail = _tail(kind, cone, plan.flip, P(a), P(b))
        if tail is None:
            continue
        rows = _kind_rows(kind, P(a), cone, n.size + 1, plan.flip)
        vals = n.astype(float) ** b * rows(1, n.size)
        if tail is norms._ZERO:   # a zero envelope: every true row is 0
            assert np.max(vals) == 0.0, (kind, cone)
            continue
        if tail is norms._DIVERGES:   # a divergent inner tail: some true row is inf
            assert np.max(vals) == np.inf, (kind, cone)
            continue
        assert not tail.exact
        for N in Ns:
            assert tail.at(N) >= np.max(vals[N:N + SPAN]), (kind, cone, N)
        bounded += 1
    # every kind has a bound on the whole space when b < a
    assert bounded >= len(PRINCIPAL_KINDS)


@pytest.mark.parametrize("a, b", GRID)
def test_early_stop_matches_full_scan(a, b):
    cfg = TruncConfig(n_max=2 ** 18)
    u, v = P(a), P(b)
    for kind, cone, plan in _plans():
        tail = _tail(kind, cone, plan.flip, u, v)
        if tail is None:
            continue
        if tail is norms._DIVERGES:   # a divergent inner tail: some row is inf, none is read
            assert np.max(_kind_rows(kind, u, cone, S + 1, plan.flip)(1, S)) == np.inf
            assert repr(norm_general(kind, u, v, cone, cfg)) == repr(
                NormResult(math.inf, Status.DIVERGENT, 0, 0.0))
            continue
        full = _row_sup(lambda w, K, bufs: _kind_rows(kind, w, cone, K, plan.flip, bufs),
                        u, v, cfg, None, tail=None)
        if tail is norms._ZERO:   # NONDECR, a > 0: every row is 0, none is read
            assert full.value == 0.0, (kind, cone)
            assert repr(norm_general(kind, u, v, cone, cfg)) == repr(ZERO)
            continue
        for r in (norm_general(kind, u, v, cone, cfg),
                  SPECIALIZED_BY_KIND[kind](u, v, cone, cfg)):
            assert r.status is Status.TRUNCATED_CONVERGED, (kind, cone)
            assert r.n_used <= B
            assert r.value == pytest.approx(full.value, rel=1e-12, abs=0)


def _full_list_scan(kind, cone, u, v):
    plan = cone_plan(kind, cone, u.length)
    return _row_sup(lambda w, K, bufs: _kind_rows(kind, w, cone, K, plan.flip, bufs), u, v,
                    TruncConfig(n_max=2 ** 18), None, tail=None)


@pytest.mark.parametrize("kind", PRINCIPAL_KINDS, ids=lambda k: k.name)
@pytest.mark.parametrize("cone", list(Cone), ids=lambda c: c.name)
def test_list_u_power_v_tail_is_exact(kind, cone, rng):
    # b < 1: past the column horizon the rows decay, so the exact tail
    # closes the first block and the answer is the supremum a long scan
    # finds, to the bit
    u = ListWeight(tuple(rng.uniform(0.5, 1.0, 7)))
    v = P(0.6)
    r = SPECIALIZED_BY_KIND[kind](u, v, cone)
    if r.status is Status.UNSUPPORTED:
        return
    assert r.status is Status.CLOSED_FORM and r.n_used <= F
    assert r.value == _full_list_scan(kind, cone, u, v).value


@pytest.mark.parametrize("L", [S, F])
def test_list_u_power_v_tail_waits_past_the_flipped_run(L):
    # row L + 1 of (C* - S)D reads column L (its -1/n at column n - 1), and
    # NONINCR flips every row from 2 on: with L at a block end, the exact
    # tail may close the scan only past row L + 1, whose value is the norm
    r = norm_cstarsd(ListWeight((1.0,) * L), P(2.0), Cone.NONINCR)
    assert r.status is Status.CLOSED_FORM
    assert r.value == L + 1.0


def test_list_u_power_v_limit_and_divergence():
    u = ListWeight((1.0, 2.0, 3.0))
    # b = 1: every row past the horizon is 6/n * n, so the supremum is 6
    # (the scanned rows round n * (6/n) up by an ulp at some n)
    r = norm_cesaro(u, P(1.0), Cone.ALL)
    assert r.status is Status.CLOSED_FORM
    assert r.value == pytest.approx(6.0, rel=1e-15, abs=0)
    # b = 1 + 1e-10: those rows grow like 6 n^(1e-10), without bound
    r = norm_cesaro(u, P(1 + 1e-10), Cone.ALL)
    assert r.status is Status.DIVERGENT and r.value == math.inf


@pytest.mark.parametrize("cone", list(Cone), ids=lambda c: c.name)
def test_list_u_power_v_builds_its_tables_once(cone, monkeypatch, rng):
    # the exact tail's constant is the prefix table's last entry, to the
    # bit, and the rows read the tables the tail built: one _SeqData
    u, v = ListWeight(tuple(rng.uniform(0.5, 1.0, 9))), P(-0.5)
    tail = _tail(OpKind.C, cone, cone_plan(OpKind.C, cone, 9).flip, u, v)
    sd = tail.data
    assert tail.at(10) == float(sd.prefix(9, 1)[0]) * 11.0 ** -1.5
    assert sd.total == np.cumsum(norms._envelope(u, norms._ENV[cone], 9))[-1]
    builds = []

    class Counted(norms._SeqData):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(norms, "_SeqData", Counted)
    for kind in PRINCIPAL_KINDS:
        builds.clear()
        if SPECIALIZED_BY_KIND[kind](u, v, cone).status is not Status.UNSUPPORTED:
            assert len(builds) == 1, kind


@pytest.mark.parametrize("fn", [
    lambda u, v, cone, cfg: norm_general(OpKind.C_MINUS_I, u, v, cone, cfg),
    dist_cesaro_identity,
    lambda u, v, cone, cfg: norm_general(OpKind.C_MINUS_SSTAR, u, v, cone, cfg),
    norm_c_minus_sstar,
], ids=["general-c-minus-i", "c-minus-i", "general-c-minus-sstar", "c-minus-sstar"])
@pytest.mark.parametrize("cone", [Cone.ALL, Cone.NONNEG], ids=lambda c: c.name)
def test_one_power_evaluation_per_block(fn, cone, monkeypatch):
    # these rows read u at columns n-1..n+1 and in the prefix sums: one
    # evaluation of k^-a per block serves both reads
    calls = []
    power_vals = weights._power_vals

    def counting(alpha, k, out):
        if alpha == 1.5:
            calls.append(np.size(k))
        return power_vals(alpha, k, out)

    monkeypatch.setattr(weights, "_power_vals", counting)
    monkeypatch.setattr(norms, "_power_vals", counting)   # the block's window
    # no prefix bound is derived for alpha >= 1: no tail, four blocks
    r = fn(P(1.5), P(0.7), cone, TruncConfig(n_max=B + 100))
    assert r.n_used == B + 100
    assert len(calls) == 4


def _count_fills(monkeypatch):
    """The size of each range that a scan fills past the ramp, wherever it
    asks for one (the block's columns, or a tail's own run)."""
    fills = []
    fill_range = weights._fill_range

    def counting(out, first):
        fills.append(out.size)
        return fill_range(out, first)

    monkeypatch.setattr(weights, "_fill_range", counting)
    monkeypatch.setattr(norms, "_fill_range", counting)
    return fills


def test_closing_scan_fills_no_range(monkeypatch):
    # a scan that its first block closes reads its rows, its columns and
    # v_n from slices of the ramp: no range is filled
    fills = _count_fills(monkeypatch)
    closed = 0
    for kind, cone, plan in _plans():
        for fn in (lambda u, v, cone, cfg: norm_general(kind, u, v, cone, cfg),
                   SPECIALIZED_BY_KIND[kind]):
            r = fn(P(0.5), P(0.3), cone, TruncConfig())
            if r.n_used == S:
                closed += 1
    assert fills == [] and closed >= 30


PAST_RAMP = [(lo, hi) for lo, hi in _scan_blocks(3 * B) if hi + 1 > weights._RAMP.size]
# the plans whose blocks read a tail alone: no window, so the formula
# fills the tails' run itself
TAIL_ALONE = {(OpKind.CSTAR, cone) for cone in Cone} | {(OpKind.CSTARSD, Cone.NONDECR)}


def test_long_scan_fills_one_range_per_block(monkeypatch):
    # past the ramp each block of a long scan fills one range, its columns,
    # from which the rows, the window, the tails' run and v_n are all read
    # (it filled three before: the integer rows, v's rows and the columns)
    fills = _count_fills(monkeypatch)
    r = best_constant(TwoOpQuery(Direction.CSTAR_LE_C, Cone.ALL, P(0.6), P(0.6),
                                 TruncConfig(n_max=3 * B)), use_closed_forms=False)
    assert r.n_used == 3 * B
    # (C* - S)D reads the columns lo - 1..hi of rows lo..hi
    assert fills == [hi - lo + 2 for lo, hi in PAST_RAMP] and len(fills) == 3


@pytest.mark.parametrize("kind, cone", [(k, c) for k, c, _ in _plans()],
                         ids=lambda x: x.name)
def test_every_plan_fills_one_range_per_block(kind, cone, monkeypatch):
    # without its tail each plan reads every block; the rows of a block
    # read its loaded columns, and so does v_n, on every cone and flip (on
    # NONDECR against an increasing u, whose envelope is u itself)
    fills = _count_fills(monkeypatch)
    monkeypatch.setattr(norms, "_tail", lambda *args: None)
    a = -0.4 if cone is Cone.NONDECR else 0.6
    r = norm_general(kind, P(a), P(a - 1e-3), cone, TruncConfig(n_max=3 * B))
    assert r.n_used == 3 * B
    assert len(fills) == len(PAST_RAMP) * (2 if (kind, cone) in TAIL_ALONE else 1)


@pytest.mark.parametrize("kind, cone", [(OpKind.CSTAR, Cone.ALL), (OpKind.CSTARSD, Cone.NONDECR)],
                         ids=["cstar-all", "cstarsd-nondecr"])
def test_tail_read_alone_loads_no_window(kind, cone, monkeypatch):
    # a block whose one part is a tail evaluates no power of u: its tails
    # come from the formula, over the block's columns.  Without its tail
    # the scan reads every block
    monkeypatch.setattr(norms, "_tail", lambda *args: None)
    calls = []
    power_vals = weights._power_vals

    def counting(alpha, k, out):
        calls.append(np.size(k))
        return power_vals(alpha, k, out)

    monkeypatch.setattr(weights, "_power_vals", counting)
    monkeypatch.setattr(norms, "_power_vals", counting)
    u = P(-0.4) if cone is Cone.NONDECR else P(0.6)
    r = norm_general(kind, u, P(0.6 - 1e-3), cone, TruncConfig(n_max=B + 100))
    assert r.n_used == B + 100
    assert calls == []


def test_closing_scan_is_one_block_read():
    # every plan's closing scan reads rows 1..256 once: its answer is the
    # max of a one-block _row_sup read and of one fresh engine call over
    # those rows, with the tail's residual, to the bit
    checked = 0
    for kind, cone, plan in _plans():
        for a, b in ((0.5, 0.3), (-0.5, -0.7)):
            u, v = P(a), P(b)
            rows = lambda w, K, bufs: _kind_rows(kind, w, cone, K, plan.flip, bufs)   # noqa: E731
            tail = _tail(kind, cone, plan.flip, u, v)
            r = _row_sup(rows, u, v, TruncConfig(), None, tail)
            if r.status is not Status.TRUNCATED_CONVERGED:
                continue
            assert r.n_used == S, (kind, cone, a)
            one = _row_sup(rows, u, v, TruncConfig(n_max=S), None)
            fresh = codomain_values(v, S) * _kind_rows(kind, u, cone, S + 1, plan.flip)(1, S)
            assert float(fresh.max()) == one.value
            t = tail.at(S)
            want = NormResult(one.value, Status.TRUNCATED_CONVERGED, S, max(0.0, t - one.value))
            assert repr(r) == repr(want), (kind, cone, a)
            checked += 1
    assert checked >= 30


@pytest.mark.parametrize("kind", [OpKind.CSTAR, OpKind.CSTAR_MINUS_I, OpKind.CSTARSD],
                         ids=lambda k: k.name)
def test_steep_tail_rows_sum_few_terms(kind, monkeypatch):
    # the tail exponent 101 keeps rows 257..4096 off the run path (their
    # terms k**-101 underflow), and the series starts at row 698: each row
    # below it sums a few dozen terms exactly, not every term up to row 698
    counts = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def fsum(self, terms):
            counts.append(len(terms))
            return math.fsum(terms)

    monkeypatch.setattr(special_sums, "math", CountingMath())
    r = _row_sup(lambda w, K, bufs: _kind_rows(kind, w, Cone.ALL, K, bufs=bufs),
                 P(100.0), P(0.0), TruncConfig(n_max=F), None, tail=None)
    assert r.n_used == F and np.isfinite(r.value)
    assert special_sums._em_cut(101.0, 1) == 698
    assert len(counts) >= 698 - S - 1   # every scattered row below the cut
    assert max(counts) <= 32
    assert sum(counts) <= 20 * len(counts)


@pytest.mark.parametrize("direction", list(Direction), ids=lambda d: d.name)
@pytest.mark.parametrize("cone", [Cone.ALL, Cone.NONNEG], ids=lambda c: c.name)
def test_best_constant_list_u_power_v_tail_is_exact(direction, cone):
    # past row L the C* <= A C rows are 0 and the C <= A C* rows are the
    # decaying C - S* rows c n^(b-1): the exact tail closes the first block
    u = ListWeight(tuple(float(k) for k in range(1, 300)))
    v = P(0.3)
    r = best_constant(TwoOpQuery(direction, cone, u, v))
    assert r.status is Status.CLOSED_FORM and r.n_used == F
    full = two_operator.two_op_row_terms(TwoOpQuery(direction, cone, u, v), 2 ** 18).max()
    assert r.value == pytest.approx(float(full), rel=1e-15, abs=0)


# ---------------------------------------------------------------------------
# Matched power pairs: a proven tail that meets the certificate
# ---------------------------------------------------------------------------

MATCHED_ALPHAS = (-1.4, -0.7, -0.3, 0.0, 0.3, 0.6, 0.9, 1.0, 1.7, 2.5)


def _zero_envelope(label, a):
    """Whether the norm of a certified call is over the zero envelope of
    u = k**-a, a > 0, on NONDECR (the C <= A C* constants read no such)."""
    return label[1] is Cone.NONDECR and a > 0


def _certified_calls(a, cfg):
    """(label, call) for every matched (kind, cone) and C <= A C* cone whose
    certificate is a limit or an attained value at alpha a."""
    u = P(a)
    for kind, cone, _ in _plans():
        certificate = power.scan_certificate(kind, cone, a)
        if certificate is not None and math.isfinite(certificate.value):
            yield (kind, cone), lambda kind=kind, cone=cone: norm_general(
                kind, u, u, cone, cfg)
    for cone in (Cone.ALL, Cone.NONNEG):
        if math.isfinite(power.two_op_cc_power(a, cone).value):
            yield (Direction.C_LE_CSTAR, cone), lambda cone=cone: best_constant(
                TwoOpQuery(Direction.C_LE_CSTAR, cone, u, u, cfg), use_closed_forms=False)


def _branch_rows(a, N):
    """(label, branch, v_n F(n) over rows 1..N) for every matched (kind,
    cone) with a finite certificate at alpha a and every two-operator
    direction and cone, its rows read from the engine."""
    u = P(a)
    for kind, cone, plan in _plans():
        branch = power.scan_certificate(kind, cone, a)
        if branch is not None and math.isfinite(branch.value):
            rows = codomain_values(u, N) * _kind_rows(kind, u, cone, N + 1, plan.flip)(1, N)
            yield (kind, cone), branch, rows
    for direction, theorem in ((Direction.C_LE_CSTAR, power.two_op_cc_power),
                               (Direction.CSTAR_LE_C, power.two_op_cstarc_power)):
        for cone in (Cone.ALL, Cone.NONNEG):
            branch = theorem(a, cone)
            if math.isfinite(branch.value):
                rows = two_operator.two_op_row_terms(TwoOpQuery(direction, cone, u, u), N)
                yield (direction, cone), branch, rows


@pytest.mark.parametrize("a", MATCHED_ALPHAS)
def test_branch_modes_match_the_rows(a):
    # each finite branch's mode, read straight from the rows: a limit is
    # approached by monotone steps from below, an attained value is the
    # maximum of the first 2^16 rows
    checked = 0
    for label, branch, rows in _branch_rows(a, 2 ** 16):
        scale = 1.0 + abs(branch.value)
        top = float(rows.max())
        if branch.mode == "limit":
            assert float(np.diff(rows).min()) >= -1e-9 * scale, label
            assert top <= branch.value * (1.0 + 1e-9), label
        else:
            assert branch.mode == "attained", label
            assert abs(top - branch.value) <= 1e-9 * scale, label
        checked += 1
    assert checked


@pytest.mark.parametrize("a", MATCHED_ALPHAS)
def test_matched_early_stop_matches_full_scan(a, monkeypatch):
    # the first (short) block's tail meets the certificate, and the answer
    # is the one the full scan gives, to the bit
    cfg = TruncConfig(n_max=2 ** 18)
    calls = list(_certified_calls(a, cfg))
    early = [call() for _, call in calls]
    monkeypatch.setattr(norms, "_tail", lambda *args: None)
    for (label, call), r in zip(calls, early):
        full = call()
        assert full.n_used == cfg.n_max, label
        if _zero_envelope(label, a):   # every row is 0, none is read
            assert repr(r) == repr(ZERO) and full.value == 0.0, label
            continue
        assert (repr(r.value), r.status) == (repr(full.value), full.status), label
        assert r.n_used == S, label
    assert calls


def test_closing_scans_stop_after_the_first_block():
    # a tail that closes at all mostly closes on the short first block
    r = norm_cesaro(P(.5), P(.3), Cone.ALL)
    assert r.status is Status.TRUNCATED_CONVERGED and r.n_used == S
    for a in MATCHED_ALPHAS:
        for label, call in _certified_calls(a, TruncConfig()):
            r = call()
            if _zero_envelope(label, a):
                assert repr(r) == repr(ZERO), (a, label)
            else:
                assert r.status is Status.TRUNCATED_CONVERGED and r.n_used == S, (a, label)


def test_slow_matched_scan_stops_where_recorded():
    # matched C - I on NONINCR just below a = 0: the tail bound meets the
    # attained certificate only at the end of the first long block
    r = norm_general(OpKind.C_MINUS_I, P(-1e-4), P(-1e-4), Cone.NONINCR)
    assert r.status is Status.TRUNCATED_CONVERGED and r.n_used == B
    assert r.value == pytest.approx(
        dist_cesaro_identity(P(-1e-4), P(-1e-4), Cone.NONINCR).value, rel=1e-15)


@pytest.mark.parametrize("a", (-1.4, -0.5, -0.1, 0.0, 0.3, 0.9, 1.0, 2.5))
@pytest.mark.parametrize("db", (0.0, -0.1), ids=("matched", "b-below-a"))
def test_tightened_envelopes_are_sound(a, db):
    # C - I reads the prefix up to n - 1 and C* - I the tail from n + 1:
    # the bound at N is at least every row in N+1..8N
    n = np.arange(1, 8 * B + 1, dtype=np.int64)
    bounded = 0
    for kind, cone, plan in _plans():
        if kind not in (OpKind.C_MINUS_I, OpKind.CSTAR_MINUS_I):
            continue
        tail = _tail(kind, cone, plan.flip, P(a), P(a + db))
        if tail is None:
            continue
        vals = (n.astype(float) ** (a + db)
                * _kind_rows(kind, P(a), cone, n.size + 1, plan.flip)(1, n.size))
        for N in (F, B):
            assert tail.at(N) >= np.max(vals[N:8 * N]), (kind, cone, N)
        bounded += 1
    assert bounded >= 2


@pytest.mark.parametrize("label", ["cesaro-all", "copson-all", "cesaro-id-all-negative",
                                   "copson-id-nonneg", "c-le-cstar-all",
                                   "c-le-cstar-all-negative", "cstar-le-c-all-attained"])
def test_wrong_certificate_never_stops_early(label, monkeypatch):
    # a certificate whose value is 1% off disagrees with the tail, so the
    # scan reads the whole horizon.  An attained value then ends as it would
    # without any tail.  A limit is refused at the end, since the rows and
    # the last tail bound stay below it: the running max is a lower bound
    kind, cone, a = {
        "cesaro-all": (OpKind.C, Cone.ALL, 0.5),
        "copson-all": (OpKind.CSTAR, Cone.ALL, 0.5),
        "cesaro-id-all-negative": (OpKind.C_MINUS_I, Cone.ALL, -0.5),
        "copson-id-nonneg": (OpKind.CSTAR_MINUS_I, Cone.NONNEG, 0.6),
        "c-le-cstar-all": (Direction.C_LE_CSTAR, Cone.ALL, 0.5),
        "c-le-cstar-all-negative": (Direction.C_LE_CSTAR, Cone.ALL, -0.5),
        "cstar-le-c-all-attained": (Direction.CSTAR_LE_C, Cone.ALL, 1.2),
    }[label]
    cfg = TruncConfig(n_max=2 * B + 4101)
    # a norm reads its certificate from scan_certificate, and a best
    # constant from its direction's two-operator theorem
    theorem = {Direction.C_LE_CSTAR: power.two_op_cc_power,
               Direction.CSTAR_LE_C: power.two_op_cstarc_power}
    if isinstance(kind, Direction):
        true = theorem[kind](a, cone)
    else:
        true = power.scan_certificate(kind, cone, a)

    def perturbed(certify):
        def fn(*args):
            c = certify(*args)
            return dataclasses.replace(c, value=c.value * 1.01)
        return fn

    monkeypatch.setattr(power, "scan_certificate", perturbed(power.scan_certificate))
    for fn in theorem.values():
        monkeypatch.setattr(power, fn.__name__, perturbed(fn))
    if isinstance(kind, Direction):
        def call():
            return best_constant(TwoOpQuery(kind, cone, P(a), P(a), cfg),
                                 use_closed_forms=False)
    else:
        def call():
            return norm_general(kind, P(a), P(a), cone, cfg)
    r = call()
    assert r.n_used == cfg.n_max
    if true.mode == "limit":
        assert r.status is Status.TRUNCATED_LOWER_BOUND
        assert r.value <= true.value * (1 + 1e-9)
        return
    monkeypatch.setattr(norms, "_tail", lambda *args: None)
    assert repr(r) == repr(call())


@pytest.mark.parametrize("kind", [OpKind.C, OpKind.C_MINUS_I, OpKind.C_MINUS_SSTAR],
                         ids=lambda k: k.name)
@pytest.mark.parametrize("cone", [Cone.ALL, Cone.NONNEG], ids=lambda c: c.name)
def test_growing_prefix_rows_are_divergent(kind, cone):
    # u = k^1, v = n^(-1 + 1e-10): the rows are at least (n+1)/(2n) n^(1e-10)
    # up to o(1), unbounded, though their running max stalls within the
    # tolerance over a scan: analysis decides them before any scan
    u, v = P(-1), P(-1 + 1e-10)
    for r in (norm_general(kind, u, v, cone), SPECIALIZED_BY_KIND[kind](u, v, cone)):
        assert r.status is Status.DIVERGENT and r.value == math.inf
    assert norm_cesaro(u, v, Cone.NONNEG).status is Status.DIVERGENT
