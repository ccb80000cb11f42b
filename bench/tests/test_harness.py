"""Tests of the benchmark harness itself (not of the library).

Run from the repository root:  python -m pytest bench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


# -- self time ---------------------------------------------------------------

def test_self_time_nested():
    spans = [Span("query", 0.0, 10.0, -1, 0),
             Span("a", 1.0, 4.0, 0, 0),
             Span("a.child", 2.0, 3.0, 1, 0),
             Span("b", 5.0, 9.0, 0, 0)]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 4.0])
    assert tracing.query_residuals(spans, selfs) == pytest.approx([0.0])


def test_self_time_overlapping_children_are_counted_once():
    # b overlaps a; c sticks out past its parent and only its inside counts
    spans = [Span("query", 0.0, 10.0, -1, 0),
             Span("a", 1.0, 4.0, 0, 0),
             Span("b", 3.0, 6.0, 0, 0),
             Span("c", 8.0, 12.0, 0, 0)]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_covered_union():
    assert tracing.covered(0, 10, []) == 0.0
    assert tracing.covered(0, 10, [(2, 3), (1, 5), (7, 8)]) == pytest.approx(5.0)
    assert tracing.covered(0, 10, [(-5, 2), (9, 20)]) == pytest.approx(3.0)
    assert tracing.covered(0, 10, [(11, 12)]) == 0.0


def test_layer_metrics_sum_self_time_per_layer():
    spans = [Span("query", 0.0, 4.0, -1, 0), Span("norms._scan_sup", 1.0, 3.0, 0, 0),
             Span("query", 5.0, 6.0, -1, 1)]
    m = tracing.layer_metrics(spans, tracing.self_times(spans), {"norms._scan_sup.calls": 1})
    assert m["norms._scan_sup.self_s"] == pytest.approx(2.0)
    assert m["query.self_s"] == pytest.approx(3.0)
    assert m["norms._dense_norm.self_s"] == 0.0
    assert "operators.entry.self_s" not in m   # counted, never timed


# -- percentiles and error rate ---------------------------------------------

@pytest.mark.parametrize("n, expected", [(9, None), (99, None), (100, 90), (999, 90),
                                         (1000, 99), (9999, 99), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == expected


class _Fake:
    def __init__(self, label, result=None, exc=None):
        self.label, self.result, self.exc = label, result, exc

    def call(self):
        if self.exc is not None:
            raise self.exc
        return self.result


def test_error_rate_counts_raised_and_wrong_answers():
    def judge(q, ref, out):
        return out == ref

    outcomes = [run.execute(_Fake("ok", 1.0), 1.0, judge),
                run.execute(_Fake("wrong", 2.0), 1.0, judge),
                run.execute(_Fake("raised", exc=ValueError("boom")), 1.0, judge),
                run.execute(_Fake("no-reference", 1.0), run.RefFailure("x"), judge)]
    assert [o.error is None for o in outcomes] == [True, False, False, False]
    assert outcomes[1].error == "wrong answer"
    assert "ValueError: boom" in outcomes[2].error
    assert run.error_rate(outcomes) == 0.75


# -- inputs ------------------------------------------------------------------

@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    a = workloads.digest(workloads.make_pool(name, 5, blocks=2))
    assert a == workloads.digest(workloads.make_pool(name, 5, blocks=2))
    assert a != workloads.digest(workloads.make_pool(name, 6, blocks=2))


def test_blocks_keep_their_mix_across_seeds():
    for name in workloads.WORKLOADS:
        labels = [[q.label for q in b] for b in workloads.make_pool(name, 1, blocks=2)]
        other = [[q.label for q in b] for b in workloads.make_pool(name, 2, blocks=2)]
        assert labels == other
        assert len(set(labels[0])) == len(labels[0])


def test_log_spaced_lengths_span_the_range_once_each():
    for m in (3, 4, 6, 21):
        L = workloads.log_spaced_lengths(m)
        assert sorted(L) == sorted(set(L))
        assert min(L) == workloads.L_MIN and max(L) == workloads.L_MAX
        ratios = np.diff(np.log(sorted(L)))
        assert np.allclose(ratios, ratios[0], atol=0.05)
    with pytest.raises(ValueError):
        workloads.log_spaced_lengths(10)


# -- tracing -----------------------------------------------------------------

def _traced_counts(queries):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, q in enumerate(queries):
            tracer.run_query(i, q.call)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    residuals = tracing.query_residuals(spans, tracing.self_times(spans))
    return dict(tracer.counts), max(residuals), tracer.missing


def _trace_sample(name):
    block = workloads.make_pool(name, 3, blocks=1)[0]
    if name == "power-scan":
        # one scan per route at the CLI default horizon, without the slowest kernels
        keep = ("norm_cesaro/all/mismatched", "norm_copson/nonneg/mismatched",
                "norm_general/cesaro-minus-identity/all/matched",
                "best_constant/c-le-cstar/all/matched", "norm_copson/all/list-u-power-v")
        block = [q for q in block if q.label in keep]
    return block


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    first, residual, missing = _traced_counts(_trace_sample(name))
    second, _, _ = _traced_counts(_trace_sample(name))
    assert first == second
    assert missing == []
    assert residual <= 1e-9
    assert any(k.endswith(".rows") or k == "operators.entry.calls" for k in first) \
        or name == "oracle-verify"


def test_install_wraps_every_binding_and_uninstall_restores():
    import cesaro_copson
    from cesaro_copson import norms, special_sums, two_operator

    orig = special_sums.shifted_tail_scaled
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod in (special_sums, norms, two_operator):
            assert mod.shifted_tail_scaled is not orig
        assert cesaro_copson.best_constant is two_operator.best_constant
    finally:
        tracer.uninstall()
    for mod in (special_sums, norms, two_operator):
        assert mod.shifted_tail_scaled is orig


# -- the contract file -------------------------------------------------------

def test_benchmark_json_matches_the_harness():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    empty = tracing.layer_metrics([], [], {})
    traced_only = {"cli.import_s", "cli.numpy_import_s", "trace.throughput_qps",
                   "trace.untraced_throughput_qps", "trace.slowdown"}
    assert set(run.PER_LAYER) - traced_only <= set(empty)
