#!/usr/bin/env python3
"""Benchmark harness for the cesaro_copson library.

Run from the repository root:

    python3 bench/run.py --workload power-scan --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

One invocation runs one workload in this fresh, single-threaded process: a
closed loop with one caller, each query one public library call, checked
against a reference computed before the loop (see ``workloads.py``).  The
loop runs whole blocks of queries until at least ``--seconds`` have passed
and at least 100 queries are done, so that 10 latency samples lie beyond the
90th percentile.  ``--workload all`` runs every workload, each in its own
fresh process, and prints one table.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs the workload's first ``trace_blocks`` blocks once untraced and once
under ``tracing.Tracer`` and prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The run's environment and result are also
written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
THREAD_VARS = ("NORMS_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("power-scan", "list-exact", "oracle-verify")
MIN_QUERIES = 100
SETUP_REPS = 9

END_TO_END = {
    "throughput_qps": "queries/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

_LAYER_COUNTS = (
    "special_sums.hurwitz_tail_scaled.calls", "special_sums.hurwitz_tail_scaled.rows",
    "special_sums.shifted_tail_scaled.calls", "special_sums.shifted_tail_scaled.rows",
    "special_sums.scalar.calls",
    "norms._SeqData.builds", "norms._SeqData.elements",
    "norms._scan_sup.calls", "norms._scan_sup.rows",
    "norms._dense_norm.calls", "norms._finite_sup.calls",
    "operators.cone_plan.calls", "operators.entry.calls",
    "operators.row_entries.calls", "operators.apply_batch.calls",
    "weights.envelope.calls",
    "power.closed_form.calls", "power.scan_certificate.calls",
    "two_operator.best_constant.calls",
    "oracle.verify.calls", "oracle.extremal_lower_bound.calls",
    "oracle.random_lower_bound.calls", "oracle.random_lower_bound.trials",
)
_LAYER_TIMES = tuple(f"{layer}.self_s" for layer in (
    "special_sums.hurwitz_tail_scaled", "special_sums.shifted_tail_scaled",
    "special_sums.scalar", "norms._SeqData", "norms.row_values", "norms._scan_sup",
    "norms._dense_norm", "norms._finite_sup", "operators.cone_plan",
    "operators.row_entries", "operators.apply_batch", "weights.envelope",
    "weights.values", "power.closed_form", "power.scan_certificate",
    "two_operator.best_constant", "oracle.verify", "oracle.extremal_lower_bound",
    "oracle.random_lower_bound", "query"))
PER_LAYER = {
    **{name: "count" for name in _LAYER_COUNTS},
    **{name: "s" for name in _LAYER_TIMES},
    "cli.import_s": "s",
    "cli.numpy_import_s": "s",
    "trace.throughput_qps": "queries/s",
    "trace.untraced_throughput_qps": "queries/s",
    "trace.slowdown": "ratio",
}

# A fresh interpreter: import, then one closed-form answer through the CLI.
SETUP_CODE = """
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
from cesaro_copson import cli
t2 = time.perf_counter()
rc = cli.main(["norm", "--op", "cesaro", "--cone", "all", "--u", "powerpair:0.5"])
print(json.dumps({"rc": rc, "numpy_import_s": t1 - t0, "import_s": t2 - t0}))
"""
SETUP_ANSWER = 2.0   # 1 / (1 - alpha) at alpha = 0.5


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail_percentile(n: int, candidates=(90, 99, 99.9)) -> float | None:
    """The highest candidate percentile with at least 10 of ``n`` samples
    beyond it, or None when even the lowest has fewer."""
    best = None
    for p in candidates:
        if n * (100 - Fraction(str(p))) / 100 >= 10:
            best = p
    return best


@dataclass
class Outcome:
    label: str
    latency: float        # wall time of the library call, seconds
    error: str | None     # None, "wrong answer" or the raised exception


@dataclass
class RefFailure:
    """A reference that raised: its query cannot be checked and counts as failed."""

    message: str


def references(blocks: list, reference) -> list:
    out = []
    for block in blocks:
        refs = []
        for q in block:
            try:
                refs.append(reference(q))
            except Exception as exc:  # keep going; every run of the query fails
                refs.append(RefFailure(repr(exc)))
        out.append(refs)
    return out


def execute(q, ref, judge, call=None, clock=time.perf_counter) -> Outcome:
    """Run one query, time the call alone, then check the answer."""
    call = call or q.call
    t0 = clock()
    try:
        out = call()
    except Exception as exc:  # a raised query is a failed query; keep going
        return Outcome(q.label, clock() - t0,
                       "".join(traceback.format_exception_only(exc)).strip())
    latency = clock() - t0
    if isinstance(ref, RefFailure):
        return Outcome(q.label, latency, f"reference raised: {ref.message}")
    return Outcome(q.label, latency, None if judge(q, ref, out) else "wrong answer")


def error_rate(outcomes: list[Outcome]) -> float:
    """(queries that raised + answers that failed the check) / attempted."""
    return sum(o.error is not None for o in outcomes) / len(outcomes)


# ---------------------------------------------------------------------------
# Environment and set-up time
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout: do not look above it
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                "--untracked-files=no"],
                               capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if head.returncode != 0:
        return None
    return head.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def _lscpu() -> dict:
    try:
        res = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30,
                             env={**os.environ, "LC_ALL": "C"})
    except (OSError, subprocess.TimeoutExpired):
        return {}
    fields = {}
    for line in res.stdout.splitlines():
        key, _, value = line.partition(":")
        fields[key.strip()] = value.strip()
    return fields


def environment() -> dict:
    import numpy
    cpu = _lscpu()
    env = {
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu.get("Model name"),
        "l2_cache": cpu.get("L2 cache"),
        "l3_cache": cpu.get("L3 cache"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    env.update({v: os.environ.get(v) for v in THREAD_VARS})
    return env


def measure_setup(reps: int = SETUP_REPS) -> dict:
    """Cold start in fresh interpreters: the median wall time from launch to
    exit, and the median import times the child measures itself.  One
    unmeasured launch first compiles the bytecode caches."""
    walls, imports, numpy_imports, errors = [], [], [], []
    for i in range(reps + 1):
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                             env=_child_env(), capture_output=True, text=True,
                             timeout=120)
        wall = time.perf_counter() - t0
        lines = res.stdout.strip().splitlines()
        try:
            answer, timing = json.loads(lines[0]), json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            errors.append(f"setup child exited {res.returncode}: {res.stderr.strip()[-300:]}")
            continue
        if res.returncode != 0 or timing["rc"] != 0 or answer.get("value") != SETUP_ANSWER:
            errors.append(f"setup answer {answer!r}, exit {res.returncode}")
        if i == 0:
            continue
        walls.append(wall)
        imports.append(timing["import_s"])
        numpy_imports.append(timing["numpy_import_s"])
    if not walls:
        raise RuntimeError("; ".join(errors) or "no set-up run completed")
    return {"setup_s": statistics.median(walls),
            "cli.import_s": statistics.median(imports),
            "cli.numpy_import_s": statistics.median(numpy_imports),
            "errors": errors}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def timed_loop(pool: list, refs: list, seconds: float, judge,
               min_queries: int = MIN_QUERIES):
    """Closed loop, one caller: whole blocks of the pool, in order and
    wrapping around, until ``seconds`` have passed and ``min_queries`` ran."""
    outcomes: list[Outcome] = []
    start = time.perf_counter()
    blocks = 0
    while True:
        i = blocks % len(pool)
        for q, ref in zip(pool[i], refs[i]):
            outcomes.append(execute(q, ref, judge))
        blocks += 1
        wall = time.perf_counter() - start
        if wall >= seconds and len(outcomes) >= min_queries:
            return outcomes, wall, blocks


def end_to_end(outcomes: list[Outcome], wall: float, setup: dict) -> dict:
    import numpy as np

    p50, p90 = np.percentile([o.latency for o in outcomes], [50, 90])
    return {
        "throughput_qps": len(outcomes) / wall,
        "latency_p50_ms": float(p50) * 1e3,
        "latency_p90_ms": float(p90) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup["setup_s"],
    }


def traced_run(w, pool: list, judge, reference, seed: int):
    """The trace set once untraced and once traced.  Returns the per-layer
    metrics, the outcomes of every query run, problems found and remarks."""
    import tracing

    blocks = pool[: w.trace_blocks]
    refs = references(blocks, reference)
    queries = [(q, ref) for block, rb in zip(blocks, refs) for q, ref in zip(block, rb)]

    # the first block once more beforehand, so neither timed pass is the
    # first to run a code path
    outcomes = [execute(q, ref, judge) for q, ref in zip(blocks[0], refs[0])]
    t0 = time.perf_counter()
    outcomes += [execute(q, ref, judge) for q, ref in queries]
    untraced = time.perf_counter() - t0

    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        for i, (q, ref) in enumerate(queries):
            outcomes.append(execute(q, ref, judge,
                                    call=lambda q=q, i=i: tracer.run_query(i, q.call)))
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()

    # a layer a later version removed reads 0; that is not an error
    remarks = [f"not in the package, reads 0: {m}" for m in tracer.missing]
    spans = tracer.spans()
    selfs = tracing.self_times(spans)
    worst = max(tracing.query_residuals(spans, selfs), default=0.0)
    problems = []
    if worst > 1e-9:
        problems.append(f"self times differ from a query's duration by {worst:.3g} s")
    remarks.append(f"{len(spans)} spans; self times add up to each query's "
                   f"duration within {worst:.3g} s")
    OUT.mkdir(exist_ok=True)
    tracer.write(str(OUT / f"spans-{w.name}-seed{seed}.json.gz"))

    metrics = tracing.layer_metrics(spans, selfs, tracer.counts)
    n = len(queries)
    metrics["trace.throughput_qps"] = n / traced
    metrics["trace.untraced_throughput_qps"] = n / untraced
    metrics["trace.slowdown"] = traced / untraced
    return metrics, outcomes, problems, remarks


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"   # one thread, set before numpy loads
    sys.path.insert(0, str(SRC))
    import workloads

    w = workloads.WORKLOADS[name]
    setup = measure_setup()
    problems = list(setup["errors"])

    pool = workloads.make_pool(name, seed)
    sha = workloads.digest(pool)
    deterministic = workloads.digest(workloads.make_pool(name, seed)) == sha
    if not deterministic:
        problems.append("the same seed generated different inputs")

    remarks = []
    if trace:
        metrics, outcomes, trace_problems, remarks = traced_run(
            w, pool, workloads.judge, workloads.reference, seed)
        problems += trace_problems
        metrics["cli.import_s"] = setup["cli.import_s"]
        metrics["cli.numpy_import_s"] = setup["cli.numpy_import_s"]
        published, extra = PER_LAYER, {}
        loop = (f"trace set: the first {w.trace_blocks} block(s), run once untraced "
                f"and once traced")
    else:
        refs = references(pool, workloads.reference)
        outcomes, wall, blocks = timed_loop(pool, refs, seconds, workloads.judge)
        metrics = end_to_end(outcomes, wall, setup)
        published = END_TO_END
        extra = {"samples": len(outcomes), "tail_percentile": tail_percentile(len(outcomes)),
                 "error_rate": error_rate(outcomes), "wall_s": wall, "blocks": blocks}
        loop = f"timed loop: {blocks} blocks, {len(outcomes)} queries in {wall:.2f} s"

    failures = [o for o in outcomes if o.error is not None]
    correct = not failures and not problems
    env = environment()
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": env, "inputs_sha256": sha,
        "attempted": len(outcomes), "failed": len(failures), "correct": correct,
        "metrics": metrics, **extra, "problems": problems, "remarks": remarks,
        "failures": [{"label": o.label, "error": o.error} for o in failures[:20]],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1))

    print(f"workload {name}  seed {seed}  closed loop, 1 caller, 1 thread")
    print("environment: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    print(f"inputs: {len(pool)} blocks x {len(pool[0])} queries, sha256 {sha[:16]}, "
          f"{'regenerated identically' if deterministic else 'NOT deterministic'}")
    print(loop)
    for key, unit in published.items():
        print(f"  {key:44s} {metrics[key]:.6g} {unit}{_annotation(key, extra)}")
    if not trace:
        print(f"  {'error_rate':44s} {extra['error_rate']:.6g} fraction "
              f"({len(failures)} failed of {len(outcomes)} attempted)")
    for remark in remarks:
        print(remark)
    for problem in problems:
        print(f"problem: {problem}")
    for o in failures[:20]:
        print(f"failed: {o.label}: {o.error}")
    print(json.dumps({
        "correct": correct, "attempted": len(outcomes), "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in published.items()},
    }))
    return 0


def _annotation(key: str, extra: dict) -> str:
    if key == "latency_p50_ms":
        return f"  (median of {extra['samples']} samples)"
    if key == "latency_p90_ms":
        p = extra["tail_percentile"]
        return (f"  ({extra['samples']} samples; highest percentile with "
                f">= 10 beyond it: {'p' + format(p, 'g') if p else 'none'})")
    if key == "setup_s":
        return f"  (median of {SETUP_REPS} cold starts)"
    return ""


def run_all(args) -> int:
    """Every workload in its own fresh process; one table at the end."""
    rows, combined, ok = [], {}, True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        if res.returncode != 0:
            print(f"{name}: exited {res.returncode}")
            ok = False
            continue
        doc = json.loads(res.stdout.strip().splitlines()[-1])
        rows.append((name, doc))
        for key, m in doc["metrics"].items():
            combined[f"{name}.{key}"] = m
    print()
    for name, doc in rows:
        print(f"{name}: correct={doc['correct']}  "
              f"error_rate={doc['failed'] / doc['attempted']:g} fraction")
        for key, m in doc["metrics"].items():
            print(f"  {key:44s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": ok and all(d["correct"] for _, d in rows),
        "attempted": sum(d["attempted"] for _, d in rows),
        "failed": sum(d["failed"] for _, d in rows),
        "metrics": combined,
    }))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (SRC / "cesaro_copson" / "__init__.py").is_file():
        print(f"bench: no library source at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
