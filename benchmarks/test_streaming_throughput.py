"""Streaming vs. batch checking throughput on large on-disk logs.

The streaming engine must not give up meaningful throughput for its
bounded-memory, one-pass operation: the acceptance bar is a ≥100k-operation
log checked via the streaming parsers at throughput within 2x of the batch
pipeline (load + check).  Measured txns/sec for both pipelines are recorded
in ``results.json``.

``test_bench2_snapshot`` additionally records the ``BENCH_2.json`` shape:
object-path vs compiled-IR vs streaming throughput on the 120k-op log, plus
peak checking memory (tracemalloc, the in-process proxy for peak RSS) on
the small-transaction log, where streaming CC must not exceed batch.  The
snapshot goes to ``benchmarks/results.json``; the committed ``BENCH_2.json``
stays as history (its ``stream`` columns were measured on the retired
object streaming engine).
"""

from __future__ import annotations

import time
import tracemalloc

import pytest

from repro.core import IsolationLevel, check
from repro.core.compiled.online import check_stream_file
from repro.histories.formats import load_compiled, load_history, save_history
from repro.histories.generator import RandomHistoryConfig, generate_random_history

# Benchmark suites are opt-in (see pytest.ini): the marker is declared on
# the module itself so collection behaves identically no matter which
# directory pytest is invoked from.
pytestmark = pytest.mark.bench

LEVELS = list(IsolationLevel)


def _large_history(num_transactions: int = 15_000, seed: int = 11):
    """A ≥100k-operation history (~8 ops/txn) with realistic read mix."""
    config = RandomHistoryConfig(
        num_sessions=8,
        num_transactions=num_transactions,
        num_keys=500,
        min_ops_per_txn=6,
        max_ops_per_txn=10,
        read_fraction=0.5,
        mode="serializable",
        seed=seed,
    )
    return generate_random_history(config)


@pytest.mark.parametrize("fmt,ext", [("plume", ".plume"), ("native", ".json")])
@pytest.mark.parametrize("level", LEVELS, ids=[lvl.short_name for lvl in LEVELS])
def test_streaming_throughput_within_2x_of_batch(tmp_path, results, fmt, ext, level):
    history = _large_history()
    assert history.num_operations >= 100_000
    path = tmp_path / f"large{ext}"
    save_history(history, str(path), fmt=fmt)

    start = time.perf_counter()
    loaded = load_history(str(path), fmt=fmt)
    batch_result = check(loaded, level)
    batch_seconds = time.perf_counter() - start

    start = time.perf_counter()
    stream_result = check_stream_file(str(path), level, fmt=fmt)
    stream_seconds = time.perf_counter() - start

    assert stream_result.is_consistent == batch_result.is_consistent
    txns = history.num_transactions
    results.record(
        "streaming_throughput",
        f"{fmt}_{level.short_name}",
        {
            "operations": history.num_operations,
            "batch_txns_per_sec": txns / batch_seconds,
            "stream_txns_per_sec": txns / stream_seconds,
            "slowdown": stream_seconds / batch_seconds,
        },
    )
    assert stream_seconds <= 2.0 * batch_seconds, (
        f"streaming took {stream_seconds:.2f}s vs batch {batch_seconds:.2f}s "
        f"(> 2x) for {fmt}/{level.short_name}"
    )


def _peak_mem(fn):
    """Run ``fn`` and return (result, peak traced bytes)."""
    tracemalloc.start()
    try:
        result = fn()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_bench2_snapshot(tmp_path, results):
    """Record the compiled-core perf snapshot.

    Acceptance gates of the compiled-core PR, measured here:

    * ``check(history, CC)`` via the compiled IR is >= 1.5x faster than the
      object path on the fig9-scale (120k-op) generated history;
    * streaming CC peak checking memory is <= batch on the small-transaction
      log (the ROADMAP's inferred-edge-log RSS item).
    """
    cc = IsolationLevel.CAUSAL_CONSISTENCY

    # -- throughput on the 120k-op log (pure check(), engine vs engine) -------
    # Fresh History objects per timing: the object model caches derived
    # structures (txn-level wr) on first use, which would flatter repeats.
    # Engines are interleaved and the best of three kept, so a noisy or
    # throttled machine cannot skew one side of the comparison.
    object_times = []
    compiled_times = []
    for _ in range(3):
        object_times.append(
            _timed(lambda h=_large_history(): check(h, cc, engine="object"))
        )
        compiled_times.append(
            _timed(lambda h=_large_history(): check(h, cc, engine="compiled"))
        )
    object_seconds = min(object_times)
    compiled_seconds = min(compiled_times)
    history = _large_history()
    txns, ops = history.num_transactions, history.num_operations
    path = tmp_path / "large.plume"
    save_history(history, str(path), fmt="plume")

    # -- end-to-end file pipelines (parse + check) ----------------------------
    start = time.perf_counter()
    batch_result = check(load_history(str(path), fmt="plume"), cc, engine="object")
    batch_pipeline = time.perf_counter() - start
    start = time.perf_counter()
    compiled_result = check(load_compiled(str(path), fmt="plume"), cc)
    compiled_pipeline = time.perf_counter() - start
    start = time.perf_counter()
    stream_result = check_stream_file(str(path), cc, fmt="plume")
    stream_pipeline = time.perf_counter() - start
    assert (
        batch_result.is_consistent
        == compiled_result.is_consistent
        == stream_result.is_consistent
    )

    # -- peak checking memory on the small-transaction log --------------------
    small = RandomHistoryConfig(
        num_sessions=8,
        num_transactions=15_000,
        num_keys=500,
        min_ops_per_txn=2,
        max_ops_per_txn=3,
        read_fraction=0.5,
        mode="serializable",
        seed=11,
    )
    small_path = tmp_path / "small.plume"
    save_history(generate_random_history(small), str(small_path), fmt="plume")
    _, batch_peak = _peak_mem(
        lambda: check(load_history(str(small_path), fmt="plume"), cc, engine="object")
    )
    _, compiled_peak = _peak_mem(
        lambda: check(load_compiled(str(small_path), fmt="plume"), cc)
    )
    _, stream_peak = _peak_mem(
        lambda: check_stream_file(str(small_path), cc, fmt="plume")
    )

    speedup = object_seconds / compiled_seconds
    snapshot = {
        "generated_by": "benchmarks/test_streaming_throughput.py::test_bench2_snapshot",
        "history": {
            "transactions": txns,
            "operations": ops,
            "sessions": 8,
            "mode": "serializable",
        },
        "check_cc_seconds": {
            "object": round(object_seconds, 4),
            "compiled": round(compiled_seconds, 4),
            "compiled_speedup": round(speedup, 3),
        },
        "pipeline_txns_per_sec": {
            "batch_object": round(txns / batch_pipeline, 1),
            "compiled": round(txns / compiled_pipeline, 1),
            "stream": round(txns / stream_pipeline, 1),
        },
        "peak_checking_mem_bytes": {
            "note": "tracemalloc peak (in-process RSS proxy), CC on the "
            "small-transaction log (15k txns, 2-3 ops each)",
            "batch_object": batch_peak,
            "compiled": compiled_peak,
            "stream": stream_peak,
            "stream_over_batch": round(stream_peak / batch_peak, 3),
        },
    }
    results.record("bench2", "snapshot", snapshot)

    assert speedup >= 1.5, (
        f"compiled CC check must be >=1.5x the object path, got {speedup:.2f}x"
    )
    assert stream_peak <= batch_peak, (
        f"streaming CC peak memory {stream_peak} must not exceed batch {batch_peak}"
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_streaming_violation_detection_throughput(tmp_path, results):
    """Streaming stays within 2x of batch on an anomalous history too."""
    config = RandomHistoryConfig(
        num_sessions=8,
        num_transactions=15_000,
        num_keys=500,
        min_ops_per_txn=6,
        max_ops_per_txn=10,
        read_fraction=0.5,
        mode="random_reads",
        seed=12,
    )
    history = generate_random_history(config)
    path = tmp_path / "anomalous.plume"
    save_history(history, str(path), fmt="plume")

    start = time.perf_counter()
    loaded = load_history(str(path), fmt="plume")
    batch_result = check(loaded, IsolationLevel.CAUSAL_CONSISTENCY)
    batch_seconds = time.perf_counter() - start

    start = time.perf_counter()
    stream_result = check_stream_file(
        str(path), IsolationLevel.CAUSAL_CONSISTENCY, fmt="plume"
    )
    stream_seconds = time.perf_counter() - start

    assert stream_result.is_consistent == batch_result.is_consistent
    assert sorted(v.kind.name for v in stream_result.violations) == sorted(
        v.kind.name for v in batch_result.violations
    )
    results.record(
        "streaming_throughput",
        "anomalous_CC",
        {"slowdown": stream_seconds / batch_seconds},
    )
    assert stream_seconds <= 2.0 * batch_seconds
