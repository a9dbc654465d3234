"""Streaming throughput of the online checker, in the ``BENCH_4.json`` shape.

Streaming CC on the 120k-op fig9-scale history through
:class:`~repro.core.compiled.online.CompiledIncrementalChecker`, parse
included (the pipeline ``awdit check --stream`` executes), plus the
all-levels online pass and the peak live-state footprint (tracemalloc).
The snapshot goes to ``benchmarks/results.json``; the committed
``BENCH_4.json`` stays as history (it also carries the retired object
streaming engine's columns and the retired checkpoint overhead).
"""

from __future__ import annotations

import time
import tracemalloc

import pytest

from repro.core import IsolationLevel
from repro.core.compiled.online import CompiledIncrementalChecker, check_stream_file
from repro.histories.formats import save_history, stream_raw_batches
from repro.histories.generator import RandomHistoryConfig, generate_random_history

pytestmark = pytest.mark.bench

CC = IsolationLevel.CAUSAL_CONSISTENCY


def _fig9_history(num_transactions: int = 15_000, seed: int = 11):
    """The fig9-scale history used by BENCH_2/BENCH_3 (15k txns, ~120k ops)."""
    return generate_random_history(
        RandomHistoryConfig(
            num_sessions=8,
            num_transactions=num_transactions,
            num_keys=500,
            min_ops_per_txn=6,
            max_ops_per_txn=10,
            read_fraction=0.5,
            mode="serializable",
            seed=seed,
        )
    )


def _compiled_stream_cc(path: str):
    return check_stream_file(path, CC, fmt="plume")


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _peak_mem(fn):
    tracemalloc.start()
    try:
        result = fn()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_bench4_snapshot(tmp_path, results):
    """Record the streaming perf snapshot."""
    history = _fig9_history()
    txns, ops = history.num_transactions, history.num_operations
    path = str(tmp_path / "large.plume")
    save_history(history, path, fmt="plume")

    # Best of three, so machine noise cannot skew the figure.
    compiled_seconds = min(_timed(lambda: _compiled_stream_cc(path)) for _ in range(3))
    assert _compiled_stream_cc(path).is_consistent

    # All-levels online pass (one stream, three verdicts).
    def _all_levels():
        checker = CompiledIncrementalChecker()
        for batch in stream_raw_batches(path, "plume"):
            checker.append_batch(batch)
        return checker.finalize()

    all_levels_seconds = _timed(_all_levels)

    # Peak streaming memory (tracemalloc, in-process proxy).
    _, compiled_peak = _peak_mem(lambda: _compiled_stream_cc(path))

    snapshot = {
        "generated_by": "benchmarks/test_online_throughput.py::test_bench4_snapshot",
        "history": {
            "transactions": txns,
            "operations": ops,
            "sessions": 8,
            "mode": "serializable",
        },
        "stream_cc_pipeline_seconds": {
            "compiled": round(compiled_seconds, 4),
        },
        "stream_pipeline_txns_per_sec": {
            "compiled": round(txns / compiled_seconds, 1),
            "compiled_all_levels": round(txns / all_levels_seconds, 1),
        },
        "peak_streaming_mem_bytes": {
            "note": "tracemalloc peak (in-process RSS proxy), CC streaming "
            "pipeline on the 120k-op log",
            "compiled": compiled_peak,
        },
    }
    results.record("bench4", "snapshot", snapshot)

