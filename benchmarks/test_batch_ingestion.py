"""Columnar-ingestion benchmarks and the cross-PR ``BENCH_6.json`` snapshot.

PR 6 refactored the streaming ingestion pipeline from per-op tuples to
columnar record batches (``RecordBatch`` -> bulk intern -> batched fold),
because ``BENCH_5.json`` showed the fold -- not the finalize -- dominating
the 1.45s streaming CC pipeline.  This module records the fig9-scale
numbers the PR gates on:

* compiled streaming CC (parse included) must be >= 1.3x the PR 5 era
  number committed in ``BENCH_5.json``
  (``check_cc_seconds.compiled_stream_pipeline``), compared under the
  calibration pairing described below;
* peak streaming memory must stay within 10% of the PR 5 era committed
  peak (the batch layer holds at most one ``batch_ops`` column set live).

Measurement on a single-CPU dev container: wall seconds swing with the
container's throttling, so every round pairs one :mod:`_calibration`
kernel run with one pipeline run -- both see the same machine state, and
the per-round ratio factors the throttling out.  The gate takes the best
round, the same best-of principle ``_best_of`` applies to raw seconds.

Everything lands in the repo-root ``BENCH_6.json``.  The online fold
whose sub-laps this snapshot once recorded is gone: ``--stream`` now feeds
the same IR builder as a batch check.
"""

from __future__ import annotations

import gc
import json
import os
import time
import tracemalloc

import pytest
from _calibration import calibration_seconds

from repro.core import IsolationLevel
from repro.core.compiled.online import check_stream_file
from repro.histories.formats import save_history
from repro.histories.formats._raw import DEFAULT_BATCH_OPS
from repro.histories.generator import RandomHistoryConfig, generate_random_history

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
BENCH6_PATH = os.path.abspath(os.path.join(_ROOT, "BENCH_6.json"))

pytestmark = pytest.mark.bench

CC = IsolationLevel.CAUSAL_CONSISTENCY

#: The PR gate: minimum streaming-CC speedup over the PR 5 era number.
STREAM_GATE = 1.3

#: Paired calibration/pipeline rounds for the gate measurement.
ROUNDS = 5


def _committed(name: str):
    with open(os.path.abspath(os.path.join(_ROOT, name)), encoding="utf-8") as f:
        return json.load(f)


def _fig9_history(num_transactions: int = 15_000, seed: int = 11):
    """The fig9-scale history used by BENCH_2 through BENCH_5 (120k ops)."""
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


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best_of(fn, repeats: int = 3) -> float:
    return min(_timed(fn) for _ in range(repeats))


def _peak_mem(fn):
    tracemalloc.start()
    try:
        result = fn()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_bench6_snapshot(tmp_path, results):
    """Record the columnar-ingestion perf snapshot in ``BENCH_6.json``."""
    bench5 = _committed("BENCH_5.json")
    stream_baseline = bench5["check_cc_seconds"]["compiled_stream_pipeline"]
    baseline_cal = bench5["machine_calibration_seconds"]
    stream_mem_baseline = bench5["peak_checking_mem_bytes"]["compiled_stream"]

    history = _fig9_history()
    txns, ops = history.num_transactions, history.num_operations
    path = str(tmp_path / "large.plume")
    save_history(history, path, fmt="plume")
    # The streaming pipeline is the unit under test; a 120k-op object
    # history kept alive during the rounds makes every gen-2 GC pass walk
    # it and inflates the measurement by ~2x on this container.
    del history
    gc.collect()

    def _pipeline(**kwargs):
        return check_stream_file(path, CC, fmt="plume", **kwargs)

    # -- the PR gate: paired calibration/pipeline rounds -----------------------
    rounds = []
    for _ in range(ROUNDS):
        cal = calibration_seconds(repeats=3)
        rounds.append((_timed(_pipeline), cal))
    stream_seconds = min(seconds for seconds, _ in rounds)
    cal_seconds = min(cal for _, cal in rounds)
    # Each round's pipeline run is compared against the PR 5 baseline
    # rescaled by *that round's* calibration: both measurements saw the
    # same machine state, so throttling cancels out of the ratio.
    stream_speedup = max(
        (stream_baseline * cal / baseline_cal) / seconds for seconds, cal in rounds
    )

    # -- batch_ops sensitivity (same verdict for every value) ------------------
    by_batch_ops = {
        str(batch_ops): round(_best_of(lambda: _pipeline(batch_ops=batch_ops)), 4)
        for batch_ops in (1, 64, DEFAULT_BATCH_OPS, 65536)
    }

    # -- peak streaming memory vs the per-op era -------------------------------
    _, stream_peak = _peak_mem(_pipeline)

    snapshot = {
        "generated_by": "benchmarks/test_batch_ingestion.py::test_bench6_snapshot",
        # Single-thread machine-speed reference: benchmarks/perf_guard.py
        # rescales the baselines below by this kernel's runtime ratio.
        "machine_calibration_seconds": round(cal_seconds, 4),
        "history": {
            "transactions": txns,
            "operations": ops,
            "sessions": 8,
            "mode": "serializable",
        },
        "check_cc_seconds": {
            "compiled_stream_pipeline": round(stream_seconds, 4),
            "compiled_stream_pipeline_pr5_baseline": stream_baseline,
            "pr5_baseline_calibration_seconds": baseline_cal,
            # Best paired-round speedup: per round, (baseline rescaled by
            # that round's calibration) / that round's pipeline seconds.
            "stream_speedup": round(stream_speedup, 3),
        },
        "stream_cc_seconds_by_batch_ops": {
            "note": "best-of-3 wall seconds; the verdict is identical for "
            "every batch_ops value, only the per-batch amortization changes",
            **by_batch_ops,
        },
        "peak_streaming_mem_bytes": {
            "note": "tracemalloc peak, CC streaming pipeline on the "
            "120k-op fig9 log",
            "compiled_stream": stream_peak,
            "compiled_stream_pr5_baseline": stream_mem_baseline,
        },
    }
    with open(BENCH6_PATH, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2)
        handle.write("\n")
    results.record("bench6", "snapshot", snapshot)

    assert stream_speedup >= STREAM_GATE, (
        f"compiled streaming CC must be >= {STREAM_GATE}x the PR 5 number "
        f"({stream_baseline}s at calibration {baseline_cal}s), best paired "
        f"round gave {stream_speedup:.2f}x ({stream_seconds:.3f}s at "
        f"calibration {cal_seconds:.4f}s)"
    )
    assert stream_peak <= stream_mem_baseline * 1.10, (
        f"streaming CC peak {stream_peak} exceeds the per-op era "
        f"{stream_mem_baseline} by more than 10%"
    )
