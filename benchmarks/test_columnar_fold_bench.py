"""Columnar fold-state benchmarks and the cross-PR ``BENCH_10.json``.

PR 10 retired the per-transaction object heap from
``CompiledIncrementalChecker``: resident state is structure-of-arrays
columns indexed by ``tid`` (flags/session/summary-run
arrays), the park queue is ``kernels.ParkQueue`` (one flat ``array('q')``
of interleaved pairs per packed wid), and the CC clocks are two flat
row-major matrices joined by ``kernels.join_clocks``.  This module
records what that bought, measured the way the earlier snapshots
measure (paired calibration/measurement rounds so container throttling
cancels out):

* the end-to-end ``fold`` lap vs the committed BENCH_9 number -- the
  tentpole gate, >= 1.25x paired.  The win is allocator- and GC-shaped:
  no ``_Txn``/``_Read`` objects, no per-transaction dicts for the hb
  clocks or wr maps, so the fold loop stops paying per-record allocation
  and the collector stops walking ~100k live objects per gen-2 pass;
* the ``batch_ops`` sweep re-measured (identical verdict per column);
* the 5x-fig9 arrival-stream fold laps that ``benchmarks/perf_guard.py``
  re-measures and gates against.

The clock matrices have since gone: the fold now only resolves and
classifies reads, and the stream's finalize runs the batch checkers, so
the ``fold`` lap these gates time no longer holds any CC work.

Everything lands in the repo-root ``BENCH_10.json``.
"""

from __future__ import annotations

import gc
import json
import os
import time

import pytest
from _calibration import calibration_seconds

from repro.core import IsolationLevel
from repro.graph import csr
from repro.histories.formats import plume_text, save_history
from repro.histories.formats._raw import DEFAULT_BATCH_OPS
from repro.histories.generator import (
    RandomHistoryConfig,
    generate_random_history,
    generate_random_stream,
)
from repro.stream import check_stream_file

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
BENCH10_PATH = os.path.abspath(os.path.join(_ROOT, "BENCH_10.json"))

pytestmark = pytest.mark.bench

CC = IsolationLevel.CAUSAL_CONSISTENCY

#: The tentpole gate: the whole fold lap, best calibration-paired round
#: vs the committed BENCH_9 lap.
FOLD_GATE = 1.25

ROUNDS = 5

def _committed(name: str):
    with open(os.path.abspath(os.path.join(_ROOT, name)), encoding="utf-8") as f:
        return json.load(f)


def _fig9_history(num_transactions: int = 15_000, seed: int = 11):
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


def test_bench10_snapshot(tmp_path, results):
    """Record the columnar-fold perf snapshot in ``BENCH_10.json``."""
    bench9 = _committed("BENCH_9.json")
    fold_baseline = bench9["stream_fold_phase_seconds"]["fold"]
    bench9_cal = bench9["machine_calibration_seconds"]
    sweep_baseline = bench9["stream_cc_seconds_by_batch_ops"]

    if not csr.HAVE_NUMPY:
        pytest.skip("the vectorized kernels need numpy; no perf gate")

    history = _fig9_history()
    txns, ops = history.num_transactions, history.num_operations
    path = str(tmp_path / "fig9.plume")
    save_history(history, path, fmt="plume")
    del history
    gc.collect()

    def _pipeline(**kwargs):
        return check_stream_file(path, CC, fmt="plume", **kwargs)

    # -- the fold gate: paired calibration/pipeline rounds ---------------------
    rounds = []
    for _ in range(ROUNDS):
        cal = calibration_seconds(repeats=3)
        timings: dict = {}
        _pipeline(timings=timings)
        rounds.append((dict(timings), cal))
    fold_seconds = min(laps["fold"] for laps, _ in rounds)
    fold_speedup = max(
        (fold_baseline * cal / bench9_cal) / laps["fold"] for laps, cal in rounds
    )
    cal_seconds = min(cal for _, cal in rounds)
    fold_laps = {
        key: round(value, 4)
        for key, value in min(rounds, key=lambda r: r[0]["fold"])[0].items()
        if key.startswith("fold") or key == "parse"
    }

    # -- batch_ops sensitivity (same verdict for every value) ------------------
    by_batch_ops = {
        str(batch_ops): round(_best_of(lambda: _pipeline(batch_ops=batch_ops)), 4)
        for batch_ops in (1, 64, DEFAULT_BATCH_OPS, 65536)
    }

    # -- the perf-guard workload: 5x-fig9 arrival stream ------------------------
    stream_history, order = generate_random_stream(
        RandomHistoryConfig(
            num_sessions=8,
            num_transactions=75_000,
            num_keys=500,
            min_ops_per_txn=6,
            max_ops_per_txn=10,
            read_fraction=0.5,
            mode="serializable",
            seed=11,
        )
    )
    stream_txns = stream_history.num_transactions
    stream_ops = stream_history.num_operations
    stream_path = str(tmp_path / "fig9x5_arrival.plume")
    with open(stream_path, "w", encoding="utf-8") as handle:
        handle.write(plume_text.dumps(stream_history, order=order))
    del stream_history, order
    gc.collect()
    stream_fold = float("inf")
    stream_classify = float("inf")
    for _ in range(3):
        timings = {}
        check_stream_file(stream_path, CC, fmt="plume", timings=timings)
        stream_fold = min(stream_fold, timings["fold"])
        stream_classify = min(stream_classify, timings["fold_classify"])

    snapshot = {
        "generated_by":
            "benchmarks/test_columnar_fold_bench.py::test_bench10_snapshot",
        "machine_calibration_seconds": round(cal_seconds, 4),
        "history": {
            "transactions": txns,
            "operations": ops,
            "sessions": 8,
            "mode": "serializable",
        },
        "stream_fold_phase_seconds": {
            "note": "fig9 file-order stream; fold_speedup is the best "
            "calibration-paired round of the whole fold lap vs the BENCH_9 "
            "lap.  The columnar rewrite removes per-transaction objects "
            "and dicts from every sub-lap at once (allocation, pointer "
            "chasing, GC traversal), which is why the end-to-end lap moves "
            "rather than one sub-lap",
            **fold_laps,
            "fold_pr9_baseline": fold_baseline,
            "pr9_baseline_calibration_seconds": bench9_cal,
            "fold_speedup": round(fold_speedup, 3),
        },
        "stream_cc_seconds_by_batch_ops": {
            "note": "best-of-3 wall seconds; identical verdict per column",
            "pr9_baseline": {
                key: sweep_baseline[key]
                for key in ("1", "64", str(DEFAULT_BATCH_OPS), "65536")
            },
            **by_batch_ops,
        },
        "stream_5x_fold_phase_seconds": {
            "note": "5x-fig9 arrival-order stream (the perf-guard "
            "workload, regenerated from seed 11); perf_guard re-measures "
            "the fold lap against this",
            "transactions": stream_txns,
            "operations": stream_ops,
            "fold": round(stream_fold, 4),
            "fold_classify": round(stream_classify, 4),
        },
    }
    with open(BENCH10_PATH, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2)
        handle.write("\n")
    results.record("bench10", "snapshot", snapshot)

    assert fold_speedup >= FOLD_GATE, (
        f"the columnar fold must beat BENCH_9's fold lap by {FOLD_GATE}x "
        f"paired ({fold_baseline}s at calibration {bench9_cal}s); best "
        f"round gave {fold_speedup:.2f}x ({fold_seconds:.3f}s at "
        f"calibration {cal_seconds:.4f}s)"
    )
    worst = max(by_batch_ops.values())
    assert by_batch_ops[str(DEFAULT_BATCH_OPS)] < worst, (
        f"the default batch_ops ({DEFAULT_BATCH_OPS}) must never be the "
        f"worst sweep column: {by_batch_ops}"
    )
