"""Vectorized saturation-kernel benchmarks and the cross-PR ``BENCH_7.json``.

PR 7 rebuilt the CC/RC/RA saturation passes on one numpy core
(:mod:`repro.core.compiled.kernels`) shared by the batch checkers and the
streaming fold's deferred probe flush, because
``BENCH_5.json`` showed the saturation lap (0.31s of the 0.46s batch
check) and ``BENCH_6.json`` showed the fold clock-join lap (0.78s of the
1.67s pipeline) as the two remaining scalar hot loops.  This module
records the fig9-scale numbers the PR gates on:

* compiled batch CC must be >= 1.3x the BENCH_5 era number
  (``check_cc_seconds.compiled_batch``), compared under the calibration
  pairing described in :mod:`test_batch_ingestion`;
* the saturation phase lap on its own must be cut >= 2x vs the BENCH_5
  ``batch_cc_phase_seconds.saturation`` lap;
* the streaming CC work must be measurably faster (>= 1.1x) than the
  BENCH_6 ``stream_fold_phase_seconds.fold_clock_join`` lap.  That lap
  timed the stream's clock joins plus its edge probes; the stream now
  builds the batch IR and runs the batch checker, so the gate times the
  stream result's ``happens_before`` + ``saturation`` stats;
* the default ``--batch-ops`` (4096) must never be the worst column of
  the batch_ops sweep.  The BENCH_6 sweep exposed a mid-size cliff --
  64-op batches (2.03s) were *slower* than single-op batches (1.98s)
  because they pay per-batch flush overhead without amortizing it, while
  4096 (1.80s) amortizes it away -- and this assertion keeps the shipped
  default off that cliff.

Measurement on a single-CPU dev container: wall seconds swing with the
container's throttling, so every gated round pairs one
:mod:`_calibration` kernel run with one measured run -- both see the
same machine state, and the per-round ratio factors the throttling out.

Everything lands in the repo-root ``BENCH_7.json``; the CI ``perf-guard``
job re-measures batch CC and the saturation lap against it.
"""

from __future__ import annotations

import gc
import json
import os
import time

import pytest
from _calibration import calibration_seconds

from repro.core import IsolationLevel
from repro.core.compiled.cc import (
    check_cc_compiled,
    compute_happens_before_compiled,
    saturate_cc_compiled,
)
from repro.core.compiled.checkers import (
    _relation_from_compiled,
    check_read_consistency_compiled,
)
from repro.core.compiled.ir import compile_history
from repro.core.compiled.online import check_stream_file
from repro.graph import csr
from repro.histories.formats import save_history
from repro.histories.formats._raw import DEFAULT_BATCH_OPS
from repro.histories.generator import RandomHistoryConfig, generate_random_history

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
BENCH7_PATH = os.path.abspath(os.path.join(_ROOT, "BENCH_7.json"))

pytestmark = pytest.mark.bench

CC = IsolationLevel.CAUSAL_CONSISTENCY

#: The PR gates: minimum speedups over the committed-era numbers.
BATCH_GATE = 1.3
SATURATION_GATE = 2.0
CLOCK_JOIN_GATE = 1.1

#: Paired calibration/measurement rounds for the gated numbers.
ROUNDS = 5


def _committed(name: str):
    with open(os.path.abspath(os.path.join(_ROOT, name)), encoding="utf-8") as f:
        return json.load(f)


def _fig9_history(num_transactions: int = 15_000, seed: int = 11):
    """The fig9-scale history used by BENCH_2 through BENCH_6 (120k ops)."""
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


def test_bench7_snapshot(tmp_path, results):
    """Record the vectorized-saturation perf snapshot in ``BENCH_7.json``."""
    bench5 = _committed("BENCH_5.json")
    bench6 = _committed("BENCH_6.json")
    batch_baseline = bench5["check_cc_seconds"]["compiled_batch"]
    saturation_baseline = bench5["batch_cc_phase_seconds"]["saturation"]
    bench5_cal = bench5["machine_calibration_seconds"]
    stream_baseline = bench6["check_cc_seconds"]["compiled_stream_pipeline"]
    clock_join_baseline = bench6["stream_fold_phase_seconds"]["fold_clock_join"]
    bench6_cal = bench6["machine_calibration_seconds"]

    if not csr.HAVE_NUMPY:
        pytest.skip("vectorized kernels need numpy; fallback has no perf gate")

    history = _fig9_history()
    txns, ops = history.num_transactions, history.num_operations
    ch = compile_history(history)
    path = str(tmp_path / "large.plume")
    save_history(history, path, fmt="plume")

    # -- the batch gates: paired calibration/check rounds ----------------------
    # One profiled result set serves both batch gates: the phase laps are
    # a handful of perf_counter calls around work measured in tenths.
    rounds = []
    for _ in range(ROUNDS):
        cal = calibration_seconds(repeats=3)
        start = time.perf_counter()
        result = check_cc_compiled(ch)
        seconds = time.perf_counter() - start
        rounds.append((seconds, result.stats["saturation"], cal))
    batch_seconds = min(seconds for seconds, _, _ in rounds)
    saturation_seconds = min(lap for _, lap, _ in rounds)
    cal_seconds = min(cal for _, _, cal in rounds)
    # Per round, the committed baseline is rescaled by *that round's*
    # calibration before the ratio: both measurements saw the same
    # machine state, so throttling cancels out.
    batch_speedup = max(
        (batch_baseline * cal / bench5_cal) / seconds for seconds, _, cal in rounds
    )
    saturation_speedup = max(
        (saturation_baseline * cal / bench5_cal) / lap for _, lap, cal in rounds
    )
    kernel_used = result.stats["saturation_kernel"]

    # -- vectorized vs fallback, saturation pass in isolation ------------------
    report = check_read_consistency_compiled(ch)
    hb, _cycles = compute_happens_before_compiled(ch, report.bad_ops)

    def _saturate(side="vectorized"):
        relation = _relation_from_compiled(ch)
        assert saturate_cc_compiled(ch, relation, hb, report.bad_ops) == side
        return relation

    def _saturate_fallback():
        with csr.numpy_disabled():
            return _saturate("fallback")

    vectorized_lap = _best_of(_saturate)
    fallback_lap = _best_of(_saturate_fallback)
    co_appends = len(_saturate()._co_log)

    # The streaming pipeline is the unit under test below; a 120k-op
    # object history kept alive during the rounds makes every gen-2 GC
    # pass walk it and inflates the measurement by ~2x on this container.
    del history, ch, hb, report, result
    gc.collect()

    def _pipeline(**kwargs):
        return check_stream_file(path, CC, fmt="plume", **kwargs)

    # -- the CC-work gate: paired calibration/pipeline rounds ------------------
    stream_rounds = []
    for _ in range(ROUNDS):
        cal = calibration_seconds(repeats=3)
        timings: dict = {}
        start = time.perf_counter()
        result = _pipeline(timings=timings)
        seconds = time.perf_counter() - start
        # The stream's CC work, which BENCH_6's fold clock-join lap timed.
        timings["cc_work"] = result.stats["happens_before"] + result.stats["saturation"]
        stream_rounds.append((seconds, dict(timings), cal))
    stream_seconds = min(seconds for seconds, _, _ in stream_rounds)
    cc_work_seconds = min(laps["cc_work"] for _, laps, _ in stream_rounds)
    cc_work_speedup = max(
        (clock_join_baseline * cal / bench6_cal) / laps["cc_work"]
        for _, laps, cal in stream_rounds
    )
    stream_speedup = max(
        (stream_baseline * cal / bench6_cal) / seconds
        for seconds, _, cal in stream_rounds
    )
    stream_laps = {
        key: round(value, 4)
        for key, value in min(stream_rounds, key=lambda r: r[0])[1].items()
    }

    # -- batch_ops sensitivity (same verdict for every value) ------------------
    by_batch_ops = {
        str(batch_ops): round(_best_of(lambda: _pipeline(batch_ops=batch_ops)), 4)
        for batch_ops in (1, 64, DEFAULT_BATCH_OPS, 65536)
    }

    snapshot = {
        "generated_by": "benchmarks/test_saturation_kernels.py::test_bench7_snapshot",
        "saturation_kernel": kernel_used,
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
            "compiled_batch": round(batch_seconds, 4),
            "compiled_batch_pr5_baseline": batch_baseline,
            "pr5_baseline_calibration_seconds": bench5_cal,
            "batch_speedup": round(batch_speedup, 3),
            "compiled_stream_pipeline": round(stream_seconds, 4),
            "compiled_stream_pipeline_pr6_baseline": stream_baseline,
            "pr6_baseline_calibration_seconds": bench6_cal,
            "stream_speedup": round(stream_speedup, 3),
        },
        "batch_cc_phase_seconds": {
            "saturation": round(saturation_seconds, 4),
            "saturation_pr5_baseline": saturation_baseline,
            "saturation_speedup": round(saturation_speedup, 3),
        },
        "saturation_kernel_micro": {
            "note": "CC saturation pass in isolation on the fig9 IR; the "
            "fallback number times the pure-Python kernel the AWDIT_NO_NUMPY "
            "CI leg runs",
            "co_log_appends": co_appends,
            "vectorized_seconds": round(vectorized_lap, 4),
            "fallback_seconds": round(fallback_lap, 4),
            "vectorized_speedup": round(fallback_lap / vectorized_lap, 3),
        },
        "stream_fold_phase_seconds": {
            **stream_laps,
            "fold_clock_join_pr6_baseline": clock_join_baseline,
            "cc_work_speedup": round(cc_work_speedup, 3),
        },
        "stream_cc_seconds_by_batch_ops": {
            "note": "best-of-3 wall seconds; the verdict is identical for "
            "every batch_ops value, only the flush amortization changes. "
            "The BENCH_6-era cliff (64 slower than 1) is why the default "
            "is asserted to never be the worst column",
            **by_batch_ops,
        },
    }
    with open(BENCH7_PATH, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2)
        handle.write("\n")
    results.record("bench7", "snapshot", snapshot)

    assert kernel_used == "vectorized", (
        f"numpy is importable but the batch check reported the "
        f"{kernel_used!r} kernel"
    )
    assert batch_speedup >= BATCH_GATE, (
        f"compiled batch CC must be >= {BATCH_GATE}x the BENCH_5 number "
        f"({batch_baseline}s at calibration {bench5_cal}s), best paired "
        f"round gave {batch_speedup:.2f}x ({batch_seconds:.3f}s at "
        f"calibration {cal_seconds:.4f}s)"
    )
    assert saturation_speedup >= SATURATION_GATE, (
        f"the saturation lap must be cut >= {SATURATION_GATE}x vs BENCH_5 "
        f"({saturation_baseline}s), best paired round gave "
        f"{saturation_speedup:.2f}x ({saturation_seconds:.3f}s)"
    )
    assert cc_work_speedup >= CLOCK_JOIN_GATE, (
        f"the stream's CC work (happens_before + saturation) must be "
        f">= {CLOCK_JOIN_GATE}x faster than the BENCH_6 fold clock-join lap "
        f"({clock_join_baseline}s), best paired round gave "
        f"{cc_work_speedup:.2f}x ({cc_work_seconds:.3f}s)"
    )
    worst = max(by_batch_ops.values())
    assert by_batch_ops[str(DEFAULT_BATCH_OPS)] < worst, (
        f"the default batch_ops ({DEFAULT_BATCH_OPS}) must never be the "
        f"worst sweep column: {by_batch_ops}"
    )
