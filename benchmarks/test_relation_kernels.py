"""Relation-core microbenchmarks and the cross-PR ``BENCH_5.json`` snapshot.

The frozen-CSR relation core exists so that the saturation and acyclicity
passes stop paying per-edge hash/label costs: the hot loops append packed
ints to flat logs, one freeze (sort + dedup) builds the CSR rows, and every
kernel (Tarjan SCC, Kahn toposort, cycle extraction) iterates flat slices.
This module measures the layer in isolation -- freeze, SCC, and saturation
on synthetic dense/sparse edge sets, vectorized vs fallback -- and records
the fig9-scale pipeline numbers the PR gates on:

* compiled batch CC must be >= 1.25x the PR 4 era number committed in
  ``BENCH_3.json`` (``check_cc_seconds.compiled_single_process``);
* compiled streaming CC (parse included) must be >= 1.15x the number
  committed in ``BENCH_4.json`` (``stream_cc_pipeline_seconds.compiled``);
* peak checking memory must not exceed the packed-dict era's committed
  peaks (``BENCH_2.json`` batch, ``BENCH_4.json`` streaming).

Everything lands in the repo-root ``BENCH_5.json``.
"""

from __future__ import annotations

import json
import os
import random
import time
import tracemalloc

import pytest
from _calibration import calibration_seconds

from repro.core import IsolationLevel, check
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
from repro.graph.csr import freeze_packed, scc_frozen, toposort_frozen
from repro.graph.digraph import EDGE_SHIFT
from repro.histories.formats import load_compiled, save_history
from repro.histories.generator import RandomHistoryConfig, generate_random_history

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
BENCH5_PATH = os.path.abspath(os.path.join(_ROOT, "BENCH_5.json"))

pytestmark = pytest.mark.bench

CC = IsolationLevel.CAUSAL_CONSISTENCY

#: The PR gates: minimum speedups over the committed PR 4 era numbers.
BATCH_GATE = 1.25
STREAM_GATE = 1.15


def _committed(name: str):
    with open(os.path.abspath(os.path.join(_ROOT, name)), encoding="utf-8") as f:
        return json.load(f)


def _fig9_history(num_transactions: int = 15_000, seed: int = 11):
    """The fig9-scale history used by BENCH_2/BENCH_3/BENCH_4 (120k ops)."""
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


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _peak_mem(fn):
    tracemalloc.start()
    try:
        result = fn()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _synthetic_edges(num_vertices: int, num_edges: int, seed: int):
    """A packed-edge log with duplicates, like a saturation pass emits."""
    rng = random.Random(seed)
    edges = []
    for _ in range(num_edges):
        src = rng.randrange(num_vertices)
        dst = rng.randrange(num_vertices)
        edges.append((src << EDGE_SHIFT) | dst)
    # ~20% duplicated appends: the saturators re-attempt edges freely.
    edges.extend(rng.choices(edges, k=num_edges // 5))
    return edges


def _fallback(fn, *args):
    with csr.numpy_disabled():
        return fn(*args)


def test_bench5_snapshot(tmp_path, results):
    """Record the frozen-CSR relation-core perf snapshot in ``BENCH_5.json``."""
    csr.load_numpy()  # the vectorized freeze runs once numpy is loaded
    bench2 = _committed("BENCH_2.json")
    bench3 = _committed("BENCH_3.json")
    bench4 = _committed("BENCH_4.json")
    batch_baseline = bench3["check_cc_seconds"]["compiled_single_process"]
    stream_baseline = bench4["stream_cc_pipeline_seconds"]["compiled"]
    batch_mem_baseline = bench2["peak_checking_mem_bytes"]["compiled"]
    stream_mem_baseline = bench4["peak_streaming_mem_bytes"]["compiled"]

    history = _fig9_history()
    txns, ops = history.num_transactions, history.num_operations
    ch = compile_history(history)
    path = str(tmp_path / "large.plume")
    save_history(history, path, fmt="plume")

    # -- fig9 pipeline numbers (the PR gates) ----------------------------------
    batch_seconds = _best_of(lambda: check_cc_compiled(ch), repeats=5)
    stream_seconds = _best_of(lambda: check_stream_file(path, CC, fmt="plume"), repeats=5)
    batch_speedup = batch_baseline / batch_seconds
    stream_speedup = stream_baseline / stream_seconds

    result = check_cc_compiled(ch)
    phase = {
        k: round(result.stats[k], 4)
        for k in ("happens_before", "saturation", "freeze", "acyclicity", "witness")
        if k in result.stats
    }

    # -- peak checking memory vs the packed-dict era ---------------------------
    _, stream_peak = _peak_mem(lambda: check_stream_file(path, CC, fmt="plume"))
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
    small_path = str(tmp_path / "small.plume")
    save_history(generate_random_history(small), small_path, fmt="plume")
    _, batch_peak = _peak_mem(
        lambda: check(load_compiled(small_path, fmt="plume"), CC)
    )

    # -- relation-kernel microbenchmarks (synthetic edge sets) -----------------
    micro = {}
    for label, num_vertices, num_edges in (
        ("sparse_50k_vertices_200k_edges", 50_000, 200_000),
        ("dense_2k_vertices_200k_edges", 2_000, 200_000),
    ):
        edges = _synthetic_edges(num_vertices, num_edges, seed=7)
        frozen = freeze_packed(num_vertices, (edges,))
        micro[label] = {
            "appends": len(edges),
            "distinct_edges": frozen.num_edges,
            "freeze_seconds": round(
                _best_of(lambda: freeze_packed(num_vertices, (edges,))), 4
            ),
            "freeze_fallback_seconds": round(
                _best_of(lambda: _fallback(freeze_packed, num_vertices, (edges,))),
                4,
            ),
            "scc_seconds": round(_best_of(lambda: scc_frozen(frozen)), 4),
            "toposort_seconds": round(_best_of(lambda: toposort_frozen(frozen)), 4),
        }

    report = check_read_consistency_compiled(ch)
    hb, _cycles = compute_happens_before_compiled(ch, report.bad_ops)

    def _saturate():
        relation = _relation_from_compiled(ch)
        saturate_cc_compiled(ch, relation, hb, report.bad_ops)
        return relation

    saturation_seconds = _best_of(_saturate)
    co_appends = len(_saturate()._co_log)
    micro["fig9_cc_saturation"] = {
        "co_log_appends": co_appends,
        "seconds": round(saturation_seconds, 4),
        "appends_per_sec": round(co_appends / saturation_seconds, 1),
    }

    snapshot = {
        "generated_by": "benchmarks/test_relation_kernels.py::test_bench5_snapshot",
        "numpy_freeze": csr.HAVE_NUMPY,
        # Single-thread machine-speed reference: benchmarks/perf_guard.py
        # rescales the baselines below by this kernel's runtime ratio, so a
        # CI runner of a different hardware class gates against what its
        # own hardware should achieve.
        "machine_calibration_seconds": round(calibration_seconds(), 4),
        "history": {
            "transactions": txns,
            "operations": ops,
            "sessions": 8,
            "mode": "serializable",
        },
        "check_cc_seconds": {
            "compiled_batch": round(batch_seconds, 4),
            "compiled_batch_pr4_baseline": batch_baseline,
            "batch_speedup": round(batch_speedup, 3),
            "compiled_stream_pipeline": round(stream_seconds, 4),
            "compiled_stream_pipeline_pr4_baseline": stream_baseline,
            "stream_speedup": round(stream_speedup, 3),
        },
        "batch_cc_phase_seconds": phase,
        "peak_checking_mem_bytes": {
            "note": "tracemalloc peaks; batch on the BENCH_2 small-transaction "
            "log, streaming on the 120k-op fig9 log (pipeline)",
            "compiled_batch_small_log": batch_peak,
            "compiled_batch_small_log_pr4_baseline": batch_mem_baseline,
            "compiled_stream": stream_peak,
            "compiled_stream_pr4_baseline": stream_mem_baseline,
        },
        "relation_kernels": micro,
    }
    with open(BENCH5_PATH, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2)
        handle.write("\n")
    results.record("bench5", "snapshot", snapshot)

    assert batch_speedup >= BATCH_GATE, (
        f"compiled batch CC must be >= {BATCH_GATE}x the PR 4 number "
        f"({batch_baseline}s), got {batch_seconds:.3f}s ({batch_speedup:.2f}x)"
    )
    assert stream_speedup >= STREAM_GATE, (
        f"compiled streaming CC must be >= {STREAM_GATE}x the PR 4 number "
        f"({stream_baseline}s), got {stream_seconds:.3f}s ({stream_speedup:.2f}x)"
    )
    assert batch_peak <= batch_mem_baseline, (
        f"batch CC peak {batch_peak} exceeds the packed-dict era "
        f"{batch_mem_baseline}"
    )
    assert stream_peak <= stream_mem_baseline, (
        f"streaming CC peak {stream_peak} exceeds the packed-dict era "
        f"{stream_mem_baseline}"
    )


def test_fallback_freeze_matches_vectorized_on_synthetic_sets():
    """The CI-runner (no numpy) freeze produces bit-identical CSR rows."""
    csr.load_numpy()
    for num_vertices, num_edges in ((5_000, 20_000), (200, 20_000)):
        edges = _synthetic_edges(num_vertices, num_edges, seed=3)
        vectorized = freeze_packed(num_vertices, (edges,))
        fallback = _fallback(freeze_packed, num_vertices, (edges,))
        assert fallback.offsets == vectorized.offsets
        assert fallback.targets == vectorized.targets
