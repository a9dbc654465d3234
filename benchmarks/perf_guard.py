"""CI perf-regression guard for the compiled CC hot paths.

Re-measures compiled batch CC plus its saturation phase lap against
``BENCH_7.json`` (the vectorized-saturation era numbers) on the 120k-op
fig9-scale history, and the compiled streaming CC pipeline against
the ``compiled_stream_pipeline`` number of ``BENCH_8.json`` on the
600k-op arrival-order stream that snapshot records, and fails (exit 1)
when any of the three regresses more than ``TOLERANCE``.  Gating the
saturation lap on its own means a regression there cannot hide behind a
happens-before or parse improvement -- the exact failure mode that would
reappear if a kernel silently fell back to the pure-Python path (the
guard also fails outright when numpy is importable but the batch check or
the stream reports a fallback saturation kernel).  The committed
baselines are first rescaled by the
machine-speed ratio of the :mod:`_calibration` kernel (its runtime on
this runner vs the runtime recorded alongside the baselines), so a
runner of a different hardware class compares against what *its own*
hardware should achieve, not the dev container's absolute seconds.  The
25% tolerance then only has to absorb run-to-run noise (shared CI
machines routinely jitter by 10-15%); a real regression from an
accidental hash-probe or label re-materialization on the hot path is
far larger than that.

Machines reporting fewer than 2 usable CPUs skip the guard (exit 0): a
single-CPU runner's timings swing too wildly for even a tolerant gate,
and the dev container this repo grows on is exactly such a machine.

Run as ``python benchmarks/perf_guard.py`` (the CI ``perf-guard`` job).
"""

from __future__ import annotations

import gc
import json
import os
import sys
import tempfile
import time

from _calibration import calibration_seconds

from repro.core import IsolationLevel
from repro.core.compiled.cc import check_cc_compiled
from repro.core.compiled.ir import compile_history
from repro.core.compiled.online import check_stream_file
from repro.graph import csr
from repro.histories.formats import plume_text
from repro.histories.generator import (
    RandomHistoryConfig,
    generate_random_history,
    generate_random_stream,
)

TOLERANCE = 1.25  # fail when current > baseline * TOLERANCE
REPEATS = 3

_ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
BENCH7_PATH = os.path.abspath(os.path.join(_ROOT, "BENCH_7.json"))
BENCH8_PATH = os.path.abspath(os.path.join(_ROOT, "BENCH_8.json"))


def effective_cpus() -> int:
    """CPUs actually usable by this process (affinity-aware)."""
    if hasattr(os, "sched_getaffinity"):
        try:
            return len(os.sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - exotic platforms
            pass
    return os.cpu_count() or 1


def _best_of(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def main() -> int:
    cpus = effective_cpus()
    if cpus < 2:
        print(f"perf-guard: skipped ({cpus} CPU visible; timings too noisy)")
        return 0

    with open(BENCH7_PATH, encoding="utf-8") as handle:
        bench7 = json.load(handle)
    with open(BENCH8_PATH, encoding="utf-8") as handle:
        bench8 = json.load(handle)
    batch_baseline = bench7["check_cc_seconds"]["compiled_batch"]
    saturation_baseline = bench7["batch_cc_phase_seconds"]["saturation"]
    stream_baseline = bench8["check_cc_seconds"]["compiled_stream_pipeline"]

    # Rescale the committed baselines to this machine's speed: the same
    # calibration kernel ran when each snapshot was recorded, so the
    # ratio cancels the hardware class out of the comparison (BENCH_7
    # and BENCH_8 each carry their own recorded calibration).
    local_cal = calibration_seconds()
    for snapshot, name in ((bench7, "BENCH_7"), (bench8, "BENCH_8")):
        recorded_cal = snapshot.get("machine_calibration_seconds")
        if not recorded_cal:
            continue
        scale = local_cal / recorded_cal
        print(
            f"perf-guard: calibration {local_cal:.4f}s vs {name} "
            f"{recorded_cal:.4f}s -> baseline scale {scale:.2f}x"
        )
        if snapshot is bench7:
            batch_baseline *= scale
            saturation_baseline *= scale
        else:
            stream_baseline *= scale

    history = generate_random_history(
        RandomHistoryConfig(
            num_sessions=8,
            num_transactions=15_000,
            num_keys=500,
            min_ops_per_txn=6,
            max_ops_per_txn=10,
            read_fraction=0.5,
            mode="serializable",
            seed=11,
        )
    )
    ch = compile_history(history)
    with tempfile.TemporaryDirectory() as tmp:
        # One profiled run set serves both batch gates: the phase laps
        # add only a few perf_counter calls around tenths of work.
        batch_seconds = float("inf")
        saturation_seconds = float("inf")
        kernel_used = None
        for _ in range(REPEATS):
            start = time.perf_counter()
            result = check_cc_compiled(ch)
            batch_seconds = min(batch_seconds, time.perf_counter() - start)
            saturation_seconds = min(saturation_seconds, result.stats["saturation"])
            kernel_used = result.stats["saturation_kernel"]
        del ch, history, result

        # The streaming gate replays BENCH_8's workload: the 5x-fig9
        # arrival-order stream (75k transactions, ~600k operations).
        stream_shape = bench8["streams"]["base"]
        stream_history, order = generate_random_stream(
            RandomHistoryConfig(
                num_sessions=8,
                num_transactions=stream_shape["transactions"],
                num_keys=500,
                min_ops_per_txn=6,
                max_ops_per_txn=10,
                read_fraction=0.5,
                mode="serializable",
                seed=11,
            )
        )
        path = os.path.join(tmp, "stream.plume")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(plume_text.dumps(stream_history, order=order))
        # Match BENCH_8's recording conditions: the streaming pipeline is
        # measured without the generated history alive, so gen-2 GC passes
        # don't walk 600k dead-weight objects mid-run.
        del stream_history, order
        gc.collect()
        stream_seconds = float("inf")
        stream_kernel = None
        for _ in range(REPEATS):
            start = time.perf_counter()
            stream_result = check_stream_file(
                path, IsolationLevel.CAUSAL_CONSISTENCY, fmt="plume"
            )
            stream_seconds = min(stream_seconds, time.perf_counter() - start)
            stream_kernel = stream_result.stats.get("saturation_kernel")

    failed = False
    if csr.HAVE_NUMPY and kernel_used != "vectorized":
        print(
            f"perf-guard: numpy is importable but the batch check reported "
            f"the {kernel_used!r} saturation kernel -- REGRESSION"
        )
        failed = True
    if csr.HAVE_NUMPY and stream_kernel != "vectorized":
        print(
            f"perf-guard: numpy is importable but the stream reported the "
            f"{stream_kernel!r} saturation kernel -- REGRESSION"
        )
        failed = True
    for name, current, committed in (
        ("compiled batch CC", batch_seconds, batch_baseline),
        ("compiled batch CC saturation phase", saturation_seconds, saturation_baseline),
        ("compiled streaming CC pipeline", stream_seconds, stream_baseline),
    ):
        ratio = current / committed
        status = "OK"
        if ratio > TOLERANCE:
            status = f"REGRESSION (> {TOLERANCE:.2f}x baseline)"
            failed = True
        print(
            f"perf-guard: {name}: {current:.3f}s vs committed {committed:.3f}s "
            f"({ratio:.2f}x) -- {status}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
