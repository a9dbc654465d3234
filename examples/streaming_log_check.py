#!/usr/bin/env python3
"""Check a large on-disk history log in one streaming pass.

The batch workflow (`load_history` + `check`) materializes the entire
history in memory before checking it.  This example shows the streaming
workflow instead:

1. generate a sizeable history and write it to disk as a plume-style log,
2. replay the log's parser record batches through CompiledIncrementalChecker,
   which builds the compiled IR batch by batch, with progress reporting,
3. finalize: AWDIT decides every level on the complete history, so the
   checker's violations fill here,
4. compare the verdicts with the batch checker.

Run with::

    python examples/streaming_log_check.py
"""

import os
import tempfile

from repro import CompiledIncrementalChecker, IsolationLevel, check, check_stream_file
from repro.core.witnesses import format_report
from repro.histories.formats import load_history, save_history, stream_raw_batches
from repro.histories.generator import (
    RandomHistoryConfig,
    generate_random_history,
    inject_anomaly,
)
from repro.core.violations import ViolationKind


def make_log(path: str) -> None:
    """Write a ~40k-operation log containing one injected anomaly."""
    config = RandomHistoryConfig(
        num_sessions=6,
        num_transactions=5000,
        num_keys=300,
        min_ops_per_txn=4,
        max_ops_per_txn=10,
        read_fraction=0.5,
        mode="serializable",
        seed=42,
    )
    history = generate_random_history(config)
    history = inject_anomaly(history, ViolationKind.NOT_LATEST_WRITE)
    save_history(history, path, fmt="plume")
    size_kb = os.path.getsize(path) // 1024
    print(f"wrote {history.describe()} to {path} ({size_kb} KiB)")


def stream_check(path: str) -> None:
    """One-pass check with progress reporting; violations at finalize."""
    checker = CompiledIncrementalChecker(levels=(IsolationLevel.CAUSAL_CONSISTENCY,))
    for batch in stream_raw_batches(path, fmt="plume"):
        checker.append_batch(batch)
        print(
            f"  .. {checker.num_transactions} txns "
            f"({checker.num_operations} ops) appended"
        )
    results = checker.finalize()
    for violation in checker.violations:
        print(f"  !! {violation.describe()}")
    result = results[IsolationLevel.CAUSAL_CONSISTENCY]
    print(f"\nstreaming verdict : {result.summary()}")
    if not result.is_consistent:
        print(format_report(result.violations, limit=3))

    # `awdit check --stream` runs the same loop in one call.
    one_call = check_stream_file(path, IsolationLevel.CAUSAL_CONSISTENCY, fmt="plume")
    print(f"one-call verdict  : {one_call.summary()}")

    # The batch checker agrees (both build the same IR and run the same
    # checkers, so verdicts and violation messages are identical).
    batch = check(load_history(path, fmt="plume"), IsolationLevel.CAUSAL_CONSISTENCY)
    print(f"batch verdict     : {batch.summary()}")
    assert batch.is_consistent == result.is_consistent == one_call.is_consistent


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "observed.plume")
        make_log(path)
        stream_check(path)


if __name__ == "__main__":
    main()
