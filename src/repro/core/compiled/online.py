"""The streaming checker: record batches into one builder, batch checks at the end.

AWDIT checks RC, RA and CC (Algorithms 1-3) in two steps -- saturate a
commit order over the *complete* history, then test it for a cycle -- so a
stream has nothing to report before its last transaction arrives.
:class:`CompiledIncrementalChecker` is therefore a thin owner of one
:class:`~repro.core.compiled.ir.CompiledHistoryBuilder`:
:meth:`~CompiledIncrementalChecker.append_batch` is the builder's
``add_batch``, and :meth:`~CompiledIncrementalChecker.finalize` builds the
IR with the batch loaders' session convention and runs
:func:`~repro.core.compiled.checkers.check_compiled` per level on one shared
read-consistency report.  :func:`check_stream_file` (``awdit check
--stream``) feeds it a file's parser batches.  A stream and a batch check of
one file build the same IR and run the same code, so they print the same
verdicts, violations and witnesses (tested in
``tests/test_online_compiled.py`` and ``tests/test_arrival_stream.py``).
Like a batch check, the stream holds the history's operation columns until
finalize.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.compiled.checkers import check_compiled, check_read_consistency_compiled
from repro.core.compiled.ir import CompiledHistoryBuilder
from repro.core.isolation import IsolationLevel
from repro.core.result import Stopwatch
from repro.graph.csr import load_numpy

if TYPE_CHECKING:
    from repro.core.result import CheckResult
    from repro.core.violations import Violation
    from repro.histories.formats._raw import RecordBatch

__all__ = ["CompiledIncrementalChecker", "check_stream_file"]

ALL_LEVELS: Tuple[IsolationLevel, ...] = (
    IsolationLevel.READ_COMMITTED,
    IsolationLevel.READ_ATOMIC,
    IsolationLevel.CAUSAL_CONSISTENCY,
)

#: ``live_stats()`` counters of the online fold this checker replaced.  The
#: layered benchmark still reads them; the builder does none of that work,
#: so each reads 0.
_FOLD_COUNTERS = (
    "resolve_fast_path",
    "resolve_slow_path",
    "resolve_parked",
    "peak_pending_reads",
    "inferred_edge_log",
    "classify_vectorized",
    "classify_fallback",
    "cc_joins_fallback",
    "cc_joins_vectorized",
)


class CompiledIncrementalChecker:
    """Streaming checker for RC / RA / CC over the parsers' record batches.

    ``levels`` selects the checks (default: all three); ``max_witnesses``
    caps the cycle witnesses per level; ``fill_gaps`` is the file format's
    session convention (:func:`repro.histories.formats.session_gaps`).
    :meth:`append_batch` takes whole columnar
    :class:`~repro.histories.formats._raw.RecordBatch` objects (the parsers'
    ``stream_batches`` layer).  Transactions of one session must arrive in
    session order; sessions may interleave arbitrarily.
    """

    def __init__(
        self,
        levels: Optional[Sequence[IsolationLevel]] = None,
        max_witnesses: Optional[int] = None,
        fill_gaps: bool = False,
    ) -> None:
        chosen = tuple(levels) if levels is not None else ALL_LEVELS
        for level in chosen:
            if level not in ALL_LEVELS:
                raise ValueError(f"unsupported isolation level: {level!r}")
        self._levels = chosen
        self._max_witnesses = max_witnesses
        self._fill_gaps = fill_gaps
        self._builder = CompiledHistoryBuilder()
        self._num_transactions = 0
        self._num_operations = 0
        #: Wall seconds spent in :meth:`append_batch` (the IR build so far).
        self._build_seconds = 0.0
        self._results: Optional[Dict[IsolationLevel, CheckResult]] = None
        if IsolationLevel.CAUSAL_CONSISTENCY in chosen:
            # A CC check loads numpy before the IR build, so unique-writes
            # resolution runs the side CC saturation will (repro.graph.csr).
            load_numpy()

    # -- public surface --------------------------------------------------------

    @property
    def num_transactions(self) -> int:
        """Number of transactions appended so far."""
        return self._num_transactions

    @property
    def num_operations(self) -> int:
        """Number of operations appended so far."""
        return self._num_operations

    @property
    def violations(self) -> List[Violation]:
        """Every level's violations, each once; empty until :meth:`finalize`."""
        found: Dict[int, Violation] = {}
        for result in (self._results or {}).values():
            for violation in result.violations:
                found.setdefault(id(violation), violation)
        return list(found.values())

    def append_batch(self, batch: RecordBatch) -> None:
        """Add one columnar :class:`RecordBatch` to the history being built."""
        if self._results is not None:
            raise RuntimeError("cannot append to a finalized checker")
        start = time.perf_counter()
        self._builder.add_batch(batch)
        self._num_transactions += batch.num_records
        self._num_operations += batch.num_ops
        self._build_seconds += time.perf_counter() - start

    def finalize(self) -> Dict[IsolationLevel, CheckResult]:
        """Build the IR and return one :class:`CheckResult` per level.

        Each level runs :func:`check_compiled` on one shared read-consistency
        report, so a result differs from a batch check's only in its
        ``awdit-stream`` checker name and its ``build`` lap, which counts
        the appends too.  Its elapsed time is, as in a batch check, the
        checks' alone: the shared read-consistency lap plus the level's own
        laps.  Idempotent.
        """
        if self._results is not None:
            return self._results
        watch = Stopwatch()
        ch = self._builder.finalize(fill_gaps=self._fill_gaps)
        build = self._build_seconds + watch.lap("build")
        report = check_read_consistency_compiled(ch)
        read_consistency = watch.lap("read_consistency")
        results: Dict[IsolationLevel, CheckResult] = {}
        for level in ALL_LEVELS:
            if level in self._levels:
                result = check_compiled(
                    ch, level, max_witnesses=self._max_witnesses, report=report
                )
                result.checker = result.checker.replace("awdit", "awdit-stream", 1)
                result.stats.update(build=build, read_consistency=read_consistency)
                result.elapsed_seconds += read_consistency
                results[level] = result
        self._results = results
        return results

    # -- hooks read by the layered benchmark ------------------------------------

    def enable_fold_profile(self) -> Dict[str, float]:
        """The laps of the online fold this checker replaced, each 0.0.

        The layered benchmark (``perfbench/traced.py``) still reads the
        ``intern`` / ``dispatch`` / ``classify`` / ``clock_join`` keys; the
        time that work took is now the builder's, in the ``build`` lap.
        """
        return dict.fromkeys(("intern", "dispatch", "classify", "clock_join"), 0.0)

    def live_stats(self) -> Dict[str, int]:
        """Sizes appended so far, plus the replaced fold's counters at 0."""
        return {
            "transactions": self._num_transactions,
            "operations": self._num_operations,
            **dict.fromkeys(_FOLD_COUNTERS, 0),
        }


def check_stream_file(
    path: str,
    level: IsolationLevel = IsolationLevel.CAUSAL_CONSISTENCY,
    fmt: Optional[str] = None,
    max_witnesses: Optional[int] = None,
    batch_ops: Optional[int] = None,
    timings: Optional[Dict[str, float]] = None,
) -> CheckResult:
    """One-pass check of an on-disk history (``awdit check --stream``).

    The streaming checker builds the IR from the parsers' record batches
    (``batch_ops`` operations per batch; the verdict is identical for any
    value) and numbers sessions like
    :func:`~repro.histories.formats.load_compiled`
    (:func:`~repro.histories.formats.session_gaps`), so it prints what a
    batch check prints.  ``timings`` (``--profile``) receives the ``parse``
    wall seconds; the ``build`` lap and the checkers' laps are in the
    result's stats.
    """
    # Looked up per call, not bound at import, so a caller can wrap the
    # parser (the layered benchmark times each batch pull this way).
    from repro.histories.formats import session_gaps, stream_raw_batches

    if batch_ops is not None and batch_ops < 1:
        raise ValueError(f"batch_ops must be >= 1, got {batch_ops}")
    checker = CompiledIncrementalChecker(
        levels=(level,),
        max_witnesses=max_witnesses,
        fill_gaps=session_gaps(path, fmt),
    )
    parse_lap = 0.0
    batches = stream_raw_batches(path, fmt, batch_ops=batch_ops)
    while True:
        mark = time.perf_counter()
        batch = next(batches, None)
        parse_lap += time.perf_counter() - mark
        if batch is None:
            break
        checker.append_batch(batch)
    if timings is not None:
        timings["parse"] = parse_lap
    return checker.finalize()[level]
