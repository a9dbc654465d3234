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
read-consistency report.  A stream and a batch check of one file build the
same IR and run the same code, so they print the same verdicts, violations
and witnesses (tested in ``tests/test_online_compiled.py`` and
``tests/test_arrival_stream.py``).  Like a batch check, the stream holds the
history's operation columns until finalize.

Checkpoint/resume: :meth:`~CompiledIncrementalChecker.save_checkpoint`
pickles the checker, builder included, to a file; :func:`load_checkpoint`
restores it so an interrupted long-running check continues exactly where it
stopped (``awdit check --stream --checkpoint state.awd`` / ``--resume``).
Checkpoints use :mod:`pickle` under a versioned magic header -- load them
only from trusted paths, like any pickle.
"""

from __future__ import annotations

import os
import pickle
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.compiled.checkers import check_compiled, check_read_consistency_compiled
from repro.core.compiled.ir import CompiledHistoryBuilder
from repro.core.exceptions import HistoryFormatError
from repro.core.isolation import IsolationLevel
from repro.core.result import CheckResult, Stopwatch
from repro.core.violations import Violation
from repro.graph.csr import load_numpy
from repro.histories.formats._raw import DEFAULT_BATCH_OPS, RecordBatch

__all__ = [
    "CompiledIncrementalChecker",
    "check_stream_compiled",
    "checkpoint_temp_path",
    "load_checkpoint",
    "source_fingerprint",
    "CHECKPOINT_MAGIC",
]

ALL_LEVELS: Tuple[IsolationLevel, ...] = (
    IsolationLevel.READ_COMMITTED,
    IsolationLevel.READ_ATOMIC,
    IsolationLevel.CAUSAL_CONSISTENCY,
)

#: Checkpoint file header: magic + format version.  Checkpoints are transient
#: resume state, so only the current version loads; older ones are rejected.
CHECKPOINT_MAGIC = b"AWDITCKPT"
CHECKPOINT_VERSION = 10

#: Bytes of file prefix hashed into the checkpoint source fingerprint.
_FINGERPRINT_PREFIX = 1 << 16

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


def checkpoint_temp_path(path: str) -> str:
    """The temp file a checkpoint save at ``path`` writes before renaming it."""
    return f"{path}.tmp"


def source_fingerprint(path: str, prefix_len: Optional[int] = None) -> dict:
    """A cheap identity fingerprint of the history file behind a checkpoint.

    Hashes the first 64 KiB only (or the recorded ``prefix_len`` when
    re-verifying), so a *growing* log -- the monitoring scenario
    checkpoints exist for -- still matches its own checkpoints, while a
    different, regenerated, or truncated file is rejected at resume.
    """
    # Imported here: hashlib loads OpenSSL (~3.6 MB of RSS), which only a
    # run with a checkpoint needs.
    import hashlib

    size = os.path.getsize(path)
    length = min(size, _FINGERPRINT_PREFIX if prefix_len is None else prefix_len)
    with open(path, "rb") as handle:
        digest = hashlib.sha256(handle.read(length)).hexdigest()
    return {"prefix_len": length, "prefix_sha256": digest}


class CompiledIncrementalChecker:
    """Streaming checker for RC / RA / CC over raw transaction records.

    ``levels`` selects the checks (default: all three); ``num_sessions``
    pre-registers sessions ``0..n-1`` (others register on first arrival);
    ``max_witnesses`` caps the cycle witnesses per level; ``fill_gaps`` is
    the file format's session convention
    (:func:`repro.histories.formats.session_gaps`).  :meth:`append_batch`
    takes whole columnar :class:`~repro.histories.formats._raw.RecordBatch`
    objects (the parsers' ``stream_batches`` layer), :meth:`append_raw` /
    :meth:`extend_raw` the record-at-a-time raw form (``session, label,
    committed, (is_write, key, value) ops``), and :meth:`append` an
    object-model transaction.  Transactions of one session must arrive in
    session order; sessions may interleave arbitrarily.
    """

    def __init__(
        self,
        levels: Optional[Sequence[IsolationLevel]] = None,
        num_sessions: Optional[int] = None,
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
        for sid in range(num_sessions or 0):
            self._builder.add_session(sid)
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
    def levels(self) -> Tuple[IsolationLevel, ...]:
        """The isolation levels this checker checks."""
        return self._levels

    @property
    def num_transactions(self) -> int:
        """Number of transactions appended so far."""
        return self._num_transactions

    @property
    def num_operations(self) -> int:
        """Number of operations appended so far."""
        return self._num_operations

    @property
    def finalized(self) -> bool:
        """True once :meth:`finalize` has produced results."""
        return self._results is not None

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

    def append_raw(
        self,
        session: object,
        label: Optional[str],
        committed: bool,
        ops: Iterable[Tuple[bool, object, object]],
    ) -> None:
        """Add one raw transaction record appended to ``session``.

        ``ops`` are ``(is_write, key, value)`` tuples in program order --
        the records :func:`repro.histories.formats.stream_raw_history`
        yields.
        """
        batch = RecordBatch()
        batch.add_record(session, label, committed, ops)
        self.append_batch(batch)

    def extend_raw(
        self,
        records: Iterable[Tuple[object, Tuple[Optional[str], bool, list]]],
        batch_ops: Optional[int] = None,
    ) -> None:
        """Add many raw ``(session, (label, committed, ops))`` records.

        Records are packed into :class:`RecordBatch` columns of up to
        ``batch_ops`` operations (``None`` = the formats' default); the
        result is identical for any ``batch_ops``.
        """
        if batch_ops is None:
            batch_ops = DEFAULT_BATCH_OPS
        elif batch_ops < 1:
            raise ValueError(f"batch_ops must be >= 1, got {batch_ops}")
        batch = RecordBatch()
        for session, (label, committed, ops) in records:
            batch.add_record(session, label, committed, ops)
            if batch.full(batch_ops):
                self.append_batch(batch)
                batch = RecordBatch()
        if batch.num_records:
            self.append_batch(batch)

    def append(self, session: object, transaction) -> None:
        """Add one object-model :class:`~repro.core.model.Transaction`."""
        self.append_raw(
            session,
            transaction.label,
            transaction.committed,
            [(op.is_write, op.key, op.value) for op in transaction.operations],
        )

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

    # -- checkpoint/resume -------------------------------------------------------

    def save_checkpoint(self, path: str, source: Optional[dict] = None) -> None:
        """Serialize the checker, builder included, to ``path``.

        A :func:`load_checkpoint`'ed checker continues the stream from
        record ``num_transactions`` onward and finalizes identically to an
        uninterrupted run.  Finalized checkers cannot be checkpointed.

        ``source`` optionally records a fingerprint of the stream being
        checked (see :func:`source_fingerprint`); :func:`load_checkpoint`
        verifies it so a checkpoint cannot silently resume against a
        different history.  The write is atomic and durable: the temp file
        is fsynced before it is renamed over ``path``, the directory is
        fsynced after the rename so the rename itself survives a crash, and
        a failed write removes the temp file, so an interrupted save never
        destroys the previous checkpoint.
        """
        if self._results is not None:
            raise RuntimeError("cannot checkpoint a finalized checker")
        payload = {
            "records_consumed": self._num_transactions,
            "levels": [level.name for level in self._levels],
            "source": source,
            "checker": self,
        }
        scratch = checkpoint_temp_path(path)
        try:
            with open(scratch, "wb") as handle:
                handle.write(CHECKPOINT_MAGIC)
                handle.write(bytes([CHECKPOINT_VERSION]))
                pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(scratch, path)
        except BaseException:
            try:
                os.unlink(scratch)
            except OSError:
                pass
            raise
        directory = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        if IsolationLevel.CAUSAL_CONSISTENCY in self._levels:
            load_numpy()


def load_checkpoint(
    path: str, source_path: Optional[str] = None
) -> CompiledIncrementalChecker:
    """Restore a :class:`CompiledIncrementalChecker` from a checkpoint file.

    The returned checker has consumed ``checker.num_transactions`` records;
    skip that many records of the stream and keep appending.  Raises
    :class:`~repro.core.exceptions.HistoryFormatError` on a bad header, an
    unsupported version, or a truncated or corrupt body, or -- when
    ``source_path`` is given and the checkpoint recorded a source
    fingerprint -- when ``source_path`` is not the history the checkpoint
    was taken from (resuming against a different file would silently mix
    two runs; the comparison re-hashes the recorded prefix length, so a
    log that merely *grew* since the save still matches).  Checkpoints are
    pickles: load only files you wrote yourself.
    """
    with open(path, "rb") as handle:
        magic = handle.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise HistoryFormatError(f"{path}: not an awdit checkpoint file")
        version = handle.read(1)
        if not version or version[0] != CHECKPOINT_VERSION:
            raise HistoryFormatError(
                f"{path}: unsupported checkpoint version "
                f"{version[0] if version else '<missing>'}"
            )
        try:
            payload = pickle.load(handle)
            checker = payload["checker"]
        except (
            pickle.UnpicklingError,
            EOFError,
            AttributeError,
            ImportError,
            IndexError,
            KeyError,
            TypeError,
            ValueError,
        ) as exc:
            # What a cut-short or bit-flipped pickle raises varies with
            # where the damage lands; every case means the same thing.
            raise HistoryFormatError(
                f"{path}: truncated or corrupt checkpoint; re-run without --resume"
            ) from exc
    if not isinstance(checker, CompiledIncrementalChecker):  # pragma: no cover
        raise HistoryFormatError(f"{path}: checkpoint does not contain a checker")
    recorded = payload.get("source")
    if source_path is not None and recorded is not None:
        current = source_fingerprint(source_path, prefix_len=recorded["prefix_len"])
        if current != recorded:
            raise HistoryFormatError(
                f"{path}: checkpoint was taken from a different history than "
                f"{source_path} (source fingerprint mismatch); re-run without "
                "--resume"
            )
    return checker


def check_stream_compiled(
    records: Iterable[Tuple[object, Tuple[Optional[str], bool, list]]],
    level: IsolationLevel = IsolationLevel.CAUSAL_CONSISTENCY,
    max_witnesses: Optional[int] = None,
    num_sessions: Optional[int] = None,
) -> CheckResult:
    """One-pass check of a raw record stream against ``level``.

    Feed it :func:`repro.histories.formats.stream_raw_history` and no model
    objects are ever constructed.
    """
    checker = CompiledIncrementalChecker(
        levels=(level,),
        num_sessions=num_sessions,
        max_witnesses=max_witnesses,
    )
    checker.extend_raw(records)
    return checker.finalize()[level]
