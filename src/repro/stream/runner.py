"""Streaming mode: the file and in-memory entry points, with checkpoints.

Every streaming check runs the
:class:`~repro.core.compiled.online.CompiledIncrementalChecker` -- raw
parser record batches into the compiled IR builder, no model objects, and
the batch checkers at the end.

:func:`check_stream_file` is the CLI's ``awdit check --stream`` entry point
and carries the checkpoint/resume surface: ``checkpoint=`` serializes the
streaming state every ``checkpoint_every`` transactions (and once more before
finalizing), ``resume=True`` restores it and skips the records the
checkpoint already consumed.  :func:`check_history_stream` replays an
in-memory history through the same core (``check(..., mode="stream")``).
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterator, Optional, Tuple, Union

from repro.core.compiled.ir import CompiledHistory
from repro.core.compiled.online import (
    CompiledIncrementalChecker,
    check_stream_compiled,
    checkpoint_temp_path,
    load_checkpoint,
    source_fingerprint,
)
from repro.core.exceptions import HistoryFormatError, UsageError
from repro.core.isolation import IsolationLevel
from repro.core.model import History
from repro.core.result import CheckResult
from repro.histories.formats._raw import RawTransaction

__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "check_all_levels_history_stream",
    "check_history_stream",
    "check_stream_file",
    "history_records",
]

#: Default checkpoint cadence (transactions between saves).
DEFAULT_CHECKPOINT_EVERY = 10_000

_RawRecord = Tuple[object, RawTransaction]


def history_records(
    history: Union[History, CompiledHistory],
) -> Iterator[_RawRecord]:
    """Raw ``(session, (label, committed, ops))`` records of an in-memory history.

    Records come in the on-disk file order (session by session), which is
    the order the streaming parsers would deliver them.
    """
    if isinstance(history, CompiledHistory):
        key_objs = history.key_table.values
        value_objs = history.value_table.values
        op_kind = history.op_kind
        op_key = history.op_key
        op_value = history.op_value
        txn_start = history.txn_start
        for sid, session in enumerate(history.sessions):
            for tid in session:
                lo, hi = txn_start[tid], txn_start[tid + 1]
                ops = [
                    (bool(op_kind[i]), key_objs[op_key[i]], value_objs[op_value[i]])
                    for i in range(lo, hi)
                ]
                yield sid, (
                    history.labels.get(tid),
                    bool(history.txn_committed[tid]),
                    ops,
                )
        return
    for sid, session in enumerate(history.sessions):
        for tid in session:
            txn = history.transactions[tid]
            ops = [(op.is_write, op.key, op.value) for op in txn.operations]
            yield sid, (txn.label, txn.committed, ops)


def check_history_stream(
    history: Union[History, CompiledHistory],
    level: IsolationLevel = IsolationLevel.CAUSAL_CONSISTENCY,
    max_witnesses: Optional[int] = None,
) -> CheckResult:
    """Stream an in-memory history through the streaming checker.

    This is ``check(history, level, mode="stream")``: the history's
    transactions are replayed in file order into the streaming checker.
    """
    return check_stream_compiled(
        history_records(history),
        level,
        max_witnesses=max_witnesses,
        num_sessions=history.num_sessions,
    )


def check_all_levels_history_stream(
    history: Union[History, CompiledHistory],
    max_witnesses: Optional[int] = None,
) -> dict:
    """Stream an in-memory history once, checking all three levels together.

    The all-levels analogue of :func:`check_history_stream`
    (``check_all_levels(..., mode="stream")``): one pass builds the IR and
    one finalize checks all three levels on one read-consistency report.
    """
    checker = CompiledIncrementalChecker(
        num_sessions=history.num_sessions, max_witnesses=max_witnesses
    )
    checker.extend_raw(history_records(history))
    return checker.finalize()


def _same_file(first: str, second: str) -> bool:
    """Whether two paths name one file (one real path, or one inode)."""
    if os.path.realpath(first) == os.path.realpath(second):
        return True
    try:
        return os.path.samefile(first, second)
    except OSError:
        return False


def check_stream_file(
    path: str,
    level: IsolationLevel = IsolationLevel.CAUSAL_CONSISTENCY,
    fmt: Optional[str] = None,
    max_witnesses: Optional[int] = None,
    checkpoint: Optional[str] = None,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    resume: bool = False,
    batch_ops: Optional[int] = None,
    timings: Optional[Dict[str, float]] = None,
) -> CheckResult:
    """One-pass check of an on-disk history (``awdit check --stream``).

    The streaming checker builds the IR from the parsers' record batches
    (``batch_ops`` operations per batch; the verdict is identical for any
    value) and numbers sessions like
    :func:`~repro.histories.formats.load_compiled`
    (:func:`~repro.histories.formats.session_gaps`), so it prints what a
    batch check prints.  ``checkpoint`` periodically serializes the
    checker -- at the first batch boundary past every ``checkpoint_every``
    transactions, and once more before finalizing -- so ``resume=True`` can
    continue an interrupted check, including after completion, when
    resuming simply skips every record and re-finalizes.  Resuming raises
    :class:`~repro.core.exceptions.UsageError` when the checkpoint does not
    track ``level``, and
    :class:`~repro.core.exceptions.HistoryFormatError` when the file ends
    before the transactions the checkpoint already consumed.  A
    ``checkpoint`` that is ``path`` itself, or whose ``.tmp`` save file is,
    raises :class:`~repro.core.exceptions.UsageError` before anything is
    written: a save would replace the history.  So does a ``checkpoint``
    that is a directory or lies in a missing one, before the history is
    read: the first save could not write it.  ``timings`` (``--profile``)
    receives the ``parse`` wall seconds; the ``build`` lap and the
    checkers' laps are in the result's stats.
    """
    # Looked up per call, not bound at import, so a caller can wrap the
    # parser (the layered benchmark times each batch pull this way).
    from repro.histories.formats import session_gaps, stream_raw_batches

    if batch_ops is not None and batch_ops < 1:
        raise ValueError(f"batch_ops must be >= 1, got {batch_ops}")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    if checkpoint is not None:
        for target in (checkpoint, checkpoint_temp_path(checkpoint)):
            if _same_file(path, target):
                raise UsageError(
                    f"{path}: checkpoint {checkpoint} would overwrite the "
                    "history being checked; choose another checkpoint path"
                )
        if os.path.isdir(checkpoint):
            raise UsageError(
                f"--checkpoint {checkpoint} is a directory; give a file path"
            )
        directory = os.path.dirname(os.path.abspath(checkpoint))
        if not os.path.isdir(directory):
            raise UsageError(
                f"--checkpoint {checkpoint}: directory {directory} does not exist"
            )
    if resume:
        if checkpoint is None:
            raise ValueError("resume requires a checkpoint path")
        checker = load_checkpoint(checkpoint, source_path=path)
        if level not in checker.levels:
            raise UsageError(
                f"{checkpoint}: checkpoint tracks "
                f"{[lvl.short_name for lvl in checker.levels]}, "
                f"not {level.short_name}; re-run without --resume"
            )
        # The resumed run's witness budget wins over the one pickled with
        # the original checker.
        checker._max_witnesses = max_witnesses
    else:
        checker = CompiledIncrementalChecker(
            levels=(level,),
            max_witnesses=max_witnesses,
            fill_gaps=session_gaps(path, fmt),
        )
    skip = checker.num_transactions
    parse_lap = 0.0
    source = None if checkpoint is None else source_fingerprint(path)
    since_checkpoint = 0
    batches = stream_raw_batches(path, fmt, batch_ops=batch_ops)
    while True:
        mark = time.perf_counter()
        batch = next(batches, None)
        parse_lap += time.perf_counter() - mark
        if batch is None:
            break
        if skip:
            # Resume: drop whole batches the checkpoint already consumed,
            # then cut the straddling batch at the resume point.
            num_records = len(batch.txn_end)
            if num_records <= skip:
                skip -= num_records
                continue
            batch = batch.tail(skip)
            skip = 0
        checker.append_batch(batch)
        if checkpoint is not None:
            since_checkpoint += len(batch.txn_end)
            if since_checkpoint >= checkpoint_every:
                checker.save_checkpoint(checkpoint, source=source)
                since_checkpoint = 0
    if skip:
        # The file ended before the resume point: the prefix fingerprint
        # matched, but this is not the history the checkpoint consumed.
        # Refuse before the final save so the checkpoint survives.
        consumed = checker.num_transactions
        raise HistoryFormatError(
            f"{path}: holds {consumed - skip} transactions, but checkpoint "
            f"{checkpoint} already consumed {consumed}; re-run without --resume"
        )
    if checkpoint is not None:
        checker.save_checkpoint(checkpoint, source=source)
    if timings is not None:
        timings["parse"] = parse_lap
    return checker.finalize()[level]
