"""Shared test helpers: the paper's example histories and small utilities."""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.compiled.ir import CompiledHistory
from repro.core.compiled.online import CompiledIncrementalChecker
from repro.core.isolation import IsolationLevel
from repro.core.model import History, Transaction, read, write
from repro.core.result import CheckResult
from repro.histories.formats._raw import DEFAULT_BATCH_OPS, RawTransaction, RecordBatch

#: A ``(session, (label, committed, ops))`` record, as a parser batch holds it.
Record = Tuple[int, RawTransaction]

#: Record-batch sizes a stream is fed at: one op, a prime that cuts
#: transactions, and the parsers' default.
BATCH_OPS = (1, 7, None)


def fig_1a() -> History:
    """Fig. 1a: the RC-inconsistent motivating history."""
    t1 = Transaction([write("x", 1), write("y", 1)], label="t1")
    t2 = Transaction([write("x", 2)], label="t2")
    t3 = Transaction([write("x", 3)], label="t3")
    t4 = Transaction([write("z", 1), write("y", 2)], label="t4")
    t5 = Transaction([read("x", 1), read("x", 2), read("x", 3)], label="t5")
    t6 = Transaction([read("z", 1), read("y", 1)], label="t6")
    return History.from_sessions([[t1], [t2], [t3, t4], [t5, t6]])


def fig_1b() -> History:
    """Fig. 1b: the CC-inconsistent motivating history."""
    t1 = Transaction([write("x", 1)], label="t1")
    t2 = Transaction([write("x", 2)], label="t2")
    t3 = Transaction([write("y", 1), read("z", 2)], label="t3")
    t4 = Transaction([write("x", 3)], label="t4")
    t5 = Transaction([write("z", 1)], label="t5")
    t6 = Transaction([write("x", 4), read("z", 1), write("z", 2)], label="t6")
    t7 = Transaction([read("x", 3), read("y", 1)], label="t7")
    return History.from_sessions([[t1, t2, t3], [t4, t5], [t6], [t7]])


def fig_4a() -> History:
    """Fig. 4a: Read Consistent but RC-inconsistent."""
    t1 = Transaction([write("x", 1)], label="t1")
    t2 = Transaction([write("x", 2)], label="t2")
    t3 = Transaction([read("x", 2), read("x", 1)], label="t3")
    return History.from_sessions([[t1, t2], [t3]])


def fig_4b() -> History:
    """Fig. 4b: RC-consistent but RA-inconsistent."""
    t1 = Transaction([write("x", 1)], label="t1")
    t2 = Transaction([write("x", 2), write("y", 2)], label="t2")
    t3 = Transaction([read("x", 1), read("y", 2)], label="t3")
    return History.from_sessions([[t1, t2], [t3]])


def fig_4c() -> History:
    """Fig. 4c: RA-consistent but CC-inconsistent."""
    t1 = Transaction([write("x", 1)], label="t1")
    t2 = Transaction([write("x", 2)], label="t2")
    t3 = Transaction([read("x", 2), write("y", 3)], label="t3")
    t4 = Transaction([read("y", 3), read("x", 1)], label="t4")
    return History.from_sessions([[t1, t2], [t3], [t4]])


def fig_4d() -> History:
    """Fig. 4d: CC-consistent (but not serializable)."""
    t1 = Transaction([write("x", 1)], label="t1")
    t2 = Transaction([read("x", 1), write("x", 2)], label="t2")
    t3 = Transaction([read("x", 2)], label="t3")
    t4 = Transaction([read("x", 1), write("x", 3)], label="t4")
    t5 = Transaction([read("x", 3)], label="t5")
    return History.from_sessions([[t1], [t2, t3], [t4, t5]])


def all_paper_histories() -> Dict[str, History]:
    """All named example histories keyed by figure name."""
    return {
        "fig_1a": fig_1a(),
        "fig_1b": fig_1b(),
        "fig_4a": fig_4a(),
        "fig_4b": fig_4b(),
        "fig_4c": fig_4c(),
        "fig_4d": fig_4d(),
    }


#: Expected consistency verdicts (RC, RA, CC) for each paper history.
PAPER_VERDICTS = {
    "fig_1a": (False, False, False),
    "fig_1b": (True, True, False),
    "fig_4a": (False, False, False),
    "fig_4b": (True, False, False),
    "fig_4c": (True, True, False),
    "fig_4d": (True, True, True),
}


def raw_of(txn: Transaction) -> RawTransaction:
    """``txn`` as a raw ``(label, committed, ops)`` record."""
    return (
        txn.label,
        txn.committed,
        [(op.is_write, op.key, op.value) for op in txn.operations],
    )


def history_records(
    history: Union[History, CompiledHistory], order: Optional[Iterable[int]] = None
) -> List[Record]:
    """``history``'s raw records in ``order`` (default: session by session).

    ``order`` lists dense transaction ids, like ``plume_text.dumps``'s
    ``order``; transactions of one session must keep their session order.
    The default is the order the parsers deliver a file that
    ``save_history`` wrote.
    """
    if order is None:
        order = [tid for session in history.sessions for tid in session]
    sid_of = [0] * history.num_transactions
    for sid, session in enumerate(history.sessions):
        for tid in session:
            sid_of[tid] = sid
    if isinstance(history, History):
        return [(sid_of[tid], raw_of(history.transactions[tid])) for tid in order]
    keys = history.key_table.values
    values = history.value_table.values
    txn_start = history.txn_start
    records = []
    for tid in order:
        ops = [
            (bool(history.op_kind[i]), keys[history.op_key[i]], values[history.op_value[i]])
            for i in range(txn_start[tid], txn_start[tid + 1])
        ]
        raw = (history.labels.get(tid), bool(history.txn_committed[tid]), ops)
        records.append((sid_of[tid], raw))
    return records


def interleaved_order(history: History, seed: int) -> List[int]:
    """A random arrival order (transaction ids) that respects session order."""
    rng = random.Random(seed)
    positions = [0] * history.num_sessions
    order = []
    live = [sid for sid in range(history.num_sessions) if history.sessions[sid]]
    while live:
        sid = rng.choice(live)
        order.append(history.sessions[sid][positions[sid]])
        positions[sid] += 1
        if positions[sid] == len(history.sessions[sid]):
            live.remove(sid)
    return order


def feed(
    checker: CompiledIncrementalChecker,
    records: Iterable[Record],
    batch_ops: Optional[int] = None,
) -> CompiledIncrementalChecker:
    """Append ``records`` to ``checker`` in batches of up to ``batch_ops`` operations.

    Batches close where the parsers close them (``RecordBatch.full``), so
    ``batch_ops=1`` appends one record per batch; ``None`` is the parsers'
    default size.
    """
    if batch_ops is None:
        batch_ops = DEFAULT_BATCH_OPS
    batch = RecordBatch()
    for session, (label, committed, ops) in records:
        batch.add_record(session, label, committed, ops)
        if batch.full(batch_ops):
            checker.append_batch(batch)
            batch = RecordBatch()
    if batch.num_records:
        checker.append_batch(batch)
    return checker


def stream_check(
    history: History,
    order: Optional[Iterable[int]] = None,
    batch_ops: Optional[int] = None,
    levels: Optional[Sequence[IsolationLevel]] = None,
) -> Dict[IsolationLevel, CheckResult]:
    """Stream ``history``'s records in ``order``; finalize ``levels`` (default: all).

    Sessions are numbered as in a native JSON file (``fill_gaps``), so an
    empty session between two others keeps its place; a trailing empty
    session has no record, so the stream sees :func:`file_view`.
    """
    checker = CompiledIncrementalChecker(levels=levels, fill_gaps=True)
    return feed(checker, history_records(history, order), batch_ops).finalize()


def file_view(history: History) -> History:
    """``history`` without its trailing empty sessions.

    What any reader of a saved history, or any stream of its records,
    holds: a session with no transaction after the last non-empty one
    leaves no record in the file.
    """
    sessions = [[history.transactions[tid] for tid in session] for session in history.sessions]
    while sessions and not sessions[-1]:
        sessions.pop()
    return History.from_sessions(sessions)
