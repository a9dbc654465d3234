"""Random history generation and anomaly injection.

Two complementary tools for producing test and benchmark inputs:

* :func:`generate_random_history` -- simulate clients executing read/write
  transactions against an idealized store.  In ``serializable`` mode each
  transaction observes the latest committed writes, so the resulting history
  satisfies every weak isolation level (used as the "consistent" population
  in tests and benchmarks).  In ``random_reads`` mode reads observe an
  arbitrary earlier write, which almost always produces anomalies (used for
  fuzzing the checkers against the naive reference implementations).

* :func:`inject_anomaly` -- append a small self-contained gadget of fresh
  transactions over fresh keys that introduces exactly one anomaly of the
  requested kind (future read, causality cycle, an RC / RA / CC violation,
  ...).  Because the gadget uses keys disjoint from the base history, the
  injected anomaly is the only new violation, which is what the Table 1
  reproduction needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.model import History, Operation, Transaction, read, write
from repro.core.violations import ViolationKind

__all__ = [
    "RandomHistoryConfig",
    "generate_random_history",
    "generate_random_stream",
    "inject_anomaly",
    "INJECTABLE_ANOMALIES",
]


@dataclass
class RandomHistoryConfig:
    """Parameters for :func:`generate_random_history`.

    ``mode`` is ``"serializable"`` (reads observe the latest committed write;
    history is consistent at every level) or ``"random_reads"`` (reads observe
    a uniformly random earlier write; history is almost always inconsistent).
    """

    num_sessions: int = 4
    num_transactions: int = 40
    num_keys: int = 10
    min_ops_per_txn: int = 2
    max_ops_per_txn: int = 6
    read_fraction: float = 0.5
    abort_probability: float = 0.0
    mode: str = "serializable"
    seed: Optional[int] = None

    def validate(self) -> None:
        """Raise ``ValueError`` for inconsistent parameter combinations."""
        if self.num_sessions <= 0:
            raise ValueError("num_sessions must be positive")
        if self.num_transactions < 0:
            raise ValueError("num_transactions must be non-negative")
        if self.num_keys <= 0:
            raise ValueError("num_keys must be positive")
        if not (0 < self.min_ops_per_txn <= self.max_ops_per_txn):
            raise ValueError("need 0 < min_ops_per_txn <= max_ops_per_txn")
        if not (0.0 <= self.read_fraction <= 1.0):
            raise ValueError("read_fraction must be in [0, 1]")
        if not (0.0 <= self.abort_probability < 1.0):
            raise ValueError("abort_probability must be in [0, 1)")
        if self.mode not in ("serializable", "random_reads"):
            raise ValueError(f"unknown mode {self.mode!r}")


def generate_random_history(config: RandomHistoryConfig) -> History:
    """Generate a random history according to ``config`` (see the module docstring)."""
    sessions, _arrival = _generate_sessions(config)
    return History.from_sessions(sessions)


def generate_random_stream(config: RandomHistoryConfig) -> Tuple[History, List[int]]:
    """Generate a random history plus its *arrival order*.

    The simulation picks a random session per transaction in generation
    order; :meth:`History.from_sessions` renumbers session-blocked and loses
    that interleaving.  The returned order lists the dense transaction ids in
    generation (arrival) order -- the realistic input order for the streaming
    checkers, and the one that keeps cross-session reads resolvable on
    arrival (a session-blocked replay parks every cross-session read until
    the writer's whole session has been fed).  Same seed, same history as :func:`generate_random_history`.
    """
    sessions, arrival = _generate_sessions(config)
    history = History.from_sessions(sessions)
    order = [history.sessions[sid][sidx] for sid, sidx in arrival]
    return history, order


def _generate_sessions(
    config: RandomHistoryConfig,
) -> Tuple[List[List[Transaction]], List[Tuple[int, int]]]:
    """The shared simulation: per-session transactions plus arrival order.

    ``arrival`` holds one ``(session, session_index)`` pair per generated
    transaction, in generation order.
    """
    config.validate()
    rng = random.Random(config.seed)
    keys = [f"k{i}" for i in range(config.num_keys)]

    sessions: List[List[Transaction]] = [[] for _ in range(config.num_sessions)]
    arrival: List[Tuple[int, int]] = []
    latest_value: Dict[str, Optional[int]] = {key: None for key in keys}
    all_values: Dict[str, List[int]] = {key: [] for key in keys}
    next_value = 1

    for index in range(config.num_transactions):
        session = rng.randrange(config.num_sessions)
        num_ops = rng.randint(config.min_ops_per_txn, config.max_ops_per_txn)
        committed = rng.random() >= config.abort_probability
        operations: List[Operation] = []
        local_latest: Dict[str, int] = {}
        for _ in range(num_ops):
            key = rng.choice(keys)
            if rng.random() < config.read_fraction:
                if key in local_latest:
                    operations.append(read(key, local_latest[key]))
                    continue
                if config.mode == "serializable":
                    value = latest_value[key]
                else:
                    choices = all_values[key]
                    value = rng.choice(choices) if choices else None
                if value is None:
                    # Nothing written to this key yet; write instead so the
                    # history stays free of accidental thin-air reads.
                    operations.append(write(key, next_value))
                    local_latest[key] = next_value
                    next_value += 1
                else:
                    operations.append(read(key, value))
            else:
                operations.append(write(key, next_value))
                local_latest[key] = next_value
                next_value += 1
        if committed:
            for key, value in local_latest.items():
                latest_value[key] = value
                all_values[key].append(value)
        arrival.append((session, len(sessions[session])))
        sessions[session].append(
            Transaction(operations, committed=committed, label=f"g{index}")
        )

    # Sessions may legitimately end up empty; History supports that.
    return sessions, arrival


# --------------------------------------------------------------------------
# Anomaly injection gadgets
# --------------------------------------------------------------------------

INJECTABLE_ANOMALIES: Tuple[ViolationKind, ...] = (
    ViolationKind.THIN_AIR_READ,
    ViolationKind.ABORTED_READ,
    ViolationKind.FUTURE_READ,
    ViolationKind.NOT_OWN_WRITE,
    ViolationKind.NOT_LATEST_WRITE,
    ViolationKind.NON_REPEATABLE_READ,
    ViolationKind.CAUSALITY_CYCLE,
    ViolationKind.COMMIT_ORDER_CYCLE,
)


def _fresh_key_base(history: History) -> str:
    """A key prefix guaranteed not to collide with existing keys."""
    existing = history.keys
    index = 0
    while True:
        base = f"anomaly{index}"
        if not any(str(key).startswith(base) for key in existing):
            return base
        index += 1


def _fresh_value(history: History) -> int:
    """An integer value larger than any integer value in the history."""
    largest = 0
    for txn in history.transactions:
        for op in txn.operations:
            if isinstance(op.value, int) and op.value > largest:
                largest = op.value
    return largest + 1


def inject_anomaly(
    history: History,
    kind: ViolationKind,
    rng: Optional[random.Random] = None,
) -> History:
    """Return a copy of ``history`` extended with one anomaly gadget of ``kind``.

    The gadget transactions use fresh keys and fresh values, so the only new
    violations introduced are the ones inherent to the gadget.  The kinds in
    :data:`INJECTABLE_ANOMALIES` are supported.
    """
    if kind not in INJECTABLE_ANOMALIES:
        raise ValueError(f"cannot inject anomaly of kind {kind}")
    rng = rng or random.Random(0)
    base = _fresh_key_base(history)
    value = _fresh_value(history)
    x, y, z = f"{base}_x", f"{base}_y", f"{base}_z"
    v1, v2, v3 = value, value + 1, value + 2

    sessions: List[List[Transaction]] = [
        [history.transactions[tid] for tid in session] for session in history.sessions
    ]
    if not sessions:
        sessions = [[]]

    def clone_transactions() -> List[List[Transaction]]:
        # Transactions carry dense ids assigned by their owning history;
        # rebuild fresh Transaction objects so the new history can re-assign.
        rebuilt: List[List[Transaction]] = []
        for session in sessions:
            rebuilt.append(
                [
                    Transaction(t.operations, committed=t.committed, label=t.label)
                    for t in session
                ]
            )
        return rebuilt

    new_sessions = clone_transactions()

    def pick_session() -> int:
        return rng.randrange(len(new_sessions))

    if kind is ViolationKind.THIN_AIR_READ:
        new_sessions[pick_session()].append(
            Transaction([read(x, v1)], label="inj_thin_air")
        )
    elif kind is ViolationKind.ABORTED_READ:
        sid = pick_session()
        new_sessions[sid].append(
            Transaction([write(x, v1)], committed=False, label="inj_aborted_writer")
        )
        other = (sid + 1) % len(new_sessions) if len(new_sessions) > 1 else sid
        new_sessions[other].append(
            Transaction([read(x, v1)], label="inj_aborted_reader")
        )
    elif kind is ViolationKind.FUTURE_READ:
        new_sessions[pick_session()].append(
            Transaction([read(x, v1), write(x, v1)], label="inj_future_read")
        )
    elif kind is ViolationKind.NOT_OWN_WRITE:
        sid = pick_session()
        new_sessions[sid].append(Transaction([write(x, v1)], label="inj_now_writer"))
        new_sessions[sid].append(
            Transaction([write(x, v2), read(x, v1)], label="inj_now_reader")
        )
    elif kind is ViolationKind.NOT_LATEST_WRITE:
        sid = pick_session()
        new_sessions[sid].append(
            Transaction([write(x, v1), write(x, v2)], label="inj_nlw_writer")
        )
        other = (sid + 1) % len(new_sessions) if len(new_sessions) > 1 else sid
        new_sessions[other].append(Transaction([read(x, v1)], label="inj_nlw_reader"))
    elif kind is ViolationKind.NON_REPEATABLE_READ:
        sid = pick_session()
        new_sessions[sid].append(Transaction([write(x, v1)], label="inj_nrr_w1"))
        new_sessions[sid].append(Transaction([write(x, v2)], label="inj_nrr_w2"))
        other = (sid + 1) % len(new_sessions) if len(new_sessions) > 1 else sid
        new_sessions[other].append(
            Transaction([read(x, v1), read(x, v2)], label="inj_nrr_reader")
        )
    elif kind is ViolationKind.CAUSALITY_CYCLE:
        # Two transactions in different sessions, each reading the other's
        # write: a wr cycle.
        sid_a = pick_session()
        sid_b = (sid_a + 1) % len(new_sessions) if len(new_sessions) > 1 else sid_a
        new_sessions[sid_a].append(
            Transaction([write(x, v1), read(y, v2)], label="inj_cycle_a")
        )
        new_sessions[sid_b].append(
            Transaction([write(y, v2), read(x, v1)], label="inj_cycle_b")
        )
    elif kind is ViolationKind.COMMIT_ORDER_CYCLE:
        # The Fig. 4a gadget: an RC violation (hence a co' cycle at every
        # level) without any causality cycle.
        sid_a = pick_session()
        sid_b = (sid_a + 1) % len(new_sessions) if len(new_sessions) > 1 else sid_a
        new_sessions[sid_a].append(Transaction([write(x, v1)], label="inj_co_w1"))
        new_sessions[sid_a].append(Transaction([write(x, v2)], label="inj_co_w2"))
        new_sessions[sid_b].append(
            Transaction([read(x, v2), read(x, v1)], label="inj_co_reader")
        )
    return History.from_sessions(new_sessions)
