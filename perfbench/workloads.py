"""The benchmark's three histories, written as plume files in arrival order.

A database log delivers transactions in the order they ran, interleaved
across sessions.  ``collect_history`` returns session-blocked histories, and
replaying one of those parks every cross-session read in the streaming fold,
so each generator here keeps the order the transactions arrived in and hands
it to ``plume_text.dumps``.

* ``fig9`` -- ``generate_random_stream`` in serializable mode with 8
  sessions: few sessions keep the CC clock term small, so parse, build,
  classify and saturation share the time.  Consistent, so the witness layer
  idles.
* ``tpcc`` -- the TPC-C mix on the cockroach-like simulated database with 50
  sessions: the paper's workload, where CC's O(n*k) term does real work.
  Serializable, hence consistent at every level.
* ``twitter-buggy`` -- C-Twitter on the same database with stale and
  fractured reads injected: violates RC, RA and CC, so the graph and checker
  layers search for cycles and build violation reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core import IsolationLevel, check
from repro.core.model import History
from repro.db.config import BugRates
from repro.db.database import SimulatedDatabase
from repro.db.profiles import COCKROACH_LIKE, with_overrides
from repro.histories.formats import plume_text
from repro.histories.generator import RandomHistoryConfig, generate_random_stream
from repro.workloads import CTwitterWorkload, TPCCWorkload, Workload

__all__ = ["LEVELS", "WORKLOADS", "Expected", "build_history", "expected_verdicts", "write_plume"]

#: Isolation levels by the short name the CLI takes.
LEVELS = {
    "rc": IsolationLevel.READ_COMMITTED,
    "ra": IsolationLevel.READ_ATOMIC,
    "cc": IsolationLevel.CAUSAL_CONSISTENCY,
}

#: Generator parameters per workload.  ``transactions`` is the full size;
#: the self-test shrinks it.
WORKLOADS: Dict[str, dict] = {
    "fig9": {
        "mode": "serializable",
        "sessions": 8,
        "transactions": 8_000,
        "keys": 500,
        "ops_per_txn": [6, 10],
        "read_fraction": 0.5,
        "consistent": True,
    },
    "tpcc": {
        "sessions": 50,
        "transactions": 6_000,
        "consistent": True,
    },
    "twitter-buggy": {
        "bug_rates": {"stale_read": 0.01, "fractured_read": 0.01},
        "sessions": 50,
        "transactions": 8_000,
        "consistent": False,
    },
}


@dataclass(frozen=True)
class Expected:
    """The verdict one ``awdit check`` must print: consistent, or these kinds."""

    consistent: bool
    kinds: frozenset

    @property
    def exit_code(self) -> int:
        return 0 if self.consistent else 1


def _run_in_arrival_order(
    workload: Workload, database: SimulatedDatabase, sessions: int, transactions: int, seed: int
) -> Tuple[History, List[int]]:
    """``run_workload``'s loop, also recording which session ran each transaction."""
    rng = random.Random(seed)
    clients = database.sessions(sessions)
    database.initialize(workload.initial_keys(), session=clients[0])
    arrival = [(0, 0)]  # the initializing transaction
    for index in range(transactions):
        client = clients[rng.randrange(sessions)]
        txn = client.begin()
        workload.run_transaction(txn, rng, client.session_id, index)
        if not txn._finished:
            txn.commit()
        arrival.append((client.session_id, len(client.recorded) - 1))
    history = database.history()
    return history, [history.sessions[sid][index] for sid, index in arrival]


def build_history(
    name: str, seed: int, transactions: Optional[int] = None
) -> Tuple[History, List[int]]:
    """The history of workload ``name`` for ``seed`` and its arrival order."""
    params = WORKLOADS[name]
    size = params["transactions"] if transactions is None else transactions
    if name == "fig9":
        low, high = params["ops_per_txn"]
        return generate_random_stream(
            RandomHistoryConfig(
                num_sessions=params["sessions"],
                num_transactions=size,
                num_keys=params["keys"],
                min_ops_per_txn=low,
                max_ops_per_txn=high,
                read_fraction=params["read_fraction"],
                mode=params["mode"],
                seed=seed,
            )
        )
    if name == "tpcc":
        workload: Workload = TPCCWorkload()
        config = with_overrides(COCKROACH_LIKE, seed=seed)
    elif name == "twitter-buggy":
        workload = CTwitterWorkload()
        config = with_overrides(
            COCKROACH_LIKE, seed=seed, bug_rates=BugRates(**params["bug_rates"])
        )
    else:
        raise ValueError(f"unknown workload {name!r}; known: {sorted(WORKLOADS)}")
    return _run_in_arrival_order(
        workload, SimulatedDatabase(config), params["sessions"], size, seed
    )


def write_plume(history: History, order: List[int], path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(plume_text.dumps(history, order=order))


def cli_witness_budget() -> int:
    """The default ``--witnesses`` of ``awdit check``, which bounds the kinds it reports."""
    from repro.cli import build_parser

    return build_parser().parse_args(["check", "HISTORY"]).witnesses


def expected_verdicts(name: str, history: History) -> Dict[str, Expected]:
    """The verdict every command must print, per level short name.

    ``fig9`` and ``tpcc`` are serializable by construction.  For the buggy
    history, the object batch engine -- an implementation independent of the
    compiled and online engines under test -- decides each level, with the
    CLI's witness budget so the reported kinds are comparable.
    """
    if WORKLOADS[name]["consistent"]:
        return {short: Expected(True, frozenset()) for short in LEVELS}
    budget = cli_witness_budget()
    expected = {}
    for short, level in LEVELS.items():
        result = check(history, level, max_witnesses=budget, engine="object")
        expected[short] = Expected(
            result.is_consistent, frozenset(str(kind) for kind in result.violation_kinds())
        )
    return expected
