"""AWDIT reproduction: an optimal weak database isolation tester (PLDI 2025).

The package is organised as follows:

* :mod:`repro.core` -- the history model and the AWDIT checking algorithms
  for Read Committed, Read Atomic, and Causal Consistency.
* :mod:`repro.core.compiled` -- the compiled-history core: keys/values/
  sessions interned to dense ints, operations in flat parallel arrays, and
  the checkers ported onto that IR (the default ``check()`` engine).
* :mod:`repro.graph` -- directed-graph, SCC, vector-clock and tree-clock
  substrates.
* :mod:`repro.histories` -- history builders, random generators, and parsers
  for the on-disk formats used by existing testers.
* :mod:`repro.db` -- a multi-replica MVCC key-value database simulator used
  to collect histories (stands in for PostgreSQL / CockroachDB / RocksDB).
* :mod:`repro.workloads` -- TPC-C-like, C-Twitter-like, RUBiS-like, and
  custom workload generators.
* :mod:`repro.baselines` -- reimplementations of the baseline testers the
  paper compares against (Plume, DBCop, CausalC+, TCC-Mono, PolySI, and
  naive reference checkers).
* :mod:`repro.lowerbounds` -- the triangle-freeness reductions behind the
  paper's conditional lower bounds.
* :mod:`repro.stream` -- the streaming (online) checking engine: an online
  checker that consumes transactions as they arrive and pairs with the
  iterator-based format parsers to check logs larger than RAM in one pass.
* :mod:`repro.cli` -- the ``awdit`` command-line tool.

Quickstart::

    from repro import History, Transaction, read, write, check, IsolationLevel

    history = History.from_sessions([
        [Transaction([write("x", 1)]), Transaction([write("x", 2)])],
        [Transaction([read("x", 2), read("x", 1)])],
    ])
    result = check(history, IsolationLevel.READ_COMMITTED)
    print(result.summary())
"""

from repro.core import (
    CheckResult,
    CycleViolation,
    History,
    IsolationLevel,
    Operation,
    OpKind,
    OpRef,
    Transaction,
    Violation,
    ViolationKind,
    check,
    check_all_levels,
    check_cc,
    check_ra,
    check_rc,
    check_read_consistency,
    read,
    write,
)
from repro.core.compiled import (
    CompiledHistory,
    check_compiled,
    compile_history,
)
from repro.stream import CompiledIncrementalChecker, check_stream_file

__version__ = "1.0.0"

__all__ = [
    "History",
    "Transaction",
    "Operation",
    "OpKind",
    "OpRef",
    "read",
    "write",
    "IsolationLevel",
    "check",
    "check_all_levels",
    "check_rc",
    "check_ra",
    "check_cc",
    "check_read_consistency",
    "CheckResult",
    "Violation",
    "ViolationKind",
    "CycleViolation",
    "CompiledHistory",
    "check_compiled",
    "compile_history",
    "CompiledIncrementalChecker",
    "check_stream_file",
    "__version__",
]
