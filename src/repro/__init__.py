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
* :mod:`repro.core.compiled.online` -- streaming checks (``awdit check
  --stream``): a checker that builds the compiled IR from a file's parser
  batches as they arrive and runs the batch checkers at the end.  Its
  memory is O(history), like batch, because it holds the same IR.
* :mod:`repro.cli` -- the ``awdit`` command-line tool.

The names below are imported on first access (PEP 562), so importing the
package loads none of these modules.

Quickstart::

    from repro import History, Transaction, read, write, check, IsolationLevel

    history = History.from_sessions([
        [Transaction([write("x", 1)]), Transaction([write("x", 2)])],
        [Transaction([read("x", 2), read("x", 1)])],
    ])
    result = check(history, IsolationLevel.READ_COMMITTED)
    print(result.summary())
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "History": "repro.core.model",
    "Transaction": "repro.core.model",
    "Operation": "repro.core.model",
    "OpKind": "repro.core.model",
    "OpRef": "repro.core.model",
    "read": "repro.core.model",
    "write": "repro.core.model",
    "IsolationLevel": "repro.core.isolation",
    "check": "repro.core.checker",
    "check_all_levels": "repro.core.checker",
    "check_rc": "repro.core.rc",
    "check_ra": "repro.core.ra",
    "check_cc": "repro.core.cc",
    "check_read_consistency": "repro.core.read_consistency",
    "CheckResult": "repro.core.result",
    "Violation": "repro.core.violations",
    "ViolationKind": "repro.core.violations",
    "CycleViolation": "repro.core.violations",
    "CompiledHistory": "repro.core.compiled.ir",
    "check_compiled": "repro.core.compiled.checkers",
    "compile_history": "repro.core.compiled.ir",
    "CompiledIncrementalChecker": "repro.core.compiled.online",
    "check_stream_file": "repro.core.compiled.online",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__version__ = "1.0.0"
