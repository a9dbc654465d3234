"""The core AWDIT library: history model and optimal weak-isolation checkers.

Public surface:

* the data model (:class:`Operation`, :class:`Transaction`, :class:`History`),
* the isolation-level enum and lattice (:class:`IsolationLevel`),
* the checkers (:func:`check`, :func:`check_rc`, :func:`check_ra`,
  :func:`check_cc`, :func:`check_ra_single_session`,
  :func:`check_read_consistency`),
* the result and violation types.

These names are imported on first access (PEP 562): ``import repro.core``
loads no checker.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "History": "repro.core.model",
    "Operation": "repro.core.model",
    "OpKind": "repro.core.model",
    "OpRef": "repro.core.model",
    "Transaction": "repro.core.model",
    "read": "repro.core.model",
    "write": "repro.core.model",
    "IsolationLevel": "repro.core.isolation",
    "is_stronger_or_equal": "repro.core.isolation",
    "check": "repro.core.checker",
    "check_all_levels": "repro.core.checker",
    "CompiledHistory": "repro.core.compiled.ir",
    "CompiledHistoryBuilder": "repro.core.compiled.ir",
    "check_all_levels_compiled": "repro.core.compiled.checkers",
    "check_compiled": "repro.core.compiled.checkers",
    "compile_history": "repro.core.compiled.ir",
    "check_rc": "repro.core.rc",
    "check_ra": "repro.core.ra",
    "check_ra_single_session": "repro.core.ra",
    "check_repeatable_reads": "repro.core.ra",
    "check_cc": "repro.core.cc",
    "compute_happens_before": "repro.core.cc",
    "check_read_consistency": "repro.core.read_consistency",
    "ReadConsistencyReport": "repro.core.read_consistency",
    "CheckResult": "repro.core.result",
    "CommitRelation": "repro.core.commit",
    "Violation": "repro.core.violations",
    "ViolationKind": "repro.core.violations",
    "ReadConsistencyViolation": "repro.core.violations",
    "RepeatableReadViolation": "repro.core.violations",
    "CycleViolation": "repro.core.violations",
    "CycleEdge": "repro.core.violations",
    "ReproError": "repro.core.exceptions",
    "HistoryFormatError": "repro.core.exceptions",
    "ParseError": "repro.core.exceptions",
    "UsageError": "repro.core.exceptions",
    "TimeoutExceeded": "repro.core.exceptions",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
