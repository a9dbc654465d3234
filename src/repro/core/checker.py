"""Unified checker entry point.

:func:`check` dispatches a history and an isolation level to the matching
AWDIT algorithm (Algorithms 1-3 of the paper), using the linear-time
single-session specialization for RA (Theorem 1.6) when at most one
session holds a transaction.  :func:`check_all_levels` runs all three
levels sharing a single Read Consistency pass.

Two interchangeable engines implement the algorithms:

* ``"compiled"`` (the default) first compiles the history to the interned
  array IR of :mod:`repro.core.compiled` and runs the int-id checkers
  (:func:`~repro.core.compiled.checkers.check_compiled`) -- the fast path
  for anything beyond toy histories.
* ``"object"`` runs directly over the :class:`~repro.core.model.History`
  object graph -- kept as the readable reference implementation and as the
  oracle the compiled engine is property-tested against.

Both engines return byte-identical results (verdicts, violation kinds,
witness renderings, inferred-edge counts).  Each engine decides Theorem
1.6 in one place: ``check_compiled`` for the compiled engine and
:func:`_check_object` here for the object engine.

On-disk histories can also stream through
:func:`repro.core.compiled.online.check_stream_file` (``awdit check
--stream``), which builds the same IR batch by batch and runs the compiled
engine on it.

Importing this module loads neither engine: :func:`check` imports the
compiled checkers on its compiled branch and the object engine only on
its ``engine="object"`` branch, so each check compiles one engine.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Union

from repro.core.isolation import IsolationLevel

if TYPE_CHECKING:
    from repro.core.compiled.ir import CompiledHistory
    from repro.core.model import History
    from repro.core.read_consistency import ReadConsistencyReport
    from repro.core.result import CheckResult

__all__ = ["check", "check_all_levels"]

_ENGINES = ("compiled", "object")


def _is_object_engine(history: Union[History, CompiledHistory], engine: str) -> bool:
    """Whether ``engine`` is the object engine; refuses what neither engine takes."""
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
    if engine == "compiled":
        return False
    from repro.core.compiled.ir import CompiledHistory

    if isinstance(history, CompiledHistory):
        raise ValueError("a CompiledHistory requires the compiled engine")
    return True


def check(
    history: Union[History, CompiledHistory],
    level: IsolationLevel = IsolationLevel.CAUSAL_CONSISTENCY,
    max_witnesses: Optional[int] = None,
    engine: str = "compiled",
) -> CheckResult:
    """Check whether ``history`` satisfies ``level``.

    Parameters
    ----------
    history:
        The transaction history to test: a :class:`History`, or an
        already-compiled :class:`CompiledHistory` (which skips the compile
        pass and needs the compiled engine).
    level:
        The isolation level to test against (RC, RA, or CC).
    max_witnesses:
        If given, stop extracting cycle witnesses after this many (the
        verdict is unaffected; only the witness list is truncated).
    engine:
        ``"compiled"`` (default) or ``"object"``; see the module docstring.
    """
    if _is_object_engine(history, engine):
        return _check_object(history, level, max_witnesses)
    from repro.core.compiled.checkers import check_compiled

    return check_compiled(history, level, max_witnesses=max_witnesses)


def _check_object(
    history: History,
    level: IsolationLevel,
    max_witnesses: Optional[int],
    report: Optional[ReadConsistencyReport] = None,
) -> CheckResult:
    """The object engine's dispatch; ``report`` is a Read Consistency report to share.

    RA takes Theorem 1.6's linear path when at most one session holds a
    transaction (a format may keep empty sessions).
    """
    if level is IsolationLevel.READ_COMMITTED:
        from repro.core.rc import check_rc

        return check_rc(history, max_witnesses=max_witnesses, read_consistency=report)
    if level is IsolationLevel.READ_ATOMIC:
        from repro.core.ra import check_ra, check_ra_single_session

        if sum(1 for s in history.sessions if s) <= 1:
            return check_ra_single_session(
                history, max_witnesses=max_witnesses, read_consistency=report
            )
        return check_ra(history, max_witnesses=max_witnesses, read_consistency=report)
    if level is IsolationLevel.CAUSAL_CONSISTENCY:
        from repro.core.cc import check_cc

        return check_cc(history, max_witnesses=max_witnesses, read_consistency=report)
    raise ValueError(f"unsupported isolation level: {level!r}")


def check_all_levels(
    history: Union[History, CompiledHistory],
    max_witnesses: Optional[int] = None,
    engine: str = "compiled",
) -> Dict[IsolationLevel, CheckResult]:
    """Check the history against RC, RA, and CC, sharing one Read Consistency pass.

    Each level goes through the same dispatch as a standalone :func:`check`
    call, so specializations such as the single-session RA fast path apply
    identically here.  With the default compiled engine the history is
    compiled once and all three levels run on the same IR.
    """
    if not _is_object_engine(history, engine):
        from repro.core.compiled.checkers import check_all_levels_compiled

        return check_all_levels_compiled(history, max_witnesses=max_witnesses)
    from repro.core.read_consistency import check_read_consistency

    report = check_read_consistency(history)
    return {
        level: _check_object(history, level, max_witnesses, report)
        for level in (
            IsolationLevel.READ_COMMITTED,
            IsolationLevel.READ_ATOMIC,
            IsolationLevel.CAUSAL_CONSISTENCY,
        )
    }
