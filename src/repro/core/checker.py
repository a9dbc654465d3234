"""Unified checker entry point.

:func:`check` dispatches a history and an isolation level to the matching
AWDIT algorithm (Algorithms 1-3 of the paper), automatically using the
linear-time single-session specialization for RA (Theorem 1.6) when it
applies.  :func:`check_all_levels` runs all three levels sharing a single
Read Consistency pass.

Two interchangeable engines implement the algorithms:

* ``"compiled"`` (the default) first compiles the history to the interned
  array IR of :mod:`repro.core.compiled` and runs the int-id checkers -- the
  fast path for anything beyond toy histories.
* ``"object"`` runs directly over the :class:`~repro.core.model.History`
  object graph -- kept as the readable reference implementation and as the
  oracle the compiled engine is property-tested against.

Both engines return byte-identical results (verdicts, violation kinds,
witness renderings, inferred-edge counts).  ``engine="auto"`` resolves to
``"compiled"``, except when a precomputed object-path
:class:`ReadConsistencyReport` is supplied for reuse.

On-disk histories can also stream through
:func:`repro.core.compiled.online.check_stream_file` (``awdit check
--stream``), which builds the same IR batch by batch and runs the compiled
engine on it.

Importing this module loads neither engine: :func:`check` imports the
compiled checkers on its compiled branches and the object engine only on
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

_ENGINES = ("auto", "compiled", "object")


def check(
    history: Union[History, CompiledHistory],
    level: IsolationLevel = IsolationLevel.CAUSAL_CONSISTENCY,
    max_witnesses: Optional[int] = None,
    use_single_session_fast_path: bool = True,
    read_consistency: Optional[ReadConsistencyReport] = None,
    engine: str = "auto",
) -> CheckResult:
    """Check whether ``history`` satisfies ``level``.

    Parameters
    ----------
    history:
        The transaction history to test: a :class:`History`, or an
        already-compiled :class:`CompiledHistory` (which skips the compile
        pass and always uses a compiled-IR engine).
    level:
        The isolation level to test against (RC, RA, or CC).
    max_witnesses:
        If given, stop extracting cycle witnesses after this many (the
        verdict is unaffected; only the witness list is truncated).
    use_single_session_fast_path:
        Use the linear-time RA algorithm of Theorem 1.6 when at most one
        session of the history holds a transaction.
    read_consistency:
        A precomputed object-path Read Consistency report to reuse (one RC
        pass can be shared across several levels); supplying it pins the
        object engine.
    engine:
        ``"auto"`` (default), ``"compiled"``, or ``"object"``; see the
        module docstring.
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
    from repro.core.compiled.ir import CompiledHistory

    compiled = isinstance(history, CompiledHistory)
    if compiled:
        if engine == "object":
            raise ValueError("a CompiledHistory requires a compiled-IR engine")
        if read_consistency is not None:
            raise ValueError(
                "read_consistency reports belong to the object engine; "
                "compiled checkers share a CompiledReadReport instead"
            )
    elif read_consistency is not None and engine == "compiled":
        raise ValueError(
            "read_consistency reports belong to the object engine; pass "
            "engine='object' (or 'auto') to reuse one, or let the compiled "
            "engine share a CompiledReadReport via check_all_levels"
        )
    if compiled or (engine != "object" and read_consistency is None):
        from repro.core.compiled.checkers import check_compiled

        return check_compiled(
            history,
            level,
            max_witnesses=max_witnesses,
            use_single_session_fast_path=use_single_session_fast_path,
        )
    if level is IsolationLevel.READ_COMMITTED:
        from repro.core.rc import check_rc

        return check_rc(
            history, max_witnesses=max_witnesses, read_consistency=read_consistency
        )
    if level is IsolationLevel.READ_ATOMIC:
        from repro.core.ra import check_ra, check_ra_single_session

        if use_single_session_fast_path and sum(1 for s in history.sessions if s) <= 1:
            return check_ra_single_session(
                history, max_witnesses=max_witnesses, read_consistency=read_consistency
            )
        return check_ra(
            history, max_witnesses=max_witnesses, read_consistency=read_consistency
        )
    if level is IsolationLevel.CAUSAL_CONSISTENCY:
        from repro.core.cc import check_cc

        return check_cc(
            history, max_witnesses=max_witnesses, read_consistency=read_consistency
        )
    raise ValueError(f"unsupported isolation level: {level!r}")


def check_all_levels(
    history: Union[History, CompiledHistory],
    max_witnesses: Optional[int] = None,
    use_single_session_fast_path: bool = True,
    engine: str = "auto",
) -> Dict[IsolationLevel, CheckResult]:
    """Check the history against RC, RA, and CC, sharing one Read Consistency pass.

    Each level goes through the same dispatch as a standalone :func:`check`
    call, so specializations such as the single-session RA fast path apply
    identically here.  With the default compiled engine the history is
    compiled once and all three levels run on the same IR.
    """
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {_ENGINES}")
    from repro.core.compiled.ir import CompiledHistory

    if isinstance(history, CompiledHistory) and engine == "object":
        raise ValueError("a CompiledHistory requires a compiled-IR engine")
    if engine != "object" or isinstance(history, CompiledHistory):
        from repro.core.compiled.checkers import check_all_levels_compiled

        return check_all_levels_compiled(
            history,
            max_witnesses=max_witnesses,
            use_single_session_fast_path=use_single_session_fast_path,
        )
    from repro.core.read_consistency import check_read_consistency

    report = check_read_consistency(history)
    return {
        level: check(
            history,
            level,
            max_witnesses=max_witnesses,
            use_single_session_fast_path=use_single_session_fast_path,
            read_consistency=report,
            engine="object",
        )
        for level in (
            IsolationLevel.READ_COMMITTED,
            IsolationLevel.READ_ATOMIC,
            IsolationLevel.CAUSAL_CONSISTENCY,
        )
    }
