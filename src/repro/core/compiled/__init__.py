"""The compiled-history core: interned, array-backed checking.

Public surface:

* :class:`CompiledHistory` / :func:`compile_history` -- the flat-array IR and
  the one-pass compile from the object model.
* :class:`CompiledHistoryBuilder` -- produce the IR directly from raw parser
  events, skipping ``Operation``/``Transaction`` objects entirely (used by
  :func:`repro.histories.formats.load_compiled`).
* :func:`check_compiled` / :func:`check_all_levels_compiled` -- the AWDIT
  checkers on the IR, byte-identical to the object path.
* :class:`CompiledIncrementalChecker` -- the compiled *streaming* front end
  (:mod:`repro.core.compiled.online`): the builder fed record batch by
  record batch, then these checkers at finalize.
* :class:`Intern` -- the dense interning table.

Every name is imported on first access (PEP 562), so importing a submodule
loads only what it imports: ``load_history`` reads
:func:`~repro.core.compiled.ir.session_order` without compiling the
checkers, and a batch check never loads the streaming checker.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "CompiledHistory": "repro.core.compiled.ir",
        "CompiledHistoryBuilder": "repro.core.compiled.ir",
        "CompiledIncrementalChecker": "repro.core.compiled.online",
        "CompiledReadReport": "repro.core.compiled.checkers",
        "Intern": "repro.core.compiled.ir",
        "check_all_levels_compiled": "repro.core.compiled.checkers",
        "check_compiled": "repro.core.compiled.checkers",
        "check_read_consistency_compiled": "repro.core.compiled.checkers",
        "compile_history": "repro.core.compiled.ir",
    },
)

__all__ = [
    "CompiledHistory",
    "CompiledHistoryBuilder",
    "CompiledIncrementalChecker",
    "CompiledReadReport",
    "Intern",
    "check_all_levels_compiled",
    "check_compiled",
    "check_read_consistency_compiled",
    "compile_history",
]
