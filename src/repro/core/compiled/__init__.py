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
  record batch, then these checkers at finalize.  Its names are imported
  on first access (PEP 562), so a batch check never loads it.
* :class:`Intern` -- the dense interning table.
"""

from repro.core.compiled.checkers import (
    CompiledReadReport,
    check_all_levels_compiled,
    check_compiled,
    check_read_consistency_compiled,
)
from repro.core.compiled.ir import (
    CompiledHistory,
    CompiledHistoryBuilder,
    Intern,
    compile_history,
)
from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "CompiledIncrementalChecker": "repro.core.compiled.online",
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
