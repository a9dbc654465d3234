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
  (:mod:`repro.core.compiled.online`): read resolution and classification
  folded online over raw parser records, then these checkers on the
  resolved IR at finalize, with checkpoint/resume.
* :class:`Intern` -- the dense interning table (also used by the streaming
  checker's fold).
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
from repro.core.compiled.online import (
    CompiledIncrementalChecker,
    check_stream_compiled,
    load_checkpoint,
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
    "check_stream_compiled",
    "compile_history",
    "load_checkpoint",
]
