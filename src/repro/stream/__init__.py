"""Streaming (online) isolation checking.

Public surface:

* :class:`CompiledIncrementalChecker` -- the streaming checker
  (:mod:`repro.core.compiled.online`): builds the compiled IR from
  transactions as they are appended, runs the compiled checkers at
  finalize, and supports checkpoint/resume.
* :func:`check_stream_compiled` -- one-shot wrapper over a raw record
  stream.
* :func:`check_stream_file` -- the file-level entry point behind ``awdit
  check --stream``, with checkpoint/resume.
* :func:`check_history_stream` -- stream an in-memory history through the
  streaming checker (the ``check(..., mode="stream")`` implementation).

Pair with the iterator-based parsers
(:func:`repro.histories.formats.stream_raw_history` /
:func:`~repro.histories.formats.stream_raw_batches`) to check on-disk logs
in a single pass without materializing the history.
"""

from repro.core.compiled.online import (
    CompiledIncrementalChecker,
    check_stream_compiled,
    load_checkpoint,
)
from repro.stream.runner import (
    DEFAULT_CHECKPOINT_EVERY,
    check_all_levels_history_stream,
    check_history_stream,
    check_stream_file,
    history_records,
)

__all__ = [
    "DEFAULT_CHECKPOINT_EVERY",
    "CompiledIncrementalChecker",
    "check_all_levels_history_stream",
    "check_history_stream",
    "check_stream_compiled",
    "check_stream_file",
    "history_records",
    "load_checkpoint",
]
