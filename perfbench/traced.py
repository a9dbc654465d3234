"""``awdit check`` with spans around the calls into each layer.

Usage::

    python3 perfbench/traced.py SPANS_JSON HISTORY [awdit check flags...]

It imports ``repro.cli``, wraps the public functions that ``awdit check``
calls on its way through each layer, and then runs
``repro.cli.main(["check", HISTORY, *flags])``: the output and the exit code
are the CLI's own.  Each wrapped call records a span (name, start, end,
parent).  At exit the spans, the checker's own phase laps and its counters
go to ``SPANS_JSON``.  Spans live in a list until the check ends, so
recording one costs two clock reads and an append.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from contextlib import contextmanager


class Tracer:
    """Spans in memory: ``[name, start, end, parent index]`` rows."""

    def __init__(self) -> None:
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        row = [name, time.perf_counter(), None, parent]
        self.spans.append(row)
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            row[2] = time.perf_counter()

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a version that runs inside span ``name``."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        setattr(owner, attr, traced)


def instrument(tracer: Tracer) -> dict:
    """Wrap the layers' public functions; returns what the wrappers record.

    The returned dict receives ``result`` (the ``CheckResult`` the CLI
    prints), and for streaming checks ``fold_laps`` and ``live_stats``.
    """
    import repro.cli
    import repro.histories.formats as formats
    from repro.core.compiled import CompiledHistoryBuilder
    from repro.core.compiled import checkers
    from repro.core.compiled.online import CompiledIncrementalChecker
    from repro.core.result import CheckResult

    seen: dict = {}

    # A generator: only the pulls are parse time, not the consumer's work
    # between them.
    stream_raw_batches = formats.stream_raw_batches

    @functools.wraps(stream_raw_batches)
    def traced_batches(*args, **kwargs):
        batches = stream_raw_batches(*args, **kwargs)
        while True:
            with tracer.span("formats.parse"):
                batch = next(batches, None)
            if batch is None:
                return
            yield batch

    formats.stream_raw_batches = traced_batches

    tracer.wrap(CompiledHistoryBuilder, "add_batch", "ir.build")
    tracer.wrap(CompiledHistoryBuilder, "finalize", "ir.build")
    tracer.wrap(checkers, "check_read_consistency_compiled", "checkers.read_consistency")
    tracer.wrap(repro.cli, "check", "checkers.check")

    init = CompiledIncrementalChecker.__init__
    finalize = CompiledIncrementalChecker.finalize

    @functools.wraps(init)
    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        seen["fold_laps"] = self.enable_fold_profile()

    @functools.wraps(finalize)
    def traced_finalize(self):
        seen["live_stats"] = self.live_stats()
        with tracer.span("online.finalize"):
            return finalize(self)

    CompiledIncrementalChecker.__init__ = traced_init
    CompiledIncrementalChecker.finalize = traced_finalize
    tracer.wrap(CompiledIncrementalChecker, "append_batch", "online.fold")

    summary = CheckResult.summary

    @functools.wraps(summary)
    def traced_summary(self):
        seen["result"] = self
        with tracer.span("witnesses.render"):
            return summary(self)

    CheckResult.summary = traced_summary
    tracer.wrap(repro.cli, "format_report", "witnesses.render")
    return seen


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: traced.py SPANS_JSON HISTORY [awdit check flags...]", file=sys.stderr)
        return 2
    spans_path, history, *flags = argv
    tracer = Tracer()
    with tracer.span("process"):
        with tracer.span("cli.import"):
            import repro.cli  # the import every awdit command pays
        seen = instrument(tracer)
        code = repro.cli.main(["check", history, *flags])
        sys.stdout.flush()
    result = seen["result"]
    stats = {
        key: value
        for key, value in result.stats.items()
        if isinstance(value, (int, float, str))
    }
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "spans": tracer.spans,
                "stats": stats,
                "violations": len(result.violations),
                "fold_laps": dict(seen.get("fold_laps", {})),
                "live_stats": seen.get("live_stats", {}),
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
