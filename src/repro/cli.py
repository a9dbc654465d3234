"""The ``awdit`` command-line tool.

Subcommands:

* ``awdit check HISTORY --isolation {rc,ra,cc} [--checker NAME]`` -- test a
  history file against an isolation level and print the verdict and
  witnesses (the role of the AWDIT tool in the paper).
* ``awdit generate`` -- run a workload against the simulated database and
  write the collected history to a file.
* ``awdit convert SRC DST`` -- convert a history between on-disk formats.
* ``awdit stats HISTORY`` -- print size statistics of a history file,
  including the compiled IR's interned cardinalities (keys, values,
  sessions) and its estimated in-memory footprint.

Run ``awdit <subcommand> --help`` for the full flag list.

Importing this module loads only what the parser needs: the isolation
levels, the format and baseline names, and the thin :func:`check` and
:func:`format_report` modules.  Each subcommand imports its own machinery
(the loaders, the engines, numpy for a CC check) when it runs, so an
``awdit`` process compiles only the modules its command uses.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import TYPE_CHECKING, List, Optional

from repro.baselines import BASELINE_REGISTRY
from repro.core.checker import check
from repro.core.isolation import IsolationLevel
from repro.core.witnesses import format_report
from repro.histories.formats import FORMATS

if TYPE_CHECKING:
    from repro.core.result import CheckResult

__all__ = ["main", "run", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``awdit`` tool."""
    parser = argparse.ArgumentParser(
        prog="awdit",
        description="AWDIT reproduction: an optimal weak database isolation tester",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    check_parser = subparsers.add_parser("check", help="check a history against an isolation level")
    check_parser.add_argument("history", help="path to the history file")
    check_parser.add_argument(
        "--isolation", "-i", default="cc", help="isolation level: rc, ra, or cc (default: cc)"
    )
    check_parser.add_argument(
        "--format", "-f", default=None, choices=sorted(FORMATS), help="history file format"
    )
    check_parser.add_argument(
        "--checker",
        "-c",
        default="awdit",
        help="checker to use: awdit (default) or one of: " + ", ".join(sorted(BASELINE_REGISTRY)),
    )
    check_parser.add_argument(
        "--witnesses", "-w", type=int, default=5, help="maximum number of witnesses to print"
    )
    check_parser.add_argument(
        "--stream",
        action="store_true",
        help=(
            "check the file in one streaming pass that builds the compiled "
            "IR batch by batch; prints what a batch check prints; only the "
            "awdit checker supports this, and --engine object is batch-only"
        ),
    )
    check_parser.add_argument(
        "--engine",
        default=None,
        choices=["compiled", "object"],
        help=(
            "batch checking engine: 'compiled' (default) runs on the "
            "interned array IR, 'object' runs the reference object-model "
            "checkers; --stream has one engine and accepts only compiled; "
            "conflicts with baseline checkers"
        ),
    )
    check_parser.add_argument(
        "--batch-ops",
        type=int,
        default=None,
        metavar="N",
        help=(
            "operations per parser record batch (default: 4096); every "
            "checker, engine and mode reads the file in these batches -- "
            "the verdict is identical for any value"
        ),
    )
    check_parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "print per-phase wall/alloc timings (parse, build, "
            "read_consistency, saturate, freeze, acyclicity, witness; the "
            "same phases with --stream), and "
            "the saturated relation's co_edges and inferred_edges counts "
            "(CC infers no edge that happens-before already implies), to "
            "stderr after the check, so perf work can see where the time "
            "goes without a profiler"
        ),
    )

    generate_parser = subparsers.add_parser(
        "generate", help="collect a history from the simulated database"
    )
    generate_parser.add_argument("output", help="path of the history file to write")
    generate_parser.add_argument(
        "--workload", default="ctwitter", help="tpcc, ctwitter, rubis, or custom"
    )
    generate_parser.add_argument(
        "--database", default="cockroach", help="postgres, cockroach, or rocksdb profile"
    )
    generate_parser.add_argument(
        "--isolation-mode",
        default=None,
        help="simulator visibility: serializable, causal, read-atomic, read-committed",
    )
    generate_parser.add_argument("--sessions", type=int, default=20)
    generate_parser.add_argument("--transactions", type=int, default=500)
    generate_parser.add_argument("--seed", type=int, default=None)
    generate_parser.add_argument(
        "--format", "-f", default=None, choices=sorted(FORMATS), help="output format"
    )

    convert_parser = subparsers.add_parser("convert", help="convert a history between formats")
    convert_parser.add_argument("source")
    convert_parser.add_argument("destination")
    convert_parser.add_argument("--from-format", default=None, choices=sorted(FORMATS))
    convert_parser.add_argument("--to-format", default=None, choices=sorted(FORMATS))

    stats_parser = subparsers.add_parser("stats", help="print history statistics")
    stats_parser.add_argument("history")
    stats_parser.add_argument("--format", "-f", default=None, choices=sorted(FORMATS))
    return parser


def _conflict(message: str) -> int:
    """Report a flag conflict and return the usage-error exit code."""
    print(f"awdit: error: {message}", file=sys.stderr)
    return 2


def _check_flag_conflicts(args: argparse.Namespace, checker_name: str) -> Optional[str]:
    """The flag-conflict message for ``awdit check``, or ``None`` if coherent.

    Rejected: a negative ``--witnesses``, a ``--batch-ops`` below 1,
    baseline checkers with awdit-engine flags, and batch-only engine choices
    under ``--stream``.
    """
    is_baseline = checker_name not in ("awdit", "default")
    if args.witnesses < 0:
        return f"--witnesses must be >= 0, got {args.witnesses}"
    if args.batch_ops is not None and args.batch_ops < 1:
        return f"--batch-ops must be >= 1, got {args.batch_ops}"
    if args.stream:
        if is_baseline:
            return f"--stream supports only the awdit checker, not {args.checker!r}"
        if args.engine not in (None, "compiled"):
            return (
                f"--stream has one checker; --engine {args.engine} is "
                "batch-only (drop --engine or --stream)"
            )
        return None
    if is_baseline:
        if checker_name not in BASELINE_REGISTRY:
            return None  # unknown checker: reported separately
        if args.engine is not None:
            return (
                f"--engine selects an awdit engine; baseline checker "
                f"{args.checker!r} has its own implementation (drop --engine "
                f"or --checker)"
            )
    return None


#: Timing stats keys printed by ``--profile``, in pipeline order.  The
#: ``cycle_check`` lap spans the freeze/acyclicity/witness entries below it
#: (it times the whole ``find_cycles`` call), so the sub-phases are shown
#: indented under it.  ``build`` is the IR build, in both modes.
_PROFILE_PHASES = (
    ("parse", ""),
    ("build", ""),
    ("read_consistency", ""),
    ("repeatable_reads", ""),
    ("happens_before", ""),
    ("scan", ""),
    ("saturation", ""),
    ("cycle_check", ""),
    ("freeze", "  "),
    ("acyclicity", "  "),
    ("witness", "  "),
)


def _print_profile(
    timings: dict, result: CheckResult, total_seconds: float, peak_bytes: int
) -> None:
    """Render the ``--profile`` per-phase report to stderr."""
    merged = dict(timings)
    merged.update(
        (key, value)
        for key, value in result.stats.items()
        if any(key == name for name, _ in _PROFILE_PHASES)
    )
    print("awdit profile (wall seconds):", file=sys.stderr)
    for name, indent in _PROFILE_PHASES:
        value = merged.get(name)
        if value is not None:
            print(f"  {indent}{name:<18} {value:9.4f}", file=sys.stderr)
    kernel = result.stats.get("saturation_kernel")
    if kernel is not None:
        # Which saturation implementation actually ran (numpy-vectorized
        # or the pure-Python fallback), so snapshots are self-describing.
        print(f"  {'saturation_kernel':<18} {kernel:>9}", file=sys.stderr)
    for name in ("co_edges", "inferred_edges"):
        value = result.stats.get(name)
        if value is not None:
            # The saturated relation's size: its distinct edges, and those
            # of them beyond so ∪ wr.
            print(f"  {name:<18} {value:9d}", file=sys.stderr)
    print(f"  {'total':<18} {total_seconds:9.4f}", file=sys.stderr)
    print(
        f"  peak alloc         {peak_bytes / (1024 * 1024):9.1f} MiB "
        "(tracemalloc)",
        file=sys.stderr,
    )


def _run_check(args: argparse.Namespace) -> int:
    try:
        level = IsolationLevel.from_string(args.isolation)
    except ValueError as exc:
        return _conflict(f"{exc}; expected rc, ra or cc")
    checker_name = args.checker.lower()
    conflict = _check_flag_conflicts(args, checker_name)
    if conflict is not None:
        return _conflict(conflict)
    profile_timings: Optional[dict] = None
    if args.profile:
        import time
        import tracemalloc

        profile_timings = {}
        tracemalloc.start()
        profile_start = time.perf_counter()
    if args.stream:
        from repro.core.compiled.online import check_stream_file

        result: CheckResult = check_stream_file(
            args.history,
            level,
            fmt=args.format,
            max_witnesses=args.witnesses,
            batch_ops=args.batch_ops,
            timings=profile_timings,
        )
    elif checker_name in ("awdit", "default"):
        from repro.histories.formats import load_compiled, load_history

        if level is IsolationLevel.CAUSAL_CONSISTENCY:
            from repro.graph.csr import load_numpy

            # CC is the level whose kernels win from numpy; load it before
            # the parse, so the IR build's unique-writes resolution runs
            # its numpy side too.  RC and RA never load it (repro.graph.csr).
            load_numpy()
        if args.engine != "object":
            # The compiled path can ingest the file without materializing
            # the object model at all.
            compiled = load_compiled(
                args.history,
                fmt=args.format,
                timings=profile_timings,
                batch_ops=args.batch_ops,
            )
            result = check(compiled, level, max_witnesses=args.witnesses)
        else:
            history = load_history(args.history, fmt=args.format, batch_ops=args.batch_ops)
            result = check(history, level, max_witnesses=args.witnesses, engine="object")
    elif checker_name in BASELINE_REGISTRY:
        from repro.histories.formats import load_history

        history = load_history(args.history, fmt=args.format, batch_ops=args.batch_ops)
        result = BASELINE_REGISTRY[checker_name](history, level)
    else:
        known = ", ".join(["awdit"] + sorted(BASELINE_REGISTRY))
        return _conflict(f"unknown checker {args.checker!r}; known: {known}")
    if args.profile:
        total_seconds = time.perf_counter() - profile_start
        _current, peak_bytes = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        _print_profile(profile_timings, result, total_seconds, peak_bytes)
    print(result.summary())
    if not result.is_consistent:
        print(format_report(result.violations, limit=args.witnesses))
    return 0 if result.is_consistent else 1


def _run_generate(args: argparse.Namespace) -> int:
    from repro.db.config import IsolationMode
    from repro.db.profiles import profile_by_name, with_overrides
    from repro.histories.formats import save_history
    from repro.workloads import collect_history, workload_by_name

    if args.sessions < 1:
        return _conflict(f"--sessions must be >= 1, got {args.sessions}")
    if args.transactions < 0:
        return _conflict(f"--transactions must be >= 0, got {args.transactions}")
    modes = [mode.value for mode in IsolationMode]
    if args.isolation_mode and args.isolation_mode not in modes:
        return _conflict(
            f"unknown --isolation-mode {args.isolation_mode!r}; known: {modes}"
        )
    try:
        workload = workload_by_name(args.workload)
        profile = profile_by_name(args.database)
    except ValueError as exc:
        return _conflict(str(exc))
    if args.isolation_mode:
        profile = with_overrides(profile, isolation=IsolationMode(args.isolation_mode))
    profile = with_overrides(profile, seed=args.seed)
    history = collect_history(
        workload,
        profile,
        num_sessions=args.sessions,
        num_transactions=args.transactions,
        seed=args.seed,
    )
    save_history(history, args.output, fmt=args.format)
    print(f"wrote {history.describe()} to {args.output}")
    return 0


def _run_convert(args: argparse.Namespace) -> int:
    from repro.histories.formats import load_history, save_history

    history = load_history(args.source, fmt=args.from_format)
    save_history(history, args.destination, fmt=args.to_format)
    print(f"converted {args.source} -> {args.destination} ({history.describe()})")
    return 0


def _run_stats(args: argparse.Namespace) -> int:
    from repro.histories.formats import load_compiled

    compiled = load_compiled(args.history, fmt=args.format)
    print(compiled.describe())
    txn_start = compiled.txn_start
    sizes = [
        txn_start[tid + 1] - txn_start[tid]
        for tid in range(compiled.num_transactions)
        if compiled.txn_committed[tid]
    ]
    if sizes:
        aborted = compiled.num_transactions - len(sizes)
        print(f"  committed transactions : {len(sizes)}")
        print(f"  aborted transactions   : {aborted}")
        print(f"  avg ops per transaction: {sum(sizes) / len(sizes):.2f}")
        print(f"  max ops per transaction: {max(sizes)}")
    # "distinct keys" is the key intern table's cardinality; the value and
    # session tables get their own lines.
    print(f"  distinct keys          : {compiled.num_keys}")
    print(f"  interned values        : {compiled.num_values}")
    print(f"  interned sessions      : {compiled.num_sessions}")
    footprint = compiled.memory_footprint()
    print(
        f"  compiled footprint     : {footprint['total_bytes'] / 1024:.1f} KiB "
        f"(arrays {footprint['arrays_bytes'] / 1024:.1f} KiB, "
        f"intern tables {footprint['intern_tables_bytes'] / 1024:.1f} KiB)"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``awdit`` command-line tool."""
    from repro.core.exceptions import ReproError

    # awdit calls no BLAS routine, but OpenBLAS starts a thread pool when a
    # CC check loads numpy; one thread halves numpy's import.  It must be set
    # before that import, and a value the user set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return _run_check(args)
        if args.command == "generate":
            return _run_generate(args)
        if args.command == "convert":
            return _run_convert(args)
        if args.command == "stats":
            return _run_stats(args)
    except (ReproError, OSError) as exc:
        # Malformed input, misuse, and unreadable files carry the path (and
        # file/line context) in the message; a traceback would bury it, and
        # exit 1 would read as a VIOLATION verdict.
        print(f"awdit: error: {exc}", file=sys.stderr)
        return 2
    parser.error(f"unknown command {args.command!r}")
    return 2


def run() -> int:
    """The ``awdit`` process: :func:`main`, then a heap the exit leaves alone.

    Interpreter shutdown runs a full garbage collection over every tracked
    object (the IR's, numpy's) only to free memory the process is about to
    return anyway; ``gc.freeze()`` moves them all out of its reach, and
    shutdown still flushes files and runs ``atexit`` handlers.  Tests call
    :func:`main` in-process, so it leaves the collector alone.
    """
    import gc

    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(run())
