"""One layered benchmark of the whole ``awdit check`` process.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload {fig9,tpcc,twitter-buggy} --seed N \
        --seconds S --trace {0,1}

The seed makes one history (see ``workloads.py``), written as a plume file.
Then, for ``S`` seconds, rounds of five commands run on it, each in a fresh
process: ``awdit check FILE -i {rc,ra,cc}`` and ``awdit check FILE --stream
-i {rc,cc}``.  Every command's exit code, verdict and violation kinds are
checked against the expected ones; a wrong one counts as failed.

``--trace 0`` reports the end-to-end metrics: each command's median wall
time, the median peak RSS of the two CC commands, and ``setup_s``, the median
time a fresh interpreter takes to import ``repro.cli`` and exit (sampled at
set-up and once per round).  Every sample is logged, and so is one timing of
the repo's calibration kernel per round, as a record of host speed that
never rescales a metric.
``--trace 1`` runs each command twice per round, once as the CLI and once
through ``traced.py``, which runs the CLI with spans around the calls into
each layer, and reports the layer breakdown of each command's fastest traced
run plus its tracing overhead against the fastest untraced run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Command name -> ``awdit check FILE`` arguments.
COMMANDS = {
    "check_rc": ["-i", "rc"],
    "check_ra": ["-i", "ra"],
    "check_cc": ["-i", "cc"],
    "stream_rc": ["--stream", "-i", "rc"],
    "stream_cc": ["--stream", "-i", "cc"],
}
#: Commands whose peak RSS is an end-to-end metric.
RSS_COMMANDS = ("check_cc", "stream_cc")
#: Fresh-interpreter imports per run behind ``setup_s``.
SETUP_REPEATS = 3
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 120

_SUMMARY = re.compile(r"^\[[^\]]+\] (\w+): (CONSISTENT|VIOLATION)(?: \((.*?)\))? in ")


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # Fixed string hashing, so the traced counters repeat exactly.
    env["PYTHONHASHSEED"] = "0"
    return env


class Child:
    """One finished child process: wall seconds, exit code, peak RSS, output."""

    def __init__(self, argv: List[str], work: Path, env: Dict[str, str]) -> None:
        out_path, err_path = work / "stdout.txt", work / "stderr.txt"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall = time.perf_counter() - start
        # wait4 reaped the child; tell Popen so it does not wait again.
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
        self.stdout = out_path.read_text(encoding="utf-8", errors="replace")
        self.stderr = err_path.read_text(encoding="utf-8", errors="replace")


def verdict_error(child: Child, level: str, expected) -> Optional[str]:
    """Why ``child``'s output differs from ``expected``, or ``None`` if it matches."""
    if "Traceback" in child.stderr:
        return "printed a traceback"
    if child.code != expected.exit_code:
        return f"exit code {child.code}, expected {expected.exit_code}"
    first = child.stdout.splitlines()[0] if child.stdout else ""
    match = _SUMMARY.match(first)
    if match is None or match.group(1) != level.upper():
        return f"no {level.upper()} verdict line: {first[:120]!r}"
    consistent = match.group(2) == "CONSISTENT"
    kinds = frozenset(k.strip() for k in (match.group(3) or "").split(",") if k.strip())
    if consistent != expected.consistent or kinds != expected.kinds:
        return f"verdict {first[:120]!r}, expected kinds {sorted(expected.kinds)}"
    return None


def layer_metrics(command: str, trace: dict, wall: float) -> Dict[str, tuple]:
    """Per-layer ``(value, unit)`` of one traced run, named ``command.module.measure``."""
    spans = trace["spans"]
    busy: Dict[str, float] = defaultdict(float)
    for name, start, end, _parent in spans:
        busy[name] += end - start
    top_level = sum(end - start for _n, start, end, parent in spans if parent == 0)
    stats = trace["stats"]
    metrics: Dict[str, tuple] = {}

    def put(name: str, value: float, unit: str = "s") -> None:
        metrics[f"{command}.{name}"] = (value, unit)

    put("cli.import_s", busy["cli.import"])
    put("formats.parse_s", busy["formats.parse"])
    if command.startswith("check_"):
        put("ir.build_s", busy["ir.build"])
        put("checkers.read_consistency_s", busy["checkers.read_consistency"])
        if command == "check_ra":
            put("checkers.repeatable_reads_s", stats.get("repeatable_reads", 0.0))
        if command == "check_cc":
            put("checkers.happens_before_s", stats.get("happens_before", 0.0))
        put("kernels.saturation_s", stats.get("saturation", 0.0))
        put("graph.freeze_s", stats.get("freeze", 0.0))
        put("graph.acyclicity_s", stats.get("acyclicity", 0.0))
        put("graph.witness_s", stats.get("witness", 0.0))
        put("kernels.inferred_edges", stats.get("inferred_edges", 0), "count")
        put("graph.co_edges", stats.get("co_edges", 0), "count")
        put(
            "kernels.saturation_vectorized",
            int(stats.get("saturation_kernel") == "vectorized"),
            "flag",
        )
    else:
        laps = trace["fold_laps"]
        live = trace["live_stats"]
        put("online.fold_s", busy["online.fold"])
        for lap in ("intern", "dispatch", "classify"):
            put(f"online.{lap}_s", laps[lap])
        if command == "stream_cc":
            put("online.clock_join_s", laps["clock_join"])
        put("online.finalize_s", busy["online.finalize"])
        for name, key in (
            ("resolve_fast", "resolve_fast_path"),
            ("resolve_slow", "resolve_slow_path"),
            ("resolve_parked", "resolve_parked"),
            ("peak_pending_reads", "peak_pending_reads"),
            ("inferred_edge_log", "inferred_edge_log"),
            ("classify_vectorized", "classify_vectorized"),
            ("classify_fallback", "classify_fallback"),
        ):
            put(f"online.{name}", live[key], "count")
        if command == "stream_cc":
            put("online.joins_fallback", live["cc_joins_fallback"], "count")
            put("online.joins_vectorized", live["cc_joins_vectorized"], "count")
    put("witnesses.render_s", busy["witnesses.render"])
    put("checkers.violations", trace["violations"], "count")
    put("unaccounted_s", wall - top_level)
    return metrics


def load_calibration() -> Callable[[], float]:
    """One timing of the repo's single-thread calibration kernel.

    A diagnostic of host speed only: it is logged beside the samples and
    never rescales a metric.
    """
    spec = importlib.util.spec_from_file_location(
        "_calibration", ROOT / "benchmarks" / "_calibration.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return lambda: module.calibration_seconds(repeats=1)


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    transactions: Optional[int] = None,
    expected: Optional[dict] = None,
    log: Callable[[str], None] = print,
) -> dict:
    """Set up ``workload`` for ``seed``, measure for ``seconds``, return the result.

    ``transactions`` shrinks the history and ``expected`` replaces the
    expected verdicts; the self-test uses both.
    """
    work = ROOT / ".perfbench-work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        return _measure(work, workload, seed, seconds, trace, transactions, expected, log)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def _measure(work, workload, seed, seconds, trace, transactions, expected, log) -> dict:
    import workloads  # imports repro, so only once the sources are on sys.path

    env = _child_env()
    python = sys.executable
    history_path = work / f"{workload}.plume"

    start = time.perf_counter()
    history, order = workloads.build_history(workload, seed, transactions)
    workloads.write_plume(history, order, str(history_path))
    generate_s = time.perf_counter() - start
    if expected is None:
        expected = workloads.expected_verdicts(workload, history)
    num_transactions = len(history.transactions)
    operations = sum(len(txn.operations) for txn in history.transactions)
    log(
        f"# {workload} seed={seed}: {num_transactions} txns, {operations} ops, "
        f"{history.num_sessions} sessions, generated in {generate_s:.2f} s"
    )
    for level, verdict in expected.items():
        log(f"#   expected {level}: exit {verdict.exit_code}, kinds {sorted(verdict.kinds)}")
    del history, order

    # Warm the bytecode and page caches once; users do not pay that per run.
    import_argv = [python, "-c", "import repro.cli"]
    Child(import_argv, work, env)
    setup: List[float] = []
    calibrate = load_calibration()
    calibration: List[float] = []

    def set_up() -> None:
        child = Child(import_argv, work, env)
        if child.code != 0:
            raise RuntimeError(f"importing repro.cli failed:\n{child.stderr}")
        setup.append(child.wall)

    for _ in range(SETUP_REPEATS):
        set_up()
    calibration.append(calibrate())

    walls: Dict[str, List[float]] = defaultdict(list)
    rss: Dict[str, List[float]] = defaultdict(list)
    traced: Dict[str, List[tuple]] = defaultdict(list)  # (wall, spans json)
    attempted = failed = 0
    spans_path = work / "spans.json"

    def attempt(command: str, argv: List[str]) -> Child:
        nonlocal attempted, failed
        child = Child(argv, work, env)
        attempted += 1
        level = COMMANDS[command][-1]
        error = verdict_error(child, level, expected[level])
        if error is not None:
            failed += 1
            log(f"# FAILED {command}: {error}; stderr tail: {child.stderr[-300:]!r}")
        return child

    began = time.perf_counter()
    rounds: List[float] = []
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - began + rounds[-1] <= seconds:
        round_start = time.perf_counter()
        set_up()
        calibration.append(calibrate())
        for command, args in COMMANDS.items():
            cli_argv = [python, "-m", "repro.cli", "check", str(history_path), *args]
            if not trace:
                child = attempt(command, cli_argv)
                walls[command].append(child.wall)
                rss[command].append(child.rss_mb)
                continue
            traced_argv = [
                python, str(HERE / "traced.py"), str(spans_path), str(history_path), *args
            ]
            # Alternate which variant runs first, so drift does not favour one.
            for use_trace in (False, True) if len(rounds) % 2 == 0 else (True, False):
                if not use_trace:
                    walls[command].append(attempt(command, cli_argv).wall)
                    continue
                spans_path.unlink(missing_ok=True)
                child = attempt(command, traced_argv)
                if spans_path.exists():
                    with open(spans_path, encoding="utf-8") as handle:
                        traced[command].append((child.wall, json.load(handle)))
        rounds.append(time.perf_counter() - round_start)
    log(f"# {len(rounds)} rounds in {time.perf_counter() - began:.1f} s")
    log("# sample setup " + " ".join(f"{x:.4f}" for x in setup))
    log("# calibration " + " ".join(f"{x:.4f}" for x in calibration))
    for command, values in walls.items():
        log(f"# sample {command} " + " ".join(f"{x:.4f}" for x in values))

    metrics: Dict[str, dict] = {}

    def emit(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    if not trace:
        # Medians, not best samples: on a host that switches between a fast
        # and a slow speed, the best sample of a run hinges on whether one
        # command happened to land in a short fast spell.
        emit("setup_s", statistics.median(setup), "s")
        for command in COMMANDS:
            emit(f"{command}_s", statistics.median(walls[command]), "s")
        for command in RSS_COMMANDS:
            emit(f"{command}_rss_mb", statistics.median(rss[command]), "MB")
    else:
        emit("machine.calibration_s", statistics.median(calibration), "s")
        emit("setup.generate_s", generate_s, "s")
        emit("history.transactions", num_transactions, "count")
        emit("history.operations", operations, "count")
        for command, samples in traced.items():
            # One traced run's breakdown, so its laps add up to its wall.
            wall, spans = min(samples, key=lambda sample: sample[0])
            for name, (value, unit) in layer_metrics(command, spans, wall).items():
                emit(name, value, unit)
            emit(f"{command}.trace_overhead", wall / min(walls[command]) - 1.0, "ratio")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["fig9", "tpcc", "twitter-buggy"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"perfbench: no awdit sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name:<48} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
