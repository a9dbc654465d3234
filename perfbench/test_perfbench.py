"""Self-test of the benchmark at toy size.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TOY_TRANSACTIONS = 300


@pytest.fixture(autouse=True)
def _quick(monkeypatch):
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)
    monkeypatch.setattr(bench, "MIN_ROUNDS", 1)


def _toy_run(workload: str, trace: bool, **kwargs) -> dict:
    return bench.run(
        workload, seed=3, seconds=0, trace=trace, transactions=TOY_TRANSACTIONS,
        log=lambda _line: None, **kwargs,
    )


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("workload", [entry["name"] for entry in SPEC["workloads"]])
def test_every_declared_metric_is_emitted(workload, trace):
    result = _toy_run(workload, trace)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(bench.COMMANDS) * (2 if trace else 1)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == declared


def test_wrong_expected_verdict_counts_as_failed():
    wrong = {
        level: workloads.Expected(False, frozenset({"commit order cycle"}))
        for level in workloads.LEVELS
    }
    result = _toy_run("fig9", trace=False, expected=wrong)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == len(bench.COMMANDS)


def _traced(tmp_path: Path, history: Path, args) -> tuple:
    spans_path = tmp_path / "spans.json"
    child = bench.Child(
        [sys.executable, str(HERE / "traced.py"), str(spans_path), str(history), *args],
        tmp_path,
        bench._child_env(),
    )
    with open(spans_path, encoding="utf-8") as handle:
        return child, json.load(handle)


@pytest.mark.parametrize("command", list(bench.COMMANDS))
def test_spans_nest_and_counts_repeat(tmp_path, command):
    history, order = workloads.build_history("twitter-buggy", 3, TOY_TRANSACTIONS)
    path = tmp_path / "toy.plume"
    workloads.write_plume(history, order, str(path))
    level = bench.COMMANDS[command][-1]
    expected = workloads.expected_verdicts("twitter-buggy", history)
    runs = []
    for _ in range(2):
        child, trace = _traced(tmp_path, path, bench.COMMANDS[command])
        assert bench.verdict_error(child, level, expected[level]) is None
        spans = trace["spans"]
        assert spans[0][0] == "process" and spans[0][3] is None
        for name, start, end, parent in spans[1:]:
            assert parent is not None, name
            _pname, pstart, pend, _ = spans[parent]
            assert pstart <= start <= end <= pend, name
        runs.append(bench.layer_metrics(command, trace, child.wall))
    first, second = runs
    assert first[f"{command}.unaccounted_s"][0] > 0
    counts = {name for name, (_value, unit) in first.items() if unit in ("count", "flag")}
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


def test_refuses_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fig9", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
