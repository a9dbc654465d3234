"""Columnar fold state: park-queue behavior, the v9 checkpoint format,
and batch-size validation.

The contract: the structure-of-arrays fold is answer-identical to the
retired object-heap fold -- verdicts, witness messages, park and rebind
ordering, refusal text -- at every ``batch_ops`` and with or without
numpy.  The pieces pinned here are ``kernels.ParkQueue`` (columnar park
multimap) and checkpoint format v9.
"""

import json
import os
import pickle
import subprocess
import sys

import pytest

from repro.core import IsolationLevel
from repro.core.compiled import kernels, online
from repro.cli import main
from repro.histories.formats import save_history
from repro.histories.generator import (
    INJECTABLE_ANOMALIES,
    RandomHistoryConfig,
    generate_random_history,
    inject_anomaly,
)
from repro.stream import CompiledIncrementalChecker, check_stream_file

from test_resolve_kernel import interleaved_raw, needs_numpy, run_stream


# -- ParkQueue: the columnar park multimap -------------------------------------


class TestParkQueue:
    """The columnar park multimap preserves the scalar queue's ordering."""

    def test_pop_preserves_arrival_order(self):
        pq = kernels.ParkQueue()
        pq.add(5, 10, 0)
        pq.add(5, 12, 3)
        pq.add(5, 11, 1)
        assert list(pq.pop(5)) == [10, 0, 12, 3, 11, 1]
        assert pq.pop(5) is None
        assert not pq

    def test_wids_iterate_in_first_park_order(self):
        pq = kernels.ParkQueue()
        for wid in (9, 2, 7, 2, 9):
            pq.add(wid, wid * 10, 0)
        assert [wid for wid, _row in pq.items()] == [9, 2, 7]
        assert len(pq) == 3 and 7 in pq and 3 not in pq

    def test_clean_slot_round_trip(self):
        # slot < 0 encodes a clean-parked read as -(index) - 1.
        pq = kernels.ParkQueue()
        for index in (0, 4, 17):
            pq.add(1, 2, -(index) - 1)
        row = pq.pop(1)
        assert [-(row[p + 1]) - 1 for p in range(0, len(row), 2)] == [0, 4, 17]

    def test_pickles_as_plain_rows(self):
        pq = kernels.ParkQueue()
        pq.add(3, 8, 2)
        pq.add(1, 9, -1)
        clone = pickle.loads(pickle.dumps(pq, protocol=pickle.HIGHEST_PROTOCOL))
        assert {wid: list(row) for wid, row in clone.items()} == {
            3: [8, 2],
            1: [9, -1],
        }
        clone.clear()
        assert len(clone) == 0


# -- cross-version checkpoints -------------------------------------------------


class TestCrossVersionCheckpoints:
    """Checkpoints are written as v9 (the only loadable version), and the
    fold they capture is answer-identical on both kernel paths."""

    def _history(self, txns=300, seed=29):
        return generate_random_history(
            RandomHistoryConfig(
                num_sessions=4,
                num_transactions=txns,
                num_keys=12,
                min_ops_per_txn=1,
                max_ops_per_txn=6,
                read_fraction=0.5,
                abort_probability=0.05,
                mode="random_reads",
                seed=seed,
            )
        )

    def test_saved_checkpoints_are_v9(self, tmp_path):
        checker = CompiledIncrementalChecker(num_sessions=2)
        checker.append_raw(0, "t0", True, [(True, "x", 1)])
        path = tmp_path / "state.awd"
        checker.save_checkpoint(str(path))
        blob = path.read_bytes()
        assert blob.startswith(online.CHECKPOINT_MAGIC)
        assert blob[len(online.CHECKPOINT_MAGIC)] == online.CHECKPOINT_VERSION == 9

    @pytest.mark.parametrize("batch_ops", [1, 64, 4096])
    def test_fallback_path_answers_identical(self, batch_ops):
        # The kernel-path half of the contract: the columnar fold with
        # every numpy kernel disabled matches the vectorized fold exactly.
        history = inject_anomaly(self._history(seed=41), INJECTABLE_ANOMALIES[0])
        records = interleaved_raw(history, 11)
        want, _ = run_stream(records, history.num_sessions, batch_ops)
        got, _ = run_stream(records, history.num_sessions, batch_ops, fallback=True)
        assert got == want


# -- AWDIT_NO_NUMPY subprocess parity ------------------------------------------


@needs_numpy
class TestNoNumpySubprocessColumnar:
    """The park-heavy fold gives identical answers without numpy."""

    _SCRIPT = (
        "import json, sys\n"
        "from repro.core import IsolationLevel\n"
        "from repro.stream import check_stream_file\n"
        "out = []\n"
        "for level in IsolationLevel:\n"
        "    r = check_stream_file(sys.argv[1], level, fmt='plume', batch_ops=1)\n"
        "    out.append([level.name, r.is_consistent,\n"
        "                [v.message for v in r.violations]])\n"
        "print(json.dumps(out))\n"
    )

    def _run_subprocess(self, path, no_numpy):
        env = dict(os.environ)
        if no_numpy:
            env["AWDIT_NO_NUMPY"] = "1"
        else:
            env.pop("AWDIT_NO_NUMPY", None)
        proc = subprocess.run(
            [sys.executable, "-c", self._SCRIPT, path],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_park_parity(self, tmp_path):
        # batch_ops=1 maximizes cross-batch parking: every read of a
        # not-yet-arrived writer goes through the columnar ParkQueue.
        history = inject_anomaly(
            generate_random_history(
                RandomHistoryConfig(
                    num_sessions=4,
                    num_transactions=200,
                    num_keys=8,
                    min_ops_per_txn=2,
                    max_ops_per_txn=6,
                    read_fraction=0.6,
                    mode="random_reads",
                    seed=23,
                )
            ),
            INJECTABLE_ANOMALIES[0],
        )
        path = tmp_path / "parity.plume"
        save_history(history, str(path), fmt="plume")
        with_numpy = self._run_subprocess(str(path), no_numpy=False)
        without = self._run_subprocess(str(path), no_numpy=True)
        assert with_numpy == without


# -- batch_ops validation ------------------------------------------------------


class TestBatchOpsValidation:
    """Nonsensical batch sizes are rejected up front, not silently folded."""

    @pytest.fixture()
    def history_path(self, tmp_path):
        path = tmp_path / "h.plume"
        save_history(
            generate_random_history(
                RandomHistoryConfig(num_sessions=2, num_transactions=20, seed=1)
            ),
            str(path),
            fmt="plume",
        )
        return str(path)

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_cli_rejects_bad_batch_ops(self, history_path, capsys, value):
        assert main(["check", history_path, "--stream", "--batch-ops", value]) == 2
        err = capsys.readouterr().err
        assert "awdit: error:" in err
        assert f"--batch-ops must be >= 1, got {value}" in err

    @pytest.mark.parametrize("value", [0, -1])
    def test_extend_raw_rejects_bad_batch_ops(self, value):
        checker = CompiledIncrementalChecker(num_sessions=1)
        with pytest.raises(ValueError, match=f"batch_ops must be >= 1, got {value}"):
            checker.extend_raw(iter([]), batch_ops=value)

    def test_check_stream_file_rejects_bad_batch_ops(self, history_path):
        with pytest.raises(ValueError, match="batch_ops must be >= 1, got 0"):
            check_stream_file(
                history_path,
                IsolationLevel.CAUSAL_CONSISTENCY,
                fmt="plume",
                batch_ops=0,
            )
