"""Arrival-order streams: the generator's contract and online parity.

``generate_random_stream`` returns a history plus the order in which its
transactions were generated -- the realistic input order for
``awdit check --stream``, the file order of perfbench's fig9 history, and
the stream ``benchmarks/perf_guard.py`` replays.  Fed in that order,
cross-session reads resolve on arrival instead of parking until the
writer's whole session has been folded, and a checkpoint can land
anywhere in the interleaving.

The contract pinned here: fed in arrival order, the online checker's
verdict, violation messages and inferred-edge count equal the object batch
oracle's at every level, at every batch size, across a checkpoint taken
anywhere in the stream, and without numpy; and the co log its finalize
hands each commit relation is the compiled batch engine's, attempt for
attempt.  Every transaction stays resident: transaction ``tid`` is fold
row ``tid`` for the whole run.
"""

import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import IsolationLevel, check
from repro.core.commit import CommitRelation
from repro.core.compiled import kernels
from repro.core.compiled.checkers import check_compiled, check_read_consistency_compiled
from repro.core.exceptions import HistoryFormatError
from repro.core.compiled.ir import CompiledHistoryBuilder
from repro.graph.digraph import EDGE_MASK, EDGE_SHIFT
from repro.histories.formats import plume_text
from repro.histories.generator import (
    INJECTABLE_ANOMALIES,
    RandomHistoryConfig,
    generate_random_history,
    generate_random_stream,
    inject_anomaly,
)
from repro.stream import CompiledIncrementalChecker, check_stream_file, load_checkpoint

LEVELS = list(IsolationLevel)

GENERATOR_CONFIGS = {
    "one-session": RandomHistoryConfig(num_sessions=1, num_transactions=60, seed=3),
    "serializable": RandomHistoryConfig(
        num_sessions=6, num_transactions=300, num_keys=30, seed=13
    ),
    "random-reads": RandomHistoryConfig(
        num_sessions=4, num_transactions=150, num_keys=12, mode="random_reads", seed=21
    ),
    "aborts": RandomHistoryConfig(
        num_sessions=5, num_transactions=200, abort_probability=0.2, seed=8
    ),
}


def raw_of(txn):
    return (
        txn.label,
        txn.committed,
        [(op.is_write, op.key, op.value) for op in txn.operations],
    )


def arrival_records(history, order):
    """``(session, raw transaction)`` records of ``history`` in ``order``."""
    sid_of = [0] * len(history.transactions)
    for sid, session in enumerate(history.sessions):
        for tid in session:
            sid_of[tid] = sid
    return [(sid_of[tid], raw_of(history.transactions[tid])) for tid in order]


def interleaved_order(history, seed):
    """A random arrival order that respects per-session order."""
    rng = random.Random(seed)
    positions = [0] * history.num_sessions
    order = []
    live = [sid for sid in range(history.num_sessions) if history.sessions[sid]]
    while live:
        sid = rng.choice(live)
        order.append(history.sessions[sid][positions[sid]])
        positions[sid] += 1
        if positions[sid] == len(history.sessions[sid]):
            live.remove(sid)
    return order


def run_online(history, order, batch_ops=None):
    """Online results of ``history`` fed in ``order``, and the checker.

    ``batch_ops=None`` appends one record at a time; otherwise the records
    go through :meth:`extend_raw` in batches of ``batch_ops`` operations.
    """
    checker = CompiledIncrementalChecker(num_sessions=history.num_sessions)
    records = arrival_records(history, order)
    if batch_ops is None:
        for sid, raw in records:
            checker.append_raw(sid, *raw)
    else:
        checker.extend_raw(iter(records), batch_ops=batch_ops)
    return checker.finalize(), checker


def digest(results):
    return [
        (
            level.name,
            results[level].is_consistent,
            [v.message for v in results[level].violations],
            results[level].stats.get("inferred_edges"),
        )
        for level in LEVELS
    ]


def oracle_digest(history):
    """The object batch engine's answer, in :func:`digest` form."""
    return digest({level: check(history, level, engine="object") for level in LEVELS})


class TestRandomStreamGenerator:
    @pytest.mark.parametrize("name", sorted(GENERATOR_CONFIGS))
    def test_order_is_a_session_respecting_permutation(self, name):
        history, order = generate_random_stream(GENERATOR_CONFIGS[name])
        assert sorted(order) == list(range(history.num_transactions))
        position = {tid: i for i, tid in enumerate(order)}
        for session in history.sessions:
            assert [position[tid] for tid in session] == sorted(
                position[tid] for tid in session
            )

    @pytest.mark.parametrize("name", sorted(GENERATOR_CONFIGS))
    def test_same_history_as_generate_random_history(self, name):
        config = GENERATOR_CONFIGS[name]
        history, _ = generate_random_stream(config)
        blocked = generate_random_history(config)
        assert history.sessions == blocked.sessions
        assert [raw_of(t) for t in history.transactions] == [
            raw_of(t) for t in blocked.transactions
        ]

    def test_order_interleaves_sessions(self):
        # Not the session-blocked file order: that is what the arrival
        # order exists to avoid.
        history, order = generate_random_stream(GENERATOR_CONFIGS["serializable"])
        blocked = [tid for session in history.sessions for tid in session]
        assert order != blocked
        sids = [sid for sid, _ in arrival_records(history, order)]
        switches = sum(1 for a, b in zip(sids, sids[1:]) if a != b)
        assert switches > history.num_sessions


class TestArrivalOrderParity:
    @pytest.mark.parametrize("kind", INJECTABLE_ANOMALIES, ids=lambda k: k.name)
    def test_injected_anomalies_in_interleaved_order(self, kind):
        base = generate_random_history(
            RandomHistoryConfig(num_sessions=3, num_transactions=30, seed=5)
        )
        history = inject_anomaly(base, kind)
        got, _ = run_online(history, interleaved_order(history, seed=7))
        assert digest(got) == oracle_digest(history)

    @pytest.fixture(scope="class")
    def arrival_stream(self):
        history, order = generate_random_stream(
            RandomHistoryConfig(
                num_sessions=6,
                num_transactions=600,
                num_keys=30,
                abort_probability=0.05,
                seed=13,
            )
        )
        return history, order, oracle_digest(history)

    @pytest.mark.parametrize(
        "batch_ops", [None, 1, 64, 4096], ids=["append_raw", "1", "64", "4096"]
    )
    def test_arrival_stream_matches_batch_oracle(self, arrival_stream, batch_ops):
        history, order, want = arrival_stream
        got, _ = run_online(history, order, batch_ops=batch_ops)
        assert digest(got) == want

    def test_inconsistent_arrival_stream_matches_batch_oracle(self):
        # random_reads histories read arbitrarily far back, so reads park
        # across sessions and the witnesses are non-trivial.
        history, order = generate_random_stream(GENERATOR_CONFIGS["random-reads"])
        got, _ = run_online(history, order)
        want = oracle_digest(history)
        assert not all(consistent for _, consistent, _, _ in want)
        assert digest(got) == want

    def test_every_transaction_stays_resident(self):
        history, order = generate_random_stream(GENERATOR_CONFIGS["aborts"])
        _, checker = run_online(history, order, batch_ops=64)
        stats = checker.live_stats()
        assert stats["transactions"] == history.num_transactions
        assert stats["resident_transactions"] == history.num_transactions


class TestCoLogParity:
    """The online finalize hands each relation the batch co log, attempt for attempt.

    Fed the same arrival-order records, ``CompiledIncrementalChecker`` and
    ``check_compiled`` (over ``CompiledHistoryBuilder.finalize(
    sort_sessions=False)``, which numbers sessions in arrival order like
    the online finalize) must append the same inferred-edge attempts, in
    the same order, duplicates included, at RC, RA and CC; edges compare
    by transaction name and key name.  ``no-numpy`` takes the scalar CC
    saturation, as ``AWDIT_NO_NUMPY=1`` does.
    """

    @staticmethod
    def _co_logs(monkeypatch, run):
        logs = []
        find_cycles = CommitRelation.find_cycles

        def capture(relation, max_witnesses=None):
            name = relation.name_of
            key_names = relation._key_names
            logs.append(
                [
                    (name(edge >> EDGE_SHIFT), name(edge & EDGE_MASK), key_names[key])
                    for edge, key in zip(relation._co_log, relation._co_keys)
                ]
            )
            return find_cycles(relation, max_witnesses=max_witnesses)

        with monkeypatch.context() as patch:
            patch.setattr(CommitRelation, "find_cycles", capture)
            run()
        return logs

    @pytest.mark.parametrize("use_numpy", [True, False], ids=["numpy", "no-numpy"])
    @pytest.mark.parametrize("batch_ops", [7, 4096])
    @pytest.mark.parametrize("name", sorted(GENERATOR_CONFIGS))
    def test_online_co_log_equals_batch(self, monkeypatch, name, batch_ops, use_numpy):
        if use_numpy and kernels._np is None:
            pytest.skip("numpy is not available")
        if use_numpy:
            # Every CC saturation takes the vectorized side.
            monkeypatch.setattr(kernels, "_MIN_VECTOR_READS", 0)
        else:
            monkeypatch.setattr(kernels, "_np", None)
        history, order = generate_random_stream(GENERATOR_CONFIGS[name])
        records = arrival_records(history, order)

        def run_batch():
            builder = CompiledHistoryBuilder()
            for sid, raw in records:
                builder.add_transaction(sid, *raw)
            ch = builder.finalize(sort_sessions=False)
            for level in LEVELS:
                check_compiled(ch, level)

        def run_online():
            checker = CompiledIncrementalChecker()
            checker.extend_raw(iter(records), batch_ops=batch_ops)
            checker.finalize()

        want = self._co_logs(monkeypatch, run_batch)
        got = self._co_logs(monkeypatch, run_online)
        assert len(want) >= 2 and any(want)
        assert got == want


class TestResolvedHistory:
    """Finalize's resolved IR holds the rows the batch IR's checkers read.

    Fed the same arrival-order records, the IR the online finalize builds
    from the fold's columns must equal ``CompiledHistoryBuilder.finalize(
    sort_sessions=False)``'s on every array the per-level checker functions
    read (``_xr_*`` limited to reads whose writer is committed, the only
    rows those functions use), and its ``bad_ops`` must mark exactly the
    batch read-consistency report's bad reads among those rows.
    """

    @staticmethod
    def _rows(ch, bad_ops):
        committed = ch.txn_committed
        reads, bad = [], []
        for tid in range(ch.num_transactions):
            for j in range(ch._xr_start[tid], ch._xr_start[tid + 1]):
                if committed[ch._xr_writer[j]]:
                    row = (tid, ch._xr_po[j], ch._xr_key[j], ch._xr_writer[j])
                    reads.append(row)
                    if ch.txn_start[tid] + ch._xr_po[j] in bad_ops:
                        bad.append(row)
        return {
            "session": list(ch.txn_session),
            "session_index": list(ch.txn_session_index),
            "committed": list(ch.txn_committed),
            "start": list(ch.txn_start),
            "sessions": [list(session) for session in ch.sessions],
            "labels": dict(ch.labels),
            "written": [list(ch.keys_written(tid)) for tid in range(ch.num_transactions)],
            "reads": reads,
            "bad": bad,
        }

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        config=st.builds(
            RandomHistoryConfig,
            num_sessions=st.integers(1, 4),
            num_transactions=st.integers(0, 30),
            num_keys=st.integers(1, 5),
            min_ops_per_txn=st.just(1),
            max_ops_per_txn=st.integers(1, 6),
            abort_probability=st.sampled_from([0.0, 0.15]),
            mode=st.sampled_from(["serializable", "random_reads"]),
            seed=st.integers(0, 10_000),
        ),
        anomaly=st.sampled_from(INJECTABLE_ANOMALIES),
        seed=st.integers(0, 1000),
        batch_ops=st.sampled_from([1, 7, 4096]),
    )
    def test_resolved_ir_matches_builder(self, config, anomaly, seed, batch_ops):
        history = generate_random_history(config)
        try:
            history = inject_anomaly(history, anomaly, rng=random.Random(seed))
        except ValueError:
            pass  # some anomalies need a minimum history shape
        records = arrival_records(history, interleaved_order(history, seed))
        builder = CompiledHistoryBuilder()
        for sid, raw in records:
            builder.add_transaction(sid, *raw)
        batch = builder.finalize(sort_sessions=False)
        want = self._rows(batch, check_read_consistency_compiled(batch).bad_ops)

        checker = CompiledIncrementalChecker()
        resolve = checker._resolved_history
        got = []

        def capture():
            ch, bad_ops = resolve()
            got.append(self._rows(ch, bad_ops))
            return ch, bad_ops

        checker._resolved_history = capture
        try:
            checker.extend_raw(iter(records), batch_ops=batch_ops)
        except HistoryFormatError:
            return  # a duplicate write the stream refuses to rebind
        checker.finalize()
        assert got == [want]


class TestArrivalOrderCheckpoint:
    @pytest.fixture(scope="class")
    def stream(self):
        history, order = generate_random_stream(
            RandomHistoryConfig(
                num_sessions=4,
                num_transactions=800,
                num_keys=40,
                abort_probability=0.02,
                seed=17,
            )
        )
        want, _ = run_online(history, order)
        return history, arrival_records(history, order), digest(want)

    @pytest.mark.parametrize("cut", [1, 200, 500, 799])
    def test_resume_anywhere_matches_uninterrupted_run(self, stream, tmp_path, cut):
        history, records, want = stream
        first = CompiledIncrementalChecker(num_sessions=history.num_sessions)
        for sid, raw in records[:cut]:
            first.append_raw(sid, *raw)
        path = tmp_path / "state.awd"
        first.save_checkpoint(str(path))

        resumed = load_checkpoint(str(path))
        assert resumed.num_transactions == cut
        for sid, raw in records[cut:]:
            resumed.append_raw(sid, *raw)
        assert digest(resumed.finalize()) == want

    def test_stream_file_checkpoint_and_resume(self, tmp_path):
        history, order = generate_random_stream(
            RandomHistoryConfig(
                num_sessions=4, num_transactions=300, num_keys=40, seed=17
            )
        )
        path = tmp_path / "h.plume"
        path.write_text(plume_text.dumps(history, order=order))
        state = tmp_path / "state.awd"
        level = IsolationLevel.CAUSAL_CONSISTENCY
        want = check_stream_file(str(path), level, fmt="plume")
        first = check_stream_file(
            str(path), level, fmt="plume", checkpoint=str(state), checkpoint_every=64
        )
        resumed = check_stream_file(
            str(path), level, fmt="plume", checkpoint=str(state), resume=True
        )
        for got in (first, resumed):
            assert got.is_consistent == want.is_consistent
            assert [v.message for v in got.violations] == [
                v.message for v in want.violations
            ]
            assert got.num_transactions == history.num_transactions


class TestArrivalOrderWithoutNumpy:
    _SCRIPT = (
        "import json, sys\n"
        "from repro.core import IsolationLevel\n"
        "from repro.core.compiled import kernels\n"
        "from repro.stream import check_stream_file\n"
        "assert kernels._np is None\n"
        "out = []\n"
        "for level in IsolationLevel:\n"
        "    r = check_stream_file(sys.argv[1], level, fmt='plume')\n"
        "    out.append([level.name, r.is_consistent,\n"
        "                [v.message for v in r.violations]])\n"
        "print(json.dumps(out))\n"
    )

    def test_no_numpy_subprocess_matches(self, tmp_path):
        history, order = generate_random_stream(
            RandomHistoryConfig(
                num_sessions=4,
                num_transactions=300,
                num_keys=20,
                mode="random_reads",
                seed=29,
            )
        )
        path = tmp_path / "h.plume"
        path.write_text(plume_text.dumps(history, order=order))
        env = dict(os.environ)
        env["AWDIT_NO_NUMPY"] = "1"
        proc = subprocess.run(
            [sys.executable, "-c", self._SCRIPT, str(path)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        want = [
            [level.name, result.is_consistent, [v.message for v in result.violations]]
            for level, result in (
                (level, check_stream_file(str(path), level, fmt="plume"))
                for level in LEVELS
            )
        ]
        assert json.loads(proc.stdout) == want
        assert not all(row[1] for row in want)
