"""Arrival-order streams: the generator's contract and streaming parity.

``generate_random_stream`` returns a history plus the order in which its
transactions were generated -- the realistic input order for
``awdit check --stream``, the file order of perfbench's fig9 history, and
the stream ``benchmarks/perf_guard.py`` replays.  Fed in that order, the
sessions interleave and sessions first appear out of id order.

The contract pinned here: fed in arrival order, the streaming checker's
verdict, violation messages and inferred-edge count equal the object batch
oracle's at every level, at every batch size, wherever its batches are
cut, and without numpy; the IR its finalize checks is the one
``CompiledHistoryBuilder`` builds from the same records, and the co log
that finalize hands each commit relation is the compiled batch engine's,
attempt for attempt; the answer never depends on which side (numpy or pure
Python) of a kernel ran.  Through the CLI, a file whose sessions first
appear out of id order prints the same output from ``check`` and
``check --stream``, apart from the checker label and the elapsed time.
"""

import contextlib
import json
import os
import random
import re
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import IsolationLevel, check
from repro.core.commit import CommitRelation
from repro.core.compiled import kernels, online
from repro.core.compiled.checkers import check_compiled
from repro.core.compiled.ir import CompiledHistoryBuilder
from repro.graph import csr
from repro.graph.digraph import EDGE_MASK, EDGE_SHIFT
from repro.histories.formats import plume_text
from repro.histories.generator import (
    INJECTABLE_ANOMALIES,
    RandomHistoryConfig,
    generate_random_history,
    generate_random_stream,
    inject_anomaly,
)
from repro.core.compiled.online import CompiledIncrementalChecker, check_stream_file

from helpers import BATCH_OPS, feed, history_records, interleaved_order, raw_of

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


def run_online(history, order, batch_ops=None):
    """Online results of ``history`` fed in ``order``, and the checker.

    The records go to :meth:`append_batch` in batches of ``batch_ops``
    operations (``None``: the parsers' default).
    """
    checker = CompiledIncrementalChecker(fill_gaps=True)
    feed(checker, history_records(history, order), batch_ops)
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


needs_numpy = pytest.mark.skipif(not csr.HAVE_NUMPY, reason="numpy is not available")

#: Random histories for the property tests: small, with aborts and
#: arbitrary cross-session reads.
history_configs = st.builds(
    RandomHistoryConfig,
    num_sessions=st.integers(1, 5),
    num_transactions=st.integers(0, 30),
    num_keys=st.integers(1, 6),
    min_ops_per_txn=st.just(1),
    max_ops_per_txn=st.integers(1, 6),
    read_fraction=st.floats(0.2, 0.8),
    abort_probability=st.sampled_from([0.0, 0.15]),
    mode=st.sampled_from(["serializable", "random_reads"]),
    seed=st.integers(0, 10_000),
)


@contextlib.contextmanager
def kernel_side(use_numpy):
    """Pin every kernel with a numpy side to one side for the body.

    ``use_numpy`` lowers the size floor to one operation, so even a tiny
    history takes the vectorized unique-writes resolution and CC
    saturation; otherwise ``csr.numpy_disabled()`` pins the fallbacks.
    Yields a list that gets one entry per vectorized resolution that ran.
    """
    resolved = []
    real = kernels._resolve_unique_writes_vectorized

    def spy(*args):
        out = real(*args)
        resolved.append(out is not None)
        return out

    side = contextlib.nullcontext() if use_numpy else csr.numpy_disabled()
    with side, mock.patch.object(kernels, "_MIN_VECTOR_READS", 1), mock.patch.object(
        kernels, "_resolve_unique_writes_vectorized", spy
    ):
        yield resolved


def saturation_sides(results):
    """The CC saturation sides that ran (RC and RA have none)."""
    return {result.stats.get("saturation_kernel") for result in results.values()} - {None}


def run_on_side(records, batch_ops, use_numpy):
    """Stream ``records`` at every level on one kernel side.

    Returns the digest and the CC saturation sides that ran.  The fallback
    side must be the only one to run under ``use_numpy=False``; with numpy
    a vectorized side may still decline (CC saturation does on a history
    without cross-transaction reads), so callers assert what they expect.
    """
    with kernel_side(use_numpy) as resolved:
        checker = feed(CompiledIncrementalChecker(fill_gaps=True), records, batch_ops)
        results = checker.finalize()
    sides = saturation_sides(results)
    if use_numpy:
        assert all(resolved)
    else:
        assert resolved == []
        assert sides <= {"fallback"}
    return digest(results), sides


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
        sids = [sid for sid, _ in history_records(history, order)]
        switches = sum(1 for a, b in zip(sids, sids[1:]) if a != b)
        assert switches > history.num_sessions


class TestArrivalOrderParity:
    @pytest.mark.parametrize("kind", INJECTABLE_ANOMALIES, ids=lambda k: k.name)
    def test_injected_anomalies_in_interleaved_order(self, kind):
        base = generate_random_history(
            RandomHistoryConfig(num_sessions=3, num_transactions=30, seed=5)
        )
        history = inject_anomaly(base, kind)
        want = oracle_digest(history)
        for batch_ops in BATCH_OPS:
            got, _ = run_online(history, interleaved_order(history, seed=7), batch_ops)
            assert digest(got) == want, batch_ops

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

    @pytest.mark.parametrize("batch_ops", [1, 7, 64, 4096])
    def test_arrival_stream_matches_batch_oracle(self, arrival_stream, batch_ops):
        history, order, want = arrival_stream
        got, _ = run_online(history, order, batch_ops=batch_ops)
        assert digest(got) == want

    def test_inconsistent_arrival_stream_matches_batch_oracle(self):
        # random_reads histories read arbitrarily far back, so reads cross
        # sessions and the witnesses are non-trivial.
        history, order = generate_random_stream(GENERATOR_CONFIGS["random-reads"])
        want = oracle_digest(history)
        assert not all(consistent for _, consistent, _, _ in want)
        for batch_ops in BATCH_OPS:
            got, _ = run_online(history, order, batch_ops)
            assert digest(got) == want, batch_ops

    def test_every_transaction_stays_resident(self):
        history, order = generate_random_stream(GENERATOR_CONFIGS["aborts"])
        results, checker = run_online(history, order, batch_ops=64)
        assert checker.live_stats()["transactions"] == history.num_transactions
        for result in results.values():
            assert result.num_transactions == history.num_transactions
            assert result.num_operations == history.num_operations


class TestArrivalOrderCut:
    """A stream's answer does not depend on where its batches end.

    The uninterrupted run appends the whole stream in default-size batches;
    cut anywhere -- the batch in flight closes at the cut and the rest
    arrives in new batches -- the stream gives the same answer.
    """

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
        return history_records(history, order), digest(want)

    @pytest.mark.parametrize("cut", [1, 200, 500, 799])
    def test_cut_anywhere_matches_uninterrupted_run(self, stream, cut):
        records, want = stream
        checker = feed(CompiledIncrementalChecker(fill_gaps=True), records[:cut])
        assert checker.num_transactions == cut
        feed(checker, records[cut:])
        assert digest(checker.finalize()) == want

    def test_file_stream_matches_the_records_stream(self, tmp_path):
        # The same arrival order through a plume file and its parser.
        history, order = generate_random_stream(
            RandomHistoryConfig(num_sessions=4, num_transactions=300, num_keys=40, seed=17)
        )
        path = tmp_path / "h.plume"
        path.write_text(plume_text.dumps(history, order=order))
        want, _ = run_online(history, order)
        for level in LEVELS:
            got = check_stream_file(str(path), level, fmt="plume", batch_ops=64)
            assert got.is_consistent == want[level].is_consistent, level
            assert [v.message for v in got.violations] == [
                v.message for v in want[level].violations
            ], level
            assert got.num_transactions == history.num_transactions


class TestCoLogParity:
    """The stream's finalize hands each relation the batch co log, attempt for attempt.

    Fed the same arrival-order records, ``CompiledIncrementalChecker`` and
    ``check_compiled`` (over ``CompiledHistoryBuilder.finalize()``, the
    batch loaders' session numbering) must append the same inferred-edge
    attempts, in the same order, duplicates included, at RC, RA and CC;
    edges compare by transaction name and key name.  ``no-numpy`` takes the
    scalar CC saturation, as ``AWDIT_NO_NUMPY=1`` does.
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
        if use_numpy and not csr.HAVE_NUMPY:
            pytest.skip("numpy is not available")
        # Every CC saturation takes the vectorized side with numpy (the CC
        # check loads it), and the scalar side under numpy_disabled.
        monkeypatch.setattr(kernels, "_MIN_VECTOR_READS", 0)
        side = contextlib.nullcontext() if use_numpy else csr.numpy_disabled()
        history, order = generate_random_stream(GENERATOR_CONFIGS[name])
        records = history_records(history, order)
        kernels_used = []

        def run_batch():
            builder = CompiledHistoryBuilder()
            for sid, raw in records:
                builder.add_transaction(sid, *raw)
            ch = builder.finalize()
            for level in LEVELS:
                kernels_used.append(check_compiled(ch, level).stats.get("saturation_kernel"))

        def run_online():
            checker = feed(CompiledIncrementalChecker(), records, batch_ops)
            results = checker.finalize()
            kernels_used.extend(r.stats.get("saturation_kernel") for r in results.values())

        with side:
            want = self._co_logs(monkeypatch, run_batch)
            got = self._co_logs(monkeypatch, run_online)
        assert len(want) >= 2 and any(want)
        assert got == want
        ran = set(kernels_used) - {None}
        assert ran <= {"vectorized" if use_numpy else "fallback"}


class TestStreamIR:
    """The stream's finalize checks the IR the batch builder builds.

    Fed the same records in the same order, ``CompiledIncrementalChecker``
    (``RecordBatch`` columns of ``batch_ops`` operations into the builder's
    ``add_batch``) and ``CompiledHistoryBuilder.add_transaction`` per record
    must finalize to equal IRs: op and transaction columns, session
    numbering, labels, and both intern tables in the same id order.
    """

    _COLUMNS = (
        "op_kind",
        "op_key",
        "op_value",
        "op_txn",
        "op_wr",
        "op_final",
        "txn_start",
        "txn_session",
        "txn_session_index",
        "txn_committed",
    )

    @classmethod
    def _rows(cls, ch):
        rows = {name: list(getattr(ch, name)) for name in cls._COLUMNS}
        rows.update(
            sessions=[list(session) for session in ch.sessions],
            session_table=list(ch.session_table),
            labels=dict(ch.labels),
            keys=list(ch.key_table.values),
            values=list(ch.value_table.values),
        )
        return rows

    @staticmethod
    def _stream_ir(records, batch_ops):
        built = []
        real = online.check_read_consistency_compiled

        def capture(ch):
            built.append(ch)
            return real(ch)

        with mock.patch.object(online, "check_read_consistency_compiled", capture):
            feed(CompiledIncrementalChecker(), records, batch_ops).finalize()
        (ch,) = built
        return ch

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        config=history_configs,
        anomaly=st.sampled_from(INJECTABLE_ANOMALIES),
        seed=st.integers(0, 1000),
        batch_ops=st.sampled_from([1, 7, 4096]),
    )
    def test_finalized_ir_matches_builder(self, config, anomaly, seed, batch_ops):
        history = generate_random_history(config)
        try:
            history = inject_anomaly(history, anomaly, rng=random.Random(seed))
        except ValueError:
            pass  # some anomalies need a minimum history shape
        records = history_records(history, interleaved_order(history, seed))
        builder = CompiledHistoryBuilder()
        for sid, raw in records:
            builder.add_transaction(sid, *raw)
        want = self._rows(builder.finalize())
        assert self._rows(self._stream_ir(records, batch_ops)) == want


@needs_numpy
class TestKernelSideIdentity:
    """Verdicts and witnesses never depend on which kernel side ran.

    The stream's IR build resolves reads with a vectorized or a pure-Python
    unique-writes kernel, and its CC check saturates on a vectorized or a
    pure-Python side; every pairing must print the same answer, at every
    batch size, as the object batch oracle.
    """

    BATCH_SIZES = (1, 7, 4096)

    def _both(self, history, order_seed, batch_ops):
        """The digest both sides agree on, and the sides numpy's run took."""
        records = history_records(history, interleaved_order(history, order_seed))
        vectorized, sides = run_on_side(records, batch_ops, True)
        fallback, _ = run_on_side(records, batch_ops, False)
        assert vectorized == fallback
        return vectorized, sides

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        config=history_configs,
        batch_ops=st.sampled_from(BATCH_SIZES),
        order_seed=st.integers(0, 100),
    )
    def test_random_interleavings(self, config, batch_ops, order_seed):
        self._both(generate_random_history(config), order_seed, batch_ops)

    @pytest.mark.parametrize("kind", INJECTABLE_ANOMALIES, ids=lambda k: k.name)
    def test_injected_anomalies(self, kind):
        base = generate_random_history(
            RandomHistoryConfig(num_sessions=3, num_transactions=20, seed=7)
        )
        history = inject_anomaly(base, kind)
        runs = [self._both(history, 11, batch_ops) for batch_ops in self.BATCH_SIZES]
        digests = [found for found, _ in runs]
        # batch_ops is a buffering knob, not a semantic one.
        assert digests[0] == digests[1] == digests[2]
        assert digests[0] == oracle_digest(history)
        # A causality cycle stops CC before saturation, so no side runs.
        for _, sides in runs:
            assert sides <= {"vectorized"}


@needs_numpy
class TestKernelSideAcrossAppends:
    """Appended batches hold no kernel state.

    Fed half a stream on one kernel side and the rest, with its finalize, on
    the other, a stream gives the object oracle's answer, and only the
    finalize side's kernels run, in both directions.
    """

    @pytest.mark.parametrize("batch_ops", [1, 64, 4096])
    def test_finalize_on_the_other_side_matches(self, batch_ops):
        history = inject_anomaly(
            generate_random_history(
                RandomHistoryConfig(
                    num_sessions=4,
                    num_transactions=300,
                    num_keys=12,
                    max_ops_per_txn=6,
                    abort_probability=0.05,
                    mode="random_reads",
                    seed=41,
                )
            ),
            INJECTABLE_ANOMALIES[0],
        )
        records = history_records(history, interleaved_order(history, 11))
        cut = len(records) // 2
        want = oracle_digest(history)
        for first_side in (True, False):
            with kernel_side(first_side) as early:
                checker = feed(
                    CompiledIncrementalChecker(fill_gaps=True), records[:cut], batch_ops
                )
            with kernel_side(not first_side) as resolved:
                results = feed(checker, records[cut:], batch_ops).finalize()
            assert early == []
            assert digest(results) == want, first_side
            assert saturation_sides(results) == {
                "fallback" if first_side else "vectorized"
            }
            assert bool(resolved) == (not first_side)


class TestArrivalOrderWithoutNumpy:
    _SCRIPT = (
        "import json, sys\n"
        "from repro.core import IsolationLevel\n"
        "from repro.graph import csr\n"
        "from repro.core.compiled.online import check_stream_file\n"
        "assert not csr.HAVE_NUMPY\n"
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

    @needs_numpy
    def test_single_op_batches_match_without_numpy(self, tmp_path):
        # batch_ops=1 appends every transaction on its own, so most reads
        # reach the builder before their writer does.
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
        path = tmp_path / "h.plume"
        path.write_text(plume_text.dumps(history, order=interleaved_order(history, 3)))
        script = (
            "import json, sys\n"
            "from repro.core import IsolationLevel\n"
            "from repro.core.compiled.online import check_stream_file\n"
            "out = []\n"
            "for level in IsolationLevel:\n"
            "    r = check_stream_file(sys.argv[1], level, fmt='plume', batch_ops=1)\n"
            "    out.append([level.name, r.is_consistent,\n"
            "                [v.message for v in r.violations],\n"
            "                r.stats.get('saturation_kernel')])\n"
            "print(json.dumps(out))\n"
        )
        env = dict(os.environ)
        env["AWDIT_NO_NUMPY"] = "1"
        proc = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        without = json.loads(proc.stdout)
        with_numpy = []
        for level in LEVELS:
            result = check_stream_file(str(path), level, fmt="plume", batch_ops=1)
            with_numpy.append(
                [
                    level.name,
                    result.is_consistent,
                    [v.message for v in result.violations],
                    result.stats.get("saturation_kernel"),
                ]
            )
        assert [row[:3] for row in without] == [row[:3] for row in with_numpy]
        assert [row[:3] for row in with_numpy] == [
            list(row[:3]) for row in oracle_digest(history)
        ]
        # Only CC saturates, on numpy's side when numpy loads.
        assert [row[3] for row in with_numpy] == [None, None, "vectorized"]
        assert [row[3] for row in without] == [None, None, "fallback"]


class TestSessionsFirstSeenOutOfOrder:
    """``check`` and ``check --stream`` print the same report.

    Both number sessions by sorted external id, whatever order the file
    first shows them in, so when a file's sessions first appear as 2, 0, 1
    the two modes search identically numbered relations.  Their stdout must
    be equal at every level, apart from the checker label (which names the
    mode) and the elapsed time.
    """

    @staticmethod
    def _order(history, seed):
        """An arrival order whose sessions first appear as 2, 0, 1."""
        firsts = [history.sessions[sid][0] for sid in (2, 0, 1)]
        rng = random.Random(seed)
        positions = [1, 1, 1]
        order = list(firsts)
        live = [sid for sid in range(3) if len(history.sessions[sid]) > 1]
        while live:
            sid = rng.choice(live)
            order.append(history.sessions[sid][positions[sid]])
            positions[sid] += 1
            if positions[sid] == len(history.sessions[sid]):
                live.remove(sid)
        return order

    @staticmethod
    def _output(capsys, path, level, stream):
        """Exit code and stdout, without the checker label and elapsed time."""
        argv = ["check", str(path), "-i", level] + (["--stream"] if stream else [])
        code = main(argv)
        # "[awdit] CC: VIOLATION (...) in 1.23 ms (...)": drop the checker
        # tag, which names the mode, and the elapsed time.
        out = re.sub(r"^\[[^\]]+\] | in [0-9.]+ ms", "", capsys.readouterr().out, count=2)
        return code, out

    @pytest.mark.parametrize("kind", INJECTABLE_ANOMALIES, ids=lambda k: k.name)
    def test_same_output_as_batch(self, tmp_path, capsys, kind):
        history = generate_random_history(
            RandomHistoryConfig(num_sessions=3, num_transactions=40, num_keys=5, seed=4)
        )
        history = inject_anomaly(history, kind, rng=random.Random(1))
        assert all(history.sessions)
        path = tmp_path / "h.plume"
        path.write_text(plume_text.dumps(history, order=self._order(history, 5)))
        verdicts = []
        for level in ("rc", "ra", "cc"):
            batch = self._output(capsys, path, level, stream=False)
            stream = self._output(capsys, path, level, stream=True)
            assert stream == batch, level
            verdicts.append(batch[0])
        assert 1 in verdicts
