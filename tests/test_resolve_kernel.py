"""Bit-identity tests for the batched read-resolution kernel (PR 9).

``kernels.resolve_reads`` replaced the scalar per-read probe loop at the
heart of ``CompiledIncrementalChecker.append_batch``: reads are packed as
``(kid << 32) | vid`` and answered by one searchsorted over the
:class:`~repro.core.compiled.kernels.WritesIndex` flat registry, then
bulk-partitioned into fast path / slow path (scalar ``_classify``) / park
queue.  These tests pin the contract every batch size and every consumer
relies on:

* the vectorized kernel and the pure-Python ``_resolve_reads_fallback``
  emit identical :class:`ResolvedBatch` columns -- including the bulk
  registration notes (``nh_*``) -- on arbitrary record interleavings at
  any ``batch_ops`` (hypothesis, with the size cutoff pinned to 0 so the
  vectorized path runs even on tiny batches);
* whole-check verdicts, witness messages and inferred-edge counts never
  depend on which implementation resolved the reads, including under
  injected anomalies and supersede-driven park/rebind storms;
* the duplicate-write-after-fold refusal fires with a byte-identical
  diagnostic at every ``batch_ops`` on both implementations (error
  *timing* may move to the batch boundary; the message may not change);
* ``AWDIT_NO_NUMPY=1`` -- the supported process-wide switch -- yields the
  same answers from a real subprocess while reporting
  ``classify_kernel: fallback``;
* checkpoints never serialize the registry, and a resumed checker
  rebuilds it.

The checkers here check every level, CC included, so each one loads numpy
when it is built (:mod:`repro.graph.csr`); ``csr.numpy_disabled()`` pins
the fallback, and a run under it asserts that the fallback resolved every
batch.
"""

import json
import os
import random
import subprocess
import sys
from contextlib import contextmanager
from itertools import permutations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import IsolationLevel, check
from repro.core.compiled import kernels
from repro.core.exceptions import HistoryFormatError
from repro.core.model import History, Transaction, read, write
from repro.graph import csr
from repro.histories.formats import save_history
from repro.histories.generator import (
    INJECTABLE_ANOMALIES,
    RandomHistoryConfig,
    generate_random_history,
    inject_anomaly,
)
from repro.stream import CompiledIncrementalChecker, load_checkpoint

LEVELS = list(IsolationLevel)

BATCH_SIZES = (1, 7, 4096)

needs_numpy = pytest.mark.skipif(
    not csr.HAVE_NUMPY, reason="vectorized resolve kernel needs numpy"
)

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


def raw_of(txn):
    return (
        txn.label,
        txn.committed,
        [(op.is_write, op.key, op.value) for op in txn.operations],
    )


def interleaved_raw(history, seed):
    """Raw records in a random arrival order respecting session order."""
    rng = random.Random(seed)
    positions = [0] * history.num_sessions
    live = [sid for sid in range(history.num_sessions) if history.sessions[sid]]
    records = []
    while live:
        sid = rng.choice(live)
        txn = history.transactions[history.sessions[sid][positions[sid]]]
        positions[sid] += 1
        if positions[sid] == len(history.sessions[sid]):
            live.remove(sid)
        records.append((sid, raw_of(txn)))
    return records


@contextmanager
def vector_floor(n=0):
    """Make the vectorized kernel run even on tiny batches."""
    saved = kernels._MIN_VECTOR_READS
    kernels._MIN_VECTOR_READS = n
    try:
        yield
    finally:
        kernels._MIN_VECTOR_READS = saved


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


def run_stream(records, num_sessions, batch_ops, fallback=False):
    """Stream ``records`` at every level; ``fallback`` pins the pure-Python
    kernels for the checker's whole lifetime (the resolve side during the
    fold, the CC saturation side at finalize) and asserts that they ran."""
    ctx = csr.numpy_disabled() if fallback else vector_floor()
    with ctx:
        checker = CompiledIncrementalChecker(num_sessions=num_sessions)
        checker.extend_raw(iter(records), batch_ops=batch_ops)
        results = checker.finalize()
    if fallback:
        assert not checker._resolve_vectorized
        cc_kernel = results[IsolationLevel.CAUSAL_CONSISTENCY].stats.get(
            "saturation_kernel", "fallback"
        )
        assert cc_kernel == "fallback"
    return digest(results), checker


_COLUMNS = tuple(c for c in kernels.ResolvedBatch.__slots__ if c != "kernel")


def _normalize(column):
    # The fallback builds Python lists (bools included); the vectorized
    # kernel hands back array-backed columns.  The fold only relies on
    # the integer values, so compare those.
    return [int(v) for v in column]


@contextmanager
def comparing_resolver(kernels_used):
    """Intercept every resolve call and diff both implementations.

    The fallback runs first on the identical inputs (it never touches the
    index, so order is immaterial); the vectorized result is returned to
    the fold so the stream proceeds on the columns under test.
    """
    real = kernels.resolve_reads

    def compare(index, writes, committed_of, kid_col, vid_col, kinds, txn_end,
                committed_col, tid0):
        reference = kernels._resolve_reads_fallback(
            writes, committed_of, kid_col, vid_col, kinds, txn_end,
            committed_col, tid0,
        )
        res = real(
            index, writes, committed_of, kid_col, vid_col, kinds, txn_end,
            committed_col, tid0,
        )
        kernels_used.append(res.kernel)
        for name in _COLUMNS:
            assert _normalize(getattr(res, name)) == _normalize(
                getattr(reference, name)
            ), name
        return res

    kernels.resolve_reads = compare
    try:
        yield
    finally:
        kernels.resolve_reads = real


@needs_numpy
class TestResolvedBatchColumns:
    """Column-for-column identity of the two implementations."""

    @settings(
        deadline=None,
        max_examples=40,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        config=history_configs,
        batch_ops=st.sampled_from(BATCH_SIZES),
        order_seed=st.integers(0, 100),
    )
    def test_columns_bit_identical(self, config, batch_ops, order_seed):
        history = generate_random_history(config)
        records = interleaved_raw(history, order_seed)
        used = []
        with vector_floor(), comparing_resolver(used):
            checker = CompiledIncrementalChecker(num_sessions=history.num_sessions)
            checker.extend_raw(iter(records), batch_ops=batch_ops)
            checker.finalize()

    def test_vectorized_path_engages_above_the_floor(self):
        # Without touching _MIN_VECTOR_READS a dense batch must route to
        # the numpy kernel -- and still match the fallback column for
        # column (guards against the dispatch quietly regressing to the
        # scalar path while every identity test forces the floor to 0).
        history = generate_random_history(
            RandomHistoryConfig(
                num_sessions=4,
                num_transactions=400,
                num_keys=8,
                min_ops_per_txn=2,
                max_ops_per_txn=6,
                read_fraction=0.6,
                mode="random_reads",
                seed=3,
            )
        )
        used = []
        with comparing_resolver(used):
            checker = CompiledIncrementalChecker(num_sessions=history.num_sessions)
            checker.extend_raw(iter(interleaved_raw(history, 1)), batch_ops=4096)
            checker.finalize()
        assert "vectorized" in used


@needs_numpy
class TestWholeCheckIdentity:
    """Verdicts and witnesses never depend on the implementation."""

    def _both(self, history, order_seed, batch_ops):
        records = interleaved_raw(history, order_seed)
        vec, _ = run_stream(records, history.num_sessions, batch_ops)
        fb, _ = run_stream(records, history.num_sessions, batch_ops, fallback=True)
        assert vec == fb
        return vec

    @settings(
        deadline=None,
        max_examples=30,
        suppress_health_check=[HealthCheck.too_slow],
    )
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
        digests = [self._both(history, 11, batch_ops) for batch_ops in BATCH_SIZES]
        # batch_ops is a buffering knob, not a semantic one.
        assert digests[0] == digests[1] == digests[2]
        # And the streamed verdict agrees with the batch oracle.
        for level, (_, is_consistent, _, _) in zip(LEVELS, digests[0]):
            assert is_consistent == check(history, level).is_consistent, level


class TestParkRebindOrdering:
    """Supersede storms: parked readers rebinding across implementations.

    The histories put duplicate ``(key, value)`` writes in flight while
    readers are parked, so arrival order decides between a clean rebind
    and the duplicate-after-fold refusal.  Whatever the outcome, it must
    be identical across implementation x batch_ops.
    """

    def _outcome(self, records, num_sessions, batch_ops, fallback):
        try:
            result, _ = run_stream(records, num_sessions, batch_ops,
                                   fallback=fallback)
            return ("ok", result)
        except HistoryFormatError as exc:
            return ("refused", str(exc))

    def _matrix(self, history, orders):
        for order in orders:
            records = [(sid, raw_of(history.transactions[history.sessions[sid][0]]))
                       for sid in order]
            outcomes = [
                self._outcome(records, history.num_sessions, batch_ops, fallback)
                for batch_ops in BATCH_SIZES
                for fallback in (False, True)
            ]
            for other in outcomes[1:]:
                assert other == outcomes[0], order

    def test_single_parked_reader(self):
        # The canonical supersede shape: the reader parks on (y, 9), its
        # (x, 5) read first binds the losing duplicate, and the winner's
        # arrival must rebind it -- unless the reader already folded, in
        # which case every configuration must refuse identically.
        loser = Transaction([write("x", 5), write("x", 6)], label="loser")
        reader = Transaction([read("x", 5), read("y", 9)], label="reader")
        winner = Transaction([write("x", 5)], label="winner")
        ywriter = Transaction([write("y", 9)], label="ywriter")
        history = History.from_sessions([[loser], [reader], [winner], [ywriter]])
        self._matrix(history, permutations(range(4)))

    def test_multiple_parked_readers(self):
        # Two readers park with their reads in opposite orders, so a
        # rebind sweep visits them differently than the park queue was
        # built -- the reconstruction must not reorder any witness.
        loser = Transaction([write("x", 5), write("x", 6)], label="loser")
        r1 = Transaction([read("x", 5), read("y", 9)], label="r1")
        r2 = Transaction([read("y", 9), read("x", 5)], label="r2")
        winner = Transaction([write("x", 5)], label="winner")
        ywriter = Transaction([write("y", 9)], label="ywriter")
        history = History.from_sessions([[loser], [r1], [r2], [winner], [ywriter]])
        orders = random.Random(0).sample(list(permutations(range(5))), 16)
        self._matrix(history, orders)


class TestDuplicateRefusalParity:
    """The refusal diagnostic is byte-identical across the whole matrix."""

    def _refused_records(self):
        t1 = Transaction([write("x", 1)], label="w1")
        t2 = Transaction([read("x", 1)], label="r")
        t3 = Transaction([write("x", 1)], label="w2")
        history = History.from_sessions([[t1], [t2], [t3]])
        return [(sid, raw_of(history.transactions[history.sessions[sid][0]]))
                for sid in range(3)]

    def test_identical_message_at_every_batch_size(self):
        records = self._refused_records()
        messages = set()
        for batch_ops in BATCH_SIZES:
            for fallback in (False, True):
                with pytest.raises(HistoryFormatError) as excinfo:
                    run_stream(records, 3, batch_ops, fallback=fallback)
                messages.add(str(excinfo.value))
        assert len(messages) == 1, messages
        message = messages.pop()
        assert "duplicate write W(x, 1)" in message
        assert "w2" in message
        assert "--stream" in message

    @needs_numpy
    def test_refusal_mid_batch_drops_the_writes_mirror(self):
        # The refused batch registers W(y, 5) in the writes dict before the
        # duplicate W(x, 1) raises, but never applies its mirror notes: the
        # mirror must be dropped so any later use rebuilds it from the dict.
        records = self._refused_records()
        y_writer = (0, ("wy", True, [(True, "y", 5)]))
        with vector_floor():
            checker = CompiledIncrementalChecker(num_sessions=3)
            checker.extend_raw(iter(records[:2]), batch_ops=4096)
            assert not checker._writes_index._dirty
            with pytest.raises(HistoryFormatError, match="duplicate write"):
                checker.extend_raw(iter([y_writer, records[2]]), batch_ops=4096)
            assert checker.live_stats()["writes_index"] == 2
            assert checker._writes_index._dirty


@needs_numpy
class TestNoNumpySubprocess:
    """AWDIT_NO_NUMPY=1 is answer-identical from a real subprocess."""

    _SCRIPT = (
        "import json, sys\n"
        "from repro.core import IsolationLevel\n"
        "from repro.stream import check_stream_file\n"
        "out = []\n"
        "for level in IsolationLevel:\n"
        "    r = check_stream_file(sys.argv[1], level, fmt='plume')\n"
        "    out.append([level.name, r.is_consistent,\n"
        "                [v.message for v in r.violations],\n"
        "                r.stats.get('classify_kernel')])\n"
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

    def test_stream_file_parity(self, tmp_path):
        history = inject_anomaly(
            generate_random_history(
                RandomHistoryConfig(
                    num_sessions=4,
                    num_transactions=300,
                    num_keys=10,
                    min_ops_per_txn=2,
                    max_ops_per_txn=6,
                    read_fraction=0.5,
                    mode="random_reads",
                    seed=21,
                )
            ),
            INJECTABLE_ANOMALIES[0],
        )
        path = tmp_path / "parity.plume"
        save_history(history, str(path), fmt="plume")
        with_numpy = self._run_subprocess(str(path), no_numpy=False)
        without = self._run_subprocess(str(path), no_numpy=True)
        for a, b in zip(with_numpy, without):
            assert a[:3] == b[:3], a[0]
        # Only the CC check loads numpy, and the script runs it last.
        assert [row[3] for row in with_numpy] == ["fallback", "fallback", "vectorized"]
        assert {row[3] for row in without} == {"fallback"}


class TestCheckpointAcrossResolver:
    """The flat registry is derived state: never pickled, always rebuilt."""

    def _history(self):
        return generate_random_history(
            RandomHistoryConfig(
                num_sessions=4, num_transactions=200, num_keys=12, seed=9
            )
        )

    def test_registry_not_serialized(self):
        history = self._history()
        checker = CompiledIncrementalChecker(num_sessions=history.num_sessions)
        checker.extend_raw(iter(interleaved_raw(history, 5)), batch_ops=64)
        state = checker.__getstate__()
        assert "_writes_index" not in state

    def test_checkpoint_resume_rebuilds_registry(self, tmp_path):
        history = self._history()
        records = interleaved_raw(history, 5)
        cut = len(records) // 2
        want, _ = run_stream(records, history.num_sessions, 64)

        with vector_floor():
            first = CompiledIncrementalChecker(num_sessions=history.num_sessions)
            first.extend_raw(iter(records[:cut]), batch_ops=64)
            path = tmp_path / "resume.ck"
            first.save_checkpoint(str(path))
            resumed = load_checkpoint(str(path))
            resumed.extend_raw(iter(records[cut:]), batch_ops=64)
            assert digest(resumed.finalize()) == want
