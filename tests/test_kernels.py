"""Bit-identity tests for the saturation kernels (repro.core.compiled.kernels).

The kernels module is the single home of the CC/RC/RA saturation loops.  RC
and RA saturation have one implementation; CC saturation exists twice --
numpy-vectorized and pure-Python fallback, selected like
``csr.freeze_packed``.  These tests pin the contract every consumer (the
per-level checker functions, run by batch checks and by the streaming
finalize) relies on:

* the two CC implementations emit *byte-identical* packed co logs and key
  rows, in the identical order, on arbitrary histories including injected
  anomalies (hypothesis-tested with the size cutoff pinned to 0 so the
  vectorized path runs even on tiny inputs);
* whole-check results (verdicts, violation kinds, witness renderings) never
  depend on which implementation ran;
* the object oracle and both kernel sides leave out the same edges that
  happens-before implies, in the same order, and what they keep has the
  transitive closure, verdict and violation kinds of the definitional
  checker (``repro.baselines.naive``);
* compiled happens-before, a clock matrix with numpy and clock lists
  without, equals the object engine's clocks, and a writer the clock
  already covers costs no join; the scalar CC kernel reads the matrix and
  the vectorized one reads the lists, with the same co log;
* the vectorized CC kernel's transaction chunking does not change the co
  log (one transaction per chunk, the whole history in one chunk, and the
  scalar side agree), and it keeps the peak well below one whole pass's;
* the 32-bit boundaries of the vectorized encodings hold: packed edges are
  unsigned, and the composite writer index spans a full ``2^32`` per bucket
  so a ``bound = -1`` probe cannot collide with the previous bucket
  (mirroring ``tests/test_csr.py``'s packed-edge boundary coverage);
* ``AWDIT_NO_NUMPY`` forces the fallbacks without importing numpy.

Every test picks its side through :mod:`repro.graph.csr`, the one module
that imports numpy: CC saturation loads numpy itself, a test that reads
numpy directly calls ``csr.load_numpy()``, and ``csr.numpy_disabled()``
forces the fallback -- which each such test asserts ran, so no test's
coverage depends on what an earlier test loaded.
"""

import os
import random
import subprocess
import sys
import tracemalloc
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.naive import cc_relation_naive, check_cc_naive
from repro.core import IsolationLevel, check
from repro.core.cc import compute_happens_before, saturate_cc
from repro.core.commit import CommitRelation
from repro.core.compiled import compile_history
from repro.core.compiled import kernels
from repro.core.compiled.checkers import (
    _causality_edges_compiled,
    _relation_from_compiled,
    check_read_consistency_compiled,
    compute_happens_before_compiled,
)
from repro.core.compiled.kernels import saturate_cc_compiled
from repro.core.model import History, Transaction, read, write
from repro.core.read_consistency import check_read_consistency
from repro.graph import csr
from repro.graph.digraph import EDGE_SHIFT
from repro.histories.formats import save_history
from repro.histories.generator import (
    INJECTABLE_ANOMALIES,
    RandomHistoryConfig,
    generate_random_history,
    inject_anomaly,
)

CC = IsolationLevel.CAUSAL_CONSISTENCY

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

needs_numpy = pytest.mark.skipif(
    not csr.HAVE_NUMPY, reason="vectorized kernels need numpy"
)


@pytest.fixture
def force_vectorized(monkeypatch):
    """Make the vectorized kernels run even on tiny inputs."""
    monkeypatch.setattr(kernels, "_MIN_VECTOR_READS", 0)


def _compiled_cc_relation(history):
    """The CC saturation kernel's relation (``None`` if cyclic) and which side ran."""
    ch = compile_history(history)
    report = check_read_consistency_compiled(ch)
    hb, _ = compute_happens_before_compiled(ch, report.bad_ops)
    if hb is None:
        return None, "cyclic"
    relation = _relation_from_compiled(ch)
    impl = saturate_cc_compiled(ch, relation, hb, report.bad_ops)
    return relation, impl


def _saturation_logs(history):
    """Run the CC saturation kernel; return its raw (co_log, co_keys) bytes."""
    relation, impl = _compiled_cc_relation(history)
    if relation is None:
        return None, None, impl
    return relation._co_log.tobytes(), relation._co_keys.tobytes(), impl


@needs_numpy
class TestKernelBitIdentity:
    """Vectorized and fallback CC kernels emit byte-identical edge logs."""

    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(config=history_configs)
    def test_logs_bit_identical(self, config, force_vectorized):
        history = generate_random_history(config)
        vec_log, vec_keys, vec_impl = _saturation_logs(history)
        with csr.numpy_disabled():
            fb_log, fb_keys, fb_impl = _saturation_logs(history)
        assert fb_impl in ("fallback", "cyclic")
        if vec_impl != "cyclic":
            # The vectorized path may still decline (e.g. empty histories
            # gather nothing); identity must hold regardless.
            assert vec_log == fb_log
            assert vec_keys == fb_keys

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        config=history_configs,
        anomaly=st.sampled_from(list(INJECTABLE_ANOMALIES)),
        anomaly_seed=st.integers(0, 1000),
    )
    def test_witness_identity_under_anomalies(
        self, config, anomaly, anomaly_seed, force_vectorized
    ):
        history = generate_random_history(config)
        try:
            history = inject_anomaly(history, anomaly, rng=random.Random(anomaly_seed))
        except ValueError:
            # Some anomalies need a minimum history shape.
            pass
        vec = check(history, CC, engine="compiled")
        with csr.numpy_disabled():
            fb = check(history, CC, engine="compiled")
        # No saturation kernel runs past a causality cycle.
        assert fb.stats.get("saturation_kernel", "fallback") == "fallback"
        assert vec.is_consistent == fb.is_consistent
        assert [v.kind for v in vec.violations] == [v.kind for v in fb.violations]
        assert [v.describe() for v in vec.violations] == [
            v.describe() for v in fb.violations
        ]
        assert vec.stats.get("inferred_edges") == fb.stats.get("inferred_edges")

    def test_impl_is_reported(self, force_vectorized):
        config = RandomHistoryConfig(
            num_sessions=3,
            num_transactions=40,
            num_keys=4,
            min_ops_per_txn=1,
            max_ops_per_txn=4,
            read_fraction=0.5,
            seed=7,
        )
        history = generate_random_history(config)
        _, _, impl = _saturation_logs(history)
        assert impl == "vectorized"
        result = check(history, CC, engine="compiled")
        assert result.stats["saturation_kernel"] == "vectorized"
        with csr.numpy_disabled():
            result = check(history, CC, engine="compiled")
        assert result.stats["saturation_kernel"] == "fallback"


@needs_numpy
class TestCCChunking:
    """The vectorized CC kernel runs in transaction chunks, in emission order."""

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(config=history_configs)
    def test_co_log_independent_of_chunk_size(self, config, force_vectorized, monkeypatch):
        history = generate_random_history(config)
        logs = []
        for chunk in (1, 1 << 30):
            monkeypatch.setattr(kernels, "_CC_CHUNK_TXNS", chunk)
            logs.append(_saturation_logs(history))
        with csr.numpy_disabled():
            logs.append(_saturation_logs(history))
        if logs[-1][2] == "cyclic":
            return
        assert logs[-1][2] == "fallback"
        one, whole, scalar = logs
        assert one[:2] == whole[:2] == scalar[:2]

    def test_chunked_peak_bounded_by_whole_pass_peak(self, monkeypatch):
        # 50 sessions and several chunks.  A pass's temporaries grow with
        # the (read, writer-bucket) probes of its transactions; chunking
        # bounds them.  The co log is no yardstick: nearly every edge is
        # implied by happens-before here and is never emitted.  So the
        # bound is one whole-history pass on the same history, which
        # 128-transaction chunks peak at about a fifth of.
        history = generate_random_history(
            RandomHistoryConfig(
                num_sessions=50,
                num_transactions=1000,
                num_keys=60,
                min_ops_per_txn=2,
                max_ops_per_txn=8,
                read_fraction=0.6,
                seed=5,
            )
        )
        ch = compile_history(history)
        report = check_read_consistency_compiled(ch)
        hb, _ = compute_happens_before_compiled(ch, report.bad_ops)
        assert hb is not None
        kernels._cc_index(ch)

        def peak(chunk):
            monkeypatch.setattr(kernels, "_CC_CHUNK_TXNS", chunk)
            relation = _relation_from_compiled(ch)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                impl = saturate_cc_compiled(ch, relation, hb, report.bad_ops)
                result = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            assert impl == "vectorized"
            return result

        chunked, whole = peak(128), peak(1 << 30)
        assert 3 * chunked <= whole, (chunked, whole)


def _object_cc_relation(history):
    """The object oracle's saturated relation, or ``None`` if ``so ∪ wr`` is cyclic."""
    report = check_read_consistency(history)
    hb, _ = compute_happens_before(history, report.bad_reads)
    if hb is None:
        return None
    relation = CommitRelation(history)
    saturate_cc(history, relation, hb, report.bad_reads)
    return relation


def _closure(relation):
    """Every vertex's set of vertices reachable by one or more edges."""
    graph = relation.freeze()
    offsets, targets = graph.offsets, graph.targets
    reach = []
    for vertex in range(graph.num_vertices):
        seen = set()
        stack = [vertex]
        while stack:
            source = stack.pop()
            for target in targets[offsets[source] : offsets[source + 1]]:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        reach.append(seen)
    return reach


class TestHbImpliedEdgesDropped:
    """All three CC sides leave out the edges happens-before already implies.

    ``repro.baselines.naive`` keeps every edge the CC axiom forces; it is
    the definition the pruned relations are held to.
    """

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(
        config=history_configs,
        anomaly=st.sampled_from([None, *INJECTABLE_ANOMALIES]),
        anomaly_seed=st.integers(0, 1000),
    )
    def test_closure_and_verdict_match_the_definition(
        self, config, anomaly, anomaly_seed, force_vectorized
    ):
        history = generate_random_history(config)
        if anomaly is not None:
            try:
                history = inject_anomaly(history, anomaly, rng=random.Random(anomaly_seed))
            except ValueError:
                # Some anomalies need a minimum history shape.
                pass

        naive = check_cc_naive(history)
        for result in (check(history, CC, engine="object"), check(history, CC)):
            assert result.is_consistent == naive.is_consistent
            assert result.violation_kinds() == naive.violation_kinds()

        oracle = _object_cc_relation(history)
        with csr.numpy_disabled():
            scalar, scalar_impl = _compiled_cc_relation(history)
        if oracle is None:
            assert scalar is None
            return
        assert scalar_impl == "fallback"
        sides = [scalar]
        if csr.HAVE_NUMPY:
            vectorized, vectorized_impl = _compiled_cc_relation(history)
            assert vectorized_impl == "vectorized"
            sides.append(vectorized)

        # Same edges, same keys, same order on every side.
        emitted = list(zip(oracle._co_log, oracle._co_keys))
        key_names = compile_history(history).key_table.values
        for side in sides:
            assert list(zip(side._co_log, (key_names[k] for k in side._co_keys))) == (
                emitted
            )

        # The dropped edges were implied: the closure is the definition's.
        report = check_read_consistency(history)
        expected = _closure(cc_relation_naive(history, report.bad_reads))
        for relation in (oracle, *sides):
            assert _closure(relation) == expected


def _compiled_clocks(history):
    """The compiled happens-before clocks of ``history`` (``None`` if cyclic)."""
    ch = compile_history(history)
    report = check_read_consistency_compiled(ch)
    hb, _ = compute_happens_before_compiled(ch, report.bad_ops)
    return hb


class _CountingNumpy:
    """numpy, but counting the ``np.maximum`` calls: the matrix side's joins."""

    def __init__(self, np):
        self._np = np
        self.joins = 0

    def __getattr__(self, name):
        return getattr(self._np, name)

    def maximum(self, *args, **kwargs):
        self.joins += 1
        return self._np.maximum(*args, **kwargs)


class TestHappensBeforeClocks:
    """Compiled happens-before: a clock matrix with numpy, lists without.

    Both sides skip a writer whose session index the row already reaches;
    the row is the frontier of a down-closed set, so the skip is exact.
    The object engine's ``compute_happens_before`` is the oracle.
    """

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        config=history_configs,
        anomaly=st.sampled_from([None, *INJECTABLE_ANOMALIES]),
        anomaly_seed=st.integers(0, 1000),
    )
    def test_both_sides_equal_the_object_engine(self, config, anomaly, anomaly_seed):
        history = generate_random_history(config)
        if anomaly is not None:
            try:
                history = inject_anomaly(history, anomaly, rng=random.Random(anomaly_seed))
            except ValueError:
                # Some anomalies need a minimum history shape.
                pass
        report = check_read_consistency(history)
        oracle, _ = compute_happens_before(history, report.bad_reads)
        with csr.numpy_disabled():
            lists = _compiled_clocks(history)
        assert lists is None or isinstance(lists, list)
        sides = [lists]
        if csr.load_numpy() is not None:
            matrix = _compiled_clocks(history)
            assert matrix is None or not isinstance(matrix, list)
            sides.append(matrix)
        for hb in sides:
            if oracle is None:
                assert hb is None
                continue
            for txn in history.transactions:
                if txn.committed:
                    assert list(hb[txn.tid]) == oracle[txn.tid].entries, txn.tid

    # Each case: sessions, then the clock of every transaction and how many
    # joins the matrix side runs.  Transaction ids run session-major.
    COVERED = {
        # t (3) inherits p's row along session order; p's past already
        # holds a1, so t's read from a0 (index 0 < 1) needs no join.
        "through-session-order": (
            [
                [Transaction([write("x", 1)]), Transaction([write("y", 2)])],
                [Transaction([read("y", 2)]), Transaction([read("x", 1)])],
            ],
            [[-1, -1], [0, -1], [1, -1], [1, 0]],
            1,
        ),
        # t (3) first joins b, whose past holds a1; its later read from a0
        # is then covered by that earlier writer's clock.
        "through-an-earlier-writer": (
            [
                [Transaction([write("x", 1)]), Transaction([write("z", 3)])],
                [Transaction([read("z", 3), write("y", 2)])],
                [Transaction([read("y", 2), read("x", 1)])],
            ],
            [[-1, -1, -1], [0, -1, -1], [1, -1, -1], [1, 0, -1]],
            2,
        ),
        # t (1) reads a twice: after the first join the row's entry equals
        # a's session index, and equality is covered too.
        "at-equality": (
            [
                [Transaction([write("x", 1), write("y", 2)])],
                [Transaction([read("x", 1), read("y", 2)])],
            ],
            [[-1, -1], [0, -1]],
            1,
        ),
    }

    def test_graph_shares_the_relations_logs_unless_a_read_is_bad(self):
        # t1 reads x = 1, a non-final write of t0: a bad read.  Saturation's
        # relation keeps its wr edge; happens-before's graph must not.
        t0 = Transaction([write("x", 1), write("x", 2)])
        t1 = Transaction([read("x", 1)])
        ch = compile_history(History.from_sessions([[t0], [t1]]))
        report = check_read_consistency_compiled(ch)
        assert report.bad_ops
        relation = _relation_from_compiled(ch)
        so_log, wr_log, wr_keys = _causality_edges_compiled(ch, report.bad_ops, relation)
        assert so_log is relation._so_log
        assert list(wr_log) == [] and list(wr_keys) == []
        assert list(relation._wr_log) == [(0 << EDGE_SHIFT) | 1]
        shared = _causality_edges_compiled(ch, set(), relation)
        assert shared == (relation._so_log, relation._wr_log, relation._wr_keys)

    @pytest.mark.parametrize("case", sorted(COVERED))
    def test_covered_writers_are_skipped(self, case, monkeypatch):
        sessions, expected, joins = self.COVERED[case]
        history = History.from_sessions(sessions)
        assert [c.entries for c in compute_happens_before(history)[0]] == expected
        with csr.numpy_disabled():
            assert _compiled_clocks(history) == expected
        np = csr.load_numpy()
        if np is None:
            return
        counting = _CountingNumpy(np)
        monkeypatch.setattr(csr, "_np", counting)
        assert _compiled_clocks(history).tolist() == expected
        assert counting.joins == joins

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(config=history_configs)
    @needs_numpy
    def test_scalar_kernel_reads_the_matrix(self, config, monkeypatch):
        # With numpy loaded, a history below _MIN_VECTOR_READS runs the
        # scalar kernel on the clock matrix; clock lists from a run
        # without numpy feed the vectorized kernel.  Every pairing emits
        # the vectorized kernel's co log.
        csr.load_numpy()
        history = generate_random_history(config)
        ch = compile_history(history)
        report = check_read_consistency_compiled(ch)
        matrix, _ = compute_happens_before_compiled(ch, report.bad_ops)
        if matrix is None:
            return
        with csr.numpy_disabled():
            lists, _ = compute_happens_before_compiled(ch, report.bad_ops)
        logs = []
        for floor, hb, side in (
            (0, matrix, "vectorized"),
            (1 << 62, matrix, "fallback"),
            (0, lists, "vectorized"),
        ):
            monkeypatch.setattr(kernels, "_MIN_VECTOR_READS", floor)
            relation = _relation_from_compiled(ch)
            assert saturate_cc_compiled(ch, relation, hb, report.bad_ops) == side
            logs.append((relation._co_log.tobytes(), relation._co_keys.tobytes()))
        assert logs[0] == logs[1] == logs[2]


class TestCompositeProbeBoundary:
    """The vectorized CC probe at the 32-bit session-index boundary.

    The writer index is probed through ``bucket * _SIDX_SPAN + bound``.
    The span must be a full ``2^32``: session indices reach ``2^31 - 1``
    (the transaction-count guard), and a probe carrying the "empty clock"
    bound of ``-1`` sits at ``bucket * span - 1`` -- with a ``2^31`` span
    that value would land *inside* the previous bucket's range and
    ``searchsorted`` would report a phantom writer.
    """

    def test_span_covers_every_session_index(self):
        assert kernels._SIDX_SPAN == 1 << 32
        # Largest representable sidx stays strictly below the span, so the
        # bound=-1 probe of bucket b sorts above every bucket b-1 entry.
        assert (2**31 - 1) < kernels._SIDX_SPAN - 1

    @needs_numpy
    def test_probe_matches_bisect_reference_at_boundary(self):
        np = csr.load_numpy()
        span = kernels._SIDX_SPAN
        # Bucket 0 holds writers at the very top of the sidx range; bucket 1
        # holds small ones.  (bucket, sidx, tid) rows, bucket-major.
        rows = [
            (0, 2**31 - 2, 10),
            (0, 2**31 - 1, 11),
            (1, 0, 20),
            (1, 5, 21),
            (2, 2**31 - 1, 30),
        ]
        comp = np.asarray([b * span + s for b, s, _ in rows], dtype=np.int64)
        tids = np.asarray([t for _, _, t in rows], dtype=np.int64)
        starts = {0: 0, 1: 2, 2: 4}
        counts = {0: 2, 1: 2, 2: 1}

        def reference(bucket, bound):
            sidxs = [s for b, s, _ in rows if b == bucket]
            hits = [t for b, s, t in rows if b == bucket and s <= bound]
            return hits[-1] if hits else None

        def kernel(bucket, bound):
            # Exactly the arithmetic of _saturate_cc_vectorized's pass 4.
            where = int(np.searchsorted(comp, bucket * span + bound, side="right"))
            if where <= starts[bucket]:
                return None
            return int(tids[where - 1])

        for bucket in (0, 1, 2):
            for bound in (-1, 0, 1, 5, 2**31 - 2, 2**31 - 1):
                assert kernel(bucket, bound) == reference(bucket, bound), (
                    bucket,
                    bound,
                )

    @needs_numpy
    def test_packed_edges_are_unsigned_at_boundary(self):
        np = csr.load_numpy()
        # Pass 5 packs (t2 << EDGE_SHIFT) | t1 in uint64; a tid with the
        # top bit of its 32-bit half set must round-trip unflipped.
        t2 = np.asarray([2**31 - 1], dtype=np.int64)
        t1 = np.asarray([3], dtype=np.int64)
        packed = (t2.astype(np.uint64) << np.uint64(EDGE_SHIFT)) | t1.astype(
            np.uint64
        )
        log = array("Q")
        log.frombytes(packed.tobytes())
        assert log[0] == ((2**31 - 1) << EDGE_SHIFT) | 3


class TestEnvFlag:
    """AWDIT_NO_NUMPY forces the fallback kernels process-wide."""

    def _run(self, script, *args):
        env = dict(os.environ)
        env["AWDIT_NO_NUMPY"] = "1"
        proc = subprocess.run(
            [sys.executable, "-c", script, *args],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode in (0, 1), proc.stderr
        return proc.stdout

    def test_flag_keeps_numpy_out_of_the_process(self, tmp_path):
        # A CC check is the one that would load numpy; under the flag it
        # runs the pure-Python sides and never pays numpy's import.
        path = tmp_path / "h.plume"
        save_history(
            generate_random_history(RandomHistoryConfig(num_transactions=40, seed=3)),
            str(path),
            fmt="plume",
        )
        script = (
            "import sys\n"
            "import repro.cli\n"
            "code = repro.cli.main(['check', sys.argv[1], '-i', 'cc', '--profile'])\n"
            "print('numpy' in sys.modules)\n"
        )
        out = self._run(script, str(path))
        assert out.splitlines()[-1] == "False"

    def test_flag_disables_numpy_probes(self):
        script = (
            "import sys\n"
            "from repro.graph import csr\n"
            "assert not csr.HAVE_NUMPY and csr.load_numpy() is None\n"
            "assert csr._np is None and 'numpy' not in sys.modules\n"
            "print('ok')\n"
        )
        assert self._run(script).strip() == "ok"
