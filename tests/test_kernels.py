"""Bit-identity tests for the saturation kernels (repro.core.compiled.kernels).

The kernels module is the single home of the CC/RC/RA saturation loops.  RC
and RA saturation have one implementation; CC saturation exists twice --
numpy-vectorized and pure-Python fallback, selected like
``csr.freeze_packed``.  These tests pin the contract every consumer (batch
checkers, online fold) relies on:

* the two CC implementations emit *byte-identical* packed co logs and key
  rows, in the identical order, on arbitrary histories including injected
  anomalies (hypothesis-tested with the size cutoff pinned to 0 so the
  vectorized path runs even on tiny inputs);
* whole-check results (verdicts, violation kinds, witness renderings) never
  depend on which implementation ran;
* the online fold's deferred probe flush is bit-identical between the
  vectorized and scalar flush paths, for any record interleaving and any
  ``batch_ops``;
* the 32-bit boundaries of the vectorized encodings hold: packed edges are
  unsigned, and the composite writer index spans a full ``2^32`` per bucket
  so a ``bound = -1`` probe cannot collide with the previous bucket
  (mirroring ``tests/test_csr.py``'s packed-edge boundary coverage).
"""

import os
import random
import subprocess
import sys
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import IsolationLevel, check
from repro.core.compiled import compile_history
from repro.core.compiled import kernels
from repro.core.compiled import online
from repro.core.compiled.checkers import (
    _relation_from_compiled,
    check_read_consistency_compiled,
    compute_happens_before_compiled,
)
from repro.core.compiled.kernels import saturate_cc_compiled
from repro.graph.digraph import EDGE_SHIFT
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
    not kernels.HAVE_NUMPY, reason="vectorized kernels need numpy"
)


@pytest.fixture
def force_vectorized(monkeypatch):
    """Make the vectorized kernels run even on tiny inputs."""
    monkeypatch.setattr(kernels, "_MIN_VECTOR_READS", 0)


def _fallback(monkeypatch_target=kernels):
    class _Ctx:
        def __enter__(self):
            self.saved = monkeypatch_target._np
            monkeypatch_target._np = None

        def __exit__(self, *exc):
            monkeypatch_target._np = self.saved

    return _Ctx()


def _saturation_logs(history):
    """Run the CC saturation kernel; return its raw (co_log, co_keys) bytes."""
    ch = compile_history(history)
    relation = _relation_from_compiled(ch)
    report = check_read_consistency_compiled(ch)
    hb, _ = compute_happens_before_compiled(ch, report.bad_ops)
    if hb is None:
        return None, None, "cyclic"
    impl = saturate_cc_compiled(ch, relation, hb, report.bad_ops)
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
        with _fallback():
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
        with _fallback():
            fb = check(history, CC, engine="compiled")
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
        with _fallback():
            result = check(history, CC, engine="compiled")
        assert result.stats["saturation_kernel"] == "fallback"


@needs_numpy
class TestOnlineFlushBitIdentity:
    """The online fold's vectorized probe flush matches the scalar flush."""

    def _records(self, history, order_seed):
        rng = random.Random(order_seed)
        positions = [0] * len(history.sessions)
        while True:
            live = [
                i
                for i, session in enumerate(history.sessions)
                if positions[i] < len(session)
            ]
            if not live:
                return
            i = rng.choice(live)
            tid = history.sessions[i][positions[i]]
            positions[i] += 1
            txn = history.transactions[tid]
            yield (
                f"s{i}",
                (
                    txn.label,
                    txn.committed,
                    [(op.is_write, op.key, op.value) for op in txn.operations],
                ),
            )

    def _run(self, history, batch_ops, order_seed, use_numpy, monkeypatch):
        if use_numpy:
            monkeypatch.setattr(kernels, "_MIN_VECTOR_READS", 0)
        else:
            monkeypatch.setattr(online, "_np", None)
        checker = online.CompiledIncrementalChecker(levels=list(online.ALL_LEVELS))
        checker.extend_raw(self._records(history, order_seed), batch_ops=batch_ops)
        log = dict(checker._cc_log)
        results = checker.finalize()
        rendered = {
            level.name: (
                [(v.kind.name, v.describe()) for v in res.violations],
                res.checker,
            )
            for level, res in results.items()
        }
        return log, rendered

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
    )
    @given(
        config=history_configs,
        batch_ops=st.sampled_from([1, 7, 4096]),
        order_seed=st.integers(0, 1000),
    )
    def test_cc_log_and_results_identical(
        self, config, batch_ops, order_seed, monkeypatch
    ):
        history = generate_random_history(config)
        with monkeypatch.context() as patch:
            vec_log, vec_out = self._run(history, batch_ops, order_seed, True, patch)
        with monkeypatch.context() as patch:
            fb_log, fb_out = self._run(history, batch_ops, order_seed, False, patch)
        assert vec_log == fb_log
        assert vec_out == fb_out


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
        np = kernels._np
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
        np = kernels._np
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

    def test_flag_disables_numpy_probes(self):
        script = (
            "from repro.graph import csr\n"
            "from repro.core.compiled import kernels\n"
            "from repro.core.compiled import online\n"
            "assert csr._np is None and not csr.HAVE_NUMPY\n"
            "assert kernels._np is None and not kernels.HAVE_NUMPY\n"
            "assert online._np is None\n"
            "print('ok')\n"
        )
        env = dict(os.environ)
        env["AWDIT_NO_NUMPY"] = "1"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"
