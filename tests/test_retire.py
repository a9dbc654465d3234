"""Tests for watermark-based retirement (repro.core.compiled.retire).

The contract under test: with ``--retire`` the streaming checker either
produces output byte-identical to a non-retiring run and to the object
batch oracle (verdicts, witness messages, inferred-edge counts), or refuses
with
:class:`RetiredAccessError` when the history genuinely needed evicted
state -- never a silently different answer.
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
from repro.core.compiled.kernels import compact_writer_registry
from repro.core.compiled.retire import (
    RetiredAccessError,
    RetirementPolicy,
    low_watermark_flat,
    stable_digest,
)
from repro.core.model import History, Transaction, read, write
from repro.histories.generator import (
    INJECTABLE_ANOMALIES,
    RandomHistoryConfig,
    generate_random_history,
    generate_random_stream,
    inject_anomaly,
)
from repro.stream import CompiledIncrementalChecker, check_stream_file, load_checkpoint

LEVELS = list(IsolationLevel)

#: Retire as hard as the policy allows: every transaction past the fold is
#: a candidate on every append.
AGGRESSIVE = RetirementPolicy(lag=0, every=1)


def raw_of(txn):
    return (
        txn.label,
        txn.committed,
        [(op.is_write, op.key, op.value) for op in txn.operations],
    )


def arrival_records(history, order):
    """``(session, transaction)`` pairs of ``history`` in ``order``."""
    sid_of = [0] * len(history.transactions)
    for sid, session in enumerate(history.sessions):
        for tid in session:
            sid_of[tid] = sid
    for tid in order:
        yield sid_of[tid], history.transactions[tid]


def interleaved_order(history, seed=0):
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


def run_compiled(history, order, retire=None):
    checker = CompiledIncrementalChecker(
        num_sessions=history.num_sessions, retire=retire
    )
    for sid, txn in arrival_records(history, order):
        checker.append_raw(sid, *raw_of(txn))
    return checker.finalize(), checker


def batch_oracle(history):
    """The object batch engine's result per level."""
    return {level: check(history, level, engine="object") for level in LEVELS}


def assert_identical(got, want):
    for level in LEVELS:
        assert got[level].is_consistent == want[level].is_consistent, level
        assert [v.message for v in got[level].violations] == [
            v.message for v in want[level].violations
        ], level
        assert got[level].stats.get("inferred_edges") == want[level].stats.get(
            "inferred_edges"
        ), level


def single_session_history(prefix_ops, fillers, suffix_ops):
    """One session: ``prefix_ops`` txns, ``fillers`` fresh-key writers, ``suffix_ops``.

    Single-session histories are the sharpest retirement stress: the
    session's own clock is the whole watermark, so everything past the lag
    retires (multi-session watermarks wait for cross-session reads).
    """
    txns = [Transaction(ops) for ops in prefix_ops]
    txns.extend(
        Transaction([write(f"filler{i}", i + 1)]) for i in range(fillers)
    )
    txns.extend(Transaction(ops) for ops in suffix_ops)
    return History.from_sessions([txns])


class TestRetireParity:
    @pytest.mark.parametrize("kind", INJECTABLE_ANOMALIES, ids=lambda k: k.name)
    def test_injected_anomalies_both_engines(self, kind):
        """At every lag, the retiring stream refuses or matches both engines.

        The two references are the non-retiring stream and the object batch
        oracle.  Small lags may legitimately refuse (a read in the random
        interleaving reaches past the watermark); the scan asserts the
        refusal is policy-monotone enough to find a workable lag, and that
        the first workable one reproduces the non-retiring answer exactly.
        """
        base = generate_random_history(
            RandomHistoryConfig(num_sessions=3, num_transactions=30, seed=5)
        )
        history = inject_anomaly(base, kind)
        order = interleaved_order(history, seed=7)
        want, _ = run_compiled(history, order)
        assert_identical(want, batch_oracle(history))
        matched = False
        for lag in (0, 4, 16, len(history.transactions)):
            policy = RetirementPolicy(lag=lag, every=1)
            try:
                got, _ = run_compiled(history, order, retire=policy)
            except RetiredAccessError:
                continue
            assert_identical(got, want)
            matched = True
        # The widest lag keeps every read inside the resident window.
        assert matched

    def test_arrival_stream_parity_both_engines(self):
        history, order = generate_random_stream(
            RandomHistoryConfig(
                num_sessions=6,
                num_transactions=600,
                num_keys=30,
                abort_probability=0.05,
                seed=13,
            )
        )
        policy = RetirementPolicy(lag=64, every=16)
        want, _ = run_compiled(history, order)
        got, checker = run_compiled(history, order, retire=policy)
        assert_identical(got, want)
        assert_identical(got, batch_oracle(history))
        # The arrival order keeps the fold drained, so the checker really
        # did retire most of the stream (not a vacuous pass).
        assert checker._retire_stats.retired_transactions > 300

    def test_inconsistent_stream_parity(self):
        history, order = generate_random_stream(
            RandomHistoryConfig(
                num_sessions=4,
                num_transactions=150,
                num_keys=12,
                mode="random_reads",
                seed=21,
            )
        )
        want, _ = run_compiled(history, order)
        # random_reads histories reach arbitrarily far back, so retirement
        # under a tight lag refuses; scan up to a lag that works and pin
        # byte-identity there.
        matched = False
        for lag in (16, 64, len(history.transactions)):
            policy = RetirementPolicy(lag=lag, every=4)
            try:
                got, _ = run_compiled(history, order, retire=policy)
            except RetiredAccessError:
                continue
            assert_identical(got, want)
            matched = True
        assert matched

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        seed=st.integers(0, 10_000),
        sessions=st.integers(1, 5),
        txns=st.integers(10, 120),
        keys=st.integers(2, 15),
        lag=st.integers(0, 64),
        every=st.integers(1, 32),
        mode=st.sampled_from(["serializable", "random_reads"]),
    )
    def test_retiring_run_is_identical_or_refuses(
        self, seed, sessions, txns, keys, lag, every, mode
    ):
        history, order = generate_random_stream(
            RandomHistoryConfig(
                num_sessions=sessions,
                num_transactions=txns,
                num_keys=keys,
                abort_probability=0.05,
                mode=mode,
                seed=seed,
            )
        )
        want, _ = run_compiled(history, order)
        policy = RetirementPolicy(lag=lag, every=every)
        try:
            got, _ = run_compiled(history, order, retire=policy)
        except RetiredAccessError:
            return
        assert_identical(got, want)


class TestRetireRefusal:
    def test_read_of_evicted_write_refuses(self):
        # W(x,1) is superseded by W(x,2), loses its latest-writer pin,
        # retires under the fillers, and the final R(x,1) can no longer be
        # classified: the check must refuse, not guess.
        history = single_session_history(
            [[write("x", 1)], [write("x", 2)]], 400, [[read("x", 1)]]
        )
        order = list(range(len(history.transactions)))
        policy = RetirementPolicy(lag=32, every=8)
        with pytest.raises(RetiredAccessError):
            run_compiled(history, order, retire=policy)

    def test_write_identity_reuse_refuses(self):
        # A later write re-mints the evicted (x, 1) identity; reads of it
        # would be ambiguous between the two writers, so the check refuses.
        history = single_session_history(
            [[write("x", 1)], [write("x", 2)]], 400, [[write("x", 1)]]
        )
        order = list(range(len(history.transactions)))
        policy = RetirementPolicy(lag=32, every=8)
        with pytest.raises(RetiredAccessError):
            run_compiled(history, order, retire=policy)

    def test_generous_lag_keeps_the_same_history_checkable(self):
        # The refusal above is the policy's fault, not the history's: with
        # the lag wider than the read's reach the run completes identically.
        history = single_session_history(
            [[write("x", 1)], [write("x", 2)]], 400, [[read("x", 1)]]
        )
        order = list(range(len(history.transactions)))
        want, _ = run_compiled(history, order)
        got, _ = run_compiled(
            history, order, retire=RetirementPolicy(lag=500, every=8)
        )
        assert_identical(got, want)


class TestRetireMemoryBounded:
    def test_resident_state_stays_bounded(self):
        history, order = generate_random_stream(
            RandomHistoryConfig(
                num_sessions=4, num_transactions=4000, num_keys=40, seed=3
            )
        )
        policy = RetirementPolicy(lag=128, every=32)
        checker = CompiledIncrementalChecker(
            num_sessions=history.num_sessions, retire=policy
        )
        peak_resident = 0
        for sid, txn in arrival_records(history, order):
            checker.append_raw(sid, *raw_of(txn))
            peak_resident = max(peak_resident, len(checker._t_sid))
        # Live state is O(lag + cadence + pinned writers), not O(history).
        bound = policy.lag + policy.every + 40 + 4 * history.num_sessions
        assert peak_resident <= bound
        stats = checker.live_stats()
        assert stats["retired_transactions"] >= 4000 - bound
        assert stats["post_compaction_peak_resident"] <= bound
        assert_identical(checker.finalize(), run_compiled(history, order)[0])

    def test_non_retiring_checker_keeps_everything(self):
        history, order = generate_random_stream(
            RandomHistoryConfig(num_sessions=4, num_transactions=500, seed=3)
        )
        _, checker = run_compiled(history, order)
        assert checker.live_stats()["retired_transactions"] == 0


class TestCheckpointAcrossRetirement:
    def _stream(self, txns=800):
        return generate_random_stream(
            RandomHistoryConfig(
                num_sessions=4,
                num_transactions=txns,
                num_keys=40,
                abort_probability=0.02,
                seed=17,
            )
        )

    def test_resume_straddles_a_compaction(self, tmp_path):
        history, order = self._stream()
        want, _ = run_compiled(history, order)
        policy = RetirementPolicy(
            lag=192, every=16, segment_dir=str(tmp_path / "segs")
        )
        records = list(arrival_records(history, order))
        half = CompiledIncrementalChecker(
            num_sessions=history.num_sessions, retire=policy
        )
        for sid, txn in records[:500]:
            half.append_raw(sid, *raw_of(txn))
        # The checkpoint must straddle real evictions, or this test is void.
        assert half.live_stats()["retire_passes"] > 0
        assert half._txns_base > 0
        path = tmp_path / "state.awd"
        half.save_checkpoint(str(path))

        resumed = load_checkpoint(str(path))
        assert resumed.num_transactions == 500
        resumed.enable_retirement(policy)
        for sid, txn in records[500:]:
            resumed.append_raw(sid, *raw_of(txn))
        assert_identical(resumed.finalize(), want)

    def test_non_retiring_checkpoint_resumes_with_retirement_disabled(self, tmp_path):
        # A checkpoint written without retirement resumes with it still off.
        history, order = self._stream(txns=200)
        want, _ = run_compiled(history, order)
        records = list(arrival_records(history, order))
        half = CompiledIncrementalChecker(num_sessions=history.num_sessions)
        for sid, txn in records[:120]:
            half.append_raw(sid, *raw_of(txn))
        path = tmp_path / "state.awd"
        half.save_checkpoint(str(path))

        resumed = load_checkpoint(str(path))
        assert resumed.num_transactions == 120
        assert resumed._retire is None
        assert resumed.live_stats()["retire_enabled"] == 0
        for sid, txn in records[120:]:
            resumed.append_raw(sid, *raw_of(txn))
        assert_identical(resumed.finalize(), want)

    def test_non_retiring_checkpoint_resume_can_enable_retirement(self, tmp_path):
        # The resumed run can turn retirement on, which rebuilds the
        # latest-writer pins from the resident writes index.
        history, order = self._stream()
        want, _ = run_compiled(history, order)
        records = list(arrival_records(history, order))
        half = CompiledIncrementalChecker(num_sessions=history.num_sessions)
        for sid, txn in records[:400]:
            half.append_raw(sid, *raw_of(txn))
        path = tmp_path / "state.awd"
        half.save_checkpoint(str(path))

        resumed = load_checkpoint(str(path))
        assert resumed.num_transactions == 400
        assert resumed.live_stats()["retire_enabled"] == 0
        resumed.enable_retirement(RetirementPolicy(lag=128, every=16))
        for sid, txn in records[400:]:
            resumed.append_raw(sid, *raw_of(txn))
        assert_identical(resumed.finalize(), want)
        assert resumed._retire_stats.retired_transactions > 0

    def test_check_stream_file_resume_with_retire(self, tmp_path):
        from repro.histories.formats import plume_text

        history, order = self._stream(txns=300)
        path = tmp_path / "h.plume"
        path.write_text(plume_text.dumps(history, order=order))
        state = tmp_path / "state.awd"
        policy = RetirementPolicy(
            lag=128, every=16, segment_dir=str(tmp_path / "segs")
        )
        want = check_stream_file(
            str(path), IsolationLevel.CAUSAL_CONSISTENCY, fmt="plume"
        )
        first = check_stream_file(
            str(path),
            IsolationLevel.CAUSAL_CONSISTENCY,
            fmt="plume",
            checkpoint=str(state),
            retire=policy,
        )
        resumed = check_stream_file(
            str(path),
            IsolationLevel.CAUSAL_CONSISTENCY,
            fmt="plume",
            checkpoint=str(state),
            resume=True,
            retire=policy,
        )
        for got in (first, resumed):
            assert got.is_consistent == want.is_consistent
            assert [v.message for v in got.violations] == [
                v.message for v in want.violations
            ]


class TestRetireHelpers:
    def test_low_watermark_takes_the_component_minimum(self):
        # Three session-clock rows, stride 4, -1-padded past the sessions.
        clocks = array("q", [3, 7, 2, -1, 5, 4, 9, -1, 4, 6, 2, -1])
        assert low_watermark_flat(clocks, 4, 3) == [3, 4, 2]

    def test_low_watermark_treats_short_clocks_as_unseen(self):
        # A session that has never joined another's clock holds it at -1,
        # which pins that session's watermark below every transaction.
        clocks = array("q", [2, 5, -1, -1, 1, -1, -1, -1])
        assert low_watermark_flat(clocks, 4, 2) == [1, -1]

    def test_stable_digest_distinguishes_key_value_splits(self):
        assert stable_digest("x", 1) == stable_digest("x", 1)
        assert stable_digest("x", 12) != stable_digest("x1", 2)
        assert stable_digest("x", "1") != stable_digest("x", 1)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetirementPolicy(lag=-1)
        with pytest.raises(ValueError):
            RetirementPolicy(every=0)

    @settings(max_examples=100, deadline=None)
    @given(
        buckets=st.lists(st.integers(0, 5), max_size=40),
        drops=st.dictionaries(st.integers(0, 6), st.integers(0, 8)),
    )
    def test_compaction_drops_each_buckets_first_rows_in_order(self, buckets, drops):
        # Rows are (bucket, sidx, tid); sidx and tid just tag the position.
        rows = [(b, 10 * i, 100 + i) for i, b in enumerate(buckets)]
        want = [
            row
            for i, row in enumerate(rows)
            if [r[0] for r in rows[:i]].count(row[0]) >= drops.get(row[0], 0)
        ]
        columns = [array("q", [row[k] for row in rows]) for k in range(3)]
        got = compact_writer_registry(*columns, drops)
        assert all(isinstance(column, array) for column in got)
        assert list(zip(*got)) == want


class TestFallbackParity:
    def test_no_numpy_retiring_run_matches(self, tmp_path):
        """AWDIT_NO_NUMPY=1 retires through the pure-Python kernels identically."""
        from repro.histories.formats import plume_text

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
        want, _ = run_compiled(history, order)
        # The fallback acyclicity kernel may start a cycle witness at a
        # different (equivalent) rotation than numpy, so the byte-identity
        # oracle for the fallback retiring run is the fallback non-retiring
        # run in the same process; the verdict and violation count are
        # still pinned against the numpy run.
        script = (
            "import sys\n"
            "from repro.core import IsolationLevel\n"
            "from repro.core.compiled import online\n"
            "assert online._np is None\n"
            "from repro.core.compiled.retire import RetirementPolicy\n"
            "from repro.stream import check_stream_file\n"
            "plain = check_stream_file(sys.argv[1], IsolationLevel.CAUSAL_CONSISTENCY,\n"
            "    fmt='plume')\n"
            "retiring = check_stream_file(sys.argv[1], IsolationLevel.CAUSAL_CONSISTENCY,\n"
            "    fmt='plume', retire=RetirementPolicy(lag=32, every=8))\n"
            "assert retiring.is_consistent == plain.is_consistent\n"
            "assert [v.message for v in retiring.violations] == \\\n"
            "    [v.message for v in plain.violations]\n"
            "print(int(retiring.is_consistent), len(retiring.violations))\n"
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
        level = IsolationLevel.CAUSAL_CONSISTENCY
        assert proc.stdout.strip() == (
            f"{int(want[level].is_consistent)} {len(want[level].violations)}"
        )
