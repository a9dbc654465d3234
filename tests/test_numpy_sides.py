"""The numpy sides of a CC process's O(n) passes equal the loops they replace.

Once a CC check has loaded numpy, :mod:`repro.core.compiled.numpy_sides`
derives the IR's columns (``CompiledHistory._freeze``), screens read
consistency and writes the ``so ∪ wr`` logs.  These tests force those
sides with ``kernels._MIN_VECTOR_READS = 0`` and hold them, by hypothesis,
against the loops that ``csr.numpy_disabled()`` selects:

* every ``_freeze`` column, value and type, on histories with aborted
  transactions, own reads, duplicate writes and thin-air reads;
* the read-consistency report, with each Algorithm 4 kind injected
  (including a read of a stale own write), and a clean screen exactly
  when the loop finds nothing;
* the ``so`` / ``wr`` log and key bytes;
* the CC co log with the probe prefilter (``bucket_first`` /
  ``bucket_last``), at ``_CC_CHUNK_TXNS`` 1 and whole;
* the int64 boundary of each composite sort key.

The builder's ``finalize`` copies whole session buffers; it is held
against the per-transaction loop it replaced, kept here as
:func:`per_transaction_finalize`.  Last, the ``awdit`` process entry
(:func:`repro.cli.run`) prints and exits like :func:`repro.cli.main`.
"""

import contextlib
import gc
import io
import os
import re
import subprocess
import sys
import tracemalloc
from array import array
from typing import List

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import cli
from repro.core.compiled import cc as compiled_cc
from repro.core.compiled import compile_history, kernels, numpy_sides
from repro.core.compiled.checkers import (
    _relation_from_compiled,
    check_read_consistency_compiled,
)
from repro.core.compiled.ir import CompiledHistoryBuilder, Intern, session_order
from repro.core.model import History, Transaction, read, write
from repro.core.violations import ViolationKind
from repro.graph import csr
from repro.histories.formats import save_history
from repro.histories.generator import (
    RandomHistoryConfig,
    generate_random_history,
    inject_anomaly,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

needs_numpy = pytest.mark.skipif(not csr.HAVE_NUMPY, reason="compares numpy's sides")

HYPOTHESIS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

#: Raw sessions of ``(committed, [(is_write, key, value), ...])``: three
#: keys and four values make own reads, duplicate writes, thin-air reads
#: and reads of aborted writes common.
raw_histories = st.lists(
    st.lists(
        st.tuples(
            st.sampled_from([True, True, True, False]),
            st.lists(
                st.tuples(st.booleans(), st.sampled_from("xyz"), st.integers(0, 3)),
                max_size=6,
            ),
        ),
        max_size=6,
    ),
    min_size=1,
    max_size=4,
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


def _add(builder, sessions) -> None:
    for sid, session in enumerate(sessions):
        for committed, ops in session:
            builder.add_transaction(sid, None, committed, ops)


def _build(sessions):
    builder = CompiledHistoryBuilder()
    _add(builder, sessions)
    return builder.finalize()


@pytest.fixture
def sides(monkeypatch):
    """``sides(make)``: ``make()`` on the numpy sides, then on the loops.

    Also returns the names of the numpy sides that ran (and did not hand
    back to their loop), so a test cannot pass on two loop runs.
    """
    csr.load_numpy()
    monkeypatch.setattr(kernels, "_MIN_VECTOR_READS", 0)
    ran: List[str] = []
    for name in ("freeze", "reads_consistent", "relation_logs"):
        original = getattr(numpy_sides, name)

        def spy(*args, _original=original, _name=name):
            out = _original(*args)
            if out is not False:
                ran.append(_name)
            return out

        monkeypatch.setattr(numpy_sides, name, spy)

    def run(make):
        del ran[:]
        vectorized = make()
        count = len(ran)
        with csr.numpy_disabled():
            loop = make()
        assert len(ran) == count, "a numpy side ran without numpy"
        return vectorized, loop, set(ran)

    return run


FROZEN_COLUMNS = (
    "op_final",
    "_kw_start",
    "_kw_key",
    "_xr_start",
    "_xr_po",
    "_xr_key",
    "_xr_writer",
    "_kw_sets",
)


def _frozen(ch):
    out = {}
    for name in FROZEN_COLUMNS:
        column = getattr(ch, name)
        kind = (type(column), getattr(column, "typecode", None))
        out[name] = (kind, list(column))
    for name in ("_xr_po", "_xr_key", "_xr_writer"):
        assert all(type(v) is int for v in getattr(ch, name))
    return out


@needs_numpy
class TestFreeze:
    @HYPOTHESIS
    @given(sessions=raw_histories)
    def test_builder_columns_equal_the_loop(self, sessions, sides):
        vectorized, loop, ran = sides(lambda: _frozen(_build(sessions)))
        if any(ops for session in sessions for _, ops in session):
            assert "freeze" in ran
        assert vectorized == loop

    @HYPOTHESIS
    @given(config=history_configs)
    def test_compiled_history_columns_equal_the_loop(self, config, sides):
        history = generate_random_history(config)
        vectorized, loop, _ = sides(lambda: _frozen(compile_history(history)))
        assert vectorized == loop

    def test_every_case_in_one_history(self, sides):
        sessions = [
            [
                (True, [(True, "x", 1), (False, "x", 1), (True, "x", 2), (True, "y", 1)]),
                (False, [(True, "z", 3), (True, "z", 3)]),
                (True, [(False, "x", 9), (False, "z", 3), (True, "y", 1), (True, "x", 4)]),
            ],
            [(True, [(False, "x", 2), (False, "y", 1), (True, "x", 2), (False, "x", 2)])],
        ]
        vectorized, loop, ran = sides(lambda: _frozen(_build(sessions)))
        assert ran == {"freeze"}
        assert vectorized == loop


def _report(ch):
    report = check_read_consistency_compiled(ch)
    return [v.describe() for v in report.violations], sorted(report.bad_ops)


#: A read of a stale own write: ``x = 1`` is written, overwritten with
#: ``x = 2`` and then read back as ``1`` by the same transaction.
STALE_OWN_WRITE = Transaction(
    [write("stale_x", 1), write("stale_x", 2), read("stale_x", 1)], label="stale_reader"
)


def _anomalous(kind, base):
    if kind == "STALE_OWN_WRITE":
        sessions = [[base.transactions[t] for t in session] for session in base.sessions]
        rebuilt = [
            [Transaction(t.operations, committed=t.committed, label=t.label) for t in s]
            for s in sessions
        ]
        rebuilt[-1].append(STALE_OWN_WRITE)
        return History.from_sessions(rebuilt)
    return inject_anomaly(base, ViolationKind[kind])


ALGORITHM_4 = [
    "THIN_AIR_READ",
    "ABORTED_READ",
    "FUTURE_READ",
    "NOT_OWN_WRITE",
    "NOT_LATEST_WRITE",
    "STALE_OWN_WRITE",
]


@needs_numpy
class TestReadConsistencyScreen:
    @pytest.mark.parametrize("kind", ALGORITHM_4)
    def test_each_kind_reports_what_the_loop_reports(self, kind, sides):
        base = generate_random_history(
            RandomHistoryConfig(num_sessions=6, num_transactions=80, num_keys=12, seed=3)
        )
        ch = compile_history(_anomalous(kind, base))
        vectorized, loop, _ = sides(lambda: _report(ch))
        assert vectorized == loop
        assert vectorized[0], "the injected read must be reported"
        csr.load_numpy()
        assert not numpy_sides.reads_consistent(ch)
        assert numpy_sides.reads_consistent(compile_history(base))

    @HYPOTHESIS
    @given(sessions=raw_histories)
    def test_screen_is_clean_exactly_when_the_loop_finds_nothing(self, sessions, sides):
        ch = _build(sessions)
        vectorized, loop, ran = sides(lambda: _report(ch))
        assert vectorized == loop
        if ch.num_operations:
            assert ("reads_consistent" in ran) == (not loop[0])
        csr.load_numpy()
        assert numpy_sides.reads_consistent(ch) == (not loop[0])

    @HYPOTHESIS
    @given(config=history_configs)
    def test_random_histories(self, config, sides):
        ch = compile_history(generate_random_history(config))
        vectorized, loop, _ = sides(lambda: _report(ch))
        assert vectorized == loop

    def test_peak_stays_under_five_int64_columns(self):
        """The screen drops each temporary after its last read and builds its
        sort keys in place: a clean history peaks under 4.5 int64 columns
        of its operations (the screen that held them all peaked near 6)."""
        csr.load_numpy()
        ch = compile_history(
            generate_random_history(
                RandomHistoryConfig(num_sessions=8, num_transactions=2000, seed=7)
            )
        )
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before, _ = tracemalloc.get_traced_memory()
            assert numpy_sides.reads_consistent(ch)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - before < 4.5 * 8 * ch.num_operations


def _logs(ch):
    relation = _relation_from_compiled(ch)
    return [
        (type(log), log.typecode, log.tobytes())
        for log in (relation._so_log, relation._wr_log, relation._wr_keys)
    ]


@needs_numpy
class TestRelationLogs:
    @HYPOTHESIS
    @given(sessions=raw_histories)
    def test_builder_logs_equal_the_loop(self, sessions, sides):
        ch = _build(sessions)
        vectorized, loop, ran = sides(lambda: _logs(ch))
        if ch._xr_start[ch.num_transactions]:
            assert "relation_logs" in ran
        assert vectorized == loop

    @HYPOTHESIS
    @given(config=history_configs)
    def test_compiled_history_logs_equal_the_loop(self, config, sides):
        ch = compile_history(generate_random_history(config))
        vectorized, loop, _ = sides(lambda: _logs(ch))
        assert vectorized == loop


def _co_log(ch, monkeypatch, chunk, prefilter=True):
    monkeypatch.setattr(compiled_cc, "_CC_CHUNK_TXNS", chunk)
    report = check_read_consistency_compiled(ch)
    hb, _ = compiled_cc.compute_happens_before_compiled(ch, report.bad_ops)
    if hb is None:
        return None
    ch._kernel_cache = None
    if not prefilter and csr._np is not None:
        idx = compiled_cc._cc_index(ch)
        if idx is not None:
            idx.bucket_first = csr._np.full_like(idx.bucket_first, -1)
            idx.bucket_last = csr._np.full_like(idx.bucket_last, 1 << 40)
    relation = _relation_from_compiled(ch)
    kernel = compiled_cc.saturate_cc_compiled(ch, relation, hb, report.bad_ops)
    return kernel, relation._co_log.tobytes(), relation._co_keys.tobytes()


@needs_numpy
class TestCCPrefilter:
    @HYPOTHESIS
    @given(config=history_configs)
    def test_co_log_is_unchanged(self, config, monkeypatch):
        csr.load_numpy()
        monkeypatch.setattr(kernels, "_MIN_VECTOR_READS", 0)
        ch = compile_history(generate_random_history(config))
        whole = 1 << 30
        logs = [
            _co_log(ch, monkeypatch, 1),
            _co_log(ch, monkeypatch, whole),
            _co_log(ch, monkeypatch, whole, prefilter=False),
        ]
        with csr.numpy_disabled():
            logs.append(_co_log(ch, monkeypatch, whole))
        if logs[0] is None:
            return
        assert [log[0] for log in logs] == ["vectorized"] * 3 + ["fallback"]
        assert len({log[1:] for log in logs}) == 1

    def test_bucket_bounds_are_each_buckets_first_and_last_session_index(self):
        np = csr.load_numpy()
        ch = compile_history(
            generate_random_history(
                RandomHistoryConfig(num_sessions=5, num_transactions=60, num_keys=4, seed=9)
            )
        )
        idx = compiled_cc._build_cc_index(ch)
        ends = np.append(idx.bucket_start[1:], idx.wb_comp.shape[0])
        sidx = ch.txn_session_index
        assert idx.bucket_first.tolist() == [sidx[idx.wb_tid[s]] for s in idx.bucket_start]
        assert idx.bucket_last.tolist() == [sidx[idx.wb_tid[e - 1]] for e in ends]


class _HugeIntern(Intern):
    """A key table that reports ``size`` keys: the composite keys' boundary."""

    __slots__ = ("size",)

    def __len__(self):
        return self.size


def _unfrozen(ch):
    """``ch`` with its derived columns as ``_freeze`` finds them."""
    ch.op_final = bytearray(ch.num_operations)
    ch._kw_start, ch._kw_key = array("q", [0]), array("q")
    ch._xr_start, ch._xr_po, ch._xr_key, ch._xr_writer = array("q", [0]), [], [], []
    return ch


def _with_num_keys(ch, size):
    table = _HugeIntern()
    table.values = ch.key_table.values
    table.size = size
    ch.key_table = table
    return ch


@needs_numpy
class TestInt64Boundary:
    # One small history; only the key count it reports moves.
    SESSIONS = [[(True, [(True, "x", 1), (False, "x", 1)])], [(True, [(False, "x", 1)])]]

    def _fresh(self, num_keys):
        with csr.numpy_disabled():
            ch = _build(self.SESSIONS)
        return _with_num_keys(ch, num_keys)

    def test_freeze_group_key(self, monkeypatch):
        # txn * num_keys + key, over two transactions.
        csr.load_numpy()
        monkeypatch.setattr(kernels, "_MIN_VECTOR_READS", 0)
        want = _frozen(self._fresh(1))
        for num_keys, vectorized in (((1 << 62) - 1, True), (1 << 62, False)):
            assert numpy_sides.freeze(_unfrozen(self._fresh(num_keys))) is vectorized
            ch = _unfrozen(self._fresh(num_keys))
            ch._freeze()
            assert _frozen(ch) == want

    def test_screen_position_key(self):
        # key * n + position, over three operations.
        csr.load_numpy()
        assert numpy_sides.reads_consistent(self._fresh(1))
        assert numpy_sides.reads_consistent(self._fresh((1 << 63) // 3))
        assert not numpy_sides.reads_consistent(self._fresh((1 << 63) // 3 + 1))


# -- finalize: whole session buffers ---------------------------------------------


def per_transaction_finalize(builder, fill_gaps=False):
    """The base columns as ``finalize`` built them, one transaction at a time."""
    externals = session_order(builder._session_ids, fill_gaps)
    empty = builder._SessionBuffer()
    ordered = [
        builder._buffers[builder._session_ids[e]] if e in builder._session_ids else empty
        for e in externals
    ]
    out = {
        "op_kind": bytearray(),
        "op_key": array("q"),
        "op_value": array("q"),
        "op_txn": array("q"),
        "txn_start": array("q", [0]),
        "txn_session": array("q"),
        "txn_session_index": array("q"),
        "txn_committed": bytearray(),
        "labels": {},
        "sessions": [],
        "session_table": externals,
    }
    tid = 0
    for dense_sid, buf in enumerate(ordered):
        ids = []
        lo = 0
        for pos in range(len(buf.committed)):
            hi = buf.txn_end[pos]
            out["op_kind"].extend(buf.kind[lo:hi])
            out["op_key"].extend(buf.key[lo:hi])
            out["op_value"].extend(buf.value[lo:hi])
            out["op_txn"].extend([tid] * (hi - lo))
            out["txn_start"].append(len(out["op_key"]))
            out["txn_session"].append(dense_sid)
            out["txn_session_index"].append(pos)
            out["txn_committed"].append(buf.committed[pos])
            label = buf.labels.get(pos)
            if label is not None:
                out["labels"][tid] = label
            ids.append(tid)
            tid += 1
            lo = hi
        out["sessions"].append(ids)
    return out


def _described(columns):
    return {
        name: list(column.items())
        if isinstance(column, dict)
        else (type(column), getattr(column, "typecode", None), list(column))
        for name, column in columns.items()
    }


#: Records of ``(external session, label or None, committed, ops)`` in
#: arrival order: sessions interleave and skip ids.
arrival_records = st.lists(
    st.tuples(
        st.sampled_from([0, 2, 3, 7]),
        st.one_of(st.none(), st.text("abc", min_size=1, max_size=3)),
        st.booleans(),
        st.lists(
            st.tuples(st.booleans(), st.sampled_from("xyz"), st.integers(0, 3)), max_size=4
        ),
    ),
    max_size=30,
)


class TestFinalize:
    @HYPOTHESIS
    @given(records=arrival_records, fill_gaps=st.booleans())
    def test_whole_session_copies_equal_the_per_transaction_loop(self, records, fill_gaps):
        builders = [CompiledHistoryBuilder(), CompiledHistoryBuilder()]
        for record in records:
            for builder in builders:
                builder.add_transaction(*record)
        want = per_transaction_finalize(builders[0], fill_gaps)
        ch = builders[1].finalize(fill_gaps=fill_gaps)
        assert _described({name: getattr(ch, name) for name in want}) == _described(want)


# -- memory footprint --------------------------------------------------------------


@pytest.mark.parametrize("numpy", [True, False])
def test_footprint_counts_the_ints_behind_the_external_reads(numpy, monkeypatch):
    if numpy and not csr.HAVE_NUMPY:
        pytest.skip("needs numpy")
    # 600 transactions over 400 keys: most writer ids and key ids are
    # above CPython's small-int cache, so each is an int object of its own.
    history = generate_random_history(
        RandomHistoryConfig(num_sessions=6, num_transactions=600, num_keys=400, seed=4)
    )
    if numpy:
        csr.load_numpy()
        monkeypatch.setattr(kernels, "_MIN_VECTOR_READS", 0)
        ch = compile_history(history)
    else:
        with csr.numpy_disabled():
            ch = compile_history(history)
    columns = (ch._xr_po, ch._xr_key, ch._xr_writer)
    objects = {id(v): v for column in columns for v in column if not -5 <= v <= 256}
    boxed = sum(sys.getsizeof(v) for v in objects.values())
    assert boxed > 28 * 200
    with_reads = ch.memory_footprint()["arrays_bytes"]
    ch._xr_po, ch._xr_key, ch._xr_writer = [], [], []
    without = ch.memory_footprint()["arrays_bytes"]
    assert with_reads - without == 8 * sum(map(len, columns)) + boxed


# -- the awdit process entry --------------------------------------------------------


def _without_elapsed(text):
    return re.sub(r" in [0-9.]+ ms ", " ", text)


@pytest.mark.parametrize("case", ["consistent", "violation", "usage"])
def test_a_fresh_process_prints_and_exits_as_main_does(tmp_path, case):
    history = generate_random_history(
        RandomHistoryConfig(num_sessions=3, num_transactions=40, seed=6)
    )
    if case == "violation":
        history = inject_anomaly(history, ViolationKind.COMMIT_ORDER_CYCLE)
    path = str(tmp_path / "h.plume")
    save_history(history, path, fmt="plume")
    argv = ["check", path, "-i", "xx" if case == "usage" else "cc"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code == {"consistent": 0, "violation": 1, "usage": 2}[case]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    fresh = subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv], env=env, capture_output=True, text=True
    )
    assert "Traceback" not in fresh.stderr
    assert fresh.returncode == code
    assert _without_elapsed(fresh.stdout) == _without_elapsed(stdout.getvalue())


def test_run_freezes_the_heap_after_main(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "main", lambda: calls.append(gc.get_freeze_count()) or 3)
    try:
        assert cli.run() == 3
        assert calls and gc.get_freeze_count() > calls[0]
    finally:
        gc.unfreeze()


def test_console_script_runs_run():
    with open(os.path.join(ROOT, "setup.py"), encoding="utf-8") as handle:
        text = handle.read()
    assert re.findall(r'"awdit = ([\w.:]+)"', text) == ["repro.cli:run"]
