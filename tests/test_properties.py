"""Property-based tests (hypothesis) for the core invariants of the library.

These properties tie the whole system together:

* the optimized AWDIT checkers agree with the naive from-definition oracles
  on arbitrary generated histories,
* the isolation-level lattice is respected (CC ⊑ RA ⊑ RC),
* histories produced by the serializable / causal database simulator satisfy
  the levels they promise,
* serialization formats round-trip verdicts,
* the lower-bound reductions track triangle-freeness exactly.
"""


import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.naive import check_naive
from repro.baselines.plume import check_plume
from repro.core import IsolationLevel, check, check_all_levels
from repro.db.config import DatabaseConfig, IsolationMode
from repro.histories.formats import load_history, save_history
from repro.histories.generator import (
    RandomHistoryConfig,
    generate_random_history,
)
from repro.lowerbounds.reductions import (
    general_reduction,
    ra_two_session_reduction,
    rc_single_session_reduction,
)
from repro.lowerbounds.triangles import has_triangle, random_graph
from repro.workloads import CTwitterWorkload, collect_history

LEVELS = list(IsolationLevel)

history_configs = st.builds(
    RandomHistoryConfig,
    num_sessions=st.integers(1, 5),
    num_transactions=st.integers(0, 30),
    num_keys=st.integers(1, 6),
    min_ops_per_txn=st.just(1),
    max_ops_per_txn=st.integers(1, 6),
    read_fraction=st.floats(0.2, 0.8),
    abort_probability=st.sampled_from([0.0, 0.1]),
    mode=st.sampled_from(["serializable", "random_reads"]),
    seed=st.integers(0, 10_000),
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=history_configs, level=st.sampled_from(LEVELS))
def test_awdit_agrees_with_naive_oracle(config, level):
    """The optimized algorithms and the from-definition oracles give the same verdict."""
    history = generate_random_history(config)
    assert check(history, level).is_consistent == check_naive(history, level).is_consistent


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=history_configs, level=st.sampled_from(LEVELS))
def test_awdit_agrees_with_plume_baseline(config, level):
    """AWDIT and the Plume-like TAP search give the same verdict."""
    history = generate_random_history(config)
    assert check(history, level).is_consistent == check_plume(history, level).is_consistent


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=history_configs)
def test_isolation_lattice_monotonicity(config):
    """CC-consistency implies RA-consistency implies RC-consistency."""
    history = generate_random_history(config)
    results = check_all_levels(history)
    cc = results[IsolationLevel.CAUSAL_CONSISTENCY].is_consistent
    ra = results[IsolationLevel.READ_ATOMIC].is_consistent
    rc = results[IsolationLevel.READ_COMMITTED].is_consistent
    assert (not cc or ra) and (not ra or rc)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 10_000))
def test_serializable_generator_histories_satisfy_every_level(seed):
    history = generate_random_history(
        RandomHistoryConfig(seed=seed, num_transactions=25, mode="serializable")
    )
    assert all(result.is_consistent for result in check_all_levels(history).values())


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 1_000), sessions=st.integers(2, 6))
def test_causal_database_histories_satisfy_cc(seed, sessions):
    """The causal simulator never produces CC violations."""
    config = DatabaseConfig(
        isolation=IsolationMode.CAUSAL,
        num_replicas=min(3, sessions),
        replication_lag=20.0,
        seed=seed,
    )
    history = collect_history(
        CTwitterWorkload(num_users=6),
        config,
        num_sessions=sessions,
        num_transactions=60,
        seed=seed,
    )
    assert check(history, IsolationLevel.CAUSAL_CONSISTENCY).is_consistent


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 1_000))
def test_read_committed_database_histories_satisfy_rc(seed):
    config = DatabaseConfig(
        isolation=IsolationMode.READ_COMMITTED,
        num_replicas=3,
        replication_lag=30.0,
        seed=seed,
    )
    history = collect_history(
        CTwitterWorkload(num_users=6),
        config,
        num_sessions=6,
        num_transactions=60,
        seed=seed,
    )
    assert check(history, IsolationLevel.READ_COMMITTED).is_consistent


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    config=history_configs,
    fmt=st.sampled_from(["native", "plume", "dbcop", "cobra"]),
)
def test_format_round_trip_preserves_verdicts(config, fmt):
    history = generate_random_history(config)
    if history.num_transactions == 0:
        return
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "h")
        save_history(history, path, fmt=fmt)
        reloaded = load_history(path, fmt=fmt)
    assert reloaded.num_operations == history.num_operations
    for level in LEVELS:
        assert (
            check(reloaded, level).is_consistent == check(history, level).is_consistent
        )


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    num_vertices=st.integers(3, 9),
    edge_probability=st.floats(0.1, 0.7),
    seed=st.integers(0, 10_000),
)
def test_reductions_track_triangle_freeness(num_vertices, edge_probability, seed):
    graph = random_graph(num_vertices, edge_probability, seed=seed)
    triangle = has_triangle(graph)
    assert check(
        ra_two_session_reduction(graph), IsolationLevel.READ_ATOMIC
    ).is_consistent == (not triangle)
    assert check(
        rc_single_session_reduction(graph), IsolationLevel.READ_COMMITTED
    ).is_consistent == (not triangle)
    general = general_reduction(graph)
    if not triangle:
        assert check(general, IsolationLevel.CAUSAL_CONSISTENCY).is_consistent
    else:
        assert not check(general, IsolationLevel.READ_COMMITTED).is_consistent


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=history_configs)
def test_single_session_ra_fast_path_matches_general_algorithm(config):
    """Theorem 1.6's linear algorithm agrees with Algorithm 2 on one session."""
    config.num_sessions = 1
    history = generate_random_history(config)
    from repro.core.ra import check_ra, check_ra_single_session

    assert (
        check_ra_single_session(history).is_consistent
        == check_ra(history).is_consistent
    )


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=history_configs)
def test_consistent_history_yields_linearizable_commit_relation(config):
    """When AWDIT reports consistency, the inferred co' linearizes (Lemma 3.2)."""
    from repro.core.commit import CommitRelation
    from repro.core.rc import saturate_rc
    from repro.core.read_consistency import check_read_consistency

    history = generate_random_history(config)
    report = check_read_consistency(history)
    relation = CommitRelation(history)
    saturate_rc(history, relation, report.bad_reads)
    if check(history, IsolationLevel.READ_COMMITTED).is_consistent:
        order = relation.linearize()
        assert order is not None
        position = {tid: i for i, tid in enumerate(order)}
        for source, target in history.so_edges():
            assert position[source] < position[target]
