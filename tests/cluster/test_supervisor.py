"""Supervisor state machine: probe, backoff schedule, budget, rejoin."""

import numpy as np
import pytest

from repro.cluster import ClusterEngine, ShardSupervisor, save_cluster
from repro.cluster.supervisor import (
    FAILED,
    QUARANTINED,
    RESTORE_ATTEMPT,
    RESTORED,
    RETRY_SCHEDULED,
)
from repro.core.config import EngineConfig
from repro.faults.retry import RetryPolicy


def make_cluster(tmp_path, shards=3):
    config = EngineConfig(
        epsilon=0.02,
        block_elems=100,
        sketch_backend="kll",
        min_gather_shards=1,
    )
    cluster = ClusterEngine(
        shards=shards, config=config, wal_dir=tmp_path / "wal"
    )
    rng = np.random.default_rng(55)
    for _ in range(2):
        cluster.stream_update_many(
            rng.integers(0, 100_000, size=3000).astype(np.int64)
        )
        cluster.end_time_step()
    save_cluster(cluster, tmp_path / "ckpt")
    return cluster


def test_restore_on_first_due_tick(tmp_path):
    cluster = make_cluster(tmp_path)
    cluster.kill_shard(1, "chaos")
    supervisor = ShardSupervisor(cluster, tmp_path / "ckpt")
    events = supervisor.tick(now=0.0)
    assert [e.action for e in events] == [RESTORE_ATTEMPT, RESTORED]
    assert cluster.quarantined_shards == {}
    cluster.check_invariants()
    cluster.close()


def test_health_probe_quarantines_and_recovers(tmp_path):
    cluster = make_cluster(tmp_path)
    sick = {2}

    def probe(index, engine):
        if index in sick:
            sick.discard(index)  # heal after one report
            return "probe says poisoned"
        return None

    supervisor = ShardSupervisor(
        cluster, tmp_path / "ckpt", health_check=probe
    )
    events = supervisor.tick(now=0.0)
    actions = [e.action for e in events]
    assert actions == [QUARANTINED, RESTORE_ATTEMPT, RESTORED]
    assert events[0].shard == 2
    assert events[0].detail == "probe says poisoned"
    cluster.close()


def test_backoff_schedule_is_deterministic(tmp_path):
    cluster = make_cluster(tmp_path)
    cluster.kill_shard(0, "chaos")
    retry = RetryPolicy(
        max_retries=2, backoff_seconds=0.5, backoff_cap_seconds=8.0,
        jitter=0.5, seed=42,
    )
    # Point at a directory with no checkpoint: every restore fails.
    supervisor = ShardSupervisor(cluster, tmp_path / "nowhere", retry=retry)
    supervisor.tick(now=0.0)
    assert supervisor.attempts(0) == 1
    first_delay = retry.sleep_before(1)
    # Before the backoff elapses: no new attempt.
    supervisor.tick(now=first_delay / 2)
    assert supervisor.attempts(0) == 1
    # At the deterministic due time: attempt 2.
    supervisor.tick(now=first_delay)
    assert supervisor.attempts(0) == 2
    # Exhaust the budget: attempt 3 (> max_retries=2) marks FAILED.
    supervisor.tick(now=first_delay + retry.sleep_before(2))
    assert supervisor.attempts(0) == 3
    assert [e.shard for e in supervisor.events if e.action == FAILED] == [0]
    assert supervisor.pending_shards == []
    actions = [e.action for e in supervisor.events]
    assert actions == [
        RESTORE_ATTEMPT, RETRY_SCHEDULED,
        RESTORE_ATTEMPT, RETRY_SCHEDULED,
        RESTORE_ATTEMPT, FAILED,
    ]
    # The cluster keeps taking writes and seals between (and after)
    # attempts; the slot's reopened WAL takes the seal frames.
    cluster.stream_update_many(np.arange(300, dtype=np.int64))
    cluster.end_time_step()
    cluster.close()


def test_failed_restore_reopens_wal(tmp_path):
    cluster = make_cluster(tmp_path)
    cluster.kill_shard(1, "chaos")
    acked_before = cluster.n_acked
    supervisor = ShardSupervisor(
        cluster,
        tmp_path / "nowhere",
        retry=RetryPolicy(max_retries=0),
    )
    supervisor.tick(now=0.0)
    assert [e.shard for e in supervisor.events if e.action == FAILED] == [1]
    # Live shards still ack after the failed restore, and the reopened
    # WAL takes the slot's lockstep seal frame...
    cluster.stream_update_many(np.arange(500, dtype=np.int64))
    cluster.end_time_step()
    assert cluster.n_acked > acked_before
    # ...so a supervisor pointed at the REAL checkpoint recovers it at
    # the cluster's step.
    rescue = ShardSupervisor(cluster, tmp_path / "ckpt")
    rescue.tick(now=0.0)
    assert cluster.quarantined_shards == {}
    assert cluster.n_total == cluster.n_acked
    cluster.check_invariants()
    cluster.close()


def test_run_until_settled_budget(tmp_path):
    cluster = make_cluster(tmp_path)
    cluster.kill_shard(0, "chaos")
    supervisor = ShardSupervisor(
        cluster,
        tmp_path / "nowhere",
        retry=RetryPolicy(max_retries=1000, backoff_seconds=0.001),
    )
    with pytest.raises(RuntimeError, match="still pending"):
        supervisor.run_until_settled(max_ticks=5)
    cluster.close()
