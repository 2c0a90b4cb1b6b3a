"""``restore_shards``: rejoin quarantined shards from a checkpoint."""

import shutil

import numpy as np
import pytest

from repro.cluster import (
    ClusterEngine,
    ShardErrors,
    load_cluster,
    restore_shards,
    save_cluster,
    shard_dir,
)
from repro.core.config import EngineConfig
from repro.ingest.wal import WalError
from repro.persistence.warehouse_store import PersistenceError


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


def test_restore_returns_the_rejoined_shard(tmp_path):
    cluster = make_cluster(tmp_path)
    cluster.kill_shard(1, "chaos")
    assert restore_shards(cluster, tmp_path / "ckpt") == [1]
    assert cluster.quarantined_shards == {}
    cluster.check_invariants()
    cluster.close()


def test_a_restore_without_a_checkpoint_changes_nothing(tmp_path):
    cluster = make_cluster(tmp_path)
    cluster.kill_shard(1, "chaos")
    acked_before = cluster.n_acked
    with pytest.raises(PersistenceError):
        restore_shards(cluster, tmp_path / "nowhere")
    assert list(cluster.quarantined_shards) == [1]
    # Live shards still ack after the failed restore, and the slot's
    # WAL takes its lockstep seal frame...
    cluster.stream_update_many(np.arange(500, dtype=np.int64))
    cluster.end_time_step()
    assert cluster.n_acked > acked_before
    # ...so a restore from the REAL checkpoint recovers it at the
    # cluster's step.
    assert restore_shards(cluster, tmp_path / "ckpt") == [1]
    assert cluster.quarantined_shards == {}
    assert cluster.n_total == cluster.n_acked
    cluster.check_invariants()
    cluster.close()


def test_every_shard_is_tried_before_one_error_raises(tmp_path):
    cluster = make_cluster(tmp_path)
    cluster.kill_shard(0, "chaos")
    cluster.kill_shard(2, "chaos")
    saved = shard_dir(tmp_path / "ckpt", 0)
    shutil.move(saved, tmp_path / "aside")
    with pytest.raises(PersistenceError) as raised:
        restore_shards(cluster, tmp_path / "ckpt")
    # Re-raised unchanged, not wrapped: one shard failed.
    assert type(raised.value) is PersistenceError
    assert list(cluster.quarantined_shards) == [0]
    assert cluster.shards[2] is not None
    # The failed slot got its WAL writer back: a seal while it waits
    # reaches its log, and the next restore catches up to it.
    cluster.stream_update_many(np.arange(500, dtype=np.int64))
    cluster.end_time_step()
    shutil.move(tmp_path / "aside", saved)
    assert restore_shards(cluster, tmp_path / "ckpt") == [0]
    assert cluster.n_total == cluster.n_acked
    cluster.check_invariants()
    cluster.close()


def test_several_failures_raise_together(tmp_path):
    cluster = make_cluster(tmp_path)
    for index in (0, 2):
        cluster.kill_shard(index, "chaos")
        shutil.rmtree(shard_dir(tmp_path / "ckpt", index))
    with pytest.raises(ShardErrors) as raised:
        restore_shards(cluster, tmp_path / "ckpt")
    assert sorted(raised.value.errors) == [0, 2]
    assert sorted(cluster.quarantined_shards) == [0, 2]
    cluster.close()


def test_a_log_damaged_mid_log_stays_untouched_and_quarantined(tmp_path):
    cluster = make_cluster(tmp_path, shards=2)
    rng = np.random.default_rng(56)

    def step():
        cluster.stream_update_many(
            rng.integers(0, 100_000, size=3000).astype(np.int64)
        )
        cluster.end_time_step()

    step()
    cluster.close()
    # Reloading opens fresh writers, so each shard's log past the
    # checkpoint spans two segments.
    cluster = load_cluster(tmp_path / "ckpt", wal_dir=tmp_path / "wal")
    step()
    cluster.kill_shard(0, "chaos")
    cluster.kill_shard(1, "chaos")
    segments = sorted(shard_dir(tmp_path / "wal", 0).glob("wal-*.seg"))
    assert len(segments) == 2
    data = bytearray(segments[0].read_bytes())
    data[-3] ^= 0xFF  # a CRC mismatch no crash can leave mid-log
    segments[0].write_bytes(bytes(data))
    before = {path.name: path.read_bytes() for path in segments}
    with pytest.raises(WalError, match="mid-log"):
        restore_shards(cluster, tmp_path / "ckpt")
    assert list(cluster.quarantined_shards) == [0]
    assert cluster.shards[1] is not None
    after = {
        path.name: path.read_bytes()
        for path in shard_dir(tmp_path / "wal", 0).glob("wal-*.seg")
    }
    assert after == before
    cluster.check_invariants()
    cluster.close()
