"""Chaos: kill a shard mid-ingest, recover, lose zero acked updates.

The cluster-level durability contract: every ``stream_update_many``
batch that returned (the ack) survives kill/recover — a quarantined
shard takes no writes, so what it acked is in its checkpoint and WAL,
and batches acked meanwhile went to live shards — and after
``restore_shards`` rejoins the shard the cluster's answers are
bit-identical to a never-crashed cluster fed the same stream.  A write
with no live shard is refused with nothing acked.
"""

import numpy as np
import pytest

from repro.cluster import (
    ClusterEngine,
    ClusterUnavailable,
    restore_shards,
    save_cluster,
)
from repro.core.config import EngineConfig
from repro.persistence.warehouse_store import PersistenceError

PHIS = (0.05, 0.25, 0.5, 0.75, 0.95)


def make_config(**overrides):
    base = dict(
        epsilon=0.02,
        block_elems=100,
        sketch_backend="kll",
        min_gather_shards=2,
    )
    base.update(overrides)
    return EngineConfig(**base)


def make_feeds(seed, steps=4, size=4000):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 1_000_000, size=size).astype(np.int64)
        for _ in range(steps)
    ]


def run_reference(config, feeds):
    cluster = ClusterEngine(shards=4, config=config)
    for feed in feeds:
        cluster.stream_update_many(feed)
        cluster.end_time_step()
    answers = [cluster.quantile(phi).value for phi in PHIS]
    cluster.close()
    return answers


def test_kill_recover_is_bit_identical(tmp_path):
    config = make_config()
    feeds = make_feeds(seed=808)
    reference = run_reference(config, feeds)

    cluster = ClusterEngine(shards=4, config=config, wal_dir=tmp_path / "wal")
    cluster.stream_update_many(feeds[0])
    cluster.end_time_step()
    save_cluster(cluster, tmp_path / "ckpt")
    cluster.stream_update_many(feeds[1])
    cluster.end_time_step()
    cluster.kill_shard(2, "chaos kill")
    # Acked while shard 2 is quarantined: its step goes to a live home.
    cluster.stream_update_many(feeds[2])
    cluster.end_time_step()
    assert cluster.quarantined_shards == {2: "chaos kill"}

    assert restore_shards(cluster, tmp_path / "ckpt") == [2]
    assert cluster.quarantined_shards == {}
    cluster.check_invariants()  # lockstep + acked-count invariants

    cluster.stream_update_many(feeds[3])
    cluster.end_time_step()
    assert [cluster.quantile(phi).value for phi in PHIS] == reference
    # Full gather again: no partial metadata on the answers.
    assert cluster.quantile(0.5).partial is None
    cluster.close()


def test_acked_while_quarantined_is_never_lost(tmp_path):
    config = make_config()
    cluster = ClusterEngine(shards=4, config=config, wal_dir=tmp_path / "wal")
    feed = make_feeds(seed=99, steps=1, size=8000)[0]
    cluster.stream_update_many(feed)
    cluster.end_time_step()
    save_cluster(cluster, tmp_path / "ckpt")
    held = cluster._shard_elems[0]  # the first step's home
    cluster.kill_shard(0, "chaos")
    extra = make_feeds(seed=100, steps=1, size=4000)[0]
    cluster.stream_update_many(extra)  # to a live home: nothing banked
    cluster.end_time_step()
    assert cluster.n_acked - cluster.n_total == held == len(feed)
    for shard in (1, 2, 3):
        cluster.kill_shard(shard, "chaos")
    acked = cluster.n_acked
    with pytest.raises(ClusterUnavailable, match="nowhere to write"):
        cluster.stream_update_many(np.arange(100, dtype=np.int64))
    assert cluster.n_acked == acked
    restore_shards(cluster, tmp_path / "ckpt")
    assert cluster.n_total == cluster.n_acked == len(feed) + len(extra)
    cluster.close()


def test_rejoin_refuses_stale_engine(tmp_path):
    """A restored engine that missed acks cannot rejoin."""
    from repro.core.engine import HybridQuantileEngine

    config = make_config()
    cluster = ClusterEngine(shards=2, config=config, wal_dir=tmp_path / "wal")
    cluster.stream_update_many(make_feeds(seed=1, steps=1)[0])
    cluster.end_time_step()
    cluster.kill_shard(0, "chaos")
    stale = HybridQuantileEngine(config=config)
    with pytest.raises(ValueError, match="sealed"):
        cluster.rejoin_shard(0, stale)
    stale.close()
    cluster.close()


def test_checkpoint_refused_while_quarantined(tmp_path):
    config = make_config()
    cluster = ClusterEngine(shards=2, config=config, wal_dir=tmp_path / "wal")
    cluster.stream_update_many(make_feeds(seed=2, steps=1)[0])
    cluster.end_time_step()
    cluster.kill_shard(1, "chaos")
    with pytest.raises(PersistenceError, match="quarantined"):
        save_cluster(cluster, tmp_path / "ckpt")
    cluster.close()


def test_quarantined_ingest_without_wal_is_refused():
    """Without a WAL a live shard still takes the writes; with none live
    the write is refused before anything is acked."""
    config = make_config(min_gather_shards=1)
    cluster = ClusterEngine(shards=2, config=config)  # no wal_dir
    cluster.stream_update_many(make_feeds(seed=3, steps=1)[0])
    cluster.end_time_step()
    cluster.kill_shard(0, "chaos")
    cluster.stream_update_many(np.arange(100, dtype=np.int64))
    assert cluster.shards[1].n_total == 100
    cluster.kill_shard(1, "chaos")
    acked = cluster.n_acked
    with pytest.raises(ClusterUnavailable, match="nowhere to write"):
        cluster.stream_update(7)
    assert cluster.n_acked == acked
    cluster.close()
