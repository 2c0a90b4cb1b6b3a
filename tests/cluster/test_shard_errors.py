"""close()/flush() must visit every shard and aggregate all failures."""

import numpy as np
import pytest

from repro.cluster import ClusterEngine, ShardErrors
from repro.core.config import EngineConfig


def make_cluster(shards=4):
    config = EngineConfig(
        epsilon=0.02, block_elems=100, sketch_backend="kll"
    )
    cluster = ClusterEngine(shards=shards, config=config)
    cluster.stream_update_many(
        np.random.default_rng(7).integers(
            0, 10_000, size=2000
        ).astype(np.int64)
    )
    return cluster


def poison(engine, method, message):
    def boom(*args, **kwargs):
        raise RuntimeError(message)

    setattr(engine, method, boom)


def spy_close(engine, log, tag):
    real = engine.close

    def wrapped():
        log.append(tag)
        real()

    engine.close = wrapped


def test_close_aggregates_two_poisoned_shards():
    cluster = make_cluster()
    closed = []
    spy_close(cluster.shards[0], closed, 0)
    spy_close(cluster.shards[2], closed, 2)
    poison(cluster.shards[1], "close", "disk 1 detached")
    poison(cluster.shards[3], "close", "disk 3 detached")
    with pytest.raises(ShardErrors) as info:
        cluster.close()
    err = info.value
    assert err.operation == "close"
    assert sorted(err.errors) == [1, 3]
    assert "disk 1 detached" in str(err)
    assert "disk 3 detached" in str(err)
    # The healthy shards were still closed, not skipped.
    assert closed == [0, 2]


def test_flush_aggregates_two_poisoned_shards():
    cluster = make_cluster()
    poison(cluster.shards[0], "flush", "shard 0 wedged")
    poison(cluster.shards[2], "flush", "shard 2 wedged")
    with pytest.raises(ShardErrors) as info:
        cluster.flush()
    err = info.value
    assert err.operation == "flush"
    assert sorted(err.errors) == [0, 2]
    cluster.shards[0].flush = lambda: []  # unwedge for teardown
    cluster.shards[2].flush = lambda: []
    cluster.close()


def test_single_failure_reraises_original():
    cluster = make_cluster()
    poison(cluster.shards[2], "close", "only one bad shard")
    with pytest.raises(RuntimeError, match="only one bad shard") as info:
        cluster.close()
    assert not isinstance(info.value, ShardErrors)


def test_clean_close_is_quiet():
    cluster = make_cluster()
    closed = []
    for index, shard in enumerate(cluster.shards):
        spy_close(shard, closed, index)
    cluster.flush()
    cluster.close()
    assert closed == [0, 1, 2, 3]
