"""One stats table per engine: ``engine.stats()`` and what reads it.

``bench/layers.py`` reads the program's counts through the older
attribute paths (``epoch_stats``, ``backend.stats()``,
``shared_cache.stats()``, ``ingest_stats``, ``DiskStats``); each of its
keys must read the same off ``engine.stats()``.  The structured DEBUG
events name their fields with the same keys.
"""

import logging
import sys
import threading

import numpy as np
import pytest

from bench.layers import read_counters, read_gauges
from repro import (
    ClusterEngine,
    EngineConfig,
    HybridQuantileEngine,
    QueryService,
)
from repro.cluster import restore_shards, save_cluster
from repro.faults import FaultPlan, TransientReadError
from repro.stats import LEVELS, Reading, StatsTable

#: cross-shard figures ``read_gauges`` derives; no engine keeps them.
CLUSTER_KEYS = ("cluster.shard_skew", "cluster.per_shard_blocks_max")


def feed(system, steps=6, size=3000, seed=5):
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        system.stream_update_many(rng.integers(0, 10**6, size))
        system.end_time_step()
        for phi in (0.1, 0.5, 0.9):
            system.quantile(phi, mode="accurate")
        system.quantile(0.3)
    system.flush()
    system.stream_update_many(rng.integers(0, 10**6, size // 2))
    system.quantile(0.75, mode="accurate")


def assert_agrees(engines):
    """Every key bench reads of each engine equals ``stats()``'s."""
    for engine in engines:
        stats = engine.stats()
        bench = {**read_counters([engine]), **read_gauges([engine])}
        for key in CLUSTER_KEYS:
            del bench[key]
        assert bench == {key: stats[key] for key in bench}
    gauges = read_gauges(engines)
    assert gauges["cluster.per_shard_blocks_max"] == max(
        engine.stats()["storage.random_blocks"] for engine in engines
    )


def test_a_sync_gk_engine_reads_the_same():
    with HybridQuantileEngine(
        config=EngineConfig(epsilon=0.01, kappa=3, block_elems=64)
    ) as engine:
        feed(engine)
        assert engine.stats()["storage.random_blocks"] > 0
        assert engine.stats()["epoch.ts_merges"] > 0
        assert_agrees([engine])


def test_a_background_engine_with_a_shared_cache_on_objects_reads_the_same(
    tmp_path,
):
    config = EngineConfig(
        epsilon=0.01, kappa=3, block_elems=64, ingest_mode="background",
        shared_cache_blocks=256, storage_backend="object",
        storage_dir=str(tmp_path / "runs"), object_tier_level=1,
        hot_tier_bytes=20_000,
    )
    with HybridQuantileEngine(config=config) as engine:
        feed(engine)
        stats = engine.stats()
        for key in ("storage.backend.gets", "storage.backend.evicted_runs",
                    "storage.cache.hits", "ingest.archiver.archive_wall_s"):
            assert stats[key] > 0, key
        assert engine.ingest_stats is not None
        assert_agrees([engine])


def test_each_shard_of_a_kll_cluster_reads_the_same():
    config = EngineConfig(epsilon=0.02, block_elems=100, sketch_backend="kll")
    with ClusterEngine(shards=3, config=config) as cluster:
        feed(cluster)
        assert_agrees(cluster.shards)


def test_a_cluster_probe_retry_counts_on_the_shard_that_faulted():
    config = EngineConfig(epsilon=0.02, block_elems=100, sketch_backend="kll")
    plan = FaultPlan(seed=5, read_error_rate=0.3, shard_scope=(1,))
    with ClusterEngine(shards=3, config=config, fault_plan=plan) as cluster:
        rng = np.random.default_rng(5)
        for _ in range(6):
            cluster.stream_update_many(rng.integers(0, 10**6, 3000))
            cluster.end_time_step()
        cluster.flush()
        for phi in (0.1, 0.3, 0.5, 0.7, 0.9):
            cluster.quantile(phi, mode="accurate")
        stats = [shard.stats() for shard in cluster.shards]
    retries = [s["faults.probe_retries"] for s in stats]
    assert retries[1] > 0
    assert retries == [s["faults.disk_faults"] for s in stats]
    assert retries[0] == retries[2] == 0


def test_concurrent_writers_of_one_table_lose_no_count():
    """The memo, the registry and the executor bump their own keys of
    one table, each under its own lock, and a service its own table:
    with more threads than cores switching every microsecond, every
    count adds up."""
    threads, rounds = 6, 40
    with HybridQuantileEngine(
        config=EngineConfig(epsilon=0.01, kappa=3, block_elems=64)
    ) as engine:
        feed(engine, steps=3)
        service = QueryService(engine)
        before = engine.stats()

        def faulty_once():
            """A read whose first attempt fails transiently."""
            attempts = []

            def read():
                attempts.append(None)
                if len(attempts) == 1:
                    raise TransientReadError("read", 0)

            return read

        def work():
            for _ in range(rounds):
                engine.quantile(0.5, mode="quick")
                with engine.pin():
                    pass
                engine.query_executor.call_with_retry(faulty_once())
                service.quantile(0.9, "quick", timeout=10.0)

        workers = [threading.Thread(target=work) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        after = engine.stats()
    total = threads * rounds

    def grew(key):
        return after[key] - before[key]

    served = service.metrics_snapshot()
    assert grew("faults.probe_retries") == total
    assert served.coalesced_requests == total
    assert grew("epoch.ts_merges") == total + served.ts_merges
    assert after["core.epoch.live_pins"] == 0
    assert 1 <= after["core.epoch.peak_pins"] <= threads


def test_a_reading_subtracts_counters_and_carries_levels():
    table = StatsTable()
    fields = {"gets": "storage.backend.gets",
              "hot_bytes": "storage.backend.hot_bytes"}
    assert "storage.backend.hot_bytes" in LEVELS
    table.declare(["storage.backend.gets"])
    table["storage.backend.gets"] += 3
    before = table.read(fields, {"storage.backend.hot_bytes": 900})
    table["storage.backend.gets"] += 4
    delta = table.read(fields, {"storage.backend.hot_bytes": 100}).since(
        before
    )
    assert (delta.gets, delta.hot_bytes) == (4, 100)
    assert delta == Reading(fields, {"storage.backend.gets": 4,
                                     "storage.backend.hot_bytes": 100})
    with pytest.raises(AttributeError):
        delta.puts


def test_seal_merge_eviction_quarantine_and_rejoin_are_logged(
    tmp_path, caplog
):
    config = EngineConfig(
        epsilon=0.02, kappa=2, block_elems=100, sketch_backend="kll",
        min_gather_shards=1, storage_backend="object",
        storage_dir=str(tmp_path / "runs"), object_tier_level=3,
        hot_tier_bytes=0,
    )
    with caplog.at_level(logging.DEBUG, logger="repro"):
        with ClusterEngine(
            shards=3, config=config, wal_dir=tmp_path / "wal"
        ) as cluster:
            feed(cluster, steps=4)
            save_cluster(cluster, tmp_path / "ckpt")
            cluster.kill_shard(1, "chaos")
            assert restore_shards(cluster, tmp_path / "ckpt") == [1]
    events = {}
    for record in caplog.records:
        events.setdefault(record.getMessage().split()[0], record)
    assert {"sealed", "merged", "evicted", "quarantined", "shard"} <= set(
        events
    )
    keys = {
        "sealed": "epoch.current_epoch",
        "merged": "storage.seq_blocks_merge",
        "evicted": "storage.backend.hot_bytes",
        "quarantined": "faults.disk_faults",
        "shard": "warehouse.partitions_final",
    }
    for word, key in keys.items():
        assert events[word].levelno == logging.DEBUG
        assert isinstance(getattr(events[word], key), (int, float)), key
    assert "shard 1 rejoined" in events["shard"].getMessage()
    assert "quarantined shard 1: chaos" in events["quarantined"].getMessage()
