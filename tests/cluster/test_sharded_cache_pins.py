"""``ShardedBlockCache`` forwards the whole surface ``SortedRun`` reads.

A cluster search talks to one cache that multiplexes per-shard caches.
When payload pinning was first added to ``BlockCache`` alone, every
accurate ``cluster.quantile`` failed on the missing methods; this test
drives an accurate gather over three shards and holds the real block
reads against the per-shard charges.
"""

import numpy as np
import pytest

from repro.cluster import ClusterEngine
from repro.core.config import EngineConfig

from ..storage.read_counting import counted_block_reads, recorded_touches

PHIS = (0.05, 0.5, 0.93)


@pytest.fixture
def cluster():
    config = EngineConfig(
        epsilon=0.02, kappa=3, block_elems=32, sketch_backend="kll"
    )
    cluster = ClusterEngine(shards=3, config=config)
    rng = np.random.default_rng(31)
    for _ in range(7):
        cluster.stream_update_many(rng.integers(0, 1 << 40, size=6000))
        cluster.end_time_step()
    cluster.stream_update_many(rng.integers(0, 1 << 40, size=3000))
    yield cluster
    cluster.close()


def test_gather_fetches_each_block_once_and_charges_its_shard(cluster):
    owner = {
        partition.run.run_id: shard
        for shard, engine in enumerate(cluster.shards)
        for partition in engine.store.partitions()
    }
    for phi in PHIS:
        before = [e.disk.stats.query.random_reads for e in cluster.shards]
        with counted_block_reads() as reads, recorded_touches() as touched:
            result = cluster.quantile(phi, mode="accurate")
        charged = [
            e.disk.stats.query.random_reads - b
            for e, b in zip(cluster.shards, before)
        ]
        assert result.iterations > 5 and not result.degraded
        # Each (run, block) is fetched once, and only if it was charged.
        assert len(reads) == len(set(reads))
        assert set(reads) == set(touched)
        # No shared tier here: every touched block was paid for, on the
        # disk of the shard that holds its run.
        assert sum(charged) == result.disk_accesses == len(touched)
        for shard in range(3):
            assert charged[shard] == sum(
                1 for run_id, _ in touched if owner[run_id] == shard
            )
        assert all(count > 0 for count in charged)
