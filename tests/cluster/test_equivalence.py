"""Cluster equivalence: the tentpole's correctness harness.

Three regimes:

* ``shards=1`` — the cluster must be *bit-identical* to a plain engine
  fed the same stream: same values, same disk accesses, same
  iterations, quick and accurate, scalar and batched ingest.  The
  single-shard cluster runs the literal single-engine code over the
  same inputs, so any divergence is a routing or fusion bug.
* ``shards=4`` vs standalone replay — each shard's feed is recorded;
  standalone engines replay those per-shard feeds and a
  ``ClusterSnapshot`` built over the replay engines' pins must answer
  accurate queries *bit-identically* to the cluster's own snapshot
  (the gather math is shared code over identical pinned state).
* ``shards=4`` vs exact ground truth — quick answers stay within the
  fused summary's documented bound, accurate answers within the
  single-engine accurate bound.
"""

import numpy as np
import pytest

from repro.cluster import ClusterEngine
from repro.cluster.engine import ClusterSnapshot
from repro.core.config import EngineConfig
from repro.core.engine import HybridQuantileEngine

PHIS = (0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99)


def config_for(backend):
    return EngineConfig(
        epsilon=0.02, block_elems=100, sketch_backend=backend
    )


def feed(target, data, steps, batched=True):
    chunks = np.array_split(data, steps)
    for chunk in chunks:
        if batched:
            target.stream_update_many(chunk)
        else:
            for value in chunk.tolist():
                target.stream_update(value)
        target.end_time_step()
    target.flush()


@pytest.fixture(scope="module")
def dataset():
    return np.random.default_rng(404).integers(
        0, 2**32, size=24_000, dtype=np.int64
    )


class TestSingleShardBitIdentity:
    @pytest.mark.parametrize("backend", ["kll"])
    def test_matches_plain_engine(self, dataset, backend):
        engine = HybridQuantileEngine(config=config_for(backend))
        cluster = ClusterEngine(shards=1, config=config_for(backend))
        feed(engine, dataset, steps=5)
        feed(cluster, dataset, steps=5)
        try:
            for mode in ("quick", "accurate"):
                for phi in PHIS:
                    theirs = engine.quantile(phi, mode=mode)
                    ours = cluster.quantile(phi, mode=mode)
                    key = (mode, phi)
                    assert ours.value == theirs.value, key
                    assert ours.target_rank == theirs.target_rank, key
                    assert (
                        ours.disk_accesses == theirs.disk_accesses
                    ), key
                    assert ours.iterations == theirs.iterations, key
        finally:
            engine.close()
            cluster.close()

    def test_scalar_and_batched_ingest_agree(self, dataset):
        data = dataset[:8_000]
        batched = ClusterEngine(shards=1, config=config_for("kll"))
        scalar = ClusterEngine(shards=1, config=config_for("kll"))
        feed(batched, data, steps=4, batched=True)
        feed(scalar, data, steps=4, batched=False)
        try:
            for phi in (0.1, 0.5, 0.9):
                assert (
                    batched.quantile(phi, mode="accurate").value
                    == scalar.quantile(phi, mode="accurate").value
                ), phi
        finally:
            batched.close()
            scalar.close()


class TestScatterGatherReplay:
    @pytest.mark.parametrize("backend", ["kll"])
    def test_accurate_matches_standalone_replay(self, dataset, backend):
        shards = 4
        steps = 5
        config = config_for(backend)
        cluster = ClusterEngine(shards=shards, config=config)
        # Record each shard's per-step feed from the cluster's routing.
        route_many = cluster.router.route_many
        feeds = [[] for _ in range(shards)]

        def recording(values, acked):
            home, arr = route_many(values, acked)
            feeds[home][-1].append(arr)
            return home, arr

        cluster.router.route_many = recording
        for chunk in np.array_split(dataset, steps):
            for feed_of_shard in feeds:
                feed_of_shard.append([])
            for part in np.array_split(chunk, 3):
                cluster.stream_update_many(part)
            cluster.end_time_step()
        cluster.flush()
        assert sum(map(bool, (step for f in feeds for step in f))) == steps

        # Standalone engines replay the recorded per-shard feeds.
        replicas = [
            HybridQuantileEngine(config=config) for _ in range(shards)
        ]
        for replica, shard_feed in zip(replicas, feeds):
            for step in shard_feed:
                for part in step:
                    replica.stream_update_many(part)
                replica.end_time_step()
            replica.flush()

        try:
            with cluster.pin() as ours:
                handles = [replica.pin() for replica in replicas]
                theirs = ClusterSnapshot(
                    handles, config, cluster._executor
                )
                try:
                    for phi in PHIS:
                        mine = ours.quantile(phi, mode="accurate")
                        replay = theirs.quantile(phi, mode="accurate")
                        assert mine.value == replay.value, phi
                        assert (
                            mine.target_rank == replay.target_rank
                        ), phi
                        assert (
                            mine.disk_accesses == replay.disk_accesses
                        ), phi
                finally:
                    theirs.release()
        finally:
            cluster.close()
            for replica in replicas:
                replica.close()


class TestAccuracyAgainstGroundTruth:
    @pytest.mark.parametrize("backend", ["kll"])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_both_modes_within_bounds(self, dataset, backend, shards):
        cluster = ClusterEngine(shards=shards, config=config_for(backend))
        feed(cluster, dataset, steps=5)
        srt = np.sort(dataset)
        try:
            # Leave a live tail so the stream term is exercised too.
            tail = np.random.default_rng(9).integers(
                0, 2**32, 3_000, dtype=np.int64
            )
            cluster.stream_update_many(tail)
            full = np.sort(np.concatenate([srt, tail]))
            for mode in ("quick", "accurate"):
                for phi in PHIS:
                    result = cluster.quantile(phi, mode=mode)
                    lo = (
                        int(
                            np.searchsorted(
                                full, result.value, side="left"
                            )
                        )
                        + 1
                    )
                    hi = int(
                        np.searchsorted(full, result.value, side="right")
                    )
                    rank = result.target_rank
                    error = (
                        0
                        if lo <= rank <= hi
                        else min(abs(rank - lo), abs(rank - hi))
                    )
                    assert error <= result.rank_error_bound + 1, (
                        mode, phi, error, result.rank_error_bound,
                    )
        finally:
            cluster.close()

    def test_quantile_many_quick_matches_singles(self, dataset):
        cluster = ClusterEngine(shards=4, config=config_for("kll"))
        feed(cluster, dataset, steps=4)
        try:
            with cluster.pin() as snapshot:
                batch = snapshot.quantile_many(PHIS, mode="quick")
                merges = snapshot.ts_merges_built
                singles = [
                    snapshot.query_rank(r.target_rank, mode="quick")
                    for r in batch
                ]
                assert [r.value for r in batch] == [
                    r.value for r in singles
                ]
                # The batch shared one fused merge across all phis.
                assert merges == 1
        finally:
            cluster.close()


class TestClusterBehaviors:
    def test_lockstep_and_invariants(self, dataset):
        cluster = ClusterEngine(shards=3, config=config_for("kll"))
        feed(cluster, dataset[:9_000], steps=3)
        try:
            cluster.check_invariants()
            assert cluster.steps_sealed == 3
            assert cluster.n_total == 9_000
            assert len(cluster.shard_reports()) == 3
            assert all(
                report["steps_sealed"] == 3
                for report in cluster.shard_reports()
            )
            sims = cluster.per_shard_sim_seconds()
            assert len(sims) == 3 and all(s > 0 for s in sims)
        finally:
            cluster.close()

    def test_empty_cluster_query_raises(self):
        cluster = ClusterEngine(shards=2, config=config_for("kll"))
        try:
            with pytest.raises(ValueError):
                cluster.quantile(0.5)
        finally:
            cluster.close()

    def test_windowed_queries_gather(self, dataset):
        cluster = ClusterEngine(shards=2, config=config_for("kll"))
        feed(cluster, dataset[:16_000], steps=4)
        try:
            windows = cluster.available_window_sizes()
            assert windows
            window = windows[0]
            result = cluster.quantile(
                0.5, mode="accurate", window_steps=window
            )
            assert result.window_steps == window
            assert result.total_size < cluster.n_total
        finally:
            cluster.close()
