"""The cluster's memo of the fused TS's historical half.

Keyed by the run ids of the shard-major partition concatenation, so a
seal, a quarantined shard and a rejoined one each ask for another key;
whatever the memo hands out must equal a fuse that never saw it.
"""

import numpy as np

from repro import ExactQuantiles
from repro.cluster import ClusterEngine, ShardSupervisor, save_cluster
from repro.core.bounds import CombinedSummary
from repro.core.config import EngineConfig

TS_FIELDS = ("values", "from_stream", "lower", "upper")


def assert_memoless(snapshot, window_steps=None):
    partitions, ss = snapshot.scope(window_steps)
    fresh = CombinedSummary.build(
        [p.summary for p in partitions if len(p) > 0], ss
    )
    fused = snapshot.combined(window_steps)
    for name in TS_FIELDS:
        assert np.array_equal(getattr(fused, name), getattr(fresh, name))
    assert fused.total_size == fresh.total_size


def feed(cluster, rng, size=3000, seal=True):
    data = rng.integers(0, 100_000, size=size).astype(np.int64)
    cluster.stream_update_many(data)
    if seal:
        cluster.end_time_step()
    return data


def test_memo_across_pins_seals_and_windows():
    config = EngineConfig(
        epsilon=0.02, kappa=2, block_elems=100, sketch_backend="kll"
    )
    rng = np.random.default_rng(7)
    with ClusterEngine(shards=3, config=config) as cluster:
        memo = cluster._historical_memo
        for _ in range(2):
            feed(cluster, rng)
        for _ in range(3):
            feed(cluster, rng, size=200, seal=False)
            with cluster.pin() as snapshot:
                assert_memoless(snapshot)
        assert (memo.builds, memo.extends) == (1, 0)
        # A seal appends one partition per shard: shard-major, that is
        # not a prefix of the old key, so the cluster memo rebuilds.
        cluster.end_time_step()
        feed(cluster, rng, size=200, seal=False)
        with cluster.pin() as snapshot:
            assert_memoless(snapshot)
            for window in cluster.available_window_sizes():
                assert_memoless(snapshot, window_steps=window)
        assert memo.extends == 0
        cluster.check_invariants()


def test_memo_across_kill_and_rejoin(tmp_path):
    config = EngineConfig(
        epsilon=0.02,
        block_elems=100,
        sketch_backend="kll",
        min_gather_shards=1,
    )
    rng = np.random.default_rng(55)
    cluster = ClusterEngine(shards=3, config=config, wal_dir=tmp_path / "wal")
    for _ in range(2):
        feed(cluster, rng)
    save_cluster(cluster, tmp_path / "ckpt")
    feed(cluster, rng, size=300, seal=False)
    with cluster.pin() as snapshot:
        assert_memoless(snapshot)
        whole = snapshot.combined()

    cluster.kill_shard(1, "chaos")
    with cluster.pin() as snapshot:
        assert len(snapshot.handles) == 2
        assert_memoless(snapshot)

    ShardSupervisor(cluster, tmp_path / "ckpt").run_until_settled()
    assert cluster.quarantined_shards == {}
    with cluster.pin() as snapshot:
        # The restored shard's runs carry fresh ids: a new key, and the
        # same arrays as before the kill.
        assert_memoless(snapshot)
        rejoined = snapshot.combined()
    for name in TS_FIELDS:
        assert np.array_equal(getattr(rejoined, name), getattr(whole, name))
    assert cluster._historical_memo.builds == 3
    cluster.check_invariants()
    cluster.close()


def test_partitions_shorter_than_one_over_eps1():
    """4 shards x 1 500-element partitions at eps1 = 5e-4: every
    summary stores its whole partition; the fused quick answer must
    stay within the bound its own result reports."""
    rng = np.random.default_rng(3)
    oracle = ExactQuantiles()
    config = EngineConfig(epsilon=1e-3, sketch_backend="kll")
    with ClusterEngine(shards=4, config=config) as cluster:
        for _ in range(3):
            oracle.update_many(feed(cluster, rng, size=6000))
        oracle.update_many(feed(cluster, rng, size=1200, seal=False))
        for phi in np.linspace(0.01, 0.99, 50):
            result = cluster.quantile(float(phi), mode="quick")
            high = oracle.rank(result.value)
            low = oracle.rank_strict(result.value) + 1
            err = max(0, low - result.target_rank, result.target_rank - high)
            assert err <= result.rank_error_bound + 2, phi
