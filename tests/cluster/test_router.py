"""ShardRouter: one home shard per time step, manifests."""

import json

import numpy as np
import pytest

from repro.cluster import ClusterEngine, ClusterUnavailable, ShardRouter
from repro.core.config import EngineConfig


def make_cluster(shards=4, **kwargs):
    return ClusterEngine(
        shards=shards,
        config=EngineConfig(
            epsilon=0.05, block_elems=16, sketch_backend="kll",
            min_gather_shards=1,
        ),
        **kwargs,
    )


def streams(cluster):
    return [None if s is None else s.m_stream for s in cluster.shards]


class TestValidation:
    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            ShardRouter(0)

    def test_rejects_unknown_strategy(self):
        with pytest.raises(ValueError):
            ShardRouter.from_manifest(
                {"shards": 2, "strategy": "roundrobin", "bounds": None}
            )

    def test_range_manifest_is_refused_by_name(self):
        with pytest.raises(ValueError, match="'range'"):
            ShardRouter.from_manifest(
                {"shards": 3, "strategy": "range", "bounds": [10, 20]}
            )


class TestHomePick:
    def test_the_fewest_acked_live_shard_is_home(self):
        router = ShardRouter(4)
        home, _ = router.route_many([1, 2], [30, 10, None, 20])
        assert home == router.home == 1

    def test_ties_go_to_the_lowest_index(self):
        router = ShardRouter(4)
        assert router.route_many([1], [5, 3, 3, 3])[0] == 1
        router.end_step()
        assert router.route_many([1], [None, 0, 0, 0])[0] == 1

    def test_the_home_is_kept_until_it_is_quarantined(self):
        router = ShardRouter(3)
        assert router.route_many([1], [0, 0, 0])[0] == 0
        # Its own writes make it the fullest; the step stays on it.
        assert router.route_many([2], [900, 0, 0])[0] == 0
        assert router.route_many([3], [None, 7, 4])[0] == 2

    def test_no_live_shard_refuses_the_write(self):
        router = ShardRouter(2)
        with pytest.raises(ClusterUnavailable, match="nowhere to write"):
            router.route_many([1], [None, None])
        assert router.home is None

    def test_an_empty_batch_picks_no_home(self):
        router = ShardRouter(2)
        home, arr = router.route_many([], [None, None])
        assert home is None and router.home is None and arr.size == 0

    def test_a_restored_step_resumes_on_the_shard_holding_it(self):
        router = ShardRouter(3)
        router.resume([0, 40, 0])
        assert router.route_many([1], [9, 40, 0])[0] == 1
        router.resume([0, 0, 0])
        assert router.home is None

    def test_values_are_checked_before_the_pick(self):
        router = ShardRouter(2)
        with pytest.raises(TypeError):
            router.route_many([1.5], [None, None])


class TestRouteMany:
    @pytest.mark.parametrize("shards", [2, 3, 4, 7])
    @pytest.mark.parametrize(
        "values",
        [
            np.random.default_rng(3).integers(0, 2**32, 5_000),
            np.full(300, 123_456_789, dtype=np.int64),
            np.random.default_rng(5).integers(-(2**62), 2**62, 17),
        ],
        ids=["uniform", "one-value", "short-wide"],
    )
    def test_fan_out_is_a_partition(self, shards, values):
        """A batch is one part: the step's home takes it whole, as int64
        in arrival order, and every other shard takes nothing."""
        home, arr = ShardRouter(shards).route_many(values, [0] * shards)
        assert home == 0
        assert arr.dtype == np.int64
        assert np.array_equal(arr, values)
        with make_cluster(shards) as cluster:
            assert cluster.stream_update_many(values) == values.size
            assert streams(cluster) == [values.size] + [0] * (shards - 1)


class TestClusterRouting:
    def test_a_step_goes_whole_to_its_home(self):
        rng = np.random.default_rng(1)
        with make_cluster() as cluster:
            homes = []
            for step in range(6):
                for _ in range(3):
                    batch = rng.integers(0, 10**6, 100 + step)
                    cluster.stream_update_many(batch)
                held = streams(cluster)
                assert sorted(held)[:-1] == [0, 0, 0]
                homes.append(held.index(max(held)))
                cluster.end_time_step()
                assert cluster.router.home is None
            # Each step's home was the least-loaded shard at its start.
            assert homes == [0, 1, 2, 3, 0, 1]
            assert [s.steps_sealed for s in cluster.shards] == [6] * 4
            cluster.check_invariants()

    def test_the_scalar_path_follows_the_home(self):
        with make_cluster(shards=3) as cluster:
            cluster.stream_update_many(np.arange(10))
            cluster.end_time_step()
            for value in range(5):
                cluster.stream_update(value)
            cluster.stream_update_many(np.arange(7))
            assert streams(cluster) == [0, 12, 0]
            cluster.check_invariants()

    def test_an_empty_batch_is_a_no_op(self, tmp_path):
        """An empty batch returns 0, fixes no home and is not refused,
        even with every shard quarantined."""
        with make_cluster(shards=2, wal_dir=tmp_path / "wal") as cluster:
            assert cluster.stream_update_many(np.array([], np.int64)) == 0
            assert cluster.router.home is None
            cluster.kill_shard(0, "chaos")
            cluster.kill_shard(1, "chaos")
            assert cluster.stream_update_many([]) == 0
            assert cluster.n_acked == 0

    def test_a_mid_step_kill_moves_the_home(self, tmp_path):
        with make_cluster(shards=3, wal_dir=tmp_path / "wal") as cluster:
            cluster.stream_update_many(np.arange(50))
            cluster.end_time_step()
            cluster.stream_update_many(np.arange(20))  # home: shard 1
            cluster.kill_shard(1, "chaos")
            cluster.stream_update_many(np.arange(30))
            cluster.stream_update(99)
            assert streams(cluster) == [0, None, 31]
            assert cluster._shard_elems == [50, 20, 31]
            with cluster.pin() as view:
                assert view.missing == {1: 20}
            cluster.end_time_step()
            # The next step's home is the least-loaded live shard.
            cluster.stream_update_many(np.arange(5))
            assert streams(cluster) == [0, None, 5]


class TestManifest:
    @pytest.mark.parametrize(
        "router", [ShardRouter(1), ShardRouter(8)], ids=["one", "eight"]
    )
    def test_round_trip(self, router):
        clone = ShardRouter.from_manifest(router.to_manifest())
        assert clone.shards == router.shards
        assert clone.to_manifest() == router.to_manifest()
        assert clone.home is None

    def test_manifest_is_json_safe(self):
        manifest = ShardRouter(3).to_manifest()
        assert json.loads(json.dumps(manifest)) == manifest

    def test_a_manifest_from_before_range_routing_went_round_trips(self):
        """The keys a router has always written: a ``"hash"``
        ``cluster.json`` loads, and a new one differs only in its
        strategy."""
        old = {"shards": 4, "strategy": "hash", "bounds": None}
        assert ShardRouter.from_manifest(old).to_manifest() == {
            **old, "strategy": "home",
        }
