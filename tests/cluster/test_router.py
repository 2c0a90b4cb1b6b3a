"""ShardRouter: determinism, balance, order preservation, manifests."""

import json

import numpy as np
import pytest

from repro.cluster import ShardRouter


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


class TestHashRouting:
    def test_deterministic(self):
        router = ShardRouter(4)
        values = np.random.default_rng(1).integers(0, 2**40, 10_000)
        first = router.shard_indices(values)
        second = router.shard_indices(values)
        assert np.array_equal(first, second)
        for value in values[:50]:
            assert router.shard_of(int(value)) == first[
                int(np.flatnonzero(values == value)[0])
            ]

    def test_statistically_balanced(self):
        router = ShardRouter(4)
        values = np.random.default_rng(2).integers(0, 2**40, 40_000)
        counts = np.bincount(router.shard_indices(values), minlength=4)
        assert counts.min() > 0.8 * counts.max()

    def test_sequential_values_spread(self):
        # The splitmix finalizer must break up runs of consecutive ints
        # (timestamps, auto-increment ids).
        router = ShardRouter(8)
        counts = np.bincount(
            router.shard_indices(np.arange(8_000)), minlength=8
        )
        assert counts.min() > 0.7 * counts.max()

    def test_single_shard_short_circuit(self):
        router = ShardRouter(1)
        values = np.arange(100)
        assert np.array_equal(
            router.shard_indices(values), np.zeros(100, dtype=np.int64)
        )
        chunks = router.route_many(values)
        assert len(chunks) == 1
        assert np.array_equal(chunks[0], values)

    def test_negative_values_route(self):
        router = ShardRouter(4)
        indices = router.shard_indices(
            np.asarray([-1, -(2**40), 0, 5], dtype=np.int64)
        )
        assert np.all((indices >= 0) & (indices < 4))


class TestRouteMany:
    @pytest.mark.parametrize("shards", [2, 3, 4, 7])
    @pytest.mark.parametrize(
        "values",
        [
            np.random.default_rng(3).integers(0, 2**32, 5_000),
            # One value repeated: every other shard receives nothing.
            np.full(300, 123_456_789, dtype=np.int64),
            np.random.default_rng(5).integers(-(2**62), 2**62, 17),
        ],
        ids=["uniform", "one-value", "short-wide"],
    )
    def test_fan_out_is_a_partition(self, shards, values):
        router = ShardRouter(shards)
        chunks = router.route_many(values)
        assert len(chunks) == shards
        assert sum(chunk.size for chunk in chunks) == values.size
        assert np.array_equal(
            np.sort(np.concatenate(chunks)), np.sort(values)
        )
        indices = router.shard_indices(values)
        for shard, chunk in enumerate(chunks):
            # Arrival order within each shard, as int64.
            assert chunk.dtype == np.int64
            assert np.array_equal(chunk, values[indices == shard])
        if np.unique(values).size == 1:
            assert sum(chunk.size == 0 for chunk in chunks) == shards - 1


class TestManifest:
    @pytest.mark.parametrize(
        "router",
        [
            ShardRouter(1),
            ShardRouter(8),
        ],
        ids=["one", "hash8"],
    )
    def test_round_trip(self, router):
        clone = ShardRouter.from_manifest(router.to_manifest())
        assert clone.shards == router.shards
        assert clone.to_manifest() == router.to_manifest()
        values = np.random.default_rng(4).integers(0, 2**30, 2_000)
        assert np.array_equal(
            clone.shard_indices(values), router.shard_indices(values)
        )

    def test_manifest_is_json_safe(self):
        manifest = ShardRouter(3).to_manifest()
        assert json.loads(json.dumps(manifest)) == manifest

    def test_a_manifest_from_before_range_routing_went_round_trips(self):
        """The keys a hash router has always written: a ``cluster.json``
        saved before ``"range"`` was removed loads, and a new one is
        byte-identical."""
        old = {"shards": 4, "strategy": "hash", "bounds": None}
        assert ShardRouter.from_manifest(old).to_manifest() == old
        assert json.dumps(ShardRouter(4).to_manifest()) == json.dumps(old)
