"""Sharded multi-engine cluster: routing, scatter/gather, durability."""

from .engine import (
    ClusterEngine,
    ClusterSnapshot,
    ClusterUnavailable,
    ShardedBlockCache,
    ShardErrors,
    shard_dir,
)
from .persistence import load_cluster, restore_shards, save_cluster
from .router import ShardRouter

__all__ = [
    "ClusterEngine",
    "ClusterSnapshot",
    "ClusterUnavailable",
    "ShardErrors",
    "ShardedBlockCache",
    "ShardRouter",
    "load_cluster",
    "restore_shards",
    "save_cluster",
    "shard_dir",
]
