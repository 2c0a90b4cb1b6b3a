"""Sharded multi-engine cluster: routing, scatter/gather, durability."""

from .engine import (
    ClusterEngine,
    ClusterSnapshot,
    ClusterUnavailable,
    ShardedBlockCache,
    ShardErrors,
    shard_dir,
)
from .persistence import list_shard_dirs, load_cluster, save_cluster
from .router import ShardRouter
from .supervisor import RecoveryEvent, ShardSupervisor

__all__ = [
    "ClusterEngine",
    "ClusterSnapshot",
    "ClusterUnavailable",
    "RecoveryEvent",
    "ShardErrors",
    "ShardSupervisor",
    "ShardedBlockCache",
    "ShardRouter",
    "list_shard_dirs",
    "load_cluster",
    "save_cluster",
    "shard_dir",
]
