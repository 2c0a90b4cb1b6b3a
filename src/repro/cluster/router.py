"""Shard routing: deterministic value -> shard placement.

A cluster splits one logical stream across N engine shards.  The
router decides placement, and everything downstream (per-shard
sketches, per-shard epochs, the fused query path) relies on two
properties:

* **determinism** — the same value always lands on the same shard, so
  a replay of a recorded per-shard feed reconstructs each shard
  bit-for-bit (the equivalence harness leans on this);
* **order preservation within a shard** — ``route_many`` keeps each
  shard's elements in arrival order, so fanning a batch out is
  indistinguishable from each shard having observed its sub-stream
  element by element (the same lazy-absorption contract the engines
  already honor).

One strategy, ``"hash"``: a splitmix64-style avalanche of the value
picks the shard, statistically balanced for any input distribution.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..sketches.base import as_int64_batch

_MIX_INCREMENT = np.uint64(0x9E3779B97F4A7C15)
_MIX_MULT_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MULT_2 = np.uint64(0x94D049BB133111EB)


def _mix(values: np.ndarray) -> np.ndarray:
    """Splitmix64 finalizer over a uint64 view of the values.

    Negative int64 inputs wrap into uint64 deterministically; all
    arithmetic is modulo 2**64 by construction.
    """
    with np.errstate(over="ignore"):
        z = values.astype(np.uint64) + _MIX_INCREMENT
        z = (z ^ (z >> np.uint64(30))) * _MIX_MULT_1
        z = (z ^ (z >> np.uint64(27))) * _MIX_MULT_2
        return z ^ (z >> np.uint64(31))


class ShardRouter:
    """Deterministic hash-partitioner over ``shards`` shards."""

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = int(shards)

    def shard_indices(self, values: np.ndarray) -> np.ndarray:
        """Shard index per element (vectorized, arrival order kept)."""
        return self._placement(as_int64_batch(values)).astype(np.int64)

    def _placement(self, arr: np.ndarray) -> np.ndarray:
        """Shard index per element, in the narrowest unsigned dtype."""
        return (_mix(arr) % np.uint64(self.shards)).astype(
            np.min_scalar_type(self.shards - 1)
        )

    def shard_of(self, value: int) -> int:
        """Shard index of one value — equals ``shard_indices([value])[0]``."""
        return int(self.shard_indices([value])[0])

    def route_many(self, values: np.ndarray) -> List[np.ndarray]:
        """Split a batch into per-shard arrays with one stable sort.

        Returns one array per shard (possibly empty), each preserving
        the batch's arrival order — the property that makes a fanned
        batch equivalent to per-element routing.  The shard indices are
        narrow unsigned integers, so the stable argsort is numpy's radix
        sort; the per-shard counts cut the sorted batch into its chunks.
        """
        arr = as_int64_batch(values)
        if self.shards == 1:
            return [arr]
        indices = self._placement(arr)
        order = np.argsort(indices, kind="stable")
        ends = np.cumsum(np.bincount(indices, minlength=self.shards))
        return np.split(arr[order], ends[:-1])

    def to_manifest(self) -> dict:
        """JSON-safe description, round-tripped by :meth:`from_manifest`.

        ``strategy`` and ``bounds`` keep the keys manifests have always
        carried, so an older ``cluster.json`` loads unchanged.
        """
        return {"shards": self.shards, "strategy": "hash", "bounds": None}

    @classmethod
    def from_manifest(cls, manifest: dict) -> "ShardRouter":
        """Rebuild a router from :meth:`to_manifest` output."""
        if manifest["strategy"] != "hash":
            raise ValueError(
                f"router strategy {manifest['strategy']!r} is not "
                "supported: clusters route by hash"
            )
        return cls(int(manifest["shards"]))
