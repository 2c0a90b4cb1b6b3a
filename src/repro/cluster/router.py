"""Shard routing: every write of a time step goes whole, in arrival
order, to the step's *home*: the live shard with the fewest acked
elements at the step's first write (lowest index on ties), picked again
if it is quarantined mid-step.  Placement cannot change the union's
quantiles (KLL merges over any split); one home per step keeps one
engine's partitions, seals and WAL frames."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..sketches.base import as_int64_batch


class ClusterUnavailable(RuntimeError):
    """Too few live shards to take a write or satisfy the gather contract."""


class ShardRouter:
    """Home-shard placement over ``shards`` shards."""

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError("shards must be >= 1")
        self.shards = int(shards)
        #: the current step's home shard (``None`` until its first write).
        self.home: Optional[int] = None

    def route_many(
        self, values: np.ndarray, acked: Sequence[Optional[int]]
    ) -> Tuple[int, np.ndarray]:
        """The batch as one int64 array and the shard it goes to whole.

        ``acked`` is each shard's acked element count, ``None`` where it
        is quarantined.  The step's home is kept while it is live, else
        picked; with no shard live the write is refused.  An empty batch
        picks nothing and is never refused.
        """
        arr = as_int64_batch(values)
        home = self.home
        if arr.size and (home is None or acked[home] is None):
            live = [(n, i) for i, n in enumerate(acked) if n is not None]
            if not live:
                raise ClusterUnavailable(
                    "every shard is quarantined: nowhere to write"
                )
            home = self.home = min(live)[1]
        return home, arr

    def end_step(self) -> None:
        """The step is sealed: the next write picks the next home."""
        self.home = None

    def resume(self, streams: Sequence[int]) -> None:
        """Keep a restored step under way on the shard whose live stream
        (``streams``: each shard's ``m_stream``) holds it."""
        self.home = next((i for i, m in enumerate(streams) if m), None)

    def to_manifest(self) -> dict:
        """JSON-safe description, round-tripped by :meth:`from_manifest`.

        ``strategy`` and ``bounds`` keep the keys manifests have always
        carried, so an older ``cluster.json`` loads unchanged.
        """
        return {"shards": self.shards, "strategy": "home", "bounds": None}

    @classmethod
    def from_manifest(cls, manifest: dict) -> "ShardRouter":
        """Rebuild a router from :meth:`to_manifest` output (or a
        ``"hash"`` one: recovery never routes an element again)."""
        if manifest["strategy"] not in ("home", "hash"):
            raise ValueError(
                f"router strategy {manifest['strategy']!r} is not "
                "supported: clusters route each step to a home shard"
            )
        return cls(int(manifest["shards"]))
