"""Heavy hitters over the union of historical and streaming data.

The paper names heavy hitters alongside quantiles as the fundamental
analytical primitives lacking integrated historical+streaming methods,
and leaves "other classes of aggregates in this model" as future work.
This module carries the paper's design pattern over to frequent items:

* the stream runs a Misra-Gries sketch (error ``eps * m``, stream-side
  only — the exact analogue of the GK sketch's role);
* history lives in the very same leveled store with the very same
  partition summaries;
* a query needs *candidates* plus *counts*.  Candidates come from the
  in-memory structures alone: if a value is phi-heavy over T, then by
  averaging it is phi-heavy inside at least one partition or the
  stream; a phi-heavy value in a sorted partition occupies at least
  ``phi * m_P >= 2 * eps1 * m_P`` consecutive positions, so the
  evenly-spaced summary necessarily sampled it — every candidate is a
  summary value or a Misra-Gries key.  Exact historical counts then
  cost two block-counted binary searches per partition per candidate
  (``rank(v) - rank(v - 1)``), so the only count error is the stream
  sketch's ``eps * m`` — mirroring Theorem 2's shape.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.config import EngineConfig
from ..core.summaries import PartitionSummary
from ..sketches.base import as_int64_batch
from ..storage.cache import BlockCache
from ..storage.disk import SimulatedDisk
from ..warehouse.leveled_store import LeveledStore
from ..warehouse.partition import Partition
from .misra_gries import MisraGriesSketch


@dataclass(frozen=True)
class HeavyHitter:
    """One reported heavy hitter with its count bracket."""

    value: int
    count_low: int
    count_high: int

    @property
    def estimate(self) -> float:
        """Midpoint of the count bracket."""
        return (self.count_low + self.count_high) / 2.0


@dataclass(frozen=True)
class HeavyHitterReport:
    """Result of one heavy-hitters query."""

    phi: float
    total_size: int
    hitters: List[HeavyHitter]
    candidates_checked: int
    disk_accesses: int
    wall_seconds: float

    @property
    def threshold(self) -> float:
        """The absolute count threshold phi * N."""
        return self.phi * self.total_size


class HeavyHittersEngine:
    """Frequent items over historical plus streaming data.

    Implements the same driver protocol as the quantile engine
    (``stream_update_many`` / ``end_time_step``), so the experiment
    runner can ingest both side by side.

    Guarantee: for ``phi >= 2 * eps1``, every value with true frequency
    at least ``phi * N`` is reported, and nothing with frequency below
    ``phi * N - eps2 * m`` is reported (the stream sketch is the only
    approximate part).
    """

    def __init__(
        self,
        epsilon: Optional[float] = None,
        kappa: int = 10,
        block_elems: int = 1024,
        config: Optional[EngineConfig] = None,
        disk: Optional[SimulatedDisk] = None,
    ) -> None:
        if config is None:
            if epsilon is None:
                raise ValueError("pass epsilon or a full EngineConfig")
            config = EngineConfig(
                epsilon=epsilon, kappa=kappa, block_elems=block_elems
            )
        self.config = config
        self.disk = disk if disk is not None else SimulatedDisk(
            block_elems=config.block_elems
        )
        self.store = LeveledStore(
            self.disk,
            kappa=config.kappa,
            summary_builder=lambda p: PartitionSummary.build(
                p, config.epsilon1
            ),
        )
        self._mg = MisraGriesSketch.for_epsilon(config.epsilon2)
        self._stream_chunks: List[np.ndarray] = []
        self._m = 0
        self._step = 0

    # ------------------------------------------------------------------
    # Ingestion (same shape as the quantile engine)
    # ------------------------------------------------------------------

    def stream_update(self, value: int) -> None:
        """Process one live stream element (checked like a batch)."""
        arr = as_int64_batch([value])
        self._mg.update(int(arr[0]))
        self._stream_chunks.append(arr)
        self._m += 1

    def stream_update_many(self, values: np.ndarray) -> int:
        """Process a batch of live stream elements; returns its size."""
        arr = as_int64_batch(values)
        if arr.size:
            self._mg.update_many(arr)
            self._stream_chunks.append(arr.copy())
            self._m += int(arr.size)
        return int(arr.size)

    def end_time_step(self) -> None:
        """Archive the stream batch and reset the stream sketch."""
        self._step += 1
        batch = (
            np.concatenate(self._stream_chunks)
            if self._stream_chunks
            else np.empty(0, dtype=np.int64)
        )
        self.store.add_batch(batch, step=self._step)
        self._stream_chunks = []
        self._m = 0
        self._mg = MisraGriesSketch.for_epsilon(self.config.epsilon2)

    @property
    def n_historical(self) -> int:
        """Number of archived historical elements n."""
        return self.store.total_elements()

    @property
    def m_stream(self) -> int:
        """Number of live (unarchived) stream elements m."""
        return self._m

    @property
    def n_total(self) -> int:
        """Total number of elements N = n + m."""
        return self.n_historical + self._m

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _candidates(self) -> "set[int]":
        candidates = set(self._mg.candidates())
        for partition in self.store.partitions():
            summary: PartitionSummary = partition.summary
            if summary is not None:
                candidates.update(int(v) for v in summary.values)
        return candidates

    def heavy_hitters(self, phi: float) -> HeavyHitterReport:
        """All values with frequency at least ``phi * N`` in T.

        Reported counts are brackets ``[low, high]``: the historical
        part is exact (block-counted binary searches), the stream part
        is the Misra-Gries bracket of width ``eps2 * m``.
        """
        if not 0 < phi <= 1:
            raise ValueError("phi must be in (0, 1]")
        started = time.perf_counter()
        cache = BlockCache(self.disk, enabled=self.config.block_cache)
        threshold = phi * self.n_total
        mg_error = int(np.ceil(self._mg.error_bound))
        hitters = []
        candidates = self._candidates()
        with self.disk.stats.phase_scope("query"):
            for value in candidates:
                historical = 0
                for partition in self.store.partitions():
                    historical += self._partition_count(
                        partition, value, cache
                    )
                stream_low = self._mg.estimate(value)
                stream_high = min(self._m, stream_low + mg_error)
                low = historical + stream_low
                high = historical + stream_high
                if high >= threshold:
                    hitters.append(
                        HeavyHitter(
                            value=value, count_low=low, count_high=high
                        )
                    )
        hitters.sort(key=lambda h: (-h.count_high, h.value))
        return HeavyHitterReport(
            phi=phi,
            total_size=self.n_total,
            hitters=hitters,
            candidates_checked=len(candidates),
            disk_accesses=cache.blocks_charged,
            wall_seconds=time.perf_counter() - started,
        )

    def _partition_count(
        self, partition: Partition, value: int, cache: BlockCache
    ) -> int:
        """Exact count of ``value`` in one partition: rank(v) - rank(v-1)."""
        if len(partition) == 0:
            return 0
        summary: PartitionSummary = partition.summary
        lo, hi = summary.search_bounds(value)
        upper = partition.run.rank_of(value, lo=lo, hi=hi, cache=cache)
        lo2, hi2 = summary.search_bounds(value - 1)
        lower = partition.run.rank_of(value - 1, lo=lo2, hi=hi2, cache=cache)
        return upper - lower

    def memory_words(self) -> int:
        """Current memory footprint in 8-byte words."""
        hist = sum(
            p.summary.memory_words()
            for p in self.store.partitions()
            if p.summary is not None
        )
        return self._mg.memory_words() + hist
