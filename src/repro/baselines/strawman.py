"""The strawman baseline (Section 2).

Keep H fully sorted on disk at all times and run a streaming sketch on
R.  Accuracy matches the hybrid engine (error proportional to the
stream only), but every time step pays a full read-plus-write pass over
*all* historical data to merge in the new batch — the disk-I/O cost the
hybrid engine's leveled merging amortizes away.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import List, Optional

import numpy as np

from ..core.bounds import CombinedSummary
from ..core.config import EngineConfig
from ..core.engine import StepReport
from ..core.query_path import QueryResult, QueryScope, answer_rank
from ..core.summaries import PartitionSummary, StreamSummary
from ..query.executor import SERIAL_EXECUTOR
from ..sketches.base import as_int64_batch, rank_for_phi
from ..sketches.gk import GKSketch
from ..storage.cache import BlockCache
from ..storage.disk import SimulatedDisk
from ..storage.runfile import SortedRun
from ..warehouse.partition import Partition


class StrawmanEngine:
    """Fully sorted historical data plus a GK stream sketch.

    Implements the same driver protocol as the hybrid engine, so the
    experiment runner can compare all three approaches directly.
    """

    def __init__(
        self,
        epsilon: float,
        block_elems: int = 1024,
        disk: Optional[SimulatedDisk] = None,
    ) -> None:
        self.config = EngineConfig(epsilon=epsilon, block_elems=block_elems)
        self.disk = disk if disk is not None else SimulatedDisk(
            block_elems=block_elems
        )
        self._gk = GKSketch(self.config.epsilon2 / 2.0)
        self._stream_chunks: List[np.ndarray] = []
        self._m = 0
        self._step = 0
        self._partition: Optional[Partition] = None

    def stream_update(self, value: int) -> None:
        """Process one live stream element (checked like a batch)."""
        arr = as_int64_batch([value])
        self._gk.update(int(arr[0]))
        self._stream_chunks.append(arr)
        self._m += 1

    def stream_update_many(self, values: np.ndarray) -> int:
        """Process a batch of live stream elements; returns its size."""
        arr = as_int64_batch(values)
        if arr.size:
            self._gk.update_many(arr)
            self._stream_chunks.append(arr.copy())
            self._m += int(arr.size)
        return int(arr.size)

    def end_time_step(self) -> StepReport:
        """Merge the batch into the single sorted historical run."""
        self._step += 1
        batch = (
            np.concatenate(self._stream_chunks)
            if self._stream_chunks
            else np.empty(0, dtype=np.int64)
        )
        before = self.disk.stats.counters.snapshot()
        before_merge = self.disk.stats.merge.snapshot()
        started = time.perf_counter()
        sorted_batch = np.sort(batch)
        if self._partition is None:
            with self.disk.stats.phase_scope("load"):
                run = SortedRun(self.disk, sorted_batch)
        else:
            # Read all of history, merge the in-memory batch in, and
            # write the combined run back: the full pass the hybrid
            # engine's leveled merging amortizes away.
            with self.disk.stats.phase_scope("merge"):
                self.disk.charge_sequential_read(len(self._partition.run))
                merged = np.sort(
                    np.concatenate(
                        [self._partition.run.values, sorted_batch]
                    )
                )
                run = SortedRun(self.disk, merged, charge_write=True)
        partition = Partition(
            level=0, start_step=1, end_step=self._step, run=run
        )
        partition.summary = PartitionSummary.build(
            partition, self.config.epsilon1
        )
        self._partition = partition
        wall = time.perf_counter() - started
        self._stream_chunks = []
        self._m = 0
        self._gk = GKSketch(self.config.epsilon2 / 2.0)
        io_delta = self.disk.stats.counters.delta_since(before)
        merge_delta = self.disk.stats.merge.delta_since(before_merge)
        return StepReport(
            step=self._step,
            batch_elems=int(batch.size),
            io_total=io_delta.total,
            io_load=io_delta.total - merge_delta.total,
            io_sort=0,
            io_merge=merge_delta.total,
            cpu_seconds={"load": wall, "sort": 0.0, "merge": 0.0,
                         "summary": 0.0},
            sim_seconds=self.disk.latency.seconds(io_delta),
            merged_levels=merge_delta.total > 0,
        )

    @property
    def n_historical(self) -> int:
        """Number of archived historical elements n."""
        return len(self._partition) if self._partition else 0

    @property
    def m_stream(self) -> int:
        """Number of live (unarchived) stream elements m."""
        return self._m

    @property
    def n_total(self) -> int:
        """Total number of elements N = n + m."""
        return self.n_historical + self._m

    def query_rank(self, rank: int, mode: str = "accurate") -> QueryResult:
        """Return a value whose true rank approximates ``rank``.

        The hybrid engine's accurate response over a one-partition
        scope (every answer is accurate, whatever ``mode`` says).
        """
        ss = StreamSummary.extract(self._gk, self.config.epsilon2)
        partitions = [self._partition] if self._partition else []

        def stream_rank(value: int) -> float:
            """Rank of ``value`` in R from the live sketch bracket."""
            if self._gk.n == 0:
                return 0.0
            lo, hi = self._gk.rank_bounds(int(value))
            return (lo + hi) / 2.0

        scope = QueryScope(
            partitions=partitions,
            stream_summary=ss,
            combined=CombinedSummary.build(
                [p.summary for p in partitions], ss
            ),
            stream_rank=stream_rank,
            new_cache=lambda: BlockCache(self.disk),
            # Never called: a fault propagates (``degrade=False``).
            on_degraded=lambda cache: None,
        )
        with self.disk.stats.phase_scope("query"):
            result = answer_rank(
                scope, rank, "accurate", self.config, SERIAL_EXECUTOR,
                self.disk.latency, degrade=False,
            )
        return replace(result, mode="strawman")

    def quantile(self, phi: float, mode: str = "accurate") -> QueryResult:
        """Return an approximate ``phi``-quantile (Definition 1)."""
        return self.query_rank(rank_for_phi(phi, self.n_total))

    def memory_words(self) -> int:
        """Current memory footprint in 8-byte words."""
        words = self._gk.memory_words() + self.config.beta2 + 2
        if self._partition is not None and self._partition.summary:
            words += self._partition.summary.memory_words()
        return words
