"""The pure-streaming baseline (Section 2).

A single streaming sketch (GK or Q-Digest) processes *every* element
of T — historical and live alike — and answers quantile queries from
memory with error proportional to ``eps * N``, the full dataset size.
This is the approach the paper's figures compare against.

For the update-cost comparison (Figure 6/7) the baseline follows the
same loading paradigm as the hybrid engine: batches are written to the
warehouse and partitions are merged on the identical leveled schedule —
but without sorting, so it pays load and merge I/O only.
"""

from __future__ import annotations

import time
from typing import List

import numpy as np

from ..core.engine import StepReport
from ..core.query_path import QueryResult
from ..sketches.base import QuantileSketch, as_int64_batch, rank_for_phi
from ..sketches.gk import GKSketch
from ..sketches.qdigest import QDigestSketch
from ..storage.disk import SimulatedDisk


class _RawLeveledLoader:
    """Mirrors LeveledStore's I/O schedule for unsorted batches.

    Tracks partition sizes only; charges the same load writes and
    merge read+write passes as the hybrid store, minus sorting.
    """

    def __init__(self, disk: SimulatedDisk, kappa: int) -> None:
        self._disk = disk
        self._kappa = kappa
        self._levels: List[List[int]] = [[]]

    def add_batch(self, num_elems: int) -> None:
        """Charge the load write for one unsorted batch."""
        self._make_room(0)
        with self._disk.stats.phase_scope("load"):
            self._disk.charge_sequential_write(num_elems)
        self._levels[0].append(num_elems)

    def _make_room(self, level: int) -> None:
        if len(self._levels[level]) < self._kappa:
            return
        if level + 1 >= len(self._levels):
            self._levels.append([])
        self._make_room(level + 1)
        sizes = self._levels[level]
        total = sum(sizes)
        with self._disk.stats.phase_scope("merge"):
            for size in sizes:
                self._disk.charge_sequential_read(size)
            self._disk.charge_sequential_write(total)
        self._levels[level] = []
        self._levels[level + 1].append(total)


def make_sketch(
    kind: str, epsilon: float, universe_log2: int = 34
) -> QuantileSketch:
    """Build a streaming sketch by name: 'gk' or 'qdigest'."""
    if kind == "gk":
        return GKSketch(epsilon)
    if kind == "qdigest":
        return QDigestSketch(epsilon, universe_log2=universe_log2)
    raise ValueError(f"unknown sketch kind: {kind!r}")


class PureStreamingEngine:
    """Answer quantiles on T with a single streaming sketch.

    Implements the same driver protocol as the hybrid engine
    (``stream_update_many`` / ``end_time_step`` / ``quantile``), so
    experiments can swap baselines in transparently.
    """

    def __init__(
        self,
        kind: str = "gk",
        epsilon: float = 1e-3,
        kappa: int = 10,
        block_elems: int = 1024,
        universe_log2: int = 34,
    ) -> None:
        self.kind = kind
        self.epsilon = epsilon
        self.disk = SimulatedDisk(block_elems=block_elems)
        self.sketch = make_sketch(kind, epsilon, universe_log2=universe_log2)
        self._loader = _RawLeveledLoader(self.disk, kappa)
        self._pending_elems = 0
        self._step = 0
        self._n_total = 0

    def stream_update(self, value: int) -> None:
        """Process one live stream element (checked like a batch)."""
        self.sketch.update(int(as_int64_batch([value])[0]))
        self._pending_elems += 1
        self._n_total += 1

    def stream_update_many(self, values: np.ndarray) -> int:
        """Process a batch of live stream elements; returns its size."""
        arr = as_int64_batch(values)
        if arr.size:
            self.sketch.update_many(arr)
            self._pending_elems += int(arr.size)
            self._n_total += int(arr.size)
        return int(arr.size)

    def end_time_step(self) -> StepReport:
        """Archive the batch (I/O only); the sketch is never reset."""
        self._step += 1
        started = time.perf_counter()
        with self.disk.stats.capture() as io:
            self._loader.add_batch(self._pending_elems)
        wall = time.perf_counter() - started
        batch = self._pending_elems
        self._pending_elems = 0
        return StepReport.of(
            self._step, batch, io, {"load": wall}, self.disk.latency
        )

    @property
    def n_total(self) -> int:
        """Total number of elements N = n + m."""
        return self._n_total

    @property
    def m_stream(self) -> int:
        """Number of live (unarchived) stream elements m."""
        return self._pending_elems

    def query_rank(self, rank: int, mode: str = "accurate") -> QueryResult:
        """Answer from the sketch; error is ``eps * N`` regardless of mode."""
        started = time.perf_counter()
        rank = max(1, min(int(rank), self._n_total))
        value = self.sketch.query_rank(rank)
        return QueryResult(
            value=int(value),
            target_rank=rank,
            total_size=self._n_total,
            mode="streaming",
            estimated_rank=float(rank),
            disk_accesses=0,
            iterations=0,
            truncated=False,
            wall_seconds=time.perf_counter() - started,
            sim_seconds=0.0,
        )

    def quantile(self, phi: float, mode: str = "accurate") -> QueryResult:
        """Return an approximate ``phi``-quantile (Definition 1)."""
        return self.query_rank(rank_for_phi(phi, self._n_total))

    def memory_words(self) -> int:
        """Current memory footprint in 8-byte words."""
        return self.sketch.memory_words()
