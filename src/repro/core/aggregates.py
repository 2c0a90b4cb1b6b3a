"""Exact aggregates over historical + streaming data.

Quantiles need sketches; count, sum, min, max and mean do not — each
partition's aggregates are computed for free while it is written
(exactly like its summary), and the engine keeps running aggregates of
the live stream.  Any aligned scope (full union, suffix window, or
historical step range) therefore answers *exactly* with zero disk
accesses — the cheap complement to approximate quantile queries, and a
small taste of the paper's "other classes of aggregates" future work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ..warehouse.partition import Partition


def exact_sum(values: np.ndarray, low: int, high: int) -> int:
    """The sum of ``values``, all in ``[low, high]``, as an exact int: an
    int64 ``sum`` where no partial sum can wrap, else the high and low 32
    bits summed apart (exact below 2**31 elements) and joined as ints."""
    if max(-low, high) * values.size < 2**63:
        return int(values.sum())
    return (int((values >> 32).sum()) << 32) + int((values & 0xFFFFFFFF).sum())


@dataclass(frozen=True)
class AggregateStats:
    """Exact count / sum / min / max of one dataset."""

    count: int
    total: int
    minimum: Optional[int]
    maximum: Optional[int]

    @property
    def mean(self) -> float:
        """Arithmetic mean (NaN when empty)."""
        return self.total / self.count if self.count else float("nan")

    @staticmethod
    def empty() -> "AggregateStats":
        """The aggregate of no data."""
        return AggregateStats(count=0, total=0, minimum=None, maximum=None)

    @staticmethod
    def of_array(values: np.ndarray) -> "AggregateStats":
        """Exact aggregates of an array."""
        if values.size == 0:
            return AggregateStats.empty()
        low, high = int(values.min()), int(values.max())
        return AggregateStats(
            int(values.size), exact_sum(values, low, high), low, high
        )

    def with_value(self, value: int) -> "AggregateStats":
        """Aggregates after appending one element (O(1), no arrays)."""
        return self.merge(AggregateStats(1, value, value, value))

    def merge(self, other: "AggregateStats") -> "AggregateStats":
        """Combine two aggregates."""
        if self.count == 0:
            return other
        if other.count == 0:
            return self
        return AggregateStats(
            count=self.count + other.count,
            total=self.total + other.total,
            minimum=min(self.minimum, other.minimum),
            maximum=max(self.maximum, other.maximum),
        )


def partition_stats(partition: Partition) -> AggregateStats:
    """Aggregates of one partition.

    Reads the in-memory view: legitimate only because every partition's
    stats are conceptually computed while its data is written (no
    additional disk access), exactly like its summary.
    """
    values = np.asarray(partition.run.values)
    if values.size == 0:
        return AggregateStats.empty()
    # A sorted run: its ends are its minimum and maximum.
    low, high = int(values[0]), int(values[-1])
    return AggregateStats(values.size, exact_sum(values, low, high), low, high)


def combine(parts: Iterable[AggregateStats]) -> AggregateStats:
    """Merge a sequence of aggregates into one."""
    result = AggregateStats.empty()
    for stats in parts:
        result = result.merge(stats)
    return result
