"""Exact quantile oracle.

The evaluation measures relative error ``|r - r_hat| / (phi * N)``
against the *true* rank of the returned element (Section 3.1).  At the
reproduction's laptop scale we can afford to keep the full dataset in
memory; this oracle does so and answers exact rank and selection
queries.  It is an evaluation aid, not a sketch with bounded memory.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .base import QuantileSketch, as_int64_batch, clamp_rank


class ExactQuantiles(QuantileSketch):
    """Stores everything; answers rank and selection queries exactly."""

    def __init__(self) -> None:
        self._chunks: List[np.ndarray] = []
        self._sorted: Optional[np.ndarray] = None
        self._n = 0

    @property
    def n(self) -> int:
        """Number of elements processed so far."""
        return self._n

    def update(self, value: int) -> None:
        """Process one stream element."""
        self.update_many(np.asarray([value], dtype=np.int64))

    def update_many(self, values: np.ndarray) -> None:
        """Process a numpy batch in one O(1)-append chunk."""
        arr = as_int64_batch(values)
        if arr.size == 0:
            return
        self._chunks.append(arr.copy())
        self._sorted = None
        self._n += int(arr.size)

    def _all_sorted(self) -> np.ndarray:
        if self._sorted is None:
            if self._chunks:
                self._sorted = np.sort(np.concatenate(self._chunks))
            else:
                self._sorted = np.empty(0, dtype=np.int64)
        return self._sorted

    def rank(self, value: int) -> int:
        """Exact number of elements ``<= value``."""
        return int(np.searchsorted(self._all_sorted(), value, side="right"))

    def rank_strict(self, value: int) -> int:
        """Exact number of elements strictly ``< value``."""
        return int(np.searchsorted(self._all_sorted(), value, side="left"))

    def query_rank(self, rank: int) -> int:
        """The exact element of the given rank (1-indexed)."""
        if self._n == 0:
            raise ValueError("oracle is empty")
        rank = clamp_rank(rank, self._n)
        return int(self._all_sorted()[rank - 1])

    def memory_words(self) -> int:
        """Current memory footprint in 8-byte words."""
        return self._n + 4
