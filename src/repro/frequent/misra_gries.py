"""The Misra-Gries frequent-items sketch.

The streaming-side substrate for the hybrid heavy-hitters engine: with
``k`` counters, every value's estimated count satisfies

    f(v) - m / (k + 1)  <=  estimate(v)  <=  f(v)

so any value with true frequency above ``m / (k + 1)`` is guaranteed to
be among the tracked keys.  Batches merge via the mergeable-summaries
rule (combine counts, subtract the (k+1)-largest, drop non-positive),
which preserves the same guarantee.
"""

from __future__ import annotations

import math
from typing import Dict

import numpy as np

from ..sketches.base import as_int64_batch


class MisraGriesSketch:
    """Deterministic frequent-items summary with ``k`` counters.

    Parameters
    ----------
    num_counters:
        ``k``; estimation error is at most ``m / (k + 1)``.
    """

    def __init__(self, num_counters: int) -> None:
        if num_counters < 1:
            raise ValueError("num_counters must be >= 1")
        self.num_counters = num_counters
        self._counters: Dict[int, int] = {}
        self._n = 0

    @classmethod
    def for_epsilon(cls, epsilon: float) -> "MisraGriesSketch":
        """Counters for estimation error at most ``epsilon * m``."""
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        return cls(num_counters=math.ceil(1.0 / epsilon))

    @property
    def n(self) -> int:
        """Number of elements processed so far."""
        return self._n

    @property
    def error_bound(self) -> float:
        """Maximum undercount of any estimate: ``m / (k + 1)``."""
        return self._n / (self.num_counters + 1)

    def update(self, value: int) -> None:
        """Process one element (textbook Misra-Gries)."""
        value = int(value)
        self._n += 1
        if value in self._counters:
            self._counters[value] += 1
            return
        if len(self._counters) < self.num_counters:
            self._counters[value] = 1
            return
        # Decrement-all: drop every counter by one, evicting zeros.
        exhausted = []
        for key in self._counters:
            self._counters[key] -= 1
            if self._counters[key] == 0:
                exhausted.append(key)
        for key in exhausted:
            del self._counters[key]

    def update_many(self, values: np.ndarray) -> None:
        """Merge a batch using the mergeable-summaries rule."""
        arr = as_int64_batch(values)
        if arr.size == 0:
            return
        self._n += int(arr.size)
        uniques, counts = np.unique(arr, return_counts=True)
        merged = dict(self._counters)
        for value, count in zip(uniques, counts):
            merged[int(value)] = merged.get(int(value), 0) + int(count)
        if len(merged) > self.num_counters:
            # Subtract the (k+1)-th largest count from everyone and
            # drop the non-positive remainder.
            ordered = sorted(merged.values(), reverse=True)
            cutoff = ordered[self.num_counters]
            merged = {
                key: count - cutoff
                for key, count in merged.items()
                if count - cutoff > 0
            }
        self._counters = merged

    def estimate(self, value: int) -> int:
        """Estimated count of ``value`` (undercounts by <= error_bound)."""
        return self._counters.get(int(value), 0)

    def candidates(self) -> Dict[int, int]:
        """All tracked values with their (under)estimates."""
        return dict(self._counters)

    def heavy_hitters(self, phi: float) -> Dict[int, int]:
        """Values whose estimate reaches ``phi * m``."""
        if not 0 < phi <= 1:
            raise ValueError("phi must be in (0, 1]")
        threshold = phi * self._n
        return {
            value: count
            for value, count in self._counters.items()
            if count >= threshold
        }

    def memory_words(self) -> int:
        """Current memory footprint in 8-byte words."""
        return 2 * len(self._counters) + 3
