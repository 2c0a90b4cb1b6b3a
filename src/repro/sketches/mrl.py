"""The MRL99 randomized quantile sketch.

Manku, Rajagopalan & Lindsay (SIGMOD 1999), the randomized multi-level
buffer algorithm the paper's related-work section singles out: Wang et
al.'s experimental study found MRL99 and Greenwald-Khanna to be the two
most competitive streaming quantile algorithms, with MRL99 slightly
ahead on space for a given accuracy but without GK's deterministic
worst-case guarantee.

The structure keeps ``b`` buffers of ``k`` elements each, organized by
*level*.  Incoming elements fill an active level-0 buffer, sampled at
rate ``1 / 2^level_0`` once the stream outgrows the first levels.  When
all buffers are full, the two lowest-level buffers COLLAPSE: their
elements are merged and every other element (alternating offsets) is
kept in a new buffer one level up.  A rank query weights each buffer's
elements by ``2^level`` and reads the answer off the weighted merge.

With ``b * k = O((1/eps) log^2(1/(eps delta)))`` the returned value's
rank error is at most ``eps * n`` with probability ``1 - delta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .base import QuantileSketch, clamp_rank


@dataclass
class _Buffer:
    """One MRL buffer: sorted elements, each representing 2^level inputs."""

    level: int
    values: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )

    @property
    def weight(self) -> int:
        """Number of stream elements each entry represents."""
        return 1 << self.level


class MRL99Sketch(QuantileSketch):
    """Randomized multi-level buffer quantile summary.

    Parameters
    ----------
    buffer_size:
        Elements per buffer (``k``).
    num_buffers:
        Number of buffers (``b``); must be at least 3 so collapses can
        always free a buffer while one fills.
    seed:
        Seed for the sampling/offset RNG.
    """

    def __init__(
        self,
        buffer_size: int = 1000,
        num_buffers: int = 10,
        seed: Optional[int] = None,
    ) -> None:
        if buffer_size < 2:
            raise ValueError("buffer_size must be >= 2")
        if num_buffers < 3:
            raise ValueError("num_buffers must be >= 3")
        self.buffer_size = buffer_size
        self.num_buffers = num_buffers
        self._rng = np.random.default_rng(seed)
        self._buffers: List[_Buffer] = []
        self._pending: List[int] = []
        self._active_level = 0
        self._skip = 0  # elements to drop before the next accepted one
        self._n = 0

    @classmethod
    def for_epsilon(
        cls,
        epsilon: float,
        delta: float = 0.01,
        seed: Optional[int] = None,
    ) -> "MRL99Sketch":
        """Size buffers for error ``eps * n`` w.p. ``1 - delta``.

        Uses the practical sizing from the MRL99 paper's experiments:
        ``b ~ log2(1/eps)`` buffers of ``k ~ (1/eps) log^2(log(1/delta)
        / eps) / b`` elements, with generous constants.
        """
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1)")
        num_buffers = max(3, int(math.log2(2.0 / epsilon)))
        total = (2.0 / epsilon) * max(
            1.0, math.log2(math.log(2.0 / delta) / epsilon)
        )
        buffer_size = max(2, int(total / num_buffers))
        return cls(buffer_size=buffer_size, num_buffers=num_buffers,
                   seed=seed)

    @property
    def n(self) -> int:
        """Number of elements processed so far."""
        return self._n

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update(self, value: int) -> None:
        """Process one stream element."""
        self._n += 1
        if self._skip > 0:
            self._skip -= 1
            return
        self._pending.append(int(value))
        # At level L the buffer represents k * 2^L inputs: accept one
        # element, then skip 2^L - 1.
        self._skip = (1 << self._active_level) - 1
        if len(self._pending) >= self.buffer_size:
            self._seal_pending()

    # ``update_many`` is the inherited element-wise loop, deliberately:
    # the sampling state (skip debt, level changes on seal) makes a
    # vectorized path error-prone for little benefit — the sketch
    # touches only every 2^L-th element once levels grow.

    def _seal_pending(self) -> None:
        """Promote the filled working buffer and collapse if needed."""
        values = np.sort(np.asarray(self._pending, dtype=np.int64))
        self._buffers.append(_Buffer(level=self._active_level, values=values))
        self._pending = []
        while len(self._buffers) >= self.num_buffers:
            self._collapse()
        # New inputs sample at the lowest live level so weights stay
        # balanced (the MRL99 "new" policy).
        if self._buffers:
            self._active_level = min(b.level for b in self._buffers)
        self._skip = 0

    def _collapse(self) -> None:
        """Collapse the two lowest-level buffers into one a level up."""
        self._buffers.sort(key=lambda b: b.level)
        first, second = self._buffers[0], self._buffers[1]
        target_level = max(first.level, second.level) + 1
        # Weighted merge: repeat each element by its buffer's weight
        # relative to the smaller weight, then take alternating
        # elements with a random offset (the randomization that makes
        # MRL99's guarantee probabilistic).
        base = min(first.weight, second.weight)
        merged = np.sort(
            np.concatenate(
                [
                    np.repeat(first.values, first.weight // base),
                    np.repeat(second.values, second.weight // base),
                ]
            )
        )
        step = (1 << target_level) // base
        offset = int(self._rng.integers(0, step))
        collapsed = merged[offset::step]
        if collapsed.size == 0:
            collapsed = merged[:1]
        self._buffers = self._buffers[2:]
        self._buffers.append(_Buffer(level=target_level, values=collapsed))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _weighted_elements(self) -> "tuple[np.ndarray, np.ndarray]":
        """All summary elements with their weights, sorted by value."""
        parts = []
        weights = []
        for buffer in self._buffers:
            parts.append(buffer.values)
            weights.append(
                np.full(len(buffer.values), buffer.weight, dtype=np.int64)
            )
        if self._pending:
            pending = np.asarray(sorted(self._pending), dtype=np.int64)
            parts.append(pending)
            weights.append(
                np.full(
                    len(pending), 1 << self._active_level, dtype=np.int64
                )
            )
        if not parts:
            raise ValueError("sketch is empty")
        values = np.concatenate(parts)
        weight = np.concatenate(weights)
        order = np.argsort(values, kind="stable")
        return values[order], weight[order]

    def query_rank(self, rank: int) -> int:
        """Value whose rank approximates ``rank`` (w.h.p. within eps*n)."""
        if self._n == 0:
            raise ValueError("sketch is empty")
        rank = clamp_rank(rank, self._n)
        values, weights = self._weighted_elements()
        cumulative = np.cumsum(weights)
        # Rescale: the summary's total weight may not equal n exactly
        # (sampling drops a partial tail); target proportionally.
        target = rank / self._n * cumulative[-1]
        index = int(np.searchsorted(cumulative, target, side="left"))
        return int(values[min(index, len(values) - 1)])

    def memory_words(self) -> int:
        """Current memory footprint in 8-byte words."""
        held = sum(len(b.values) for b in self._buffers) + len(self._pending)
        return held + 2 * len(self._buffers) + 6
