"""The Q-Digest quantile sketch.

Shrivastava et al. (SenSys 2004).  A q-digest summarizes a stream of
integers from a bounded universe ``[0, 2^L)`` as a set of counted nodes
of the complete binary tree over that universe.  With compression
factor ``k = L / eps`` the digest keeps ``O(L / eps)`` nodes and answers
rank queries with error at most ``eps * n``.

The paper uses Q-Digest both as an alternative stream sketch and as the
second pure-streaming baseline in every accuracy figure.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Tuple

import numpy as np

from .base import QuantileSketch, as_int64_batch, clamp_rank


class QDigestSketch(QuantileSketch):
    """Q-Digest over the integer universe ``[0, 2**universe_log2)``.

    Parameters
    ----------
    epsilon:
        Error parameter in (0, 1); rank queries are accurate to
        ``eps * n``.
    universe_log2:
        Base-2 logarithm of the universe size.  Values outside
        ``[0, 2**universe_log2)`` are rejected.
    """

    def __init__(self, epsilon: float, universe_log2: int = 34) -> None:
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if not 1 <= universe_log2 <= 62:
            raise ValueError("universe_log2 must be in [1, 62]")
        self.epsilon = epsilon
        self.universe_log2 = universe_log2
        self._universe = 1 << universe_log2
        self._counts: Dict[int, int] = {}
        self._n = 0
        # Compress lazily once the digest has grown past twice its
        # guaranteed compressed size of 3 * L / eps nodes.
        self._max_nodes = max(8, int(6 * universe_log2 / epsilon))

    @property
    def n(self) -> int:
        """Number of elements processed so far."""
        return self._n

    def _leaf(self, value: int) -> int:
        return self._universe + value

    def update(self, value: int) -> None:
        """Process one stream element."""
        value = int(value)
        if not 0 <= value < self._universe:
            raise ValueError(f"value {value} outside universe")
        leaf = self._leaf(value)
        self._counts[leaf] = self._counts.get(leaf, 0) + 1
        self._n += 1
        if len(self._counts) > self._max_nodes:
            self._compress()

    def update_many(self, values: np.ndarray) -> None:
        """Process many elements at once (bulk count via np.unique)."""
        arr = as_int64_batch(values)
        if arr.size == 0:
            return
        if arr.min() < 0 or arr.max() >= self._universe:
            raise ValueError("batch contains values outside universe")
        uniques, counts = np.unique(arr, return_counts=True)
        for value, count in zip(uniques, counts):
            leaf = self._leaf(int(value))
            self._counts[leaf] = self._counts.get(leaf, 0) + int(count)
        self._n += int(arr.size)
        if len(self._counts) > self._max_nodes:
            self._compress()

    def _threshold(self) -> int:
        return max(1, math.floor(self.epsilon * self._n / self.universe_log2))

    def _compress(self) -> None:
        """Restore the q-digest property bottom-up.

        A node (with its sibling) is folded into its parent whenever
        the combined count of node + sibling + parent is below the
        threshold ``floor(eps * n / L)``.
        """
        threshold = self._threshold()
        by_depth: "defaultdict[int, List[int]]" = defaultdict(list)
        for node in self._counts:
            by_depth[node.bit_length() - 1].append(node)
        for depth in range(self.universe_log2, 0, -1):
            for node in by_depth.get(depth, []):
                if node not in self._counts:
                    continue  # already folded as a sibling
                sibling = node ^ 1
                parent = node >> 1
                combined = (
                    self._counts.get(node, 0)
                    + self._counts.get(sibling, 0)
                    + self._counts.get(parent, 0)
                )
                if combined < threshold:
                    if parent not in self._counts:
                        by_depth[depth - 1].append(parent)
                    self._counts[parent] = combined
                    self._counts.pop(node, None)
                    self._counts.pop(sibling, None)

    def _node_range(self, node: int) -> Tuple[int, int]:
        """Inclusive value range ``[lo, hi]`` covered by ``node``."""
        depth = node.bit_length() - 1
        width = 1 << (self.universe_log2 - depth)
        lo = (node - (1 << depth)) * width
        return lo, lo + width - 1

    def query_rank(self, rank: int) -> int:
        """Value whose true rank is within ``eps * n`` of ``rank``."""
        if self._n == 0:
            raise ValueError("sketch is empty")
        rank = clamp_rank(rank, self._n)
        # Post-order over value space: ascending range max, with
        # smaller (deeper) ranges first on ties.
        nodes = sorted(
            self._counts.items(),
            key=lambda item: (self._node_range(item[0])[1], -item[0].bit_length()),
        )
        cumulative = 0
        for node, count in nodes:
            cumulative += count
            if cumulative >= rank:
                return self._node_range(node)[1]
        return self._node_range(nodes[-1][0])[1]

    def memory_words(self) -> int:
        """Two 8-byte words per node (id, count) plus bookkeeping."""
        return 2 * len(self._counts) + 4
