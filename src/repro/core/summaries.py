"""In-memory summaries: HS (per partition) and SS (stream).

HS (Algorithm 2): when a partition is created the engine samples
``beta_1`` elements at evenly spaced ranks — the smallest element plus
the element at rank ``ceil(i * eps_1 * eta)`` for each i.  Every entry
stores its exact rank inside the partition, so query-time filter
narrowing (Algorithm 8 line 5) costs no disk access.

SS (Algorithm 4): once per sketch version the engine extracts ``beta_2``
elements from the GK sketch — the exact stream minimum plus, for each i,
an element whose rank is guaranteed (Lemma 1) to lie in
``[i * eps_2 * m, (i + 1) * eps_2 * m]``.  The one-sided guarantee is
obtained by running GK at ``eps_2 / 2`` and querying at an offset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..sketches.gk import GKSketch
from ..warehouse.partition import Partition


def run_starts(values: np.ndarray) -> np.ndarray:
    """Mask of the first element of every run of equal neighbours."""
    first = np.ones(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=first[1:])
    return first


@lru_cache(maxsize=8)
def _schedule(eps2: float) -> np.ndarray:
    """``arange(1, beta2) * eps2``: SS's rank schedule before ``* m``,
    one array for every caller, so read-only."""
    schedule = np.arange(1, math.ceil(1.0 / eps2) + 1, dtype=np.int64) * eps2
    schedule.setflags(write=False)
    return schedule


@dataclass(frozen=True)
class PartitionSummary:
    """Summary of one sorted partition (one HS entry).

    Attributes
    ----------
    values:
        Sorted sample values, ascending.
    positions:
        1-indexed rank of each sample inside its partition: the element
        at ``positions[i]`` (1-based) of the sorted partition equals
        ``values[i]``.
    partition_size:
        Number of elements in the summarized partition (``m_P``).
    eps1:
        Spacing parameter: consecutive samples are at most
        ``eps1 * partition_size + 1`` ranks apart.
    """

    values: np.ndarray
    positions: np.ndarray
    partition_size: int
    eps1: float

    @classmethod
    def build(cls, partition: Partition, eps1: float) -> "PartitionSummary":
        """Sample a freshly written partition (Algorithm 2).

        Runs at partition-creation time while the data is in flight, so
        it charges no additional disk access (the run's ``values`` view
        is free by design).
        """
        data = partition.run.values
        size = len(data)
        if size == 0:
            empty = np.empty(0, dtype=np.int64)
            return cls(values=empty, positions=empty.copy(),
                       partition_size=0, eps1=eps1)
        beta1 = math.ceil(1.0 / eps1) + 1
        # Vectorized rank schedule: identical arithmetic to the scalar
        # loop min(size, ceil(i * eps1 * size)) — the float product is
        # evaluated in the same order, so the sampled ranks are
        # bit-identical to element-at-a-time construction.
        idx = np.arange(1, beta1, dtype=np.int64)
        ranks = np.minimum(
            size, np.ceil(idx * eps1 * size)
        ).astype(np.int64)
        # Rank 1, then the schedule: already non-decreasing, so dropping
        # repeats is all of ``np.unique`` without its sort.
        positions = np.concatenate([np.asarray([1], dtype=np.int64), ranks])
        positions = positions[run_starts(positions)]
        values = data[positions - 1].astype(np.int64)
        return cls(values=values, positions=positions,
                   partition_size=size, eps1=eps1)

    def __len__(self) -> int:
        return len(self.values)

    def alpha(self, value: int) -> int:
        """Number of summary elements <= ``value`` (the paper's alpha_P)."""
        return int(self.values.searchsorted(value, "right"))

    def bracket(self, alpha_lo: int, alpha_hi: int) -> "tuple[int, int]":
        """Index bounds of every probe between two values, from their alphas.

        Returns 0-indexed ``(lo, hi)`` such that for any ``z`` with
        ``alpha_lo <= alpha(z) <= alpha_hi`` the first partition index
        whose element exceeds ``z`` lies in ``[lo, hi]``.  Because each
        summary entry's exact rank is stored, this costs no I/O.
        """
        lo = int(self.positions[alpha_lo - 1]) if alpha_lo > 0 else 0
        if alpha_hi < len(self.positions):
            return lo, max(lo, int(self.positions[alpha_hi]) - 1)
        return lo, self.partition_size

    def search_bounds(self, value: int) -> "tuple[int, int]":
        """Index bounds (lo, hi) for locating ``value``'s rank on disk."""
        alpha = self.alpha(value)
        return self.bracket(alpha, alpha)

    def memory_words(self) -> int:
        """Two words per entry: value and rank."""
        return 2 * len(self.values) + 2


@dataclass(frozen=True)
class StreamSummary:
    """The extracted stream summary SS (Algorithm 4).

    ``values[i]`` has true rank in ``[i * eps2 * m, (i + 1) * eps2 * m]``
    for ``i >= 1`` (Lemma 1); ``values[0]`` is the exact minimum.

    When extracted from a live GK sketch, ``strict_uppers[i]`` records
    a *provable* upper bound on the number of stream elements strictly
    below ``values[i]`` (the sketch's own rank bracket).  The bounds
    computation prefers these over the asymptotic Lemma 1 formula,
    which can be off by rounding constants on tiny or duplicate-heavy
    streams.  Summaries built directly from values (e.g. the Figure 3
    golden example) have no brackets and fall back to the paper's
    formula.
    """

    values: np.ndarray
    stream_size: int
    eps2: float
    strict_uppers: "np.ndarray | None" = None

    @classmethod
    def extract(cls, sketch: GKSketch, eps2: float) -> "StreamSummary":
        """Build SS from the running GK sketch.

        The sketch must have been created with error ``eps2 / 2``; the
        query offset of ``eps_gk * m`` turns GK's two-sided guarantee
        into Lemma 1's one-sided bracket.
        """
        m = sketch.n
        if m == 0:
            return cls(values=np.empty(0, dtype=np.int64),
                       stream_size=0, eps2=eps2)
        slack = math.ceil(sketch.epsilon * m)
        # Targets min(m, ceil(i * eps2 * m) + slack) in the scalar loop's
        # float order, each answered as query_rank would: bit-identical
        # to per-rank extraction (integers this small are exact floats).
        targets = _schedule(eps2) * m
        np.ceil(targets, out=targets)
        targets += slack
        np.minimum(targets, m, out=targets)
        values, uppers = np.empty((2, len(targets) + 1), dtype=np.int64)
        ranks = uppers[1:]
        ranks[:] = targets
        values[0], values[1:] = sketch.min_value(), sketch.query_ranks(ranks)
        # GK responses are monotone in the queried rank, but guard the
        # invariant the bounds computation relies on.
        np.maximum.accumulate(values, out=values)
        # Nothing precedes the exact minimum; at most target + eps_gk*m
        # elements precede each queried response.
        uppers[0] = 0
        ranks += slack
        np.minimum(ranks, m, out=ranks)
        return cls(values=values, stream_size=m, eps2=eps2,
                   strict_uppers=uppers)

    def __len__(self) -> int:
        return len(self.values)

    def alpha(self, value: int) -> int:
        """Number of summary elements <= ``value`` (the paper's alpha_S)."""
        return int(np.searchsorted(self.values, value, side="right"))

    def rank_estimate(self, value: int) -> float:
        """Approximate rank of ``value`` in the stream (Alg. 8, lines 8-10)."""
        return self.alpha(value) * self.eps2 * self.stream_size

    def largest_at_most(self, value: int) -> "int | None":
        """Largest summary element <= value, or None."""
        j = self.alpha(value)
        if j == 0:
            return None
        return int(self.values[j - 1])

    def memory_words(self) -> int:
        """Current memory footprint in 8-byte words."""
        return len(self.values) + 2
