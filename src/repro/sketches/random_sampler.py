"""RANDOM: reservoir-sampling quantile estimation.

Wang et al. (SIGMOD 2013) evaluate a simplified randomized competitor
("RANDOM") to GK and MRL99: keep a uniform random sample and answer
rank queries from the sample's order statistics.  With a reservoir of
``s`` elements the rank error is ``O(n * sqrt(log(1/delta) / s))`` with
probability ``1 - delta``.

The paper cites this line of work as the randomized alternative; we
include it as an extension baseline (it is not part of the paper's
figures, which use the deterministic GK and Q-Digest).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .base import QuantileSketch, clamp_rank


class RandomSamplerSketch(QuantileSketch):
    """Uniform reservoir sample with rank queries.

    Parameters
    ----------
    sample_size:
        Reservoir capacity ``s``.
    seed:
        Seed for the sampling RNG (deterministic runs for benches).
    """

    def __init__(self, sample_size: int, seed: Optional[int] = None) -> None:
        if sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        self.sample_size = sample_size
        self._rng = np.random.default_rng(seed)
        self._reservoir = np.empty(sample_size, dtype=np.int64)
        self._filled = 0
        self._n = 0
        self._sorted_cache: Optional[np.ndarray] = None

    @classmethod
    def for_epsilon(
        cls,
        epsilon: float,
        delta: float = 0.01,
        seed: Optional[int] = None,
    ) -> "RandomSamplerSketch":
        """Size the reservoir so rank error is ``eps * n`` w.p. 1 - delta."""
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        if not 0 < delta < 1:
            raise ValueError("delta must be in (0, 1)")
        sample_size = math.ceil(math.log(2.0 / delta) / (2.0 * epsilon * epsilon))
        return cls(sample_size=sample_size, seed=seed)

    @property
    def n(self) -> int:
        """Number of elements processed so far."""
        return self._n

    def update(self, value: int) -> None:
        """Process one stream element."""
        value = int(value)
        self._n += 1
        self._sorted_cache = None
        if self._filled < self.sample_size:
            self._reservoir[self._filled] = value
            self._filled += 1
            return
        # Vitter's algorithm R: replace a random slot w.p. s / n.
        j = int(self._rng.integers(0, self._n))
        if j < self.sample_size:
            self._reservoir[j] = value

    def _sorted_sample(self) -> np.ndarray:
        if self._sorted_cache is None:
            self._sorted_cache = np.sort(self._reservoir[: self._filled])
        return self._sorted_cache

    def query_rank(self, rank: int) -> int:
        """Sample order statistic closest to the requested rank."""
        if self._n == 0:
            raise ValueError("sketch is empty")
        rank = clamp_rank(rank, self._n)
        sample = self._sorted_sample()
        # Map the target rank to the matching sample order statistic;
        # when the reservoir holds the entire stream this is exact.
        index = round(rank * len(sample) / self._n) - 1
        index = max(0, min(len(sample) - 1, index))
        return int(sample[index])

    def memory_words(self) -> int:
        """Current memory footprint in 8-byte words."""
        return self.sample_size + 4
