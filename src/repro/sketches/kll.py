"""KLL compactor sketch (Karnin-Lang-Liberty, arXiv:1603.05346).

The KLL sketch keeps a hierarchy of *compactors*: level ``h`` holds
elements of weight ``2**h``.  When a level fills past its capacity it
sorts its buffer, keeps every other element (a fair coin picks odd or
even positions) and promotes the survivors to level ``h + 1`` at twice
the weight.  Capacities shrink geometrically (ratio 2/3) from the top
level down, which is what gives KLL its ``O((1/eps) * sqrt(log 1/d))``
space bound.

Why this backend exists: GK summaries do not merge cleanly — there is
no known way to combine two GK sketches without the error compounding.
KLL compactors merge *by construction*: concatenate the level buffers
pairwise and re-run the same compaction rule, and the merged sketch
obeys the same ``eps * n`` rank guarantee over the union stream (the
randomness-alignment argument in the paper's Section 3 carries over
verbatim).  That property is what lets a sharded cluster answer over
one stream: it merges its shards' pinned sketches with
:meth:`KLLSketch.merge_many` and extracts one SS from the merge.

Determinism contract (mirrors the repo-wide lazy-absorption rules):

* the compaction schedule depends only on the *sizes* of the level
  buffers, and coin flips come from a seeded ``numpy`` generator, so a
  seeded sketch is fully deterministic;
* ``update_many`` fills level 0 in chunks that stop exactly at the
  capacity boundary, so a batched feed triggers the same compactions —
  and consumes the same coin flips — as an element-at-a-time replay of
  the same values (bit-identical state either way);
* ``merge_many`` sorts each pooled level buffer, so the merged state
  depends only on the *multiset* of inputs per level: with the same
  seed, ``merge(a, b)`` and ``merge(b, a)`` are bit-identical.

Every level is an int64 array that is never written in place: an
absorb, a compaction or a merge replaces the level by a new array
(``np.concatenate`` / ``np.sort``), so a :meth:`KLLSketch.snapshot`
shares its source's levels and copies only the list holding them.

Error model: unlike GK's deterministic guarantee, KLL's ``eps * n``
rank bound holds *with high probability* (the default sizing targets
99%).  ``rank_bounds`` therefore returns a probabilistic bracket; the
engine's accurate path never relies on it for correctness, only for
bisection seeding.
"""

from __future__ import annotations

import copy
import math
import threading
from typing import List, Sequence, Tuple

import numpy as np

from .base import QuantileSketch, as_int64_batch, clamp_rank

#: The empty level, shared like every level: none is written in place.
_EMPTY = np.empty(0, dtype=np.int64)

#: Geometric capacity decay between adjacent compactor levels.
_DECAY = 2.0 / 3.0

#: Leading constant in the eps(k) fit: eps ~ 2.296 / k**0.9 at 99%
#: confidence (empirical fit from the KLL paper's experiments).
_EPS_CONSTANT = 2.296

_EPS_EXPONENT = 0.9


def k_for_epsilon(epsilon: float) -> int:
    """Smallest top-level capacity ``k`` whose w.h.p. error is <= eps.

    Inverts the empirical fit ``eps(k) ~ 2.296 / k**0.9`` (99%
    confidence) from the KLL paper; floored at 8 so tiny-eps edge cases
    still compact sanely.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    return max(8, math.ceil((_EPS_CONSTANT / epsilon) ** (1.0 / _EPS_EXPONENT)))


class KLLSketch(QuantileSketch):
    """Mergeable quantile sketch over int64 streams.

    Parameters
    ----------
    epsilon:
        Target rank error (w.h.p.) as a fraction of the stream size.
    k:
        Top-level compactor capacity; derived from ``epsilon`` when
        omitted.
    seed:
        Seed for the compaction coin flips.  Two sketches fed the same
        values with the same seed are bit-identical.
    """

    def __init__(self, epsilon: float, k: "int | None" = None, seed: int = 0):
        if not 0.0 < epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
        self.epsilon = epsilon
        self.k = k_for_epsilon(epsilon) if k is None else int(k)
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        self._seed = int(seed)
        self._rng = np.random.default_rng(self._seed)
        self._levels: List[np.ndarray] = [_EMPTY]
        self._n = 0
        self._min: "int | None" = None
        self._max: "int | None" = None
        self._mutate_lock = threading.Lock()
        #: (sorted values, cumulative weights) cache for the query path.
        self._query_arrays: "Tuple[np.ndarray, np.ndarray] | None" = None

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------

    def _capacity(self, level: int) -> int:
        """Capacity of ``level``: ``k`` at the top, decaying by 2/3 down."""
        depth = len(self._levels) - 1 - level
        return max(2, math.ceil(self.k * (_DECAY ** depth)))

    def _compact(self) -> None:
        """Cascade-compact until every level is under capacity.

        Scans bottom-up for the first overflowing level, sorts it, and
        promotes a fair half (coin-picked odd or even positions) one
        level up at doubled weight.  Growing the hierarchy shrinks the
        lower capacities, so the scan restarts from level 0 each pass.
        """
        while True:
            target = None
            for h in range(len(self._levels)):
                if len(self._levels[h]) >= self._capacity(h):
                    target = h
                    break
            if target is None:
                return
            buffer = np.sort(self._levels[target])
            self._levels[target] = _EMPTY
            if target + 1 == len(self._levels):
                self._levels.append(_EMPTY)
            offset = int(self._rng.integers(0, 2))
            self._levels[target + 1] = np.concatenate(
                (self._levels[target + 1], buffer[offset::2])
            )

    def _note_value(self, value: int) -> None:
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value

    def update(self, value: int) -> None:
        """Insert one element: a one-element :meth:`update_many`."""
        self.update_many([value])

    def update_many(self, values: np.ndarray) -> None:
        """Bulk-insert a numpy batch, bit-identical to a scalar replay.

        Level 0 is filled in chunks that stop exactly where one element
        at a time would trigger a compaction, so the compaction schedule —
        and therefore the coin-flip sequence — is the same whether the
        feed arrived as one array or element by element.
        """
        arr = as_int64_batch(values)
        if arr.size == 0:
            return
        with self._mutate_lock:
            self._note_value(int(arr.min()))
            self._note_value(int(arr.max()))
            self._query_arrays = None
            pos = 0
            size = int(arr.size)
            while pos < size:
                room = self._capacity(0) - len(self._levels[0])
                if room <= 0:
                    self._compact()
                    continue
                take = min(room, size - pos)
                self._levels[0] = np.concatenate(
                    (self._levels[0], arr[pos : pos + take])
                )
                self._n += take
                pos += take
                if len(self._levels[0]) >= self._capacity(0):
                    self._compact()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Total number of elements ingested."""
        return self._n

    def _arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Sorted retained values and their cumulative weights.

        Cached between mutations so batched queries (summary extraction
        runs ``beta_2`` rank probes) pay the sort once.
        """
        if self._query_arrays is None:
            values = np.concatenate(self._levels)
            weight = np.repeat(
                1 << np.arange(len(self._levels), dtype=np.int64),
                [level.size for level in self._levels],
            )
            order = np.argsort(values, kind="stable")
            self._query_arrays = (
                values[order], np.cumsum(weight[order])
            )
        return self._query_arrays

    def query_rank(self, rank: int) -> int:
        """Value whose true rank is within ``eps * n`` of ``rank`` (w.h.p.).

        Compaction drifts the total retained weight away from ``n`` by
        up to one element per coin flip, so the target rank is rescaled
        into weight space before the cumulative-weight search.
        """
        if self._n == 0:
            raise ValueError("sketch is empty")
        rank = clamp_rank(rank, self._n)
        values, cumw = self._arrays()
        target = rank / self._n * cumw[-1]
        index = int(np.searchsorted(cumw, target, side="left"))
        return int(values[min(index, len(values) - 1)])

    def query_ranks(self, ranks: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`query_rank` over an array of targets.

        Element-wise identical to the scalar method (same rescale, same
        ``searchsorted`` side), so summary extraction is bit-identical
        whether it probes rank-by-rank or in one batch.
        """
        if self._n == 0:
            raise ValueError("sketch is empty")
        targets = np.clip(np.asarray(ranks, dtype=np.int64), 1, self._n)
        values, cumw = self._arrays()
        scaled = targets / self._n * cumw[-1]
        index = np.minimum(
            np.searchsorted(cumw, scaled, side="left"),
            len(values) - 1,
        )
        return values[index]

    def rank_bounds(self, value: int) -> Tuple[int, int]:
        """Probabilistic bracket on the rank of an arbitrary ``value``.

        The center is the rescaled retained-weight rank; the half-width
        is ``ceil(eps * n)``.  Unlike GK's deterministic bracket this
        holds w.h.p. — callers that need certainty (the accurate search
        uses it only to seed bisection) must tolerate the tail.
        """
        if self._n == 0:
            return (0, 0)
        values, cumw = self._arrays()
        first = int(values.searchsorted(value, "right"))
        covered = int(cumw[first - 1]) if first > 0 else 0
        center = int(round(covered / int(cumw[-1]) * self._n))
        slack = math.ceil(self.epsilon * self._n)
        return (max(0, center - slack), min(self._n, center + slack))

    def min_value(self) -> int:
        """Exact minimum of the stream so far."""
        if self._n == 0:
            raise ValueError("sketch is empty")
        return int(self._min)

    def max_value(self) -> int:
        """Exact maximum of the stream so far."""
        if self._n == 0:
            raise ValueError("sketch is empty")
        return int(self._max)

    # ------------------------------------------------------------------
    # Snapshot / merge
    # ------------------------------------------------------------------

    def snapshot(self) -> "KLLSketch":
        """A consistent copy, safe to take while another thread updates.

        The list of levels and the generator state are copied under the
        mutation lock; the levels themselves are shared, since neither
        sketch writes a level in place.  The copy is a frozen-in-time
        view that can be queried, merged or serialized while the
        original keeps ingesting.
        """
        copied = KLLSketch(self.epsilon, k=self.k, seed=self._seed)
        with self._mutate_lock:
            copied._levels = list(self._levels)
            copied._n = self._n
            copied._min = self._min
            copied._max = self._max
            copied._rng.bit_generator.state = copy.deepcopy(
                self._rng.bit_generator.state
            )
            copied._query_arrays = self._query_arrays  # shared: read-only
        return copied

    def merge(self, other: "KLLSketch", seed: int = 0) -> "KLLSketch":
        """Merged sketch over the union stream; inputs are untouched."""
        return KLLSketch.merge_many([self, other], seed=seed)

    @classmethod
    def merge_many(
        cls, sketches: Sequence["KLLSketch"], seed: int = 0
    ) -> "KLLSketch":
        """Merge any number of KLL sketches into a fresh one.

        Level buffers are pooled pairwise and *sorted*, so the merged
        state depends only on the per-level multisets: with the same
        seed the merge is bit-identical under any argument order
        (commutative and, up to fresh coin flips, associative — the
        rank guarantee composes to ``eps * sum(n)`` either way).

        The result adopts the coarsest precision of the inputs
        (``max`` epsilon, ``min`` k), which is the level at which the
        union guarantee actually holds.
        """
        sketches = list(sketches)
        if not sketches:
            raise ValueError("merge_many needs at least one sketch")
        merged = cls(
            max(s.epsilon for s in sketches),
            k=min(s.k for s in sketches),
            seed=seed,
        )
        height = max(len(s._levels) for s in sketches)
        merged._levels = [
            np.sort(np.concatenate(
                [s._levels[h] for s in sketches if h < len(s._levels)]
            ))
            for h in range(height)
        ]
        merged._n = sum(s._n for s in sketches)
        mins = [s._min for s in sketches if s._n > 0]
        maxes = [s._max for s in sketches if s._n > 0]
        merged._min = min(mins) if mins else None
        merged._max = max(maxes) if maxes else None
        merged._compact()
        return merged

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def retained(self) -> int:
        """Number of elements currently held across all levels."""
        return sum(len(level) for level in self._levels)

    def memory_words(self) -> int:
        """One 8-byte word per retained element plus bookkeeping."""
        return self.retained() + 6
