"""The accurate response: filter generation and the recursive search.

Algorithm 6/7/8 of the paper: bracket the target rank between two
filter values from TS, then bisect the *value* interval.  Each probe
ranks the midpoint ``z`` exactly across every partition (a
block-counted binary search narrowed by the in-memory summaries) and
approximately against the stream, converging on the smallest value
whose estimated rank reaches the target.  The returned value is
snapped down to an actual element of T; its rank error is bounded by
the stream estimate's error alone (Lemma 5's ``O(eps * m)``).

Algorithm 8's pseudocode stops once the estimate is within
``epsilon * m`` of the target; like the paper's Section 2.4
optimization (its measured errors sit far below ``epsilon * m``), the
bisection here continues to adjacency, its deep iterations free.

Each partition is *reading* while a probe in ``(u, v]`` could still
reach a block this query has not pinned.  It is *resolved* once it is
*closed* (the same exact rank at both filters: no element in ``(u, v]``)
or every block of its window is pinned: the indices between the exact
ranks its probes carried at ``u`` and ``v`` (the summary bracket on a
side no probe ranked, and on both sides when the query can prefetch).
It hands over its rank at ``u`` and its sorted elements in ``(u, v]``
and is never probed again: all of them together are one sorted
candidate array plus a base rank, ranked by one ``searchsorted`` per
iteration.  Once none is reading no step can charge a block, and the
rest of the bisection is replayed on plain ints: the same steps over
the candidates and the values the stream term steps at, both cut once
from ``(u, v]``, the term ranked once per cell between two of them
(``docs/THEORY.md``, "Resolved partitions").

Each probe is one :class:`RankProbeTask` per reading partition, and
each batched read-ahead one :class:`PrefetchTask`; the search builds
them and a :class:`~repro.query.executor.QueryExecutor` runs them
inline under the probe retry policy.  Section 4's parallel partition
reads are modeled from the charges: the deepest single-partition chain
is ``QueryResult.parallel_sim_seconds``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..query.executor import SERIAL_EXECUTOR, QueryExecutor
from ..storage.cache import BlockCache
from ..warehouse.partition import Partition
from .bounds import CombinedSummary
from .config import EngineConfig
from .summaries import StreamSummary


_NO_ELEMENTS = np.empty(0, dtype=np.int64)


@dataclass
class RankProbeTask:
    """Exact rank of ``value`` in one partition (Alg. 8 lines 2-7).

    ``lo``/``hi`` bound the element indices searched, supplied by the
    partition summary (at ``alpha``, which the search carries on) so
    the binary search costs ``O(log((hi - lo) / B))`` block reads.
    Not frozen: one is built per probe of a partition still being read.
    """

    partition: Partition
    value: int
    lo: int
    hi: int
    alpha: int

    def run(self, cache: BlockCache) -> int:
        """Execute the block-counted binary search."""
        return self.partition.run.rank_of(
            self.value, lo=self.lo, hi=self.hi, cache=cache
        )


@dataclass(frozen=True)
class PrefetchTask:
    """Batched read-ahead of one partition's candidate block range.

    One charged ranged read warms every block the binary search could
    touch, so the later per-probe touches hit the cache instead of
    paying one random read each.
    """

    partition: Partition
    first_block: int
    last_block: int

    def run(self, cache: BlockCache) -> None:
        """Execute the batched ranged read."""
        self.partition.run.read_block_range(
            self.first_block, self.last_block, cache=cache
        )


def prefetch_tasks(
    partitions: Sequence[Partition], u: int, v: int, max_blocks: int
) -> List[PrefetchTask]:
    """Per-partition block ranges confined by filters ``(u, v)``.

    Only partitions whose summary-narrowed candidate range for the
    value interval ``[u, v]`` spans at most ``max_blocks`` blocks yield
    a task, in the order given — prefetching a wider range would charge
    more blocks than the log-depth binary search will touch.
    """
    tasks: List[PrefetchTask] = []
    for partition in partitions:
        lo = partition.summary.search_bounds(u)[0]
        hi = partition.summary.search_bounds(v)[1]
        if hi <= lo:
            continue
        disk = partition.run.disk
        first, last = disk.block_of(lo), disk.block_of(hi - 1)
        if last - first + 1 <= max_blocks:
            tasks.append(PrefetchTask(partition, first, last))
    return tasks


@dataclass(frozen=True)
class SearchOutcome:
    """Result of one accurate-response search."""

    #: the element of T returned, and the search's estimate of its rank
    #: (the true rank differs by at most ``eps2 * m``).
    value: int
    estimated_rank: float
    #: random block reads this search charged, and its deepest
    #: single-partition chain of them: the modeled critical path of
    #: Section 4's parallel reads (``parallel_sim_seconds``).
    random_blocks: int
    max_partition_blocks: int
    #: bisection steps, and whether the probe budget ended them early.
    iterations: int
    truncated: bool


class AccurateSearch:
    """One execution of Algorithms 7 + 8 over a set of partitions."""

    def __init__(
        self,
        partitions: Sequence[Partition],
        stream_summary: StreamSummary,
        combined: CombinedSummary,
        config: EngineConfig,
        rank: int,
        cache: BlockCache,
        stream_rank_fn: Optional[Callable[[int], float]] = None,
        executor: Optional[QueryExecutor] = None,
        stream_steps: Optional[np.ndarray] = None,
    ) -> None:
        self._partitions = [p for p in partitions if len(p) > 0]
        self._executor = executor if executor is not None else SERIAL_EXECUTOR
        self._ss = stream_summary
        self._combined = combined
        self._config = config
        self._rank = rank
        self._cache = cache
        self._blocks_at_start = cache.blocks_charged
        # A cache shared across searches carries earlier searches'
        # charges; the critical path is this search's own.
        self._run_blocks_at_start = cache.run_blocks()
        if stream_rank_fn is None:
            stream_rank_fn = stream_summary.rank_estimate
            stream_steps = stream_summary.values
        # The stream half of every rho, and the sorted values it steps at
        # (``None``: unknown, so the replay ranks every step).
        self._stream_rank, self._stream_steps = stream_rank_fn, stream_steps
        # Run ids with nothing left to prefetch this query: prefetched
        # (at most once each; the filters only narrow, so later ranges
        # are subsets) or resolved.
        self._prefetched: set = set()
        self._can_prefetch = (
            cache.shared is not None and config.prefetch_blocks >= 1
        )
        count = len(self._partitions)
        #: the (lower, upper) filter values the state below stands at,
        #: and per partition the summary alpha and the exact rank
        #: carried at each; ``None`` until known.
        self._filters: List[int] = [0, 0]
        self._alphas = [None] * count, [None] * count
        self._ranks = [None] * count, [None] * count
        #: positions of the partitions still reading.
        self._reading = list(range(count))
        #: resolved partitions, position -> (rank where its slice
        #: starts, the slice); ``_base`` sums those ranks and
        #: ``_candidates`` merges the slices.
        self._slices: Dict[int, Tuple[int, np.ndarray]] = {}
        self._base = 0
        self._candidates = _NO_ELEMENTS

    # -- rank estimation ------------------------------------------------

    def _estimate(self, value: int) -> Tuple[float, tuple]:
        """Estimated rank in T of a ``value`` between the filters.

        Historical ranks are exact (Alg. 8 lines 2-7): one
        ``searchsorted`` ranks the resolved partitions, and each reading
        one gets a task whose binary search is narrowed, at no I/O, to
        the summary gap holding ``value`` (alpha is monotone: where the
        alphas carried at both filters agree it is not searched again).
        The stream adds the caller's estimate — the pinned sketch's
        bracket midpoint, free of SS's quantization — or Alg. 8's.
        """
        probe, tasks = int(value), []
        alphas_u, alphas_v = self._alphas
        for i in self._reading:
            partition = self._partitions[i]
            alpha = alphas_u[i]
            if alpha is None or alpha != alphas_v[i]:
                alpha = partition.summary.alpha(probe)
            lo, hi = partition.summary.bracket(alpha, alpha)
            tasks.append(RankProbeTask(partition, probe, lo, hi, alpha))
        ranks = self._executor.run_tasks(tasks, self._cache) if tasks else []
        cut = int(self._candidates.searchsorted(value, "right"))
        rho = float(self._base + cut + sum(ranks)) + self._stream_rank(value)
        return rho, (tasks, ranks)

    def _narrow(self, value: int, upper: bool, probe: tuple) -> None:
        """Move one filter to ``value``, carrying what its probe learnt."""
        tasks, ranks = probe
        self._filters[upper] = value
        alphas, carried = self._alphas[upper], self._ranks[upper]
        for i, task, rank in zip(self._reading, tasks, ranks):
            alphas[i], carried[i] = task.alpha, rank

    def _resolve(self) -> None:
        """Retire each reading partition that is closed or whose window is
        pinned (module docstring): no probe in ``(u, v]`` can charge."""
        reading, slices = [], []
        (u, v), (alphas_u, alphas_v) = self._filters, self._alphas
        for i in self._reading:
            partition = self._partitions[i]
            rank, rank_v = self._ranks[0][i], self._ranks[1][i]
            if rank is not None and rank == rank_v:
                held = _NO_ELEMENTS
            else:
                if alphas_u[i] is None:
                    alphas_u[i] = partition.summary.alpha(u)
                if alphas_v[i] is None:
                    alphas_v[i] = partition.summary.alpha(v)
                lo, hi = partition.summary.bracket(alphas_u[i], alphas_v[i])
                if not self._can_prefetch:
                    lo = lo if rank is None else rank
                    hi = hi if rank_v is None else rank_v
                split = partition.run.pinned_split(lo, hi, u, v, self._cache)
                if split is None:
                    reading.append(i)
                    continue
                rank, held = split
            self._prefetched.add(partition.run.run_id)
            self._slices[i] = (rank, held)
            self._base += rank
            if len(held):
                slices.append(held)
        self._reading = reading
        if slices:
            merged = np.concatenate([self._candidates, *slices])
            merged.sort()
            self._candidates = merged

    # -- prefetching ----------------------------------------------------

    def _maybe_prefetch(self, u: int, v: int) -> None:
        """Batched read-ahead once filters confine a partition's range.

        When ``(u, v)`` narrows a partition's candidate element range
        to at most ``config.prefetch_blocks`` blocks, the whole range
        is read in one charged ranged read ahead of the binary-search
        probes, run through the executor like any other probe (on the
        object backend, one modeled GET widened by break-even
        readahead).  Only with a shared tier: without one the charges
        are per probe.  Answers are the same either way.
        """
        if not self._can_prefetch:
            return
        pending = [
            p for p in self._partitions if p.run.run_id not in self._prefetched
        ]
        tasks = prefetch_tasks(pending, u, v, self._config.prefetch_blocks)
        if not tasks:
            return
        self._prefetched.update(task.partition.run.run_id for task in tasks)
        self._executor.run_tasks(tasks, self._cache)

    def _replay(
        self, u: int, v: int, rho_v: Optional[float], iterations: int
    ) -> tuple:
        """The loop's remaining steps once no probe can charge a block,
        on lists cut once from ``(u, v]`` (module docstring).  Replayed,
        not jumped: the stream half need not be monotone."""
        held = self._candidates
        lo, hi = held.searchsorted((u, v), "right")
        base, held = self._base + int(lo), held[lo:hi].tolist()
        steps = self._stream_steps
        if steps is not None:
            first, last = np.searchsorted(steps, (u, v), "right")
            steps = steps[first:last].tolist()
        terms: Dict[int, float] = {}
        while v > u + 1:
            z = (u + v) // 2
            iterations += 1
            cell = z if steps is None else bisect_right(steps, z)
            if cell not in terms:
                terms[cell] = self._stream_rank(z)
            rho = float(base + bisect_right(held, z)) + terms[cell]
            if rho >= self._rank:
                v, rho_v = z, rho
            else:
                u = z
        return v, rho_v, iterations

    # -- snapping -------------------------------------------------------

    def _snap_down(self, value: int, hist_ranks: List[int]) -> int:
        """Largest actual element of T that is <= ``value``.

        Its rank in T equals ``rank(value, T)``, so snapping preserves
        the rank guarantee while returning a real element.  Candidates
        are the predecessor element in each partition (at most one
        extra cached block each) and the stream summary's predecessor.
        """
        candidates = []
        for partition, rank_p in zip(self._partitions, hist_ranks):
            if rank_p > 0:
                candidates.append(
                    partition.run.element_at(rank_p - 1, cache=self._cache)
                )
        stream_candidate = self._ss.largest_at_most(value)
        if stream_candidate is not None:
            candidates.append(stream_candidate)
        if not candidates:
            # value precedes every known element; the global minimum is
            # the only sane answer (rank target was below all bounds).
            return self._combined.minimum
        return max(candidates)

    # -- the search -----------------------------------------------------

    def run(self) -> SearchOutcome:
        """Bisect to the rank-crossing point, then snap.

        Converges on the smallest value whose estimated rank reaches
        the target, then snaps down to the nearest real element.
        """
        u, v = self._filters[:] = self._combined.generate_filters(self._rank)
        rho_v: Optional[float] = None
        iterations = 0
        truncated = False
        budget = self._config.probe_budget
        while v > u + 1:
            spent = self._cache.blocks_charged - self._blocks_at_start
            if budget is not None and spent >= budget:
                truncated = True
                break
            if not self._reading:
                # Nothing left to charge: finish on plain ints.
                v, rho_v, iterations = self._replay(u, v, rho_v, iterations)
                break
            self._maybe_prefetch(u, v)
            if iterations or self._prefetched:
                # (before its first read the query has pinned nothing)
                self._resolve()
            z = (u + v) // 2
            iterations += 1
            rho, probe = self._estimate(z)
            reached = rho >= self._rank
            if reached:
                v, rho_v = z, rho
            else:
                u = z
            self._narrow(z, reached, probe)
        if rho_v is None:
            # The upper filter never moved: rank it before snapping.
            rho_v, probe = self._estimate(v)
            self._narrow(v, True, probe)
        ranks = list(self._ranks[1])
        for i, (rank, held) in self._slices.items():
            ranks[i] = rank + bisect_right(memoryview(held), v)
        value = self._snap_down(v, ranks)
        charged = self._cache.run_blocks()
        return SearchOutcome(
            value=int(value),
            estimated_rank=float(rho_v),
            random_blocks=self._cache.blocks_charged - self._blocks_at_start,
            max_partition_blocks=max(
                (
                    blocks - self._run_blocks_at_start.get(run_id, 0)
                    for run_id, blocks in charged.items()
                ),
                default=0,
            ),
            iterations=iterations,
            truncated=truncated,
        )
