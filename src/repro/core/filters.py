"""The accurate response: filter generation and the recursive search.

Algorithm 6/7/8 of the paper: bracket the target rank between two
filter values from TS, then bisect the *value* interval.  Each probe
ranks the midpoint ``z`` exactly across every partition (a
block-counted binary search narrowed by the in-memory summaries) and
approximately against the stream, converging on the smallest value
whose estimated rank reaches the target.  The returned value is
snapped down to an actual element of T; its rank error is bounded by
the stream estimate's error alone (Lemma 5's ``O(eps * m)``).

Algorithm 8's pseudocode stops as soon as the estimate is within
``epsilon * m`` of the target, but the paper's Section 2.4 optimization
keeps refining once the per-partition searches are confined to single
(cached) disk blocks — and the paper's measured errors sit far below
``epsilon * m``, confirming the implementation searched to the
crossing point.  We do the same: bisection continues to adjacency,
with the per-query :class:`~repro.storage.cache.BlockCache` making the
deep iterations free.

Each partition is *reading* while a probe in ``(u, v]`` could still
reach a block this query has not pinned, and *resolved* once every
block covering its summary-narrowed index range is pinned — or once its
exact rank is the same at both filters (a *closed* partition: it holds
no element in ``(u, v]``).  A resolved partition hands over its rank at
``u`` and its sorted elements in ``(u, v]`` and is never planned or
probed again: all of them together are one sorted candidate array plus
a base rank, ranked by one ``searchsorted`` per iteration and cut as
the filters move (``docs/THEORY.md``, "Resolved partitions").

Each probe is one :class:`RankProbeTask` per reading partition, and
each batched read-ahead one :class:`PrefetchTask`; the search builds
them and a :class:`~repro.query.executor.QueryExecutor` runs them
inline under the probe retry policy.  Section 4's parallel partition
reads are modeled from the charges: the deepest single-partition chain
is ``QueryResult.parallel_sim_seconds``.
"""

from __future__ import annotations

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
    paying one random read each.  Returns the number of blocks in the
    range.
    """

    partition: Partition
    first_block: int
    last_block: int

    def run(self, cache: BlockCache) -> int:
        """Execute the batched ranged read."""
        self.partition.run.read_block_range(
            self.first_block, self.last_block, cache=cache
        )
        return self.last_block - self.first_block + 1


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
    """Result of one accurate-response search.

    Attributes
    ----------
    value:
        The element of T returned as the approximate quantile.
    estimated_rank:
        The engine's rank estimate for the returned element; its true
        rank differs by at most ``eps2 * m``.
    random_blocks:
        Random block reads charged by this query.
    max_partition_blocks:
        Deepest single-partition read chain charged by this search —
        the modeled critical path of Section 4's parallel partition
        reads; feeds ``parallel_sim_seconds``.
    iterations:
        Number of bisection steps performed.
    truncated:
        True when the probe budget ended the search early.
    """

    value: int
    estimated_rank: float
    random_blocks: int
    max_partition_blocks: int
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
        self._stream_rank_fn = stream_rank_fn
        # Run ids with nothing left to prefetch this query: prefetched
        # (at most once each; the filters only narrow, so later ranges
        # are subsets) or resolved.
        self._prefetched: set = set()
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
        #: starts, the slice); ``_base`` sums their ranks at ``u`` and
        #: ``_candidates`` merges their elements in ``(u, v]``.
        self._slices: Dict[int, Tuple[int, np.ndarray]] = {}
        self._base = 0
        self._candidates = _NO_ELEMENTS

    # -- rank estimation ------------------------------------------------

    def _estimate(self, value: int) -> Tuple[float, tuple]:
        """Estimated rank in T of a ``value`` between the filters.

        Historical ranks are exact (Alg. 8 lines 2-7): one
        ``searchsorted`` ranks the resolved partitions together, and
        each reading one gets a task whose binary search is narrowed to
        the inter-summary gap containing ``value`` (no I/O for the
        narrowing, since the summaries store exact ranks) and charged
        block reads through the per-query cache.  Alpha is monotone, so
        where the alphas carried at the two filters agree the summary
        is not searched again.  The stream
        contributes either the live sketch's rank bracket (when the
        caller supplied one — in-memory, like SS, but free of SS's
        quantization) or the Algorithm 8 summary estimate.
        """
        cut = int(self._candidates.searchsorted(value, "right"))
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
        if self._stream_rank_fn is not None:
            stream = self._stream_rank_fn(value)
        else:
            stream = self._ss.rank_estimate(value)
        rho = float(self._base + cut + sum(ranks)) + stream
        return rho, (cut, tasks, ranks)

    def _narrow(self, value: int, upper: bool, probe: tuple) -> None:
        """Move one filter to ``value``, carrying what its probe learnt."""
        cut, tasks, ranks = probe
        self._filters[upper] = value
        alphas, carried = self._alphas[upper], self._ranks[upper]
        for i, task, rank in zip(self._reading, tasks, ranks):
            alphas[i], carried[i] = task.alpha, rank
        if upper:
            self._candidates = self._candidates[:cut]
        else:
            self._base += cut
            self._candidates = self._candidates[cut:]

    def _resolve(self) -> None:
        """Retire every reading partition no probe in ``(u, v]`` can charge.

        Either it is closed (same exact rank at both filters: no element
        between them), or this query has pinned every block covering its
        index range ``[search_bounds(u).lo, search_bounds(v).hi)`` —
        the summary's bracket, from the alphas carried at the filters,
        not the tighter rank bracket: a probe's binary search may still
        reach, and be charged for, an unread block anywhere in it.
        """
        reading, slices = [], []
        (u, v), (alphas_u, alphas_v) = self._filters, self._alphas
        for i in self._reading:
            partition = self._partitions[i]
            rank = self._ranks[0][i]
            if rank is not None and rank == self._ranks[1][i]:
                held = _NO_ELEMENTS
            else:
                if alphas_u[i] is None:
                    alphas_u[i] = partition.summary.alpha(u)
                if alphas_v[i] is None:
                    alphas_v[i] = partition.summary.alpha(v)
                lo, hi = partition.summary.bracket(alphas_u[i], alphas_v[i])
                window = partition.run.pinned_range(lo, hi, self._cache)
                if window is None:
                    reading.append(i)
                    continue
                start = int(window.searchsorted(u, "right"))
                rank = lo + start
                held = window[start : int(window.searchsorted(v, "right"))]
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
        probes, run through the executor like any other probe.  On the
        object backend each such read is one modeled GET widened by
        break-even readahead (extra blocks are streamed while their
        marginal cost stays under another request's setup cost —
        charge-neutral).
        Only active when the per-query cache reads through a shared
        tier: with the tier off, the legacy per-probe accounting must
        reproduce bit for bit.  Answers are unaffected either way (a
        probe of those blocks just finds them pinned).
        """
        if self._cache.shared is None or self._config.prefetch_blocks < 1:
            return
        pending = [
            p for p in self._partitions if p.run.run_id not in self._prefetched
        ]
        tasks = prefetch_tasks(pending, u, v, self._config.prefetch_blocks)
        if not tasks:
            return
        for task in tasks:
            self._prefetched.add(task.partition.run.run_id)
        self._executor.run_tasks(tasks, self._cache)

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
            self._maybe_prefetch(u, v)
            if self._reading and (iterations or self._prefetched):
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
            ranks[i] = rank + int(held.searchsorted(v, "right"))
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
