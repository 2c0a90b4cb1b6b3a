"""Query planning: turn one probe into per-partition tasks.

The accurate response (Algorithms 6-8) repeatedly needs the exact rank
of a probe value ``z`` in *every* historical partition.  The searches
are independent — each partition's binary search touches only its own
run and is narrowed by its own in-memory summary — which is exactly
what the paper's Section 4 observes: "different disk partitions can be
processed in parallel, leading to a lower latency by overlapping
different disk reads."

:class:`QueryPlanner` makes that independence explicit.  It converts a
probe into a list of pure-data task objects, one per partition still
being read, each carrying everything its partition search needs: the
probe value and the summary-derived index bounds (Alg. 8 line 5 —
computed up front, without I/O, since summaries store exact ranks).
There are two task shapes: :class:`RankProbeTask` (one exact rank) and
:class:`PrefetchTask` (one charged ranged read ahead of the probes).
The :class:`~repro.query.executor.QueryExecutor` then runs the tasks
in order on the query's thread; each task's charged blocks feed the
modeled parallel critical path (``parallel_sim_seconds``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set

from ..storage.cache import BlockCache
from ..warehouse.partition import Partition


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

    def run(self, cache: Optional[BlockCache]) -> int:
        """Execute the block-counted binary search."""
        return self.partition.run.rank_of(
            self.value, lo=self.lo, hi=self.hi, cache=cache
        )


@dataclass(frozen=True)
class PrefetchTask:
    """Batched read-ahead of one partition's candidate block range.

    Issued once the accurate search's filters ``(u, v)`` confine a
    partition's remaining probes to a small block range: one charged
    ranged read warms every block the binary search could touch, so the
    subsequent per-probe touches hit the cache instead of paying one
    random read each.  Returns the number of blocks in the range.
    """

    partition: Partition
    first_block: int
    last_block: int

    def run(self, cache: Optional[BlockCache]) -> int:
        """Execute the batched ranged read."""
        self.partition.run.read_block_range(
            self.first_block, self.last_block, cache=cache
        )
        return self.last_block - self.first_block + 1


class QueryPlanner:
    """Builds per-partition probe plans for one accurate search.

    Parameters
    ----------
    partitions:
        The partitions in query scope.  Empty partitions are dropped at
        construction (they contribute rank 0 and no candidates).
    """

    def __init__(self, partitions: Sequence[Partition]) -> None:
        self._partitions: List[Partition] = [
            p for p in partitions if len(p) > 0
        ]

    @property
    def partitions(self) -> List[Partition]:
        """The non-empty partitions this planner makes tasks for."""
        return list(self._partitions)

    def rank_probes(
        self,
        value: int,
        indices: Optional[Sequence[int]] = None,
        alphas: "Optional[tuple[Sequence, Sequence]]" = None,
    ) -> List[RankProbeTask]:
        """One :class:`RankProbeTask` per partition, in store order.

        ``indices`` restricts the tasks to those positions of
        :attr:`partitions` — the ones the search is still reading (see
        :class:`~repro.core.filters.AccurateSearch`).  ``alphas`` holds
        per position the summary alpha (or ``None``) the search carries
        at a value below and at one above ``value``: alpha is monotone,
        so where the two agree the summary is not searched again.

        The summary narrowing happens here: it is pure in-memory work,
        so tasks reach the executor as plain data and each task only
        ever touches its own partition's run.
        """
        if indices is None:
            indices = range(len(self._partitions))
        tasks = []
        for i in indices:
            partition = self._partitions[i]
            alpha = alphas[0][i] if alphas is not None else None
            if alpha is None or alpha != alphas[1][i]:
                alpha = partition.summary.alpha(value)
            lo, hi = partition.summary.bracket(alpha, alpha)
            tasks.append(RankProbeTask(partition, value, lo, hi, alpha))
        return tasks

    def prefetch_reads(
        self,
        u: int,
        v: int,
        max_blocks: int,
        skip: Optional[Set[int]] = None,
    ) -> List[PrefetchTask]:
        """Per-partition block ranges confined by filters ``(u, v)``.

        Only partitions whose summary-narrowed candidate range for the
        value interval ``[u, v]`` spans at most ``max_blocks`` blocks
        yield a task — prefetching a wider range would charge more
        blocks than the log-depth binary search will touch.  Partitions
        whose run id is in ``skip`` (already prefetched this query) are
        omitted.
        """
        tasks: List[PrefetchTask] = []
        for partition in self._partitions:
            if skip is not None and partition.run.run_id in skip:
                continue
            lo = partition.summary.search_bounds(u)[0]
            hi = partition.summary.search_bounds(v)[1]
            if hi <= lo:
                continue
            disk = partition.run.disk
            first = disk.block_of(lo)
            last = disk.block_of(hi - 1)
            if last - first + 1 > max_blocks:
                continue
            tasks.append(
                PrefetchTask(
                    partition=partition, first_block=first, last_block=last
                )
            )
        return tasks
