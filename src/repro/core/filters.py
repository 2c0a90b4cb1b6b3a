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

The search also remembers what it has learnt at the filters: once ``u``
and ``v`` have both been probed, a partition whose exact rank is the
same at both holds no element in ``(u, v]``, so every later probe has
that rank there too and the partition is not probed again (see
``docs/THEORY.md``, "Closed partitions").

Per-partition probing is delegated to :mod:`repro.query`: a
:class:`~repro.query.planner.QueryPlanner` turns each probe into one
task per partition and a :class:`~repro.query.executor.QueryExecutor`
runs them — inline by default, or concurrently when the engine is
configured with ``query_workers > 1`` (the implemented form of
Section 4's parallel partition reads).  Answers and I/O accounting are
identical either way; only wall-clock changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..query.executor import SERIAL_EXECUTOR, QueryExecutor
from ..query.planner import QueryPlanner
from ..storage.cache import BlockCache
from ..warehouse.partition import Partition
from .bounds import CombinedSummary
from .config import EngineConfig
from .summaries import StreamSummary


#: What probing one value yields: ``(estimated rank in T, exact rank in
#: each partition)``.  The search keeps one for each filter it has probed.
Estimate = Tuple[float, List[int]]


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
        the query's critical path when the executor reads partitions
        in parallel (``query_workers > 1``); feeds
        ``parallel_sim_seconds``.
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
        stream_rank_fn: Optional[Callable[[int], float]] = None,
        cache: Optional[BlockCache] = None,
        executor: Optional[QueryExecutor] = None,
    ) -> None:
        self._partitions = [p for p in partitions if len(p) > 0]
        self._planner = QueryPlanner(self._partitions)
        self._executor = executor if executor is not None else SERIAL_EXECUTOR
        self._ss = stream_summary
        self._combined = combined
        self._config = config
        self._rank = rank
        if cache is not None:
            self._cache = cache
        elif self._partitions:
            disk = self._partitions[0].run.disk
            self._cache = BlockCache(disk, enabled=config.block_cache)
        else:
            self._cache = None
        self._blocks_at_start = self._blocks()
        # A cache shared across searches carries earlier searches'
        # charges; the critical path is this search's own.
        self._run_blocks_at_start = (
            self._cache.run_blocks() if self._cache else {}
        )
        self._stream_rank_fn = stream_rank_fn
        # Run ids already prefetched this query (at most once each; the
        # filters only narrow, so later ranges are subsets).
        self._prefetched: set = set()

    # -- rank estimation ------------------------------------------------

    def _historical_ranks(
        self,
        value: int,
        lo_ranks: Optional[List[int]] = None,
        hi_ranks: Optional[List[int]] = None,
    ) -> List[int]:
        """Exact rank of ``value`` in each partition (Alg. 8 lines 2-7).

        Each partition's binary search is narrowed to the inter-summary
        gap containing ``value`` (no I/O for the narrowing, since the
        summaries store exact ranks) and charged block reads through
        the per-query cache.  The planner emits one task per partition
        and the executor runs them — concurrently when the engine has
        ``query_workers > 1``, since the searches touch disjoint runs.

        ``lo_ranks`` / ``hi_ranks`` are the exact ranks of two probed
        values bracketing ``value``.  Rank is monotone, so a partition
        ranked the same at both has that rank at ``value`` as well: it
        gets no task and no touch.
        """
        if lo_ranks is None or hi_ranks is None:
            tasks = self._planner.rank_probes(int(value))
            return self._executor.run_tasks(tasks, self._cache)
        ranks = list(lo_ranks)
        still_open = [i for i, r in enumerate(hi_ranks) if r != ranks[i]]
        if still_open:
            tasks = self._planner.rank_probes(int(value), still_open)
            probed = self._executor.run_tasks(tasks, self._cache)
            for i, rank_p in zip(still_open, probed):
                ranks[i] = rank_p
        return ranks

    def _estimate(
        self,
        value: int,
        at_lo: Optional[Estimate] = None,
        at_hi: Optional[Estimate] = None,
    ) -> Estimate:
        """Estimated rank of ``value`` in T plus per-partition ranks.

        Historical ranks are exact; the stream contributes either the
        live sketch's rank bracket (when the caller supplied one —
        in-memory, like SS, but free of SS's quantization) or the
        Algorithm 8 summary estimate.  ``at_lo`` / ``at_hi`` are the
        estimates of probed values below and above ``value``, when the
        search has them.
        """
        hist_ranks = self._historical_ranks(
            value,
            at_lo[1] if at_lo is not None else None,
            at_hi[1] if at_hi is not None else None,
        )
        if self._stream_rank_fn is not None:
            stream = self._stream_rank_fn(value)
        else:
            stream = self._ss.rank_estimate(value)
        return float(sum(hist_ranks)) + stream, hist_ranks

    # -- prefetching ----------------------------------------------------

    def _maybe_prefetch(self, u: int, v: int) -> None:
        """Batched read-ahead once filters confine a partition's range.

        When ``(u, v)`` narrows a partition's candidate element range
        to at most ``config.prefetch_blocks`` blocks, the whole range
        is read in one charged ranged read ahead of the binary-search
        probes — fanned out through the executor like any other probe,
        so with ``query_workers > 1`` distinct partitions' ranged GETs
        are issued concurrently.  On the object backend each such read
        is one byte-range GET widened by break-even readahead (extra
        blocks are streamed while their marginal cost stays under
        another request's setup cost — charge-neutral).
        Only active when the per-query cache reads through a shared
        tier: with the tier off, the legacy per-probe accounting must
        reproduce bit for bit.  Answers are unaffected either way (the
        probes still run; their touches just hit the cache).
        """
        if (
            self._cache is None
            or self._cache.shared is None
            or self._config.prefetch_blocks < 1
        ):
            return
        tasks = self._planner.prefetch_reads(
            u, v, self._config.prefetch_blocks, skip=self._prefetched
        )
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
            return int(self._combined.values[0])
        return max(candidates)

    # -- the search -----------------------------------------------------

    def run(self) -> SearchOutcome:
        """Execute the configured search strategy."""
        if self._config.query_strategy == "fetch":
            return self._run_fetch()
        return self._run_bisect()

    def _run_bisect(self) -> SearchOutcome:
        """Bisect to the rank-crossing point, then snap (default).

        Converges on the smallest value whose estimated rank reaches
        the target, then snaps down to the nearest real element.
        """
        u, v = self._combined.generate_filters(self._rank)
        at_u: Optional[Estimate] = None
        at_v: Optional[Estimate] = None
        iterations = 0
        truncated = False
        budget = self._config.probe_budget
        while v > u + 1:
            if (budget is not None
                    and self._blocks() - self._blocks_at_start >= budget):
                truncated = True
                break
            self._maybe_prefetch(u, v)
            z = (u + v) // 2
            iterations += 1
            at_z = self._estimate(z, at_u, at_v)
            if at_z[0] >= self._rank:
                v, at_v = z, at_z
            else:
                u, at_u = z, at_z
        rho, hist_ranks = at_v if at_v is not None else self._estimate(v)
        value = self._snap_down(v, hist_ranks)
        return self._outcome(value, rho, iterations, truncated)

    def _run_fetch(self) -> SearchOutcome:
        """Lemma 5's literal endgame: fetch the residual range.

        Narrow the filters with slack-guarded moves (preserving
        ``rank(u) <= r <= rank(v)``) until few historical elements
        remain between them, read that residual range from every
        partition (block-counted), and select the element whose exact
        historical rank plus stream estimate is closest to the target
        from below.
        """
        u, v = self._combined.generate_filters(self._rank)
        at_u: Optional[Estimate] = None
        at_v: Optional[Estimate] = None
        m = self._ss.stream_size
        slack = max(self._config.query_epsilon, self._config.epsilon2) * m
        threshold = self._config.residual_threshold
        budget = self._config.probe_budget
        iterations = 0
        truncated = False
        while v > u + 1:
            if budget is not None and (
                self._blocks() - self._blocks_at_start >= budget
            ):
                truncated = True
                break
            self._maybe_prefetch(u, v)
            # Only a filter that has not been a probe yet is ranked
            # here; a moved end carries the ranks it was probed with.
            if at_u is None:
                at_u = self._estimate(u)
            if at_v is None:
                at_v = self._estimate(v)
            if sum(at_v[1]) - sum(at_u[1]) <= threshold:
                break
            z = (u + v) // 2
            iterations += 1
            at_z = self._estimate(z, at_u, at_v)
            rho = at_z[0]
            if self._rank < rho - slack:
                v, at_v = z, at_z
            elif self._rank > rho + slack:
                u, at_u = z, at_z
            else:
                # Estimate already within slack: land the bracket on z.
                if z - 1 > u:
                    u, at_u = z - 1, None
                v, at_v = z, at_z
        return self._select_from_residual(
            u, v, iterations, truncated, at_u, at_v
        )

    def _select_from_residual(
        self,
        u: int,
        v: int,
        iterations: int,
        truncated: bool,
        at_u: Optional[Estimate],
        at_v: Optional[Estimate],
    ) -> SearchOutcome:
        """Read (u, v] from every partition and pick the best element.

        The residual reads fan out through the same planner/executor
        pair as the rank probes: one :class:`RangeReadTask` per
        partition, each independent of the others.
        """
        candidates: List[int] = []
        tasks = self._planner.residual_reads(u, v)
        for chunk in self._executor.run_tasks(tasks, self._cache):
            candidates.extend(int(x) for x in chunk)
        stream_candidate = self._ss.largest_at_most(v)
        if stream_candidate is not None and stream_candidate > u:
            candidates.append(int(stream_candidate))
        if not candidates:
            # Nothing lies strictly inside the bracket: v is the answer.
            rho, hist_ranks = at_v if at_v is not None else self._estimate(v)
            value = self._snap_down(v, hist_ranks)
            return self._outcome(value, rho, iterations, truncated)
        candidates.sort()
        best_value = candidates[-1]
        best_rho = None
        for value in candidates:
            rho, _ = self._estimate(value, at_u, at_v)
            if rho >= self._rank:
                best_value = value
                best_rho = rho
                break
        if best_rho is None:
            best_rho, _ = self._estimate(best_value, at_u, at_v)
        return self._outcome(best_value, best_rho, iterations, truncated)

    def _outcome(
        self, value: int, rho: float, iterations: int, truncated: bool
    ) -> SearchOutcome:
        charged = self._cache.run_blocks() if self._cache else {}
        return SearchOutcome(
            value=int(value),
            estimated_rank=float(rho),
            random_blocks=self._blocks() - self._blocks_at_start,
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

    def _blocks(self) -> int:
        return self._cache.blocks_charged if self._cache else 0
