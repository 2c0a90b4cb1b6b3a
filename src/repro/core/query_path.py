"""The one query path: scope -> TS -> quick | accurate -> degrade -> result.

The paper defines one query procedure — Algorithm 5 answers from TS
alone (quick), Algorithms 6-8 bracket the rank with TS filters and
bisect with exact per-partition ranks plus a stream estimate
(accurate).  Because KLL sketches merge, a cluster is the same
procedure over its shards' concatenated partitions and one merged
stream.

Every door is a :class:`PinnedView` — a
:class:`~repro.core.epoch.SnapshotHandle` (one engine's pin) or a
:class:`~repro.cluster.engine.ClusterSnapshot` (a gather of them) — or
a system that pins one per call (:class:`PinnedQueries`).  The view
builds a :class:`QueryScope` and calls :func:`answer_rank` (or the
batched :func:`answer_quick_many`), so each :class:`QueryResult` field
has exactly one rule, stated on the field.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from ..faults.errors import DiskFault
from ..query.executor import QueryExecutor
from ..sketches.base import rank_for_phi
from ..storage.stats import DiskLatencyModel
from ..warehouse.partition import Partition
from .bounds import CombinedSummary, PartialResult, quick_rank_bound
from .config import EngineConfig
from .filters import AccurateSearch
from .summaries import PartitionSummary, StreamSummary


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one quantile query."""

    value: int
    #: the requested rank clamped into ``[1, total_size]``; a ``phi`` is
    #: turned into a rank against this same pinned ``total_size``.
    target_rank: int
    total_size: int
    mode: str
    estimated_rank: float
    #: random block reads this query's own cache charged — for a
    #: degraded answer those of the aborted search, so it is never
    #: reported as free; another thread's reads are never absorbed.
    disk_accesses: int
    iterations: int
    truncated: bool
    wall_seconds: float
    #: ``disk_accesses * seconds_per_random_block``: every query-time
    #: charge is a random read.
    sim_seconds: float
    window_steps: Optional[int] = None
    #: modeled simulated disk seconds with partitions read
    #: concurrently (Section 4): this search's deepest single-partition
    #: read chain times ``seconds_per_random_block`` — the critical
    #: path, computed from charges, not realized by threads;
    #: <= sim_seconds, zero for quick and degraded answers.
    parallel_sim_seconds: float = 0.0
    #: True when an accurate query exhausted its probe retries against
    #: a faulty disk and fell back to the quick (in-memory) response;
    #: ``rank_error_bound`` then carries the widened quick-path bound.
    degraded: bool = False
    #: a priori bound on ``|true_rank(value) - target_rank|`` for this
    #: response: ``~eps * m`` for an accurate answer, the much wider
    #: ``eps1 * n + eps2 * m`` for quick and degraded answers.
    rank_error_bound: float = 0.0
    #: set when a cluster gather answered from a strict subset of
    #: shards; carries the missing-shard accounting behind the widened
    #: ``rank_error_bound`` (see :class:`~repro.core.bounds.PartialResult`).
    partial: Optional[PartialResult] = None

    @property
    def phi(self) -> float:
        """The quantile fraction this query targeted."""
        return self.target_rank / self.total_size if self.total_size else 0.0


@dataclass(frozen=True)
class QueryScope:
    """What one query answers over, as its door pinned it.

    A record, not a wrapper: the query functions call ``combined`` and
    the search directly.
    """

    partitions: Sequence[Partition]
    stream_summary: StreamSummary
    combined: CombinedSummary
    #: rank estimate from the *pinned* sketch, so a concurrent stream
    #: update cannot shift estimates mid-search; ``None`` for
    #: historical step ranges, which exclude the live stream.
    stream_rank: Optional[Callable[[int], float]]
    #: a fresh per-query block cache for an accurate search.
    new_cache: Callable[[], Any]
    #: counts one degraded query; handed the aborted search's cache
    #: (the cluster reads the culprit shard off it).
    on_degraded: Callable[[Any], None]
    window_steps: Optional[int] = None
    step_range: "Optional[tuple[int, int]]" = None


def check_mode(mode: str) -> None:
    """Reject anything but the paper's two response modes."""
    if mode not in ("quick", "accurate"):
        raise ValueError("mode must be 'quick' or 'accurate'")


def _quick_result(
    scope: QueryScope,
    mode: str,
    rank: int,
    value: int,
    bound: float,
    wall: float,
    blocks: int = 0,
    per_block: float = 0.0,
) -> QueryResult:
    """Algorithm 5's answer; asked in accurate ``mode`` it is a degraded
    one, charged the aborted search's ``blocks``."""
    return QueryResult(
        value=int(value),
        target_rank=int(rank),
        total_size=scope.combined.total_size,
        mode=mode,
        estimated_rank=float(rank),
        disk_accesses=blocks,
        iterations=0,
        truncated=mode != "quick",
        wall_seconds=wall,
        sim_seconds=blocks * per_block,
        window_steps=scope.window_steps,
        degraded=mode != "quick",
        rank_error_bound=float(bound),
    )


def answer_rank(
    scope: QueryScope,
    rank: int,
    mode: str,
    config: EngineConfig,
    executor: QueryExecutor,
    latency: DiskLatencyModel,
    cache: Any = None,
    degrade: bool = True,
) -> QueryResult:
    """Return an element whose rank in the scope approximates ``rank``.

    ``mode`` selects Algorithm 5 (``"quick"``, memory-only,
    ``O(eps*N)`` error) or Algorithm 6 (``"accurate"``, a few hundred
    random block reads, ``O(eps*m)`` error).  ``cache`` shares one
    block cache across several searches (blocks one search touched are
    free for the next); by default each search gets ``scope.new_cache()``.

    An accurate search whose probe exhausted its retries degrades to
    the quick response with its wider bound — flagged on the result and
    counted through ``scope.on_degraded`` — unless
    ``config.degrade_on_fault`` is off or the caller passes
    ``degrade=False`` because it has a better recovery (the cluster
    retries over the surviving shards); the typed fault then propagates.
    """
    check_mode(mode)
    if isinstance(rank, bool) or not isinstance(rank, (int, np.integer)):
        raise TypeError(f"rank must be an integer, not {type(rank).__name__}")
    started = time.perf_counter()
    total = scope.combined.total_size
    rank = max(1, min(int(rank), total))
    m_scope = scope.stream_summary.stream_size
    per_block = latency.seconds_per_random_block
    blocks = 0
    if mode == "accurate":
        if cache is None:
            cache = scope.new_cache()
        charged_before = cache.blocks_charged
        try:
            outcome = AccurateSearch(
                partitions=scope.partitions,
                stream_summary=scope.stream_summary,
                combined=scope.combined,
                config=config,
                rank=rank,
                stream_rank_fn=scope.stream_rank,
                cache=cache,
                executor=executor,
            ).run()
        except DiskFault:
            if not (degrade and config.degrade_on_fault):
                raise
            scope.on_degraded(cache)
            # The aborted search's probes were still charged.
            blocks = cache.blocks_charged - charged_before
        else:
            return QueryResult(
                value=int(outcome.value),
                target_rank=rank,
                total_size=total,
                mode=mode,
                estimated_rank=outcome.estimated_rank,
                disk_accesses=outcome.random_blocks,
                iterations=outcome.iterations,
                truncated=outcome.truncated,
                wall_seconds=time.perf_counter() - started,
                sim_seconds=outcome.random_blocks * per_block,
                window_steps=scope.window_steps,
                parallel_sim_seconds=outcome.max_partition_blocks * per_block,
                rank_error_bound=float(config.query_epsilon * m_scope),
            )
    value = scope.combined.quick_response(rank)
    bound = quick_rank_bound(config, total, m_scope)
    wall = time.perf_counter() - started
    return _quick_result(
        scope, mode, rank, value, bound, wall, blocks, per_block
    )


def answer_quick_many(
    scope: QueryScope,
    phis: Sequence[float],
    config: EngineConfig,
) -> List[QueryResult]:
    """Quick quantiles for every ``phi`` from one TS, in one pass.

    The serving coalescer's workhorse: the batch shares the pinned TS
    and pays one lookup per ``phi``.  Results are index-aligned with
    ``phis`` and equal ``answer_rank(..., "quick")`` one by one.
    """
    started = time.perf_counter()
    combined = scope.combined
    total = combined.total_size
    ranks = [rank_for_phi(phi, total) for phi in phis]
    values = combined.quick_responses(np.asarray(ranks, dtype=np.int64))
    bound = quick_rank_bound(config, total, scope.stream_summary.stream_size)
    # The shared pass's wall time; attributing it to every result keeps
    # per-result latency honest for coalesced batches (they all waited
    # for the same merge).
    wall = time.perf_counter() - started
    return [
        _quick_result(scope, "quick", rank, value, bound, wall)
        for rank, value in zip(ranks, values)
    ]


class PinnedView:
    """One pinned, consistent view and the verbs every such view has.

    A subclass says what it pinned: ``n_historical`` / ``m_stream``,
    ``_release_pins()``, ``_partitions_in(window_steps, step_range)``
    (the partitions a scope covers, in the order their HS shares are
    summed), ``_summaries`` / ``_key`` (the full scope's non-empty
    partitions' summaries in that order, and their memo key),
    ``_stream`` (one :class:`~repro.core.epoch.StreamView`),
    ``_historical_memo``, ``_new_cache()`` (a per-query block cache)
    and ``_on_degraded(cache)``.  The lifecycle, the scope, the
    once-per-view full-scope TS, the merge counter and the three query
    verbs are written here, once.  All of it is thread-safe: the
    serving layer shares one view across a coalesced batch of requests.
    """

    def __init__(
        self,
        config: EngineConfig,
        executor: QueryExecutor,
        latency: DiskLatencyModel,
    ) -> None:
        self.config = config
        self._executor = executor
        self._latency = latency
        # Held across the full-scope fuse (sharers wait for one) and
        # around every count.
        self._ts_lock = threading.Lock()
        self._combined: Optional[CombinedSummary] = None
        self._merges = 0
        self._released = False

    # -- lifecycle ------------------------------------------------------

    @property
    def released(self) -> bool:
        """Whether :meth:`release` has run."""
        return self._released

    def release(self) -> None:
        """Drop this view's pins (idempotent).

        The view keeps answering afterwards (its references stay valid
        in-process); releasing just lets the registry retire the epoch
        so a file-backed deployment could free pre-merge partitions.
        """
        if not self._released:
            self._released = True
            self._release_pins()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    # -- scope and TS -----------------------------------------------------

    def scope(
        self,
        window_steps: Optional[int] = None,
        step_range: "Optional[tuple[int, int]]" = None,
    ) -> "tuple[List[Partition], StreamSummary]":
        """The (partitions, SS) pair a query over this scope covers."""
        if step_range is not None and window_steps is not None:
            raise ValueError("pass window_steps or step_range, not both")
        partitions = self._partitions_in(window_steps, step_range)
        if step_range is None:
            return partitions, self._stream.summary()
        # A historical interval excludes the live stream.
        empty = np.empty(0, dtype=np.int64)
        return partitions, StreamSummary(empty, 0, self.config.epsilon2)

    def _fuse(
        self,
        summaries: Sequence[PartitionSummary],
        ss: StreamSummary,
        key: Optional[tuple] = None,
    ) -> CombinedSummary:
        """TS of ``summaries`` and ``ss`` off the memo (uncached here)."""
        return CombinedSummary.build(summaries, ss, self._historical_memo, key)

    def _query_scope(
        self,
        window_steps: Optional[int] = None,
        step_range: "Optional[tuple[int, int]]" = None,
    ) -> QueryScope:
        partitions, ss = self.scope(window_steps, step_range)
        return QueryScope(
            partitions=partitions,
            stream_summary=ss,
            combined=self.combined(window_steps, step_range),
            stream_rank=self._stream.rank if step_range is None else None,
            new_cache=self._new_cache,
            on_degraded=self._on_degraded,
            window_steps=window_steps,
            step_range=step_range,
        )

    @property
    def n_total(self) -> int:
        """Total number of elements N = n + m at pin time."""
        return self.n_historical + self.m_stream

    def combined(
        self,
        window_steps: Optional[int] = None,
        step_range: "Optional[tuple[int, int]]" = None,
    ) -> CombinedSummary:
        """TS over the scope; the full scope is resolved once per view.

        Every resolution is counted, fused or reused — the serving
        benchmark's coalescing ratio divides the count by requests
        served.
        """
        if window_steps is None and step_range is None:
            with self._ts_lock:
                if self._combined is None:
                    self._combined = self._fuse(
                        self._summaries, self._stream.summary(), self._key
                    )
                    self._merges += 1
                return self._combined
        partitions, ss = self.scope(window_steps, step_range)
        built = self._fuse([p.summary for p in partitions if len(p) > 0], ss)
        with self._ts_lock:
            self._merges += 1
        return built

    @property
    def ts_merges_built(self) -> int:
        """TS resolutions this view has asked for (its cache's misses)."""
        with self._ts_lock:
            return self._merges

    # -- queries --------------------------------------------------------

    def _answer(
        self, scope: QueryScope, rank: int, mode: str, cache: Any = None
    ) -> QueryResult:
        return answer_rank(
            scope, rank, mode, self.config, self._executor,
            self._latency, cache,
        )

    def _answer_quick_many(
        self, scope: QueryScope, phis: Sequence[float]
    ) -> List[QueryResult]:
        return answer_quick_many(scope, phis, self.config)

    def query_rank(
        self,
        rank: int,
        mode: str = "accurate",
        window_steps: Optional[int] = None,
        step_range: "Optional[tuple[int, int]]" = None,
    ) -> QueryResult:
        """Answer exactly as the system would have at pin time."""
        scope = self._query_scope(window_steps, step_range)
        return self._answer(scope, rank, mode)

    def quantile(
        self,
        phi: float,
        mode: str = "accurate",
        window_steps: Optional[int] = None,
        step_range: "Optional[tuple[int, int]]" = None,
    ) -> QueryResult:
        """A ``phi``-quantile of the pinned union (Definition 1)."""
        scope = self._query_scope(window_steps, step_range)
        rank = rank_for_phi(phi, scope.combined.total_size)
        return self._answer(scope, rank, mode)

    def quantile_many(
        self,
        phis: Sequence[float],
        mode: str = "quick",
        window_steps: Optional[int] = None,
    ) -> List[QueryResult]:
        """Answer many quantiles against this one pinned view.

        Quick mode is the coalescer's workhorse: one (cached) TS, then
        one rank-bound lookup per ``phi``.  Accurate mode shares the
        scope and one block cache across the searches, so blocks
        touched by one are free for the next.  Results are
        index-aligned with ``phis``.
        """
        check_mode(mode)
        scope = self._query_scope(window_steps)
        if mode == "quick":
            return self._answer_quick_many(scope, phis)
        cache = scope.new_cache()
        total = scope.combined.total_size
        return [
            self._answer(scope, rank_for_phi(phi, total), mode, cache)
            for phi in phis
        ]


class PinnedQueries:
    """The query verbs of a system that answers from pinned views.

    :class:`~repro.core.engine.HybridQuantileEngine` and
    :class:`~repro.cluster.engine.ClusterEngine` each supply
    ``_query_pin()``, a context manager yielding a pinned view; every
    verb is "pin a view, ask it, release".
    """

    def query_rank(
        self,
        rank: int,
        mode: str = "accurate",
        window_steps: Optional[int] = None,
        step_range: "Optional[tuple[int, int]]" = None,
    ) -> QueryResult:
        """Return an element whose rank in T approximates ``rank``.

        ``mode`` selects Algorithm 5 (``"quick"``, memory-only,
        ``O(eps*N)`` error) or Algorithm 6 (``"accurate"``, a few
        hundred random block reads, ``O(eps*m)`` error).  With
        ``window_steps`` the query covers only the last that many time
        steps of historical data plus the live stream; with
        ``step_range=(a, b)`` it covers exactly historical steps a..b
        (no stream), when those align with partition boundaries.
        """
        with self._query_pin() as view:
            return view.query_rank(
                rank,
                mode=mode,
                window_steps=window_steps,
                step_range=step_range,
            )

    def quantile(
        self,
        phi: float,
        mode: str = "accurate",
        window_steps: Optional[int] = None,
        step_range: "Optional[tuple[int, int]]" = None,
    ) -> QueryResult:
        """A ``phi``-quantile of the union (Definition 1)."""
        with self._query_pin() as view:
            return view.quantile(
                phi,
                mode=mode,
                window_steps=window_steps,
                step_range=step_range,
            )

    def quantile_many(
        self,
        phis: Sequence[float],
        mode: str = "quick",
        window_steps: Optional[int] = None,
    ) -> List[QueryResult]:
        """Answer many quantiles against one pinned view.

        The batched entry point the serving layer's coalescer (and the
        CLI's multi-``--phi`` path) uses.  Quick mode resolves TS once
        and answers every ``phi`` with a rank-bound lookup in it;
        accurate mode shares one stream summary and one block cache
        across the searches, so blocks one search touched are free for
        the next.  Results are index-aligned with ``phis``.
        """
        with self._query_pin() as view:
            return view.quantile_many(
                phis, mode=mode, window_steps=window_steps
            )
