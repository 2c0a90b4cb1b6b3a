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
a system (:class:`PinnedQueries`), which pins one per accurate query.
A search runs through :func:`answer_rank`, and every quick answer
through :func:`answer_quick`, so each :class:`QueryResult` field has
exactly one rule, stated on the field.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Any, Callable, List, Mapping, Optional, Sequence

import numpy as np

from ..faults.errors import DiskFault
from ..query.executor import QueryExecutor
from ..sketches.base import rank_for_phi
from ..storage.stats import DiskLatencyModel
from ..warehouse.partition import Partition
from .bounds import CombinedSummary, PartialResult, widen_rank_bound
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
    #: the *pinned* stream (a ``StreamView``: no concurrent update shifts
    #: an estimate mid-search); ``None`` for step ranges, which exclude it.
    stream: Any
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


def rank_in(rank: int, total: int) -> int:
    """``rank`` clamped into ``[1, total]``; a non-integer is refused."""
    if isinstance(rank, bool) or not isinstance(rank, (int, np.integer)):
        raise TypeError(f"rank must be an integer, not {type(rank).__name__}")
    return max(1, min(int(rank), total))


def answer_rank(
    scope: QueryScope,
    rank: int,
    config: EngineConfig,
    executor: QueryExecutor,
    latency: DiskLatencyModel,
    cache: Any = None,
    degrade: bool = True,
) -> QueryResult:
    """Algorithm 6: an element whose rank in the scope approximates
    ``rank`` within ``O(eps*m)``, found with a few hundred random block
    reads.  ``cache`` shares one block cache across several searches
    (blocks one search touched are free for the next); by default each
    search gets ``scope.new_cache()``.

    A search whose probe exhausted its retries degrades to the quick
    response with its wider bound — flagged on the result and counted
    through ``scope.on_degraded`` — unless ``config.degrade_on_fault``
    is off or the caller passes ``degrade=False`` because it has a
    better recovery (the cluster retries over the surviving shards);
    the typed fault then propagates.
    """
    started = time.perf_counter()
    total = scope.combined.total_size
    rank = rank_in(rank, total)
    m_scope = scope.stream_summary.stream_size
    per_block = latency.seconds_per_random_block
    stream = scope.stream
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
            stream_rank_fn=None if stream is None else stream.rank,
            stream_steps=None if stream is None else stream.steps(),
            cache=cache,
            executor=executor,
        ).run()
    except DiskFault:
        if not (degrade and config.degrade_on_fault):
            raise
        scope.on_degraded(cache)
    else:
        return QueryResult(
            value=int(outcome.value),
            target_rank=rank,
            total_size=total,
            mode="accurate",
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
    # The aborted search's probes were still charged.
    blocks = cache.blocks_charged - charged_before
    return answer_quick(
        scope.combined, [rank], config, started, scope.window_steps,
        "accurate", blocks, per_block,
    )[0]


def answer_quick(
    combined: CombinedSummary,
    ranks: Sequence[int],
    config: EngineConfig,
    started: float,
    window_steps: Optional[int] = None,
    mode: str = "quick",
    blocks: int = 0,
    per_block: float = 0.0,
) -> List[QueryResult]:
    """Algorithm 5 at each of ``ranks`` (in ``[1, N]``) off one TS: every
    quick answer, sharing the wall time since ``started`` (a batch all
    waited for the same TS).  Asked in accurate ``mode`` it is a
    degraded answer, charged the aborted search's ``blocks``.
    """
    total = combined.total_size
    # The a priori bound eps1 * n + eps2 * m; m is what TS holds beyond HS.
    n = combined.historical.total_size
    bound = float(config.epsilon1 * n + config.epsilon2 * (total - n))
    values = [combined.quick_response(rank) for rank in ranks]
    wall = time.perf_counter() - started
    degraded = mode != "quick"
    return [
        QueryResult(
            value=value,
            target_rank=rank,
            total_size=total,
            mode=mode,
            estimated_rank=float(rank),
            disk_accesses=blocks,
            iterations=0,
            truncated=degraded,
            wall_seconds=wall,
            sim_seconds=blocks * per_block,
            window_steps=window_steps,
            degraded=degraded,
            rank_error_bound=bound,
        )
        for rank, value in zip(ranks, values)
    ]


def with_partial(
    result: QueryResult, missing: Mapping[int, int], answering: int
) -> QueryResult:
    """``result`` widened by, and reporting, the ``missing`` shards (id
    -> acked elements) while ``answering`` shards answered."""
    if not missing:
        return result
    lost = sum(missing.values())
    return replace(
        result,
        rank_error_bound=widen_rank_bound(result.rank_error_bound, lost),
        partial=PartialResult(
            missing_shards=tuple(sorted(missing)),
            missing_elements=lost,
            shards_answering=answering,
            base_bound=result.rank_error_bound,
        ),
    )


class PinnedQueries:
    """The query verbs, written once for a pinned view and a system.

    A subclass supplies ``config``, ``_current_ts(window_steps,
    step_range)`` (the TS quick answers over that scope read, the
    missing shards' acked counts, the number of shards answering and
    the epoch read)
    and ``pin()`` (the :class:`PinnedView` an accurate query searches,
    released as a context manager).  A view answers both off its own
    pins instead.  A system (:class:`~repro.core.engine.HybridQuantileEngine`,
    :class:`~repro.cluster.engine.ClusterEngine`) pins a view per
    accurate query and none per quick one: Algorithm 5 reads only
    in-memory summaries, and a TS fused from one consistent (layout,
    stream) reading never changes, so its answer is a pin's.
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
        scope = (window_steps, step_range)
        return self._answer_at([rank], rank_in, mode, *scope)[0]

    def quantile(
        self,
        phi: float,
        mode: str = "accurate",
        window_steps: Optional[int] = None,
        step_range: "Optional[tuple[int, int]]" = None,
    ) -> QueryResult:
        """A ``phi``-quantile of the union (Definition 1)."""
        scope = (window_steps, step_range)
        return self._answer_at([phi], rank_for_phi, mode, *scope)[0]

    def quantile_many(
        self,
        phis: Sequence[float],
        mode: str = "quick",
        window_steps: Optional[int] = None,
    ) -> List[QueryResult]:
        """Answer many quantiles, index-aligned with ``phis``: the serving
        coalescer's and the CLI's batched entry point."""
        return self._answer_at(phis, rank_for_phi, mode, window_steps)

    def _query_pin(self) -> "PinnedView":
        # Calls ``pin`` per query, never aliases it: a traced run
        # patches ``pin`` on the class.
        return self.pin()

    def _answer_at(
        self,
        targets: Sequence[Any],
        to_rank: Callable[[Any, int], int],
        mode: str,
        window_steps: Optional[int] = None,
        step_range: "Optional[tuple[int, int]]" = None,
    ) -> List[QueryResult]:
        """Answers at ``targets`` (phis or ranks, as ``to_rank`` turns
        them into ranks of the scope's N), index-aligned.  Quick ones
        pay one current TS and one lookup each, widened for the shards
        it misses; accurate ones share the pinned scope and one block
        cache, so blocks touched by one search are free for the next.
        """
        check_mode(mode)
        if mode == "quick":
            return self._quick_at(targets, to_rank, window_steps, step_range)[0]
        with self._query_pin() as view:
            scope = view._query_scope(window_steps, step_range)
            cache = scope.new_cache()
            total = scope.combined.total_size
            return [
                view._answer(scope, to_rank(target, total), cache)
                for target in targets
            ]

    def _quick_at(
        self, targets: Sequence[Any], to_rank: Callable[[Any, int], int],
        window_steps: Optional[int] = None,
        step_range: "Optional[tuple[int, int]]" = None,
    ) -> "tuple[List[QueryResult], Any]":
        """Quick answers at ``targets`` off one current TS over the scope,
        and the epoch that TS was read at."""
        started = time.perf_counter()
        ts, missing, answering, epoch = self._current_ts(window_steps, step_range)
        ranks = [to_rank(target, ts.total_size) for target in targets]
        quick = answer_quick(ts, ranks, self.config, started, window_steps)
        return [with_partial(r, missing, answering) for r in quick], epoch


class PinnedView(PinnedQueries):
    """One pinned, consistent view: its lifecycle, scope, once-per-view
    full-scope TS and merge counter, written here once.

    A subclass says what it pinned: ``epoch``, ``n_historical`` /
    ``m_stream``, ``_release_pins()``, ``_partitions_in(window_steps,
    step_range)`` (the partitions a scope covers, in the order their HS
    shares are summed), ``_summaries`` / ``_key`` (the full scope's
    non-empty partitions' summaries in that order, and their memo key),
    ``_stream`` (one :class:`~repro.core.epoch.StreamView`),
    ``_historical_memo``, ``_new_cache()`` and ``_on_degraded(cache)``.
    All of it is thread-safe: one view may serve many threads.
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
            stream=self._stream if step_range is None else None,
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

    def _query_pin(self) -> "nullcontext[PinnedView]":
        return nullcontext(self)

    def _current_ts(self, *scope: Any) -> "tuple[CombinedSummary, dict, int, Any]":
        return self.combined(*scope), {}, 1, self.epoch

    def _answer(
        self, scope: QueryScope, rank: int, cache: Any = None
    ) -> QueryResult:
        return answer_rank(
            scope, rank, self.config, self._executor, self._latency, cache
        )
