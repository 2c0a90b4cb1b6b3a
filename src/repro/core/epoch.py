"""Epochs and pinned snapshot handles: the serving layer's read side.

A warehouse that answers quantile queries *while* batches keep arriving
(the paper's Algorithm 3 setting, and the whole point of the
quick/accurate split) needs a cheap notion of "the state a query ran
against".  An **epoch** is a monotone counter over the engine's
structural transitions — a batch being sealed out of the stream, or the
background archiver adopting a staged partition into the leveled
layout.  Two queries pinned at the same epoch see the identical
(HS, SS, partition-set) triple, which is what lets the serving layer's
coalescer answer a whole batch of concurrent requests from **one**
TS merge instead of one merge per request.

:class:`SnapshotHandle` pins one such view: the step-ordered partition
list (adopted *plus* staged pending batches), the :class:`StreamView`
of the live sketch's version (one snapshot per version, shared by the
handles pinned at it), and the epoch stamp.  The handle answers
``query_rank`` / ``quantile`` / ``quantile_many`` exactly as the engine
would have at pin time, no matter how far ingest advances afterwards —
and answering the *same* rank against the *same* handle is
deterministic, which the concurrency stress suite exploits to check
bit-identical replay.

:class:`EpochRegistry` refcounts the handles pinned per epoch.  When
the archiver adopts a partition it bumps the epoch; an old epoch whose
last handle releases is *retired* (its partition references drop, so in
a file-backed deployment the manifest refcount would free the
pre-merge partition files).  The registry also counts TS merges —
the serving benchmark's coalescing ratio is
``ts_merges / requests_served``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..query.executor import QueryExecutor
from ..sketches.base import QuantileSketch, rank_for_phi
from ..storage.cache import BlockCache
from ..storage.disk import SimulatedDisk
from ..storage.shared_cache import SharedBlockCache
from ..warehouse.partition import Partition
from .bounds import CombinedSummary, HistoricalSummary
from .config import EngineConfig
from .query_path import PinnedView
from .summaries import PartitionSummary, StreamSummary
from .windows import resolve_range_in, resolve_window_in


@dataclass(frozen=True)
class EpochStats:
    """One consistent reading of an :class:`EpochRegistry`'s counters."""

    #: current epoch number (0 before the first seal/adopt).
    current_epoch: int
    #: epoch bumps caused by ``end_time_step`` sealing a batch.
    seal_bumps: int
    #: epoch bumps caused by the archiver adopting a staged partition.
    adopt_bumps: int
    #: handles currently pinned (across all epochs).
    live_pins: int
    #: high-water mark of concurrently pinned handles.
    peak_pins: int
    #: epochs fully released after falling behind the current one.
    epochs_retired: int
    #: TS resolutions (``CombinedSummary.build`` passes; the halves are
    #: searched, not merged) — the coalescing ratio's denominator side.
    ts_merges: int
    #: historical halves of TS folded from scratch / grown from a
    #: memoised prefix of the partition set (one of the two per new
    #: partition set queried; every other TS merge reuses one), merged
    #: in by ``engine.epoch_stats``.
    hs_builds: int = 0
    hs_extends: int = 0
    #: of ``ts_merges``, those that returned the retained TS unfused.
    ts_reuses: int = 0


class EpochRegistry:
    """Monotone epoch counter plus per-epoch handle refcounts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._epoch = 0
        self._refs: Dict[int, int] = {}
        self._live = 0
        self._peak = 0
        self._retired = 0
        self._seal_bumps = 0
        self._adopt_bumps = 0
        self._ts_merges = 0

    @property
    def current(self) -> int:
        """The current epoch number."""
        with self._lock:
            return self._epoch

    def bump(self, reason: str = "seal") -> int:
        """Advance the epoch; returns the new number.

        ``reason`` is ``"seal"`` (a batch left the live stream) or
        ``"adopt"`` (the archiver spliced a staged partition into the
        leveled layout).  Callers invoke this inside the critical
        section that performs the transition, so a pin always observes
        the epoch and the state it stamps together.
        """
        with self._lock:
            self._epoch += 1
            if reason == "adopt":
                self._adopt_bumps += 1
            else:
                self._seal_bumps += 1
            return self._epoch

    def pin(self, epoch: int) -> None:
        """Register one handle pinned at ``epoch``."""
        with self._lock:
            self._refs[epoch] = self._refs.get(epoch, 0) + 1
            self._live += 1
            self._peak = max(self._peak, self._live)

    def release(self, epoch: int) -> None:
        """Drop one handle's pin; retire the epoch when it empties.

        An epoch is retired once its last handle releases *and* it is
        no longer current — the moment its pre-merge partition
        references become unreachable.
        """
        with self._lock:
            count = self._refs.get(epoch, 0) - 1
            self._live -= 1
            if count <= 0:
                self._refs.pop(epoch, None)
                if epoch != self._epoch:
                    self._retired += 1
            else:
                self._refs[epoch] = count

    def note_ts_merge(self) -> None:
        """Count one TS merge performed on behalf of queries."""
        with self._lock:
            self._ts_merges += 1

    def stats(self) -> EpochStats:
        """Snapshot every counter atomically."""
        with self._lock:
            return EpochStats(
                current_epoch=self._epoch,
                seal_bumps=self._seal_bumps,
                adopt_bumps=self._adopt_bumps,
                live_pins=self._live,
                peak_pins=self._peak,
                epochs_retired=self._retired,
                ts_merges=self._ts_merges,
            )


class StreamView:
    """One frozen stream sketch and, lazily and once, the SS extracted
    from it — shared, read-only, by every handle pinned at it: an
    engine's snapshot of its live sketch ``source`` while that holds
    ``size`` elements, or a cluster's merge of its shards' views."""

    def __init__(
        self,
        sketch: QuantileSketch,
        eps2: float,
        source: Optional[QuantileSketch] = None,
    ) -> None:
        self.source = source
        self.sketch = sketch
        self.size = sketch.n
        self._eps2 = eps2
        # Held across the extraction: sharers wait for one extractor.
        self._lock = threading.Lock()
        self._summary: Optional[StreamSummary] = None

    def summary(self) -> StreamSummary:
        """SS of the frozen sketch (Algorithm 4)."""
        with self._lock:
            if self._summary is None:
                self._summary = StreamSummary.extract(self.sketch, self._eps2)
            return self._summary

    def rank(self, value: int) -> float:
        """Rank estimate of ``value`` in the frozen stream: the midpoint
        of the sketch's bracket."""
        if self.size == 0:
            return 0.0
        lo, hi = self.sketch.rank_bounds(int(value))
        return (lo + hi) / 2.0


@dataclass
class _MemoEntry:
    """One partition set: its HS, and the TS last fused onto it."""

    summaries: List[PartitionSummary]
    historical: HistoricalSummary
    #: the retained TS (``None``: none) and what it was fused from.
    combined: Optional[CombinedSummary] = None
    stream_summary: Optional[StreamSummary] = None


class HistoricalMemo:
    """HS of the few partition sets in use, and the TS last fused on it.

    Keyed by the identity of the :class:`PartitionSummary` objects (an
    entry holds them, so an id cannot be recycled while its key is
    live).  A partition keeps its summary object for life, so a seal, a
    cascade merge, a staged pending batch, a windowed scope, a handle
    pinned before a merge and a restored checkpoint each simply ask for
    a different key: nothing is ever invalidated, stale sets age out of
    the LRU.  A set that extends a memoised one (a seal appends one
    partition) is grown from it, by every partition it lacks in one
    merge, instead of folded from scratch.  Built by the first query
    that needs it, never on the seal path.

    An entry also retains the TS last fused onto its HS, returned while
    the stream summary handed in is the same object; a set entering the
    memo drops the TS of the sets it supersedes (they keep their HS).
    """

    #: full scope, the scope before the latest seal, a window or two.
    CAPACITY = 4

    def __init__(self) -> None:
        # Held across a fold and a fuse: queries pinned at the same set
        # and version (concurrent serving callers) wait for one.
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, _MemoEntry]" = OrderedDict()
        #: HS folded from scratch / grown from a memoised prefix, and
        #: TS handed out again instead of fused.
        self.builds = self.extends = self.reuses = 0

    def combined(
        self,
        summaries: Sequence[PartitionSummary],
        stream_summary: StreamSummary,
    ) -> CombinedSummary:
        """TS of ``summaries`` (in this order) and ``stream_summary``."""
        key = tuple(map(id, summaries))
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                prefix = max(
                    (k for k in self._entries if k == key[: len(k)]),
                    key=len,
                    default=(),
                )
                if prefix:
                    historical = self._entries[prefix].historical.extended(
                        *summaries[len(prefix):]
                    )
                    self.extends += 1
                else:
                    historical = HistoricalSummary.fold(summaries)
                    self.builds += 1
                for older in self._entries.values():
                    older.combined, older.stream_summary = None, None
                entry = _MemoEntry(list(summaries), historical)
                self._entries[key] = entry
                if len(self._entries) > self.CAPACITY:
                    self._entries.popitem(last=False)
            self._entries.move_to_end(key)
            if (
                entry.combined is not None
                and entry.stream_summary is stream_summary
            ):
                self.reuses += 1
            else:
                entry.combined = CombinedSummary.fuse(
                    entry.historical, stream_summary
                )
                entry.stream_summary = stream_summary
            return entry.combined

    def check_invariants(self) -> None:
        """Assert every memoised HS and retained TS equals a fresh build,
        and that the TS is searched as its arrays would be."""
        with self._lock:
            entries = [replace(entry) for entry in self._entries.values()]
        names = ("values", "lower", "upper", "total_size")
        for entry in entries:
            ts = entry.combined
            fresh = HistoricalSummary.fold(entry.summaries)
            pairs = [(entry.historical, fresh, names)]
            if ts is not None:
                built = CombinedSummary.build(
                    entry.summaries, entry.stream_summary
                )
                # Arrays of a copy (unless it built its own): it stays small.
                held = ts if "_arrays" in vars(ts) else replace(ts)
                pairs.append((held, built, names + ("from_stream",)))
            for held, fresh, compared in pairs:
                if not all(
                    np.array_equal(getattr(held, n), getattr(fresh, n))
                    for n in compared
                ):
                    raise AssertionError(
                        f"memoised {type(fresh).__name__} is not a fresh build"
                    )
            if ts is None:
                continue
            # Algorithms 5 and 7 read off the fresh arrays, at the ranks
            # on and beside every 97th element's own bounds.
            near = np.rint(np.append(built.lower[::97], built.upper[::97]))
            for rank in (int(b) + step for b in near for step in (-1, 0, 1)):
                x = int(np.searchsorted(built.upper, rank, "right")) - 1
                y = int(np.searchsorted(built.lower, rank, "left"))
                u = int(built.values[x]) if x >= 0 else built.minimum - 1
                v = int(built.values[min(y, len(built) - 1)])
                searched = ts.quick_response(rank), ts.generate_filters(rank)
                if searched != (v, (min(u, v), max(u, v))):
                    raise AssertionError(
                        f"TS searched differs from TS built at rank {rank}"
                    )


class SnapshotHandle(PinnedView):
    """A refcounted pin of one consistent (HS, SS, partition-set) view.

    Created by :meth:`HybridQuantileEngine.pin`; release with
    :meth:`release` (or use as a context manager).  The verbs are
    :class:`~repro.core.query_path.PinnedView`'s, and so is the scope
    code; what is here is the pin: the registry refcount and the backend
    run pins, the pinned partition list, the shared :class:`StreamView`
    and the engine's :class:`HistoricalMemo` (one counted merge per
    resolution).
    """

    def __init__(
        self,
        registry: EpochRegistry,
        epoch: int,
        partitions: List[Partition],
        stream: StreamView,
        config: EngineConfig,
        disk: SimulatedDisk,
        executor: QueryExecutor,
        note_degraded: Callable[[], None],
        created_at_step: int,
        historical_memo: HistoricalMemo,
        shared_cache: Optional[SharedBlockCache] = None,
    ) -> None:
        super().__init__(config, executor, disk.latency)
        self._registry = registry
        self.epoch = epoch
        self.partitions = partitions
        self._stream = stream
        self.gk = stream.sketch  # shared with other handles: read only
        self._disk = disk
        self._note_degraded = note_degraded
        self.created_at_step = created_at_step
        self._shared_cache = shared_cache
        self._historical_memo = historical_memo
        self.n_historical = sum(len(p) for p in partitions)
        self.m_stream = stream.size
        # Eviction safety: a run referenced by a live handle is pinned
        # in the storage backend, so the hot-tier LRU never demotes a
        # run out from under this snapshot's probes.
        self._pinned_run_ids = [p.run.run_id for p in partitions]
        disk.backend.pin_runs(self._pinned_run_ids)

    def _release_pins(self) -> None:
        self._registry.release(self.epoch)
        self._disk.backend.unpin_runs(self._pinned_run_ids)

    # -- derived views --------------------------------------------------

    def stream_summary(self) -> StreamSummary:
        """SS of the pinned sketch version (extracted once per version)."""
        return self._stream.summary()

    def stream_rank(self, value: int) -> float:
        """Rank estimate of ``value`` in the pinned stream (midpoint)."""
        return self._stream.rank(value)

    def _partitions_in(
        self,
        window_steps: Optional[int],
        step_range: "Optional[tuple[int, int]]",
    ) -> List[Partition]:
        if step_range is not None:
            return resolve_range_in(self.partitions, *step_range)
        if window_steps is None:
            return self.partitions
        return resolve_window_in(self.partitions, window_steps)

    def _fuse(self, *scope: Any) -> CombinedSummary:
        """TS of the scope, counted against the registry's
        ``ts_merges`` (fused or reused)."""
        built = super()._fuse(*scope)
        self._registry.note_ts_merge()
        return built

    # -- queries --------------------------------------------------------

    def _new_cache(self) -> BlockCache:
        """A per-query cache reading through the engine's shared tier.

        It lives as long as one query or warming pass: the handle's
        pinned partitions stay probe-able after the live layout retires
        them, and their shared-tier blocks simply miss (charged,
        deterministic).
        """
        return BlockCache(
            self._disk,
            enabled=self.config.block_cache,
            shared=self._shared_cache,
        )

    def warm(
        self,
        phis: Sequence[float],
        window_steps: Optional[int] = None,
    ) -> int:
        """Prefetch the block ranges accurate queries for ``phis`` probe.

        For each ``phi`` the TS filters ``(u, v)`` are generated exactly
        as the accurate search would, and every partition whose
        candidate range is confined to ``config.prefetch_blocks`` blocks
        is read in one charged ranged read into the shared tier, through
        a cache of the pass's own.  A no-op (returns 0) when no shared
        tier is attached.  Returns the number of blocks charged by the
        warming pass.
        """
        if self._shared_cache is None:
            return 0
        cache = self._new_cache()
        combined = self.combined(window_steps)
        total = combined.total_size
        if total == 0:
            return 0
        from ..query.planner import QueryPlanner

        planner = QueryPlanner(self.scope(window_steps)[0])
        for phi in phis:
            rank = max(1, min(rank_for_phi(phi, total), total))
            u, v = combined.generate_filters(rank)
            # No skip set across phis: each phi confines a different
            # block range, and the cache dedupes per block anyway.
            tasks = planner.prefetch_reads(u, v, self.config.prefetch_blocks)
            if tasks:
                self._executor.run_tasks(tasks, cache)
        return cache.blocks_charged

    def _on_degraded(self, cache: BlockCache) -> None:
        self._note_degraded()
