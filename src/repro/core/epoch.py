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
and answering the *same* rank against the *same* handle or TS is
deterministic, which the concurrency stress suite exploits to check
bit-identical replay.

:class:`EpochRegistry` counts the epoch bumps and the live pins, and
:class:`HistoricalMemo` the TS merges — the serving benchmark's
coalescing ratio is ``ts_merges / requests_served``.  Leaving an epoch
behind frees nothing: a merge deletes the runs it replaced at once, and
a handle pinned before it reads bytes that were already copied into
memory.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, List, NamedTuple, Optional, Sequence

import numpy as np

from ..sketches.base import QuantileSketch, rank_for_phi
from ..stats import EPOCH_FIELDS, StatsTable
from ..storage.cache import BlockCache
from ..warehouse.partition import Partition
from .bounds import CombinedSummary, HistoricalSummary
from .filters import prefetch_tasks
from .query_path import PinnedView
from .summaries import PartitionSummary, StreamSummary
from .windows import resolve_range_in, resolve_window_in


class EpochRegistry:
    """Monotone epoch counter; counts bumps and live pins into ``table``
    (the engine's :class:`~repro.stats.StatsTable`, else its own)."""

    def __init__(self, table: Optional[StatsTable] = None) -> None:
        self._lock = threading.Lock()
        self._epoch = 0
        self.table = table if table is not None else StatsTable()
        self.table.declare(EPOCH_FIELDS.values())

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
            self.table[f"epoch.{reason}_bumps"] += 1
            return self._epoch

    def pin(self) -> None:
        """Register one pinned handle."""
        with self._lock:
            table = self.table
            table["core.epoch.live_pins"] += 1
            table.peak("core.epoch.peak_pins", table["core.epoch.live_pins"])

    def release(self) -> None:
        """Drop one handle's pin."""
        with self._lock:
            self.table["core.epoch.live_pins"] -= 1


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
        lo, hi = self.sketch.rank_bounds(int(value))
        return (lo + hi) / 2.0

    def steps(self) -> np.ndarray:
        """Sorted values ``rank`` steps at: it counts those <= ``value``."""
        return self.sketch._arrays()[0]


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
    merge, instead of folded from scratch.  The first query folds one;
    from then on each adoption grows the adopted set (:meth:`grow`), so
    the first query after a seal fuses only the stream half.

    An entry also retains the TS last fused onto its HS, returned while
    the stream summary handed in is the same object and otherwise
    re-fused from it, its SS entries that kept their value keeping their
    HS position; a set entering the memo drops the TS of the sets it
    supersedes (they keep their HS).
    """

    #: full scope, the scope before the latest seal, a window or two.
    CAPACITY = 4

    def __init__(self, table: Optional[StatsTable] = None) -> None:
        # Held across a fold and a fuse: queries pinned at the same set
        # and version (concurrent serving callers) wait for one.
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, _MemoEntry]" = OrderedDict()
        #: counts, under the lock, every TS resolution (``ts_merges``),
        #: TS handed out again instead of fused (``ts_reuses``) and HS
        #: folded from scratch / grown from a memoised prefix.
        self.table = table if table is not None else StatsTable()
        self.table.declare(EPOCH_FIELDS.values())

    @property
    def empty(self) -> bool:
        """Whether no query has resolved a set yet (nothing to grow)."""
        return not self._entries

    def grow(self, summaries: Sequence[PartitionSummary]) -> None:
        """Resolve the entry of ``summaries`` and fuse nothing: an
        adoption's, so the next query fuses only its stream half.  A no-op
        while a memoised set extends this one (queries staged ahead)."""
        key = tuple(map(id, summaries))
        with self._lock:
            if not any(k[: len(key)] == key for k in self._entries):
                self._entry(summaries, key)

    def combined(
        self,
        summaries: Sequence[PartitionSummary],
        stream_summary: StreamSummary,
        key: Optional[tuple] = None,
    ) -> CombinedSummary:
        """TS of ``summaries`` (in this order) and ``stream_summary``;
        ``key`` is ``tuple(map(id, summaries))``, composed if not given."""
        key = key or tuple(map(id, summaries))
        with self._lock:
            self.table["epoch.ts_merges"] += 1
            entry = self._entry(summaries, key)
            if (
                entry.combined is not None
                and entry.stream_summary is stream_summary
            ):
                self.table["epoch.ts_reuses"] += 1
            else:
                entry.combined = CombinedSummary.fuse(
                    entry.historical, stream_summary, entry.combined
                )
                entry.stream_summary = stream_summary
            return entry.combined

    def _entry(
        self, summaries: Sequence[PartitionSummary], key: tuple
    ) -> _MemoEntry:
        """The most recently used entry of ``key`` (lock held), its HS
        grown from the longest memoised prefix or folded if it is new."""
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
                self.table["epoch.hs_extends"] += 1
            else:
                historical = HistoricalSummary.fold(summaries)
                self.table["epoch.hs_builds"] += 1
            for older in self._entries.values():
                older.combined, older.stream_summary = None, None
            entry = _MemoEntry(list(summaries), historical)
            self._entries[key] = entry
            if len(self._entries) > self.CAPACITY:
                self._entries.popitem(last=False)
        self._entries.move_to_end(key)
        return entry

    def check_invariants(self) -> None:
        """Assert every memoised HS and retained TS equals a fresh build,
        field by field."""
        with self._lock:
            entries = [replace(entry) for entry in self._entries.values()]
        for entry in entries:
            fold = HistoricalSummary.fold(entry.summaries)
            pairs = [(entry.historical, fold)]
            if entry.combined is not None:
                built = CombinedSummary.build(
                    entry.summaries, entry.stream_summary
                )
                pairs.append((entry.combined, built))
            for held, fresh in pairs:
                if not all(
                    np.array_equal(a, b)
                    for a, b in zip(_fields(held), _fields(fresh))
                ):
                    raise AssertionError(
                        f"memoised {type(fresh).__name__} is not a fresh build"
                    )


def _fields(summary: Any) -> "tuple":
    """What a memoised HS or TS must share with a fresh build."""
    if isinstance(summary, HistoricalSummary):
        return (summary.values, summary.lower, summary.upper,
                summary.total_size)
    return (*_fields(summary.historical), summary.entries, summary.gaps,
            *summary.lower_tables, *summary.upper_tables, summary.total_size)


class Layout(NamedTuple):
    """What every handle pinned at one epoch reads off the partition set:
    its partitions in step order (pending batches staged), the runs a
    pin holds, and the non-empty ones' summaries in HS order with their
    memo key.  Derived by the first pin at the epoch, shared by the rest.
    """

    epoch: int
    step: int
    n_historical: int
    run_ids: List[int]
    key: tuple
    #: the objects ``run_ids`` and ``key`` name (fields 0-4 compare).
    partitions: List[Partition]
    summaries: List[PartitionSummary]


class SnapshotHandle(PinnedView):
    """A pin of one consistent (HS, SS, partition-set) view.

    Created by :meth:`HybridQuantileEngine.pin`; release with
    :meth:`release` (or use as a context manager).  One built with
    ``pin=False`` holds no pins and is born released.  The verbs are
    :class:`~repro.core.query_path.PinnedView`'s, and so is the scope
    code; what is here is the pin: the registry's pin count and the
    backend run pins, the epoch's shared :class:`Layout`, the shared
    :class:`StreamView` and the engine's :class:`HistoricalMemo` (one
    counted merge per resolution).
    """

    def __init__(
        self, engine: Any, layout: Layout, stream: StreamView, pin: bool = True
    ) -> None:
        disk = engine.disk
        super().__init__(engine.config, engine.query_executor, disk.latency)
        self._engine = engine
        self._layout = layout
        (self.epoch, self.created_at_step, self.n_historical, self._run_ids,
         self._key, self.partitions, self._summaries) = layout
        self._stream = stream
        self.gk = stream.sketch  # shared with other handles: read only
        self.m_stream = stream.size
        self._historical_memo = engine._historical_memo
        self._released = not pin
        if pin:
            self._pin()

    def _pin(self) -> None:
        """Take a registry pin and a backend pin per run (what
        :meth:`_release_pins` drops): the hot tier's LRU never demotes a
        pinned run from under a probe."""
        self._engine._epochs.pin()
        self._engine.disk.backend.pin_runs(self._run_ids)

    def _release_pins(self) -> None:
        self._engine._epochs.release()
        self._engine.disk.backend.unpin_runs(self._run_ids)

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

    # -- queries --------------------------------------------------------

    def _new_cache(self) -> BlockCache:
        """A per-query cache reading through the engine's shared tier.

        It lives as long as one query or warming pass: the handle's
        pinned partitions stay probe-able after the live layout retires
        them, and their shared-tier blocks simply miss (charged,
        deterministic).
        """
        return BlockCache(
            self._engine.disk,
            enabled=self.config.block_cache,
            shared=self._engine.shared_cache,
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
        if self._engine.shared_cache is None:
            return 0
        cache = self._new_cache()
        combined = self.combined(window_steps)
        total = combined.total_size
        partitions = [p for p in self.scope(window_steps)[0] if len(p) > 0]
        for phi in phis:
            rank = max(1, min(rank_for_phi(phi, total), total))
            u, v = combined.generate_filters(rank)
            # No skip set across phis: each phi confines a different
            # block range, and the cache dedupes per block anyway.
            tasks = prefetch_tasks(
                partitions, u, v, self.config.prefetch_blocks
            )
            if tasks:
                self._executor.run_tasks(tasks, cache)
        return cache.blocks_charged
