"""The hybrid quantile engine: the paper's primary contribution.

:class:`HybridQuantileEngine` wires together every piece:

* a :class:`~repro.warehouse.leveled_store.LeveledStore` (HD) on a
  :class:`~repro.storage.disk.SimulatedDisk`, with per-partition
  :class:`~repro.core.summaries.PartitionSummary` objects (HS) attached
  at partition-creation time;
* a :class:`~repro.sketches.gk.GKSketch` over the live stream, from
  which :class:`~repro.core.summaries.StreamSummary` (SS) is extracted
  at query time;
* the quick response (Algorithm 5) and the accurate response
  (Algorithms 6-8) over their combination;
* a :class:`~repro.query.executor.QueryExecutor` that runs the
  accurate response's per-partition probes inline, under the probe
  retry policy (Section 4's parallel partition reads are modeled by
  ``QueryResult.parallel_sim_seconds``);
* an ingest pipeline (:mod:`repro.ingest`) that seals each time step's
  batch and archives it (sort + level merges + summary construction)
  in one consumer step — on the sealing thread, or with
  ``config.ingest_mode = "background"`` on a background thread while
  ``stream_update*`` and queries continue: the paper's Algorithm 3
  setting of a warehouse loading batches while serving queries.

Typical use::

    engine = HybridQuantileEngine(epsilon=1e-3, kappa=10)
    for batch in workload:
        engine.stream_update_many(batch)    # vectorized live stream
        ... engine.quantile(0.5) ...        # query any time
        engine.end_time_step()              # archive the batch
    engine.flush()                          # drain background archiving

The write path is *lazily absorbed*: ``stream_update`` and
``stream_update_many`` only append to the growable array buffer and
fold the batch into the running aggregates; the GK sketch swallows the
not-yet-absorbed buffer tail in one sort-once/merge-once pass
(:meth:`~repro.sketches.gk.GKSketch.update_many`) the first time a
reader needs it — a pin, a stream-summary extraction, a checkpoint.
Feeding the same elements one at a time or in arrays of any batch size
therefore produces *bit-identical* sketch state and answers for the
same query schedule, while batched feeding is orders of magnitude
faster (``benchmarks/test_update_timing.py`` guards the >= 10x win).

Every update and query reports its disk-access counts and timings, so
the benchmark harness reads the same metrics the paper plots.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, List, Optional, Sequence

import numpy as np

from ..faults.errors import DiskFault
from ..faults.health import ReliabilityReport
from ..faults.plan import FaultPlan
from ..faults.retry import ARCHIVE_RETRY_POLICY, PROBE_RETRY_POLICY
from ..ingest import AppendBuffer, BackgroundArchiver, IngestStats, PendingBatch
from ..ingest.archiver import StepReport
from ..query.executor import QueryExecutor
from ..sketches.base import QuantileSketch, as_int64_batch
from ..sketches.gk import GKSketch
from ..sketches.kll import KLLSketch
from ..storage.backends import make_backend
from ..storage.disk import SimulatedDisk
from ..storage.shared_cache import SharedBlockCache
from ..storage.stats import PhaseTally
from ..warehouse.compaction import LeveledCompactionStore
from ..warehouse.leveled_store import LeveledStore
from ..warehouse.partition import Partition
from .bounds import CombinedSummary
from .config import EngineConfig
from .epoch import (
    EpochRegistry,
    EpochStats,
    HistoricalMemo,
    Layout,
    SnapshotHandle,
    StreamView,
)
from .query_path import PinnedQueries
from .summaries import PartitionSummary, StreamSummary
from .aggregates import AggregateStats, combine, partition_stats
from .windows import resolve_range_in, resolve_window_in, window_sizes_from

_logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class MemoryReport:
    """Breakdown of the engine's main-memory footprint in words."""

    stream_sketch_words: int
    stream_summary_words: int
    historical_summary_words: int

    @property
    def stream_words(self) -> int:
        """Words held by the stream-side structures."""
        return self.stream_sketch_words + self.stream_summary_words

    @property
    def total_words(self) -> int:
        """Total words across all in-memory structures."""
        return self.stream_words + self.historical_summary_words

    @property
    def total_megabytes(self) -> float:
        """Total footprint in megabytes."""
        return self.total_words * 8 / (1024 * 1024)


class HybridQuantileEngine(PinnedQueries):
    """Quantile queries over the union of historical and streaming data.

    Parameters
    ----------
    epsilon:
        Error parameter: accurate queries have rank error ``O(eps*m)``
        where m is the live stream size.  Ignored when ``config`` is
        given.
    kappa:
        Merge threshold of the historical store.
    block_elems:
        Simulated disk block size in elements.
    config:
        Full configuration; overrides the individual arguments.
    fault_plan:
        The schedule the engine's disk fails on (``None``: never).  The
        engine builds that disk itself, at ``config.block_elems`` over
        the configured storage backend, and closes the backend with it.
    """

    def __init__(
        self,
        epsilon: Optional[float] = None,
        kappa: int = 10,
        block_elems: int = 1024,
        config: Optional[EngineConfig] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if config is None:
            if epsilon is None:
                raise ValueError("pass epsilon or a full EngineConfig")
            config = EngineConfig(
                epsilon=epsilon, kappa=kappa, block_elems=block_elems
            )
        self.config = config
        self.disk = SimulatedDisk(
            config.block_elems,
            backend=make_backend(
                config.storage_backend,
                directory=config.storage_dir,
                object_tier_level=config.object_tier_level,
                hot_tier_bytes=config.hot_tier_bytes,
            ),
            plan=fault_plan,
        )
        flavour = (
            LeveledCompactionStore
            if config.compaction == "leveled"
            else LeveledStore
        )
        self.store = flavour(
            self.disk,
            kappa=config.kappa,
            summary_builder=self._build_partition_summary,
        )
        # Process-wide shared block cache (the cross-query tier).  0
        # blocks means no tier: every query pays the paper's per-query
        # accounting exactly — the historical code path, bit for bit.
        self.shared_cache: Optional[SharedBlockCache] = (
            SharedBlockCache(config.shared_cache_blocks)
            if config.shared_cache_blocks > 0
            else None
        )
        # Compaction merges retire runs inside the store's layout-lock
        # critical sections; invalidate their cached blocks in the same
        # sections so residency never outlives a run.
        self.store.on_retire = self._on_runs_retired
        self._step = 0
        # The empty engine's layout at epoch 0 (see _current_layout).
        self._layout: Optional[Layout] = Layout(0, 0, 0, [], (), [], [])
        self._gk = self._fresh_stream_sketch()
        self._buffer = AppendBuffer()
        self._m = 0
        self._stream_stats = AggregateStats.empty()
        # Lazy absorption: stream updates only touch the buffer and the
        # aggregates under _stream_lock; _gk_absorbed counts how many
        # buffered elements the GK sketch has swallowed.  Readers call
        # _absorb_stream_tail() to bulk-insert the remainder before
        # looking at the sketch.  Lock order (never reversed):
        # _seal_lock -> _stream_lock -> the sketch's mutate lock.
        self._stream_lock = threading.Lock()
        self._gk_absorbed = 0
        self._stream_view: Optional[StreamView] = None  # under _seal_lock
        self._query_executor = QueryExecutor(retry=PROBE_RETRY_POLICY)
        # Epoch layer: every structural transition (seal, adoption)
        # bumps the epoch — the serving layer's consistency unit — and
        # the registry counts the live pins.
        self._epochs = EpochRegistry()
        # The historical half of TS per partition set and the TS last
        # fused onto it, shared by every handle this engine pins.
        self._historical_memo = HistoricalMemo()
        # Serializes end_time_step's seal (take buffer + reset sketch +
        # enqueue pending) against pin(): a reader never observes the
        # instant where a sealed batch is in neither the stream nor the
        # pending set.
        self._seal_lock = threading.RLock()
        self._archiver = BackgroundArchiver(
            self.store,
            retry=ARCHIVE_RETRY_POLICY,
            # Adoption changes the partition set, so it bumps the epoch
            # — inside the same critical section that splices the
            # partition, keeping epoch and layout in lockstep.  A sync
            # step adopts inside its seal's own section: one transition,
            # already stamped by the seal's bump.
            on_adopt=(
                (lambda step: self._epochs.bump("adopt"))
                if config.ingest_mode == "background"
                else None
            ),
            after_adopt=self._grow_historical_memo,
        )
        # Optional durability: when attached, every acked batch and
        # seal is appended (and fsynced) to the log before it is
        # applied, so a crash replays to the exact acked state.
        self._wal = None

    # ------------------------------------------------------------------
    # Stream ingestion (Algorithm 4) and warehouse loading (Algorithm 3)
    # ------------------------------------------------------------------

    def _fresh_stream_sketch(self) -> QuantileSketch:
        # The sketch runs at eps2/2 so the extracted summary meets
        # Lemma 1's one-sided guarantee (see StreamSummary.extract);
        # for KLL the guarantee holds w.h.p. rather than surely.  The
        # KLL seed is the current step count, so a replay of the same
        # per-step feed reproduces the sketch bit-for-bit.
        if self.config.sketch_backend == "kll":
            return KLLSketch(self.config.epsilon2 / 2.0, seed=self._step)
        return GKSketch(self.config.epsilon2 / 2.0)

    def _on_runs_retired(self, run_ids: "Sequence[int]") -> None:
        """Invalidate retired runs' blocks (store ``on_retire`` hook).

        Runs inside the layout-lock critical section that removed the
        runs from the layout — the same section adoption's epoch bump
        uses — so a pinned handle either sees the pre-merge layout with
        residency intact or the post-merge layout with it gone, never a
        stale mix.
        """
        self._layout = None  # the epoch bump follows unless adoption faults
        if self.shared_cache is not None:
            self.shared_cache.invalidate_runs(run_ids)
        # Release the retired runs' backend storage.  Handles held by
        # pinned snapshots stay readable: backends materialize a run's
        # bytes into memory before unlinking its file.
        backend = self.disk.backend
        for run_id in run_ids:
            backend.delete_run(run_id)

    def _build_partition_summary(self, partition: Partition) -> PartitionSummary:
        # Aggregates ride along with the summary: both are computed
        # while the partition is written, at no extra disk access.
        partition.stats = partition_stats(partition)
        return PartitionSummary.build(partition, self.config.epsilon1)

    def stream_update(self, value: int) -> None:
        """Process one live stream element (amortized O(1) buffering).

        Appends to the array buffer and folds the value into the
        running aggregates; the GK sketch absorbs it lazily at the next
        read point (see :meth:`stream_update_many`).  Thread-safe
        against concurrent readers and the sealing path.  The value is
        checked like a one-element batch: what :meth:`stream_update_many`
        refuses raises here before the WAL or the buffer sees it.
        """
        arr = as_int64_batch([value])
        value = int(arr[0])
        if self._wal is not None:
            self._wal.append_batch(arr)
        with self._stream_lock:
            self._buffer.append(value)
            self._stream_stats = self._stream_stats.with_value(value)
            self._m += 1

    def stream_update_many(self, values: np.ndarray) -> int:
        """Process a numpy batch of live stream elements at once.

        The vectorized write path: one buffer extend (a single array
        copy) plus one vectorized aggregate merge per call, regardless
        of batch size.  The GK sketch is *not* touched here — the
        not-yet-absorbed buffer tail is bulk-inserted, sort once and
        merge once, the next time a reader needs the sketch (a pin, a
        stream summary, a checkpoint).  Because scalar updates follow
        the same lazy protocol, feeding identical elements through
        ``stream_update`` or this method in batches of any size yields
        bit-identical answers for the same query schedule.

        Parameters
        ----------
        values:
            Array or list of integers, flattened if not 1-D; floats,
            NaN, bools and out-of-range ``uint64`` raise, never truncate.

        Returns
        -------
        int
            Number of elements ingested.

        Thread-safe against concurrent readers and the sealing path.
        """
        arr = as_int64_batch(values)
        if arr.size == 0:
            return 0
        if self._wal is not None:
            self._wal.append_batch(arr)
        stats = AggregateStats.of_array(arr)
        with self._stream_lock:
            self._buffer.extend(arr)
            self._stream_stats = self._stream_stats.merge(stats)
            self._m += int(arr.size)
        return int(arr.size)

    @property
    def wal(self):
        """The attached :class:`~repro.ingest.wal.WriteAheadLog`, or
        ``None``; :meth:`attach_wal` and :meth:`detach_wal` change it."""
        return self._wal

    def attach_wal(self, wal) -> None:
        """Attach a :class:`~repro.ingest.wal.WriteAheadLog`.

        Every subsequent ``stream_update`` / ``stream_update_many``
        batch and every ``end_time_step`` seal is appended (and made
        durable) *before* it is applied, so returning from those calls
        constitutes a durable ack.  :meth:`close` closes the log;
        callers that share a writer across engine incarnations (a
        cluster quarantining a shard) should :meth:`detach_wal` first.
        """
        if self._wal is not None:
            raise ValueError("engine already has a write-ahead log")
        self._wal = wal

    def detach_wal(self):
        """Detach and return the write-ahead log (ownership transfers)."""
        wal, self._wal = self._wal, None
        return wal

    def _absorb_stream_tail(self) -> None:
        """Bulk-insert the not-yet-absorbed buffer tail into the sketch,
        at every sketch read point, under the stream lock: the absorbed
        length and the sketch advance atomically with respect to updates
        and seals, and appends (which may reallocate the buffer) wait.
        GK sorts a whole step where it sits, bounded by the stream's
        aggregates: the seal's copy is then ascending, and its sorter
        finds nothing to sort."""
        with self._stream_lock:
            start, stats = self._gk_absorbed, self._stream_stats
            if start == 0 and isinstance(self._gk, GKSketch):
                self._gk.update_many(
                    self._buffer.contents(), in_place=True,
                    bounds=(stats.minimum, stats.maximum),
                )
            elif start < len(self._buffer):
                self._gk.update_many(self._buffer.slice_from(start))
            self._gk_absorbed = len(self._buffer)

    def stream_sketch(self) -> GKSketch:
        """The live GK sketch with every buffered element absorbed.

        The sanctioned way to read the engine's stream sketch:
        absorbing first keeps the sketch's ``n`` equal to
        :attr:`m_stream`.  The returned object is the live sketch, not
        a copy — take ``.snapshot()`` to query it while ingestion
        continues.
        """
        self._absorb_stream_tail()
        return self._gk

    def stream_state(self) -> "tuple[QuantileSketch, np.ndarray, int]":
        """What a checkpoint saves of the engine besides its store: the
        live sketch with every buffered element absorbed, a copy of the
        buffer it absorbed and the sealed-step count, as
        :meth:`restore_stream` takes them back."""
        sketch = self.stream_sketch()
        with self._stream_lock:
            return sketch, np.array(self._buffer.slice_from(0)), self._step

    def restore_stream(
        self, sketch: QuantileSketch, buffer: np.ndarray, step: int
    ) -> None:
        """Take back what :meth:`stream_state` gave a checkpoint, into a
        fresh engine whose store already holds the checkpoint's
        partitions.  ``sketch`` must have absorbed exactly ``buffer``,
        and ``step`` may not trail the store; raises ``ValueError``
        otherwise.  The layout cached before the store filled is
        dropped: the store changed, the epoch did not."""
        if sketch.n != buffer.size:
            raise ValueError("stream sketch count disagrees with stream buffer")
        if step < self.store.steps_loaded:
            raise ValueError(
                f"step {step} trails the store's {self.store.steps_loaded}"
            )
        with self._seal_lock, self._stream_lock:
            self._gk = sketch
            self._buffer.extend(buffer)
            self._stream_stats = AggregateStats.of_array(buffer)
            self._m = self._gk_absorbed = int(buffer.size)
            self._step = int(step)
            self._layout = None

    def end_time_step(self) -> StepReport:
        """Archive the current stream batch into HD and reset SS.

        Algorithm 3 plus StreamReset, in two halves.  The *seal* — WAL
        frame, take the buffer, reset the sketch, wrap the batch in a
        :class:`~repro.ingest.PendingBatch`, bump the epoch — happens
        here, under the epoch layer's seal lock and so atomically with
        respect to :meth:`pin`: a concurrent reader sees the sealed
        elements either still in the stream or already in the pending
        set, never in neither.  The *archive* — sort, write as a
        level-0 partition, attach the summary, cascade-merge full
        levels — is the archiver's one consumer step, and
        ``config.ingest_mode`` only chooses who runs it: ``"sync"`` the
        calling thread, before the seal lock is released, returning the
        authoritative report; ``"background"`` the archiver thread,
        returning a provisional report (``archived=False``) —
        :meth:`flush` drains and yields the authoritative ones.

        A fault that outlasts :data:`ARCHIVE_RETRY_POLICY` leaves the
        batch in the queryable pending set and raises
        :class:`~repro.ingest.archiver.ArchiveFailedError` from this
        call (sync) or the next producer call (background).  Any
        backpressure wait happens *before* the lock is taken, so pins
        are never blocked behind a full archiver queue.
        """
        started = time.perf_counter()
        archiver = self._archiver
        archiver.reserve()
        if self._wal is not None:
            # Logged once the seal is sure to happen: a refused reserve
            # (a failed archive) seals nothing, so it logs nothing.
            try:
                self._wal.append_seal(self._step + 1)
            except BaseException:
                archiver.unreserve()
                raise
        with self._seal_lock:
            self._step += 1
            with self._stream_lock:
                pending = PendingBatch(
                    step=self._step, values=self._buffer.take()
                )
                pending.stats = self._stream_stats
                self._m = 0
                self._gk = self._fresh_stream_sketch()
                self._gk_absorbed = 0
                self._stream_stats = AggregateStats.empty()
            self._stream_view = None
            self._epochs.bump("seal")
            if self.config.ingest_mode != "background":
                report = archiver.archive_reserved(pending)
                wall = time.perf_counter() - started
                return replace(
                    report, stall_seconds=wall, archive_wall_seconds=wall
                )
            depth = archiver.enqueue_reserved(pending)
        stall = time.perf_counter() - started
        pending.stall_seconds = stall
        archiver.stats.stall_seconds += stall
        return StepReport.of(
            pending.step, pending.size, PhaseTally(), {"seal": stall},
            self.disk.latency, stall_seconds=stall, queue_depth=depth,
            archived=False,
        )

    def flush(self) -> List[StepReport]:
        """Drain background archiving; return the completed reports.

        Blocks until every enqueued batch has been archived, then
        returns one authoritative :class:`StepReport` per step archived
        since the previous ``flush`` (step order).  Answers, per-phase
        I/O counters and invariants match what the synchronous mode
        reports for the same stream.  Returns ``[]`` in sync mode
        (``end_time_step`` already returned each report); raises
        :class:`~repro.ingest.archiver.ArchiveFailedError` in either
        mode once a batch has failed to archive.
        """
        return self._archiver.drain()

    def _grow_historical_memo(self) -> None:
        """Grow the memo's HS for the adopted partition set (archiver
        ``after_adopt`` hook) once a query has put an entry in it, so the
        next query fuses SS alone; takes the layout lock, then the memo's.
        A sync seal, under its seal lock, derives the epoch's layout too."""
        if not self._historical_memo.empty:
            if self.config.ingest_mode != "background":
                self._layout = self._derive_layout()
            self._historical_memo.grow(
                [p.summary for p in self.store.partitions() if len(p) > 0]
            )

    @property
    def ingest_stats(self) -> Optional[IngestStats]:
        """Cumulative background-ingest instrumentation.

        ``None`` until the first background ``end_time_step`` (always
        ``None`` in sync mode, where no batch reaches the thread).
        """
        return self._archiver.stats if self._archiver.threaded else None

    def note_archive_retry(self, fault: DiskFault, attempt: int) -> None:
        """Count a retried archive read or write (a recovery scan's)."""
        self._archiver.note_retry(fault, attempt)

    @property
    def reliability(self) -> ReliabilityReport:
        """Cumulative failure-handling counters across subsystems.

        Zeros everywhere (``report.healthy``) under the null fault
        plan; the disk contributes its fired-fault and degraded-query
        counts, the archiver and query executor their retry counts.
        """
        return ReliabilityReport(
            disk_faults=self.disk.faults_fired,
            archive_retries=self._archiver.stats.fault_retries,
            probe_retries=self._query_executor.fault_retries,
            degraded_queries=self.disk.degraded_queries,
        )

    # ------------------------------------------------------------------
    # Queries (Algorithms 5-8)
    # ------------------------------------------------------------------

    @property
    def n_historical(self) -> int:
        """Number of sealed historical elements n (archived + pending)."""
        partitions, pending, _ = self._layout_snapshot()
        return sum(map(len, partitions)) + sum(map(len, pending))

    @property
    def m_stream(self) -> int:
        """Number of live (unarchived) stream elements m."""
        return self._m

    @property
    def n_total(self) -> int:
        """Total number of elements N = n + m."""
        return self.n_historical + self._m

    @property
    def steps_loaded(self) -> int:
        """Highest time step fully archived into the leveled layout."""
        return self.store.steps_loaded

    @property
    def steps_sealed(self) -> int:
        """Highest time step sealed by ``end_time_step``.

        Equals :attr:`steps_loaded` in sync mode; in background mode it
        may run ahead while batches wait in the archiver's queue (all of
        them still fully queryable).
        """
        return self._step

    def _current_stream_view(self) -> StreamView:
        """The sketch's current version, tail absorbed (seal lock held):
        the held view while the live sketch is the same object with the
        same ``n`` — every write raises ``n`` or installs another."""
        self._absorb_stream_tail()
        view, live = self._stream_view, self._gk
        if view is None or view.source is not live or view.size != live.n:
            view = self._stream_view = StreamView(
                live.snapshot(), self.config.epsilon2, live
            )
        return view

    def stream_summary(self) -> StreamSummary:
        """SS of the live stream (Algorithm 4), every element absorbed:
        extracted from the frozen view :meth:`pin` hands out, never off
        the live sketch, and the same object until an element arrives."""
        with self._seal_lock:
            view = self._current_stream_view()
        return view.summary()

    def _layout_snapshot(
        self,
    ) -> "tuple[List[Partition], List[PendingBatch], int]":
        """Atomic (adopted layout, pending set, epoch) triple."""
        with self.store.layout_lock:
            return (
                self.store.partitions(),
                self._archiver.pending_batches(),
                self._epochs.current,
            )

    def _derive_layout(self) -> Layout:
        """The current epoch's layout, derived afresh (seal lock held).

        The adopted layout and the archiver's pending set (empty in
        sync mode unless an archive failed) are snapshotted
        *atomically* under the layout lock (the archiver adopts and
        unlinks in one critical section of the same lock), so every
        sealed batch appears exactly once no matter how the snapshot
        races an in-flight adoption.  Pending batches are then staged
        by this thread if needed — work-stealing, so a query never
        waits behind an in-flight cascade merge.
        """
        ordered, pending, epoch = self._layout_snapshot()
        for batch in pending:
            # Staging writes to disk, so it runs under the probe retry
            # policy; an exhausted retry propagates as a typed fault —
            # a query must never silently drop a sealed batch from the
            # union it answers over.
            ordered.append(
                self._query_executor.call_with_retry(
                    lambda batch=batch: batch.ensure_staged(self.store)
                )
            )
        summaries = [p.summary for p in ordered if len(p) > 0]
        return Layout(
            epoch, self._step, sum(map(len, ordered)),
            [p.run.run_id for p in ordered], tuple(map(id, summaries)),
            ordered, summaries,
        )

    def _current_layout(self) -> Layout:
        """The current epoch's layout (seal lock held): derived by the
        first reader that sees the epoch, shared by every later one.  An
        epoch bump outdates it; a cascade merge and a restore drop it."""
        layout = self._layout
        if layout is None or layout.epoch != self._epochs.current:
            layout = self._layout = self._derive_layout()
        return layout

    def _pins_as(self, layout: Layout, stream: StreamView) -> bool:
        """Whether a pin now would read ``layout`` and ``stream``: no
        lock, yet linearizable, as each field read only moves away from
        what a pin saw (the epoch grows, a dropped layout or sketch is
        never reinstalled, ``m`` grows while the sketch stays).  If all
        match, all held from that pin to the first read; a check racing
        a seal sees the old version whole, ordered before it, or fails.
        """
        return (
            self._layout is layout
            and layout.epoch == self._epochs.current
            and stream.source is self._gk
            and stream.size == self._m
        )

    def pin(self) -> SnapshotHandle:
        """Pin a consistent (HS, SS, partition-set) view.

        The layout (adopted plus staged pending partitions) and the
        stream view are taken atomically under the seal lock, so the
        handle's union is exactly the engine's state at one instant — a
        seal or adoption either happened before the pin or after it,
        never halfway.  Release the handle (or use it as a context
        manager) so the registry can retire old epochs.

        Handles pinned at one epoch share one :class:`Layout`, derived
        by the first; with no stream updates in between they also share
        one sketch snapshot, one SS and one TS, and answer every query
        identically — the property the serving layer's coalescer and
        the stress suite's bit-identical replay build on.  The engine's
        own quick verbs read that same pair without pinning it.
        """
        with self._seal_lock:
            layout = self._current_layout()
            stream = self._current_stream_view()
        return SnapshotHandle(self, layout, stream)

    def _current_ts(self, *scope: Any) -> "tuple[CombinedSummary, dict, int, int]":
        """The TS a pin now would read over the scope, pinning nothing:
        the (layout, stream) pair taken as :meth:`pin` takes it.  A
        window or step range asks a handle born released; the full
        scope takes what that handle's ``combined()`` would (the same
        memo lookup, one counted merge) without building it: a handle
        would add about an eighth to a memo-hit quick answer."""
        with self._seal_lock:
            layout = self._current_layout()
            stream = self._current_stream_view()
        if scope != (None, None):
            view = SnapshotHandle(self, layout, stream, pin=False)
            return view._current_ts(*scope)
        self._epochs.note_ts_merge()
        memo, key = self._historical_memo, layout.key
        ts = CombinedSummary.build(layout.summaries, stream.summary(), memo, key)
        return ts, {}, 1, layout.epoch

    @property
    def epoch_stats(self) -> EpochStats:
        """The epoch layer's counters (pins, bumps, TS merges), with
        the summary memo's build/extend/reuse counters merged in."""
        return replace(
            self._epochs.stats(),
            hs_builds=self._historical_memo.builds,
            hs_extends=self._historical_memo.extends,
            ts_reuses=self._historical_memo.reuses,
        )

    def warm_shared_cache(
        self,
        phis: "Sequence[float]",
        window_steps: Optional[int] = None,
    ) -> int:
        """Prefetch the block ranges accurate queries for ``phis`` probe.

        Pins a snapshot, generates each phi's TS filters and reads the
        confined per-partition block ranges into the shared tier in
        batched ranged reads (charged under the query phase, like the
        probes they stand in for).  A no-op returning 0 when the shared
        tier is disabled.  Returns the number of blocks charged.
        """
        if self.shared_cache is None:
            return 0
        with self._query_pin() as handle:
            return handle.warm(phis, window_steps=window_steps)

    def aggregate(
        self,
        window_steps: Optional[int] = None,
        step_range: "Optional[tuple[int, int]]" = None,
    ) -> AggregateStats:
        """Exact count/sum/min/max/mean over an aligned scope.

        Covers the full union by default, the last ``window_steps``
        steps plus the live stream, or a historical ``step_range``
        (stream excluded) — all exact and free of disk access, since
        per-partition aggregates were computed at write time and the
        live stream's aggregates are maintained incrementally.  (The
        full-union scope stays disk-free even mid-archive: sealed
        pending batches carry their seal-time aggregates.  Windowed /
        range scopes with batches still pending stage them first,
        charging the same write I/O archiving would have.)

        Layout, pending set and stream aggregates are read in one seal
        lock section, as :meth:`pin` reads its view: a batch being
        sealed is counted in the stream or in the warehouse, never in
        neither.  A size :meth:`available_window_sizes` listed before a
        merging seal may be refused: the
        :class:`~repro.core.windows.WindowNotAlignedError`'s
        ``available`` lists the sizes of the layout that refused it.
        """
        if step_range is not None and window_steps is not None:
            raise ValueError("pass window_steps or step_range, not both")
        with self._seal_lock:
            partitions, pending, _ = self._layout_snapshot()
            stream = self._stream_stats
            if step_range is not None or window_steps is not None:
                partitions, pending = self._current_layout().partitions, []
        if step_range is not None:
            partitions = resolve_range_in(partitions, *step_range)
            stream = AggregateStats.empty()
        elif window_steps is not None:
            partitions = resolve_window_in(partitions, window_steps)
        result = combine(
            p.stats if p.stats is not None else partition_stats(p)
            for p in partitions
        )
        for batch in pending:
            result = result.merge(batch.stats)
        return result.merge(stream)

    def available_window_sizes(self) -> List[int]:
        """Historical window sizes currently answerable (Figure 11).

        Mid-archive the pending suffix counts too — a window ending at
        the last *sealed* step is answerable before archiving finishes.
        Not atomic with a later windowed query: a seal in between that
        merges may refuse a listed size (see :meth:`aggregate`).
        """
        with self._seal_lock:
            return window_sizes_from(self._current_layout().partitions)

    # ------------------------------------------------------------------
    # Query execution resources
    # ------------------------------------------------------------------

    @property
    def query_executor(self) -> QueryExecutor:
        """The executor running this engine's per-partition probes."""
        return self._query_executor

    def close(self) -> None:
        """Drain background ingest and release resources (idempotent).

        The archiver (if any) finishes archiving every enqueued batch
        before its thread stops, then the WAL and the disk's backend
        are closed.  Sync-mode engines never start a thread,
        so calling this is only required for background-mode
        deployments that create many engines; the interpreter also
        joins remaining threads at exit.

        If the archiver failed on an error nothing surfaced yet, the
        error is raised here (as :class:`~repro.ingest.archiver.
        ArchiveFailedError`) — *after* the WAL and backend are
        released, so the engine is fully shut down either way.
        """
        try:
            self._archiver.close()
        finally:
            try:
                if self._wal is not None:
                    self._wal.close()
                    self._wal = None
            finally:
                self.disk.backend.close()

    def __enter__(self) -> "HybridQuantileEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.close()
        except Exception:
            if exc_type is None:
                raise
            # The body is already unwinding with its own exception;
            # losing that for the archiver's would mask the root cause.
            # Resources are released either way (close's finally).
            _logger.warning(
                "suppressed background archiving failure while the "
                "engine exited with %s", exc_type.__name__, exc_info=True,
            )

    # ------------------------------------------------------------------
    # Accounting and invariants
    # ------------------------------------------------------------------

    def memory_report(self) -> MemoryReport:
        """Actual main-memory footprint of all in-memory structures.

        Counts summaries of already-staged pending partitions too, but
        does not force staging (reporting memory must not perform I/O).
        The stream sketch absorbs any buffered tail first — CPU-only
        work — so its reported footprint covers every ingested element.
        """
        self._absorb_stream_tail()
        partitions, pending, _ = self._layout_snapshot()
        partitions += [b.partition for b in pending if b.staged]
        hist = sum(
            p.summary.memory_words()
            for p in partitions
            if p.summary is not None
        )
        beta2 = self.config.beta2
        return MemoryReport(
            stream_sketch_words=self._gk.memory_words(),
            stream_summary_words=beta2 + 2,
            historical_summary_words=hist,
        )

    def check_invariants(self) -> None:
        """Assert structural invariants of HD and HS (tests/debugging).

        In background mode the pending partitions are staged and
        checked too (their summaries obey the same gap invariant), and
        the layout pins share must equal a fresh derivation at its epoch.
        """
        self.store.check_invariant()
        self._historical_memo.check_invariants()
        with self._seal_lock:
            fresh = self._derive_layout()
            held = self._current_layout()
            settled = self._epochs.current == fresh.epoch  # no adoption since
        if settled and held[:5] != fresh[:5]:
            raise AssertionError("the shared layout is not a fresh derivation")
        for partition in held.partitions:
            summary: PartitionSummary = partition.summary
            if summary is None:
                raise AssertionError(f"partition {partition!r} lacks summary")
            if len(partition) and len(summary.values):
                if summary.values[0] != partition.run.values[0]:
                    raise AssertionError("summary must start at the minimum")
                gap_limit = summary.eps1 * summary.partition_size + 1
                gaps = np.diff(summary.positions)
                if len(gaps) and gaps.max() > math.ceil(gap_limit):
                    raise AssertionError("summary rank gaps exceed eps1 * mP")
