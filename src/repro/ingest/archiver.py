"""The archiver: the one consumer of sealed batches.

Sealed batches (:class:`PendingBatch`) are drained into the warehouse
one at a time, in step order: stage (sort + write + summary), then
adopt (splice into the leveled layout, cascading merges and all).
The producer picks who runs that step at each hand-off:
``enqueue_reserved`` leaves the batch to the archiver's thread, so
``stream_update*`` resumes immediately; ``archive_reserved`` runs it
on the calling thread and returns its report.  Either way queries
snapshot the layout *plus* the pending set under the store's layout
lock, so they always see the full union exactly once.

Determinism.  Batches are archived strictly in submission order, and
each step's I/O is accounted through per-thread captures
(:meth:`~repro.storage.stats.DiskStats.capture`), so the per-step
:class:`StepReport` stream is identical — answers, I/O counters,
layout, invariants — whichever thread ran it and however queries
interleaved.

Backpressure.  At most ``max_pending`` batches may be queued; beyond
that ``reserve`` blocks, and the blocked time is the *stall* the
instrumentation reports (a caller that archives on its own thread
stalls for every step's full archive latency instead).

Failure isolation.  An archive attempt that hits a transient
:class:`~repro.faults.DiskFault` is retried in place with capped
exponential backoff (the batch never leaves the queue until adoption
succeeds, so a failed attempt re-queues it by construction — adoption
must stay in step order for the layout invariant).  Only a persistent
fault, an unexpected exception, or an exhausted retry budget poisons
the archiver, and even then the batch stays in the queryable pending
set and the error is *delivered*: ``archive_reserved`` and the next
``reserve``/``drain`` raise a typed :class:`ArchiveFailedError`, and
``close`` raises it if no producer call ever surfaced it — a failed
archive can not vanish silently.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from ..faults.errors import DiskFault
from ..faults.retry import RetryPolicy
from ..stats import INGEST_FIELDS, Reading, StatsTable
from ..storage.stats import DiskLatencyModel, DiskStats
from ..warehouse.leveled_store import LeveledStore
from .pending import PendingBatch

#: Backpressure bound every engine archives under: sealed batches that
#: may be pending (staged but not adopted) before ``reserve`` blocks.
MAX_PENDING_BATCHES = 4


class ArchiveFailedError(RuntimeError):
    """Archiving a sealed batch failed; the cause is chained as
    ``__cause__``.  Raised by every producer call (and ``close``) once
    the consumer has recorded a fatal error."""


@dataclass(frozen=True)
class StepReport:
    """What loading one time step into the warehouse cost.

    ``io_*`` fields are block counts; ``cpu_seconds`` is measured wall
    time by phase (``sort``, ``load`` the run's write, ``summary`` the
    sealed batch's own, ``merge`` the adopt — cascade merges with the
    merged partitions' summaries); ``sim_seconds`` applies the disk
    latency model to the I/O performed this step.

    In background ingest mode ``end_time_step`` returns a provisional
    report (``archived=False``, zero I/O) because the archive work has
    only been enqueued; ``flush`` later yields the authoritative
    per-step reports with ``archived=True``.
    """

    step: int
    batch_elems: int
    io_total: int
    io_load: int
    io_sort: int
    io_merge: int
    cpu_seconds: "dict[str, float]"
    sim_seconds: float
    merged_levels: bool
    #: wall seconds the *stream* was blocked for this step — the full
    #: archive latency in sync mode, only seal + backpressure wait in
    #: background mode.
    stall_seconds: float = 0.0
    #: batches pending behind this step when it was enqueued
    #: (provisional) or adopted (archived); 0 in sync mode.
    queue_depth: int = 0
    #: wall seconds the archive work itself took (== stall_seconds in
    #: sync mode; measured on the archiver thread in background mode).
    archive_wall_seconds: float = 0.0
    #: False for the provisional report background ``end_time_step``
    #: returns before the batch has actually been archived.
    archived: bool = True

    @classmethod
    def of(
        cls,
        step: int,
        batch_elems: int,
        io: DiskStats,
        cpu: Dict[str, float],
        latency: DiskLatencyModel,
        **timing: Any,
    ) -> "StepReport":
        """The report of a step that charged ``io`` (one thread's
        :meth:`~repro.storage.stats.DiskStats.capture`) and spent
        ``cpu`` seconds by phase; a phase it did not time reads 0.
        ``timing`` sets the fields after ``merged_levels``."""
        merge, counters = io.merge.total, io.counters
        return cls(
            step=step,
            batch_elems=batch_elems,
            io_total=counters.total,
            io_load=io.load.total,
            io_sort=io.sort.total,
            io_merge=merge,
            cpu_seconds={
                **dict.fromkeys(("sort", "merge", "summary", "load"), 0.0),
                **cpu,
            },
            sim_seconds=latency.seconds(counters),
            merged_levels=merge > 0,
            **timing,
        )


class BackgroundArchiver:
    """In-order archiving of sealed batches into one store.

    The consumer thread starts with the first batch handed to it
    (:meth:`enqueue_reserved`); an archiver whose producer only ever
    calls :meth:`archive_reserved` never owns a thread.

    Parameters
    ----------
    store:
        The warehouse the batches land in.  The archiver's condition
        variable wraps the store's layout lock, so "adopt the staged
        partition and unlink it from the pending set" is one atomic
        step relative to query snapshots.
    max_pending:
        Backpressure bound: ``reserve`` blocks while this many batches
        are pending.  Engines take the default,
        :data:`MAX_PENDING_BATCHES`.
    retry:
        Transient-fault retry policy for archive attempts; defaults to
        no retries (any fault is fatal), which is the pre-fault-model
        behaviour.  Engines pass
        :data:`~repro.faults.retry.ARCHIVE_RETRY_POLICY`.
    on_adopt:
        Optional callback invoked with the adopted batch's step inside
        the adopt critical section (layout lock held) — the engine uses
        it to bump the query epoch in lockstep with the layout change.
    after_adopt:
        Optional callback invoked once the adopt critical section is
        left (no archiver lock held), on whichever thread archived —
        the engine grows its summary memo there.
    table:
        Where the archiver counts (:data:`~repro.stats.INGEST_FIELDS`),
        under its condition's lock: the engine's
        :class:`~repro.stats.StatsTable`, else one of its own.
    """

    def __init__(
        self,
        store: LeveledStore,
        max_pending: int = MAX_PENDING_BATCHES,
        retry: Optional[RetryPolicy] = None,
        on_adopt: Optional[Callable[[int], None]] = None,
        after_adopt: Optional[Callable[[], None]] = None,
        table: Optional[StatsTable] = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self._store = store
        self._max_pending = max_pending
        self._retry = retry if retry is not None else RetryPolicy()
        self._on_adopt = on_adopt
        self._after_adopt = after_adopt
        self._cond = threading.Condition(store.layout_lock)
        self._pending: List[PendingBatch] = []
        # Queue slots claimed by reserve() but not yet filled by
        # enqueue_reserved(); counted against the backpressure bound so
        # a reserved seal can never overshoot max_pending.
        self._reserved = 0
        self._reports: List[StepReport] = []
        self._busy = False
        self._paused = False
        self._shutdown = False
        self._error: Optional[BaseException] = None
        self._error_delivered = False
        self.table = table if table is not None else StatsTable()
        self.table.declare(INGEST_FIELDS.values())
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Producer side (the engine thread)
    # ------------------------------------------------------------------

    def reserve(self) -> float:
        """Claim a queue slot, blocking under backpressure.

        Split from :meth:`enqueue_reserved` so the engine can absorb the
        (potentially long) backpressure wait *before* entering its seal
        critical section — pins and queries stay responsive while a
        producer waits for queue space.  Returns the seconds blocked.
        """
        started = time.perf_counter()
        with self._cond:
            self._raise_if_failed()
            while len(self._pending) + self._reserved >= self._max_pending:
                if self._shutdown:
                    raise RuntimeError("archiver is closed")
                self._cond.wait()
                self._raise_if_failed()
            if self._shutdown:
                raise RuntimeError("archiver is closed")
            self._reserved += 1
        return time.perf_counter() - started

    def unreserve(self) -> None:
        """Give back a slot claimed by :meth:`reserve` that no batch
        will fill."""
        with self._cond:
            self._reserved -= 1
            self._cond.notify_all()

    def enqueue_reserved(self, batch: PendingBatch) -> int:
        """Fill a slot claimed by :meth:`reserve` and leave the batch
        to the archiver thread; returns the depth.

        Never blocks — the slot is already reserved — so it is safe to
        call inside the engine's seal critical section.
        """
        with self._cond:
            self._reserved -= 1
            self._pending.append(batch)
            depth = len(self._pending)
            self.table["ingest.archiver.batches_enqueued"] += 1
            self.table.peak("ingest.archiver.max_queue_depth", depth)
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="repro-ingest", daemon=True
                )
                self._thread.start()
            self._cond.notify_all()
        return depth

    def archive_reserved(self, batch: PendingBatch) -> StepReport:
        """Fill a slot claimed by :meth:`reserve` and archive the batch
        on the calling thread; returns its report.

        For a producer that hands every batch over this way, so the
        batch is the whole queue.  A failed archive leaves it pending —
        still queryable — and raises :class:`ArchiveFailedError`, as
        every later producer call will.
        """
        with self._cond:
            self._reserved -= 1
            self._pending.append(batch)
        self._archive_head()
        return self.drain()[-1]  # or raises what _archive_head recorded

    def stats(self) -> Reading:
        """The archiver's counts (``ingest_stats``), at one instant."""
        with self._cond:
            return self.table.read(INGEST_FIELDS)

    def pending_batches(self) -> List[PendingBatch]:
        """Snapshot of the sealed-but-unmerged batches, oldest first."""
        with self._cond:
            return list(self._pending)

    @property
    def queue_depth(self) -> int:
        """Current number of pending batches."""
        with self._cond:
            return len(self._pending)

    def drain(self) -> List[StepReport]:
        """Block until every submitted batch is archived.

        Returns the per-step reports accumulated since the previous
        drain, in step order.  Raises the archiver thread's exception
        if archiving failed.
        """
        with self._cond:
            while (self._pending or self._busy) and self._error is None:
                if self._paused and self._pending:
                    raise RuntimeError("cannot drain a paused archiver")
                self._cond.wait()
            self._raise_if_failed()
            reports, self._reports = self._reports, []
            return reports

    def pause(self) -> None:
        """Suspend archiving (testing/benchmark hook).

        Sealed batches keep accumulating (and stay queryable as pending
        partitions) until :meth:`resume`; backpressure still applies.
        """
        with self._cond:
            self._paused = True

    def resume(self) -> None:
        """Resume archiving after :meth:`pause`."""
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    def close(self) -> None:
        """Drain remaining work and stop the thread (idempotent).

        If the archiver thread died on an error that no ``reserve`` or
        ``drain`` ever surfaced, ``close`` raises it (as
        :class:`ArchiveFailedError`) rather than silently joining — the
        caller must learn the warehouse is missing batches.
        """
        with self._cond:
            self._paused = False
            self._shutdown = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join()
        with self._cond:
            if self._error is not None and not self._error_delivered:
                self._raise_if_failed()

    @property
    def threaded(self) -> bool:
        """Whether a batch was ever handed to the archiver thread."""
        return self._thread is not None

    @property
    def failed(self) -> bool:
        """Whether the consumer has recorded a fatal error."""
        with self._cond:
            return self._error is not None

    def _raise_if_failed(self) -> None:
        if self._error is not None:
            self._error_delivered = True
            raise ArchiveFailedError(
                "background archiving failed"
            ) from self._error

    # ------------------------------------------------------------------
    # Consumer side (the archiver thread, or an archive_reserved caller)
    # ------------------------------------------------------------------

    def note_retry(self, fault: DiskFault, attempt: int) -> None:
        """Count one retried archive attempt (between attempts)."""
        with self._cond:
            self.table["faults.archive_retries"] += 1
            self._cond.notify_all()

    def _run(self) -> None:
        while True:
            with self._cond:
                while (
                    (self._paused or not self._pending)
                    and not self._shutdown
                ):
                    self._cond.wait()
                if not self._pending:
                    return  # shutdown with nothing left to archive
            if not self._archive_head():
                return  # failed: surfaced via _raise_if_failed

    def _archive_head(self) -> bool:
        """Archive the oldest pending batch under the retry policy.

        Transient faults are retried with capped backoff; the batch
        stays ``self._pending[0]`` (still queryable) across attempts,
        so a failed attempt is a re-queue, not a loss.  Persistent
        faults, unexpected exceptions and an exhausted retry budget are
        recorded as the archiver's fatal error: returns whether the
        batch was archived.
        """
        with self._cond:
            batch = self._pending[0]
            self._busy = True
        try:
            report = self._retry.call(
                lambda: self._archive_one(batch),
                on_retry=self.note_retry,
            )
        except BaseException as exc:
            with self._cond:
                self._error = exc
                self._busy = False
                self._cond.notify_all()
            if isinstance(exc, Exception):
                return False
            raise  # an interrupt or exit is not the archiver's to keep
        with self._cond:
            self._reports.append(report)
            self._busy = False
            self.table["ingest.archiver.batches_archived"] += 1
            self.table["ingest.archiver.archive_wall_s"] += (
                report.archive_wall_seconds
            )
            self._cond.notify_all()
        return True

    def _archive_one(self, batch: PendingBatch) -> StepReport:
        """Stage (if a query didn't already) and adopt one batch."""
        stats = self._store.disk.stats
        started = time.perf_counter()
        partition = batch.ensure_staged(self._store)
        cpu = dict(batch.stage_cpu)
        with stats.capture() as adopt_io:
            merge_started = time.perf_counter()
            with self._cond:
                # Atomic with respect to layout snapshots: the batch
                # leaves the pending set in the same critical section
                # that splices its partition into the layout, so a
                # query sees it exactly once — pending or adopted.
                self._store.adopt_partition(partition)
                self._pending.pop(0)
                depth_left = len(self._pending)
                if self._on_adopt is not None:
                    # Epoch bump rides the same critical section as the
                    # splice, so pins see layout and epoch in lockstep.
                    self._on_adopt(batch.step)
                self._cond.notify_all()
            cpu["merge"] = time.perf_counter() - merge_started
        if self._after_adopt is not None:
            self._after_adopt()
        io = DiskStats()
        io.add(batch.stage_io)
        io.add(adopt_io)
        return StepReport.of(
            batch.step, batch.size, io, cpu, self._store.disk.latency,
            stall_seconds=batch.stall_seconds,
            queue_depth=depth_left,
            archive_wall_seconds=time.perf_counter() - started,
        )
