"""The archiver: the one consumer of sealed batches.

Sealed batches (:class:`PendingBatch`) are drained into the warehouse
one at a time, in step order: stage (sort + write + summary), then
adopt (splice into the leveled layout, cascading merges and all).
The producer picks who runs that step at each hand-off:
``enqueue_reserved`` leaves the batch to the archiver's thread, so
``stream_update*`` resumes immediately; ``archive_reserved`` runs it
on the calling thread and returns its record.  Either way queries
snapshot the layout *plus* the pending set under the store's layout
lock, so they always see the full union exactly once.

Determinism.  Batches are archived strictly in submission order, and
each step's I/O is accounted through per-thread captures
(:meth:`~repro.storage.stats.DiskStats.capture`), so the per-step
:class:`ArchiveRecord` stream is identical — answers, I/O counters,
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
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..faults.errors import DiskFault
from ..faults.retry import RetryPolicy
from ..storage.stats import PhaseTally
from ..warehouse.leveled_store import LeveledStore
from .pending import PendingBatch

#: Backpressure bound every engine archives under: sealed batches that
#: may be pending (staged but not adopted) before ``reserve`` blocks.
MAX_PENDING_BATCHES = 4


class ArchiveFailedError(RuntimeError):
    """Archiving a sealed batch failed; the cause is chained as
    ``__cause__``.  Raised by every producer call (and ``close``) once
    the consumer has recorded a fatal error."""


@dataclass
class IngestStats:
    """Cumulative instrumentation of one archiver.

    Attributes
    ----------
    batches_enqueued, batches_archived:
        Lifetime submit / completion counts.
    max_queue_depth:
        High-water mark of the pending queue.
    stall_seconds:
        Total wall time ``end_time_step`` blocked the stream (seal
        plus backpressure waits).
    archive_wall_seconds:
        Total wall time the archiver spent archiving (stage + adopt).
    archive_phase_seconds:
        Archive latency split by phase (``sort`` / ``load`` /
        ``summary`` / ``merge``), summed across steps.
    fault_retries:
        Archive attempts retried after a transient disk fault.
    disk_faults:
        Disk faults the archiver thread has hit (retried or fatal).
    degraded_queries:
        Accurate queries on the owning engine that fell back to the
        quick response after exhausting probe retries (mirrored here so
        background deployments can watch one stats object).
    """

    batches_enqueued: int = 0
    batches_archived: int = 0
    max_queue_depth: int = 0
    stall_seconds: float = 0.0
    archive_wall_seconds: float = 0.0
    archive_phase_seconds: Dict[str, float] = field(default_factory=dict)
    fault_retries: int = 0
    disk_faults: int = 0
    degraded_queries: int = 0

    def note_phases(self, cpu: Dict[str, float]) -> None:
        """Accumulate one step's per-phase archive latency."""
        for phase, seconds in cpu.items():
            self.archive_phase_seconds[phase] = (
                self.archive_phase_seconds.get(phase, 0.0) + seconds
            )


@dataclass(frozen=True)
class ArchiveRecord:
    """Everything one archived step cost — the engine turns this into
    the :class:`~repro.core.engine.StepReport` that ``flush`` returns.
    """

    step: int
    batch_elems: int
    io: PhaseTally
    cpu: Dict[str, float]
    merged_levels: bool
    stall_seconds: float
    queue_depth: int
    archive_wall_seconds: float


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
        Backpressure bound: ``submit`` blocks while this many batches
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
    """

    def __init__(
        self,
        store: LeveledStore,
        max_pending: int = MAX_PENDING_BATCHES,
        retry: Optional[RetryPolicy] = None,
        on_adopt: Optional[Callable[[int], None]] = None,
    ) -> None:
        if max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        self._store = store
        self._max_pending = max_pending
        self._retry = retry if retry is not None else RetryPolicy()
        self._on_adopt = on_adopt
        self._cond = threading.Condition(store.layout_lock)
        self._pending: List[PendingBatch] = []
        # Queue slots claimed by reserve() but not yet filled by
        # enqueue_reserved(); counted against the backpressure bound so
        # a reserved seal can never overshoot max_pending.
        self._reserved = 0
        self._records: List[ArchiveRecord] = []
        self._busy = False
        self._paused = False
        self._shutdown = False
        self._error: Optional[BaseException] = None
        self._error_delivered = False
        self.stats = IngestStats()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Producer side (the engine thread)
    # ------------------------------------------------------------------

    def submit(self, batch: PendingBatch) -> "tuple[float, int]":
        """Enqueue a sealed batch; returns (blocked seconds, depth).

        The batch becomes part of the queryable pending set the moment
        this returns (atomically with layout snapshots).  Blocks only
        when ``max_pending`` batches are already queued.
        """
        blocked = self.reserve()
        depth = self.enqueue_reserved(batch)
        return blocked, depth

    def reserve(self) -> float:
        """Claim a queue slot, blocking under backpressure.

        Split out of :meth:`submit` so the engine can absorb the
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
            self.stats.batches_enqueued += 1
            self.stats.max_queue_depth = max(
                self.stats.max_queue_depth, depth
            )
            if self._thread is None:
                self._thread = threading.Thread(
                    target=self._run, name="repro-ingest", daemon=True
                )
                self._thread.start()
            self._cond.notify_all()
        return depth

    def archive_reserved(self, batch: PendingBatch) -> ArchiveRecord:
        """Fill a slot claimed by :meth:`reserve` and archive the batch
        on the calling thread; returns its record.

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

    def pending_batches(self) -> List[PendingBatch]:
        """Snapshot of the sealed-but-unmerged batches, oldest first."""
        with self._cond:
            return list(self._pending)

    @property
    def queue_depth(self) -> int:
        """Current number of pending batches."""
        with self._cond:
            return len(self._pending)

    def drain(self) -> List[ArchiveRecord]:
        """Block until every submitted batch is archived.

        Returns the per-step records accumulated since the previous
        drain, in step order.  Raises the archiver thread's exception
        if archiving failed.
        """
        with self._cond:
            while (self._pending or self._busy) and self._error is None:
                if self._paused and self._pending:
                    raise RuntimeError("cannot drain a paused archiver")
                self._cond.wait()
            self._raise_if_failed()
            records, self._records = self._records, []
            return records

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

        If the archiver thread died on an error that no ``submit`` or
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

    def _note_retry(self, fault: DiskFault, attempt: int) -> None:
        """Count one retried archive attempt (between attempts)."""
        with self._cond:
            self.stats.fault_retries += 1
            self.stats.disk_faults += 1
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
            record = self._retry.call(
                lambda: self._archive_one(batch),
                on_retry=self._note_retry,
            )
        except BaseException as exc:
            with self._cond:
                if isinstance(exc, DiskFault):
                    self.stats.disk_faults += 1
                self._error = exc
                self._busy = False
                self._cond.notify_all()
            if isinstance(exc, Exception):
                return False
            raise  # an interrupt or exit is not the archiver's to keep
        with self._cond:
            self._records.append(record)
            self._busy = False
            self.stats.batches_archived += 1
            self.stats.archive_wall_seconds += record.archive_wall_seconds
            self.stats.note_phases(record.cpu)
            self._cond.notify_all()
        return True

    def _archive_one(self, batch: PendingBatch) -> ArchiveRecord:
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
        io = PhaseTally()
        io.add(batch.stage_io)
        io.add(adopt_io)
        return ArchiveRecord(
            step=batch.step,
            batch_elems=batch.size,
            io=io,
            cpu=cpu,
            merged_levels=io.phase("merge").total > 0,
            stall_seconds=batch.stall_seconds,
            queue_depth=depth_left,
            archive_wall_seconds=time.perf_counter() - started,
        )
