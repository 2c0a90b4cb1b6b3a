"""I/O accounting for the simulated block device.

The paper's primary performance metric is the *number of disk accesses*
(block reads and writes), split into sequential I/O (loading, sorting,
merging partitions — Lemma 6) and random I/O (query-time binary-search
probes — Lemma 7).  Every storage-layer operation in this package reports
its cost through an :class:`IoCounters` instance, and a
:class:`DiskLatencyModel` converts the counts into simulated seconds so
benchmarks can report a "time" axis comparable in shape to the paper's
wall-clock figures.

Thread safety: :class:`DiskStats` serializes every ``record_*`` call
behind a lock, so the background ingest archiver (``repro.ingest``),
serving clients and callers driving one engine from several threads
never lose counts to a torn ``+=``.  The
*phase* a charge is attributed to is tracked per thread: a query thread
running in the ``"query"`` phase and the archiver thread running in the
``"merge"`` phase each keep their own attribution, so the per-phase
split stays exact under concurrency.  A snapshot
(:meth:`IoCounters.snapshot`) sees every thread's charges; for
concurrent-safe per-operation accounting use :meth:`DiskStats.capture`,
which tallies only the charges made by the capturing thread.
"""

from __future__ import annotations

import threading

from dataclasses import dataclass, field
from typing import Iterator, List

from contextlib import contextmanager

PHASES = ("load", "sort", "merge", "query")


@dataclass
class IoCounters:
    """Mutable tally of block-granular disk operations.

    Attributes
    ----------
    sequential_reads:
        Blocks read as part of a sequential scan (sort / merge input).
    sequential_writes:
        Blocks written sequentially (loading a batch, writing a merged
        partition).
    random_reads:
        Blocks read at arbitrary offsets (query-time probes).
    """

    sequential_reads: int = 0
    sequential_writes: int = 0
    random_reads: int = 0

    @property
    def total(self) -> int:
        """Total number of disk accesses of any kind."""
        return self.sequential_reads + self.sequential_writes + self.random_reads

    @property
    def sequential(self) -> int:
        """Total sequential accesses (reads plus writes)."""
        return self.sequential_reads + self.sequential_writes

    def add(self, other: "IoCounters") -> None:
        """Accumulate another tally into this one."""
        self.sequential_reads += other.sequential_reads
        self.sequential_writes += other.sequential_writes
        self.random_reads += other.random_reads

    def snapshot(self) -> "IoCounters":
        """Return an independent copy of the current counts."""
        return IoCounters(
            sequential_reads=self.sequential_reads,
            sequential_writes=self.sequential_writes,
            random_reads=self.random_reads,
        )

    def delta_since(self, earlier: "IoCounters") -> "IoCounters":
        """Return the counts accumulated since ``earlier`` was snapshotted."""
        return IoCounters(
            sequential_reads=self.sequential_reads - earlier.sequential_reads,
            sequential_writes=self.sequential_writes - earlier.sequential_writes,
            random_reads=self.random_reads - earlier.random_reads,
        )

    def reset(self) -> None:
        """Zero all counters."""
        self.sequential_reads = 0
        self.sequential_writes = 0
        self.random_reads = 0


@dataclass(frozen=True)
class DiskLatencyModel:
    """Converts I/O counts into simulated seconds.

    The paper's Section 2.4 example assumes "a fast hard disk can access
    1 block per millisecond"; sequential transfers on the same class of
    disk are roughly an order of magnitude cheaper per block, which is
    the default here.
    """

    seconds_per_sequential_block: float = 1e-4
    seconds_per_random_block: float = 1e-3

    def seconds(self, counters: IoCounters) -> float:
        """Simulated seconds spent on the accesses in ``counters``."""
        return (
            counters.sequential * self.seconds_per_sequential_block
            + counters.random_reads * self.seconds_per_random_block
        )


class PhaseTally:
    """Per-phase I/O tally filled in by :meth:`DiskStats.capture`.

    One :class:`IoCounters` per maintenance phase plus a grand total —
    the same shape as :class:`DiskStats` itself, but private to the
    capturing thread, so concurrent activity on other threads never
    leaks into it.
    """

    def __init__(self) -> None:
        self.total = IoCounters()
        self.by_phase = {phase: IoCounters() for phase in PHASES}

    def phase(self, phase: str) -> IoCounters:
        """The tally of one phase."""
        return self.by_phase[phase]

    def add(self, other: "PhaseTally") -> None:
        """Accumulate another capture into this one."""
        self.total.add(other.total)
        for phase in PHASES:
            self.by_phase[phase].add(other.by_phase[phase])


@dataclass
class DiskStats:
    """Aggregated statistics for one simulated disk.

    Keeps both running totals and per-phase sub-tallies that the update
    benchmarks (Fig. 6 and Fig. 7) break out: load, sort, merge.
    """

    counters: IoCounters = field(default_factory=IoCounters)
    load: IoCounters = field(default_factory=IoCounters)
    sort: IoCounters = field(default_factory=IoCounters)
    merge: IoCounters = field(default_factory=IoCounters)
    query: IoCounters = field(default_factory=IoCounters)

    _local: threading.local = field(
        default_factory=threading.local, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def set_phase(self, phase: str) -> None:
        """Direct this thread's subsequent accesses to a phase sub-tally.

        ``phase`` must be one of ``"load"``, ``"sort"``, ``"merge"`` or
        ``"query"``.  The phase is per-thread (threads that never call
        ``set_phase`` charge to ``"load"``): the archiver thread can be
        mid-merge while query threads attribute their own charges to
        ``"query"``, and neither misdirects the other's counts.
        """
        if phase not in PHASES:
            raise ValueError(f"unknown I/O phase: {phase!r}")
        self._local.phase = phase

    @property
    def current_phase(self) -> str:
        """The phase this thread currently charges to."""
        return getattr(self._local, "phase", "load")

    @contextmanager
    def phase_scope(self, phase: str) -> Iterator[None]:
        """Run a block under ``phase``, restoring this thread's phase after.

        Lets a query thread that steals staging work (see
        ``repro.ingest``) charge the sort/write correctly without
        clobbering its own ``"query"`` attribution.
        """
        previous = self.current_phase
        self.set_phase(phase)
        try:
            yield
        finally:
            self.set_phase(previous)

    def _bucket(self) -> IoCounters:
        return getattr(self, self.current_phase)

    def _captures(self) -> "List[PhaseTally]":
        stack = getattr(self._local, "captures", None)
        if stack is None:
            stack = []
            self._local.captures = stack
        return stack

    @contextmanager
    def capture(self) -> Iterator[PhaseTally]:
        """Tally the charges made *by this thread* inside the block.

        Unlike a ``snapshot``/``delta_since`` pair on the global
        counters, a capture is immune to concurrent charges from other
        threads, so the background archiver can account one time step's
        I/O exactly while queries (or another staging thread) charge the
        same disk.  Captures nest; each level sees its own charges plus
        those of any inner capture.
        """
        tally = PhaseTally()
        stack = self._captures()
        stack.append(tally)
        try:
            yield tally
        finally:
            stack.pop()

    def _record(self, kind: str, blocks: int, phase: "str | None" = None) -> None:
        bucket = getattr(self, phase) if phase is not None else self._bucket()
        effective = phase if phase is not None else self.current_phase
        with self._lock:
            setattr(self.counters, kind, getattr(self.counters, kind) + blocks)
            setattr(bucket, kind, getattr(bucket, kind) + blocks)
        for tally in self._captures():
            setattr(tally.total, kind, getattr(tally.total, kind) + blocks)
            phase_bucket = tally.by_phase[effective]
            setattr(phase_bucket, kind, getattr(phase_bucket, kind) + blocks)

    def record_sequential_read(self, blocks: int = 1) -> None:
        """Tally sequential block reads (atomic)."""
        self._record("sequential_reads", blocks)

    def record_sequential_write(self, blocks: int = 1) -> None:
        """Tally sequential block writes (atomic)."""
        self._record("sequential_writes", blocks)

    def record_random_read(self, blocks: int = 1) -> None:
        """Tally random block reads (atomic).

        Random I/O is definitionally query-phase in this system
        (Lemma 7: the only random accesses are query-time probes), so
        it is attributed to the ``query`` sub-tally directly rather
        than through the thread's current phase — keeping the per-phase
        split exact even for callers that never set a phase.
        """
        self._record("random_reads", blocks, phase="query")
