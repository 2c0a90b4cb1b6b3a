"""I/O accounting for the simulated block device.

The paper's primary performance metric is the *number of disk accesses*
(block reads and writes), split into sequential I/O (loading, sorting,
merging partitions — Lemma 6) and random I/O (query-time binary-search
probes — Lemma 7).  Every storage-layer operation in this package reports
its cost through an :class:`IoCounters` instance, and a
:class:`DiskLatencyModel` converts the counts into simulated seconds so
benchmarks can report a "time" axis comparable in shape to the paper's
wall-clock figures.

A :class:`DiskStats` keeps each charge once, in the :class:`IoCounters`
of its phase (``load`` / ``sort`` / ``merge`` / ``query``); its grand
total :attr:`DiskStats.counters` is their sum, computed when read.

Thread safety: :class:`DiskStats` serializes every ``record_*`` call
behind a lock, so the background ingest archiver (``repro.ingest``),
serving clients and callers driving one engine from several threads
never lose counts to a torn ``+=``.  The *phase* a sequential charge is
attributed to is tracked per thread, so the archiver's ``"merge"``
never leaks into another thread's charges; a random read is always
``"query"``, so queries set no phase.  The disk's tallies see every
thread's charges; an operation's own I/O is counted one way,
:meth:`DiskStats.capture`, a :class:`DiskStats` of only the charges
made by the capturing thread.
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


@dataclass
class DiskStats:
    """Per-phase I/O tallies of one simulated disk, or of one
    :meth:`capture`.

    One :class:`IoCounters` per phase that the update benchmarks
    (Fig. 6 and Fig. 7) break out — load, sort, merge — plus query;
    :attr:`counters` sums them.
    """

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

    @property
    def counters(self) -> IoCounters:
        """Every phase's charges summed: a fresh tally, read now."""
        total = IoCounters()
        with self._lock:
            for phase in PHASES:
                total.add(getattr(self, phase))
        return total

    def add(self, other: "DiskStats") -> None:
        """Accumulate another tally (a capture) into this one."""
        for phase in PHASES:
            getattr(self, phase).add(getattr(other, phase))

    def set_phase(self, phase: str) -> None:
        """Direct this thread's subsequent accesses to a phase sub-tally.

        ``phase`` must be one of ``"load"``, ``"sort"``, ``"merge"`` or
        ``"query"``.  The phase is per-thread (threads that never call
        ``set_phase`` charge to ``"load"``): the archiver thread can be
        mid-merge while another thread stages a batch under ``"load"``,
        and neither misdirects the other's counts.
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
        clobbering its caller's phase.
        """
        previous = self.current_phase
        self.set_phase(phase)
        try:
            yield
        finally:
            self.set_phase(previous)

    def _captures(self) -> "List[DiskStats]":
        stack = getattr(self._local, "captures", None)
        if stack is None:
            stack = []
            self._local.captures = stack
        return stack

    @contextmanager
    def capture(self) -> "Iterator[DiskStats]":
        """Tally the charges made *by this thread* inside the block.

        Unlike a difference of the disk's tallies, a capture is immune
        to concurrent charges from other threads, so the background
        archiver can account one time step's I/O exactly while queries
        (or another staging thread) charge the same disk.  Captures nest;
        each level sees its own charges plus those of any inner capture.
        """
        tally = DiskStats()
        stack = self._captures()
        stack.append(tally)
        try:
            yield tally
        finally:
            stack.pop()

    def _record(self, kind: str, blocks: int, phase: "str | None" = None) -> None:
        if phase is None:
            phase = self.current_phase
        bucket = getattr(self, phase)
        with self._lock:
            setattr(bucket, kind, getattr(bucket, kind) + blocks)
        for tally in self._captures():
            bucket = getattr(tally, phase)
            setattr(bucket, kind, getattr(bucket, kind) + blocks)

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
