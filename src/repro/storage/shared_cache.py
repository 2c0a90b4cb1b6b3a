"""The warehouse-resident shared block cache (cross-query tier).

The paper's Section 2.4 pins blocks *per query*: a query never pays
twice for the same (run, block) pair, and :class:`~repro.storage.cache.
BlockCache` implements exactly that accounting before being thrown away
with the query.  Under the concurrent serving layer that is wasteful:
32 clients asking for the same handful of quantiles re-read the same
upper index blocks and the same narrow ranges around popular phi
values, each paying full simulated random-read latency.

:class:`SharedBlockCache` is the tier between per-query caches and the
:class:`~repro.storage.disk.SimulatedDisk`: a capacity-bounded,
process-wide (one per engine) cache of resident (run, block) pairs.  A
per-query :class:`BlockCache` consults it read-through: the first touch
of a block by a query is **charged** only when the shared tier misses;
a shared hit is free and counted separately, so the paper's accounting
("blocks charged per query") becomes a cold/warm quantity the cache
ablation measures instead of a constant.

Design notes
------------

* **2Q eviction.**  Residency is managed by a simplified 2Q policy
  (Johnson & Shasha): new blocks enter a FIFO *probation* queue sized
  at a quarter of the capacity; a block re-referenced while on
  probation is promoted to the *protected* LRU segment.  One-shot
  scans (prefetched block ranges) therefore wash through probation
  without evicting the hot upper index blocks that every binary search
  touches.
* **Single-flight fetch coalescing.**  Concurrent queries missing on
  the same block dedupe into one in-flight fetch: the first racer
  claims the block in a flight registry, charges it, and resolves the
  flight; everyone else waits on the flight and counts a coalesced
  hit.  Each block is charged exactly once, so *aggregate* charge
  counts are deterministic under a fixed seed (per-query attribution
  of a charge may move between racing queries; the total cannot), the
  backend sees one request per distinct range instead of one per
  racing client, and waiters never serialize behind the charging
  thread's backend latency.  A failed fetch delivers its exception to
  every waiter and leaves the blocks non-resident (nothing is
  poisoned; the next probe retries).
* **One lock.**  Queues, membership, the flight registry and the
  counters live under a single structure lock that is never held
  across a charge or a wait.
* **Epoch-aware invalidation.**  Compaction merges and background
  adoptions retire runs inside the layout-lock critical sections that
  bump the :class:`~repro.core.epoch.EpochRegistry`; the store's
  ``on_retire`` hook calls :meth:`invalidate_run` from those same
  sections.  Retired run ids are remembered and refused re-insertion:
  run ids are globally unique (never recycled), so a pinned
  :class:`~repro.core.epoch.SnapshotHandle` that keeps probing a
  pre-merge run simply misses (charged, correct, deterministic) and
  can never be served a block belonging to a different run's data.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Set, Tuple


@dataclass(frozen=True)
class SharedCacheStats:
    """One consistent reading of a :class:`SharedBlockCache`'s counters."""

    #: configured capacity in blocks.
    capacity_blocks: int
    #: blocks currently resident.
    resident_blocks: int
    #: lookups answered from the cache (no disk charge).
    hits: int
    #: lookups that went to the (simulated) disk.
    misses: int
    #: resident blocks evicted by the 2Q policy.
    evictions: int
    #: blocks dropped because their run retired.
    invalidated_blocks: int
    #: runs invalidated (compaction victims and adoptions).
    invalidated_runs: int
    #: misses of prefetch / warm range reads (``SortedRun.read_block_range``).
    prefetched_blocks: int
    #: lookups that joined another query's in-flight fetch instead of
    #: issuing their own (single-flight coalescing).  Each coalesced
    #: wait is a backend request saved; ``coalesced_waits / misses`` is
    #: the dedup ratio the cold-read ablation reports.
    coalesced_waits: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served without a disk charge."""
        total = self.lookups
        return self.hits / total if total else 0.0


class _Flight:
    """One in-flight fetch of a (run, block) pair.

    The claiming thread charges the fetch, then resolves the flight;
    every other thread that raced on the block waits on ``done`` and
    shares the outcome.  ``error`` carries a failed fetch's exception
    to all waiters — the block stays non-resident, so the next probe
    retries instead of reading poisoned state.
    """

    __slots__ = ("done", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.error: "BaseException | None" = None


class SharedBlockCache:
    """Capacity-bounded cross-query cache of (run, block) residency.

    Parameters
    ----------
    capacity_blocks:
        Maximum number of resident blocks (>= 1).  Engines create this
        tier only when ``EngineConfig.shared_cache_blocks > 0``; zero
        means "no shared tier", which reproduces the historical
        per-query accounting exactly.
    """

    def __init__(self, capacity_blocks: int) -> None:
        if capacity_blocks < 1:
            raise ValueError("capacity_blocks must be >= 1")
        self.capacity_blocks = capacity_blocks
        self._probation_target = max(1, capacity_blocks // 4)
        # (run_id, block) -> None, in arrival / recency order.
        self._probation: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        self._protected: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        self._by_run: Dict[int, Set[int]] = {}
        self._retired_runs: Set[int] = set()
        self._lock = threading.Lock()  # queues + membership + flights + stats
        self._flights: "Dict[Tuple[int, int], _Flight]" = {}
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidated_blocks = 0
        self._invalidated_runs = 0
        self._prefetched_blocks = 0
        self._coalesced_waits = 0

    # ------------------------------------------------------------------
    # Residency bookkeeping (all under self._lock)
    # ------------------------------------------------------------------

    def _resident(self, key: Tuple[int, int]) -> bool:
        return key in self._probation or key in self._protected

    def _promote(self, key: Tuple[int, int]) -> None:
        """Re-reference: probation -> protected, or refresh LRU order."""
        if key in self._protected:
            self._protected.move_to_end(key)
        elif key in self._probation:
            del self._probation[key]
            self._protected[key] = None

    def _insert(self, key: Tuple[int, int]) -> None:
        self._probation[key] = None
        self._by_run.setdefault(key[0], set()).add(key[1])
        self._evict_over_capacity()

    def _evict_over_capacity(self) -> None:
        while len(self._probation) + len(self._protected) > self.capacity_blocks:
            # 2Q: drain an over-full probation queue first, else the
            # protected segment's LRU tail.
            if self._probation and (
                len(self._probation) > self._probation_target
                or not self._protected
            ):
                victim, _ = self._probation.popitem(last=False)
            else:
                victim, _ = self._protected.popitem(last=False)
            run_blocks = self._by_run.get(victim[0])
            if run_blocks is not None:
                run_blocks.discard(victim[1])
                if not run_blocks:
                    self._by_run.pop(victim[0], None)
            self._evictions += 1

    # ------------------------------------------------------------------
    # The read-through protocol (called by per-query BlockCache)
    # ------------------------------------------------------------------

    def fetch_range(
        self,
        run_id: int,
        first_block: int,
        last_block: int,
        charge: Callable[[int], None],
        prefetch: bool = False,
    ) -> Tuple[int, int]:
        """Look up a contiguous block range; one charge for all misses.

        Returns ``(hits, misses)``.  The missing blocks of the range are
        charged in a **single** ``charge(n)`` call (one ranged random
        read per partition) and become resident together; blocks
        already resident are promoted.  ``charge`` runs before the
        blocks are recorded resident, so an injected
        :class:`~repro.faults.errors.DiskFault` leaves them non-resident
        (a failed read must not look cached).

        Blocks already being fetched by another thread are *joined*
        rather than re-charged: the caller waits for the owning fetch to
        resolve and counts them as hits, so a resident block can never
        have been charged twice by racing queries.  A failed fetch
        propagates its exception to every waiter.

        Deadlock-free by construction: a thread always resolves the
        flights it claimed *before* waiting on anyone else's, so every
        flight is resolved by an owner that never waits on it
        transitively.  Blocks of retired runs bypass the registry
        entirely (charged per caller, never inserted): retired blocks
        are never resident.
        """
        hits = 0
        mine: List[int] = []
        theirs: List[_Flight] = []
        with self._lock:
            retired = run_id in self._retired_runs
            for block in range(first_block, last_block + 1):
                key = (run_id, block)
                if self._resident(key):
                    self._promote(key)
                    hits += 1
                    continue
                flight = self._flights.get(key) if not retired else None
                if flight is not None:
                    theirs.append(flight)
                else:
                    if not retired:
                        self._flights[key] = _Flight()
                    mine.append(block)
            self._hits += hits
        if mine:
            try:
                charge(len(mine))
            except BaseException as exc:
                with self._lock:
                    for block in mine:
                        flight = self._flights.pop((run_id, block), None)
                        if flight is not None:
                            flight.error = exc
                            flight.done.set()
                raise
            with self._lock:
                self._misses += len(mine)
                if prefetch:
                    self._prefetched_blocks += len(mine)
                # Re-check retirement at insert time: the run may have
                # retired while the fetch was in flight, and residency
                # must never outlive the run it describes.
                still_live = run_id not in self._retired_runs
                for block in mine:
                    if still_live:
                        self._insert((run_id, block))
                    flight = self._flights.pop((run_id, block), None)
                    if flight is not None:
                        flight.error = None
                        flight.done.set()
        if theirs:
            error: "BaseException | None" = None
            for flight in theirs:
                flight.done.wait()
                if flight.error is not None and error is None:
                    error = flight.error
            with self._lock:
                self._coalesced_waits += len(theirs)
                if error is None:
                    self._hits += len(theirs)
            if error is not None:
                raise error
            hits += len(theirs)
        return hits, len(mine)

    def contains(self, run_id: int, block: int) -> bool:
        """Whether a block is currently resident (introspection only)."""
        with self._lock:
            return self._resident((run_id, block))

    # ------------------------------------------------------------------
    # Epoch-aware invalidation
    # ------------------------------------------------------------------

    def invalidate_run(self, run_id: int) -> int:
        """Drop every resident block of a retired run; refuse re-inserts.

        Called from the store's layout-lock critical sections (the same
        ones that bump the epoch registry), so residency can never
        outlive the run it describes.  Returns the number of blocks
        dropped.  Idempotent per run.
        """
        with self._lock:
            if run_id in self._retired_runs:
                return 0
            self._retired_runs.add(run_id)
            self._invalidated_runs += 1
            blocks = self._by_run.pop(run_id, set())
            for block in blocks:
                self._probation.pop((run_id, block), None)
                self._protected.pop((run_id, block), None)
            self._invalidated_blocks += len(blocks)
        return len(blocks)

    def invalidate_runs(self, run_ids: Iterable[int]) -> int:
        """Invalidate several retired runs; returns blocks dropped."""
        return sum(self.invalidate_run(run_id) for run_id in run_ids)

    def is_retired(self, run_id: int) -> bool:
        """Whether a run has been invalidated."""
        with self._lock:
            return run_id in self._retired_runs

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def resident_blocks(self) -> int:
        """Blocks currently resident."""
        with self._lock:
            return len(self._probation) + len(self._protected)

    def stats(self) -> SharedCacheStats:
        """Snapshot every counter atomically."""
        with self._lock:
            return SharedCacheStats(
                capacity_blocks=self.capacity_blocks,
                resident_blocks=len(self._probation) + len(self._protected),
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                invalidated_blocks=self._invalidated_blocks,
                invalidated_runs=self._invalidated_runs,
                prefetched_blocks=self._prefetched_blocks,
                coalesced_waits=self._coalesced_waits,
            )

    def clear(self) -> None:
        """Drop every resident block (keeps counters and retired set)."""
        with self._lock:
            self._probation.clear()
            self._protected.clear()
            self._by_run.clear()

