"""The warehouse-resident shared block cache (cross-query tier).

Section 2.4 pins blocks *per query* (:class:`~repro.storage.cache.
BlockCache`); under concurrent serving, clients asking for the same
quantiles re-read the same index blocks and narrow ranges.
:class:`SharedBlockCache` is a capacity-bounded tier (one per engine)
between per-query caches and the :class:`~repro.storage.disk.
SimulatedDisk`: a query's first touch of a block is **charged** only
when this tier misses; a hit is free and counted apart, so "blocks
charged per query" becomes a cold/warm quantity the cache ablation
measures.

Design (docs/ARCHITECTURE.md, "Shared cache tier" and "Cold-read
pipeline"): 2Q eviction, so one-shot prefetched ranges wash through a
FIFO probation quarter without evicting the hot index blocks of the
protected LRU segment; single-flight fetches, so racers on a block
join the first claimer's flight, each block is charged exactly once
(aggregate charges are deterministic under a fixed seed) and a failed
fetch reaches every waiter and leaves nothing resident; one structure
lock, never held across a charge or a wait; and epoch-aware
invalidation: runs retired under the layout lock are invalidated
there and refused re-insertion (run ids are never recycled), so a
pinned snapshot probing a pre-merge run simply misses.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..stats import CACHE_FIELDS, Reading, StatsTable


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
    table:
        Where the cache counts (:data:`~repro.stats.CACHE_FIELDS`),
        under its structure lock: the engine's
        :class:`~repro.stats.StatsTable`, else one of its own.
    """

    def __init__(
        self, capacity_blocks: int, table: Optional[StatsTable] = None
    ) -> None:
        if capacity_blocks < 1:
            raise ValueError("capacity_blocks must be >= 1")
        self.capacity_blocks = capacity_blocks
        self._probation_target = max(1, capacity_blocks // 4)
        # (run_id, block) -> None, in arrival / recency order.
        self._probation: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        self._protected: "OrderedDict[Tuple[int, int], None]" = OrderedDict()
        self._by_run: Dict[int, Set[int]] = {}
        self._retired_runs: Set[int] = set()
        self._lock = threading.Lock()  # queues + membership + flights + counts
        self._flights: "Dict[Tuple[int, int], _Flight]" = {}
        self.table = table if table is not None else StatsTable()
        self.table.declare(CACHE_FIELDS.values())

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
            self.table["storage.cache.evictions"] += 1

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
            self.table["storage.cache.hits"] += hits
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
                self.table["storage.cache.misses"] += len(mine)
                if prefetch:
                    self.table["storage.cache.prefetched_blocks"] += (
                        len(mine)
                    )
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
                self.table["storage.cache.coalesced_waits"] += len(theirs)
                if error is None:
                    self.table["storage.cache.hits"] += len(theirs)
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
            self.table["storage.cache.invalidated_runs"] += 1
            blocks = self._by_run.pop(run_id, set())
            for block in blocks:
                self._probation.pop((run_id, block), None)
                self._protected.pop((run_id, block), None)
            self.table["storage.cache.invalidated_blocks"] += len(blocks)
        return len(blocks)

    def invalidate_runs(self, run_ids: Iterable[int]) -> int:
        """Invalidate several retired runs; returns blocks dropped."""
        return sum(self.invalidate_run(run_id) for run_id in run_ids)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def levels(self) -> Dict[str, int]:
        """The capacity and the blocks resident now, by key."""
        with self._lock:
            return {
                "storage.cache.capacity_blocks": self.capacity_blocks,
                "storage.cache.resident_blocks":
                    len(self._probation) + len(self._protected),
            }

    def stats(self) -> Reading:
        """Every count (:data:`~repro.stats.CACHE_FIELDS`); ``misses``
        counts the prefetch and warm reads' (``prefetched_blocks``) too,
        and ``coalesced_waits / misses`` is the dedup ratio of joining
        in-flight fetches."""
        return self.table.read(CACHE_FIELDS, self.levels())

    def clear(self) -> None:
        """Drop every resident block (keeps counters and retired set)."""
        with self._lock:
            self._probation.clear()
            self._protected.clear()
            self._by_run.clear()

