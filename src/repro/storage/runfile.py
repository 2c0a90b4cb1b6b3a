"""Sorted on-disk runs.

A :class:`SortedRun` is the unit the warehouse stores: one sorted array
of int64 values living on a :class:`~repro.storage.disk.SimulatedDisk`.
All random access goes through a :class:`~repro.storage.cache.BlockCache`
so queries are charged block-granular I/O.  The cache pins the bytes of
every block it charged for, which makes Section 2.4's block-confinement
optimization real: a block is fetched from the backend once per query,
and a search confined to one block finishes on the pinned payload with
a single ``searchsorted``.

The payload bytes live in the disk's pluggable storage backend
(:mod:`repro.storage.backends`): the run allocates a
:class:`~repro.storage.backends.RunHandle` at construction and reads
through it, so the same access paths work whether the bytes are a
resident array (simulated), a memory-mapped file, or an emulated
object-store bucket.  Whenever a read actually *charges* blocks (i.e.
it was not absorbed by a cache tier), the run reports the request to
the handle — that is how cold object-tier reads become GETs while
cache hits stay free.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from .cache import BlockCache
from .disk import SimulatedDisk

_run_ids = itertools.count()


class SortedRun:
    """One sorted partition of historical data on the simulated disk.

    Parameters
    ----------
    disk:
        Backing device; all I/O is charged to its stats.
    data:
        The values of the run, sorted ascending.  The simulated backend
        keeps a read-only array that owns its memory (a sorted step or
        merged run built for this run) and copies any other, so a
        caller's writeable array stays independent.
    charge_write:
        When ``True`` (default) the constructor charges the sequential
        writes needed to persist the run.  Pass ``False`` when the
        caller has already accounted for the write (e.g. the external
        sorter charges its own passes).
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        data: np.ndarray,
        charge_write: bool = True,
    ) -> None:
        arr = np.asarray(data, dtype=np.int64)
        if len(arr) > 1 and np.any(arr[1:] < arr[:-1]):
            raise ValueError("SortedRun requires sorted input")
        self._disk = disk
        self._length = len(arr)
        self.run_id = next(_run_ids)
        self._handle = disk.backend.allocate_run(self.run_id, arr)
        # Bind the disk's block geometry to the handle so backends can
        # serve ranged block reads (and clamp readahead) without a
        # back-reference to the disk.
        self._handle.block_elems = disk.block_elems
        if charge_write:
            disk.charge_sequential_write(self._length)

    def __len__(self) -> int:
        return self._length

    @property
    def disk(self) -> SimulatedDisk:
        """The simulated device backing this run."""
        return self._disk

    @property
    def tier(self) -> str:
        """Storage tier currently holding the run's bytes."""
        return self._handle.tier

    @property
    def _data(self) -> np.ndarray:
        return self._handle.data

    @property
    def values(self) -> np.ndarray:
        """Read-only view of the run contents (no I/O charged).

        Intended for tests and for operations that account for their
        own I/O (sequential merges, summary construction at write
        time).
        """
        view = self._data.view()
        view.flags.writeable = False
        return view

    def min_value(self) -> int:
        """Smallest element (exact)."""
        if not self._length:
            raise ValueError("empty run has no minimum")
        return int(self._handle.read_blocks(0, 0)[0])

    def max_value(self) -> int:
        """Largest element (exact)."""
        if not self._length:
            raise ValueError("empty run has no maximum")
        last_block = self._disk.block_of(self._length - 1)
        payload = self._handle.read_blocks(last_block, last_block)
        return int(payload[self._length - 1 - last_block * self._disk.block_elems])

    def element_at(self, index: int, cache: Optional[BlockCache] = None) -> int:
        """Return the element at ``index`` (0-based), charging one block.

        With a cache, re-reads of an already-charged block are free.
        The read itself is block-ranged: only the probed block is
        fetched from the backend, never the whole run.
        """
        if not 0 <= index < self._length:
            raise IndexError(index)
        block = self._disk.block_of(index)
        payload = self._probe_block(block, cache)
        return int(payload[index - block * self._disk.block_elems])

    def read_block_range(
        self,
        first_block: int,
        last_block: int,
        cache: Optional[BlockCache] = None,
    ) -> np.ndarray:
        """Read a contiguous *block* range in one charged ranged read.

        The batched counterpart of per-block probing: accurate-path
        prefetch issues one charged range per partition instead of a
        Python loop of single-block reads.  The
        charged block count is identical to touching each block
        individually (the cache dedupes per block); only the number of
        disk *operations* shrinks.  Returns the elements stored in the
        range (clamped to the run's extent).
        """
        if first_block > last_block or not self._length:
            return np.empty(0, dtype=np.int64)
        last_valid = self._disk.block_of(self._length - 1)
        first_block = max(first_block, 0)
        last_block = min(last_block, last_valid)
        if first_block > last_block:
            # Entirely past the end of the run (or an empty clamp):
            # nothing to read, nothing charged.
            return np.empty(0, dtype=np.int64)
        lo = first_block * self._disk.block_elems
        hi = min((last_block + 1) * self._disk.block_elems, self._length)
        payload = self._read_blocks(first_block, last_block, cache)
        return np.array(payload[: hi - lo], dtype=np.int64)

    def rank_of(
        self,
        value: int,
        lo: int = 0,
        hi: Optional[int] = None,
        cache: Optional[BlockCache] = None,
    ) -> int:
        """Number of elements ``<= value``, by block-counted binary search.

        ``lo`` and ``hi`` bound the element indices searched (the
        summaries supply these bounds at query time — Alg. 8 line 5),
        so the search costs ``O(log((hi - lo) / B))`` block reads.
        """
        if hi is None:
            hi = self._length
        lo = max(lo, 0)
        hi = min(hi, self._length)
        # Classic binary search for the first index whose element
        # exceeds ``value``; each probe touches exactly one block and
        # fetches it only if this query has not pinned it yet.
        block_elems = self._disk.block_elems
        pins = cache is not None and cache.pins(self.run_id)
        while lo < hi:
            block = lo // block_elems
            if pins and block == (hi - 1) // block_elems:
                # Every remaining probe lands in this one block
                # (Section 2.4): pay for it once, finish on its bytes.
                payload = self._probe_block(block, cache)
                base = block * block_elems
                return lo + int(
                    payload[lo - base : hi - base].searchsorted(value, "right")
                )
            mid = (lo + hi) // 2
            block = mid // block_elems
            payload = self._probe_block(block, cache)
            if int(payload[mid - block * block_elems]) <= value:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def in_memory_rank(self, value: int) -> int:
        """Rank without I/O accounting (summary construction only)."""
        return int(np.searchsorted(self._data, value, side="right"))

    def scan(self) -> np.ndarray:
        """Sequentially read the whole run, charging sequential I/O."""
        self._disk.charge_sequential_read(self._length)
        self._handle.note_sequential_read(self._disk.blocks_for(self._length))
        return self._data.copy()

    def _probe_block(self, block: int, cache: Optional[BlockCache]) -> np.ndarray:
        """One probed block's elements, charged at most once per query.

        A block the cache has pinned costs nothing; otherwise the touch
        is charged (and reported to the handle when it reached the
        backend), the block is fetched, and — only now that both
        succeeded — its payload is pinned for the rest of the query.
        """
        if cache is None:
            self._disk.charge_random_read(1)
            self._handle.note_range_read(block, block, 1)
            return self._handle.read_blocks(block, block)
        payload = cache.pinned_block(self.run_id, block)
        if payload is None:
            if cache.touch(self.run_id, block):
                self._handle.note_range_read(block, block, 1)
            payload = self._handle.read_blocks(block, block)
            cache.pin_block(self.run_id, block, payload)
        return payload

    def pinned_range(
        self, lo: int, hi: int, cache: BlockCache
    ) -> Optional[np.ndarray]:
        """Elements ``[lo, hi)`` from the bytes a query already holds.

        ``None`` unless ``cache`` has pinned every block covering them:
        nothing is charged or fetched here, and once this answers no
        read of these elements can cost the query anything any more.
        """
        if not cache.pins(self.run_id):
            return None
        if hi <= lo:
            return np.empty(0, dtype=np.int64)
        per_block = self._disk.block_elems
        first = lo // per_block
        pinned = []
        for block in range(first, (hi - 1) // per_block + 1):
            payload = cache.pinned_block(self.run_id, block)
            if payload is None:
                return None
            pinned.append(payload)
        held = pinned[0] if len(pinned) == 1 else np.concatenate(pinned)
        return held[lo - first * per_block : hi - first * per_block]

    def _read_blocks(
        self, first: int, last: int, cache: Optional[BlockCache]
    ) -> np.ndarray:
        """Blocks ``[first, last]`` in one charged ranged read.

        The unseen blocks are charged as one range; the fetched span is
        pinned block by block, so the probes a prefetch runs ahead of
        find their bytes already in the cache — as does a ranged read
        of blocks the probes before it paid for.
        """
        pins = cache is not None and cache.pins(self.run_id)
        per_block = self._disk.block_elems
        if pins:
            pinned = self.pinned_range(
                first * per_block, (last + 1) * per_block, cache
            )
            if pinned is not None:
                # Paid for and held, every one: nothing to charge.
                return pinned
        if cache is None:
            charged = last - first + 1
            self._disk.charge_random_read(charged)
        else:
            charged = cache.touch_range(self.run_id, first, last)
        if charged:
            self._handle.note_range_read(first, last, charged)
        payload = self._handle.read_blocks(first, last)
        if pins:
            for block in range(first, last + 1):
                start = (block - first) * per_block
                cache.pin_block(
                    self.run_id, block, payload[start : start + per_block]
                )
        return payload
