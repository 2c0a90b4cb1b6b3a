"""Sorted on-disk runs.

A :class:`SortedRun` is the unit the warehouse stores: one sorted array
of integers living on a :class:`~repro.storage.disk.SimulatedDisk`, at
the width its values need (:func:`run_dtype`): int32 when the bounds
its builder holds fit int32, int64 otherwise, in memory and in ``.npy``
part files alike.  Readers never see the width: a run answers in ints
and int64 arrays, and searches its bytes with :func:`bisect.bisect_right`
over a ``memoryview``, comparing Python ints at either width.
All random access goes through a :class:`~repro.storage.cache.BlockCache`
so queries are charged block-granular I/O.  A run reads a block from
the bytes the cache has pinned, else through
:meth:`~repro.storage.cache.BlockCache.fetch`, which charges, reads and
pins it.  That makes Section 2.4's block-confinement optimization real:
a block is fetched from the backend once per query, and a search
confined to one block finishes on the pinned payload with one bisect.

The payload bytes live in the disk's pluggable storage backend
(:mod:`repro.storage.backends`): the run allocates a
:class:`~repro.storage.backends.RunHandle` at construction and the
cache reads through it, so the same access paths work whether the bytes
are a resident array (simulated), a memory-mapped file, or an emulated
object-store bucket.
"""

from __future__ import annotations

import bisect
import itertools
from typing import Optional, Tuple

import numpy as np

from .cache import BlockCache
from .disk import SimulatedDisk

_run_ids = itertools.count()

_NARROW, _WIDE = np.dtype(np.int32), np.dtype(np.int64)
#: the widths a run is stored at, narrow first.
RUN_DTYPES = (_NARROW, _WIDE)
_NARROW_MIN, _NARROW_MAX = -(2**31), 2**31 - 1


def run_dtype(lo: Optional[int], hi: Optional[int]) -> np.dtype:
    """The width of a run whose values lie in ``[lo, hi]``: int32 when
    that fits, else int64 (also for no values, ``lo is None``)."""
    if lo is not None and _NARROW_MIN <= lo and hi <= _NARROW_MAX:
        return _NARROW
    return _WIDE


class SortedRun:
    """One sorted partition of historical data on the simulated disk.

    Parameters
    ----------
    disk:
        Backing device; all I/O is charged to its stats.
    data:
        The values of the run, sorted ascending: int32 kept, any other
        integers as int64.  The simulated backend
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
        arr = np.asarray(data)
        if arr.dtype != _NARROW:
            arr = arr.astype(_WIDE, copy=False)
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
    def values(self) -> np.ndarray:
        """Read-only view of the run contents, at its width (no I/O).

        Intended for tests and for operations that account for their
        own I/O (sequential merges, summary construction at write
        time).
        """
        view = self._handle.data.view()
        view.flags.writeable = False
        return view

    def element_at(self, index: int, cache: BlockCache) -> int:
        """Return the element at ``index`` (0-based), charging one block.

        Re-reads of a block ``cache`` already charged are free.
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
        cache: BlockCache,
    ) -> None:
        """Fetch a contiguous *block* range in one charged ranged read.

        The batched counterpart of per-block probing: accurate-path
        prefetch and warming passes issue one charged range per
        partition instead of a Python loop of single-block reads, and a
        shared tier counts the blocks it misses as prefetched.  The
        charged block count is identical to touching each block
        individually (the cache dedupes per block); only the number of
        disk *operations* shrinks.  The range is clamped to the run's
        extent; the blocks land in ``cache`` (and its shared tier),
        where the probes after it read them.
        """
        if first_block > last_block or not self._length:
            return
        last_valid = self._disk.block_of(self._length - 1)
        first_block = max(first_block, 0)
        last_block = min(last_block, last_valid)
        if first_block > last_block:
            # Entirely past the end of the run (or an empty clamp):
            # nothing to read, nothing charged.
            return
        lo = first_block * self._disk.block_elems
        hi = min((last_block + 1) * self._disk.block_elems, self._length)
        # Paid for and held, every block, when the probes before this
        # read fetched them all: nothing to charge.
        if self._pinned(lo, hi, cache) is None:
            cache.fetch(self._handle, first_block, last_block, prefetch=True)

    def rank_of(
        self,
        value: int,
        lo: int = 0,
        hi: Optional[int] = None,
        *,
        cache: BlockCache,
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
        pins = cache.pins(self.run_id)
        while lo < hi:
            block = lo // block_elems
            if pins and block == (hi - 1) // block_elems:
                # Every remaining probe lands in this one block
                # (Section 2.4): pay for it once, finish on its bytes.
                payload = self._probe_block(block, cache)
                base = block * block_elems
                return base + bisect.bisect_right(
                    memoryview(payload), value, lo - base, hi - base
                )
            mid = (lo + hi) // 2
            block = mid // block_elems
            payload = self._probe_block(block, cache)
            if int(payload[mid - block * block_elems]) <= value:
                lo = mid + 1
            else:
                hi = mid
        return lo

    def _probe_block(self, block: int, cache: BlockCache) -> np.ndarray:
        """One probed block's elements: the bytes ``cache`` pinned, else
        :meth:`BlockCache.fetch` pays for, reads and pins them."""
        payload = cache.pinned_block(self.run_id, block)
        if payload is None:
            payload = cache.fetch(self._handle, block, block)
        return payload

    def pinned_range(
        self, lo: int, hi: int, cache: BlockCache
    ) -> Optional[np.ndarray]:
        """Elements ``[lo, hi)`` from the bytes a query already holds.

        ``None`` unless ``cache`` has pinned every block covering them:
        nothing is charged or fetched here, and once this answers no
        read of these elements can cost the query anything any more.
        """
        window = self._pinned(lo, hi, cache)
        return None if window is None else window.astype(np.int64, copy=False)

    def pinned_split(
        self, lo: int, hi: int, u: int, v: int, cache: BlockCache
    ) -> Optional[Tuple[int, np.ndarray]]:
        """Of the elements :meth:`pinned_range` holds (``None`` where it
        does): the index of the first above ``u``, and those in ``(u, v]``
        at the run's width (the int64 candidates they join widen them)."""
        window = self._pinned(lo, hi, cache)
        if window is None:
            return None
        view = memoryview(window)
        start = bisect.bisect_right(view, u)
        return lo + start, window[start : bisect.bisect_right(view, v, start)]

    def _pinned(self, lo: int, hi: int, cache: BlockCache):
        """:meth:`pinned_range` at the run's width."""
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
