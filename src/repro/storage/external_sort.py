"""External multi-way merge sort with block-accurate I/O accounting.

The warehouse sorts each incoming batch before storing it as a level-0
partition (Alg. 3 line 6) and merges the sorted partitions of an
overfull level into one larger partition (line 10).  Both operations are
sequential-I/O bound; Lemma 6 charges ``O(eta / B)`` accesses to sort a
batch of size ``eta`` (a constant number of passes, per Aggarwal &
Vitter) and one read-plus-write pass over all merged data per level.

The *data* is sorted with NumPy — what the simulation must get right is
the I/O count, which this module computes from the run-formation /
merge-pass structure of a real external sort.  Each sorted step and
merged run is built once, read-only, at the width its bounds give
(:func:`~repro.storage.runfile.run_dtype`), in the array the simulated
backend keeps as the run, and sorted there: nothing is widened after.
"""

from __future__ import annotations

import mmap
from typing import Sequence

import numpy as np

from .backends import SimulatedBackend
from .disk import SimulatedDisk
from .runfile import SortedRun, run_dtype


#: from this length an int32 sort (twice NumPy's int64 speed) beats the
#: int64 one by a fifth, narrowing included (2-vCPU x86-64, NumPy 2.4).
_NARROW_SORT_ELEMS = 1 << 14


def sort_in_place(arr: np.ndarray, lo: int, hi: int) -> None:
    """Sort the writable int64 ``arr``, whose values lie in ``[lo, hi]``,
    where it sits (the GK absorb of the live buffer).

    A large contiguous ``arr`` that fits int32 is narrowed into the
    front half of its own bytes in chunks ``[a, 2a)`` doubling from a
    sixteenth (a chunk's int32 slots lie on elements already read; the
    first sixteenth goes through a copy), sorted there and widened back
    to front.  Any other array takes the int64 sort: the same bytes.
    """
    n = arr.size
    if not (_NARROW_SORT_ELEMS <= n and run_dtype(lo, hi) == np.int32
            and arr.flags.c_contiguous):
        return arr.sort()
    head = -(-n // 16)
    chunks = [slice(head << k, min(head << (k + 1), n)) for k in range(4)]
    spill, narrow = arr[:head].astype(np.int32), arr.view(np.int32)[:n]
    for chunk in chunks:
        narrow[chunk] = arr[chunk]
    narrow[:head] = spill
    narrow.sort()
    spill[:] = narrow[:head]
    for chunk in reversed(chunks):
        arr[chunk] = narrow[chunk]
    arr[:head] = spill


class ExternalSorter:
    """Sorts batches into :class:`SortedRun` objects.

    Parameters
    ----------
    disk:
        Device charged for the sort passes.
    memory_elems:
        Size of the sort workspace in elements.  Batches no larger than
        this are sorted in memory (charged a single sequential write of
        the output run).  Larger batches pay one read-plus-write pass
        for run formation and one per merge level.
    fan_in:
        Maximum number of runs merged per pass.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        memory_elems: int = 1 << 22,
        fan_in: int = 64,
    ) -> None:
        if memory_elems < 1:
            raise ValueError("memory_elems must be >= 1")
        if fan_in < 2:
            raise ValueError("fan_in must be >= 2")
        self._disk = disk
        self._memory_elems = memory_elems
        self._fan_in = fan_in

    def passes_needed(self, num_elems: int) -> int:
        """Number of read+write passes an external sort would take.

        Zero passes means a pure in-memory sort (only the final output
        write is charged).
        """
        if num_elems <= self._memory_elems:
            return 0
        # Run formation is one pass; each merge level divides the run
        # count by the fan-in (integer arithmetic: a float log
        # overcounts a level at exact powers of the fan-in).
        runs = -(-num_elems // self._memory_elems)
        passes = 1
        while runs > 1:
            runs = -(-runs // self._fan_in)
            passes += 1
        return passes

    def sorted_array(self, data: np.ndarray, bounds=(None, None)) -> np.ndarray:
        """Sort ``data``, all in ``bounds`` (unknown: ``None``), charging
        the passes only (from the size alone); the caller persists the
        result and charges that write itself.

        The result is read-only at the run's width, ``run_dtype(*bounds)``:
        other data is copied to it once and sorted there.  Data at that
        width is returned as it is when ascending (a step the GK absorb
        sorted: one comparison pass, a twentieth of the sort it spares)
        and sorted where it sits when it is the seal's copy (read-only
        and owning its memory, as the simulated backend adopts one).
        """
        arr = np.asarray(data)
        for _ in range(self.passes_needed(len(arr))):
            self._disk.charge_sequential_read(len(arr))
            self._disk.charge_sequential_write(len(arr))
        ascending = not np.any(arr[1:] < arr[:-1])
        width = run_dtype(*bounds)
        if arr.dtype == width and ascending:
            return arr
        if arr.dtype == width and not arr.flags.writeable and arr.flags.owndata:
            arr.setflags(write=True)  # the seal's copy
        else:
            arr = arr.astype(width)  # a caller's array stays as it is
        if not ascending:
            arr.sort()
        arr.setflags(write=False)
        return arr


#: merged runs at least this large are built in their own anonymous
#: mapping instead of on the malloc heap (see :func:`kway_merge`).
_MAPPED_MERGE_BYTES = 1 << 20


def kway_merge(arrays: Sequence[np.ndarray], mapped: bool = False) -> np.ndarray:
    """Merge already-sorted arrays into one sorted, read-only array.

    Concatenate into an output at the runs' joint width (``run_dtype``
    of their ends) and sort it: NumPy's vectorized sort beats a
    Python-level tournament of pairwise merges at every run count and
    size the warehouse produces.  The output is a heap array the
    simulated backend keeps as the run.

    ``mapped`` is for a file-backed backend, which writes the output out
    and drops it: a large output then lives in an anonymous ``mmap``
    the array owns, so its pages go back to the OS once the run is
    written.  The same bytes from ``malloc`` would stay with whichever
    allocator arena the archiver thread ran in — a run-sized resident
    set per arena, for the life of the process.
    """
    parts = [np.asarray(a) for a in arrays]
    ends = [int(end) for part in parts if part.size for end in part[[0, -1]]]
    width = run_dtype(min(ends, default=None), max(ends, default=None))
    size = sum(len(part) for part in parts)
    if mapped and size * width.itemsize >= _MAPPED_MERGE_BYTES:
        # Pre-faulted in one call: page-by-page faults on first write
        # cost a third of the merge itself.
        flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
        flags |= getattr(mmap, "MAP_POPULATE", 0)
        buffer = mmap.mmap(-1, size * width.itemsize, flags=flags)
        merged = np.frombuffer(buffer, dtype=width)
    else:
        merged = np.empty(size, width)
    np.concatenate([merged[:0], *parts], out=merged)
    merged.sort()
    merged.setflags(write=False)
    return merged


def merge_runs(disk: SimulatedDisk, runs: Sequence[SortedRun]) -> SortedRun:
    """Multi-way merge sorted runs into a single run (Alg. 3 line 10).

    One sequential pass: every input block is read once, every output
    block written once.  The in-memory data movement is
    :func:`kway_merge`, mapped unless the simulated backend keeps it.
    """
    if not runs:
        raise ValueError("nothing to merge")
    for run in runs:
        disk.charge_sequential_read(len(run))
    merged = kway_merge(
        [run.values for run in runs],
        mapped=not isinstance(disk.backend, SimulatedBackend),
    )
    return SortedRun(disk, merged, charge_write=True)
