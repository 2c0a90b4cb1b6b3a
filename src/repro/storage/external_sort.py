"""External multi-way merge sort with block-accurate I/O accounting.

The warehouse sorts each incoming batch before storing it as a level-0
partition (Alg. 3 line 6) and merges the sorted partitions of an
overfull level into one larger partition (line 10).  Both operations are
sequential-I/O bound; Lemma 6 charges ``O(eta / B)`` accesses to sort a
batch of size ``eta`` (a constant number of passes, per Aggarwal &
Vitter) and one read-plus-write pass over all merged data per level.

The *data* is sorted with NumPy — what the simulation must get right is
the I/O count, which this module computes from the run-formation /
merge-pass structure of a real external sort.
"""

from __future__ import annotations

import mmap
from typing import Sequence

import numpy as np

from .disk import SimulatedDisk
from .runfile import SortedRun


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

    def sorted_array(self, data: np.ndarray) -> np.ndarray:
        """Sort ``data``, charging the external-sort passes only.

        The caller persists the result (e.g. as a :class:`SortedRun`)
        and accounts for that final write itself.  The modeled passes
        are charged from the size alone.  Data that is ascending already
        (a step the stream sketch absorbed in one chunk, see
        ``AppendBuffer.keep_sorted``) is returned as it is, uncopied:
        one comparison pass finds that out, a twentieth of the sort it
        spares.
        """
        arr = np.asarray(data, dtype=np.int64)
        for _ in range(self.passes_needed(len(arr))):
            self._disk.charge_sequential_read(len(arr))
            self._disk.charge_sequential_write(len(arr))
        if not np.any(arr[1:] < arr[:-1]):
            return arr
        return np.sort(arr)

    def sort(self, data: np.ndarray) -> SortedRun:
        """Sort ``data`` and return it as an on-disk run.

        Charges ``passes_needed`` read+write passes plus the final
        output write.
        """
        return SortedRun(self._disk, self.sorted_array(data), charge_write=True)


#: merged runs at least this large are built in their own anonymous
#: mapping instead of on the malloc heap (see :func:`kway_merge`).
_MAPPED_MERGE_BYTES = 1 << 20


def kway_merge(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """Merge already-sorted arrays into one sorted array.

    Concatenate and sort in place: one transient copy, and NumPy's
    vectorized int64 sort beats a Python-level tournament of pairwise
    merges at every run count and size the warehouse produces.

    A large output lives in an anonymous ``mmap`` the array owns, so
    its pages go back to the OS the moment the run has been written
    out.  The same bytes from ``malloc`` would stay with whichever
    allocator arena the archiver thread happened to run in — a
    run-sized resident set per arena, for the life of the process.
    """
    parts = [np.asarray(a, dtype=np.int64) for a in arrays]
    if not parts:
        return np.empty(0, dtype=np.int64)
    nbytes = 8 * sum(len(part) for part in parts)
    out = None
    if nbytes >= _MAPPED_MERGE_BYTES:
        # Pre-faulted in one call: page-by-page faults on first write
        # cost a third of the merge itself.
        flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
        flags |= getattr(mmap, "MAP_POPULATE", 0)
        out = np.frombuffer(mmap.mmap(-1, nbytes, flags=flags), dtype=np.int64)
    merged = np.concatenate(parts, out=out)
    merged.sort()
    return merged


def merge_runs(disk: SimulatedDisk, runs: Sequence[SortedRun]) -> SortedRun:
    """Multi-way merge sorted runs into a single run (Alg. 3 line 10).

    One sequential pass: every input block is read once, every output
    block written once.  The in-memory data movement is
    :func:`kway_merge`.
    """
    if not runs:
        raise ValueError("nothing to merge")
    parts = []
    for run in runs:
        disk.charge_sequential_read(len(run))
        parts.append(run.values)
    merged = kway_merge(parts)
    return SortedRun(disk, merged, charge_write=True)
