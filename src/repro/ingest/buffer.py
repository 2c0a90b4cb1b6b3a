"""The live-stream append buffer: one int64 array grown by doubling, so
per-element appends are amortized O(1) and a seal takes one array."""

from __future__ import annotations

import numpy as np

_INITIAL_CAPACITY = 1024


class AppendBuffer:
    """A growable int64 array with amortized-O(1) appends.

    It also owns the order of a step the sketch sorted whole:
    :meth:`keep_sorted` writes that chunk back over the contents, and
    :meth:`take` hands the chunk itself to the seal if nothing came
    after it.  The seal trusts nothing: ``ExternalSorter.sorted_array``
    looks at the bytes it is handed and sorts unless they are ascending.
    """

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        self._data = np.empty(max(1, capacity), dtype=np.int64)
        self._len = 0
        #: the chunk :meth:`keep_sorted` last wrote back, if any.
        self._sorted = None

    def __len__(self) -> int:
        return self._len

    def _grow_to(self, needed: int) -> None:
        capacity = len(self._data)
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        grown = np.empty(capacity, dtype=np.int64)
        grown[: self._len] = self._data[: self._len]
        self._data = grown

    def append(self, value: int) -> None:
        """Append one element (amortized O(1))."""
        self._grow_to(self._len + 1)
        self._data[self._len] = value
        self._len += 1

    def extend(self, values: np.ndarray) -> None:
        """Append a batch of elements in one copy."""
        size = int(values.size)
        if size == 0:
            return
        self._grow_to(self._len + size)
        self._data[self._len : self._len + size] = values
        self._len += size

    def view(self) -> np.ndarray:
        """Read-only view of the buffered elements (no copy)."""
        return self.slice_from(0)

    def slice_from(self, start: int) -> np.ndarray:
        """Read-only view of elements ``[start, len)`` (no copy).

        The lazy-absorption path reads the not-yet-absorbed tail with
        this; the caller must hold whatever lock also guards appends,
        because a concurrent ``append`` may reallocate the backing
        array out from under the view.
        """
        view = self._data[max(0, start) : self._len].view()
        view.flags.writeable = False
        return view

    def keep_sorted(self, chunk: np.ndarray) -> None:
        """Overwrite the contents by ``chunk``, the same elements in
        ascending order, and keep ``chunk`` for :meth:`take`."""
        self._data[: self._len] = chunk
        self._sorted = chunk

    def take(self) -> np.ndarray:
        """Return the contents as a read-only array and reset the buffer.

        That is the kept chunk if nothing came after it, else a copy.
        The backing capacity is retained, so a steady-state engine
        sealing equal-sized batches stops allocating after the first
        step.
        """
        sealed = self._sorted
        if sealed is None or len(sealed) != self._len:
            sealed = self._data[: self._len].copy()
        sealed.setflags(write=False)
        self._len = 0
        self._sorted = None
        return sealed
