"""The live-stream append buffer: one int64 array grown by doubling, so
per-element appends are amortized O(1) and a seal takes one array."""

from __future__ import annotations

import numpy as np

_INITIAL_CAPACITY = 1024


class AppendBuffer:
    """A growable int64 array with amortized-O(1) appends.

    The owner may reorder the contents in place (the engine's sketch
    sorts a whole step where it sits, see :meth:`contents`).  The seal
    trusts nothing: ``ExternalSorter.sorted_array`` looks at the bytes
    :meth:`take` copies and sorts them there unless they are ascending.
    """

    def __init__(self, capacity: int = _INITIAL_CAPACITY) -> None:
        self._data = np.empty(max(1, capacity), dtype=np.int64)
        self._len = 0

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

    def slice_from(self, start: int) -> np.ndarray:
        """Read-only view of elements ``[start, len)`` (no copy), for a
        caller holding the lock that guards appends: an ``append`` may
        reallocate the backing array out from under the view."""
        view = self._data[max(0, start) : self._len].view()
        view.flags.writeable = False
        return view

    def contents(self) -> np.ndarray:
        """Writable view of the buffered elements (no copy), to reorder
        in place under the same lock."""
        return self._data[: self._len]

    def take(self, dtype=np.int64) -> np.ndarray:
        """Return a read-only copy of the contents at ``dtype`` (a run's
        width, which the contents fit) and reset the buffer.

        The backing capacity is retained, so a steady-state engine
        sealing equal-sized batches reuses its buffer every step.
        """
        sealed = self._data[: self._len].astype(dtype)
        sealed.setflags(write=False)
        self._len = 0
        return sealed
