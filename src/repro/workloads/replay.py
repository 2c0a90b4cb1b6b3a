"""Replay workload: stream a recorded dataset from a file.

The paper's Wikipedia and OC48 datasets are derived from real traces;
when a user has such a trace (the pagecounts dump, an anonymized pcap
reduced to a value column, ...), :class:`ReplayWorkload` streams it
through the same batch interface as the synthetic workloads, so every
experiment in ``benchmarks/`` can run on real data unchanged.

Accepted sources: ``.npy`` arrays, text files of whitespace-separated
integers, or an in-memory array — refused, never truncated, where an
engine door would refuse them (floats, bools, ``uint64`` past the int64
range) and where a value is negative.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path
from typing import Union

import numpy as np

from ..sketches.base import as_int64_batch
from .base import Workload


def read_values(source: "str | Path") -> np.ndarray:
    """The int64 values of a ``.npy`` file, a text file of
    whitespace-separated integers or, for ``"-"``, standard input;
    refused as :func:`~repro.sketches.base.as_int64_batch` refuses a
    batch (a cast would truncate floats and wrap wide ``uint64``)."""
    if str(source) == "-":
        text = sys.stdin.read()
    else:
        path = Path(source)
        if not path.exists():
            raise FileNotFoundError(path)
        if path.suffix == ".npy":
            return as_int64_batch(np.load(path))
        text = path.read_text()
    return as_int64_batch([int(token) for token in text.split()])


class ReplayWorkload(Workload):
    """Deterministically replays a recorded value sequence.

    Parameters
    ----------
    source:
        Path to a ``.npy`` or text file (see :func:`read_values`), or
        an integer array.
    name:
        Display name for benchmark tables (defaults to the file stem).
    loop:
        When True (default), generation wraps around at the end of the
        recording; otherwise running past the end raises ValueError.
    """

    def __init__(
        self,
        source: Union[str, Path, np.ndarray],
        name: "str | None" = None,
        loop: bool = True,
    ) -> None:
        super().__init__(seed=0)
        if isinstance(source, np.ndarray):
            values = as_int64_batch(source)
            self.name = name or "replay"
        else:
            values = read_values(source)
            self.name = name or Path(source).stem
        if values.size == 0:
            raise ValueError("replay source is empty")
        self._values = values
        self._cursor = 0
        self.loop = loop
        low = int(values.min())
        if low < 0:
            raise ValueError("replay values must be non-negative")
        self.universe_log2 = max(1, int(values.max()).bit_length())

    def __len__(self) -> int:
        return len(self._values)

    def generate(self, size: int) -> np.ndarray:
        """Produce the next ``size`` elements of the stream."""
        if size <= 0:
            return np.empty(0, dtype=np.int64)
        if not self.loop and self._cursor + size > len(self._values):
            raise ValueError(
                f"recording exhausted: {len(self._values) - self._cursor} "
                f"values left, {size} requested"
            )
        repeats = math.ceil((self._cursor + size) / len(self._values))
        extended = (
            np.tile(self._values, repeats)
            if repeats > 1
            else self._values
        )
        out = extended[self._cursor : self._cursor + size].copy()
        self._cursor = (self._cursor + size) % len(self._values)
        return out

    def reset(self) -> None:
        """Rewind the generator to its initial state."""
        self._cursor = 0
