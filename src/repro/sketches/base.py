"""Common interface for streaming quantile sketches.

Every sketch in this package consumes a stream of int64 values one at a
time (``update``) or as an array or list of integers (``update_many``),
and answers rank queries: given a target rank ``r`` (1-indexed, rank =
number of elements less than or equal to the answer), return a value
whose true rank is within the sketch's error bound of ``r``.

``update_many`` is the one batch verb, and every implementation (GK,
KLL, Q-Digest, the exact oracle) absorbs its batch in one pass.  Each
reads the batch through :func:`as_int64_batch`, so input a cast would
truncate or wrap raises instead.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
import numpy as np


class QuantileSketch(ABC):
    """Abstract streaming quantile sketch."""

    @abstractmethod
    def update(self, value: int) -> None:
        """Process one stream element."""

    @abstractmethod
    def update_many(self, values: np.ndarray) -> None:
        """Process a numpy batch of elements in one pass.

        A sketch that sorts the batch may return its sorted copy (GK
        does): the engine keeps it for the seal.  ``None`` means
        nothing was sorted.
        """

    @property
    @abstractmethod
    def n(self) -> int:
        """Number of elements processed so far."""

    @abstractmethod
    def query_rank(self, rank: int) -> int:
        """Return a value whose true rank approximates ``rank``.

        ``rank`` is clamped to ``[1, n]``.  The tightness of the
        approximation is sketch-specific; see each implementation.
        """

    @abstractmethod
    def memory_words(self) -> int:
        """Current memory footprint in 8-byte words."""

    def quantile(self, phi: float) -> int:
        """Return an approximate ``phi``-quantile (Definition 1).

        ``phi`` must lie in (0, 1]; the target rank is ``ceil(phi * n)``.
        """
        rank = rank_for_phi(phi, self.n)
        return self.query_rank(rank)


def as_int64_batch(values) -> np.ndarray:
    """Flat int64 array of an ingest batch, refusing lossy coercion.

    int64 arrays pass through uncopied; other integer dtypes and lists
    of Python ints are converted; empty input of any dtype is an empty
    int64 array.  What a cast would truncate or wrap (floats, NaN,
    bools, objects, ``uint64`` beyond ``INT64_MAX``) is rejected — also
    a bool among Python ints, which ``np.asarray`` would count as 0 / 1.
    """
    if isinstance(values, (list, tuple)) and not {bool, np.bool_}.isdisjoint(
        map(type, values)
    ):
        raise TypeError("stream elements must be integers, got a bool")
    arr = np.asarray(values)
    if arr.dtype != np.int64:
        if arr.size and arr.dtype.kind not in "iu":
            raise TypeError(
                f"stream elements must be integers, got dtype {arr.dtype}"
            )
        if arr.dtype == np.uint64 and arr.max(initial=0) > np.iinfo(np.int64).max:
            raise OverflowError("stream element exceeds the int64 range")
        arr = arr.astype(np.int64)
    return arr if arr.ndim == 1 else arr.ravel()


def rank_for_phi(phi: float, n: int) -> int:
    """The 1-indexed rank targeted by a ``phi``-quantile over ``n`` items."""
    if not 0 < phi <= 1:
        raise ValueError("phi must be in (0, 1]")
    if n <= 0:
        raise ValueError("dataset is empty")
    return clamp_rank(math.ceil(phi * n), n)


def clamp_rank(rank: int, n: int) -> int:
    """Clamp a requested rank into the valid range [1, n]."""
    return max(1, min(int(rank), n))
