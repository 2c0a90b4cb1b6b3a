"""The Greenwald-Khanna quantile sketch.

Deterministic, single-pass, worst-case space ``O((1/eps) log(eps n))``
(Greenwald & Khanna, SIGMOD 2001).  The sketch stores tuples
``(v_i, g_i, delta_i)`` where ``g_i`` is the gap between the minimum
possible rank of ``v_i`` and that of ``v_{i-1}``, and ``delta_i``
bounds the extra uncertainty: the true rank of ``v_i`` lies in
``[rmin_i, rmin_i + delta_i]`` with ``rmin_i = sum_{j<=i} g_j``.  The
maintained invariant ``g_i + delta_i <= 2 eps n`` guarantees that
``query_rank(r)`` returns a value whose true rank is within
``eps * n`` of ``r``.

This is the sketch the paper runs on the live stream (with error
parameter ``eps_2 = eps / 4``) and as the strongest pure-streaming
baseline.  Besides the textbook per-element ``update``, the class
offers a vectorized ``update_many`` that merges a sorted batch into the
summary with exact rank algebra (the batch contributes its exact rank
to every tuple's ``rmin``/``rmax``) and compresses on the arrays; the
tuples are the ones the scalar compress would keep, hence the same
guarantee, and stay arrays until the scalar path needs them as lists.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import List, Tuple

import numpy as np

from ..storage.external_sort import sort_in_place
from .base import QuantileSketch, as_int64_batch, clamp_rank

_BATCH_THRESHOLD = 256


def _compress_heads(
    rmin: np.ndarray, rmax: np.ndarray, threshold: int
) -> np.ndarray:
    """Indices of the tuples ``GKSketch._compress`` would keep.

    A head ``j`` swallows ``i < j`` while ``rmin[i-1] >= rmax[j] -
    threshold``, so its successor head ``succ[j]`` is a function of
    ``j``; a *jumper* is one whose ``succ`` is not its neighbour.  The
    walk down from the last tuple steps by one between jumpers and
    clears ``(succ[j], j)`` at a visited jumper ``j``, the next visited
    being the largest jumper at most ``succ[j]``: that chain is found
    by pointer doubling over the jumpers alone (docs/THEORY.md).
    """
    jumpers = np.flatnonzero(rmin[:-2] + threshold >= rmax[2:]) + 2
    succ = np.minimum(  # below the neighbour, so every link descends
        np.searchsorted(rmin, rmax[jumpers] - threshold, "left"), jumpers - 2
    )
    # Jumpers numbered from 1, 0 past the last: ``link`` leads on from
    # each; after k doublings it jumps 2**k and the top one's first
    # 2**k chain members are marked.
    link = np.concatenate(([0], jumpers.searchsorted(succ, "right")))
    visited = np.zeros(len(link), dtype=bool)
    visited[-1] = True
    while link[-1]:
        visited[link[visited]] = True
        link = link[link]
    # The swallowed ranges are disjoint: +1 opens one, -1 closes it.
    depth = np.zeros(len(rmin), dtype=np.int8)
    depth[succ[visited[1:]] + 1] = 1
    depth[jumpers[visited[1:]]] = -1
    return np.flatnonzero(np.cumsum(depth, dtype=np.int8) == 0)


class GKSketch(QuantileSketch):
    """Greenwald-Khanna epsilon-approximate quantile summary.

    The tuples live as the ``(values, rmin, rmax)`` arrays after a bulk
    absorb and as three Python lists once the scalar ``update`` asks
    for them — one form at a time, converted only on demand.

    Parameters
    ----------
    epsilon:
        Error parameter in (0, 1).  A rank query for ``r`` returns a
        value whose true rank lies in ``[r - eps*n, r + eps*n]``.
    """

    def __init__(self, epsilon: float) -> None:
        if not 0 < epsilon < 1:
            raise ValueError("epsilon must be in (0, 1)")
        self.epsilon = epsilon
        # The tuples, in one of two forms: the ``(v, g, delta)`` lists
        # the scalar path edits, or (``None`` here) the arrays below.
        self._columns: "Tuple[List[int], ...] | None" = ([], [], [])
        self._n = 0
        self._compress_every = max(1, int(1.0 / (2.0 * epsilon)))
        self._since_compress = 0
        self._two_eps = 2.0 * epsilon
        # Reusable output lists for _compress: it runs every
        # ~1/(2 eps) inserts, and allocating three fresh lists per call
        # was the dominant churn of the per-element update path.  The
        # lists are swapped with the live ones after each pass, so
        # steady-state compression allocates nothing.
        self._scratch: "Tuple[List[int], List[int], List[int]]" = ([], [], [])
        # Serializes mutations against snapshot(): an updating thread
        # and a snapshotting thread never observe half-applied tuple
        # lists.  Reentrant because update_many calls _compress while
        # already holding it.
        self._mutate_lock = threading.RLock()
        # (values, rmin, rmax) arrays: the state itself after a bulk
        # absorb, otherwise the vectorized query path's cache, dropped
        # by every scalar mutation and rebuilt on the next read.
        self._query_arrays: "Tuple[np.ndarray, np.ndarray, np.ndarray] | None" = None
        #: while the arrays are an absorb into an empty sketch, the step
        #: between their ranks (rmin == rmax); dropped by any mutation.
        self._stride: "int | None" = None

    _values = property(lambda self: self._lists()[0])
    _g = property(lambda self: self._lists()[1])
    _delta = property(lambda self: self._lists()[2])

    def _lists(self) -> "Tuple[List[int], ...]":
        """The tuple lists, built from the arrays if those are the state."""
        if self._columns is None:
            values, rmin, rmax = self._query_arrays
            self._columns = (
                values.tolist(),
                np.diff(rmin, prepend=0).tolist(),
                (rmax - rmin).tolist(),
            )
        return self._columns

    @property
    def n(self) -> int:
        """Number of elements processed so far."""
        return self._n

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------

    def update(self, value: int) -> None:
        """Process one stream element."""
        value = int(value)
        with self._mutate_lock:
            values, gaps, deltas = self._columns or self._lists()
            pos = bisect_right(values, value)
            if pos == 0 or pos == len(values):
                delta = 0
            else:
                # int() == math.floor() for non-negative floats, minus
                # the attribute lookups on the per-element hot path.
                delta = max(0, int(self._two_eps * self._n) - 1)
            values.insert(pos, value)
            gaps.insert(pos, 1)
            deltas.insert(pos, delta)
            self._n += 1
            self._query_arrays = self._stride = None
            self._since_compress += 1
            if self._since_compress >= self._compress_every:
                self._compress()
                self._since_compress = 0

    def update_many(
        self, values: np.ndarray, in_place: bool = False, bounds=(None, None)
    ) -> None:
        """Bulk-insert a numpy batch: sort once, merge once.

        Small batches fall back to per-element updates.  Large batches
        are sorted (their internal ranks then being exact), merged into
        the summary with exact-rank algebra and compressed on arrays,
        leaving the tuples the scalar :meth:`_compress` would — so the
        ``eps``-guarantee is preserved (docs/THEORY.md, "Batched
        updates").  With ``in_place`` a writable int64 ``values`` is
        sorted where it sits instead of in a copy: the engine gives its
        buffer, so the step it seals is ascending already.  ``(lo, hi)``
        ``bounds`` on the values let the sort run at int32 width.

        Thread-safety: mutations run under the sketch's mutate lock,
        consistent with :meth:`update` and :meth:`snapshot`.
        """
        arr = as_int64_batch(values)
        if arr.size < _BATCH_THRESHOLD:
            with self._mutate_lock:
                for value in arr:
                    self.update(int(value))
            return
        batch = arr if in_place else arr.copy()
        sort_in_place(batch, *bounds)
        with self._mutate_lock:
            total = self._n + int(batch.size)
            threshold = int(self._two_eps * total)
            stride = None
            if self._n == 0:
                # rmin == rmax == 1..m, so _compress_heads' successor of
                # head j is j - stride: the kept ranks are m, m - stride,
                # ... above 1, after rank 1 (the range's first slot).
                stride = max(1, threshold)
                ranks = np.arange(1 - (1 - total) % stride, total + 1, stride)
                ranks[0] = 1
                arrays = (batch[ranks - 1], ranks, ranks)
            else:
                merged_vals, rmin, rmax = self._merge_exact_batch(batch)
                heads = _compress_heads(rmin, rmax, threshold)
                arrays = (merged_vals[heads], rmin[heads], rmax[heads])
            # The arrays are the state now; no list is built.
            self._query_arrays, self._stride = arrays, stride
            self._columns = None
            self._n = total
            self._since_compress = 0

    def _merge_exact_batch(
        self, batch: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Combine summary tuples with an exactly known sorted batch.

        For each summary tuple the batch contributes its exact rank to
        both rank bounds; for each batch element the summary
        contributes its usual [rmin(pred), rmax(succ) - 1] bracket.
        Returns ``(values, rmin, rmax)`` in value order, a held tuple
        ahead of equal batch values: held ``rmin`` strictly increasing
        from 1 and ``rmax >= rmin`` leave merged ones so (docs/THEORY.md,
        "Batched updates"), so every tuple carries counting information.
        """
        a_vals, a_rmin, a_rmax = self._arrays()
        held = len(a_vals)
        # Per batch value, the held tuples at most it; per held tuple,
        # the batch values below it: those whose count is at most its
        # index.  Each side's slot in the merge adds the other's count.
        succ = np.searchsorted(a_vals, batch, side="right")
        in_batch = np.cumsum(np.bincount(succ, minlength=held + 1)[:held])
        b_ranks = np.arange(1, batch.size + 1, dtype=np.int64)
        a_slots = np.arange(held) + in_batch
        b_slots = b_ranks - 1 + succ
        merged = np.empty((3, held + batch.size), dtype=np.int64)
        values, rmin, rmax = merged
        values[a_slots], values[b_slots] = a_vals, batch
        rmin[a_slots] = a_rmin + in_batch
        rmin[b_slots] = b_ranks + np.concatenate(([0], a_rmin))[succ]
        rmax[a_slots] = a_rmax + in_batch
        rmax[b_slots] = b_ranks + np.concatenate((a_rmax - 1, [self._n]))[succ]
        return values, rmin, rmax

    def _compress(self) -> None:
        """Merge adjacent tuples whose combined span stays within bound.

        Single right-to-left pass (linear time): tuple ``i`` folds into
        its successor while ``g_i + g_succ + delta_succ <= floor(2 eps
        n)``.  The first and last tuples (exact min and max) are never
        folded away.  Output goes to the scratch lists (``__init__``),
        swapped with the live ones: a pass allocates no list.
        """
        values, g, delta = self._lists()
        size = len(values)
        if size < 3:
            return
        threshold = int(self._two_eps * self._n)
        out_vals, out_g, out_delta = self._scratch
        out_vals.clear()
        out_g.clear()
        out_delta.clear()
        out_vals.append(values[-1])
        out_g.append(g[-1])
        out_delta.append(delta[-1])
        for i in range(size - 2, 0, -1):
            if g[i] + out_g[-1] + out_delta[-1] <= threshold:
                out_g[-1] += g[i]
            else:
                out_vals.append(values[i])
                out_g.append(g[i])
                out_delta.append(delta[i])
        out_vals.append(values[0])
        out_g.append(g[0])
        out_delta.append(delta[0])
        out_vals.reverse()
        out_g.reverse()
        out_delta.reverse()
        # Swap: the previous live lists become the next pass's scratch.
        self._scratch = (values, g, delta)
        self._columns = (out_vals, out_g, out_delta)
        self._query_arrays = self._stride = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached ``(values, rmin, rmax)`` arrays of the current tuples.

        ``rmin`` is the cumulative sum of the gaps and ``rmax`` adds
        each tuple's ``delta``; both queries below reduce to vectorized
        comparisons against these.  The cache is invalidated by every
        mutation and rebuilt on the next query, so query-heavy phases
        (the accurate search probes the live sketch once per bisection
        step) pay the ``O(s)`` construction once, not per probe.
        """
        if self._query_arrays is None:
            values, g, delta = (
                np.asarray(column, dtype=np.int64) for column in self._columns
            )
            rmin = np.cumsum(g)
            self._query_arrays = (values, rmin, rmin + delta)
        return self._query_arrays

    def query_rank(self, rank: int) -> int:
        """Value whose true rank is within ``eps * n`` of ``rank``."""
        if self._n == 0:
            raise ValueError("sketch is empty")
        rank = clamp_rank(rank, self._n)
        allowed = self.epsilon * self._n
        values, _, rmax = self._arrays()
        # First tuple whose upper rank bound overshoots the target.
        exceeds = rmax > rank + allowed
        if not exceeds.any():
            return int(values[-1])
        first = int(np.argmax(exceeds))
        return int(values[max(0, first - 1)])

    def query_ranks(self, ranks: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`query_rank` over an array of targets.

        Answers every target with one running-max pass over the tuple
        bounds plus a single ``searchsorted`` — the element-wise
        semantics are preserved exactly (each answer equals what
        ``query_rank`` returns for that target), which the summary
        extraction path relies on for bit-identical batched queries.
        """
        if self._n == 0:
            raise ValueError("sketch is empty")
        keys = np.maximum(np.asarray(ranks, dtype=np.int64), 1)
        np.minimum(keys, self._n, out=keys)
        # A tuple comes before the first whose rmax exceeds x = t + eps*n
        # when its integer rmax is at most floor(x) (the cast floors what
        # is positive): the search runs on integers.
        np.add(keys, self.epsilon * self._n, out=keys, casting="unsafe")
        values, _, rmax = self._arrays()
        last = len(values) - 1
        if self._stride is not None:
            # Of the ranks n, n - stride, ... that is arithmetic.
            keys -= self._n
            keys //= self._stride
            keys += last
        else:  # the first rmax over the key is the first running max
            # over it, and the running max is sorted: one searchsorted.
            keys = np.searchsorted(np.maximum.accumulate(rmax), keys, "right")
            keys -= 1
        np.maximum(keys, 0, out=keys)
        return values[np.minimum(keys, last, out=keys)]

    def rank_bounds(self, value: int) -> Tuple[int, int]:
        """Bounds ``(rmin, rmax)`` on the rank of an arbitrary ``value``.

        The true number of stream elements ``<= value`` is guaranteed
        to lie within the returned interval.
        """
        if self._n == 0:
            return (0, 0)
        values, rmin, rmax = self._arrays()
        # First tuple strictly greater than ``value``; its predecessor's
        # cumulative gap is the lower bound.
        first = int(values.searchsorted(value, "right"))
        lower = int(rmin[first - 1]) if first > 0 else 0
        if first >= len(values):
            return (lower, self._n)
        return (lower, max(lower, int(rmax[first]) - 1))

    def snapshot(self) -> "GKSketch":
        """A consistent copy, safe to take while another thread updates.

        The copy's state is the ``(values, rmin, rmax)`` arrays, read
        (or built) under the mutation lock and shared with the source:
        no mutation writes into them, so the returned sketch is a
        frozen-in-time view that can be queried (or summarized) freely
        while the original keeps ingesting.  This is the sanctioned way
        to read a sketch that is concurrently written — the plain query
        methods assume a quiescent sketch.
        """
        copied = GKSketch(self.epsilon)
        with self._mutate_lock:
            copied._query_arrays = self._arrays()  # shared: read-only
            copied._columns = None
            copied._stride, copied._n = self._stride, self._n
            copied._since_compress = self._since_compress
        return copied

    def _live_values(self) -> "List[int] | np.ndarray":
        """The values column of whichever form is live: builds and
        caches nothing, so it is safe beside a writing thread."""
        with self._mutate_lock:
            columns = self._columns
            return columns[0] if columns is not None else self._query_arrays[0]

    def min_value(self) -> int:
        """Exact minimum of the stream so far."""
        if self._n == 0:
            raise ValueError("sketch is empty")
        return int(self._live_values()[0])

    def max_value(self) -> int:
        """Exact maximum of the stream so far."""
        if self._n == 0:
            raise ValueError("sketch is empty")
        return int(self._live_values()[-1])

    def tuple_count(self) -> int:
        """Number of (v, g, delta) tuples currently held."""
        return len(self._live_values())

    def memory_words(self) -> int:
        """Three 8-byte words per tuple plus bookkeeping."""
        return 3 * self.tuple_count() + 4
