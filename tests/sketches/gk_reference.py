"""Reference for ``GKSketch.update_many``: the list-based bulk absorb.

``update_many`` compresses on arrays (a successor chain over
``searchsorted``, a strided range when the sketch is empty) and turns
only the survivors into Python lists.  This subclass keeps the form the
bulk path had before that: rebuild *every* merged tuple as Python lists
and run the scalar right-to-left ``_compress`` loop over them — the
loop that still serves per-element ``update``.  The two must leave
``(_values, _g, _delta, _n)`` equal after any call sequence;
``tests/sketches/test_update_many.py`` checks that and
``benchmarks/test_update_timing.py`` times one against the other.

:func:`compress_heads_reference` is ``_compress_heads`` as it was before
it learnt to visit only the jumpers: the successor chain walked one
step per surviving tuple, whatever the input.  The two must return
equal indices on any ``(rmin, rmax, threshold)``.
"""

import numpy as np

from repro.sketches.gk import _BATCH_THRESHOLD, GKSketch


def compress_heads_reference(rmin, rmax, threshold):
    """Indices the scalar compress keeps, by the plain step walk."""
    succ = np.minimum(
        np.searchsorted(rmin, rmax - threshold, side="left"),
        np.arange(-1, len(rmin) - 1),
    )
    successor = succ.item
    head = len(rmin) - 1
    heads = [head]
    while head > 0:
        head = successor(head)
        heads.append(head)
    return np.asarray(heads[::-1])


class ReferenceGKSketch(GKSketch):
    """``GKSketch`` whose bulk absorb goes through the scalar compress."""

    def update_many(self, values):
        arr = np.asarray(values, dtype=np.int64).ravel()
        if arr.size < _BATCH_THRESHOLD:
            for value in arr:
                self.update(int(value))
            return
        batch = np.sort(arr)
        ranks = np.arange(1, batch.size + 1, dtype=np.int64)
        if self._n == 0:
            merged_vals, rmin, rmax = batch, ranks, ranks
        else:
            merged_vals, rmin, rmax = self._merge_raw(batch, ranks)
        self._n += int(batch.size)
        # Rebuild the tuple lists from (value, rmin, rmax) triples.
        rmin = np.maximum.accumulate(rmin)
        rmax = np.maximum(rmax, rmin)
        g = np.diff(rmin, prepend=0)
        keep = g > 0  # a zero-g tuple adds no counting information
        self._columns = (
            merged_vals[keep].tolist(),
            g[keep].tolist(),
            (rmax - rmin)[keep].tolist(),
        )
        self._query_arrays = None
        self._compress()
        self._since_compress = 0

    def _merge_raw(self, batch, ranks):
        """Exact-rank merge of the tuples with a sorted batch."""
        a_vals = np.asarray(self._values, dtype=np.int64)
        a_rmin = np.cumsum(np.asarray(self._g, dtype=np.int64))
        a_rmax = a_rmin + np.asarray(self._delta, dtype=np.int64)
        in_batch = np.searchsorted(batch, a_vals, side="left")
        succ = np.searchsorted(a_vals, batch, side="right")
        pred = succ - 1
        low_a = np.where(pred >= 0, a_rmin[np.maximum(pred, 0)], 0)
        up_a = np.where(
            succ < len(a_vals),
            a_rmax[np.minimum(succ, len(a_vals) - 1)] - 1,
            self._n,
        )
        merged_vals = np.concatenate([a_vals, batch])
        merged_rmin = np.concatenate([a_rmin + in_batch, ranks + low_a])
        merged_rmax = np.concatenate(
            [a_rmax + in_batch, ranks + np.maximum(up_a, low_a)]
        )
        order = np.lexsort((merged_rmin, merged_vals))
        return merged_vals[order], merged_rmin[order], merged_rmax[order]
