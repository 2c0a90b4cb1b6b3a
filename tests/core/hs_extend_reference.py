"""Reference for ``HistoricalSummary.extended``: three searches.

``extended`` places the new entries among the held values with one
``searchsorted`` of the held values, gathers each entry's starting
share from the held value in front of it or, on a tie, the first equal
one behind (``HistoricalSummary.shares_at``: equal values carry equal
shares), and reads every partition's alpha steps off the entries'
slots.  This is the form it had before that: a left and a right search
of the held values, each entry starting from the *last* held value at
most it, shares gathered from a copy of the held array with a zero in
front, and one search of the merged array per partition.  The two must
return equal bits — ``tests/core/test_hs_extend.py`` checks that.
"""

import numpy as np

from repro.core.bounds import HistoricalSummary


def reference_extended(held, *summaries):
    """``held`` with ``summaries`` appended to its partition set."""
    summaries = [summary for summary in summaries if len(summary)]
    if not summaries:
        return held
    entries = np.sort(np.concatenate([s.values for s in summaries]))
    slots = np.arange(len(entries)) + np.searchsorted(
        held.values, entries, side="left"
    )
    inserted = np.zeros(len(held.values) + len(entries), dtype=bool)
    inserted[slots] = True
    covered = np.searchsorted(held.values, entries, side="right")

    def place(base, new):
        merged = np.empty(len(inserted), dtype=base.dtype)
        merged[~inserted] = base
        merged[slots] = new
        return merged

    def shares(base):
        return place(base, np.concatenate(([0.0], base))[covered])

    values = place(held.values, entries)
    lower = shares(held.lower)
    upper = shares(held.upper)
    for summary in summaries:
        size = summary.partition_size
        alphas = np.arange(len(summary) + 1)
        scale = summary.eps1 * size
        below = np.minimum((alphas - 1) * scale, size)
        if scale <= 1:
            below[1:] = np.maximum(below[1:], summary.positions)
        below[0] = 0.0
        above = np.maximum(
            alphas * scale, np.append(summary.positions - 1, size)
        )
        above[0] = 0.0
        first = np.searchsorted(values, summary.values, side="left")
        runs = np.diff(first, prepend=0, append=len(values))
        lower += np.repeat(below, runs)
        upper += np.repeat(above, runs)
    return HistoricalSummary(
        values=values,
        lower=lower,
        upper=upper,
        total_size=held.total_size
        + sum(summary.partition_size for summary in summaries),
    )
