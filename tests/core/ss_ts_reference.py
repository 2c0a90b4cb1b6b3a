"""Reference for ``StreamSummary.extract`` and ``CombinedSummary.fuse``.

Both build their arrays in fewer passes now.  The SS rank schedule
``arange(1, beta2) * eps2`` is cached per ``eps2``; ``ceil``, ``+=
slack`` and ``minimum`` run in place, and so does the key arithmetic of
``GKSketch.query_ranks``.  The fuse writes ``gaps`` and the stream's
``below`` / ``above`` terms into arrays it allocates once, and spreads
each tie group's HS position and alpha by a running max and min instead
of ``np.repeat``.  This is the form they had before that, one temporary
per step.  The two must give equal bits, field for field:
``tests/core/test_ss_ts_reference.py`` checks that.
"""

import math

import numpy as np

from repro.core.bounds import CombinedSummary
from repro.core.summaries import StreamSummary, run_starts
from repro.sketches.gk import GKSketch


def reference_query_ranks(sketch, ranks):
    """``sketch.query_ranks(ranks)``, each step in a new array."""
    if not isinstance(sketch, GKSketch):
        return sketch.query_ranks(ranks)
    n = sketch.n
    targets = np.clip(np.asarray(ranks, dtype=np.int64), 1, n)
    keys = (targets + sketch.epsilon * n).astype(np.int64)
    values, _, rmax = sketch._arrays()
    last = len(values) - 1
    if sketch._stride is not None:
        ahead = (keys - n) // sketch._stride
        return values[np.clip(last + ahead, 0, last)]
    first = np.searchsorted(np.maximum.accumulate(rmax), keys, "right")
    return values[np.clip(first - 1, 0, last)]


def reference_extract(sketch, eps2):
    """SS of ``sketch`` (run at ``eps2 / 2``), one temporary per step."""
    m = sketch.n
    if m == 0:
        return StreamSummary(values=np.empty(0, dtype=np.int64),
                             stream_size=0, eps2=eps2)
    beta2 = math.ceil(1.0 / eps2) + 1
    slack = math.ceil(sketch.epsilon * m)
    idx = np.arange(1, beta2, dtype=np.int64)
    targets = np.minimum(
        m, np.ceil(idx * eps2 * m).astype(np.int64) + slack
    )
    values, uppers = np.empty((2, beta2), dtype=np.int64)
    values[0] = sketch.min_value()
    values[1:] = reference_query_ranks(sketch, targets)
    np.maximum.accumulate(values, out=values)
    uppers[0] = 0
    np.minimum(m, targets + slack, out=uppers[1:])
    return StreamSummary(values=values, stream_size=m, eps2=eps2,
                         strict_uppers=uppers)


def reference_fuse(historical, stream_summary, previous=None):
    """TS of ``historical`` and ``stream_summary``, one temporary per step."""
    entries = stream_summary.values
    if len(entries) == 0 and len(historical) == 0:
        raise ValueError("cannot summarize an empty dataset")
    first = run_starts(entries)
    if first.all():
        runs, sizes, tied = slice(None), 1, slice(1, None)
    else:
        runs = np.flatnonzero(first)
        ends = np.append(runs, len(entries))[1:]
        sizes = ends - runs
        tied = np.repeat(ends, sizes)
    keys, base = entries[runs], historical.values
    if previous is None or previous.historical is not historical or (
        len(previous.entries) != len(entries)
    ):
        found = base.searchsorted(keys, "left")
    else:
        found = previous.gaps[1:-1][runs].copy()
        moved = np.flatnonzero(previous.entries[runs] != keys)
        found[moved] = base.searchsorted(keys[moved], "left")
    gaps = np.concatenate(([0], np.repeat(found, sizes), [len(base)]))
    left = gaps[1:-1]
    lower_at, upper_at = historical.shares_at(entries, left)
    m = stream_summary.stream_size
    alphas = np.arange(len(entries) + 1)
    scale = stream_summary.eps2 * m
    below = np.minimum((alphas - 1) * scale, m)
    below[0] = 0.0
    lower_at += below[tied]
    if stream_summary.strict_uppers is not None:
        above = np.append(
            stream_summary.strict_uppers.astype(np.float64), float(m)
        )
        above[0] = 0.0
        upper_at += above[tied]
    else:
        above = (alphas + 1) * scale
        above[0] = 0.0
        upper_at += (alphas * scale)[tied]
    return CombinedSummary(
        historical=historical,
        entries=entries,
        gaps=gaps,
        lower_tables=(historical.lower, below, lower_at),
        upper_tables=(historical.upper, above, upper_at),
        total_size=historical.total_size + m,
    )
