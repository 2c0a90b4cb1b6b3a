"""Reference for the TS doors: the paper's arrays, built.

Section 2.3.1 defines TS as one sorted array with a lower and an upper
rank bound per element (Lemma 2's ``L_i`` / ``U_i``), and Algorithms 5
and 7 as one search of those arrays each.  ``CombinedSummary`` never
builds them: it holds TS as its two halves and its doors search the
halves' tables.  :func:`paper_arrays` builds the arrays from those
tables, independently of the gap offsets the doors read, and
:func:`assert_searched_as_built` checks that every door answers as the
arrays do.  ``tests/conftest.py`` and ``benchmarks/conftest.py`` use
:func:`sweep_after_check_invariants`: after every
``HistoricalMemo.check_invariants`` call it sweeps each TS the memo
retains.
"""

from typing import NamedTuple

import numpy as np
import pytest

from repro.core.epoch import HistoricalMemo


class PaperArrays(NamedTuple):
    """TS ascending (duplicates kept), whether each element came from
    SS, and every ``L_i`` / ``U_i``."""

    values: np.ndarray
    from_stream: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def paper_arrays(ts):
    """Both halves of ``ts`` merged: an SS entry goes in front of the
    first HS value not below it, and an HS slot's bound is its share
    plus the stream term of the gap it sits in."""
    held = ts.historical.values
    left = np.searchsorted(held, ts.entries, side="left")
    slots = np.arange(len(ts.entries)) + left
    from_stream = np.zeros(len(held) + len(ts.entries), dtype=bool)
    from_stream[slots] = True
    # HS slot i sits in gap g: g entries are in front of it.
    gap = np.searchsorted(left, np.arange(len(held)), side="right")

    def place(base, at):
        merged = np.empty(len(from_stream), dtype=base.dtype)
        merged[~from_stream] = base
        merged[slots] = at
        return merged

    lower, upper = (
        place(base + term[gap], at)
        for base, term, at in (ts.lower_tables, ts.upper_tables)
    )
    return PaperArrays(place(held, ts.entries), from_stream, lower, upper)


def answers_off_the_arrays(arrays, rank):
    """Algorithms 5 and 7 as one ``searchsorted`` over the arrays:
    ``(quick, (u, v))``."""
    values, _, lower, upper = arrays
    y = int(np.searchsorted(lower, rank, side="left"))
    v = int(values[min(y, len(values) - 1)])
    x = int(np.searchsorted(upper, rank, side="right")) - 1
    u = int(values[x]) if x >= 0 else int(values[0]) - 1
    return v, (min(u, v), max(u, v))


def sweep_ranks(arrays, total_size, stride=97):
    """The ranks on and beside every ``stride``-th bound, and the ends."""
    near = np.rint(np.append(arrays.lower[::stride], arrays.upper[::stride]))
    n = total_size
    return sorted(
        {-1, 0, 1, n - 1, n, n + 1}
        | {int(b) + step for b in near for step in (-1, 0, 1)}
    )


def assert_searched_as_built(ts, stride=97):
    """Algorithms 5 and 7, searched, at every swept rank, answer as the
    built arrays do."""
    arrays = paper_arrays(ts)
    for rank in sweep_ranks(arrays, ts.total_size, stride):
        searched = ts.quick_response(rank), ts.generate_filters(rank)
        built = answers_off_the_arrays(arrays, rank)
        if searched != built:
            raise AssertionError(
                f"TS searched differs from TS built at rank {rank}: "
                f"{searched} != {built}"
            )


def sweep_retained(memo):
    """:func:`assert_searched_as_built` over each TS ``memo`` retains."""
    with memo._lock:
        held = [entry.combined for entry in memo._entries.values()]
    for ts in held:
        if ts is not None:
            assert_searched_as_built(ts)


@pytest.fixture(autouse=True)
def sweep_after_check_invariants(monkeypatch):
    """Every ``HistoricalMemo.check_invariants`` call also sweeps the
    TS its memo retains (:func:`sweep_retained`)."""
    check = HistoricalMemo.check_invariants

    def check_and_sweep(memo):
        check(memo)
        sweep_retained(memo)

    monkeypatch.setattr(HistoricalMemo, "check_invariants", check_and_sweep)
