"""Windowed queries (Section 2.4, "Queries Over Windows").

A query over the last ``w`` time steps is answerable exactly when the
window boundary aligns with a partition boundary in HD; the engine then
restricts TS and the accurate search to the partition suffix covering
the window (plus the live stream, which is always part of the window).
"""

from __future__ import annotations

from typing import List, Sequence

from ..warehouse.partition import Partition


class WindowNotAlignedError(ValueError):
    """Raised when a window does not align with partition boundaries."""

    def __init__(self, window_steps: int, available: List[int]) -> None:
        self.window_steps = window_steps
        self.available = available
        super().__init__(
            f"window of {window_steps} steps does not align with "
            f"partition boundaries; available windows: {available}"
        )


def window_sizes_from(ordered: Sequence[Partition]) -> List[int]:
    """All historical window sizes answerable over ``ordered``: the
    suffix sums of partition step-counts, newest first — the x-axis of
    Figure 11."""
    sizes: List[int] = []
    total = 0
    for partition in reversed(ordered):
        total += partition.num_steps
        sizes.append(total)
    return sizes


def resolve_window_in(
    ordered: Sequence[Partition], window_steps: int
) -> List[Partition]:
    """Suffix of ``ordered`` covering exactly the last ``window_steps``.

    Operates on any step-ordered partition list — in particular the
    engine's combined snapshot of adopted *plus* pending partitions, so
    windowed queries stay answerable mid-archive.  A window of 0 steps
    is the empty list (stream only).  Raises
    :class:`WindowNotAlignedError` for unaligned windows; the exception
    carries the feasible window sizes (the x-axis of the paper's
    Figure 11).
    """
    if window_steps == 0:
        return []
    start = (ordered[-1].end_step if ordered else 0) - window_steps + 1
    for index, partition in enumerate(ordered):
        if partition.start_step == start:
            return list(ordered[index:])
    raise WindowNotAlignedError(window_steps, window_sizes_from(ordered))


class RangeNotAlignedError(ValueError):
    """Raised when a step range does not align with partitions."""

    def __init__(self, start_step: int, end_step: int) -> None:
        self.start_step = start_step
        self.end_step = end_step
        super().__init__(
            f"steps [{start_step}, {end_step}] do not align with "
            f"partition boundaries"
        )


def resolve_range_in(
    ordered: Sequence[Partition], start_step: int, end_step: int
) -> List[Partition]:
    """Slice of ``ordered`` covering exactly ``[start_step, end_step]``.

    The arbitrary-range generalization of windowed queries: any
    historical interval whose endpoints fall on partition boundaries
    is queryable (e.g. "the same week last year" for trend
    comparisons), over the engine's combined adopted-plus-pending
    snapshot.  Raises :class:`RangeNotAlignedError` otherwise.
    """
    selected = [
        p for p in ordered
        if p.end_step >= start_step and p.start_step <= end_step
    ]
    if (
        not selected
        or selected[0].start_step != start_step
        or selected[-1].end_step != end_step
    ):
        raise RangeNotAlignedError(start_step, end_step)
    return selected
