"""HD: the leveled on-disk store for historical data (Section 2.1).

Each level holds at most ``kappa`` sorted partitions.  A new batch is
sorted and stored at level 0; when a level is already full as a new
partition is about to enter it, all ``kappa`` of its partitions are
first multi-way merged into a single partition one level up (recursing
upward if that level is full too).

Merge semantics note.  Algorithm 3's pseudocode and Figure 2's
illustration suggest merging after the insertion (kappa + 1 partitions
at once), but the paper's own measured disk-access counts in Figure 8
(10K / 190K / 1810K accesses per step for kappa = 9; 1130K for
kappa = 7 with B = 100 KB, 1 GB batches) are reproduced exactly by
merge-*before*-add of exactly ``kappa`` partitions.  We implement the
measured behaviour; see DESIGN.md.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from ..storage.disk import SimulatedDisk
from ..storage.external_sort import ExternalSorter, merge_runs
from ..storage.runfile import SortedRun
from ..storage.stats import PhaseTally
from .partition import Partition

SummaryBuilder = Callable[[Partition], Any]


def window_from(
    ordered: Sequence[Partition], last_step: int, window_steps: int
) -> Optional[List[Partition]]:
    """Suffix of ``ordered`` covering exactly the last ``window_steps``.

    Windowed queries are only possible when the window boundary is
    aligned with a partition boundary; ``None`` otherwise.  A window of
    0 steps is the empty list (stream only).  Takes a list, not the
    store: the engine asks over a consistent snapshot that appends
    pending (sealed but not yet merged) partitions to the layout.
    """
    if window_steps == 0:
        return []
    target_start = last_step - window_steps + 1
    if target_start < 1:
        return None
    suffix: List[Partition] = []
    for partition in reversed(ordered):
        suffix.append(partition)
        if partition.start_step == target_start:
            suffix.reverse()
            return suffix
        if partition.start_step < target_start:
            return None
    return None


def range_from(
    ordered: Sequence[Partition], start_step: int, end_step: int
) -> Optional[List[Partition]]:
    """Partitions of ``ordered`` covering exactly ``[start_step, end_step]``."""
    if start_step < 1 or end_step < start_step:
        return None
    selected: List[Partition] = []
    for partition in ordered:
        if partition.end_step < start_step:
            continue
        if partition.start_step > end_step:
            break
        selected.append(partition)
    if not selected:
        return None
    if selected[0].start_step != start_step:
        return None
    if selected[-1].end_step != end_step:
        return None
    return selected


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


class LeveledStore:
    """The on-disk historical structure HD.

    Parameters
    ----------
    disk:
        Simulated device holding every partition.
    kappa:
        Merge threshold: the maximum number of partitions per level.
    sorter:
        External sorter used for incoming batches.  Defaults to one
        whose workspace holds any batch (matching the paper's
        accounting, where a plain no-merge step costs exactly one
        sequential write of the batch — Figure 8).
    summary_builder:
        Called with each newly created :class:`Partition` to attach its
        in-memory summary.  Building happens while the partition data
        is being written, so it charges no additional disk access.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        kappa: int,
        sorter: Optional[ExternalSorter] = None,
        summary_builder: Optional[SummaryBuilder] = None,
    ) -> None:
        if kappa < 2:
            raise ValueError("kappa (merge threshold) must be >= 2")
        self.disk = disk
        self.kappa = kappa
        self._sorter = sorter if sorter is not None else ExternalSorter(disk)
        self._summary_builder = summary_builder
        self._levels: List[List[Partition]] = [[]]
        self._steps_loaded = 0
        # Guards the level layout: mutations (adopt_partition's
        # cascade, load_partitions) and layout reads (partitions())
        # serialize on it, so a query thread always sees a complete
        # cascade, never a half-merged one.  Partitions themselves are
        # immutable once attached, so the snapshot list partitions()
        # returns stays valid however far the store advances afterwards.
        self._layout_lock = threading.RLock()
        # Invoked with the run ids retired by a merge, inside the same
        # layout-lock critical section that removes them from the
        # layout.  The engine wires this to shared-cache invalidation
        # so a retired run's blocks can never outlive the run.
        self.on_retire: Optional[Callable[[Sequence[int]], None]] = None

    @property
    def layout_lock(self) -> threading.RLock:
        """The lock serializing layout mutations and snapshots.

        Exposed so the background archiver can make "adopt a staged
        partition + unlink it from the pending set" one atomic step
        relative to query snapshots.
        """
        return self._layout_lock

    # ------------------------------------------------------------------
    # Maintenance (Algorithm 3)
    # ------------------------------------------------------------------

    def add_batch(self, data: np.ndarray, step: Optional[int] = None) -> Partition:
        """Sort a batch and store it as a new level-0 partition.

        :meth:`stage_partition` then :meth:`adopt_partition` in one
        layout-lock section, for callers with no pending set to keep
        the batch queryable in between.  Returns the new partition.
        """
        with self._layout_lock:
            if step is None:
                step = self._steps_loaded + 1
            partition, _, _ = self.stage_partition(data, step)
            self.adopt_partition(partition)
            return partition

    def stage_partition(
        self, data: np.ndarray, step: int
    ) -> "tuple[Partition, PhaseTally, Dict[str, float]]":
        """Sort, persist and summarize a batch *without* inserting it.

        The first half of Algorithm 3: a sealed batch becomes a fully
        queryable level-0 partition — sorted run on disk, summary and
        aggregates attached — while the leveled layout stays untouched,
        so no layout lock is taken and queries can keep snapshotting.
        :meth:`adopt_partition` later splices it into the layout
        (triggering any cascade) under the lock.

        Charges the sort passes and one sequential write of the batch,
        and returns the partition together with this thread's I/O
        tally and per-phase CPU seconds for the step's report.
        """
        cpu: Dict[str, float] = {}
        with self.disk.stats.capture() as tally:
            with self.disk.stats.phase_scope("sort"):
                started = time.perf_counter()
                sorted_batch = self._sorter.sorted_array(data)
                cpu["sort"] = time.perf_counter() - started
            with self.disk.stats.phase_scope("load"):
                started = time.perf_counter()
                run = SortedRun(self.disk, sorted_batch, charge_write=True)
                partition = Partition(
                    level=0, start_step=step, end_step=step, run=run
                )
                cpu["load"] = time.perf_counter() - started
                started = time.perf_counter()
                self._attach_summary(partition)
                cpu["summary"] = time.perf_counter() - started
        return partition, tally, cpu

    def adopt_partition(self, partition: Partition) -> None:
        """Insert a staged level-0 partition into the layout.

        Merges full levels before the insertion (the cascade), under
        the layout lock so concurrent snapshots see either the pre- or
        post-adoption layout, never a half-merged one.
        """
        if partition.level != 0:
            raise ValueError("only level-0 partitions can be adopted")
        with self._layout_lock:
            self._make_room(0)
            self._levels[0].append(partition)
            self._steps_loaded = max(self._steps_loaded, partition.end_step)

    def _make_room(self, level: int) -> None:
        """Ensure ``level`` has a free slot, merging upward if needed."""
        if len(self._levels[level]) < self.kappa:
            return
        if level + 1 >= len(self._levels):
            self._levels.append([])
        self._make_room(level + 1)
        self._merge_level(level)

    def _merge_level(self, level: int) -> None:
        """Merge all partitions of ``level`` into one at ``level + 1``."""
        victims = self._levels[level]
        with self.disk.stats.phase_scope("merge"):
            merged_run = merge_runs(self.disk, [p.run for p in victims])
        merged = Partition(
            level=level + 1,
            start_step=victims[0].start_step,
            end_step=victims[-1].end_step,
            run=merged_run,
        )
        self._attach_summary(merged)
        self._levels[level] = []
        self._levels[level + 1].append(merged)
        # Tiering policy: the merged run now lives at a deeper (colder)
        # level — let the storage backend age it out (e.g. migrate it
        # into the object tier once past ``object_tier_level``).
        self.disk.backend.place_run(merged_run.run_id, level + 1)
        if self.on_retire is not None:
            self.on_retire([p.run.run_id for p in victims])

    def _attach_summary(self, partition: Partition) -> None:
        if self._summary_builder is not None:
            partition.summary = self._summary_builder(partition)

    def load_partitions(
        self, partitions_by_level: List[List[Partition]]
    ) -> None:
        """Adopt a previously persisted partition layout.

        Used by the persistence layer to restore HD after a restart.
        Summaries are (re)built through the configured builder and the
        structural invariants are verified before adoption.
        """
        with self._layout_lock:
            if self.partition_count():
                raise ValueError("store already holds partitions")
            self._levels = [list(level) for level in partitions_by_level]
            if not self._levels:
                self._levels = [[]]
            for level in self._levels:
                for partition in level:
                    if partition.summary is None:
                        self._attach_summary(partition)
                    # Restored runs resume their tier placement: cold
                    # levels age straight back into the object tier.
                    self.disk.backend.place_run(
                        partition.run.run_id, partition.level
                    )
            self._steps_loaded = max(
                (p.end_step for p in self.partitions()), default=0
            )
            self.check_invariant()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_levels(self) -> int:
        """Number of levels currently allocated (including empty ones)."""
        return len(self._levels)

    @property
    def steps_loaded(self) -> int:
        """Highest time step whose batch has been loaded."""
        return self._steps_loaded

    def level(self, index: int) -> Sequence[Partition]:
        """Partitions at a level, oldest first."""
        return tuple(self._levels[index])

    def partitions(self) -> List[Partition]:
        """All partitions in chronological order (oldest data first).

        Returns a snapshot list taken under the layout lock: safe to
        iterate (and to probe through the query executor) while another
        thread loads batches into the store.
        """
        with self._layout_lock:
            ordered: List[Partition] = []
            for level in reversed(self._levels):
                ordered.extend(level)
            return ordered

    def total_elements(self) -> int:
        """Total number of historical elements n."""
        return sum(len(p) for p in self.partitions())

    def partition_count(self) -> int:
        """Total number of partitions across all levels."""
        return sum(len(level) for level in self._levels)

    def check_invariant(self) -> None:
        """Assert the structural invariants of HD.

        Every level holds at most ``kappa`` partitions, and the
        chronological ordering of partitions is contiguous and gapless
        from step 1 through the last loaded step.
        """
        for index, level in enumerate(self._levels):
            if len(level) > self.kappa:
                raise AssertionError(
                    f"level {index} holds {len(level)} > kappa={self.kappa}"
                )
        ordered = self.partitions()
        expected_start = None
        for partition in ordered:
            if expected_start is not None and partition.start_step != expected_start:
                raise AssertionError(
                    f"gap before partition {partition!r}: expected start "
                    f"{expected_start}"
                )
            expected_start = partition.end_step + 1
