"""Alternative compaction policy: leveled (LevelDB-style) merging.

The paper's HD is *tiered*: up to ``kappa`` partitions accumulate per
level and merge upward in one shot — cheap updates, but queries touch
up to ``kappa * log_kappa(T)`` partitions.  The paper's Section 4 asks
how "improved data structures" could shift the accuracy/memory/disk
tradeoff; the classic counterpart from the LSM literature is *leveled*
compaction: each level beyond 0 keeps a single sorted partition, and
incoming data merges into it.  Updates rewrite that partition over and
over (higher amortized I/O, the LSM write amplification), but a query
consults only ``~log_kappa(T)`` partitions, each with a denser summary
under a fixed memory budget.

:class:`LeveledCompactionStore` is a drop-in replacement for
:class:`~repro.warehouse.leveled_store.LeveledStore`; the
``benchmarks/test_ablation_compaction.py`` ablation measures the
tradeoff on identical workloads.  It inherits the stage/adopt split
used by the background ingest pipeline (``repro.ingest``) unchanged:
``stage_partition`` never touches the layout, and ``adopt_partition``
drives this class's overridden ``_make_room``, so leveled compaction
cascades run off the hot path exactly like tiered merges do.
"""

from __future__ import annotations

from typing import List, Optional

from .leveled_store import LeveledStore
from .partition import Partition


class LeveledCompactionStore(LeveledStore):
    """HD with leveled (single-partition-per-level) compaction.

    Level 0 buffers up to ``kappa`` single-step partitions, exactly as
    the tiered store does.  Every level ``l >= 1`` holds at most one
    partition covering at most ``kappa**(l+1)`` time steps; when an
    incoming merge would overflow that capacity, the partition is first
    pushed down into level ``l + 1`` (recursively), then the newcomer
    merges in.
    """

    def level_capacity_steps(self, level: int) -> int:
        """Maximum time steps a partition at ``level >= 1`` may cover."""
        return self.kappa ** (level + 1)

    def _make_room(self, level: int) -> None:
        if level != 0:
            raise AssertionError(
                "leveled compaction only buffers at level 0"
            )
        if len(self._levels[0]) < self.kappa:
            return
        incoming_steps = sum(p.num_steps for p in self._levels[0])
        self._ensure_capacity(1, incoming_steps)
        self._compact_into(1, list(self._levels[0]))
        self._levels[0] = []

    def _ensure_capacity(self, level: int, incoming_steps: int) -> None:
        """Push level's resident partition down if it cannot absorb."""
        while level + 1 > len(self._levels) - 1:
            self._levels.append([])
        resident = self._resident(level)
        if resident is None:
            return
        if resident.num_steps + incoming_steps <= self.level_capacity_steps(
            level
        ):
            return
        self._ensure_capacity(level + 1, resident.num_steps)
        self._compact_into(level + 1, [resident])
        self._levels[level] = []

    def _resident(self, level: int) -> Optional[Partition]:
        if level >= len(self._levels) or not self._levels[level]:
            return None
        if len(self._levels[level]) != 1:
            raise AssertionError(
                f"leveled compaction keeps one partition at level {level}"
            )
        return self._levels[level][0]

    def _compact_into(self, level: int, newcomers: List[Partition]) -> None:
        """Merge ``newcomers`` (older-first) into ``level``'s partition."""
        while level > len(self._levels) - 1:
            self._levels.append([])
        resident = self._resident(level)
        victims = ([resident] if resident else []) + newcomers
        self._levels[level] = [self._merged(victims, level)]
        if self.on_retire is not None:
            self.on_retire([p.run.run_id for p in victims])

    def check_invariant(self) -> None:
        """Assert the structural invariants of this store."""
        super().check_invariant()
        for level_index in range(1, len(self._levels)):
            level = self._levels[level_index]
            if len(level) > 1:
                raise AssertionError(
                    f"level {level_index} holds {len(level)} partitions; "
                    "leveled compaction allows one"
                )
            if level and level[0].num_steps > self.level_capacity_steps(
                level_index
            ):
                raise AssertionError(
                    f"level {level_index} exceeds its step capacity"
                )
