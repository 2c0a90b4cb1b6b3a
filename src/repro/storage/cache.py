"""Per-query block cache.

Section 2.4's optimization: once the recursive search within a partition
is confined to a single disk block, that block is pinned in memory and
all further probes are free.  More generally, a query never pays twice
for the same block.  :class:`BlockCache` implements exactly that: it is
created per query, remembers which (run, block) pairs have been
charged, charges the disk once per new pair — and pins the bytes it
charged for, so :class:`~repro.storage.runfile.SortedRun` fetches each
block from the backend once per query and answers every further probe
from the pinned payload.

A cache belongs to one query (or one warming pass) and is touched only
by the thread running it, so it takes no locks; state shared across
queries — the disk's counters and the shared tier — guards itself.

When a :class:`~repro.storage.shared_cache.SharedBlockCache` is
attached, the per-query cache becomes a thin read-through layer: the
first touch of a block by this query consults the shared tier, and only
a shared-tier **miss** is charged to the disk (and counted in
``blocks_charged``).  A shared hit is free and tallied separately in
``shared_hits``, so the paper's per-query accounting is preserved in the
cold case and visibly relaxed in the warm case.  With no shared tier
attached the code path is exactly the historical one.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Optional, Set

import numpy as np

from .backends import contiguous_spans
from .disk import SimulatedDisk
from .shared_cache import SharedBlockCache


class BlockCache:
    """Remembers blocks already read by the current query.

    Parameters
    ----------
    disk:
        The disk to charge for first-time block reads.
    enabled:
        When ``False`` the cache degrades to "charge every probe",
        which is the un-optimized variant measured by the block-cache
        ablation benchmark; nothing is pinned, so every probe is also
        a backend read.
    shared:
        Optional process-wide shared tier to read through.  ``None``
        (the default) reproduces the historical per-query accounting
        exactly.
    """

    def __init__(
        self,
        disk: SimulatedDisk,
        enabled: bool = True,
        shared: Optional[SharedBlockCache] = None,
    ) -> None:
        self._disk = disk
        self._enabled = enabled
        self._shared = shared
        self._seen: Dict[int, Set[int]] = {}
        #: payload of each block this query fetched, per run; a pinned
        #: block is always a seen one.
        self._pinned: Dict[int, Dict[int, np.ndarray]] = {}
        self.blocks_charged = 0
        #: first-touches answered by the shared tier (free, not charged).
        self.shared_hits = 0
        #: charged blocks per run — a search's deepest chain is the
        #: modeled critical path of Section 4's parallel reads.
        self.blocks_per_run: "Counter[int]" = Counter()

    @property
    def shared(self) -> Optional[SharedBlockCache]:
        """The attached shared tier, if any."""
        return self._shared

    def _charge(self, run_id: int, blocks: int) -> None:
        """Record ``blocks`` charged reads against ``run_id``."""
        self.blocks_charged += blocks
        self.blocks_per_run[run_id] += blocks

    def touch(self, run_id: int, block: int) -> int:
        """Charge a random read of ``block`` in run ``run_id`` if new.

        Returns the number of blocks actually charged to the disk (0 on
        a per-query or shared-tier hit, 1 on a miss).  Callers use the
        return value to decide whether the read reached the storage
        backend — a cache hit must never become an object-store GET.
        """
        seen = self._seen.setdefault(run_id, set())
        if self._enabled and block in seen:
            return 0
        # Charge before recording: the charge may raise an injected
        # DiskFault, and a block whose read failed must not look
        # cached to the retried probe.
        if self._shared is not None:
            hit = self._shared.fetch_block(
                run_id, block, self._disk.charge_random_read
            )
            seen.add(block)
            if hit:
                self.shared_hits += 1
                return 0
        else:
            self._disk.charge_random_read(1)
            seen.add(block)
        self._charge(run_id, 1)
        return 1

    def touch_range(self, run_id: int, first_block: int, last_block: int) -> int:
        """Charge reads for every new block in [first_block, last_block].

        The unseen blocks of the range are charged in a single ranged
        random read (one ``charge_random_read(n)`` call), so a prefetch
        pays one disk *operation* per partition while the charged block
        count stays identical to the historical block-at-a-time loop.  Returns the total blocks charged (cache
        hits excluded), mirroring :meth:`touch`.
        """
        seen = self._seen.setdefault(run_id, set())
        blocks = range(first_block, last_block + 1)
        if self._enabled:
            new = [b for b in blocks if b not in seen]
        else:
            new = list(blocks)
        if not new:
            return 0
        charged = 0
        if self._shared is not None:
            # Contiguous sub-ranges of the unseen blocks, so the
            # shared tier sees ranged lookups (and charges each
            # missing sub-range as one ranged read).
            for lo, hi in contiguous_spans(new):
                hits, misses = self._shared.fetch_range(
                    run_id, lo, hi, self._disk.charge_random_read
                )
                seen.update(range(lo, hi + 1))
                self.shared_hits += hits
                if misses:
                    self._charge(run_id, misses)
                    charged += misses
        else:
            # Charge-before-record, as in touch(): a DiskFault in
            # the ranged read leaves every block of it uncached.
            self._disk.charge_random_read(len(new))
            seen.update(new)
            self._charge(run_id, len(new))
            charged = len(new)
        return charged

    def pins(self, run_id: int) -> bool:
        """Whether blocks of ``run_id`` are paid for once and then held.

        ``False`` for the charge-every-probe ablation: a search may
        finish inside a pinned block only when this is true.
        """
        return self._enabled

    def pinned_block(self, run_id: int, block: int) -> Optional[np.ndarray]:
        """The payload pinned for ``block`` of ``run_id``, if any."""
        pinned = self._pinned.get(run_id)
        return pinned.get(block) if pinned is not None else None

    def pin_block(self, run_id: int, block: int, payload: np.ndarray) -> None:
        """Hold ``payload`` as the bytes of an already-touched block.

        Called only once the charge *and* the backend read succeeded: a
        block whose read faulted stays unpinned, so the retried probe
        goes through :meth:`touch` again.
        """
        if self._enabled:
            self._pinned.setdefault(run_id, {})[block] = payload

    def run_blocks(self) -> Dict[int, int]:
        """Blocks charged so far per run id (a copy)."""
        return dict(self.blocks_per_run)
