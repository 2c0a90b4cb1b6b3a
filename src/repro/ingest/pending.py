"""Sealed-but-unmerged batches, staged for querying.

A sealed batch must be queryable *immediately* — the paper's
correctness definition covers the union of everything ingested so
far, archived or not — and must stay so if its archive step fails.  A
:class:`PendingBatch` carries the batch from seal to adoption:

* **staging** turns the raw values into a real level-0
  :class:`~repro.warehouse.partition.Partition` — sorted run written
  to disk, summary and aggregates attached — via
  :meth:`~repro.warehouse.leveled_store.LeveledStore.stage_partition`;
* **adoption** (done by the archiver) splices the staged partition
  into the leveled layout, running any cascade merges.

Staging is idempotent and first-come-first-served: normally the
archive step does it, but a query that arrives while the archiver
thread is still merging an older step stages the batch itself rather
than waiting behind the merge.  Either way the charges happen exactly once
and are recorded here for the step's report.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

import numpy as np

from ..storage.stats import DiskStats
from ..warehouse.leveled_store import LeveledStore
from ..warehouse.partition import Partition


class PendingBatch:
    """One sealed time step on its way into the warehouse."""

    def __init__(self, step: int, values: np.ndarray) -> None:
        self.step = step
        self.size = int(values.size)
        #: wall seconds ``end_time_step`` blocked the stream for this
        #: batch (seal + any backpressure wait); set by the engine.
        self.stall_seconds = 0.0
        #: seal-time exact aggregates of the batch (set by the engine),
        #: so full-union aggregate queries stay disk-free mid-archive
        #: and the sort knows the batch's bounds.
        self.stats = None
        self._values: Optional[np.ndarray] = values
        self._stage_lock = threading.Lock()
        #: the staged partition, the I/O charged by staging and its
        #: per-phase CPU seconds, set once by :meth:`ensure_staged`.
        self.partition: Optional[Partition] = None
        self.stage_io: Optional[DiskStats] = None
        self.stage_cpu: Dict[str, float] = {}

    def __len__(self) -> int:
        return self.size

    @property
    def staged(self) -> bool:
        """Whether the batch is already a queryable partition."""
        return self.partition is not None

    def ensure_staged(self, store: LeveledStore) -> Partition:
        """Stage the batch if nobody has yet; return the partition.

        Thread-safe and idempotent: the sort passes and the sequential
        write are charged exactly once, by whichever thread gets here
        first.  Callers holding the store's layout lock must not call
        this (staging deliberately runs outside it).
        """
        with self._stage_lock:
            if self.partition is None:
                stats = self.stats
                bounds = (stats.minimum, stats.maximum) if stats else (None, None)
                self.partition, self.stage_io, self.stage_cpu = (
                    store.stage_partition(self._values, self.step, bounds)
                )
                self._values = None  # the sorted run owns the data now
            return self.partition
