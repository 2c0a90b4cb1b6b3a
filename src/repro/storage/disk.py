"""A simulated block device.

The paper evaluates on a laptop hard disk with 100 KB blocks.  We cannot
(and, per the reproduction notes, should not try to) reproduce physical
disk timings; what the paper's lemmas and figures actually measure is
*block-granular access counts*.  :class:`SimulatedDisk` therefore stores
data in ordinary NumPy arrays but forces every access through a block
API that charges the owning :class:`~repro.storage.stats.DiskStats`.

One :class:`SimulatedDisk` instance backs one engine; every
:class:`~repro.storage.runfile.SortedRun` allocated from it shares the
same counters, so an experiment can read a single tally for, e.g., "disk
accesses per time step" (Fig. 7) or "disk accesses per query" (Fig. 9).

The disk itself is stateless apart from its :class:`DiskStats`, whose
counter updates are atomic — concurrent queries and the archiver
charge it from several threads at once without losing counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from .backends import SimulatedBackend
from .stats import DiskLatencyModel, DiskStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .backends import BlockDevice


class SimulatedDisk:
    """Block-granular storage with I/O accounting.

    Parameters
    ----------
    block_elems:
        Number of data elements per disk block.  The paper uses 100 KB
        blocks with 8-byte values (12 800 elements); scaled-down
        experiments use proportionally smaller blocks so that the
        blocks-per-batch ratio matches the paper's.
    latency:
        Optional latency model used to convert access counts into
        simulated seconds.
    backend:
        Optional :class:`~repro.storage.backends.BlockDevice` that owns
        the payload bytes of every run allocated from this disk.
        Defaults to the in-memory
        :class:`~repro.storage.backends.SimulatedBackend`, which keeps
        historical behaviour bit-identical.  Backends never change what
        is *charged* — they add real bytes and request-level accounting
        (object GET/PUT) on top of the block counters.
    """

    def __init__(
        self,
        block_elems: int = 4096,
        latency: Optional[DiskLatencyModel] = None,
        backend: "Optional[BlockDevice]" = None,
    ) -> None:
        if block_elems < 1:
            raise ValueError("block_elems must be >= 1")
        self.block_elems = block_elems
        self.stats = DiskStats()
        self.latency = latency if latency is not None else DiskLatencyModel()
        self.backend: "BlockDevice" = (
            backend if backend is not None else SimulatedBackend()
        )

    def blocks_for(self, num_elems: int) -> int:
        """Number of blocks occupied by ``num_elems`` elements."""
        if num_elems <= 0:
            return 0
        return -(-num_elems // self.block_elems)

    def block_of(self, index: int) -> int:
        """The block number holding the element at ``index``."""
        return index // self.block_elems

    def write_sequential(self, data: np.ndarray) -> np.ndarray:
        """Persist ``data`` to disk, charging sequential write I/O.

        Returns the stored array (a copy, so callers cannot mutate the
        on-disk image through their reference).
        """
        stored = np.array(data, copy=True)
        self.stats.record_sequential_write(self.blocks_for(len(stored)))
        return stored

    def read_sequential(self, stored: np.ndarray) -> np.ndarray:
        """Scan an on-disk array, charging sequential read I/O."""
        self.stats.record_sequential_read(self.blocks_for(len(stored)))
        return stored

    def charge_sequential_read(self, num_elems: int) -> None:
        """Charge a sequential scan of ``num_elems`` elements."""
        self.stats.record_sequential_read(self.blocks_for(num_elems))

    def charge_sequential_write(self, num_elems: int) -> None:
        """Charge a sequential write of ``num_elems`` elements."""
        self.stats.record_sequential_write(self.blocks_for(num_elems))

    def charge_random_read(self, blocks: int = 1) -> None:
        """Charge ``blocks`` random block reads."""
        self.stats.record_random_read(blocks)

    def simulated_seconds(self) -> float:
        """Total simulated time for all accesses so far.

        Block-model latency plus whatever request latency the storage
        backend accrued (e.g. object-store GET/PUT round trips).
        """
        return self.latency.seconds(self.stats.counters) + self.backend.simulated_seconds()
