"""Simulated disk substrate: block device, sorted runs, external sort.

The paper's evaluation counts disk accesses on a real laptop disk; this
package reproduces that accounting with a simulated block device (see
DESIGN.md section 3 for the substitution rationale).  Payload bytes
live behind the pluggable :mod:`~repro.storage.backends` protocol —
in-memory (default), real mmap-backed files, or an emulated object
store — without changing what the block model charges.
"""

from .backends import (
    BACKEND_NAMES,
    BlockDevice,
    MmapFileBackend,
    ObjectStoreBackend,
    ObjectStoreLatency,
    RunHandle,
    SimulatedBackend,
    make_backend,
)
from .cache import BlockCache
from .disk import SimulatedDisk
from .external_sort import ExternalSorter, merge_runs
from .runfile import SortedRun
from .shared_cache import SharedBlockCache
from .stats import DiskLatencyModel, DiskStats, IoCounters

__all__ = [
    "BACKEND_NAMES",
    "BlockCache",
    "BlockDevice",
    "MmapFileBackend",
    "ObjectStoreBackend",
    "ObjectStoreLatency",
    "RunHandle",
    "SharedBlockCache",
    "SimulatedBackend",
    "SimulatedDisk",
    "ExternalSorter",
    "make_backend",
    "merge_runs",
    "SortedRun",
    "DiskLatencyModel",
    "DiskStats",
    "IoCounters",
]
