"""Pluggable block-device backends for sorted-run storage.

`SimulatedDisk` models the *cost* of block I/O; this module supplies
the *bytes*.  A :class:`BlockDevice` owns the payload of every sorted
run, at the width it is given (int32 or int64), and hands out
:class:`RunHandle` objects that `SortedRun` reads through.  Three
implementations ship:

``SimulatedBackend``
    Resident in-memory arrays — the deterministic default.  Zero real
    I/O, zero added latency.

``MmapFileBackend``
    One real file per run under a directory, committed with the
    atomic write/fsync/rename discipline of :mod:`repro.storage.fsutil`
    and read back through ``numpy`` memory maps, so block probes touch
    the page cache instead of a resident copy.

``ObjectStoreBackend``
    An S3-like emulation over a local bucket directory.  Runs are born
    in a hot file tier; the warehouse ages cold levels into the bucket
    (:meth:`place_run`), after which every *charged* block read becomes
    a GET request with per-request latency and GET/PUT counters.

The contract that keeps the repo's equivalence moat intact: backends
never change *what* is charged — `DiskStats` block counters are driven
by the existing charge paths and stay bit-identical across all three.
Backends only add request-level accounting (and real bytes) on top:
:meth:`~repro.storage.cache.BlockCache.fetch` passes every
:meth:`RunHandle.read_blocks` the number of blocks it charged, and only
a charged read becomes an object GET, so a shared-cache or
per-query-cache hit never does.  Random reads are the only requests
modeled: a cascade merge that reads a bucket run (``merge_runs`` over
``SortedRun.values``) is charged its sequential blocks in ``DiskStats``
but issues no modeled GET.  Whether it should is an open question.

The cold-read fast path (docs/ARCHITECTURE.md, "Cold-read pipeline")
shapes requests *under* the charge layer: :meth:`RunHandle.read_blocks`
returns just the requested block span (a ranged partial-object GET on
the object tier), and the object backend GETs only a charged range's
not-yet-fetched blocks, widened by charge-neutral readahead while a
block costs less than a request
(:meth:`ObjectStoreLatency.break_even_blocks`).
"""

from __future__ import annotations

import logging
import shutil
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Protocol, Set, Tuple, runtime_checkable

import numpy as np

from ..stats import BACKEND_FIELDS, Reading, StatsTable
from .fsutil import atomic_copy_file, atomic_write, fsync_dir, remove_stale_stages

_logger = logging.getLogger(__name__)

#: recognised values of ``EngineConfig.storage_backend``.
BACKEND_NAMES = ("simulated", "mmap", "object")

#: tier labels reported by :attr:`RunHandle.tier`.
MEMORY_TIER = "memory"
FILE_TIER = "file"
OBJECT_TIER = "object"


@dataclass(frozen=True)
class ObjectStoreLatency:
    """Per-request latency model of the emulated object store.

    Request setup dominates object-store reads, so latency is charged
    per GET/PUT plus a small per-block streaming term — this is what
    makes ranged GETs (one request, many blocks) worth planning for.
    """

    seconds_per_get: float = 5e-3
    seconds_per_get_block: float = 1e-4
    seconds_per_put: float = 1e-2

    #: readahead width used when the per-block streaming cost is zero
    #: (the break-even point would be unbounded).
    DEFAULT_READAHEAD_CAP = 256

    def break_even_blocks(self) -> int:
        """Blocks a ranged GET can be widened by before a second
        request would have been cheaper.

        Widening one GET by ``k`` blocks costs
        ``k * seconds_per_get_block``; issuing a separate GET for those
        blocks later costs ``seconds_per_get`` of request setup (plus
        the same streaming).  Readahead therefore pays for itself while
        ``k <= seconds_per_get / seconds_per_get_block`` — 50 blocks at
        the defaults.  A model with free request setup
        (``seconds_per_get=0``) never widens.
        """
        if self.seconds_per_get_block <= 0:
            return self.DEFAULT_READAHEAD_CAP
        return int(self.seconds_per_get // self.seconds_per_get_block)

    def __post_init__(self) -> None:
        for field in fields(self):
            if getattr(self, field.name) < 0:
                raise ValueError(f"{field.name} must be >= 0")


@runtime_checkable
class RunHandle(Protocol):
    """Read path of one sorted run inside a backend."""

    run_id: int
    #: elements per block, bound by :class:`~repro.storage.runfile.
    #: SortedRun` at allocation so ranged reads can map blocks to byte
    #: offsets without consulting the disk object.
    block_elems: int

    @property
    def tier(self) -> str:
        """Current tier label (``memory`` / ``file`` / ``object``)."""

    @property
    def data(self) -> np.ndarray:
        """The run's payload as a read-only (possibly mapped) array."""

    def read_blocks(
        self, first_block: int, last_block: int, charged: int = 0
    ) -> np.ndarray:
        """Elements stored in blocks ``[first_block, last_block]``.

        The partial-read primitive of the cold path: backends return
        only the requested span — the file-backed backends as a slice
        of the run's memory map, the simulated backend as a free view —
        so a cold probe never copies the whole run.  ``charged`` is the
        number of blocks the cache layer charged for this read (misses
        only); the object backend turns a charged read of a bucket run
        into one GET per not-yet-fetched contiguous sub-range.
        """


@runtime_checkable
class BlockDevice(Protocol):
    """What a storage backend must provide to the engine.

    The engine allocates a run per sorted array, routes every charged
    read through the run's handle, asks :meth:`place_run` to apply the
    tiering policy when the warehouse (re)levels a run, and deletes
    runs as compaction retires them.  ``close`` releases resources (and
    removes any owned temporary directory).
    """

    name: str
    #: its engine's table (a probe retry of its disk counts there too).
    table: StatsTable

    def allocate_run(self, run_id: int, data: np.ndarray) -> RunHandle:
        """Persist ``data`` as run ``run_id`` and return its handle."""

    def delete_run(self, run_id: int) -> None:
        """Release run ``run_id`` (pinned handles keep reading)."""

    def place_run(self, run_id: int, level: int) -> None:
        """Apply the tiering policy for a run now living at ``level``."""

    def pin_runs(self, run_ids: Iterable[int]) -> None:
        """Refcount-pin runs against hot-tier eviction (snapshot scope)."""

    def unpin_runs(self, run_ids: Iterable[int]) -> None:
        """Release one pin per run taken by :meth:`pin_runs`."""

    def levels(self) -> Dict[str, int]:
        """The residency levels of :data:`~repro.stats.BACKEND_FIELDS`,
        by key, read off the runs held now."""

    def stats(self) -> Reading:
        """Request and residency counts
        (:data:`~repro.stats.BACKEND_FIELDS`)."""

    def simulated_seconds(self) -> float:
        """Modeled request latency accrued so far, in seconds."""

    def close(self) -> None:
        """Release resources; owned temporary directories are removed."""


class _SimulatedHandle:
    """Handle over a resident in-memory array (no request accounting)."""

    __slots__ = ("run_id", "block_elems", "_data")

    def __init__(self, run_id: int, data: np.ndarray) -> None:
        self.run_id = run_id
        self.block_elems = 1
        self._data = data

    @property
    def tier(self) -> str:
        return MEMORY_TIER

    @property
    def data(self) -> np.ndarray:
        return self._data

    def read_blocks(
        self, first_block: int, last_block: int, charged: int = 0
    ) -> np.ndarray:
        lo = first_block * self.block_elems
        hi = (last_block + 1) * self.block_elems
        return self._data[lo:hi]


class SimulatedBackend:
    """The deterministic default: runs live as in-memory arrays.

    Allocation keeps a read-only array that owns its memory as it is —
    the warehouse's own sorted step or merged run, built once where it
    then lives — and copies and freezes any other array, so a caller's
    array stays independent of the run.  Reads return views of it.
    Request counters stay zero.
    """

    name = "simulated"

    def __init__(self, table: Optional[StatsTable] = None) -> None:
        self._runs: Dict[int, np.ndarray] = {}
        self._lock = threading.Lock()
        self.table = table if table is not None else StatsTable()
        self.table.declare(BACKEND_FIELDS.values())

    def allocate_run(self, run_id: int, data: np.ndarray) -> _SimulatedHandle:
        stored = data
        if data.flags.writeable or not data.flags.owndata:
            stored = np.array(data, copy=True)
            stored.setflags(write=False)
        with self._lock:
            self._runs[run_id] = stored
        return _SimulatedHandle(run_id, stored)

    def delete_run(self, run_id: int) -> None:
        # Handles hold their own reference, so pinned snapshot readers
        # keep working after the backend forgets the run.
        with self._lock:
            self._runs.pop(run_id, None)

    def place_run(self, run_id: int, level: int) -> None:
        return None

    def pin_runs(self, run_ids: Iterable[int]) -> None:
        return None

    def unpin_runs(self, run_ids: Iterable[int]) -> None:
        return None

    def levels(self) -> Dict[str, int]:
        return {"storage.backend.hot_runs": len(self._runs)}

    def stats(self) -> Reading:
        return self.table.read(BACKEND_FIELDS, self.levels())

    def simulated_seconds(self) -> float:
        return 0.0

    def close(self) -> None:
        with self._lock:
            self._runs.clear()


class _FileHandle:
    """Lazy mmap view of a run file; pins bytes in RAM once deleted."""

    __slots__ = (
        "run_id",
        "block_elems",
        "_backend",
        "_mapped",
        "_resident",
        "_lock",
    )

    def __init__(self, backend: "MmapFileBackend", run_id: int) -> None:
        self.run_id = run_id
        self.block_elems = 1
        self._backend = backend
        self._mapped: Optional[np.ndarray] = None
        self._resident: Optional[np.ndarray] = None
        self._lock = threading.Lock()

    @property
    def tier(self) -> str:
        if self._resident is not None:
            return MEMORY_TIER
        return self._backend._tier_of(self.run_id)

    @property
    def data(self) -> np.ndarray:
        with self._lock:
            if self._resident is not None:
                return self._resident
            if self._mapped is None:
                # The path is re-resolved per attempt: a concurrent
                # tier migration (hot <-> bucket) can unlink the file
                # we were about to map, but the run always exists in
                # exactly one tier once the move completes.
                for attempt in range(3):
                    try:
                        self._mapped = np.load(
                            self._backend._path_of(self.run_id), mmap_mode="r"
                        )
                        break
                    except FileNotFoundError:
                        if attempt == 2:
                            raise
            return self._mapped

    def _materialize(self) -> None:
        """Copy the mapped bytes into RAM before the file disappears."""
        with self._lock:
            if self._resident is None:
                source = self._mapped
                if source is None:
                    try:
                        source = np.load(
                            self._backend._path_of(self.run_id), mmap_mode="r"
                        )
                    except (OSError, ValueError):
                        source = None
                if source is not None:
                    resident = np.array(source, copy=True)
                    resident.setflags(write=False)
                    self._resident = resident
                self._mapped = None

    def read_blocks(
        self, first_block: int, last_block: int, charged: int = 0
    ) -> np.ndarray:
        self._backend._note_read(self, first_block, last_block, charged)
        lo = first_block * self.block_elems
        hi = (last_block + 1) * self.block_elems
        return self.data[lo:hi]


class MmapFileBackend:
    """One ``run-<id>.npy`` file per sorted run, read through mmap.

    Files commit via :func:`repro.storage.fsutil.atomic_write`,
    so a crash leaves either the full previous state or the full new
    run, never a torn file.  :meth:`fsck` (run at startup) removes
    staging orphans left by a crash between write and rename.
    """

    name = "mmap"
    _RUN_PREFIX = "run-"

    def __init__(
        self,
        directory: "str | Path | None" = None,
        table: Optional[StatsTable] = None,
    ) -> None:
        self.table = table if table is not None else StatsTable()
        self.table.declare(BACKEND_FIELDS.values())
        if directory is None:
            self._directory = Path(tempfile.mkdtemp(prefix="repro-mmap-"))
            self._owns_directory = True
        else:
            self._directory = Path(directory)
            self._directory.mkdir(parents=True, exist_ok=True)
            self._owns_directory = False
        self._handles: Dict[int, _FileHandle] = {}
        self._lock = threading.Lock()
        #: eviction pins: run_id -> live SnapshotHandle refcount.  The
        #: base backend only tracks them (no eviction to apply); the
        #: object backend's hot-tier LRU consults them.
        self._pins: Dict[int, int] = {}
        #: what the latest fsck() repaired, for CLI reporting.
        self.fsck_report: List[str] = []
        self.fsck()

    # -- layout ---------------------------------------------------------

    @property
    def directory(self) -> Path:
        """Root directory holding the run files."""
        return self._directory

    def _path_of(self, run_id: int) -> Path:
        return self._directory / f"{self._RUN_PREFIX}{run_id}.npy"

    def _tier_of(self, run_id: int) -> str:
        return FILE_TIER

    def fsck(self) -> "list[Path]":
        """Remove crash leftovers (staging orphans); return what was removed."""
        removed = remove_stale_stages(self._directory)
        self.fsck_report = [f"removed stale stage {path.name}" for path in removed]
        return removed

    # Request accounting and read recency are object-store concerns;
    # the file tier has no per-request cost (its reads are page-cache
    # hits via mmap) and evicts nothing.
    def _note_read(
        self, handle: _FileHandle, first_block: int, last_block: int, charged: int
    ) -> None:
        return None

    # -- BlockDevice ----------------------------------------------------

    def allocate_run(self, run_id: int, data: np.ndarray) -> _FileHandle:
        # Straight from the array into the staged file: no serialized
        # copy of the run on the heap.
        atomic_write(
            self._path_of(run_id),
            lambda stream: np.lib.format.write_array(
                stream, data, allow_pickle=False
            ),
        )
        handle = _FileHandle(self, run_id)
        with self._lock:
            self._handles[run_id] = handle
        return handle

    def delete_run(self, run_id: int) -> None:
        with self._lock:
            handle = self._handles.pop(run_id, None)
        if handle is not None:
            handle._materialize()
        path = self._path_of(run_id)
        if path.exists():
            path.unlink()
            fsync_dir(self._directory)
        with self._lock:
            self._pins.pop(run_id, None)

    def place_run(self, run_id: int, level: int) -> None:
        return None

    def pin_runs(self, run_ids: Iterable[int]) -> None:
        with self._lock:
            for run_id in run_ids:
                self._pins[run_id] = self._pins.get(run_id, 0) + 1

    def unpin_runs(self, run_ids: Iterable[int]) -> None:
        with self._lock:
            for run_id in run_ids:
                count = self._pins.get(run_id, 0) - 1
                if count <= 0:
                    self._pins.pop(run_id, None)
                else:
                    self._pins[run_id] = count

    def levels(self) -> Dict[str, int]:
        return {"storage.backend.hot_runs": len(self._handles)}

    def stats(self) -> Reading:
        return self.table.read(BACKEND_FIELDS, self.levels())

    def simulated_seconds(self) -> float:
        return 0.0

    def close(self) -> None:
        with self._lock:
            handles = list(self._handles.values())
            self._handles.clear()
        for handle in handles:
            with handle._lock:
                handle._mapped = None
        if self._owns_directory:
            shutil.rmtree(self._directory, ignore_errors=True)


def contiguous_spans(blocks: "List[int]") -> "Iterable[Tuple[int, int]]":
    """Yield (lo, hi) inclusive maximal runs of a non-empty sorted block list."""
    lo = prev = blocks[0]
    for block in blocks[1:]:
        if block != prev + 1:
            yield lo, prev
            lo = block
        prev = block
    yield lo, prev


class ObjectStoreBackend(MmapFileBackend):
    """S3-like tiered store: hot run files plus a local bucket directory.

    Runs are allocated into ``hot/`` exactly like the mmap backend.
    When the warehouse places a run at a level at or beyond
    ``object_tier_level``, the run migrates into ``objects/`` (one
    atomic PUT) and its hot file is dropped.  From then on every
    *charged* read of the run is an object request, with modeled
    latency from :class:`ObjectStoreLatency` folded into
    ``SimulatedDisk.simulated_seconds``.

    ``hot_tier_bytes`` capacity-bounds ``hot/``: when an allocation
    pushes the tier past the budget, least-recently-read
    unpinned runs are demoted to the bucket via the same atomic
    migration as ``place_run``.  Runs pinned by a live snapshot
    (:meth:`pin_runs`) are never evicted; if everything is pinned the
    tier temporarily exceeds its budget rather than break a reader.
    """

    name = "object"

    def __init__(
        self,
        directory: "str | Path | None" = None,
        object_tier_level: int = 1,
        latency: Optional[ObjectStoreLatency] = None,
        hot_tier_bytes: Optional[int] = None,
        table: Optional[StatsTable] = None,
    ) -> None:
        if object_tier_level < 0:
            raise ValueError("object_tier_level must be >= 0")
        if hot_tier_bytes is not None and hot_tier_bytes < 0:
            raise ValueError("hot_tier_bytes must be >= 0")
        self.object_tier_level = object_tier_level
        self.latency = latency if latency is not None else ObjectStoreLatency()
        self.hot_tier_bytes = hot_tier_bytes
        self._object_runs: "set[int]" = set()
        #: blocks of each bucket object already streamed by some GET.
        self._fetched: Dict[int, Set[int]] = {}
        #: element count per run (clamps readahead to the run's end).
        self._lengths: Dict[int, int] = {}
        #: hot-tier residency bookkeeping for the eviction policy.
        self._hot_bytes: Dict[int, int] = {}
        self._hot_total = 0
        self._hot_lru: "OrderedDict[int, None]" = OrderedDict()
        super().__init__(directory, table)

    # -- layout ---------------------------------------------------------

    @property
    def _hot(self) -> Path:
        return self._directory / "hot"

    @property
    def _bucket(self) -> Path:
        return self._directory / "objects"

    def _hot_path(self, run_id: int) -> Path:
        return self._hot / f"{self._RUN_PREFIX}{run_id}.npy"

    def _object_path(self, run_id: int) -> Path:
        return self._bucket / f"{self._RUN_PREFIX}{run_id}.npy"

    def _path_of(self, run_id: int) -> Path:
        if run_id in self._object_runs:
            return self._object_path(run_id)
        return self._hot_path(run_id)

    def _tier_of(self, run_id: int) -> str:
        return OBJECT_TIER if run_id in self._object_runs else FILE_TIER

    def levels(self) -> Dict[str, int]:
        with self._lock:
            cold = len(self._object_runs)
            return {
                "storage.backend.hot_runs": max(0, len(self._handles) - cold),
                "storage.backend.object_runs": cold,
                "storage.backend.hot_bytes": self._hot_total,
            }

    def fsck(self) -> "list[Path]":
        """Remove crash leftovers in both tiers.

        Besides staging orphans, this repairs the migration crash
        window: a crash after the bucket PUT renamed into place but
        before the hot file was unlinked leaves the run in *both*
        tiers.  The PUT had committed, so the bucket copy is
        authoritative — fsck finishes the migration by dropping the
        hot duplicate.
        """
        self._hot.mkdir(parents=True, exist_ok=True)
        self._bucket.mkdir(parents=True, exist_ok=True)
        removed = remove_stale_stages(self._hot)
        removed += remove_stale_stages(self._bucket)
        report = [f"removed stale stage {path.name}" for path in removed]
        dropped_hot = False
        for entry in sorted(self._hot.glob(f"{self._RUN_PREFIX}*.npy")):
            if (self._bucket / entry.name).exists():
                entry.unlink()
                removed.append(entry)
                report.append(
                    f"dropped hot duplicate of migrated {entry.name}"
                )
                dropped_hot = True
        if dropped_hot:
            fsync_dir(self._hot)
        self.fsck_report = report
        return removed

    # -- request accounting --------------------------------------------

    def _note_read(
        self, handle: _FileHandle, first_block: int, last_block: int, charged: int
    ) -> None:
        """One read of a run: a hot run's LRU touch, or — when the read
        was charged — a bucket run's GETs of its unfetched blocks."""
        run_id = handle.run_id
        with self._lock:
            if run_id in self._hot_lru:
                self._hot_lru.move_to_end(run_id)
            if not charged or run_id not in self._object_runs:
                return
            fetched = self._fetched.setdefault(run_id, set())
            needed = [
                block
                for block in range(first_block, last_block + 1)
                if block not in fetched
            ]
            if not needed:
                return
            # Readahead stops at the run's final block.
            run_last = (self._lengths.get(run_id, 0) - 1) // handle.block_elems
            readahead = self.latency.break_even_blocks()
            for lo, hi in contiguous_spans(needed):
                hi_ext = max(min(hi + readahead, run_last), hi)
                self.table["storage.backend.gets"] += 1
                self.table["storage.backend.get_blocks"] += hi_ext - lo + 1
                fetched.update(range(lo, hi_ext + 1))

    # -- BlockDevice ----------------------------------------------------

    def allocate_run(self, run_id: int, data: np.ndarray) -> _FileHandle:
        self._hot.mkdir(parents=True, exist_ok=True)
        handle = super().allocate_run(run_id, data)
        size = self._path_of(run_id).stat().st_size
        with self._lock:
            self._lengths[run_id] = int(len(data))
            self._hot_bytes[run_id] = size
            self._hot_total += size
            self._hot_lru[run_id] = None
            self._hot_lru.move_to_end(run_id)
        self._enforce_hot_capacity()
        return handle

    def place_run(self, run_id: int, level: int) -> None:
        """Age a run into the bucket once its level is cold enough.

        A run already in the bucket stays there, whether the tiering
        policy or hot-tier pressure put it there.
        """
        if run_id in self._object_runs or level < self.object_tier_level:
            return
        self._migrate(run_id, eviction=False)

    def _migrate(self, run_id: int, eviction: bool) -> None:
        """Move a hot run into the bucket (atomic PUT, then unlink)."""
        with self._lock:
            handle = self._handles.get(run_id)
        hot_path = self._hot_path(run_id)
        if not hot_path.exists():
            with self._lock:
                # Stale residency bookkeeping would loop the eviction
                # scan forever; clear it even when there is no file.
                self._hot_total -= self._hot_bytes.pop(run_id, 0)
                self._hot_lru.pop(run_id, None)
            return
        if handle is not None:
            # Drop the hot mapping before the file moves tiers.
            with handle._lock:
                handle._mapped = None
        object_path = self._object_path(run_id)
        atomic_copy_file(hot_path, object_path)
        with self._lock:
            self.table["storage.backend.puts"] += 1
            self.table["storage.backend.migrations"] += 1
            self._object_runs.add(run_id)
            if eviction:
                self.table["storage.backend.evicted_runs"] += 1
            self._hot_total -= self._hot_bytes.pop(run_id, 0)
            self._hot_lru.pop(run_id, None)
            hot_bytes = self._hot_total
        hot_path.unlink()
        fsync_dir(self._hot)
        if eviction:
            _logger.debug(
                "evicted run %d to the bucket (%d hot bytes left)",
                run_id, hot_bytes,
                extra={"storage.backend.hot_bytes": hot_bytes},
            )

    def _enforce_hot_capacity(self) -> None:
        """Demote LRU unpinned hot runs until the tier fits its budget."""
        if self.hot_tier_bytes is None:
            return
        while True:
            with self._lock:
                if self._hot_total <= self.hot_tier_bytes:
                    return
                victim = None
                for candidate in self._hot_lru:  # least-recent first
                    if self._pins.get(candidate, 0) > 0:
                        continue
                    victim = candidate
                    break
                if victim is None:
                    # Every hot run is pinned by a live snapshot:
                    # tolerate the overage rather than break a reader.
                    return
            self._migrate(victim, eviction=True)

    def delete_run(self, run_id: int) -> None:
        super().delete_run(run_id)
        with self._lock:
            self._object_runs.discard(run_id)
            self._fetched.pop(run_id, None)
            self._lengths.pop(run_id, None)
            self._hot_total -= self._hot_bytes.pop(run_id, 0)
            self._hot_lru.pop(run_id, None)

    def simulated_seconds(self) -> float:
        with self._lock:
            model, table = self.latency, self.table
            return (
                table["storage.backend.gets"] * model.seconds_per_get
                + table["storage.backend.get_blocks"]
                * model.seconds_per_get_block
                + table["storage.backend.puts"] * model.seconds_per_put
            )


def make_backend(
    name: str,
    directory: "str | Path | None" = None,
    object_tier_level: int = 1,
    hot_tier_bytes: Optional[int] = None,
    table: Optional[StatsTable] = None,
) -> "SimulatedBackend | MmapFileBackend":
    """Build the backend named by ``EngineConfig.storage_backend``,
    counting into ``table`` (else a table of its own).

    File-backed backends must not share a directory: cluster shards
    derive configs with distinct ``storage_dir``.
    """
    if name == "simulated":
        return SimulatedBackend(table)
    if name == "mmap":
        return MmapFileBackend(directory, table)
    if name == "object":
        return ObjectStoreBackend(
            directory,
            object_tier_level=object_tier_level,
            hot_tier_bytes=hot_tier_bytes,
            table=table,
        )
    raise ValueError(
        f"unknown storage backend {name!r}; expected one of {BACKEND_NAMES}"
    )

