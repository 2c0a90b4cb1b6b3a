"""Pluggable block-device backends for sorted-run storage.

`SimulatedDisk` models the *cost* of block I/O; this module supplies
the *bytes*.  A :class:`BlockDevice` owns the payload of every sorted
run and hands out :class:`RunHandle` objects that `SortedRun` reads
through.  Three implementations ship:

``SimulatedBackend``
    Today's in-memory arrays, unchanged — the deterministic default.
    Zero real I/O, zero added latency.

``MmapFileBackend``
    One real file per run under a directory, committed with the
    atomic write/fsync/rename discipline of :mod:`repro.storage.fsutil`
    and read back through ``numpy`` memory maps, so block probes touch
    the page cache instead of a resident copy.

``ObjectStoreBackend``
    An S3-like emulation over a local bucket directory.  Runs are born
    in a hot file tier; the warehouse ages cold levels into the bucket
    (:meth:`place_run`), after which every *charged* block read becomes
    a GET request with per-request latency and GET/PUT/LIST counters.

The contract that keeps the repo's equivalence moat intact: backends
never change *what* is charged — `DiskStats` block counters are driven
by the existing charge paths and stay bit-identical across all three.
Backends only add request-level accounting (and real bytes) on top:
`SortedRun` calls :meth:`RunHandle.note_range_read` /
:meth:`RunHandle.note_sequential_read` exactly when blocks were
actually charged, so a shared-cache or per-query-cache hit never turns
into an object GET.

The cold-read fast path layers two request-shaping mechanisms *under*
the charge layer (charges never change; only request counts and
modeled latency shrink):

* **Ranged partial-object GETs.**  :meth:`RunHandle.read_blocks`
  returns just the requested block span.  The object backend serves it
  as one byte-range read of the bucket object (seek + read of exactly
  those blocks) instead of materializing the whole run, so a cold
  binary-search probe touches kilobytes, not the full object.
* **Fetch coalescing with readahead.**  The object backend remembers
  which blocks each bucket object has already streamed; a charged
  range only becomes a GET for its not-yet-fetched sub-ranges, and
  each GET is widened, up to the end of the run, while the marginal
  per-block cost stays below the request-setup cost
  (:meth:`ObjectStoreLatency.break_even_blocks`).  Readahead is
  charge-neutral: streamed, never added to ``DiskStats``.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Protocol, Set, Tuple, runtime_checkable

import numpy as np

from .fsutil import atomic_copy_file, atomic_write, fsync_dir, remove_stale_stages

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
    seconds_per_list: float = 2e-3

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
        for field in (
            "seconds_per_get",
            "seconds_per_get_block",
            "seconds_per_put",
            "seconds_per_list",
        ):
            if getattr(self, field) < 0:
                raise ValueError(f"{field} must be >= 0")


@dataclass(frozen=True)
class BackendStats:
    """Snapshot of request-level backend accounting.

    All-zero for the simulated and mmap backends; the object backend
    counts every request against the bucket.  ``get_blocks`` is the
    total blocks streamed across GETs (including readahead), so
    ``get_blocks / gets`` is the mean ranged-GET width the cold-read
    pipeline achieved.

    Two kinds of field live here and :meth:`delta_since` treats them
    differently:

    * **Counters** (``gets``, ``get_blocks``, ``puts``, ``lists``,
      ``migrations``, ``evicted_runs``) accumulate monotonically; a
      delta subtracts the earlier snapshot.
    * **Gauges** (``hot_runs``, ``object_runs``, ``hot_bytes``)
      describe current residency levels.  Subtracting two gauge
      readings is meaningless (a run migrating *decreases*
      ``hot_runs``), so a delta carries the *later* snapshot's gauge
      values unchanged.
    """

    gets: int = 0
    get_blocks: int = 0
    puts: int = 0
    lists: int = 0
    migrations: int = 0
    hot_runs: int = 0
    object_runs: int = 0
    evicted_runs: int = 0
    hot_bytes: int = 0

    def delta_since(self, earlier: "BackendStats") -> "BackendStats":
        """Counter deltas since ``earlier``; gauges copied, not subtracted.

        ``gets``/``get_blocks``/``puts``/``lists``/``migrations``/
        ``evicted_runs`` are differenced; the residency gauges
        (``hot_runs``, ``object_runs``, ``hot_bytes``) report this
        snapshot's current level verbatim.
        """
        return BackendStats(
            gets=self.gets - earlier.gets,
            get_blocks=self.get_blocks - earlier.get_blocks,
            puts=self.puts - earlier.puts,
            lists=self.lists - earlier.lists,
            migrations=self.migrations - earlier.migrations,
            hot_runs=self.hot_runs,
            object_runs=self.object_runs,
            evicted_runs=self.evicted_runs - earlier.evicted_runs,
            hot_bytes=self.hot_bytes,
        )


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

    def read_blocks(self, first_block: int, last_block: int) -> np.ndarray:
        """Elements stored in blocks ``[first_block, last_block]``.

        The partial-read primitive of the cold path: backends return
        only the requested span — the object backend as one byte-range
        read of the bucket object, the mmap backend as a slice of the
        map, the simulated backend as a free view — so a cold probe
        never materializes the whole run.  Pure bytes; all charging and
        request accounting stay on the ``note_*`` paths.
        """

    def note_range_read(
        self, first_block: int, last_block: int, charged: int
    ) -> None:
        """Record one charged ranged read of ``[first_block, last_block]``.

        ``charged`` is the number of blocks the cache layer actually
        charged (misses only).  The object backend turns this into one
        GET per not-yet-fetched contiguous sub-range.
        """

    def note_sequential_read(self, blocks: int) -> None:
        """Record one sequential pass over ``blocks`` charged blocks."""


@runtime_checkable
class BlockDevice(Protocol):
    """What a storage backend must provide to the engine.

    The engine allocates a run per sorted array, routes every charged
    read through the run's handle, asks :meth:`place_run` to apply the
    tiering policy when the warehouse (re)levels a run, and deletes
    runs as compaction retires them.  ``fsync`` hardens any buffered
    state; ``close`` releases resources (and removes any owned
    temporary directory).
    """

    name: str

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

    def fsync(self) -> None:
        """Harden all buffered backend state."""

    def stats(self) -> BackendStats:
        """Snapshot request-level counters."""

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

    def read_blocks(self, first_block: int, last_block: int) -> np.ndarray:
        lo = first_block * self.block_elems
        hi = (last_block + 1) * self.block_elems
        return self._data[lo:hi]

    def note_range_read(
        self, first_block: int, last_block: int, charged: int
    ) -> None:
        return None

    def note_sequential_read(self, blocks: int) -> None:
        return None


class SimulatedBackend:
    """The deterministic default: runs live as in-memory arrays.

    Behaviourally identical to the pre-backend engine — allocation
    copies the array once (as `SortedRun` always did) and reads return
    views of it.  Request counters stay zero.
    """

    name = "simulated"

    def __init__(self) -> None:
        self._runs: Dict[int, np.ndarray] = {}
        self._lock = threading.Lock()

    def allocate_run(self, run_id: int, data: np.ndarray) -> _SimulatedHandle:
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

    def fsync(self) -> None:
        return None

    def stats(self) -> BackendStats:
        with self._lock:
            return BackendStats(hot_runs=len(self._runs))

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

    def read_blocks(self, first_block: int, last_block: int) -> np.ndarray:
        with self._lock:
            if self._resident is not None:
                lo = first_block * self.block_elems
                hi = (last_block + 1) * self.block_elems
                return self._resident[lo:hi]
        return self._backend._read_blocks(self, first_block, last_block)

    def note_range_read(
        self, first_block: int, last_block: int, charged: int
    ) -> None:
        self._backend._note_range_read(self, first_block, last_block, charged)

    def note_sequential_read(self, blocks: int) -> None:
        self._backend._note_sequential_read(self.run_id, blocks)


class MmapFileBackend:
    """One ``run-<id>.npy`` file per sorted run, read through mmap.

    Files commit via :func:`repro.storage.fsutil.atomic_write`,
    so a crash leaves either the full previous state or the full new
    run, never a torn file.  :meth:`fsck` (run at startup) removes
    staging orphans left by a crash between write and rename.
    """

    name = "mmap"
    _RUN_PREFIX = "run-"

    def __init__(self, directory: "str | Path | None" = None) -> None:
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

    # Request accounting is an object-store concern; the file tier has
    # no per-request cost (its reads are page-cache hits via mmap).
    def _note_range_read(
        self, handle: _FileHandle, first_block: int, last_block: int, charged: int
    ) -> None:
        return None

    def _note_sequential_read(self, run_id: int, blocks: int) -> None:
        return None

    def _read_blocks(
        self, handle: _FileHandle, first_block: int, last_block: int
    ) -> np.ndarray:
        """Serve a ranged read by slicing the memory map."""
        data = handle.data
        lo = first_block * handle.block_elems
        hi = (last_block + 1) * handle.block_elems
        return data[lo:hi]

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

    def fsync(self) -> None:
        fsync_dir(self._directory)

    def stats(self) -> BackendStats:
        with self._lock:
            return BackendStats(hot_runs=len(self._handles))

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

    ``hot_tier_bytes`` capacity-bounds ``hot/``: when allocation or
    promotion pushes the tier past the budget, least-recently-read
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
    ) -> None:
        if object_tier_level < 0:
            raise ValueError("object_tier_level must be >= 0")
        if hot_tier_bytes is not None and hot_tier_bytes < 0:
            raise ValueError("hot_tier_bytes must be >= 0")
        self.object_tier_level = object_tier_level
        self.latency = latency if latency is not None else ObjectStoreLatency()
        self.hot_tier_bytes = hot_tier_bytes
        self._object_runs: "set[int]" = set()
        self._gets = 0
        self._get_blocks = 0
        self._puts = 0
        self._lists = 0
        self._migrations = 0
        self._evictions = 0
        #: blocks of each bucket object already streamed by some GET.
        self._fetched: Dict[int, Set[int]] = {}
        #: element count per run (clamps readahead to the run's end).
        self._lengths: Dict[int, int] = {}
        #: parsed .npy layout per run: (data offset, dtype, length).
        self._layouts: "Dict[int, Tuple[int, np.dtype, int]]" = {}
        #: hot-tier residency bookkeeping for the eviction policy.
        self._hot_bytes: Dict[int, int] = {}
        self._hot_total = 0
        self._hot_lru: "OrderedDict[int, None]" = OrderedDict()
        #: runs demoted by *pressure* (vs. policy tiering): these are
        #: re-admitted to hot on the next ``place_run`` at a hot level.
        self._evicted: Set[int] = set()
        super().__init__(directory)
        self._bucket.mkdir(parents=True, exist_ok=True)
        self._list_bucket()

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

    def fsck(self) -> "list[Path]":
        """Remove crash leftovers in both tiers; counts one LIST per scan.

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

    def _list_bucket(self) -> None:
        with self._lock:
            self._lists += 1
            for entry in sorted(self._bucket.glob(f"{self._RUN_PREFIX}*.npy")):
                try:
                    run_id = int(entry.stem[len(self._RUN_PREFIX):])
                except ValueError:
                    continue
                self._object_runs.add(run_id)

    # -- request accounting --------------------------------------------

    def _last_block_of(self, run_id: int, block_elems: int) -> Optional[int]:
        """Index of the run's final block, or ``None`` if unknown."""
        length = self._lengths.get(run_id)
        if length is None:
            layout = self._layouts.get(run_id)
            if layout is not None:
                length = layout[2]
        if length is None or length <= 0:
            return None
        per_block = max(1, block_elems)
        return (length + per_block - 1) // per_block - 1

    def _note_range_read(
        self, handle: _FileHandle, first_block: int, last_block: int, charged: int
    ) -> None:
        run_id = handle.run_id
        with self._lock:
            if run_id not in self._object_runs:
                return
            fetched = self._fetched.setdefault(run_id, set())
            needed = [
                block
                for block in range(first_block, last_block + 1)
                if block not in fetched
            ]
            if not needed:
                return
            run_last = self._last_block_of(run_id, handle.block_elems)
            readahead = self.latency.break_even_blocks()
            for lo, hi in contiguous_spans(needed):
                hi_ext = hi + readahead
                if run_last is not None:
                    hi_ext = min(hi_ext, run_last)
                hi_ext = max(hi_ext, hi)
                self._gets += 1
                self._get_blocks += hi_ext - lo + 1
                fetched.update(range(lo, hi_ext + 1))

    def _note_sequential_read(self, run_id: int, blocks: int) -> None:
        if run_id not in self._object_runs:
            return
        with self._lock:
            self._gets += 1
            self._get_blocks += blocks
            self._fetched.setdefault(run_id, set()).update(range(blocks))

    # -- ranged byte reads ---------------------------------------------

    def _npy_layout(self, run_id: int, path: Path) -> "Tuple[int, np.dtype, int]":
        """Parse (and cache) the .npy header of a bucket object.

        The bytes are identical in both tiers (migration copies the
        file verbatim), so the cached layout survives demotion and
        promotion; it is dropped on :meth:`delete_run`.
        """
        with self._lock:
            cached = self._layouts.get(run_id)
        if cached is not None:
            return cached
        with open(path, "rb") as stream:
            version = np.lib.format.read_magic(stream)
            if version >= (2, 0):
                shape, _fortran, dtype = np.lib.format.read_array_header_2_0(
                    stream
                )
            else:
                shape, _fortran, dtype = np.lib.format.read_array_header_1_0(
                    stream
                )
            offset = stream.tell()
        length = int(shape[0]) if shape else 0
        layout = (offset, np.dtype(dtype), length)
        with self._lock:
            self._layouts[run_id] = layout
        return layout

    def _ranged_object_read(
        self, handle: _FileHandle, first_block: int, last_block: int
    ) -> np.ndarray:
        """One byte-range GET: seek+read only the requested blocks."""
        run_id = handle.run_id
        path = self._object_path(run_id)
        offset, dtype, length = self._npy_layout(run_id, path)
        per_block = max(1, handle.block_elems)
        lo = first_block * per_block
        hi = min((last_block + 1) * per_block, length)
        if lo >= hi:
            return np.empty(0, dtype=dtype)
        with open(path, "rb") as stream:
            stream.seek(offset + lo * dtype.itemsize)
            payload = stream.read((hi - lo) * dtype.itemsize)
        return np.frombuffer(payload, dtype=dtype)

    def _touch_hot(self, run_id: int) -> None:
        with self._lock:
            if run_id in self._hot_lru:
                self._hot_lru.move_to_end(run_id)

    def _read_blocks(
        self, handle: _FileHandle, first_block: int, last_block: int
    ) -> np.ndarray:
        run_id = handle.run_id
        for _attempt in range(3):
            with self._lock:
                cold = run_id in self._object_runs
            if not cold:
                self._touch_hot(run_id)
                try:
                    return super()._read_blocks(handle, first_block, last_block)
                except FileNotFoundError:
                    continue  # demoted mid-read: retry via the bucket
            try:
                return self._ranged_object_read(handle, first_block, last_block)
            except FileNotFoundError:
                continue  # promoted mid-read: retry via the hot tier
        return super()._read_blocks(handle, first_block, last_block)

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

        A run already in the bucket that gets placed back at a hot
        level is re-admitted (promoted) only if it got there via
        capacity eviction — policy-tiered runs stay in the bucket.
        """
        if run_id in self._object_runs:
            if level < self.object_tier_level:
                with self._lock:
                    evicted = run_id in self._evicted
                if evicted:
                    self._promote(run_id)
            return
        if level < self.object_tier_level:
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
            self._puts += 1
            self._migrations += 1
            self._object_runs.add(run_id)
            if eviction:
                self._evictions += 1
                self._evicted.add(run_id)
            self._hot_total -= self._hot_bytes.pop(run_id, 0)
            self._hot_lru.pop(run_id, None)
        hot_path.unlink()
        fsync_dir(self._hot)

    def _promote(self, run_id: int) -> None:
        """Re-admit an evicted run to the hot tier (one full-object GET)."""
        object_path = self._object_path(run_id)
        if not object_path.exists():
            return
        hot_path = self._hot_path(run_id)
        with self._lock:
            handle = self._handles.get(run_id)
            run_last = self._last_block_of(
                run_id, handle.block_elems if handle is not None else 1
            )
            self._gets += 1
            self._get_blocks += (run_last + 1) if run_last is not None else 1
        if handle is not None:
            with handle._lock:
                handle._mapped = None
        atomic_copy_file(object_path, hot_path)
        size = hot_path.stat().st_size
        with self._lock:
            self._object_runs.discard(run_id)
            self._evicted.discard(run_id)
            self._fetched.pop(run_id, None)
            self._hot_bytes[run_id] = size
            self._hot_total += size
            self._hot_lru[run_id] = None
            self._hot_lru.move_to_end(run_id)
        object_path.unlink()
        fsync_dir(self._bucket)
        self._enforce_hot_capacity()

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
                    if candidate in self._object_runs:
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
            self._evicted.discard(run_id)
            self._fetched.pop(run_id, None)
            self._layouts.pop(run_id, None)
            self._lengths.pop(run_id, None)
            self._hot_total -= self._hot_bytes.pop(run_id, 0)
            self._hot_lru.pop(run_id, None)

    def stats(self) -> BackendStats:
        with self._lock:
            object_count = len(self._object_runs)
            return BackendStats(
                gets=self._gets,
                get_blocks=self._get_blocks,
                puts=self._puts,
                lists=self._lists,
                migrations=self._migrations,
                hot_runs=len(self._handles) - object_count
                if len(self._handles) >= object_count
                else 0,
                object_runs=object_count,
                evicted_runs=self._evictions,
                hot_bytes=self._hot_total,
            )

    def simulated_seconds(self) -> float:
        with self._lock:
            model = self.latency
            return (
                self._gets * model.seconds_per_get
                + self._get_blocks * model.seconds_per_get_block
                + self._puts * model.seconds_per_put
                + self._lists * model.seconds_per_list
            )


def make_backend(
    name: str,
    directory: "str | Path | None" = None,
    object_tier_level: int = 1,
    hot_tier_bytes: Optional[int] = None,
) -> "SimulatedBackend | MmapFileBackend":
    """Build the backend named by ``EngineConfig.storage_backend``.

    File-backed backends must not share a directory: cluster shards
    derive configs with distinct ``storage_dir``.
    """
    if name == "simulated":
        return SimulatedBackend()
    if name == "mmap":
        return MmapFileBackend(directory)
    if name == "object":
        return ObjectStoreBackend(
            directory,
            object_tier_level=object_tier_level,
            hot_tier_bytes=hot_tier_bytes,
        )
    raise ValueError(
        f"unknown storage backend {name!r}; expected one of {BACKEND_NAMES}"
    )


__all__ = [
    "BACKEND_NAMES",
    "BackendStats",
    "BlockDevice",
    "FILE_TIER",
    "MEMORY_TIER",
    "MmapFileBackend",
    "OBJECT_TIER",
    "ObjectStoreBackend",
    "ObjectStoreLatency",
    "RunHandle",
    "SimulatedBackend",
    "make_backend",
]
