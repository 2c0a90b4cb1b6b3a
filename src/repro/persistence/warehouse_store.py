"""Durable storage for the historical warehouse HD.

The simulated block device measures I/O; this module makes the
warehouse *durable*: every partition is written to a ``.npy`` file at
its run's width (int32 or int64) in a directory, described by a
versioned JSON manifest that is replaced atomically (write-to-temp then
``os.replace``), so a crash mid-save leaves the previous state intact.
CRC32 checksums in the manifest detect corrupted or tampered partition
files on load; ``repair`` mode salvages files that are still
structurally valid sorted runs and rewrites the manifest.
(Whole-checkpoint atomicity — staging the complete directory and
committing it with one rename — lives one level up, in
:mod:`repro.persistence.checkpoint`.)
"""

from __future__ import annotations

import json
import os
import shutil
import zlib
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

from ..faults.retry import ARCHIVE_RETRY_POLICY
from ..storage.fsutil import atomic_write_json, fsync_dir, fsync_file
from ..storage.runfile import RUN_DTYPES, SortedRun
from ..warehouse.leveled_store import LeveledStore
from ..warehouse.partition import Partition

MANIFEST_NAME = "MANIFEST.json"
#: what ``save_store`` writes: a part file may hold int32 or int64.  A
#: ``-v1`` manifest's parts are all int64; it still loads.
_MANIFEST_FORMAT = "repro-warehouse-v2"
_LOADABLE_FORMATS = ("repro-warehouse-v1", _MANIFEST_FORMAT)


class PersistenceError(RuntimeError):
    """Raised when a warehouse directory is missing, corrupt or stale."""


def _partition_filename(partition: Partition) -> str:
    return (
        f"part-L{partition.level}"
        f"-{partition.start_step:06d}-{partition.end_step:06d}.npy"
    )


def _crc32_of(path: Path) -> int:
    checksum = 0
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            checksum = zlib.crc32(chunk, checksum)
    return checksum


def save_store(
    store: LeveledStore,
    directory: "str | Path",
    reuse_from: "Optional[str | Path]" = None,
) -> Path:
    """Persist every partition of ``store`` plus an atomic manifest.

    Partition files already present from a previous save are rewritten
    only if their content changed (same name implies same step range,
    but a merged layout produces new names); files no longer referenced
    are removed after the new manifest is in place.  Returns the
    manifest path.

    ``reuse_from`` names a previous checkpoint's warehouse directory:
    partitions whose file already exists there are hard-linked (copied
    when linking fails) instead of rewritten — partition files are
    immutable, so sharing them across checkpoints is safe and makes
    incremental checkpoints cheap.  Checksums always cover the bytes
    actually on disk.
    """
    directory = Path(directory)
    reuse = Path(reuse_from) if reuse_from is not None else None
    directory.mkdir(parents=True, exist_ok=True)
    manifest_levels = []
    wanted_files = {MANIFEST_NAME}
    for level_index in range(store.num_levels):
        level_entries = []
        for partition in store.level(level_index):
            filename = _partition_filename(partition)
            path = directory / filename
            if not path.exists():
                source = reuse / filename if reuse is not None else None
                if source is not None and source.exists():
                    try:
                        os.link(source, path)
                    except OSError:
                        shutil.copy2(source, path)
                        fsync_file(path)
                else:
                    np.save(path, partition.run.values)
                    fsync_file(path)
            level_entries.append(
                {
                    "file": filename,
                    "level": partition.level,
                    "start_step": partition.start_step,
                    "end_step": partition.end_step,
                    "num_elems": len(partition),
                    "crc32": _crc32_of(path),
                }
            )
            wanted_files.add(filename)
        manifest_levels.append(level_entries)
    manifest = {
        "format": _MANIFEST_FORMAT,
        "kappa": store.kappa,
        "steps_loaded": store.steps_loaded,
        "levels": manifest_levels,
    }
    manifest_path = _write_manifest(directory, manifest)
    for stale in directory.glob("part-*.npy"):
        if stale.name not in wanted_files:
            stale.unlink()
    fsync_dir(directory)
    return manifest_path


def _write_manifest(directory: Path, manifest: dict) -> Path:
    """Atomically replace the manifest (the shared fsutil dance)."""
    return atomic_write_json(
        directory / MANIFEST_NAME, manifest, sync_dir=False
    )


def _salvage_partition(path: Path, entry: dict) -> Optional[np.ndarray]:
    """Try to adopt a checksum-mismatched partition file.

    The file is acceptable iff it still parses as a flat array of
    exactly the manifest's length, sorted ascending — i.e. a
    structurally valid sorted run whose recorded checksum is merely
    stale (its dtype is checked by the caller, as on a clean load).
    Returns the array, or ``None`` when the file is truly corrupt
    (unparseable, wrong shape or length, or out of order).
    """
    try:
        data = np.load(path)
    except Exception:
        return None
    if data.ndim != 1 or len(data) != int(entry["num_elems"]):
        return None
    if np.any(data[1:] < data[:-1]):
        return None
    return data


def load_store(
    directory: "str | Path", store: LeveledStore, repair: bool = False,
    on_retry: Optional[Callable] = None,
) -> LeveledStore:
    """Fill the empty ``store`` from a saved directory; returns it.

    The caller builds the store, so its flavour, disk and summary
    builder are the caller's.  Raises :class:`PersistenceError` on a
    missing/garbled manifest, a manifest saved with another ``kappa``
    than the store's, or corrupted partition files.  Loading charges
    sequential reads for every partition to the store's disk, as a
    real recovery scan would, each under
    :data:`~repro.faults.retry.ARCHIVE_RETRY_POLICY`, which calls
    ``on_retry(fault, attempt)`` before each retry: the charge comes
    before the run is allocated, so a retried read allocates nothing.

    With ``repair=True``, a partition whose checksum disagrees with the
    manifest is adopted anyway when its content is still a structurally
    valid sorted run of the recorded length (see
    :func:`_salvage_partition`), and the manifest is rewritten with the
    corrected checksum; an unsalvageable file still raises.
    """
    directory = Path(directory)
    disk = store.disk
    manifest_path = directory / MANIFEST_NAME
    if not manifest_path.exists():
        raise PersistenceError(f"no manifest at {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"garbled manifest: {exc}") from exc
    if manifest.get("format") not in _LOADABLE_FORMATS:
        raise PersistenceError(
            f"unknown manifest format {manifest.get('format')!r}"
        )
    stored_kappa = int(manifest["kappa"])
    if store.kappa != stored_kappa:
        raise PersistenceError(
            f"store was saved with kappa={stored_kappa}, requested "
            f"{store.kappa}"
        )
    levels: List[List[Partition]] = []
    repaired = 0
    for level_entries in manifest["levels"]:
        level: List[Partition] = []
        for entry in level_entries:
            path = directory / entry["file"]
            if not path.exists():
                raise PersistenceError(f"missing partition file {path}")
            if _crc32_of(path) != entry["crc32"]:
                data = _salvage_partition(path, entry) if repair else None
                if data is None:
                    raise PersistenceError(
                        f"checksum mismatch in {path}"
                        + (" (unrepairable)" if repair else "")
                    )
                entry["crc32"] = _crc32_of(path)
                repaired += 1
            else:
                try:
                    data = np.load(path)
                except Exception as exc:
                    raise PersistenceError(
                        f"unreadable partition file {path}: {exc}"
                    ) from exc
            if data.dtype not in RUN_DTYPES:
                # SortedRun would cast it: floats truncate, wide uint64
                # wraps negative.
                raise PersistenceError(
                    f"{path} holds {data.dtype} values, not int32 or int64"
                )
            if len(data) != entry["num_elems"]:
                raise PersistenceError(
                    f"{path} holds {len(data)} elements, manifest says "
                    f"{entry['num_elems']}"
                )
            ARCHIVE_RETRY_POLICY.call(
                disk.charge_sequential_read, on_retry, len(data)
            )
            run = SortedRun(disk, data, charge_write=False)
            level.append(
                Partition(
                    level=entry["level"],
                    start_step=entry["start_step"],
                    end_step=entry["end_step"],
                    run=run,
                )
            )
        levels.append(level)
    if repaired:
        # Persist the corrected checksums so the next load is clean.
        _write_manifest(directory, manifest)
    store.load_partitions(levels)
    return store
