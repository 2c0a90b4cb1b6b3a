"""Filesystem durability helpers: the atomic write/fsync/rename dance.

Every durable artifact in this repository — checkpoint manifests, the
whole-checkpoint staging directory, sorted-run files of the mmap
backend, object-store PUTs — commits with the same discipline:

1. write the full content to a sibling ``<name>.tmp``;
2. flush and ``fsync`` the temporary file;
3. ``os.replace`` it over the final name (the commit point);
4. ``fsync`` the containing directory so the rename itself is durable.

Crash testing
-------------

The module-level :data:`crash_hook` is the repository's one crash
seam: when set, it is called with a named point as each atomic write
(:data:`WRITE_CRASH_POINTS`) or checkpoint save
(:data:`repro.persistence.checkpoint.CRASH_POINTS`) passes through it.
Raising :class:`SimulatedCrash` freezes the directory tree exactly
there — e.g. a ``.tmp`` with no final file ("kill after write"), or a
flushed ``.tmp`` that never renamed ("kill before rename").
"""

from __future__ import annotations

import json
import os
import shutil
from pathlib import Path
from typing import BinaryIO, Callable, Optional

#: suffix of in-flight staging files and directories.
STAGE_SUFFIX = ".tmp"
#: suffix of a retired previous version awaiting garbage collection.
RETIRED_SUFFIX = ".old"

#: buffer size of a file-to-file copy (:func:`atomic_copy_file`).
COPY_CHUNK_BYTES = 1 << 20

#: named points an atomic file write passes through, in order.
WRITE_CRASH_POINTS = (
    "tmp-written",  # temporary file holds the full content, not synced
    "tmp-synced",   # temporary file fsynced, final name untouched
    "renamed",      # os.replace done, directory entry not yet synced
)


class SimulatedCrash(RuntimeError):
    """Raised by a test :data:`crash_hook` to abort a write mid-flight."""


#: Test seam: when set, called with each crash-point name as a write
#: reaches it.  Raise :class:`SimulatedCrash` to simulate dying.
crash_hook: Optional[Callable[[str], None]] = None


def reach(point: str) -> None:
    """Report crash point ``point`` to :data:`crash_hook`, if set."""
    if crash_hook is not None:
        crash_hook(point)


def fsync_dir(path: "str | Path") -> None:
    """Make a directory's entry list durable (best-effort).

    Opening a directory read-only for fsync is not portable to every
    filesystem, so failures are swallowed — the rename itself already
    happened; only its durability against power loss is best-effort.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def fsync_file(path: "str | Path") -> None:
    """Flush a closed file's content to stable storage."""
    with open(path, "rb") as handle:
        os.fsync(handle.fileno())


def stage_path(path: "str | Path") -> Path:
    """The sibling staging name of ``path`` (``<path>.tmp``)."""
    path = Path(path)
    return path.parent / (path.name + STAGE_SUFFIX)


def retired_path(path: "str | Path") -> Path:
    """The sibling retired name of ``path`` (``<path>.old``)."""
    path = Path(path)
    return path.parent / (path.name + RETIRED_SUFFIX)


def atomic_write(
    path: "str | Path",
    write: Callable[[BinaryIO], object],
    sync_dir: bool = True,
) -> Path:
    """Atomically replace ``path`` with whatever ``write`` produces.

    ``write`` receives the open staging file and streams the content
    into it, so a large payload never has to exist as one ``bytes``
    object.  A crash at any instant leaves either the previous content
    of ``path`` (possibly with a stray ``.tmp`` sibling — see
    :func:`remove_stale_stages`) or the new content, never a torn
    mixture.  Returns the final path.
    """
    path = Path(path)
    temp = stage_path(path)
    with open(temp, "wb") as handle:
        write(handle)
        reach("tmp-written")
        handle.flush()
        os.fsync(handle.fileno())
    reach("tmp-synced")
    os.replace(temp, path)  # commit point
    reach("renamed")
    if sync_dir:
        fsync_dir(path.parent)
    return path


def atomic_write_bytes(
    path: "str | Path", data: bytes, sync_dir: bool = True
) -> Path:
    """Atomically replace ``path`` with ``data`` (tmp/fsync/rename)."""
    return atomic_write(path, lambda handle: handle.write(data), sync_dir)


def atomic_copy_file(
    source: "str | Path", path: "str | Path", sync_dir: bool = True
) -> Path:
    """Atomically replace ``path`` with a copy of the file ``source``.

    Copies file to file in bounded chunks through the same staging
    sequence as :func:`atomic_write`, whatever the size of ``source``.
    """
    with open(source, "rb") as stream:
        return atomic_write(
            path,
            lambda handle: shutil.copyfileobj(stream, handle, COPY_CHUNK_BYTES),
            sync_dir,
        )


def atomic_write_json(
    path: "str | Path", document: object, sync_dir: bool = True
) -> Path:
    """Atomically replace ``path`` with ``document`` serialized as JSON."""
    payload = (json.dumps(document, indent=2) + "\n").encode("utf-8")
    return atomic_write_bytes(path, payload, sync_dir=sync_dir)


def remove_stale_stages(directory: "str | Path") -> "list[Path]":
    """Delete leftover ``*.tmp`` staging files in ``directory``.

    The recovery half of :func:`atomic_write`: a staging file
    that never renamed is garbage by construction (the final name still
    holds the previous committed content, or never existed).  Returns
    the paths removed, for fsck-style reporting.
    """
    directory = Path(directory)
    removed = []
    if not directory.is_dir():
        return removed
    for stale in sorted(directory.glob(f"*{STAGE_SUFFIX}")):
        if stale.is_file():
            stale.unlink()
            removed.append(stale)
    if removed:
        fsync_dir(directory)
    return removed
