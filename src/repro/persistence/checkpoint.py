"""Whole-engine checkpoints: warehouse + stream state + configuration.

``save_engine`` writes everything a restart needs into one directory:

* the warehouse partitions and manifest (``warehouse/``);
* the live GK sketch (``stream_sketch.bin``);
* the raw, not-yet-archived stream buffer (``stream_buffer.npy`` —
  in a real deployment this is the spooled stream capture);
* the engine configuration and step counter (``engine.json``).

``load_engine`` restores an engine that answers every query exactly as
the saved one did and continues ingesting from the same time step.

Crash consistency
-----------------

The checkpoint is atomic *as a whole*, not merely per file.  A save
stages the complete state into a sibling ``<dir>.tmp`` (hard-linking
partition files unchanged since the previous checkpoint), fsyncs it,
and then promotes it with a rename dance::

    <dir>       -> <dir>.old      (retire the previous checkpoint)
    <dir>.tmp   -> <dir>          (commit point)
    rmtree(<dir>.old)             (garbage-collect)

A crash at any point leaves the directory tree in one of a small set
of states that :func:`load_engine` recognizes and repairs before
loading: a complete ``.tmp`` with no committed directory rolls
*forward*, a retired ``.old`` with no committed directory rolls
*back*, and stray staging leftovers next to a committed checkpoint are
deleted.  The restored engine always answers exactly as either the old
or the new checkpoint — never a mixture, never silently wrong.

The module-level :data:`crash_hook` is the test seam: the crash
recovery harness installs a callable raising :class:`SimulatedCrash`
at a chosen named point (see :data:`CRASH_POINTS`) to freeze the
directory tree mid-save.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from ..core.aggregates import AggregateStats
from ..core.config import EngineConfig
from ..core.engine import HybridQuantileEngine
from ..ingest.wal import WriteAheadLog, replay_wal
from ..storage.disk import SimulatedDisk
from ..storage.fsutil import (
    RETIRED_SUFFIX,
    STAGE_SUFFIX,
    fsync_dir,
    retired_path,
    stage_path,
)
from .serialization import dump_sketch, load_stream_sketch
from .warehouse_store import PersistenceError, load_store, save_store

_ENGINE_FORMAT = "repro-engine-v1"
ENGINE_FILE = "engine.json"
SKETCH_FILE = "stream_sketch.bin"
BUFFER_FILE = "stream_buffer.npy"
WAREHOUSE_DIR = "warehouse"

__all__ = [
    "BUFFER_FILE",
    "CRASH_POINTS",
    "ENGINE_FILE",
    "RETIRED_SUFFIX",
    "SKETCH_FILE",
    "STAGE_SUFFIX",
    "SimulatedCrash",
    "WAREHOUSE_DIR",
    "load_engine",
    "recover_checkpoint",
    "save_engine",
]

#: Named points the save protocol passes through, in order.  The crash
#: harness kills a save at each one and asserts recovery.
CRASH_POINTS = (
    "stage-created",  # empty staging directory exists
    "mid-stage",      # warehouse + sketch + buffer staged, no engine.json
    "staged",         # staging complete and fsynced, nothing renamed
    "retired-old",    # previous checkpoint renamed away, new not yet in
    "promoted",       # new checkpoint committed, old not yet removed
)


class SimulatedCrash(RuntimeError):
    """Raised by a test :data:`crash_hook` to abort a save mid-flight."""


#: Test seam: when set, called with each crash-point name as the save
#: reaches it.  Raise :class:`SimulatedCrash` to simulate dying there.
crash_hook: Optional[Callable[[str], None]] = None


def _reach(point: str) -> None:
    if crash_hook is not None:
        crash_hook(point)


def _stage_path(directory: Path) -> Path:
    return stage_path(directory)


def _retired_path(directory: Path) -> Path:
    return retired_path(directory)


def _is_complete(directory: Path) -> bool:
    """A checkpoint directory is complete iff its engine state file
    exists — it is written (and fsynced) last during staging."""
    return (directory / ENGINE_FILE).exists()


def save_engine(engine: HybridQuantileEngine, directory: "str | Path") -> Path:
    """Checkpoint ``engine`` into ``directory``; returns its path.

    Background-mode engines are flushed first, so every sealed batch is
    fully archived before the warehouse is written; the checkpoint has
    no notion of in-flight archive work.

    The save is crash-consistent: state is staged into a sibling
    ``<directory>.tmp`` and committed with a single rename, so a crash
    at any instant leaves either the previous checkpoint or the new one
    recoverable by :func:`load_engine` — never a torn mixture.
    Partition files unchanged since the previous checkpoint are
    hard-linked into the stage rather than rewritten.

    When the engine has a :class:`~repro.ingest.wal.WriteAheadLog`
    attached, the log's current LSN is recorded in ``engine.json`` as
    the replay watermark, and segments fully covered by this checkpoint
    are truncated only *after* the commit point — a crash anywhere in
    between merely leaves extra segments whose records replay as no-ops
    (their LSNs sit at or below the watermark).
    """
    engine.flush()
    wal = getattr(engine, "_wal", None)
    wal_lsn = wal.last_lsn if wal is not None else None
    directory = Path(directory)
    if directory.parent != Path(""):
        directory.parent.mkdir(parents=True, exist_ok=True)
    if (
        directory.exists()
        and any(directory.iterdir())
        and not _is_complete(directory)
    ):
        # The commit dance retires (and later deletes) the existing
        # directory; refuse to do that to contents we do not own.
        raise PersistenceError(
            f"refusing to replace {directory}: it is non-empty but not "
            "a checkpoint"
        )
    stage = _stage_path(directory)
    retired = _retired_path(directory)
    # Leftovers from an earlier crashed save: a stale stage is always
    # garbage; a retired checkpoint is only garbage while the committed
    # directory exists (otherwise it is the rollback target and
    # load_engine's recovery owns it).
    if stage.exists():
        shutil.rmtree(stage)
    if retired.exists() and directory.exists():
        shutil.rmtree(retired)
    stage.mkdir(parents=True)
    _reach("stage-created")
    previous_warehouse = directory / WAREHOUSE_DIR
    save_store(
        engine.store,
        stage / WAREHOUSE_DIR,
        reuse_from=(
            previous_warehouse if previous_warehouse.is_dir() else None
        ),
    )
    # stream_sketch() absorbs any buffered-but-unabsorbed tail first,
    # so the saved sketch count always equals the saved buffer size.
    (stage / SKETCH_FILE).write_bytes(
        dump_sketch(engine.stream_sketch())
    )
    np.save(stage / BUFFER_FILE, np.asarray(engine._buffer.view()))
    _reach("mid-stage")
    state = {
        "format": _ENGINE_FORMAT,
        "config": asdict(engine.config),
        "step": engine._step,
        "stream_elems": engine.m_stream,
    }
    if wal_lsn is not None:
        state["wal_lsn"] = wal_lsn
    # engine.json is the completeness marker, so it is written last and
    # made durable before any rename.
    with open(stage / ENGINE_FILE, "w", encoding="utf-8") as handle:
        json.dump(state, handle, indent=2)
        handle.flush()
        os.fsync(handle.fileno())
    fsync_dir(stage)
    _reach("staged")
    if directory.exists():
        os.rename(directory, retired)
        _reach("retired-old")
    os.rename(stage, directory)  # commit point
    fsync_dir(directory.parent)
    _reach("promoted")
    if retired.exists():
        shutil.rmtree(retired)
    if wal is not None:
        wal.truncate(wal_lsn)
    return directory


def recover_checkpoint(directory: "str | Path") -> Path:
    """Roll an interrupted :func:`save_engine` forward or back.

    Idempotent; called automatically by :func:`load_engine`.  After it
    returns, ``directory`` (if any checkpoint ever committed) is a
    complete checkpoint and no ``.tmp``/``.old`` siblings remain.
    Raises :class:`PersistenceError` only for states the protocol
    cannot produce (e.g. every candidate directory incomplete).
    """
    directory = Path(directory)
    stage = _stage_path(directory)
    retired = _retired_path(directory)
    if directory.exists() and _is_complete(directory):
        # Committed checkpoint in place; anything beside it is debris
        # from a save that died before (stage) or after (retired) the
        # commit point.
        if stage.exists():
            shutil.rmtree(stage)
        if retired.exists():
            shutil.rmtree(retired)
        return directory
    if directory.exists():
        # Only external tampering produces this: the protocol never
        # commits an incomplete directory.
        raise PersistenceError(
            f"checkpoint {directory} is incomplete (no {ENGINE_FILE})"
        )
    if stage.exists() and _is_complete(stage):
        # Crash between retiring the old checkpoint and committing the
        # stage: the stage was fully fsynced (engine.json is written
        # last), so roll forward.
        os.rename(stage, directory)
        fsync_dir(directory.parent)
        if retired.exists():
            shutil.rmtree(retired)
        return directory
    if retired.exists() and _is_complete(retired):
        # Crash with an incomplete (or absent) stage after the old
        # checkpoint was retired: roll back to it.
        if stage.exists():
            shutil.rmtree(stage)
        os.rename(retired, directory)
        fsync_dir(directory.parent)
        return directory
    if stage.exists() or retired.exists():
        raise PersistenceError(
            f"no recoverable checkpoint at {directory}: every candidate "
            "is incomplete"
        )
    raise PersistenceError(f"no engine state at {directory / ENGINE_FILE}")


#: ``EngineConfig`` keys that older checkpoints carry and the value each
#: is now fixed at; any other value asked for behaviour that is gone.
_RETIRED_CONFIG_KEYS = (
    ("fetch_coalescing", True),
    ("readahead_blocks", None),
    ("object_get_ms", 5.0),
    ("object_put_ms", 10.0),
    ("query_strategy", "bisect"),
    ("residual_fetch_elems", None),
    ("retry_backoff_cap_seconds", 0.25),
    ("retry_backoff_seconds", 0.002),
    ("archive_retries", 32),
    ("probe_retries", 3),
    ("ingest_queue_batches", 4),
)
#: Retired keys that never changed an answer at any value: dropped
#: whatever they hold.
_IGNORED_CONFIG_KEYS = frozenset({"universe_log2", "query_workers"})


def config_from_state(saved: "dict[str, Any]") -> EngineConfig:
    """The :class:`EngineConfig` a checkpoint recorded.

    A retired key holding its fixed value (or one that never changed an
    answer, at any value) is dropped; a retired key holding anything
    else, or an unknown key, raises :class:`PersistenceError` naming it.
    """
    known = {field.name for field in fields(EngineConfig)}
    for key in saved.keys() - known - _IGNORED_CONFIG_KEYS:
        if (key, saved[key]) not in _RETIRED_CONFIG_KEYS:
            raise PersistenceError(
                f"checkpoint config has unsupported {key}={saved[key]!r}"
            )
    return EngineConfig(**{key: saved[key] for key in saved.keys() & known})


def load_engine(
    directory: "str | Path",
    disk: Optional[SimulatedDisk] = None,
    repair: bool = False,
    wal_dir: "str | Path | None" = None,
) -> HybridQuantileEngine:
    """Restore an engine checkpointed by :func:`save_engine`.

    Interrupted saves are rolled forward or back first (see
    :func:`recover_checkpoint`).  With ``repair=True``, partition files
    whose checksum disagrees with the manifest are salvaged when their
    content is still a structurally valid sorted run (and the manifest
    is rewritten); otherwise any inconsistency raises a typed
    :class:`PersistenceError` — a checkpoint never loads silently
    wrong.

    With ``wal_dir``, the restored engine is rolled *forward* through
    every write-ahead-log record past the checkpoint's LSN watermark
    (acked batches and seals that never made it into a checkpoint), and
    a reopened :class:`~repro.ingest.wal.WriteAheadLog` is attached so
    subsequent ingest stays durable.
    """
    directory = recover_checkpoint(directory)
    state_path = directory / ENGINE_FILE
    try:
        state = json.loads(state_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise PersistenceError(f"garbled engine state: {exc}") from exc
    if state.get("format") != _ENGINE_FORMAT:
        raise PersistenceError(
            f"unknown engine format {state.get('format')!r}"
        )
    config = config_from_state(state["config"])
    engine = HybridQuantileEngine(config=config, disk=disk)
    engine.store = load_store(
        directory / WAREHOUSE_DIR,
        engine.disk,
        kappa=config.kappa,
        summary_builder=engine._build_partition_summary,
        # Restore into the same store flavour the config prescribes.
        store_cls=type(engine.store),
        repair=repair,
    )
    # The store was replaced after construction: re-wire the retirement
    # hook so compaction merges keep invalidating the shared cache.
    engine.store.on_retire = engine._on_runs_retired
    engine._gk = load_stream_sketch(
        (directory / SKETCH_FILE).read_bytes()
    )
    buffer = np.load(directory / BUFFER_FILE)
    engine._buffer.extend(buffer)
    engine._stream_stats = AggregateStats.of_array(buffer)
    engine._m = int(buffer.size)
    # The saved sketch had absorbed the whole saved buffer.
    engine._gk_absorbed = int(buffer.size)
    if engine._m != int(state["stream_elems"]):
        raise PersistenceError(
            "stream buffer size disagrees with engine state"
        )
    if engine._gk.n != engine._m:
        raise PersistenceError(
            "stream sketch count disagrees with stream buffer"
        )
    engine._step = int(state["step"])
    if wal_dir is not None:
        replay_wal(engine, wal_dir, after_lsn=int(state.get("wal_lsn", 0)))
        engine.attach_wal(
            WriteAheadLog(wal_dir, fsync=config.wal_fsync)
        )
    return engine
