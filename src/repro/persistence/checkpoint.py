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

A cluster checkpoint runs the same protocol: :func:`begin_stage`,
one :func:`stage_engine` per shard into ``<dir>.tmp/shard-NN``, its
own completeness marker, and one :func:`commit_stage`.

The save reports each of :data:`CRASH_POINTS` to the storage layer's
test seam, :data:`repro.storage.fsutil.crash_hook`; the crash recovery
harness raises :class:`~repro.storage.fsutil.SimulatedCrash` there to
freeze the directory tree mid-save.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import asdict, fields
from pathlib import Path
from typing import Any, Optional

import numpy as np

from ..core.config import EngineConfig
from ..core.engine import HybridQuantileEngine
from ..faults.plan import FaultPlan
from ..ingest.wal import WriteAheadLog, replay_wal
from ..storage.fsutil import (
    atomic_write_json,
    fsync_dir,
    fsync_file,
    reach,
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

#: Named points a save reports to :data:`repro.storage.fsutil.crash_hook`,
#: in order.  The crash harness kills a save at each one.
CRASH_POINTS = (
    "stage-created",  # empty staging directory exists
    "mid-stage",      # warehouse + sketch + buffer staged, no engine.json
    "staged",         # staging complete and fsynced, nothing renamed
    "retired-old",    # previous checkpoint renamed away, new not yet in
    "promoted",       # new checkpoint committed, old not yet removed
)


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
    directory = Path(directory)
    stage = begin_stage(directory)
    wal_lsn = stage_engine(engine, stage, directory)
    commit_stage(stage, directory)
    if wal_lsn is not None:
        engine.wal.truncate(wal_lsn)
    return directory


def begin_stage(directory: Path, marker: str = ENGINE_FILE) -> Path:
    """Create an empty ``<directory>.tmp`` for a new checkpoint.

    Refuses to stage over a non-empty ``directory`` that holds no
    ``marker`` (the commit would retire and delete it), and clears the
    debris an earlier crashed save left beside a committed checkpoint.
    """
    if (
        directory.exists()
        and any(directory.iterdir())
        and not (directory / marker).exists()
    ):
        raise PersistenceError(
            f"refusing to replace {directory}: it is non-empty but not "
            "a checkpoint"
        )
    stage = stage_path(directory)
    retired = retired_path(directory)
    # A stale stage is always garbage; a retired checkpoint only while
    # the committed directory exists (otherwise it is the rollback
    # target and recover_checkpoint owns it).
    if stage.exists():
        shutil.rmtree(stage)
    if retired.exists() and directory.exists():
        shutil.rmtree(retired)
    stage.mkdir(parents=True)
    reach("stage-created")
    return stage


def stage_engine(
    engine: HybridQuantileEngine, stage: Path, previous: Path
) -> Optional[int]:
    """Write ``engine``'s checkpoint into the directory ``stage``.

    Partition files the checkpoint at ``previous`` already holds are
    hard-linked rather than rewritten.  Every file is fsynced, and
    ``engine.json`` (the completeness marker) goes last.  Returns the
    WAL watermark to truncate to once the stage commits, or ``None``
    without a WAL.
    """
    engine.flush()
    wal_lsn = engine.wal.last_lsn if engine.wal is not None else None
    stage.mkdir(exist_ok=True)
    previous_warehouse = previous / WAREHOUSE_DIR
    save_store(
        engine.store,
        stage / WAREHOUSE_DIR,
        reuse_from=(
            previous_warehouse if previous_warehouse.is_dir() else None
        ),
    )
    # The saved sketch has absorbed exactly the saved buffer.
    sketch, buffer, step = engine.stream_state()
    (stage / SKETCH_FILE).write_bytes(dump_sketch(sketch))
    np.save(stage / BUFFER_FILE, buffer)
    fsync_file(stage / SKETCH_FILE)
    fsync_file(stage / BUFFER_FILE)
    reach("mid-stage")
    state = {
        "format": _ENGINE_FORMAT,
        "config": asdict(engine.config),
        "step": step,
        "stream_elems": int(buffer.size),
    }
    if wal_lsn is not None:
        state["wal_lsn"] = wal_lsn
    atomic_write_json(stage / ENGINE_FILE, state)
    return wal_lsn


def commit_stage(stage: Path, directory: Path) -> None:
    """Promote a complete ``stage`` to ``directory`` with one rename.

    The previous checkpoint is retired to ``<directory>.old`` first and
    deleted once the stage is in; a crash anywhere in between leaves a
    tree :func:`recover_checkpoint` rolls forward or back.
    """
    fsync_dir(stage)
    reach("staged")
    retired = retired_path(directory)
    if directory.exists():
        os.rename(directory, retired)
        reach("retired-old")
    os.rename(stage, directory)  # commit point
    fsync_dir(directory.parent)
    reach("promoted")
    if retired.exists():
        shutil.rmtree(retired)


def recover_checkpoint(
    directory: "str | Path", marker: str = ENGINE_FILE
) -> Path:
    """Roll an interrupted save forward or back.

    A checkpoint is complete when it holds ``marker``, the file staging
    writes last (``cluster.json`` for a cluster).  Idempotent; called
    by :func:`load_engine`.  After it returns, ``directory`` (if any
    checkpoint ever committed) is complete and no ``.tmp``/``.old``
    siblings remain.  Raises :class:`PersistenceError` only for states
    the protocol cannot produce (e.g. every candidate incomplete).
    """
    directory = Path(directory)
    stage = stage_path(directory)
    retired = retired_path(directory)
    if (directory / marker).exists():
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
            f"checkpoint {directory} is incomplete (no {marker})"
        )
    if (stage / marker).exists():
        # Crash between retiring the old checkpoint and committing the
        # stage: the stage was fully fsynced (the marker is written
        # last), so roll forward.
        os.rename(stage, directory)
        fsync_dir(directory.parent)
        if retired.exists():
            shutil.rmtree(retired)
        return directory
    if (retired / marker).exists():
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
    raise PersistenceError(f"no checkpoint at {directory / marker}")


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
    ("degrade_on_fault", True),
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
    fault_plan: Optional[FaultPlan] = None,
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

    The engine's disk fails on ``fault_plan`` from the recovery scan
    on, whose retried reads count as archive retries; a scan that gives
    up raises its last
    :class:`~repro.faults.DiskFault`, whose ``disk`` holds the transcript.
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
    engine = HybridQuantileEngine(config=config, fault_plan=fault_plan)
    try:
        load_store(directory / WAREHOUSE_DIR, engine.store, repair,
                   engine.note_archive_retry)
        buffer = np.load(directory / BUFFER_FILE)
        if buffer.dtype != np.int64:
            # The buffer would cast it: floats truncate, wide uint64
            # wraps negative (load_store refuses partition files so too).
            raise PersistenceError(
                f"{BUFFER_FILE} holds {buffer.dtype} values, not int64"
            )
        if buffer.size != int(state["stream_elems"]):
            raise PersistenceError(
                "stream buffer size disagrees with engine state"
            )
        sketch = load_stream_sketch((directory / SKETCH_FILE).read_bytes())
        try:
            engine.restore_stream(sketch, buffer, int(state["step"]))
        except ValueError as exc:
            raise PersistenceError(str(exc)) from exc
        if wal_dir is not None:
            replay_wal(engine, wal_dir, after_lsn=int(state.get("wal_lsn", 0)))
            engine.attach_wal(WriteAheadLog(wal_dir, fsync=config.wal_fsync))
    except BaseException:
        engine.close()
        raise
    return engine
