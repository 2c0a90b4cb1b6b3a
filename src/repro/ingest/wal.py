"""Durable ingest write-ahead log: CRC-framed, LSN-stamped segments.

The engine acks a ``stream_update`` / ``stream_update_many`` call by
returning from it; everything acked but not yet checkpointed lives only
in process memory (the append buffer, the live sketch, un-archived
sealed batches).  A :class:`WriteAheadLog` makes those acks durable:
each batch is appended — and fsynced — to a segment log *before* it is
applied, and every ``end_time_step`` writes a seal frame, so a crash
replays to exactly the pre-crash state:

* **batch frame** — the routed numpy chunk, verbatim (int64 little
  endian).  Replay feeds it back through ``stream_update_many`` with
  the original batch boundaries, which the lazy-absorption contract
  guarantees is bit-identical to the original feed.
* **seal frame** — one per ``end_time_step``, so replay reproduces the
  exact partition layout and step numbering.

Every frame carries a monotonically increasing LSN and a CRC32 over
header + payload.  A crash can only tear the *tail* of the last
segment: the writer truncates the torn bytes on reopen, and
:func:`scan_wal` refuses mid-log corruption (which a crash cannot
produce) unless salvaging.

Checkpoint coordination uses an LSN watermark, not file state:
``save_engine`` records the attached log's ``last_lsn`` inside
``engine.json`` and truncates fully-covered segments only *after* the
checkpoint commits.  Replay applies records with ``lsn > watermark``,
so truncation is pure garbage collection — a crash anywhere in the
checkpoint/truncate sequence never double-applies or loses a record.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np

from ..storage.fsutil import atomic_write_bytes, stage_path

#: Segment file preamble; bump the trailing digits on format changes.
_SEGMENT_MAGIC = b"RPWAL001"
#: Per-frame marker ("FLWR" little-endian) guarding against seeks into
#: payload bytes.
_FRAME_MAGIC = 0x52574C46
#: marker, record type, lsn, meta (elems or step), payload length.
_FRAME_HEAD = struct.Struct("<IBQQI")
_FRAME_CRC = struct.Struct("<I")

RECORD_BATCH = 1
RECORD_SEAL = 2

_KIND_NAMES = {RECORD_BATCH: "batch", RECORD_SEAL: "seal"}


class WalError(RuntimeError):
    """A WAL segment is corrupt beyond what a crash can explain."""


@dataclass(frozen=True)
class WalRecord:
    """One decoded WAL frame."""

    #: Monotonically increasing log sequence number.
    lsn: int
    #: ``"batch"`` or ``"seal"``.
    kind: str
    #: Sealed step number for seal frames; element count for batches.
    meta: int
    #: The batch payload (``None`` for seal frames).
    values: Optional[np.ndarray] = None


@dataclass(frozen=True)
class WalScan:
    """What :func:`scan_wal` found in a WAL directory."""

    records: Tuple[WalRecord, ...]
    segments: int
    last_lsn: int
    #: Whether the final segment ended in a torn (incomplete) frame.
    torn_tail: bool
    #: Segment file holding the torn frame, when ``torn_tail``.
    torn_segment: Optional[str] = None

    @property
    def frames(self) -> int:
        """Number of intact frames decoded."""
        return len(self.records)


@dataclass(frozen=True)
class ReplayStats:
    """What :func:`replay_wal` applied to an engine."""

    batches: int
    elements: int
    seals: int
    #: LSN of the last applied record (watermark when nothing applied).
    last_lsn: int
    #: Records at or below the watermark, skipped as already durable.
    skipped: int


def _fsync_dir(path: Path) -> None:
    """Make a directory entry durable (mirrors the checkpoint dance)."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _segment_name(first_lsn: int) -> str:
    # Zero-padded so lexicographic file order is LSN order.
    return f"wal-{first_lsn:016d}.seg"


def _segment_files(directory: Path) -> List[Path]:
    return sorted(directory.glob("wal-*.seg"))


_FLOOR_NAME = "wal.floor"


def _read_floor(directory: Path) -> int:
    """Highest LSN ever garbage-collected out of this directory.

    Truncation may delete *every* segment; without this marker a fresh
    writer would restart the sequence at zero and its new records —
    numbered below the checkpoint watermark — would be invisible to
    replay.  The floor keeps LSNs monotone across full truncations.
    """
    try:
        return int((directory / _FLOOR_NAME).read_text())
    except (OSError, ValueError):
        return 0


def _write_floor(directory: Path, lsn: int, fsync: bool) -> None:
    # A torn floor reads as 0, so with fsync on its bytes are made
    # durable before the rename publishes them.
    path = directory / _FLOOR_NAME
    if fsync:
        atomic_write_bytes(path, str(lsn).encode("ascii"))
        return
    tmp = stage_path(path)
    tmp.write_text(str(lsn))
    os.replace(tmp, path)


def _frame_head(rtype: int, lsn: int, meta: int, payload) -> bytes:
    """A frame up to its payload: header, CRC32 over header + payload."""
    head = _FRAME_HEAD.pack(_FRAME_MAGIC, rtype, lsn, meta, len(payload))
    crc = zlib.crc32(payload, zlib.crc32(head)) & 0xFFFFFFFF
    return head + _FRAME_CRC.pack(crc)


class _Torn(Exception):
    """Internal: frame decoding hit a torn/garbled region."""

    def __init__(self, offset: int) -> None:
        super().__init__(f"torn frame at byte {offset}")
        self.offset = offset


def _decode_segment(data: bytes, path: Path) -> Tuple[List[WalRecord], int]:
    """Decode every intact frame; raises :class:`_Torn` at a bad one.

    Returns the records decoded so far paired with the byte offset of
    the end of the last *good* frame (the salvage truncation point).
    """
    if len(data) < len(_SEGMENT_MAGIC):
        raise _Torn(0)
    if data[: len(_SEGMENT_MAGIC)] != _SEGMENT_MAGIC:
        raise WalError(f"{path} is not a WAL segment")
    offset = len(_SEGMENT_MAGIC)
    records: List[WalRecord] = []
    while offset < len(data):
        head_end = offset + _FRAME_HEAD.size
        crc_end = head_end + _FRAME_CRC.size
        if crc_end > len(data):
            raise _Torn(offset)
        magic, rtype, lsn, meta, length = _FRAME_HEAD.unpack(
            data[offset:head_end]
        )
        if magic != _FRAME_MAGIC or rtype not in _KIND_NAMES:
            raise _Torn(offset)
        payload_end = crc_end + length
        if payload_end > len(data):
            raise _Torn(offset)
        payload = data[crc_end:payload_end]
        (expected,) = _FRAME_CRC.unpack(data[head_end:crc_end])
        actual = zlib.crc32(payload, zlib.crc32(data[offset:head_end]))
        if (actual & 0xFFFFFFFF) != expected:
            raise _Torn(offset)
        if rtype == RECORD_BATCH:
            if length != meta * 8:
                raise _Torn(offset)
            values = np.frombuffer(payload, dtype="<i8").astype(
                np.int64, copy=True
            )
            records.append(
                WalRecord(lsn=lsn, kind="batch", meta=meta, values=values)
            )
        else:
            records.append(WalRecord(lsn=lsn, kind="seal", meta=meta))
        offset = payload_end
    return records, offset


def scan_wal(directory: "str | Path", salvage: bool = False) -> WalScan:
    """Decode every replayable record under ``directory``.

    A torn tail in the *final* segment is crash-normal and tolerated
    (reported via ``torn_tail``); a bad frame anywhere earlier means
    records after it cannot form a replayable prefix, so it raises
    :class:`WalError` — unless ``salvage`` is set, in which case the
    torn segment is truncated at its last good frame, every later
    segment is deleted, and the surviving prefix is returned.
    """
    directory = Path(directory)
    paths = _segment_files(directory)
    records: List[WalRecord] = []
    torn_at: Optional[Tuple[Path, int]] = None
    kept = 0
    for position, path in enumerate(paths):
        data = path.read_bytes()
        try:
            decoded, _ = _decode_segment(data, path)
        except _Torn as torn:
            if position != len(paths) - 1 and not salvage:
                raise WalError(
                    f"corrupt frame mid-log in {path.name} at byte "
                    f"{torn.offset}: not a crash artifact "
                    "(run fsck --wal --repair to salvage)"
                ) from None
            torn_at = (path, torn.offset)
            decoded, good_end = _decode_segment(
                data[: torn.offset], path
            ) if torn.offset else ([], 0)
            records.extend(decoded)
            kept += 1
            if salvage:
                if good_end <= len(_SEGMENT_MAGIC):
                    path.unlink()
                    kept -= 1
                else:
                    with open(path, "r+b") as handle:
                        handle.truncate(good_end)
                        handle.flush()
                        os.fsync(handle.fileno())
                for later in paths[position + 1 :]:
                    later.unlink()
                _fsync_dir(directory)
            break
        records.extend(decoded)
        kept += 1
    lsns = [r.lsn for r in records]
    if lsns != sorted(set(lsns)):
        raise WalError(f"non-monotonic LSNs in {directory}")
    return WalScan(
        records=tuple(records),
        segments=kept if torn_at else len(paths),
        last_lsn=lsns[-1] if lsns else 0,
        torn_tail=torn_at is not None,
        torn_segment=torn_at[0].name if torn_at else None,
    )


def replay_wal(
    engine, directory: "str | Path", after_lsn: int = 0
) -> ReplayStats:
    """Roll ``engine`` forward through every record past the watermark.

    Batch frames are re-fed through ``stream_update_many`` with their
    original boundaries; seal frames call ``end_time_step``.  The
    engine must not have a live WAL attached (records would be
    re-appended) — attach the writer after replay.
    """
    if engine.wal is not None:
        raise WalError("detach the WAL writer before replaying into it")
    scan = scan_wal(directory)
    batches = elements = seals = skipped = 0
    last = after_lsn
    for record in scan.records:
        if record.lsn <= after_lsn:
            skipped += 1
            continue
        if record.kind == "batch":
            engine.stream_update_many(record.values)
            batches += 1
            elements += int(record.meta)
        else:
            engine.end_time_step()
            seals += 1
        last = record.lsn
    return ReplayStats(
        batches=batches,
        elements=elements,
        seals=seals,
        last_lsn=last,
        skipped=skipped,
    )


class WriteAheadLog:
    """Appender over a directory of CRC-framed WAL segments.

    Opening scans the existing segments (salvaging a crash-torn tail),
    resumes the LSN sequence, and appends into a fresh segment.  Each
    append is flushed — and fsynced when ``fsync`` is on — before it
    returns, making the caller's ack durable.
    """

    def __init__(
        self,
        directory: "str | Path",
        fsync: bool = True,
        segment_bytes: int = 4 * 1024 * 1024,
    ) -> None:
        if segment_bytes <= 0:
            raise ValueError("segment_bytes must be positive")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.segment_bytes = segment_bytes
        scan = scan_wal(self.directory, salvage=True)
        self._floor = _read_floor(self.directory)
        self._lsn = max(scan.last_lsn, self._floor)
        # Pre-existing segments are never appended to again (a torn
        # tail was already salvaged; resuming mid-file risks garbage).
        # Rebuild their last-LSN bounds from the scan: a record belongs
        # to the last segment whose first LSN is <= the record's.
        paths = _segment_files(self.directory)
        firsts = [self._first_lsn_of(p) for p in paths]
        bounds = {path: 0 for path in paths}
        for record in scan.records:
            owner = None
            for path, first in zip(paths, firsts):
                if first <= record.lsn:
                    owner = path
            if owner is not None:
                bounds[owner] = record.lsn
        #: sealed (closed) segments paired with the last LSN they hold.
        self._sealed: List[Tuple[Path, int]] = [
            (path, bounds[path]) for path in paths
        ]
        self._file = None
        self._active: Optional[Path] = None
        self._active_first = 0
        self._active_last = 0
        self._closed = False

    @staticmethod
    def _first_lsn_of(path: Path) -> int:
        try:
            return int(path.stem.split("-", 1)[1])
        except (IndexError, ValueError):
            raise WalError(f"unrecognized segment name {path.name}") from None

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended (durable) record."""
        return self._lsn

    def _open_segment(self) -> None:
        self._active_first = self._lsn + 1
        self._active = self.directory / _segment_name(self._active_first)
        self._file = open(self._active, "xb")
        self._file.write(_SEGMENT_MAGIC)
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        _fsync_dir(self.directory)
        self._active_last = 0

    def _append(self, rtype: int, meta: int, payload) -> int:
        if self._closed:
            raise WalError("write-ahead log is closed")
        if self._file is not None and (
            self._file.tell() >= self.segment_bytes and self._active_last
        ):
            self._rotate()
        if self._file is None:
            self._open_segment()
        self._lsn += 1
        self._file.write(_frame_head(rtype, self._lsn, meta, payload))
        self._file.write(payload)  # the caller's buffer, not a copy
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        self._active_last = self._lsn
        return self._lsn

    def _rotate(self) -> None:
        self._file.close()
        self._sealed.append((self._active, self._active_last))
        self._file = None
        self._active = None

    def append_batch(self, values: np.ndarray) -> int:
        """Durably log one acked ingest batch; returns its LSN."""
        arr = np.ascontiguousarray(values, dtype="<i8").ravel()
        return self._append(RECORD_BATCH, int(arr.size), arr.view(np.uint8))

    def append_seal(self, step: int) -> int:
        """Durably log one ``end_time_step`` seal; returns its LSN."""
        return self._append(RECORD_SEAL, int(step), b"")

    def truncate(self, upto_lsn: int) -> int:
        """Garbage-collect segments fully covered by a checkpoint.

        Removes every segment whose records all have
        ``lsn <= upto_lsn``.  Safe at any time: replay skips records at
        or below the checkpoint watermark, so an untruncated segment is
        merely wasted space, never a double-apply.  Returns the number
        of segments removed.
        """
        # Persist the LSN floor *before* deleting anything so a crash
        # between the two can never regress the sequence (see
        # :func:`_read_floor`).
        floor = min(int(upto_lsn), self._lsn)
        if floor > self._floor:
            self._floor = floor
            _write_floor(self.directory, floor, self.fsync)
        removed = 0
        survivors: List[Tuple[Path, int]] = []
        for path, last in self._sealed:
            if last <= upto_lsn:
                path.unlink()
                removed += 1
            else:
                survivors.append((path, last))
        self._sealed = survivors
        if (
            self._file is not None
            and self._active_last
            and self._active_last <= upto_lsn
        ):
            self._file.close()
            self._active.unlink()
            self._file = None
            self._active = None
            removed += 1
        if removed:
            _fsync_dir(self.directory)
        return removed

    def close(self) -> None:
        """Close the active segment (the log stays replayable)."""
        if self._file is not None:
            self._file.close()
            if self._active_last == 0 and self._active is not None:
                # Header-only segment: drop it so reopen resumes clean.
                self._active.unlink()
            self._file = None
            self._active = None
        self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
