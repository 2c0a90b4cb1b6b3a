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
header + payload.  Each segment is named by the first LSN it holds, so
a segment holds only LSNs below its successor's name and the newest
one holds LSNs up to the writer's ``last_lsn``: the names alone bound
every segment.  A crash can only tear the *tail* of the last segment
(a partial frame, or a header with no frame yet): the writer cuts the
torn bytes on reopen, while mid-log corruption (which a crash cannot
produce) makes both the writer and :func:`scan_wal` raise; only
``fsck --wal --repair`` salvages such a log.

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
    #: Whether the final segment ended in a torn (incomplete) frame or
    #: held only its header.
    torn_tail: bool


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


def _first_lsn(path: Path) -> int:
    try:
        return int(path.stem.split("-", 1)[1])
    except (IndexError, ValueError):
        raise WalError(f"unrecognized segment name {path.name}") from None


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

    def __init__(self, offset: int, records: List[WalRecord]) -> None:
        super().__init__(f"torn frame at byte {offset}")
        #: End of the last good frame (the salvage truncation point).
        self.offset = offset
        #: The intact frames before it.
        self.records = records


def _decode_segment(data: bytes, path: Path) -> List[WalRecord]:
    """Decode every frame; raises :class:`_Torn` at the first bad one."""
    if len(data) < len(_SEGMENT_MAGIC):
        raise _Torn(0, [])
    if data[: len(_SEGMENT_MAGIC)] != _SEGMENT_MAGIC:
        raise WalError(f"{path} is not a WAL segment")
    offset = len(_SEGMENT_MAGIC)
    records: List[WalRecord] = []
    while offset < len(data):
        head_end = offset + _FRAME_HEAD.size
        crc_end = head_end + _FRAME_CRC.size
        if crc_end > len(data):
            raise _Torn(offset, records)
        magic, rtype, lsn, meta, length = _FRAME_HEAD.unpack(
            data[offset:head_end]
        )
        if magic != _FRAME_MAGIC or rtype not in _KIND_NAMES:
            raise _Torn(offset, records)
        payload_end = crc_end + length
        if payload_end > len(data):
            raise _Torn(offset, records)
        payload = data[crc_end:payload_end]
        (expected,) = _FRAME_CRC.unpack(data[head_end:crc_end])
        actual = zlib.crc32(payload, zlib.crc32(data[offset:head_end]))
        if (actual & 0xFFFFFFFF) != expected:
            raise _Torn(offset, records)
        if rtype == RECORD_BATCH:
            if length != meta * 8:
                raise _Torn(offset, records)
            values = np.frombuffer(payload, dtype="<i8").astype(
                np.int64, copy=True
            )
            records.append(
                WalRecord(lsn=lsn, kind="batch", meta=meta, values=values)
            )
        else:
            records.append(WalRecord(lsn=lsn, kind="seal", meta=meta))
        offset = payload_end
    return records


def scan_wal(directory: "str | Path", salvage: bool = False) -> WalScan:
    """Decode every replayable record under ``directory``.

    A torn tail in the *final* segment — a partial frame, or only the
    segment header, as a crash between creating the segment and its
    first frame leaves — is crash-normal and tolerated (reported via
    ``torn_tail``); a bad frame anywhere earlier means records after it
    cannot form a replayable prefix, so it raises :class:`WalError` —
    unless ``salvage`` is set, in which case the torn segment is
    truncated at its last good frame (removed when none is left), every
    later segment is deleted, and the surviving prefix is returned.
    """
    directory = Path(directory)
    paths = _segment_files(directory)
    records: List[WalRecord] = []
    segments = len(paths)
    torn_tail = False
    for position, path in enumerate(paths):
        data = path.read_bytes()
        final = position == len(paths) - 1
        try:
            decoded = _decode_segment(data, path)
            if final and not decoded:
                raise _Torn(len(_SEGMENT_MAGIC), [])
        except _Torn as torn:
            if not (final or salvage):
                raise WalError(
                    f"corrupt frame mid-log in {path.name} at byte "
                    f"{torn.offset}: not a crash artifact "
                    "(run fsck --wal --repair to salvage)"
                ) from None
            records.extend(torn.records)
            torn_tail = True
            segments = position + 1
            if salvage:
                if torn.records:
                    with open(path, "r+b") as handle:
                        handle.truncate(torn.offset)
                        handle.flush()
                        os.fsync(handle.fileno())
                else:
                    path.unlink()
                    segments -= 1
                for later in paths[position + 1 :]:
                    later.unlink()
                _fsync_dir(directory)
            break
        records.extend(decoded)
    lsns = [r.lsn for r in records]
    if lsns != sorted(set(lsns)):
        raise WalError(f"non-monotonic LSNs in {directory}")
    return WalScan(
        records=tuple(records),
        segments=segments,
        last_lsn=lsns[-1] if lsns else 0,
        torn_tail=torn_tail,
    )


def replay_wal(engine, directory: "str | Path", after_lsn: int = 0) -> None:
    """Roll ``engine`` forward through every record past the watermark.

    Batch frames are re-fed through ``stream_update_many`` with their
    original boundaries; seal frames call ``end_time_step``.  The
    engine must not have a live WAL attached (records would be
    re-appended) — attach the writer after replay.
    """
    if engine.wal is not None:
        raise WalError("detach the WAL writer before replaying into it")
    for record in scan_wal(directory).records:
        if record.lsn <= after_lsn:
            continue
        if record.kind == "batch":
            engine.stream_update_many(record.values)
        else:
            engine.end_time_step()


class WriteAheadLog:
    """Appender over a directory of CRC-framed WAL segments.

    Opening scans the existing segments read-only: mid-log damage
    raises :class:`WalError` and leaves every file as it is; only a
    torn final segment is cut back to its last good frame (removed when
    it holds only its header).  The writer then resumes the LSN
    sequence and appends into a fresh segment, named by its first LSN.
    It keeps no per-segment state: segment bounds come from the names
    (see the module docstring).  Each append is flushed — and fsynced
    when ``fsync`` is on — before it returns, making the caller's ack
    durable.  With ``fsync`` off the writer fsyncs nothing, segment
    creation and truncation included: durability is the page cache's.
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
        scan = scan_wal(self.directory)
        if scan.torn_tail:
            # Only the final segment is torn (else the scan raised), so
            # salvaging cuts that segment alone.
            scan = scan_wal(self.directory, salvage=True)
        self._floor = _read_floor(self.directory)
        self._lsn = max(scan.last_lsn, self._floor)
        # Pre-existing segments are never appended to again (resuming
        # mid-file risks garbage): the first append opens a new one.
        self._file = None
        self._closed = False

    @property
    def last_lsn(self) -> int:
        """LSN of the most recently appended (durable) record."""
        return self._lsn

    def _open_segment(self) -> None:
        self._file = open(
            self.directory / _segment_name(self._lsn + 1), "xb"
        )
        self._file.write(_SEGMENT_MAGIC)
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
            _fsync_dir(self.directory)

    def _append(self, rtype: int, meta: int, payload) -> int:
        if self._closed:
            raise WalError("write-ahead log is closed")
        if self._file is not None and self._file.tell() >= self.segment_bytes:
            self._file.close()
            self._file = None
        if self._file is None:
            self._open_segment()
        self._lsn += 1
        self._file.write(_frame_head(rtype, self._lsn, meta, payload))
        self._file.write(payload)  # the caller's buffer, not a copy
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())
        return self._lsn

    def append_batch(self, values: np.ndarray) -> int:
        """Durably log one acked ingest batch; returns its LSN."""
        arr = np.ascontiguousarray(values, dtype="<i8").ravel()
        return self._append(RECORD_BATCH, int(arr.size), arr.view(np.uint8))

    def append_seal(self, step: int) -> int:
        """Durably log one ``end_time_step`` seal; returns its LSN."""
        return self._append(RECORD_SEAL, int(step), b"")

    def truncate(self, upto_lsn: int) -> int:
        """Garbage-collect segments fully covered by a checkpoint.

        Removes, oldest first, every segment whose records all have
        ``lsn <= upto_lsn``: a segment's records lie below its
        successor's first LSN, the newest segment's at or below
        ``last_lsn``.  Safe at any time: replay skips records at or
        below the checkpoint watermark, so an untruncated segment is
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
        paths = _segment_files(self.directory)
        bounds = [_first_lsn(path) - 1 for path in paths[1:]] + [self._lsn]
        removed = 0
        for path, last in zip(paths, bounds):
            if last > upto_lsn:
                break
            if path == paths[-1] and self._file is not None:
                # The active segment is always the newest.
                self._file.close()
                self._file = None
            path.unlink()
            removed += 1
        if removed and self.fsync:
            _fsync_dir(self.directory)
        return removed

    def close(self) -> None:
        """Close the active segment (the log stays replayable)."""
        if self._file is not None:
            header_only = self._file.tell() <= len(_SEGMENT_MAGIC)
            self._file.close()
            if header_only:
                # No frame made it in: drop it so reopen resumes clean.
                os.unlink(self._file.name)
            self._file = None
        self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
