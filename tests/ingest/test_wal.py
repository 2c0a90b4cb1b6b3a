"""WAL unit tests: framing, LSNs, rotation, truncation, salvage."""

import struct
import zlib

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import HybridQuantileEngine
from repro.ingest.wal import (
    WalError,
    WriteAheadLog,
    replay_wal,
    scan_wal,
)


def batch(*values):
    return np.asarray(values, dtype=np.int64)


def test_append_scan_roundtrip(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        assert wal.append_batch(batch(3, 1, 2)) == 1
        assert wal.append_seal(1) == 2
        assert wal.append_batch(batch(9)) == 3
    scan = scan_wal(tmp_path)
    assert scan.last_lsn == 3
    assert not scan.torn_tail
    kinds = [r.kind for r in scan.records]
    assert kinds == ["batch", "seal", "batch"]
    np.testing.assert_array_equal(scan.records[0].values, batch(3, 1, 2))
    assert scan.records[1].meta == 1  # the sealed step number
    assert scan.records[2].meta == 1  # the batch element count


def encode_frame(rtype, lsn, meta, payload):
    """A frame as one ``bytes``: header, CRC32 over header + payload, and
    the payload copied in after them."""
    head = struct.pack("<IBQQI", 0x52574C46, rtype, lsn, meta, len(payload))
    crc = zlib.crc32(payload, zlib.crc32(head)) & 0xFFFFFFFF
    return head + struct.pack("<I", crc) + payload


def test_segment_bytes_equal_the_encoded_frames(tmp_path):
    """Header and payload buffer written one after the other make the
    bytes of each frame encoded whole (batch type 1, seal type 2)."""
    rng = np.random.default_rng(4)
    fed = [
        rng.integers(-(2**62), 2**62, 16384),
        rng.integers(0, 9, (3, 5)).astype(np.int32),  # cast and flattened
        np.arange(10, dtype=np.int64)[::2],  # strided
        batch(),
    ]
    with WriteAheadLog(tmp_path) as wal:
        for values in fed:
            wal.append_batch(values)
        wal.append_seal(7)
    expected = b"RPWAL001"
    for lsn, values in enumerate(fed, start=1):
        flat = np.asarray(values, dtype=np.int64).ravel()
        payload = flat.astype("<i8").tobytes()
        expected += encode_frame(1, lsn, flat.size, payload)
    expected += encode_frame(2, len(fed) + 1, 7, b"")
    (segment,) = tmp_path.glob("wal-*.seg")
    assert segment.read_bytes() == expected


def test_lsns_resume_across_reopen(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        wal.append_batch(batch(1))
        wal.append_batch(batch(2))
    with WriteAheadLog(tmp_path) as wal:
        assert wal.last_lsn == 2
        assert wal.append_batch(batch(3)) == 3
    scan = scan_wal(tmp_path)
    assert [r.lsn for r in scan.records] == [1, 2, 3]
    # Reopen never appends to an existing segment.
    assert scan.segments == 2


def test_segment_rotation(tmp_path):
    wal = WriteAheadLog(tmp_path, segment_bytes=64)
    for value in range(8):
        wal.append_batch(batch(value))
    wal.close()
    scan = scan_wal(tmp_path)
    assert scan.segments > 1
    assert [r.lsn for r in scan.records] == list(range(1, 9))


def test_truncate_is_pure_gc(tmp_path):
    wal = WriteAheadLog(tmp_path, segment_bytes=64)
    for value in range(8):
        wal.append_batch(batch(value))
    before = scan_wal(tmp_path).segments
    removed = wal.truncate(4)
    assert removed >= 1
    scan = scan_wal(tmp_path)
    assert scan.segments == before - removed
    # Every surviving record is past the watermark or shares a segment
    # with one that is; LSNs stay monotone.
    assert scan.last_lsn == 8
    assert all(r.lsn > 0 for r in scan.records)
    # Replay semantics don't change: records <= watermark are skipped.
    wal.close()


def test_truncate_everything(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        wal.append_batch(batch(1, 2))
        wal.append_seal(1)
        assert wal.truncate(wal.last_lsn) == 1
    scan = scan_wal(tmp_path)
    assert scan.records == ()
    assert scan.last_lsn == 0


def test_lsn_floor_survives_full_truncation(tmp_path):
    """A fresh writer after truncate-everything must not restart at 0.

    If it did, new records would be numbered below the checkpoint
    watermark and replay would silently skip them — losing acked data.
    """
    with WriteAheadLog(tmp_path) as wal:
        wal.append_batch(batch(1, 2))
        wal.append_seal(1)
        wal.truncate(wal.last_lsn)
    with WriteAheadLog(tmp_path) as wal:
        assert wal.last_lsn == 2
        assert wal.append_batch(batch(3)) == 3


def test_torn_tail_is_salvaged_on_reopen(tmp_path):
    with WriteAheadLog(tmp_path) as wal:
        wal.append_batch(batch(1, 2, 3))
        wal.append_batch(batch(4, 5, 6))
    segment = sorted(tmp_path.glob("wal-*.seg"))[-1]
    data = segment.read_bytes()
    segment.write_bytes(data[:-5])  # crash mid-write: torn final frame
    scan = scan_wal(tmp_path)
    assert scan.torn_tail
    assert [r.lsn for r in scan.records] == [1]
    with WriteAheadLog(tmp_path) as wal:
        assert wal.last_lsn == 1  # torn record was never durable
        assert wal.append_batch(batch(7)) == 2
    clean = scan_wal(tmp_path)
    assert not clean.torn_tail
    assert [r.lsn for r in clean.records] == [1, 2]


def test_midlog_corruption_raises_without_salvage(tmp_path):
    wal = WriteAheadLog(tmp_path, segment_bytes=64)
    for value in range(8):
        wal.append_batch(batch(value))
    wal.close()
    first = sorted(tmp_path.glob("wal-*.seg"))[0]
    data = bytearray(first.read_bytes())
    data[-3] ^= 0xFF  # flip a payload byte: CRC mismatch mid-log
    first.write_bytes(bytes(data))
    with pytest.raises(WalError, match="mid-log"):
        scan_wal(tmp_path)
    salvaged = scan_wal(tmp_path, salvage=True)
    # Salvage keeps the prefix before the damage and deletes the rest.
    assert salvaged.torn_tail
    assert all(r.lsn < 8 for r in salvaged.records)
    scan_wal(tmp_path)  # now clean


def test_not_a_segment_raises(tmp_path):
    (tmp_path / "wal-0000000000000001.seg").write_bytes(b"not a wal file")
    with pytest.raises(WalError, match="not a WAL segment"):
        scan_wal(tmp_path)


def test_closed_writer_refuses_appends(tmp_path):
    wal = WriteAheadLog(tmp_path)
    wal.append_batch(batch(1))
    wal.close()
    with pytest.raises(WalError, match="closed"):
        wal.append_batch(batch(2))


def test_header_only_segment_dropped_on_close(tmp_path):
    wal = WriteAheadLog(tmp_path)
    wal.append_batch(batch(1))
    wal.close()
    # Reopen, write nothing: the fresh segment must not linger.
    wal = WriteAheadLog(tmp_path)
    wal.close()
    assert scan_wal(tmp_path).segments == 1


def test_replay_reproduces_feed(tmp_path):
    config = EngineConfig(epsilon=0.02, block_elems=64)
    rng = np.random.default_rng(11)
    feeds = [
        rng.integers(0, 10_000, size=500).astype(np.int64)
        for _ in range(3)
    ]
    reference = HybridQuantileEngine(config=config)
    logged = HybridQuantileEngine(config=config)
    logged.attach_wal(WriteAheadLog(tmp_path / "wal"))
    for feed in feeds:
        reference.stream_update_many(feed)
        reference.end_time_step()
        logged.stream_update_many(feed)
        logged.end_time_step()
    logged.close()
    replayed = HybridQuantileEngine(config=config)
    stats = replay_wal(replayed, tmp_path / "wal")
    assert stats.batches == 3
    assert stats.elements == 1500
    assert stats.seals == 3
    assert stats.skipped == 0
    for phi in (0.1, 0.5, 0.9):
        assert (
            replayed.quantile(phi).value == reference.quantile(phi).value
        )
    reference.close()
    replayed.close()


def test_replay_refuses_attached_writer(tmp_path):
    config = EngineConfig(epsilon=0.05, block_elems=64)
    engine = HybridQuantileEngine(config=config)
    engine.attach_wal(WriteAheadLog(tmp_path / "wal"))
    with pytest.raises(WalError, match="detach"):
        replay_wal(engine, tmp_path / "wal")
    engine.close()


def test_attach_twice_rejected(tmp_path):
    config = EngineConfig(epsilon=0.05, block_elems=64)
    engine = HybridQuantileEngine(config=config)
    engine.attach_wal(WriteAheadLog(tmp_path / "a"))
    with pytest.raises(ValueError):
        engine.attach_wal(WriteAheadLog(tmp_path / "b"))
    engine.close()
