"""Tests for warehouse persistence: round-trip, crashes, corruption."""

import json

import numpy as np
import pytest

from repro.persistence import PersistenceError, load_store, save_store
from repro.persistence.warehouse_store import MANIFEST_NAME, _crc32_of
from repro.storage import SimulatedDisk
from repro.warehouse import LeveledStore


def build_store(steps=7, kappa=2, batch=500, seed=0):
    disk = SimulatedDisk(block_elems=16)
    store = LeveledStore(disk, kappa=kappa)
    rng = np.random.default_rng(seed)
    for step in range(1, steps + 1):
        store.add_batch(rng.integers(0, 10**6, batch), step=step)
    return disk, store


def empty_store(disk=None, kappa=2):
    """An empty store for ``load_store`` to fill."""
    return LeveledStore(
        disk if disk is not None else SimulatedDisk(block_elems=16), kappa
    )


class TestRoundTrip:
    def test_layout_preserved(self, tmp_path):
        _, store = build_store()
        save_store(store, tmp_path)
        restored = load_store(tmp_path, empty_store())
        assert restored.kappa == store.kappa
        assert restored.steps_loaded == store.steps_loaded
        original = [
            (p.level, p.start_step, p.end_step, len(p))
            for p in store.partitions()
        ]
        loaded = [
            (p.level, p.start_step, p.end_step, len(p))
            for p in restored.partitions()
        ]
        assert loaded == original

    def test_data_preserved(self, tmp_path):
        _, store = build_store()
        save_store(store, tmp_path)
        restored = load_store(tmp_path, empty_store())
        for a, b in zip(store.partitions(), restored.partitions()):
            np.testing.assert_array_equal(a.run.values, b.run.values)

    def test_a_v1_checkpoint_of_int64_parts_still_loads(self, tmp_path):
        """The format says ``-v2`` since a part file may hold int32; an
        older ``-v1`` manifest, whose parts are all int64, loads as it
        did."""
        disk = SimulatedDisk(block_elems=16)
        store = LeveledStore(disk, kappa=2)
        rng = np.random.default_rng(3)
        for step in range(1, 6):
            store.add_batch(rng.integers(2**40, 2**41, 500), step=step)
        assert {p.run.values.dtype for p in store.partitions()} == {
            np.dtype(np.int64)
        }
        save_store(store, tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["format"] == "repro-warehouse-v2"
        manifest["format"] = "repro-warehouse-v1"
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        restored = load_store(tmp_path, empty_store())
        for a, b in zip(store.partitions(), restored.partitions(), strict=True):
            np.testing.assert_array_equal(a.run.values, b.run.values)

    def test_restored_store_keeps_ingesting(self, tmp_path):
        _, store = build_store(steps=7, kappa=2)
        save_store(store, tmp_path)
        restored = load_store(tmp_path, empty_store())
        restored.add_batch(np.arange(500), step=8)
        restored.check_invariant()
        assert restored.steps_loaded == 8

    def test_incremental_save_reuses_files(self, tmp_path):
        disk, store = build_store(steps=3, kappa=5)
        save_store(store, tmp_path)
        first = {p.name: p.stat().st_mtime_ns
                 for p in tmp_path.glob("part-*.npy")}
        store.add_batch(np.arange(500), step=4)
        save_store(store, tmp_path)
        second = {p.name: p.stat().st_mtime_ns
                  for p in tmp_path.glob("part-*.npy")}
        for name, mtime in first.items():
            assert second[name] == mtime  # untouched partitions not rewritten
        assert len(second) == len(first) + 1

    def test_stale_files_removed_after_merge(self, tmp_path):
        disk, store = build_store(steps=2, kappa=2)
        save_store(store, tmp_path)
        before = {p.name for p in tmp_path.glob("part-*.npy")}
        store.add_batch(np.arange(500), step=3)  # merges (1,2) upward
        save_store(store, tmp_path)
        after = {p.name for p in tmp_path.glob("part-*.npy")}
        assert len(after) == store.partition_count()
        assert before - after  # the merged-away level-0 files are gone

    def test_summary_builder_applied_on_load(self, tmp_path):
        _, store = build_store()
        save_store(store, tmp_path)
        restored = load_store(
            tmp_path,
            LeveledStore(
                SimulatedDisk(block_elems=16),
                kappa=2,
                summary_builder=lambda p: ("summary", len(p)),
            ),
        )
        for partition in restored.partitions():
            assert partition.summary == ("summary", len(partition))

    def test_load_charges_recovery_scan(self, tmp_path):
        _, store = build_store()
        save_store(store, tmp_path)
        disk = SimulatedDisk(block_elems=16)
        load_store(tmp_path, empty_store(disk))
        expected_blocks = sum(
            disk.blocks_for(len(p)) for p in store.partitions()
        )
        assert disk.stats.counters.sequential_reads == expected_blocks


class TestFailureInjection:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(PersistenceError, match="no manifest"):
            load_store(tmp_path, empty_store())

    def test_garbled_manifest(self, tmp_path):
        _, store = build_store()
        save_store(store, tmp_path)
        (tmp_path / MANIFEST_NAME).write_text("{oops")
        with pytest.raises(PersistenceError, match="garbled"):
            load_store(tmp_path, empty_store())

    def test_wrong_format(self, tmp_path):
        _, store = build_store()
        save_store(store, tmp_path)
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        manifest["format"] = "something-else"
        (tmp_path / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="format"):
            load_store(tmp_path, empty_store())

    def test_kappa_mismatch(self, tmp_path):
        _, store = build_store(kappa=2)
        save_store(store, tmp_path)
        with pytest.raises(PersistenceError, match="kappa"):
            load_store(tmp_path, empty_store(kappa=5))

    def test_missing_partition_file(self, tmp_path):
        _, store = build_store()
        save_store(store, tmp_path)
        next(iter(tmp_path.glob("part-*.npy"))).unlink()
        with pytest.raises(PersistenceError, match="missing partition"):
            load_store(tmp_path, empty_store())

    def test_corrupted_partition_detected(self, tmp_path):
        _, store = build_store()
        save_store(store, tmp_path)
        victim = next(iter(tmp_path.glob("part-*.npy")))
        blob = bytearray(victim.read_bytes())
        blob[-5] ^= 0xFF  # flip bits inside the data section
        victim.write_bytes(bytes(blob))
        with pytest.raises(PersistenceError, match="checksum"):
            load_store(tmp_path, empty_store())

    def test_crash_during_save_keeps_old_manifest(self, tmp_path):
        """The temp-then-rename protocol: a leftover .tmp is harmless."""
        _, store = build_store()
        save_store(store, tmp_path)
        (tmp_path / (MANIFEST_NAME + ".tmp")).write_text("partial garbage")
        restored = load_store(tmp_path, empty_store())
        assert restored.steps_loaded == store.steps_loaded

    def test_float_partition_refused(self, tmp_path):
        _, store = build_store()
        save_store(store, tmp_path)
        victim = sorted(tmp_path.glob("part-*.npy"))[0]
        np.save(victim, np.load(victim) + 0.5)
        # The manifest's checksum matches the rewritten file: only the
        # dtype gives it away.
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        for level in manifest["levels"]:
            for entry in level:
                if entry["file"] == victim.name:
                    entry["crc32"] = _crc32_of(victim)
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match=victim.name):
            load_store(tmp_path, empty_store())

    def test_wide_uint64_partition_not_salvaged(self, tmp_path):
        _, store = build_store()
        save_store(store, tmp_path)
        victim = sorted(tmp_path.glob("part-*.npy"))[0]
        # Sorted, of the recorded length, but >= 2**63: int64 would
        # wrap every value negative.
        np.save(victim, np.load(victim).astype(np.uint64) + np.uint64(2**63))
        with pytest.raises(PersistenceError, match=victim.name):
            load_store(tmp_path, empty_store(), repair=True)
