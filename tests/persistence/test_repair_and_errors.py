"""Error paths and repair mode of the persistence layer.

Covers the failure taxonomy end to end: truncated partition files,
salvageable vs unsalvageable checksum mismatches, the stream
sketch/buffer consistency check in ``load_engine``, and the guard
against replacing a directory that is not a checkpoint.
"""

import json

import numpy as np
import pytest

from repro import HybridQuantileEngine
from repro.persistence import (
    PersistenceError,
    load_engine,
    load_store,
    save_engine,
    save_store,
)
from repro.persistence.checkpoint import BUFFER_FILE, SKETCH_FILE
from repro.persistence.serialization import dump_gk, load_gk
from repro.persistence.warehouse_store import MANIFEST_NAME
from repro.storage import SimulatedDisk
from repro.warehouse import LeveledStore


def build_store(steps=5, kappa=2, batch=400, seed=0):
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


def build_engine(seed=0, steps=4, batch=600, live=200):
    engine = HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=16)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        engine.stream_update_many(rng.integers(0, 10**6, batch))
        engine.end_time_step()
    engine.stream_update_many(rng.integers(0, 10**6, live))
    return engine


class TestTruncatedPartition:
    def test_truncated_file_detected(self, tmp_path):
        _, store = build_store()
        save_store(store, tmp_path)
        victim = sorted(tmp_path.glob("part-*.npy"))[0]
        blob = victim.read_bytes()
        victim.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(PersistenceError, match="checksum"):
            load_store(tmp_path, empty_store())

    def test_truncated_file_unrepairable(self, tmp_path):
        _, store = build_store()
        save_store(store, tmp_path)
        victim = sorted(tmp_path.glob("part-*.npy"))[0]
        blob = victim.read_bytes()
        victim.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(PersistenceError, match="unrepairable"):
            load_store(tmp_path, empty_store(), repair=True)


class TestRepairMode:
    def rewrite_valid(self, directory):
        """Rewrite one partition with different-but-valid sorted data
        of the same length, leaving the manifest checksum stale."""
        victim = sorted(directory.glob("part-*.npy"))[0]
        data = np.load(victim)
        np.save(victim, np.sort(data + 1))
        return victim

    def test_salvages_structurally_valid_run(self, tmp_path):
        _, store = build_store()
        save_store(store, tmp_path)
        self.rewrite_valid(tmp_path)
        restored = load_store(tmp_path, empty_store(), repair=True)
        assert restored.steps_loaded == store.steps_loaded

    def test_repair_rewrites_manifest(self, tmp_path):
        _, store = build_store()
        save_store(store, tmp_path)
        victim = self.rewrite_valid(tmp_path)
        load_store(tmp_path, empty_store(), repair=True)
        # Second load without repair is clean: checksums were fixed.
        load_store(tmp_path, empty_store())
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        entries = [e for lvl in manifest["levels"] for e in lvl]
        assert any(e["file"] == victim.name for e in entries)

    def test_unsorted_content_unrepairable(self, tmp_path):
        _, store = build_store()
        save_store(store, tmp_path)
        victim = sorted(tmp_path.glob("part-*.npy"))[0]
        data = np.load(victim)
        data[0], data[-1] = data[-1], data[0] + 10**7  # break the order
        np.save(victim, data)
        with pytest.raises(PersistenceError, match="unrepairable"):
            load_store(tmp_path, empty_store(), repair=True)

    def test_wrong_length_unrepairable(self, tmp_path):
        _, store = build_store()
        save_store(store, tmp_path)
        victim = sorted(tmp_path.glob("part-*.npy"))[0]
        np.save(victim, np.load(victim)[:-3])
        with pytest.raises(PersistenceError, match="unrepairable"):
            load_store(tmp_path, empty_store(), repair=True)

    def test_repair_without_damage_is_a_noop(self, tmp_path):
        _, store = build_store()
        save_store(store, tmp_path)
        before = (tmp_path / MANIFEST_NAME).read_bytes()
        load_store(tmp_path, empty_store(), repair=True)
        assert (tmp_path / MANIFEST_NAME).read_bytes() == before


class TestEngineStateConsistency:
    def test_sketch_buffer_disagreement_detected(self, tmp_path):
        """The gk.n != m cross-check: a sketch that counted a different
        number of live elements than the buffer holds must not load."""
        engine = build_engine()
        save_engine(engine, tmp_path / "ckpt")
        sketch_path = tmp_path / "ckpt" / SKETCH_FILE
        sketch = load_gk(sketch_path.read_bytes())
        sketch.update(123456)  # sketch now claims one extra element
        sketch_path.write_bytes(dump_gk(sketch))
        with pytest.raises(PersistenceError, match="sketch count disagrees"):
            load_engine(tmp_path / "ckpt")

    def test_buffer_size_disagreement_detected(self, tmp_path):
        engine = build_engine()
        save_engine(engine, tmp_path / "ckpt")
        buffer_path = tmp_path / "ckpt" / BUFFER_FILE
        buffer = np.load(buffer_path)
        np.save(buffer_path, buffer[:-5])
        with pytest.raises(PersistenceError, match="buffer size disagrees"):
            load_engine(tmp_path / "ckpt")

    def test_step_behind_the_store_detected(self, tmp_path):
        """A step count below the warehouse's last step would seal the
        next batch under a step the store already holds."""
        engine = build_engine()
        save_engine(engine, tmp_path / "ckpt")
        state_path = tmp_path / "ckpt" / "engine.json"
        state = json.loads(state_path.read_text())
        state["step"] = 2
        state_path.write_text(json.dumps(state))
        with pytest.raises(PersistenceError, match="trails the store"):
            load_engine(tmp_path / "ckpt")

    @pytest.mark.parametrize(
        "lossy",
        [np.array([5.9, 7.9, 9.9]), np.array([5, 7, 2**63 + 5], np.uint64)],
        ids=["float", "wide-uint64"],
    )
    def test_non_int64_buffer_is_refused(self, tmp_path, lossy):
        engine = HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=16)
        engine.stream_update_many([5, 7, 9])
        save_engine(engine, tmp_path / "ckpt")
        engine.close()
        np.save(tmp_path / "ckpt" / BUFFER_FILE, lossy)
        with pytest.raises(PersistenceError, match="not int64"):
            load_engine(tmp_path / "ckpt")

    def test_repair_flag_reaches_the_warehouse(self, tmp_path):
        engine = build_engine()
        save_engine(engine, tmp_path / "ckpt")
        victim = sorted((tmp_path / "ckpt" / "warehouse").glob("part-*.npy"))[0]
        np.save(victim, np.sort(np.load(victim) + 1))
        with pytest.raises(PersistenceError, match="checksum"):
            load_engine(tmp_path / "ckpt")
        restored = load_engine(tmp_path / "ckpt", repair=True)
        assert restored.steps_loaded == engine.steps_loaded
        restored.close()
        engine.close()


class TestAtomicSaveGuards:
    def test_refuses_to_replace_non_checkpoint_directory(self, tmp_path):
        target = tmp_path / "precious"
        target.mkdir()
        (target / "notes.txt").write_text("do not delete")
        engine = build_engine(steps=1, live=0)
        with pytest.raises(PersistenceError, match="not .*checkpoint"):
            save_engine(engine, target)
        assert (target / "notes.txt").read_text() == "do not delete"
        engine.close()

    def test_empty_existing_directory_is_fine(self, tmp_path):
        target = tmp_path / "fresh"
        target.mkdir()
        engine = build_engine(steps=1, live=0)
        save_engine(engine, target)
        load_engine(target).close()
        engine.close()

    def test_resave_reuses_unchanged_partitions(self, tmp_path):
        # kappa=3 and 2+1 steps: the third batch joins level 0 without
        # a merge, so the first two partition files keep their names.
        engine = build_engine(steps=2, live=0)
        target = tmp_path / "ckpt"
        save_engine(engine, target)
        warehouse = target / "warehouse"
        before = {p.name: p.stat().st_ino for p in warehouse.glob("part-*.npy")}
        rng = np.random.default_rng(99)
        engine.stream_update_many(rng.integers(0, 10**6, 600))
        engine.end_time_step()
        save_engine(engine, target)
        after = {p.name: p.stat().st_ino for p in warehouse.glob("part-*.npy")}
        shared = [n for n in after if before.get(n) == after[n]]
        assert shared  # at least one partition survived as a hard link
        load_engine(target).close()
        engine.close()
