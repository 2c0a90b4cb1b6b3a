"""Durability: every byte a commit point publishes was fsynced first.

An ``os.fsync`` recorder notes the inode behind each synced descriptor.
A rename can reach the disk before the file data it names, so any file
a commit exposes without an fsync of its own may read back torn or
empty after a power loss, even though the rename itself survived.
"""

import os

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import HybridQuantileEngine
from repro.ingest.wal import WriteAheadLog
from repro.persistence import save_engine
from repro.persistence import checkpoint as checkpoint_module

pytestmark = pytest.mark.faults


def _inode(stat):
    return stat.st_dev, stat.st_ino


@pytest.fixture
def synced(monkeypatch):
    """The inodes ``os.fsync`` has been called on, as the calls happen."""
    inodes = set()
    real_fsync = os.fsync

    def recording_fsync(fd):
        inodes.add(_inode(os.fstat(fd)))
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    return inodes


def unsynced_files(root, synced):
    return sorted(
        path.relative_to(root).as_posix()
        for path in root.rglob("*")
        if path.is_file() and _inode(path.stat()) not in synced
    )


def feed(engine, rng, steps):
    for _ in range(steps):
        engine.stream_update_many(rng.integers(0, 10**6, 300))
        engine.end_time_step()
    engine.stream_update_many(rng.integers(0, 10**6, 50))


class TestCheckpointStage:
    @pytest.fixture(autouse=True)
    def reset_crash_hook(self):
        yield
        checkpoint_module.crash_hook = None

    def save_checking_stage(self, engine, directory, synced):
        """Save, listing the staged files not fsynced at the commit."""
        found = []

        def hook(point):
            if point == "staged":
                stage = checkpoint_module.stage_path(directory)
                found.append(unsynced_files(stage, synced))

        checkpoint_module.crash_hook = hook
        save_engine(engine, directory)
        checkpoint_module.crash_hook = None
        (unsynced,) = found
        return unsynced

    def test_every_staged_file_is_synced_before_commit(
        self, tmp_path, synced
    ):
        rng = np.random.default_rng(3)
        config = EngineConfig(epsilon=0.05, kappa=3, block_elems=64)
        with HybridQuantileEngine(config=config) as engine:
            feed(engine, rng, 4)
            directory = tmp_path / "ckpt"
            assert self.save_checking_stage(engine, directory, synced) == []

    def test_copied_partitions_are_synced_before_commit(
        self, tmp_path, synced, monkeypatch
    ):
        rng = np.random.default_rng(5)
        config = EngineConfig(epsilon=0.05, kappa=3, block_elems=64)
        links = []

        def no_link(source, target):
            links.append(target)
            raise OSError("hard links unsupported")

        with HybridQuantileEngine(config=config) as engine:
            feed(engine, rng, 4)
            directory = tmp_path / "ckpt"
            save_engine(engine, directory)
            feed(engine, rng, 1)
            # Unchanged partitions are reused: copied, as no link works.
            monkeypatch.setattr(os, "link", no_link)
            assert self.save_checking_stage(engine, directory, synced) == []
        assert links


class TestWalFloor:
    def test_truncation_syncs_the_floor(self, tmp_path, synced):
        directory = tmp_path / "wal"
        with WriteAheadLog(directory, segment_bytes=256) as wal:
            for step in range(6):
                wal.append_batch(np.arange(40, dtype=np.int64) + step)
                wal.append_seal(step)
            # Every segment goes; only the floor keeps the LSNs monotone.
            assert wal.truncate(wal.last_lsn) > 0
        assert [p.name for p in directory.iterdir()] == ["wal.floor"]
        assert unsynced_files(directory, synced) == []
