"""Crash-recovery harness for the atomic checkpoint protocol.

Kills a ``save_engine`` at every named crash point (via the
``repro.storage.fsutil.crash_hook`` test seam) and asserts the reloaded engine answers
exactly as either the previous or the new checkpoint — never a torn
mixture — and that the directory tree is left clean.  Runs under a
seed matrix in the dedicated CI job (``-m faults``).
"""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import HybridQuantileEngine
from repro.persistence import (
    PersistenceError,
    SimulatedCrash,
    load_engine,
    recover_checkpoint,
    save_engine,
)
from repro.persistence.checkpoint import CRASH_POINTS
from repro.storage import fsutil

pytestmark = pytest.mark.faults

SEED = int(__import__("os").environ.get("FAULTS_SEED", "0"))


def build_engine(rng, steps=6, batch=300, live=50):
    engine = HybridQuantileEngine(
        config=EngineConfig(epsilon=0.05, kappa=3, block_elems=64)
    )
    for _ in range(steps):
        engine.stream_update_many(rng.integers(0, 10**6, batch))
        engine.end_time_step()
    if live:
        engine.stream_update_many(rng.integers(0, 10**6, live))
    return engine


def fingerprint(engine):
    """Everything a restored engine must reproduce exactly."""
    return (
        engine.n_total,
        engine.n_historical,
        engine.m_stream,
        engine.steps_loaded,
        [
            (p.level, p.start_step, p.end_step, len(p))
            for p in engine.store.partitions()
        ],
        [engine.quantile(phi, mode="quick").value
         for phi in (0.1, 0.5, 0.9)],
        [engine.quantile(phi, mode="accurate").value
         for phi in (0.1, 0.5, 0.9)],
    )


@pytest.fixture(autouse=True)
def reset_crash_hook():
    yield
    fsutil.crash_hook = None


def crash_at(point):
    def hook(reached):
        if reached == point:
            raise SimulatedCrash(point)

    fsutil.crash_hook = hook


@pytest.mark.parametrize("point", CRASH_POINTS)
class TestKillPoints:
    def test_recovery_restores_old_or_new_exactly(self, tmp_path, point):
        rng = np.random.default_rng(SEED)
        directory = tmp_path / "ckpt"
        engine = build_engine(rng)
        save_engine(engine, directory)
        old_print = fingerprint(load_engine(directory))
        engine.stream_update_many(rng.integers(0, 10**6, 400))
        engine.end_time_step()
        new_print = fingerprint(engine)
        assert new_print != old_print
        crash_at(point)
        with pytest.raises(SimulatedCrash):
            save_engine(engine, directory)
        fsutil.crash_hook = None
        restored = load_engine(directory)
        got = fingerprint(restored)
        # The protocol commits at the stage->directory rename: crashes
        # before it must roll back, crashes at/after it roll forward.
        expected = (
            new_print if point in ("retired-old", "promoted") else old_print
        )
        assert got == expected
        # Recovery leaves no staging debris behind.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt"]
        restored.close()
        engine.close()

    def test_recovery_is_idempotent(self, tmp_path, point):
        rng = np.random.default_rng(SEED)
        directory = tmp_path / "ckpt"
        engine = build_engine(rng, steps=3)
        save_engine(engine, directory)
        engine.stream_update_many(rng.integers(0, 10**6, 200))
        engine.end_time_step()
        crash_at(point)
        with pytest.raises(SimulatedCrash):
            save_engine(engine, directory)
        fsutil.crash_hook = None
        first = recover_checkpoint(directory)
        second = recover_checkpoint(directory)
        assert first == second == directory
        load_engine(directory).close()
        engine.close()


class TestFirstSaveCrash:
    def test_crash_before_commit_leaves_nothing_loadable(self, tmp_path):
        """With no previous checkpoint a pre-commit crash means there
        is nothing to restore — load raises a typed error rather than
        inventing state."""
        rng = np.random.default_rng(SEED)
        directory = tmp_path / "ckpt"
        engine = build_engine(rng, steps=2)
        crash_at("mid-stage")
        with pytest.raises(SimulatedCrash):
            save_engine(engine, directory)
        fsutil.crash_hook = None
        with pytest.raises(PersistenceError):
            load_engine(directory)
        engine.close()

    def test_crash_after_commit_is_recoverable(self, tmp_path):
        rng = np.random.default_rng(SEED)
        directory = tmp_path / "ckpt"
        engine = build_engine(rng, steps=2)
        crash_at("promoted")
        with pytest.raises(SimulatedCrash):
            save_engine(engine, directory)
        fsutil.crash_hook = None
        restored = load_engine(directory)
        assert fingerprint(restored) == fingerprint(engine)
        restored.close()
        engine.close()


class TestDoubleCrash:
    def test_crashed_save_then_crashed_save(self, tmp_path):
        """A save that crashes over the debris of an earlier crashed
        save still leaves a recoverable tree."""
        rng = np.random.default_rng(SEED)
        directory = tmp_path / "ckpt"
        engine = build_engine(rng, steps=3)
        save_engine(engine, directory)
        old_print = fingerprint(load_engine(directory))
        engine.stream_update_many(rng.integers(0, 10**6, 200))
        engine.end_time_step()
        crash_at("staged")
        with pytest.raises(SimulatedCrash):
            save_engine(engine, directory)
        crash_at("mid-stage")
        with pytest.raises(SimulatedCrash):
            save_engine(engine, directory)
        fsutil.crash_hook = None
        assert fingerprint(load_engine(directory)) == old_print
        engine.close()
