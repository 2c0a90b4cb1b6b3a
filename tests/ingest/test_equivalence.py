"""Background ingest must be bit-identical to the synchronous path.

The acceptance bar for the ingest pipeline: after ``flush()``, a
background-mode engine agrees with a sync-mode engine fed the same
stream on *everything* observable — query answers, per-step and global
I/O counters (including the per-phase split), the leveled layout, and
the structural invariants — across merge thresholds and both compaction
policies.
"""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import HybridQuantileEngine


def drive(mode, kappa, compaction, steps=14, batch=400, seed=7):
    config = EngineConfig(
        epsilon=0.01,
        kappa=kappa,
        block_elems=64,
        compaction=compaction,
        ingest_mode=mode,
    )
    engine = HybridQuantileEngine(config=config)
    rng = np.random.default_rng(seed)
    reports = []
    for _ in range(steps):
        engine.stream_update_many(rng.integers(0, 10**6, size=batch))
        for value in rng.integers(0, 10**6, size=3):
            engine.stream_update(int(value))
        reports.append(engine.end_time_step())
    flushed = engine.flush()
    if mode == "background":
        reports = flushed
    else:
        assert flushed == []
    engine.stream_update_many(rng.integers(0, 10**6, size=50))
    return engine, reports


def comparable(report):
    return (
        report.step,
        report.batch_elems,
        report.io_total,
        report.io_load,
        report.io_sort,
        report.io_merge,
        report.merged_levels,
    )


@pytest.mark.parametrize("compaction", ["tiered", "leveled"])
@pytest.mark.parametrize("kappa", [3, 10, 20])
class TestSyncBackgroundEquivalence:
    def test_bit_identical_after_flush(self, kappa, compaction):
        sync, sync_reports = drive("sync", kappa, compaction)
        back, back_reports = drive("background", kappa, compaction)
        try:
            # per-step reports: same steps, same I/O, same merges
            assert list(map(comparable, sync_reports)) == list(
                map(comparable, back_reports)
            )
            # every flushed report is authoritative
            assert all(r.archived for r in back_reports)

            # global counters, including the per-phase buckets
            for bucket in ("counters", "load", "sort", "merge", "query"):
                assert getattr(sync.disk.stats, bucket) == getattr(
                    back.disk.stats, bucket
                ), bucket

            # identical layout
            def layout(engine):
                return [
                    (p.level, p.start_step, p.end_step, len(p))
                    for p in engine.store.partitions()
                ]

            assert layout(sync) == layout(back)
            assert sync.n_historical == back.n_historical
            assert sync.steps_loaded == back.steps_loaded

            # identical answers, both modes, assorted scopes
            for phi in (0.05, 0.25, 0.5, 0.75, 0.95):
                for mode in ("quick", "accurate"):
                    a = sync.quantile(phi, mode=mode)
                    b = back.quantile(phi, mode=mode)
                    assert a.value == b.value, (phi, mode)
                    assert a.disk_accesses == b.disk_accesses

            assert (
                sync.available_window_sizes() == back.available_window_sizes()
            )
            for window in sync.available_window_sizes():
                assert (
                    sync.quantile(0.5, window_steps=window).value
                    == back.quantile(0.5, window_steps=window).value
                )

            assert sync.aggregate() == back.aggregate()

            sync.check_invariants()
            back.check_invariants()
        finally:
            sync.close()
            back.close()


class TestFlushSemantics:
    def test_flush_on_sync_engine_is_noop(self):
        engine = HybridQuantileEngine(epsilon=0.01, kappa=3, block_elems=64)
        engine.stream_update_many(np.arange(100))
        engine.end_time_step()
        assert engine.flush() == []
        assert engine.ingest_stats is None

    def test_provisional_reports_then_authoritative(self):
        config = EngineConfig(
            epsilon=0.01, kappa=3, block_elems=64, ingest_mode="background"
        )
        engine = HybridQuantileEngine(config=config)
        try:
            rng = np.random.default_rng(0)
            provisional = []
            for _ in range(5):
                engine.stream_update_many(rng.integers(0, 1000, size=200))
                provisional.append(engine.end_time_step())
            assert all(not r.archived for r in provisional)
            assert all(r.io_total == 0 for r in provisional)
            flushed = engine.flush()
            assert [r.step for r in flushed] == [1, 2, 3, 4, 5]
            assert all(r.archived for r in flushed)
            assert sum(r.io_total for r in flushed) > 0
            # a second flush has nothing left to report
            assert engine.flush() == []
            stats = engine.ingest_stats
            assert stats is not None
            assert stats.batches_archived == 5
            assert stats.archive_wall_seconds > 0.0
        finally:
            engine.close()

    def test_close_archives_everything(self):
        config = EngineConfig(
            epsilon=0.01, kappa=3, block_elems=64, ingest_mode="background"
        )
        engine = HybridQuantileEngine(config=config)
        rng = np.random.default_rng(1)
        for _ in range(4):
            engine.stream_update_many(rng.integers(0, 1000, size=100))
            engine.end_time_step()
        engine.close()
        assert engine.store.steps_loaded == 4
        engine.store.check_invariant()
