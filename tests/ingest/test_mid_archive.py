"""Queries must stay correct while batches are still being archived.

These tests freeze the archiver (``pause``) so sealed batches sit in
the pending set, then check that every query path — rank queries,
windows, aggregates, snapshots, accounting — covers the full union of
adopted, pending and live data.
"""

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import HybridQuantileEngine
from repro.core.windows import WindowNotAlignedError


def exact_rank(values, answer):
    return int(np.count_nonzero(np.sort(values) <= answer))


@pytest.fixture
def paused_engine():
    config = EngineConfig(
        epsilon=0.01,
        kappa=3,
        block_elems=64,
        ingest_mode="background",
    )
    engine = HybridQuantileEngine(config=config)
    rng = np.random.default_rng(3)
    everything = []
    # four steps archived normally
    for _ in range(4):
        batch = rng.integers(0, 10**6, size=500)
        everything.append(batch)
        engine.stream_update_many(batch)
        engine.end_time_step()
    engine.flush()
    # three steps sealed but frozen in the pending queue
    engine._ensure_archiver().pause()
    for _ in range(3):
        batch = rng.integers(0, 10**6, size=500)
        everything.append(batch)
        engine.stream_update_many(batch)
        engine.end_time_step()
    # plus a live stream tail
    tail = rng.integers(0, 10**6, size=200)
    everything.append(tail)
    engine.stream_update_many(tail)
    yield engine, np.concatenate(everything)
    engine._ensure_archiver().resume()
    engine.close()


class TestMidArchiveQueries:
    def test_accounting_covers_pending(self, paused_engine):
        engine, union = paused_engine
        assert engine._ensure_archiver().queue_depth == 3
        assert engine.n_historical == 7 * 500
        assert engine.m_stream == 200
        assert engine.n_total == union.size
        assert engine.steps_loaded == 4
        assert engine.steps_sealed == 7

    def test_rank_queries_cover_full_union(self, paused_engine):
        engine, union = paused_engine
        n = union.size
        for phi in (0.1, 0.5, 0.9):
            for mode in ("quick", "accurate"):
                result = engine.quantile(phi, mode=mode)
                assert result.total_size == n
                achieved = exact_rank(union, result.value)
                bound = (
                    engine.config.epsilon * n
                    if mode == "quick"
                    else engine.config.epsilon * engine.m_stream
                    + engine.config.epsilon * n * 0.5
                )
                # generous slack over the analytic bound; mainly this
                # guards against missing/double-counting a pending batch,
                # which would shift ranks by ~500
                assert abs(achieved - result.target_rank) <= max(
                    bound, 0.05 * n
                ), (phi, mode)

    def test_window_over_pending_steps(self, paused_engine):
        engine, union = paused_engine
        sizes = engine.available_window_sizes()
        # windows ending at the last *sealed* step exist mid-archive
        assert 1 in sizes and 3 in sizes
        result = engine.quantile(0.5, window_steps=3)
        # last three sealed steps (all pending) + live stream
        assert result.total_size == 3 * 500 + 200
        window_union = union[-(3 * 500 + 200):]
        achieved = exact_rank(window_union, result.value)
        assert abs(achieved - result.target_rank) <= 0.05 * window_union.size

    def test_unaligned_window_lists_pending_sizes(self, paused_engine):
        engine, _ = paused_engine
        # 5 steps would split the merged [1-3] partition
        with pytest.raises(WindowNotAlignedError) as excinfo:
            engine.quantile(0.5, window_steps=5)
        assert 3 in excinfo.value.available

    def test_range_over_pending_steps(self, paused_engine):
        engine, union = paused_engine
        result = engine.quantile(0.5, step_range=(5, 7))
        assert result.total_size == 3 * 500
        segment = union[4 * 500 : 7 * 500]
        achieved = exact_rank(segment, result.value)
        assert abs(achieved - result.target_rank) <= 0.05 * segment.size

    def test_aggregate_full_union_without_staging_io(self, paused_engine):
        engine, union = paused_engine
        before = engine.disk.stats.counters.snapshot()
        stats = engine.aggregate()
        assert engine.disk.stats.counters.delta_since(before).total == 0
        assert stats.count == union.size
        assert stats.total == int(union.sum())
        assert stats.minimum == int(union.min())
        assert stats.maximum == int(union.max())

    def test_windowed_aggregate_is_exact(self, paused_engine):
        engine, union = paused_engine
        stats = engine.aggregate(window_steps=3)
        segment = np.concatenate([union[-(3 * 500 + 200) : -200], union[-200:]])
        assert stats.count == segment.size
        assert stats.total == int(segment.sum())

    def test_snapshot_pins_pending(self, paused_engine):
        engine, union = paused_engine
        view = engine.pin()
        assert view.n_total == union.size
        assert view.created_at_step == 7
        result = view.quantile(0.5)
        achieved = exact_rank(union, result.value)
        assert abs(achieved - result.target_rank) <= 0.05 * union.size

    def test_invariants_hold_mid_archive(self, paused_engine):
        engine, _ = paused_engine
        engine.check_invariants()

    def test_resume_then_flush_matches_sync_totals(self, paused_engine):
        engine, union = paused_engine
        engine._ensure_archiver().resume()
        reports = engine.flush()
        assert [r.step for r in reports] == [5, 6, 7]
        assert engine.steps_loaded == 7
        engine.check_invariants()
        result = engine.quantile(0.5)
        achieved = exact_rank(union, result.value)
        assert abs(achieved - result.target_rank) <= 0.05 * union.size


class TestConcurrentQueries:
    def test_queries_while_archiving(self):
        """Hammer quantile queries while the archiver churns for real."""
        config = EngineConfig(
            epsilon=0.01,
            kappa=3,
            block_elems=64,
            ingest_mode="background",
        )
        engine = HybridQuantileEngine(config=config)
        rng = np.random.default_rng(11)
        seen = []
        try:
            for _ in range(20):
                batch = rng.integers(0, 10**6, size=1000)
                seen.append(batch)
                engine.stream_update_many(batch)
                engine.end_time_step()
                result = engine.quantile(0.5)
                union = np.concatenate(seen)
                assert result.total_size == union.size
                achieved = exact_rank(union, result.value)
                assert (
                    abs(achieved - result.target_rank) <= 0.05 * union.size
                )
            engine.flush()
            engine.check_invariants()
        finally:
            engine.close()
