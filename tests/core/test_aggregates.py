"""Tests for exact aggregate queries."""

import threading
import time

import numpy as np
import pytest

from repro import HybridQuantileEngine
from repro.core.aggregates import AggregateStats, combine


class TestAggregateStats:
    def test_of_array(self):
        stats = AggregateStats.of_array(np.asarray([3, 1, 4, 1, 5]))
        assert stats.count == 5
        assert stats.total == 14
        assert stats.minimum == 1
        assert stats.maximum == 5
        assert stats.mean == pytest.approx(2.8)

    def test_empty(self):
        stats = AggregateStats.empty()
        assert stats.count == 0
        assert stats.mean != stats.mean  # NaN

    def test_merge(self):
        a = AggregateStats.of_array(np.asarray([1, 2]))
        b = AggregateStats.of_array(np.asarray([10]))
        merged = a.merge(b)
        assert merged.count == 3
        assert merged.total == 13
        assert merged.minimum == 1
        assert merged.maximum == 10

    def test_merge_with_empty(self):
        a = AggregateStats.of_array(np.asarray([1, 2]))
        assert a.merge(AggregateStats.empty()) == a
        assert AggregateStats.empty().merge(a) == a

    def test_combine(self):
        parts = [
            AggregateStats.of_array(np.asarray([i, i + 1]))
            for i in range(5)
        ]
        total = combine(parts)
        assert total.count == 10
        assert total.total == sum(i + i + 1 for i in range(5))


class TestEngineAggregates:
    def _build(self, rng, steps=7, batch=1000, kappa=2):
        engine = HybridQuantileEngine(
            epsilon=0.05, kappa=kappa, block_elems=16
        )
        step_data = []
        for _ in range(steps):
            data = rng.integers(0, 10**6, batch)
            step_data.append(data)
            engine.stream_update_many(data)
            engine.end_time_step()
        live = rng.integers(0, 10**6, batch)
        engine.stream_update_many(live)
        return engine, step_data, live

    def test_full_union_exact(self, rng):
        engine, step_data, live = self._build(rng)
        everything = np.concatenate(step_data + [live])
        stats = engine.aggregate()
        assert stats.count == len(everything)
        assert stats.total == int(everything.sum())
        assert stats.minimum == int(everything.min())
        assert stats.maximum == int(everything.max())
        assert stats.mean == pytest.approx(everything.mean())

    def test_window_exact(self, rng):
        engine, step_data, live = self._build(rng)
        scoped = np.concatenate([step_data[-1], live])
        stats = engine.aggregate(window_steps=1)
        assert stats.count == len(scoped)
        assert stats.total == int(scoped.sum())

    def test_step_range_exact_excludes_stream(self, rng):
        engine, step_data, live = self._build(rng)
        scoped = np.concatenate(step_data[4:6])  # partitions (5-6)
        stats = engine.aggregate(step_range=(5, 6))
        assert stats.count == len(scoped)
        assert stats.total == int(scoped.sum())
        assert stats.maximum == int(scoped.max())

    def test_no_disk_accesses(self, rng):
        engine, *_ = self._build(rng)
        before = engine.disk.stats.counters.total
        engine.aggregate()
        engine.aggregate(window_steps=1)
        assert engine.disk.stats.counters.total == before

    def test_survives_merges(self, rng):
        """Merged partitions carry correct merged stats."""
        engine, step_data, live = self._build(rng, steps=9, kappa=2)
        merged = [p for p in engine.store.partitions() if p.num_steps > 1]
        assert merged, "expected at least one merged partition"
        for partition in merged:
            assert partition.stats.count == len(partition)

    def test_stream_only(self, rng):
        engine = HybridQuantileEngine(epsilon=0.05, kappa=2, block_elems=16)
        data = rng.integers(0, 100, 500)
        engine.stream_update_many(data)
        stats = engine.aggregate()
        assert stats.count == 500
        assert stats.total == int(data.sum())

    def test_single_updates_tracked(self):
        engine = HybridQuantileEngine(epsilon=0.1)
        for v in (5, 3, 8):
            engine.stream_update(v)
        stats = engine.aggregate()
        assert (stats.count, stats.total, stats.minimum, stats.maximum) == (
            3, 16, 3, 8
        )

    def test_mutually_exclusive_scopes(self, rng):
        engine, *_ = self._build(rng)
        with pytest.raises(ValueError):
            engine.aggregate(window_steps=1, step_range=(1, 4))

    @pytest.mark.parametrize("window_steps", [None, 2])
    def test_aggregate_never_sees_a_batch_in_neither_place(
        self, rng, window_steps
    ):
        """A seal moves a batch from the stream into the warehouse; an
        aggregate racing it waits for the seal, as a ``pin()`` would."""
        engine = HybridQuantileEngine(epsilon=0.05, kappa=10, block_elems=16)
        steps = [rng.integers(0, 10**6, size) for size in (400, 600, 500)]
        for data in steps[:2]:
            engine.stream_update_many(data)
            engine.end_time_step()
        engine.stream_update_many(steps[2])
        stage_partition = engine.store.stage_partition
        readers, seen = [], []

        def racing_stage(*args, **kwargs):
            # Mid-seal: the stream aggregates are already reset and the
            # partition is not in the layout yet.
            reader = threading.Thread(
                target=lambda: seen.append(
                    engine.aggregate(window_steps=window_steps)
                )
            )
            reader.start()
            readers.append(reader)
            time.sleep(0.1)
            return stage_partition(*args, **kwargs)

        engine.store.stage_partition = racing_stage
        engine.end_time_step()
        for reader in readers:
            reader.join(timeout=30)
            assert not reader.is_alive()
        # Read after the seal, a window of 2 is the last two steps.
        covered = np.concatenate(
            steps if window_steps is None else steps[-window_steps:]
        )
        (stats,) = seen
        assert (stats.count, stats.total, stats.minimum, stats.maximum) == (
            len(covered),
            int(covered.sum()),
            int(covered.min()),
            int(covered.max()),
        )
