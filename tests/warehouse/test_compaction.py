"""Tests for the leveled compaction policy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.windows import resolve_window_in, window_sizes_from
from repro.storage import SimulatedDisk
from repro.warehouse import LeveledCompactionStore, LeveledStore


def make_store(kappa=3, block_elems=10):
    disk = SimulatedDisk(block_elems=block_elems)
    return disk, LeveledCompactionStore(disk, kappa=kappa)


def batch(step, size=100):
    return np.full(size, step, dtype=np.int64)


class TestLeveledCompaction:
    def test_one_partition_per_deep_level(self):
        disk, store = make_store(kappa=3)
        for s in range(1, 30):
            store.add_batch(batch(s))
            store.check_invariant()
            for level_index in range(1, store.num_levels):
                assert len(store.level(level_index)) <= 1

    def test_level0_buffers_up_to_kappa(self):
        disk, store = make_store(kappa=3)
        for s in range(1, 4):
            store.add_batch(batch(s))
        assert len(store.level(0)) == 3

    def test_merge_into_resident(self):
        disk, store = make_store(kappa=2)
        for s in range(1, 6):
            store.add_batch(batch(s))
        # steps 1-2 merged to L1; steps 3-4 merged INTO it -> (1-4)
        assert [(p.start_step, p.end_step) for p in store.level(1)] == [
            (1, 4)
        ]
        assert [p.start_step for p in store.level(0)] == [5]

    def test_data_preserved(self):
        disk, store = make_store(kappa=2)
        total = []
        for s in range(1, 12):
            data = np.arange(s * 10, s * 10 + 25)
            total.append(data)
            store.add_batch(data, step=s)
        stored = np.sort(
            np.concatenate([p.run.values for p in store.partitions()])
        )
        np.testing.assert_array_equal(stored, np.sort(np.concatenate(total)))

    def test_fewer_partitions_than_tiered(self):
        rng = np.random.default_rng(0)
        counts = {}
        for cls in (LeveledStore, LeveledCompactionStore):
            disk = SimulatedDisk(block_elems=10)
            store = cls(disk, kappa=4)
            for s in range(1, 60):
                store.add_batch(rng.integers(0, 1000, 100), step=s)
            counts[cls.__name__] = store.partition_count()
        assert (
            counts["LeveledCompactionStore"] <= counts["LeveledStore"]
        )

    def test_more_update_io_than_tiered(self):
        """Leveled compaction's write amplification."""
        totals = {}
        for cls in (LeveledStore, LeveledCompactionStore):
            disk = SimulatedDisk(block_elems=10)
            store = cls(disk, kappa=3)
            for s in range(1, 50):
                store.add_batch(np.zeros(100, dtype=np.int64), step=s)
            totals[cls.__name__] = disk.stats.counters.total
        assert (
            totals["LeveledCompactionStore"] >= totals["LeveledStore"]
        )

    def test_windows_still_available(self):
        disk, store = make_store(kappa=2)
        for s in range(1, 8):
            store.add_batch(batch(s))
        sizes = window_sizes_from(store.partitions())
        assert sizes[-1] == 7
        for size in sizes:
            resolve_window_in(store.partitions(), size)

    def test_engine_integration(self):
        from repro import EngineConfig, ExactQuantiles, HybridQuantileEngine

        config = EngineConfig(
            epsilon=0.05, kappa=3, block_elems=16, compaction="leveled"
        )
        engine = HybridQuantileEngine(config=config)
        rng = np.random.default_rng(7)
        oracle = ExactQuantiles()
        for _ in range(9):
            data = rng.integers(0, 10**6, 1000)
            oracle.update_many(data)
            engine.stream_update_many(data)
            engine.end_time_step()
        live = rng.integers(0, 10**6, 1000)
        oracle.update_many(live)
        engine.stream_update_many(live)
        engine.check_invariants()
        result = engine.quantile(0.5)
        high = oracle.rank(result.value)
        low = oracle.rank_strict(result.value) + 1
        err = max(0, low - result.target_rank, result.target_rank - high)
        assert err <= 1.5 * 0.05 * 1000 + 2

    def test_config_rejects_unknown_policy(self):
        from repro import EngineConfig

        with pytest.raises(ValueError):
            EngineConfig(epsilon=0.1, compaction="mystery")


class TestCompactionProperty:
    @given(kappa=st.integers(2, 4), steps=st.integers(1, 45))
    @settings(max_examples=30, deadline=None)
    def test_invariants_any_schedule(self, kappa, steps):
        disk = SimulatedDisk(block_elems=7)
        store = LeveledCompactionStore(disk, kappa=kappa)
        for s in range(1, steps + 1):
            store.add_batch(np.full(11, s, dtype=np.int64), step=s)
        store.check_invariant()
        assert sum(map(len, store.partitions())) == steps * 11
        resolve_window_in(store.partitions(), steps)
