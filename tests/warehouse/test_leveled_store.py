"""Tests for HD, the leveled partition store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import SimulatedDisk
from repro.warehouse import LeveledStore
from repro.warehouse.leveled_store import window_from, window_sizes_from


def make_store(kappa=3, block_elems=10):
    disk = SimulatedDisk(block_elems=block_elems)
    return disk, LeveledStore(disk, kappa=kappa)


def batch(step, size=100):
    return np.full(size, step, dtype=np.int64)


class TestBasics:
    def test_rejects_small_kappa(self):
        disk = SimulatedDisk()
        with pytest.raises(ValueError):
            LeveledStore(disk, kappa=1)

    def test_add_creates_level0_partition(self):
        disk, store = make_store()
        p = store.add_batch(batch(1))
        assert p.level == 0
        assert p.start_step == p.end_step == 1
        assert store.partition_count() == 1

    def test_batch_is_sorted(self):
        disk, store = make_store()
        p = store.add_batch(np.asarray([5, 1, 3]))
        np.testing.assert_array_equal(p.run.values, [1, 3, 5])

    def test_auto_step_numbering(self):
        disk, store = make_store()
        store.add_batch(batch(1))
        p = store.add_batch(batch(2))
        assert p.start_step == 2
        assert store.steps_loaded == 2

    def test_total_elements(self):
        disk, store = make_store()
        for s in range(1, 4):
            store.add_batch(batch(s, size=50))
        assert store.total_elements() == 150


class TestMergeSemantics:
    def test_level_never_exceeds_kappa(self):
        disk, store = make_store(kappa=3)
        for s in range(1, 30):
            store.add_batch(batch(s))
            store.check_invariant()
            for level_idx in range(store.num_levels):
                assert len(store.level(level_idx)) <= 3

    def test_merge_before_add(self):
        # kappa=2: steps 1,2 fill level 0; step 3 first merges (1,2)
        # up, then adds 3 at level 0.
        disk, store = make_store(kappa=2)
        for s in range(1, 4):
            store.add_batch(batch(s))
        level0 = store.level(0)
        level1 = store.level(1)
        assert [p.start_step for p in level0] == [3]
        assert [(p.start_step, p.end_step) for p in level1] == [(1, 2)]

    def test_cascade_merges_upward(self):
        # kappa=2: level 1 fills with (1,2), (3,4); arrival of step 7
        # (level 0 holding 5,6) cascades: level1 -> level2 first.
        disk, store = make_store(kappa=2)
        for s in range(1, 8):
            store.add_batch(batch(s))
        assert [(p.start_step, p.end_step) for p in store.level(2)] == [(1, 4)]
        assert [(p.start_step, p.end_step) for p in store.level(1)] == [(5, 6)]
        assert [p.start_step for p in store.level(0)] == [7]

    def test_partitions_chronological(self):
        disk, store = make_store(kappa=3)
        for s in range(1, 20):
            store.add_batch(batch(s))
        ordered = store.partitions()
        starts = [p.start_step for p in ordered]
        ends = [p.end_step for p in ordered]
        assert starts[0] == 1
        assert ends[-1] == 19
        for prev_end, nxt_start in zip(ends, starts[1:]):
            assert nxt_start == prev_end + 1

    def test_merged_data_preserved(self):
        disk, store = make_store(kappa=2)
        total = []
        for s in range(1, 10):
            data = np.arange(s * 10, s * 10 + 20)
            total.append(data)
            store.add_batch(data, step=s)
        stored = np.sort(
            np.concatenate([p.run.values for p in store.partitions()])
        )
        np.testing.assert_array_equal(stored, np.sort(np.concatenate(total)))

    def test_figure8_disk_access_pattern_kappa9(self):
        """The paper's Figure 8 counts, reproduced exactly.

        kappa=9, batches of 10 000 blocks: 89 plain steps at 10K
        accesses, 10 steps with a level-0 merge at 190K, and one step
        with a double merge at 1810K.
        """
        disk = SimulatedDisk(block_elems=10)
        store = LeveledStore(disk, kappa=9)
        counts = {}
        for s in range(1, 101):
            before = disk.stats.counters.snapshot()
            store.add_batch(np.zeros(100_000, dtype=np.int64), step=s)
            total = disk.stats.counters.delta_since(before).total
            counts[total] = counts.get(total, 0) + 1
        assert counts == {10_000: 89, 190_000: 10, 1_810_000: 1}

    def test_figure8_disk_access_pattern_kappa7(self):
        """kappa=7: the paper reports a 1130K double-merge step."""
        disk = SimulatedDisk(block_elems=10)
        store = LeveledStore(disk, kappa=7)
        totals = []
        for s in range(1, 101):
            before = disk.stats.counters.snapshot()
            store.add_batch(np.zeros(100_000, dtype=np.int64), step=s)
            totals.append(disk.stats.counters.delta_since(before).total)
        assert max(totals) == 1_130_000
        assert totals.count(10_000) > 80

    def test_merge_io_is_one_pass(self):
        disk, store = make_store(kappa=2, block_elems=10)
        store.add_batch(np.zeros(100), step=1)  # 10 blocks
        store.add_batch(np.zeros(100), step=2)
        before = disk.stats.counters.snapshot()
        store.add_batch(np.zeros(100), step=3)  # merges (1,2) first
        delta = disk.stats.counters.delta_since(before)
        # merge: read 20 + write 20; add: write 10
        assert delta.sequential_reads == 20
        assert delta.sequential_writes == 30


class TestSummaryBuilder:
    def test_builder_called_for_every_partition(self):
        disk = SimulatedDisk(block_elems=10)
        seen = []
        store = LeveledStore(
            disk, kappa=2, summary_builder=lambda p: seen.append(p) or len(p)
        )
        for s in range(1, 4):
            store.add_batch(batch(s, size=10))
        # three level-0 partitions plus one merged partition
        assert len(seen) == 4
        for p in store.partitions():
            assert p.summary == len(p)


class TestWindows:
    def test_window_sizes_are_suffix_sums(self):
        disk, store = make_store(kappa=2)
        for s in range(1, 8):
            store.add_batch(batch(s))
        # partitions: (1-4) at L2, (5-6) at L1, (7) at L0
        assert window_sizes_from(store.partitions()) == [1, 3, 7]

    def test_window_partitions_aligned(self):
        disk, store = make_store(kappa=2)
        for s in range(1, 8):
            store.add_batch(batch(s))
        window = window_from(store.partitions(), store.steps_loaded, 3)
        assert [(p.start_step, p.end_step) for p in window] == [(5, 6), (7, 7)]

    def test_window_partitions_unaligned_returns_none(self):
        disk, store = make_store(kappa=2)
        for s in range(1, 8):
            store.add_batch(batch(s))
        assert window_from(store.partitions(), store.steps_loaded, 2) is None
        assert window_from(store.partitions(), store.steps_loaded, 4) is None

    def test_window_zero_is_empty(self):
        disk, store = make_store()
        store.add_batch(batch(1))
        assert window_from(store.partitions(), store.steps_loaded, 0) == []

    def test_window_larger_than_history(self):
        disk, store = make_store()
        store.add_batch(batch(1))
        assert window_from(store.partitions(), store.steps_loaded, 5) is None

    def test_full_window_always_available(self):
        disk, store = make_store(kappa=2)
        for s in range(1, 12):
            store.add_batch(batch(s))
        window = window_from(store.partitions(), store.steps_loaded, 11)
        assert window is not None
        assert sum(p.num_steps for p in window) == 11


class TestStoreProperty:
    @given(
        kappa=st.integers(2, 5),
        steps=st.integers(1, 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold_for_any_schedule(self, kappa, steps):
        disk = SimulatedDisk(block_elems=7)
        store = LeveledStore(disk, kappa=kappa)
        for s in range(1, steps + 1):
            store.add_batch(np.full(13, s, dtype=np.int64), step=s)
        store.check_invariant()
        assert store.total_elements() == steps * 13
        # full-history window is always aligned
        assert (
            window_from(store.partitions(), store.steps_loaded, steps)
            is not None
        )
        # window sizes are strictly increasing suffix sums ending at steps
        sizes = window_sizes_from(store.partitions())
        assert sizes == sorted(sizes)
        assert sizes[-1] == steps
