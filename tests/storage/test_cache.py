"""Tests for the per-query block cache."""

import threading

from repro.storage import BlockCache, SimulatedDisk


class TestBlockCache:
    def test_first_touch_charges(self):
        disk = SimulatedDisk()
        cache = BlockCache(disk)
        cache.touch(1, 0)
        assert disk.stats.counters.random_reads == 1
        assert cache.blocks_charged == 1

    def test_repeat_touch_free(self):
        disk = SimulatedDisk()
        cache = BlockCache(disk)
        cache.touch(1, 0)
        cache.touch(1, 0)
        assert disk.stats.counters.random_reads == 1

    def test_distinct_runs_charged_separately(self):
        disk = SimulatedDisk()
        cache = BlockCache(disk)
        cache.touch(1, 0)
        cache.touch(2, 0)
        assert disk.stats.counters.random_reads == 2

    def test_disabled_cache_charges_every_touch(self):
        disk = SimulatedDisk()
        cache = BlockCache(disk, enabled=False)
        cache.touch(1, 0)
        cache.touch(1, 0)
        cache.touch(1, 0)
        assert disk.stats.counters.random_reads == 3

    def test_touch_range(self):
        disk = SimulatedDisk()
        cache = BlockCache(disk)
        cache.touch_range(1, 2, 5)
        assert disk.stats.counters.random_reads == 4
        cache.touch_range(1, 4, 6)  # 4, 5 already cached
        assert disk.stats.counters.random_reads == 5

    def test_touch_range_partial_hits_charge_only_misses(self):
        # Blocks 3 and 5 cached; requesting 2..6 must charge exactly
        # the holes (2, 4, 6), never the resident blocks.
        disk = SimulatedDisk()
        cache = BlockCache(disk)
        cache.touch(1, 3)
        cache.touch(1, 5)
        assert disk.stats.counters.random_reads == 2
        charged = cache.touch_range(1, 2, 6)
        assert charged == 3
        assert disk.stats.counters.random_reads == 5
        # The whole range is now resident: a re-request is free.
        assert cache.touch_range(1, 2, 6) == 0
        assert disk.stats.counters.random_reads == 5

    def test_touch_range_partial_hits_through_shared_tier(self):
        # Same shape with a shared tier behind the per-query cache:
        # the holes reach the shared cache as one ranged read per
        # contiguous unseen sub-range (three singleton ranges here),
        # and the charged block count still excludes the hits.
        from repro.storage import SharedBlockCache

        disk = SimulatedDisk()
        shared = SharedBlockCache(64)
        cache = BlockCache(disk, shared=shared)
        cache.touch(1, 3)
        cache.touch(1, 5)
        calls = []
        original = disk.charge_random_read

        def spying_charge(blocks):
            calls.append(blocks)
            original(blocks)

        disk.charge_random_read = spying_charge
        charged = cache.touch_range(1, 2, 6)
        assert charged == 3
        assert disk.stats.counters.random_reads == 5
        # Three disjoint holes -> three ranged reads of one block each.
        assert calls == [1, 1, 1]

    def test_touch_range_shared_residency_is_free_for_new_query(self):
        # A second query's fresh BlockCache finds the shared tier
        # already resident: shared hits, zero new charges.
        from repro.storage import SharedBlockCache

        disk = SimulatedDisk()
        shared = SharedBlockCache(64)
        first = BlockCache(disk, shared=shared)
        first.touch_range(1, 2, 6)
        assert disk.stats.counters.random_reads == 5
        second = BlockCache(disk, shared=shared)
        assert second.touch_range(1, 2, 6) == 0
        assert second.shared_hits == 5
        assert disk.stats.counters.random_reads == 5


class TestBlockCacheConcurrency:
    """Counter updates are atomic: no charge is lost or duplicated."""

    RUNS = 4
    BLOCKS = 50
    THREADS = 8

    def _hammer(self, cache):
        barrier = threading.Barrier(self.THREADS)

        def worker(seed):
            barrier.wait()
            # Every thread touches every (run, block) pair, offset so
            # the interleavings differ, racing the dedup check.
            for i in range(self.RUNS * self.BLOCKS):
                j = (i + seed) % (self.RUNS * self.BLOCKS)
                cache.touch(j // self.BLOCKS, j % self.BLOCKS)

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_concurrent_touches_charge_each_block_once(self):
        disk = SimulatedDisk()
        cache = BlockCache(disk)
        self._hammer(cache)
        unique = self.RUNS * self.BLOCKS
        assert cache.blocks_charged == unique
        assert disk.stats.counters.random_reads == unique
        assert sum(cache.blocks_per_run.values()) == unique
        assert max(cache.run_blocks().values()) == self.BLOCKS

    def test_disabled_cache_counts_every_concurrent_touch(self):
        disk = SimulatedDisk()
        cache = BlockCache(disk, enabled=False)
        self._hammer(cache)
        total = self.THREADS * self.RUNS * self.BLOCKS
        assert cache.blocks_charged == total
        assert disk.stats.counters.random_reads == total
