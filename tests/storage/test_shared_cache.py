"""Tests for the process-wide shared block cache (cross-query tier)."""

import threading

import pytest

from repro.storage import BlockCache, SharedBlockCache, SimulatedDisk


def charge_counter():
    """A charge callable recording (calls, blocks)."""
    calls = {"ops": 0, "blocks": 0}

    def charge(blocks):
        calls["ops"] += 1
        calls["blocks"] += blocks

    return charge, calls


class TestTwoQEviction:
    def test_capacity_is_enforced(self):
        cache = SharedBlockCache(8)
        charge, _ = charge_counter()
        for block in range(20):
            cache.fetch_range(1, block, block, charge)
        assert cache.resident_blocks <= 8
        assert cache.stats().evictions == 20 - cache.resident_blocks

    def test_one_shot_scan_does_not_evict_hot_blocks(self):
        cache = SharedBlockCache(8)
        charge, _ = charge_counter()
        # Make blocks 0 and 1 hot: re-referenced => promoted out of
        # the probation FIFO into the protected LRU segment.
        for block in (0, 1):
            cache.fetch_range(1, block, block, charge)
            cache.fetch_range(1, block, block, charge)
        # Wash a long one-shot scan through probation.
        for block in range(100, 140):
            cache.fetch_range(2, block, block, charge)
        assert cache.contains(1, 0)
        assert cache.contains(1, 1)

    def test_probation_evicts_fifo(self):
        cache = SharedBlockCache(4)  # probation target = 1
        charge, _ = charge_counter()
        for block in range(6):
            cache.fetch_range(1, block, block, charge)
        # Never-re-referenced blocks leave in arrival order; the most
        # recent arrivals are still resident.
        assert cache.contains(1, 5)
        assert not cache.contains(1, 0)

    def test_capacity_below_one_rejected(self):
        with pytest.raises(ValueError):
            SharedBlockCache(0)


class TestFetchAccounting:
    def test_miss_charges_then_hit_is_free(self):
        cache = SharedBlockCache(16)
        charge, calls = charge_counter()
        assert cache.fetch_range(1, 0, 0, charge) == (0, 1)
        assert cache.fetch_range(1, 0, 0, charge) == (1, 0)
        assert calls == {"ops": 1, "blocks": 1}
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_fetch_range_single_charge_op(self):
        cache = SharedBlockCache(16)
        charge, calls = charge_counter()
        hits, misses = cache.fetch_range(1, 2, 6, charge)
        assert (hits, misses) == (0, 5)
        assert calls == {"ops": 1, "blocks": 5}
        # Partially resident range: one op for just the missing blocks.
        hits, misses = cache.fetch_range(1, 4, 8, charge)
        assert (hits, misses) == (3, 2)
        assert calls == {"ops": 2, "blocks": 7}

    def test_fully_resident_range_charges_nothing(self):
        cache = SharedBlockCache(16)
        charge, calls = charge_counter()
        cache.fetch_range(1, 0, 3, charge)
        cache.fetch_range(1, 0, 3, charge)
        assert calls["ops"] == 1

    def test_failed_charge_leaves_block_non_resident(self):
        cache = SharedBlockCache(16)

        def failing(blocks):
            raise IOError("injected")

        with pytest.raises(IOError):
            cache.fetch_range(1, 0, 0, failing)
        assert not cache.contains(1, 0)

    def test_prefetch_flag_counted(self):
        cache = SharedBlockCache(16)
        charge, _ = charge_counter()
        cache.fetch_range(1, 0, 3, charge, prefetch=True)
        assert cache.stats().prefetched_blocks == 4


class TestInvalidation:
    def test_drops_blocks_and_is_idempotent(self):
        cache = SharedBlockCache(16)
        charge, _ = charge_counter()
        for block in range(5):
            cache.fetch_range(7, block, block, charge)
        assert cache.invalidate_run(7) == 5
        assert cache.invalidate_run(7) == 0
        assert cache.resident_blocks == 0
        stats = cache.stats()
        assert stats.invalidated_blocks == 5
        assert stats.invalidated_runs == 1

    def test_retired_run_refuses_reinsertion(self):
        cache = SharedBlockCache(16)
        charge, calls = charge_counter()
        cache.fetch_range(7, 0, 0, charge)
        cache.invalidate_run(7)
        assert cache.is_retired(7)
        # A pinned snapshot still probing the retired run just misses:
        # charged every time, never resident again.
        assert cache.fetch_range(7, 0, 0, charge) == (0, 1)
        assert cache.fetch_range(7, 0, 0, charge) == (0, 1)
        assert not cache.contains(7, 0)
        assert calls["blocks"] == 3

    def test_invalidation_survives_eviction_of_same_blocks(self):
        cache = SharedBlockCache(4)
        charge, _ = charge_counter()
        for block in range(10):  # most already evicted
            cache.fetch_range(7, block, block, charge)
        dropped = cache.invalidate_run(7)
        assert dropped == cache.stats().invalidated_blocks
        assert cache.resident_blocks == 0


class TestFollowers:
    def test_non_follower_keeps_pinned_accounting(self):
        disk = SimulatedDisk(block_elems=16)
        shared = SharedBlockCache(16)
        pinned = BlockCache(disk, shared=shared)
        pinned.touch_range(7, 0, 0)
        shared.invalidate_run(7)
        before = disk.stats.counters.random_reads
        # Per-query accounting holds through the pin: the repeat touch
        # is free even though the shared tier retired the run.
        pinned.touch_range(7, 0, 0)
        assert disk.stats.counters.random_reads == before


class TestReadThrough:
    def test_second_query_warm_and_uncharged(self):
        disk = SimulatedDisk(block_elems=16)
        shared = SharedBlockCache(16)
        first = BlockCache(disk, shared=shared)
        for block in range(4):
            first.touch_range(1, block, block)
        assert first.blocks_charged == 4
        second = BlockCache(disk, shared=shared)
        for block in range(4):
            second.touch_range(1, block, block)
        assert second.blocks_charged == 0
        assert second.shared_hits == 4
        assert disk.stats.counters.random_reads == 4

    def test_touch_range_reads_through_in_contiguous_ops(self):
        disk = SimulatedDisk(block_elems=16)
        shared = SharedBlockCache(64)
        warm = BlockCache(disk, shared=shared)
        warm.touch_range(1, 3, 3)  # splits the later range into two gaps
        ops = {"n": 0}
        original = disk.charge_random_read

        def counting(blocks=1):
            ops["n"] += 1
            original(blocks)

        disk.charge_random_read = counting
        cold = BlockCache(disk, shared=shared)
        cold.touch_range(1, 0, 6)
        # One ranged lookup: the six missing blocks are charged in a
        # single op; block 3 is a shared hit, free.
        assert ops["n"] == 1
        assert cold.blocks_charged == 6
        assert cold.shared_hits == 1

    def test_without_shared_tier_behaviour_is_historical(self):
        disk = SimulatedDisk(block_elems=16)
        cache = BlockCache(disk)
        assert cache.shared is None
        cache.touch_range(1, 0, 0)
        cache.touch_range(1, 0, 0)
        assert disk.stats.counters.random_reads == 1


class TestConcurrency:
    """Aggregate charge totals are deterministic under racing queries."""

    THREADS = 8
    RUNS = 4
    BLOCKS = 40

    def test_each_block_charged_once_globally(self):
        disk = SimulatedDisk(block_elems=16)
        shared = SharedBlockCache(self.RUNS * self.BLOCKS)
        barrier = threading.Barrier(self.THREADS)
        caches = [BlockCache(disk, shared=shared) for _ in range(self.THREADS)]

        def worker(index):
            barrier.wait()
            cache = caches[index]
            for i in range(self.RUNS * self.BLOCKS):
                j = (i + index * 7) % (self.RUNS * self.BLOCKS)
                run, block = divmod(j, self.BLOCKS)
                cache.touch_range(run, block, block)

        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        unique = self.RUNS * self.BLOCKS
        # Which query paid for a block may vary run to run; the global
        # totals cannot.
        assert disk.stats.counters.random_reads == unique
        assert sum(c.blocks_charged for c in caches) == unique
        assert (
            sum(c.shared_hits for c in caches)
            == self.THREADS * unique - unique
        )

    def test_concurrent_invalidation_never_resurrects(self):
        disk = SimulatedDisk(block_elems=16)
        shared = SharedBlockCache(256)
        stop = threading.Event()

        def prober():
            cache = BlockCache(disk, shared=shared)
            while not stop.is_set():
                for block in range(8):
                    cache.touch_range(99, block, block)

        threads = [threading.Thread(target=prober) for _ in range(4)]
        for thread in threads:
            thread.start()
        shared.invalidate_run(99)
        stop.set()
        for thread in threads:
            thread.join()
        assert shared.is_retired(99)
        for block in range(8):
            assert not shared.contains(99, block)
