"""Unit and property tests for sorted on-disk runs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import BlockCache, SimulatedDisk, SortedRun


def make_run(data, block_elems=4):
    disk = SimulatedDisk(block_elems=block_elems)
    run = SortedRun(disk, np.asarray(data, dtype=np.int64))
    return disk, run


def uncached(disk):
    """A cache that holds nothing: every read through it is charged."""
    return BlockCache(disk, enabled=False)


class TestConstruction:
    def test_rejects_unsorted(self):
        disk = SimulatedDisk(block_elems=4)
        with pytest.raises(ValueError):
            SortedRun(disk, np.asarray([3, 1, 2]))

    def test_charges_write_blocks(self):
        disk, run = make_run(range(10), block_elems=4)
        assert disk.stats.counters.sequential_writes == 3

    def test_charge_write_false(self):
        disk = SimulatedDisk(block_elems=4)
        SortedRun(disk, np.arange(10), charge_write=False)
        assert disk.stats.counters.total == 0

    def test_data_is_copied(self):
        disk = SimulatedDisk(block_elems=4)
        source = np.arange(5)
        run = SortedRun(disk, source)
        source[0] = 100
        assert run.values[0] == 0

    def test_values_view_readonly(self):
        disk, run = make_run(range(5))
        with pytest.raises(ValueError):
            run.values[0] = 1

    def test_min_max(self):
        disk, run = make_run([2, 5, 9, 11, 13], block_elems=2)
        cache = BlockCache(disk)
        assert run.element_at(0, cache=cache) == 2
        assert run.element_at(len(run) - 1, cache=cache) == 13
        assert cache.blocks_charged == 2

    def test_empty_run_min_raises(self):
        disk, run = make_run([])
        with pytest.raises(IndexError):
            run.element_at(0, cache=BlockCache(disk))


class TestRandomAccess:
    def test_element_at_charges_one_block(self):
        disk, run = make_run(range(20), block_elems=4)
        before = disk.stats.counters.random_reads
        assert run.element_at(7, cache=uncached(disk)) == 7
        assert disk.stats.counters.random_reads == before + 1

    def test_element_at_with_cache_dedupes(self):
        disk, run = make_run(range(20), block_elems=4)
        cache = BlockCache(disk)
        run.element_at(5, cache=cache)
        run.element_at(6, cache=cache)  # same block of 4
        assert cache.blocks_charged == 1

    def test_element_at_out_of_range(self):
        disk, run = make_run(range(5))
        with pytest.raises(IndexError):
            run.element_at(5, cache=uncached(disk))


class TestRankOf:
    def test_rank_counts_le(self):
        disk, run = make_run([1, 3, 3, 7])
        cache = BlockCache(disk)
        assert run.rank_of(0, cache=cache) == 0
        assert run.rank_of(1, cache=cache) == 1
        assert run.rank_of(3, cache=cache) == 3
        assert run.rank_of(7, cache=cache) == 4
        assert run.rank_of(100, cache=cache) == 4

    def test_rank_matches_in_memory_rank(self):
        disk, run = make_run([1, 3, 3, 7, 9, 9, 12])
        for value in (-1, 1, 2, 3, 8, 9, 12, 13):
            assert run.rank_of(value, cache=uncached(disk)) == int(
                np.searchsorted(run.values, value, "right")
            )

    def test_rank_with_bounds(self):
        disk, run = make_run(range(0, 100, 2), block_elems=4)
        # value 50 at index 25; bound the search around it
        assert run.rank_of(50, lo=20, hi=30, cache=uncached(disk)) == 26

    def test_rank_charges_log_blocks(self):
        disk, run = make_run(range(1024), block_elems=4)
        cache = BlockCache(disk)
        run.rank_of(517, cache=cache)
        # binary search over 256 blocks: ~log2(1024) probes max
        assert cache.blocks_charged <= 11


class TestRankProperty:
    @given(
        data=st.lists(st.integers(-1000, 1000), min_size=1, max_size=200),
        probe=st.integers(-1100, 1100),
    )
    @settings(max_examples=100, deadline=None)
    def test_rank_of_equals_searchsorted(self, data, probe):
        arr = np.sort(np.asarray(data, dtype=np.int64))
        disk = SimulatedDisk(block_elems=3)
        run = SortedRun(disk, arr)
        expected = int(np.searchsorted(arr, probe, side="right"))
        assert run.rank_of(probe, cache=BlockCache(disk)) == expected
