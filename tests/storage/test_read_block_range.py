"""Direct unit tests for ``SortedRun.read_block_range`` edge cases.

The ranged read is the batched counterpart of per-block probing
(residual fetches, accurate-path prefetch).  These tests pin the
clamping behaviour at the boundaries: inverted ranges, ranges entirely
past the end of the run, empty runs, and partial trailing blocks must
return exactly the stored elements and charge exactly the clamped
block count — zero for a range that touches nothing.
"""

import numpy as np
import pytest

from repro.storage import BlockCache, SimulatedDisk, SortedRun


def make_run(n, block_elems=4):
    disk = SimulatedDisk(block_elems=block_elems)
    run = SortedRun(disk, np.arange(n, dtype=np.int64))
    return disk, run


def uncached(disk):
    """A cache that holds nothing: every read through it is charged."""
    return BlockCache(disk, enabled=False)


def random_reads(disk):
    return disk.stats.counters.random_reads


class TestClamping:
    def test_full_range(self):
        disk, run = make_run(12, block_elems=4)
        before = random_reads(disk)
        out = run.read_block_range(0, 2, cache=uncached(disk))
        np.testing.assert_array_equal(out, np.arange(12))
        assert random_reads(disk) - before == 3

    def test_partial_trailing_block(self):
        # 10 elements over 4-element blocks: block 2 holds only 8..9.
        disk, run = make_run(10, block_elems=4)
        out = run.read_block_range(2, 2, cache=uncached(disk))
        np.testing.assert_array_equal(out, [8, 9])

    def test_range_past_end_is_clamped(self):
        disk, run = make_run(10, block_elems=4)
        before = random_reads(disk)
        out = run.read_block_range(1, 99, cache=uncached(disk))
        np.testing.assert_array_equal(out, np.arange(4, 10))
        # Blocks 1 and 2 exist; the rest of the range charges nothing.
        assert random_reads(disk) - before == 2

    def test_range_entirely_past_end_charges_nothing(self):
        disk, run = make_run(10, block_elems=4)
        before = random_reads(disk)
        out = run.read_block_range(7, 9, cache=uncached(disk))
        assert out.size == 0
        assert out.dtype == np.int64
        assert random_reads(disk) == before

    def test_negative_first_block_clamps_to_zero(self):
        disk, run = make_run(8, block_elems=4)
        before = random_reads(disk)
        out = run.read_block_range(-3, 0, cache=uncached(disk))
        np.testing.assert_array_equal(out, np.arange(4))
        assert random_reads(disk) - before == 1

    def test_inverted_range_is_empty(self):
        disk, run = make_run(8, block_elems=4)
        before = random_reads(disk)
        out = run.read_block_range(2, 1, cache=uncached(disk))
        assert out.size == 0
        assert random_reads(disk) == before

    def test_empty_run_reads_nothing(self):
        disk, run = make_run(0, block_elems=4)
        before = random_reads(disk)
        out = run.read_block_range(0, 5, cache=uncached(disk))
        assert out.size == 0
        assert out.dtype == np.int64
        assert random_reads(disk) == before

    def test_fully_negative_range_is_empty(self):
        disk, run = make_run(8, block_elems=4)
        before = random_reads(disk)
        out = run.read_block_range(-5, -2, cache=uncached(disk))
        assert out.size == 0
        assert random_reads(disk) == before


class TestCacheInteraction:
    def test_cached_blocks_charge_nothing_on_reread(self):
        disk, run = make_run(16, block_elems=4)
        cache = BlockCache(disk)
        run.read_block_range(0, 3, cache=cache)
        before = random_reads(disk)
        out = run.read_block_range(0, 3, cache=cache)
        np.testing.assert_array_equal(out, np.arange(16))
        assert random_reads(disk) == before

    def test_partial_overlap_charges_only_new_blocks(self):
        disk, run = make_run(16, block_elems=4)
        cache = BlockCache(disk)
        run.read_block_range(0, 1, cache=cache)
        before = random_reads(disk)
        run.read_block_range(0, 3, cache=cache)
        assert random_reads(disk) - before == 2

    def test_matches_per_block_charges(self):
        """A ranged read charges exactly what per-block probes would."""
        disk_a, run_a = make_run(20, block_elems=4)
        disk_b, run_b = make_run(20, block_elems=4)
        before_a = random_reads(disk_a)
        before_b = random_reads(disk_b)
        ranged = run_a.read_block_range(1, 3, cache=uncached(disk_a))
        singles = np.concatenate(
            [
                run_b.read_block_range(b, b, cache=uncached(disk_b))
                for b in (1, 2, 3)
            ]
        )
        np.testing.assert_array_equal(ranged, singles)
        assert (
            random_reads(disk_a) - before_a
            == random_reads(disk_b) - before_b
        )


class TestContentCorrectness:
    @pytest.mark.parametrize("n", [1, 3, 4, 5, 7, 8, 9, 16, 17])
    @pytest.mark.parametrize("block_elems", [1, 3, 4])
    def test_every_block_reads_its_elements(self, n, block_elems):
        disk, run = make_run(n, block_elems=block_elems)
        last = disk.block_of(n - 1)
        for block in range(last + 1):
            lo = block * block_elems
            hi = min(lo + block_elems, n)
            np.testing.assert_array_equal(
                run.read_block_range(block, block, cache=uncached(disk)),
                np.arange(lo, hi),
            )
