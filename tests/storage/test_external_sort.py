"""Tests for the external sorter and multi-way merge."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import ExternalSorter, SimulatedDisk, SortedRun, merge_runs

INT64_MIN = np.iinfo(np.int64).min
INT64_MAX = np.iinfo(np.int64).max


class TestExternalSorter:
    def test_sorts_correctly(self):
        disk = SimulatedDisk(block_elems=4)
        sorter = ExternalSorter(disk)
        run = sorter.sort(np.asarray([5, 1, 9, 3]))
        np.testing.assert_array_equal(run.values, [1, 3, 5, 9])

    def test_in_memory_sort_charges_output_write_only(self):
        disk = SimulatedDisk(block_elems=4)
        sorter = ExternalSorter(disk, memory_elems=100)
        sorter.sort(np.arange(40)[::-1])
        assert disk.stats.counters.sequential_writes == 10
        assert disk.stats.counters.sequential_reads == 0

    def test_passes_needed_zero_when_fits(self):
        disk = SimulatedDisk()
        sorter = ExternalSorter(disk, memory_elems=1000)
        assert sorter.passes_needed(1000) == 0

    def test_passes_needed_counts_merge_levels(self):
        disk = SimulatedDisk()
        sorter = ExternalSorter(disk, memory_elems=10, fan_in=4)
        # 100 elems -> 10 runs -> ceil(log4 10)=2 merge levels + formation
        assert sorter.passes_needed(100) == 3

    def test_oversized_batch_charges_passes(self):
        disk = SimulatedDisk(block_elems=10)
        sorter = ExternalSorter(disk, memory_elems=50, fan_in=64)
        sorter.sort(np.arange(100)[::-1])
        # 2 passes (formation + 1 merge level) read+write 10 blocks each,
        # plus the final output write of 10 blocks.
        assert disk.stats.counters.sequential_reads == 20
        assert disk.stats.counters.sequential_writes == 30

    def test_rejects_bad_params(self):
        disk = SimulatedDisk()
        with pytest.raises(ValueError):
            ExternalSorter(disk, memory_elems=0)
        with pytest.raises(ValueError):
            ExternalSorter(disk, fan_in=1)


class TestMergeRuns:
    def test_merges_sorted(self):
        disk = SimulatedDisk(block_elems=4)
        a = SortedRun(disk, np.asarray([1, 4, 7]))
        b = SortedRun(disk, np.asarray([2, 4, 9]))
        merged = merge_runs(disk, [a, b])
        np.testing.assert_array_equal(merged.values, [1, 2, 4, 4, 7, 9])

    def test_merge_charges_one_pass(self):
        disk = SimulatedDisk(block_elems=4)
        a = SortedRun(disk, np.arange(16))
        b = SortedRun(disk, np.arange(16))
        before = disk.stats.counters.snapshot()
        merge_runs(disk, [a, b])
        delta = disk.stats.counters.delta_since(before)
        assert delta.sequential_reads == 8   # read both inputs
        assert delta.sequential_writes == 8  # write the merged output

    def test_merge_empty_list_rejected(self):
        disk = SimulatedDisk()
        with pytest.raises(ValueError):
            merge_runs(disk, [])

    def test_merge_with_empty_run(self):
        disk = SimulatedDisk(block_elems=4)
        a = SortedRun(disk, np.asarray([3, 5]))
        b = SortedRun(disk, np.empty(0, dtype=np.int64))
        merged = merge_runs(disk, [a, b])
        np.testing.assert_array_equal(merged.values, [3, 5])

    @given(
        chunks=st.lists(
            st.lists(st.integers(-100, 100), max_size=30),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_equals_global_sort(self, chunks):
        disk = SimulatedDisk(block_elems=3)
        runs = [
            SortedRun(disk, np.sort(np.asarray(c, dtype=np.int64)))
            for c in chunks
        ]
        merged = merge_runs(disk, runs)
        expected = np.sort(
            np.concatenate(
                [np.asarray(c, dtype=np.int64) for c in chunks]
            )
        )
        np.testing.assert_array_equal(merged.values, expected)


class TestKWayMerge:
    """``kway_merge`` must equal a global sort of its inputs."""

    def test_interleaving_with_duplicates(self):
        from repro.storage.external_sort import kway_merge

        merged = kway_merge(
            [
                np.asarray([1, 3, 3, 7], dtype=np.int64),
                np.asarray([2, 3, 8], dtype=np.int64),
                np.asarray([3], dtype=np.int64),
            ]
        )
        np.testing.assert_array_equal(merged, [1, 2, 3, 3, 3, 3, 7, 8])

    def test_empty_and_single_inputs(self):
        from repro.storage.external_sort import kway_merge

        assert kway_merge([]).size == 0
        assert kway_merge([np.empty(0, dtype=np.int64)]).size == 0
        np.testing.assert_array_equal(
            kway_merge([np.asarray([4, 9], dtype=np.int64)]), [4, 9]
        )

    @given(
        chunks=st.lists(
            st.lists(st.integers(-(2**40), 2**40), max_size=60),
            min_size=1,
            max_size=9,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_kway_equals_global_sort(self, chunks):
        from repro.storage.external_sort import kway_merge

        arrays = [np.sort(np.asarray(c, dtype=np.int64)) for c in chunks]
        merged = kway_merge(arrays)
        expected = np.sort(np.concatenate(arrays)) if arrays else merged
        np.testing.assert_array_equal(merged, expected)

    @given(
        chunks=st.lists(
            st.lists(st.integers(-100, 100), max_size=30),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_runs_io_charges_unchanged(self, chunks):
        """merge_runs must charge exactly what the spec always charged:
        read every input run once, write the merged output once."""
        disk = SimulatedDisk(block_elems=3)
        runs = [
            SortedRun(disk, np.sort(np.asarray(c, dtype=np.int64)))
            for c in chunks
        ]
        before = disk.stats.counters.snapshot()
        merged = merge_runs(disk, runs)
        delta = disk.stats.counters.delta_since(before)
        expected_reads = sum(
            disk.blocks_for(len(run.values)) for run in runs
        )
        assert delta.sequential_reads == expected_reads
        assert delta.sequential_writes == disk.blocks_for(len(merged.values))
        assert delta.random_reads == 0

    @given(
        chunks=st.lists(
            st.one_of(
                st.just([]),
                st.lists(st.integers(-3, 3), min_size=1, max_size=1),
                st.integers(-3, 3).map(lambda v: [v] * 7),
                st.lists(
                    st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, INT64_MAX]),
                    max_size=12,
                ),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_kway_edge_runs_equal_global_sort(self, chunks):
        """Empties, singletons, all-equal runs and the int64 extremes."""
        from repro.storage.external_sort import kway_merge

        arrays = [np.sort(np.asarray(c, dtype=np.int64)) for c in chunks]
        merged = kway_merge(arrays)
        assert merged.dtype == np.int64
        expected = np.sort(np.concatenate([np.empty(0, np.int64), *arrays]))
        np.testing.assert_array_equal(merged, expected)

    def test_large_merge_lives_in_its_own_mapping(self):
        """A run-sized output is an anonymous mmap the array owns (its
        pages return to the OS on free); a small one is a heap array.
        Same bytes either way."""
        import mmap

        from repro.storage.external_sort import _MAPPED_MERGE_BYTES, kway_merge

        rng = np.random.default_rng(3)
        half = _MAPPED_MERGE_BYTES // 16
        for size, mapped in ((half - 1, False), (half, True)):
            arrays = [np.sort(rng.integers(-9, 9, size)) for _ in range(2)]
            merged = kway_merge(arrays)
            backing = getattr(merged.base, "obj", None)
            assert isinstance(backing, mmap.mmap) == mapped
            assert merged.flags.writeable and merged.dtype == np.int64
            np.testing.assert_array_equal(
                merged, np.sort(np.concatenate(arrays))
            )

    def test_kway_merge_never_aliases_an_input(self):
        from repro.storage.external_sort import kway_merge

        only = np.asarray([4, 9], dtype=np.int64)
        merged = kway_merge([only, np.empty(0, dtype=np.int64)])
        merged[0] = -1
        assert only[0] == 4


class TestSortPasses:
    """``passes_needed`` in integers, and what ``sorted_array`` charges."""

    @staticmethod
    def expected_passes(num_elems, memory_elems, fan_in):
        if num_elems <= memory_elems:
            return 0
        runs = (num_elems + memory_elems - 1) // memory_elems
        passes = 1  # run formation
        while runs > 1:
            runs = (runs + fan_in - 1) // fan_in
            passes += 1
        return passes

    @pytest.mark.parametrize("memory_elems", [1, 3])
    def test_exact_powers_of_the_fan_in(self, memory_elems):
        """``fan_in**k`` runs merge in exactly ``k`` levels; one more
        element adds a level.  A float ``log`` says ``k + 1`` at e.g.
        ``log(125, 5) == 3.0000000000000004``."""
        disk = SimulatedDisk()
        for fan_in in range(2, 131):
            sorter = ExternalSorter(
                disk, memory_elems=memory_elems, fan_in=fan_in
            )
            for k in range(1, 8):
                full = fan_in**k * memory_elems
                assert sorter.passes_needed(full) == 1 + k, (fan_in, k)
                assert sorter.passes_needed(full + 1) == 2 + k, (fan_in, k)

    def test_issue_example(self):
        sorter = ExternalSorter(SimulatedDisk(), memory_elems=1, fan_in=5)
        assert sorter.passes_needed(125) == 4

    @given(
        data=st.lists(st.integers(-50, 50), max_size=200),
        memory_elems=st.integers(1, 64),
        fan_in=st.integers(2, 9),
    )
    @settings(max_examples=100, deadline=None)
    def test_sorted_array_output_and_charges(self, data, memory_elems, fan_in):
        """Same array as the stable sort it replaced, and one sequential
        read + write of the batch per pass — nothing else."""
        disk = SimulatedDisk(block_elems=4)
        sorter = ExternalSorter(disk, memory_elems=memory_elems, fan_in=fan_in)
        arr = np.asarray(data, dtype=np.int64)
        out = sorter.sorted_array(arr)
        np.testing.assert_array_equal(out, np.sort(arr, kind="stable"))
        assert out.dtype == np.int64
        passes = self.expected_passes(len(arr), memory_elems, fan_in)
        counters = disk.stats.counters
        assert counters.sequential_reads == passes * disk.blocks_for(len(arr))
        assert counters.sequential_writes == passes * disk.blocks_for(len(arr))
        assert counters.random_reads == 0

    @given(
        data=st.lists(st.integers(-50, 50), max_size=120),
        memory_elems=st.integers(1, 64),
    )
    @settings(max_examples=100, deadline=None)
    def test_ascending_input_is_charged_but_not_sorted(
        self, data, memory_elems
    ):
        """Whoever sorted the bytes, the modeled passes are charged from
        the size alone; ascending input comes back as it is, uncopied."""
        shuffled = np.asarray(data, dtype=np.int64)
        ascending = np.sort(shuffled)
        outputs, charges = [], []
        for arr in (shuffled, ascending):
            disk = SimulatedDisk(block_elems=4)
            sorter = ExternalSorter(disk, memory_elems=memory_elems, fan_in=3)
            outputs.append(sorter.sorted_array(arr))
            counters = disk.stats.counters
            charges.append(
                (counters.sequential_reads, counters.sequential_writes)
            )
        np.testing.assert_array_equal(outputs[0], outputs[1])
        assert charges[0] == charges[1]
        assert outputs[1] is ascending
