"""Tests for the external sorter and multi-way merge."""

import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import EngineConfig, HybridQuantileEngine
from repro.storage import ExternalSorter, SimulatedDisk, SortedRun, merge_runs
from repro.storage.external_sort import (
    _NARROW_SORT_ELEMS,
    kway_merge,
    sort_in_place,
)

INT64_MIN = np.iinfo(np.int64).min
INT64_MAX = np.iinfo(np.int64).max
INT32_MIN = np.iinfo(np.int32).min
INT32_MAX = np.iinfo(np.int32).max


def sort_to_run(sorter, disk, data):
    """A batch as the warehouse stores it: sorted, then written as a run."""
    return SortedRun(disk, sorter.sorted_array(data), charge_write=True)


class TestExternalSorter:
    def test_sorts_correctly(self):
        disk = SimulatedDisk(block_elems=4)
        sorter = ExternalSorter(disk)
        run = sort_to_run(sorter, disk, np.asarray([5, 1, 9, 3]))
        np.testing.assert_array_equal(run.values, [1, 3, 5, 9])

    def test_in_memory_sort_charges_output_write_only(self):
        disk = SimulatedDisk(block_elems=4)
        sorter = ExternalSorter(disk, memory_elems=100)
        sort_to_run(sorter, disk, np.arange(40)[::-1])
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
        sort_to_run(sorter, disk, np.arange(100)[::-1])
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
        with disk.stats.capture() as merge:
            merge_runs(disk, [a, b])
        delta = merge.counters
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
        with disk.stats.capture() as merge:
            merged = merge_runs(disk, runs)
        delta = merge.counters
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
                st.lists(
                    st.sampled_from([INT32_MIN, -1, 0, INT32_MAX]),
                    max_size=12,
                ),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_kway_edge_runs_equal_global_sort(self, chunks):
        """Empties, singletons, all-equal runs and the int32 and int64
        extremes: the global sort's values, at int32 exactly when the
        union's ends fit it."""
        from repro.storage.external_sort import kway_merge

        arrays = [np.sort(np.asarray(c, dtype=np.int64)) for c in chunks]
        merged = kway_merge(arrays)
        expected = np.sort(np.concatenate([np.empty(0, np.int64), *arrays]))
        fits = expected.size and (
            INT32_MIN <= expected[0] and expected[-1] <= INT32_MAX
        )
        assert merged.dtype == (np.int32 if fits else np.int64)
        np.testing.assert_array_equal(merged.astype(np.int64), expected)

    def test_large_merge_lives_in_its_own_mapping(self):
        """Mapped, as a file-backed backend asks (it writes the output
        out and drops it), a run-sized output is an anonymous mmap the
        array owns, its pages returned to the OS on free; a small one is
        a heap array.  Unmapped, as the simulated backend asks, every
        output is a heap array owning its memory, which the run keeps.
        Same values, read-only, every way; the mapping is sized by the
        output's width."""
        import mmap

        from repro.storage.external_sort import _MAPPED_MERGE_BYTES, kway_merge

        rng = np.random.default_rng(3)
        for width, reach in ((np.int32, 9), (np.int64, 2**40)):
            half = _MAPPED_MERGE_BYTES // (2 * np.dtype(width).itemsize)
            for size, mapped, in_mapping in (
                (half - 1, True, False), (half, True, True),
                (half, False, False),
            ):
                arrays = [
                    np.sort(rng.integers(-reach, reach, size))
                    for _ in range(2)
                ]
                merged = kway_merge(arrays, mapped=mapped)
                backing = getattr(merged.base, "obj", None)
                assert isinstance(backing, mmap.mmap) == in_mapping
                assert merged.flags.owndata != in_mapping
                assert not merged.flags.writeable and merged.dtype == width
                assert merged.nbytes == 2 * size * np.dtype(width).itemsize
                np.testing.assert_array_equal(
                    merged.astype(np.int64), np.sort(np.concatenate(arrays))
                )

    def test_kway_merge_never_aliases_an_input(self):
        from repro.storage.external_sort import kway_merge

        only = np.asarray([4, 9], dtype=np.int64)
        merged = kway_merge([only, np.empty(0, dtype=np.int64)])
        assert not np.shares_memory(merged, only)
        only[0] = -1
        assert merged[0] == 4


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


THRESHOLD = _NARROW_SORT_ELEMS
#: 0, 1, lengths that are no multiple of 16, the threshold +- 1 and
#: powers of two +- 1 on both sides of it.
SIZES = sorted(
    {0, 1, 15, 17, 1000, THRESHOLD + 7, 3 * THRESHOLD + 5}
    | {THRESHOLD + d for d in (-1, 0, 1)}
    | {2**k + d for k in (4, 15, 16, 17) for d in (-1, 0, 1)}
)


def values_of(kind, size, rng):
    """An int64 array of ``size`` values of one edge-case ``kind``."""
    if kind == "int32 ends":
        pool = [INT32_MIN, INT32_MIN + 1, -1, 0, 1, INT32_MAX - 1, INT32_MAX]
        return rng.choice(np.asarray(pool, dtype=np.int64), size)
    if kind == "one past the ends":
        pool = [INT32_MIN - 1, INT32_MIN, 0, INT32_MAX, INT32_MAX + 1]
        return rng.choice(np.asarray(pool, dtype=np.int64), size)
    if kind == "all equal":
        return np.full(size, rng.integers(INT32_MIN, INT32_MAX), np.int64)
    if kind == "negative":
        return rng.integers(INT32_MIN, 0, size)
    return rng.integers(-(2**40), 2**40, size)  # "2^40 range"


KINDS = ["int32 ends", "one past the ends", "all equal", "negative",
         "2^40 range"]


@contextmanager
def array_sorts():
    """``(dtype, size)`` of every ``ndarray.sort`` this thread calls
    while the block runs, read off the interpreter's profile hook."""
    seen = []

    def profile(frame, event, arg):
        owner = getattr(arg, "__self__", None)
        if event == "c_call" and isinstance(owner, np.ndarray) and (
            arg.__name__ == "sort"
        ):
            seen.append((owner.dtype, owner.size))

    sys.setprofile(profile)
    try:
        yield seen
    finally:
        sys.setprofile(None)


class TestSortInPlace:
    """``sort_in_place`` gives ``np.sort``'s bytes, narrow or not."""

    @staticmethod
    def check(arr, lo, hi):
        expected = np.sort(arr).tobytes()
        sort_in_place(arr, lo, hi)
        assert arr.dtype == np.int64
        assert arr.tobytes() == expected

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("size", SIZES)
    def test_edge_cases_equal_np_sort(self, kind, size):
        arr = values_of(kind, size, np.random.default_rng(size))
        lo, hi = (int(arr.min()), int(arr.max())) if size else (0, 0)
        self.check(arr, lo, hi)

    @given(
        size=st.sampled_from(SIZES),
        kind=st.sampled_from(KINDS),
        seed=st.integers(0, 2**32 - 1),
        loose=st.booleans(),
        offset=st.integers(0, 3),
    )
    @example(size=THRESHOLD, kind="int32 ends", seed=0, loose=False, offset=1)
    @settings(max_examples=60, deadline=None)
    def test_sort_in_place_equals_np_sort(self, size, kind, seed, loose, offset):
        """Any of the edge cases, bounded tightly or by the widest
        range the values allow, sorted inside a larger array: the
        result is ``np.sort``'s and the neighbours keep their bytes."""
        rng = np.random.default_rng(seed)
        outer = rng.integers(INT64_MIN, INT64_MAX, size + offset + 3)
        arr = outer[offset : offset + size]
        arr[:] = values_of(kind, size, rng)
        if not size:
            lo, hi = 0, 0
        elif loose:
            fits = INT32_MIN <= arr.min() and arr.max() <= INT32_MAX
            lo, hi = (INT32_MIN, INT32_MAX) if fits else (INT64_MIN, INT64_MAX)
        else:
            lo, hi = int(arr.min()), int(arr.max())
        before = outer.copy()
        self.check(arr, lo, hi)
        for side in (slice(0, offset), slice(offset + size, None)):
            assert outer[side].tobytes() == before[side].tobytes()

    def test_a_strided_array_takes_the_int64_sort(self):
        outer = np.random.default_rng(5).integers(0, 100, 4 * THRESHOLD)
        with array_sorts() as sorts:
            self.check(outer[::2], 0, 100)
        assert sorts[-1] == (np.dtype(np.int64), 2 * THRESHOLD)

    def test_the_three_sites_sort_narrow_when_the_values_fit(self):
        """A 300 000-element step in int32 range sorts an int32 array
        where the GK absorb sorts it, where an unpolled seal sorts it
        and where a 10-run merge sorts it, and is stored as int32; a
        2^40-range array sorts and is stored as int64 at each of them."""
        rng = np.random.default_rng(7)
        narrow, wide = np.dtype(np.int32), np.dtype(np.int64)
        for values, width in (
            (rng.integers(-(10**9), 10**9, 300_000), narrow),
            (rng.integers(-(2**40), 2**40, 300_000), wide),
        ):
            for polled in (True, False):
                with HybridQuantileEngine(
                    config=EngineConfig(epsilon=1e-3)
                ) as engine, array_sorts() as sorts:
                    engine.stream_update_many(values)
                    if polled:
                        engine.quantile(0.5, mode="quick")
                    engine.end_time_step()
                    (stored,) = engine.store.partitions()
                assert (width, values.size) in sorts
                assert ({narrow, wide} - {width}).pop() not in dict(sorts)
                assert stored.run.values.dtype == width
                assert np.array_equal(stored.run.values, np.sort(values))
            runs = [np.sort(part) for part in np.array_split(values, 10)]
            with array_sorts() as sorts:
                merged = kway_merge(runs)
            assert sorts == [(width, values.size)]
            assert merged.dtype == width
            assert np.array_equal(merged, np.sort(values))

    def test_a_seal_sorts_narrow_on_a_kll_engine(self):
        values = np.random.default_rng(3).integers(0, 10**8, 300_000)
        with HybridQuantileEngine(
            config=EngineConfig(epsilon=1e-3, sketch_backend="kll")
        ) as engine, array_sorts() as sorts:
            engine.stream_update_many(values)
            engine.end_time_step()
        assert (np.dtype(np.int32), values.size) in sorts
        assert (np.dtype(np.int64), values.size) not in sorts
