"""Tests for the partition (HS) and stream (SS) summaries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregates import AggregateStats, partition_stats
from repro.core.summaries import PartitionSummary, StreamSummary
from repro.sketches import GKSketch
from repro.storage import SimulatedDisk, SortedRun
from repro.warehouse import Partition


def make_partition(data, block_elems=8):
    disk = SimulatedDisk(block_elems=block_elems)
    run = SortedRun(disk, np.sort(np.asarray(data, dtype=np.int64)))
    return Partition(level=0, start_step=1, end_step=1, run=run)


class TestPartitionSummary:
    def test_starts_at_minimum(self):
        p = make_partition(np.arange(10, 110))
        s = PartitionSummary.build(p, eps1=0.25)
        assert s.values[0] == 10
        assert s.positions[0] == 1

    def test_ends_at_maximum(self):
        p = make_partition(np.arange(10, 110))
        s = PartitionSummary.build(p, eps1=0.25)
        assert s.values[-1] == 109
        assert s.positions[-1] == 100

    def test_even_rank_spacing(self):
        p = make_partition(np.arange(1, 101))
        s = PartitionSummary.build(p, eps1=0.25)
        np.testing.assert_array_equal(s.positions, [1, 25, 50, 75, 100])

    def test_gap_bound(self):
        p = make_partition(np.random.default_rng(0).integers(0, 10**6, 997))
        s = PartitionSummary.build(p, eps1=0.1)
        gaps = np.diff(s.positions)
        assert gaps.max() <= 0.1 * 997 + 1

    def test_tiny_partition_dedupes_positions(self):
        p = make_partition([3, 7])
        s = PartitionSummary.build(p, eps1=0.01)
        assert len(s) <= 2
        assert s.partition_size == 2

    def test_empty_partition(self):
        p = make_partition([])
        s = PartitionSummary.build(p, eps1=0.25)
        assert len(s) == 0
        assert s.partition_size == 0

    @pytest.mark.parametrize("eps1", [5e-4, 5e-3, 0.25])
    @pytest.mark.parametrize(
        "size", [1, 2, 7, 1_500, 2_001, 75_000, 750_000]
    )
    def test_positions_are_the_unique_rank_schedule(self, size, eps1):
        """The schedule is non-decreasing, so ``build`` drops repeats
        instead of sorting: same entries as ``np.unique``'s, and the
        write-time aggregates read off the run's two ends."""
        data = np.random.default_rng(size).integers(0, 1 << 40, size)
        p = make_partition(data, block_elems=1024)
        s = PartitionSummary.build(p, eps1)
        idx = np.arange(1, math.ceil(1.0 / eps1) + 1, dtype=np.int64)
        ranks = np.minimum(size, np.ceil(idx * eps1 * size)).astype(np.int64)
        positions = np.unique(np.concatenate([[1], ranks]))
        assert s.positions.dtype == positions.dtype == np.int64
        np.testing.assert_array_equal(s.positions, positions)
        np.testing.assert_array_equal(s.values, np.sort(data)[positions - 1])
        assert partition_stats(p) == AggregateStats.of_array(data)

    def test_alpha_counts_le(self):
        p = make_partition(np.arange(1, 101))
        s = PartitionSummary.build(p, eps1=0.25)
        assert s.alpha(0) == 0
        assert s.alpha(1) == 1
        assert s.alpha(60) == 3
        assert s.alpha(1000) == 5

    def test_search_bounds_contain_boundary(self):
        data = np.sort(np.random.default_rng(1).integers(0, 10**6, 500))
        p = make_partition(data)
        s = PartitionSummary.build(p, eps1=0.1)
        for probe in np.random.default_rng(2).integers(0, 10**6, 50):
            lo, hi = s.search_bounds(int(probe))
            boundary = int(np.searchsorted(data, probe, side="right"))
            assert lo <= boundary <= hi

    def test_build_charges_no_io(self):
        disk = SimulatedDisk(block_elems=8)
        run = SortedRun(disk, np.arange(100), charge_write=False)
        p = Partition(level=0, start_step=1, end_step=1, run=run)
        PartitionSummary.build(p, eps1=0.25)
        assert disk.stats.counters.total == 0

    def test_memory_words(self):
        p = make_partition(np.arange(1, 101))
        s = PartitionSummary.build(p, eps1=0.25)
        assert s.memory_words() == 2 * 5 + 2


class TestStreamSummary:
    def _build(self, data, eps2=0.1):
        gk = GKSketch(eps2 / 2.0)
        gk.update_many(np.asarray(data, dtype=np.int64))
        return StreamSummary.extract(gk, eps2)

    def test_empty_stream(self):
        ss = StreamSummary.extract(GKSketch(0.05), eps2=0.1)
        assert ss.stream_size == 0
        assert len(ss) == 0
        assert ss.rank_estimate(5) == 0.0

    def test_starts_at_exact_min(self):
        rng = np.random.default_rng(3)
        data = rng.integers(100, 10**6, 5000)
        ss = self._build(data)
        assert ss.values[0] == data.min()

    def test_lemma1_guarantee(self):
        """SS[i] has true rank in [i*eps2*m, (i+1)*eps2*m] for i >= 1."""
        rng = np.random.default_rng(4)
        data = np.sort(rng.integers(0, 10**6, 8000))
        eps2 = 0.1
        ss = self._build(data, eps2)
        m = len(data)
        for i in range(1, len(ss)):
            value = int(ss.values[i])
            high = int(np.searchsorted(data, value, side="right"))
            low = int(np.searchsorted(data, value, side="left")) + 1
            lo_bound = i * eps2 * m
            hi_bound = (i + 1) * eps2 * m
            # The value's rank interval must intersect the Lemma 1 bracket.
            assert low <= hi_bound + 1e-9, (i, low, hi_bound)
            assert high >= lo_bound - 1e-9, (i, high, lo_bound)

    def test_values_sorted(self):
        rng = np.random.default_rng(5)
        ss = self._build(rng.integers(0, 10**6, 3000))
        assert np.all(np.diff(ss.values) >= 0)

    def test_length_is_beta2(self):
        rng = np.random.default_rng(6)
        ss = self._build(rng.integers(0, 10**6, 3000), eps2=0.125)
        assert len(ss) == 9  # ceil(1/0.125) + 1

    def test_alpha_and_rank_estimate(self):
        ss = StreamSummary(
            values=np.asarray([10, 20, 30], dtype=np.int64),
            stream_size=100,
            eps2=0.25,
        )
        assert ss.alpha(5) == 0
        assert ss.alpha(20) == 2
        assert ss.rank_estimate(20) == pytest.approx(50.0)

    def test_largest_at_most(self):
        ss = StreamSummary(
            values=np.asarray([10, 20, 30], dtype=np.int64),
            stream_size=100,
            eps2=0.25,
        )
        assert ss.largest_at_most(5) is None
        assert ss.largest_at_most(25) == 20
        assert ss.largest_at_most(30) == 30


class TestSummaryProperty:
    @given(
        data=st.lists(st.integers(0, 10**6), min_size=2, max_size=400),
        eps1=st.sampled_from([0.5, 0.25, 0.1]),
    )
    @settings(max_examples=60, deadline=None)
    def test_partition_summary_rank_consistency(self, data, eps1):
        """Every stored (value, position) pair is truthful."""
        p = make_partition(data)
        s = PartitionSummary.build(p, eps1=eps1)
        arr = np.sort(np.asarray(data, dtype=np.int64))
        for value, pos in zip(s.values, s.positions):
            assert arr[pos - 1] == value
        assert s.values[0] == arr[0]
        assert s.values[-1] == arr[-1]
