"""Tests for windowed queries (Section 2.4)."""

import numpy as np
import pytest

from repro import ExactQuantiles, HybridQuantileEngine, WindowNotAlignedError


def build(rng, steps=7, batch=1000, live=1000, kappa=2):
    engine = HybridQuantileEngine(epsilon=0.05, kappa=kappa, block_elems=16)
    step_data = []
    for _ in range(steps):
        data = rng.integers(0, 10**6, batch)
        step_data.append(data)
        engine.stream_update_many(data)
        engine.end_time_step()
    live_data = rng.integers(0, 10**6, live)
    engine.stream_update_many(live_data)
    return engine, step_data, live_data


class TestWindowQueries:
    def test_available_sizes(self, rng):
        engine, *_ = build(rng, steps=7, kappa=2)
        # partitions: (1-4), (5-6), (7)
        assert engine.available_window_sizes() == [1, 3, 7]

    def test_unaligned_raises_with_alternatives(self, rng):
        engine, *_ = build(rng, steps=7, kappa=2)
        with pytest.raises(WindowNotAlignedError) as excinfo:
            engine.quantile(0.5, window_steps=2)
        assert excinfo.value.available == [1, 3, 7]

    def test_a_merging_seal_between_sizes_and_query(self, rng):
        """Listing the sizes and querying a window are two calls: a seal
        that merges in between refuses a size just listed, and the
        refusal carries the sizes of the layout that refused it."""
        engine, step_data, _ = build(rng, steps=3, live=0, kappa=3)
        assert engine.available_window_sizes() == [1, 2, 3]
        fourth = rng.integers(0, 10**6, 1000)
        engine.stream_update_many(fourth)
        engine.end_time_step()  # level 0 is full: steps 1-3 merge first
        for ask in (
            lambda steps: engine.aggregate(window_steps=steps),
            lambda steps: engine.quantile(0.5, window_steps=steps),
        ):
            with pytest.raises(WindowNotAlignedError) as excinfo:
                ask(2)
            assert excinfo.value.available == [1, 4]
        everything = np.concatenate([*step_data, fourth])
        for steps, covered in zip([1, 4], [fourth, everything]):
            total = engine.aggregate(window_steps=steps)
            assert (total.count, total.total) == (covered.size, covered.sum())
            answer = engine.quantile(0.5, window_steps=steps).value
            assert answer in covered

    def test_window_error_guarantee(self, rng):
        epsilon = 0.05
        engine, step_data, live_data = build(rng, steps=7, kappa=2)
        for window in engine.available_window_sizes():
            oracle = ExactQuantiles()
            for data in step_data[-window:]:
                oracle.update_many(data)
            oracle.update_many(live_data)
            result = engine.quantile(0.5, window_steps=window)
            assert result.total_size == oracle.n
            high = oracle.rank(result.value)
            low = oracle.rank_strict(result.value) + 1
            target = result.target_rank
            err = max(0, low - target, target - high)
            assert err <= 1.5 * epsilon * len(live_data) + 2

    def test_window_covers_stream_plus_suffix(self, rng):
        engine, step_data, live_data = build(rng, steps=7, kappa=2)
        result = engine.quantile(0.5, window_steps=1)
        assert result.total_size == len(step_data[-1]) + len(live_data)

    def test_window_distribution_shift(self, rng):
        """A window query must reflect only recent data."""
        engine = HybridQuantileEngine(epsilon=0.05, kappa=2, block_elems=16)
        # old data near 0, recent data near 10^6
        for _ in range(6):
            engine.stream_update_many(rng.integers(0, 100, 1000))
            engine.end_time_step()
        engine.stream_update_many(rng.integers(10**6, 2 * 10**6, 1000))
        engine.end_time_step()
        engine.stream_update_many(rng.integers(10**6, 2 * 10**6, 1000))
        full = engine.quantile(0.5)
        windowed = engine.quantile(0.5, window_steps=1)
        assert windowed.value >= 10**6
        assert full.value < 10**6

    def test_quick_mode_window(self, rng):
        engine, *_ = build(rng, steps=7, kappa=2)
        result = engine.quantile(0.5, window_steps=3, mode="quick")
        assert result.window_steps == 3
        assert result.disk_accesses == 0
