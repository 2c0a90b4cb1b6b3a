"""Tests for the drifting-distribution workload."""

import numpy as np
import pytest

from repro.workloads import DriftWorkload


class TestDriftWorkload:
    def test_mean_moves(self):
        w = DriftWorkload(seed=0, start_mean=1e6, drift_per_batch=1e5,
                          stddev=1e3)
        first = w.generate(5000).mean()
        for _ in range(9):
            w.generate(5000)
        late = w.generate(5000).mean()
        assert late - first > 8e5

    def test_jump_regime(self):
        w = DriftWorkload(seed=0, start_mean=1e6, drift_per_batch=0,
                          stddev=1e3, jump_at=2, jump_to=5e6)
        before = w.generate(2000).mean()
        w.generate(2000)
        after = w.generate(2000).mean()
        assert abs(before - 1e6) < 1e4
        assert abs(after - 5e6) < 1e4

    def test_jump_validation(self):
        with pytest.raises(ValueError):
            DriftWorkload(jump_at=3)

    def test_reset_restores_schedule(self):
        w = DriftWorkload(seed=1)
        first = w.generate(1000)
        w.generate(1000)
        w.reset()
        np.testing.assert_array_equal(w.generate(1000), first)

    def test_windows_see_the_drift(self):
        """The feature this workload exists to demonstrate."""
        from repro import HybridQuantileEngine

        w = DriftWorkload(seed=2, start_mean=1e6, drift_per_batch=2e5,
                          stddev=5e4)
        engine = HybridQuantileEngine(epsilon=0.05, kappa=2, block_elems=16)
        for batch in w.batches(8, 2000):
            engine.stream_update_many(batch)
            engine.end_time_step()
        engine.stream_update_many(w.generate(2000))
        recent = engine.quantile(0.5, window_steps=1).value
        full = engine.quantile(0.5).value
        assert recent > full  # the window tracks the drifted present
