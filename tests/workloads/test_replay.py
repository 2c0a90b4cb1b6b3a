"""Tests for the file-replay workload."""

import numpy as np
import pytest

from repro.workloads import ReplayWorkload


class TestReplayWorkload:
    def test_from_array(self):
        w = ReplayWorkload(np.arange(10), name="demo")
        np.testing.assert_array_equal(w.generate(4), [0, 1, 2, 3])
        np.testing.assert_array_equal(w.generate(4), [4, 5, 6, 7])
        assert w.name == "demo"
        assert len(w) == 10

    def test_from_npy(self, tmp_path):
        path = tmp_path / "trace.npy"
        np.save(path, np.asarray([5, 7, 9]))
        w = ReplayWorkload(path)
        assert w.name == "trace"
        np.testing.assert_array_equal(w.generate(3), [5, 7, 9])

    def test_from_text(self, tmp_path):
        path = tmp_path / "values.txt"
        path.write_text("1 2 3\n4 5\n")
        w = ReplayWorkload(path)
        np.testing.assert_array_equal(w.generate(5), [1, 2, 3, 4, 5])

    def test_wraps_around(self):
        w = ReplayWorkload(np.asarray([1, 2, 3]))
        np.testing.assert_array_equal(w.generate(7), [1, 2, 3, 1, 2, 3, 1])
        np.testing.assert_array_equal(w.generate(2), [2, 3])

    def test_no_loop_exhaustion(self):
        w = ReplayWorkload(np.asarray([1, 2, 3]), loop=False)
        w.generate(2)
        with pytest.raises(ValueError, match="exhausted"):
            w.generate(2)

    def test_reset_rewinds(self):
        w = ReplayWorkload(np.asarray([1, 2, 3]))
        w.generate(2)
        w.reset()
        np.testing.assert_array_equal(w.generate(2), [1, 2])

    def test_universe_covers_values(self):
        w = ReplayWorkload(np.asarray([0, 1000]))
        assert 2**w.universe_log2 > 1000

    def test_rejects_empty_and_negative(self, tmp_path):
        with pytest.raises(ValueError):
            ReplayWorkload(np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError):
            ReplayWorkload(np.asarray([-1, 2]))
        with pytest.raises(FileNotFoundError):
            ReplayWorkload(tmp_path / "missing.npy")

    def test_drives_an_engine(self):
        from repro import HybridQuantileEngine

        trace = np.random.default_rng(0).integers(0, 10**6, 5000)
        w = ReplayWorkload(trace)
        engine = HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=16)
        for batch in w.batches(3, 1000):
            engine.stream_update_many(batch)
            engine.end_time_step()
        engine.stream_update_many(w.generate(1000))
        assert engine.n_total == 4000
        assert engine.quantile(0.5).value in trace
