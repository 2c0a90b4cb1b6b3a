"""Tests for the pure-streaming baseline."""

import numpy as np
import pytest

from repro import ExactQuantiles, PureStreamingEngine
from repro.sketches import GKSketch, QDigestSketch
from repro.baselines import make_sketch


class TestMakeSketch:
    def test_kinds(self):
        assert isinstance(make_sketch("gk", 0.1), GKSketch)
        assert isinstance(make_sketch("qdigest", 0.1), QDigestSketch)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_sketch("hyperloglog", 0.1)


class TestPureStreamingEngine:
    def _run(self, kind="gk", epsilon=0.02, steps=4, batch=2000):
        rng = np.random.default_rng(5)
        engine = PureStreamingEngine(
            kind=kind, epsilon=epsilon, kappa=3, block_elems=10,
            universe_log2=20,
        )
        oracle = ExactQuantiles()
        for _ in range(steps):
            data = rng.integers(0, 2**20, batch)
            engine.stream_update_many(data)
            oracle.update_many(data)
            engine.end_time_step()
        live = rng.integers(0, 2**20, batch)
        engine.stream_update_many(live)
        oracle.update_many(live)
        return engine, oracle

    def test_error_scales_with_n(self):
        epsilon = 0.02
        engine, oracle = self._run(epsilon=epsilon)
        result = engine.quantile(0.5)
        high = oracle.rank(result.value)
        low = oracle.rank_strict(result.value) + 1
        err = max(0, low - result.target_rank, result.target_rank - high)
        assert err <= epsilon * engine.n_total + 1

    def test_sketch_survives_time_steps(self):
        engine, _ = self._run()
        assert engine.sketch.n == engine.n_total == 10_000

    def test_qdigest_variant(self):
        engine, oracle = self._run(kind="qdigest")
        result = engine.quantile(0.5)
        high = oracle.rank(result.value)
        low = oracle.rank_strict(result.value) + 1
        err = max(0, low - result.target_rank, result.target_rank - high)
        assert err <= 0.02 * engine.n_total + 1

    def test_no_query_disk_accesses(self):
        engine, _ = self._run()
        assert engine.quantile(0.5).disk_accesses == 0

    def test_update_io_matches_hybrid_schedule_without_sort(self):
        """Load writes plus leveled merges, no sorting."""
        rng = np.random.default_rng(6)
        engine = PureStreamingEngine(
            kind="gk", epsilon=0.05, kappa=2, block_elems=10
        )
        reports = []
        for _ in range(3):
            engine.stream_update_many(rng.integers(0, 100, 1000))
            reports.append(engine.end_time_step())
        assert reports[0].io_total == 100
        assert reports[0].io_sort == 0
        # third step: merge 2 x 100 blocks (read+write) + load 100
        assert reports[2].io_merge == 400
        assert reports[2].io_total == 500

    def test_memory_words(self):
        engine, _ = self._run()
        assert engine.memory_words() == engine.sketch.memory_words()
