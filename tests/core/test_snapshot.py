"""Tests for consistent read snapshots (``engine.pin()``)."""

import numpy as np
import pytest

from repro import ExactQuantiles, HybridQuantileEngine

from ..conftest import fill_engine


def build(rng):
    engine = HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=16)
    data = fill_engine(engine, rng, steps=5, batch=1500, live=1500)
    return engine, data


class TestSnapshot:
    def test_matches_engine_at_creation(self, rng):
        engine, _ = build(rng)
        view = engine.pin()
        for phi in (0.1, 0.5, 0.9):
            for mode in ("quick", "accurate"):
                assert (
                    view.quantile(phi, mode=mode).value
                    == engine.quantile(phi, mode=mode).value
                )

    def test_immune_to_later_ingestion(self, rng):
        engine, data = build(rng)
        view = engine.pin()
        before = view.quantile(0.5).value
        # shift the engine's distribution drastically
        engine.stream_update_many(np.full(50_000, 10**9))
        assert view.quantile(0.5).value == before
        assert view.n_total == len(data)
        assert engine.quantile(0.5).value != before

    def test_immune_to_merges(self, rng):
        engine, data = build(rng)
        view = engine.pin()
        before = [view.quantile(phi).value for phi in (0.25, 0.5, 0.75)]
        # trigger several merge cascades
        for _ in range(9):
            engine.stream_update_many(rng.integers(0, 10**6, 1500))
            engine.end_time_step()
        after = [view.quantile(phi).value for phi in (0.25, 0.5, 0.75)]
        assert before == after

    def test_accuracy_guarantee_holds(self, rng):
        engine, data = build(rng)
        oracle = ExactQuantiles()
        oracle.update_many(data)
        view = engine.pin()
        engine.stream_update_many(rng.integers(0, 10**6, 5000))
        result = view.quantile(0.5)
        high = oracle.rank(result.value)
        low = oracle.rank_strict(result.value) + 1
        err = max(0, low - result.target_rank, result.target_rank - high)
        assert err <= 1.5 * 0.05 * view.m_stream + 2

    def test_batch_quantiles_consistent(self, rng):
        engine, _ = build(rng)
        view = engine.pin()
        results = view.quantile_many((0.25, 0.5, 0.75), mode="accurate")
        assert len(results) == 3
        values = [r.value for r in results]
        assert values == sorted(values)

    def test_empty_snapshot_raises(self):
        engine = HybridQuantileEngine(epsilon=0.1)
        view = engine.pin()
        with pytest.raises(ValueError):
            view.quantile(0.5)

    def test_invalid_mode(self, rng):
        engine, _ = build(rng)
        view = engine.pin()
        with pytest.raises(ValueError):
            view.query_rank(1, mode="psychic")

    def test_engine_snapshot_helper(self, rng):
        engine, _ = build(rng)
        with engine.pin() as view:
            assert view.created_at_step == engine.steps_loaded
