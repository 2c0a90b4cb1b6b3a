"""`quantile_many`: the batched public query entry point."""

from __future__ import annotations

import numpy as np
import pytest

from ..conftest import fill_engine


@pytest.fixture
def engine(small_engine, rng):
    fill_engine(small_engine, rng, steps=4, batch=1200, live=900)
    return small_engine


PHIS = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]


class TestQuickMode:
    def test_matches_per_phi_queries(self, engine):
        batch = engine.quantile_many(PHIS, mode="quick")
        for phi, result in zip(PHIS, batch):
            single = engine.quantile(phi, mode="quick")
            assert result.value == single.value
            assert result.target_rank == single.target_rank
            assert result.total_size == single.total_size
            assert result.mode == "quick"
            assert result.disk_accesses == 0

    def test_shares_one_ts_merge(self, engine):
        before = engine.epoch_stats.ts_merges
        engine.quantile_many(PHIS, mode="quick")
        assert engine.epoch_stats.ts_merges == before + 1

    def test_window_scope(self, engine):
        batch = engine.quantile_many([0.5, 0.9], mode="quick",
                                     window_steps=1)
        for phi, result in zip([0.5, 0.9], batch):
            single = engine.quantile(phi, mode="quick", window_steps=1)
            assert result.value == single.value
            assert result.window_steps == 1


class TestAccurateMode:
    def test_matches_one_query_per_phi(self, engine):
        batch = engine.quantile_many(PHIS, mode="accurate")
        reference = [engine.quantile(phi) for phi in PHIS]
        for got, want in zip(batch, reference):
            assert got.value == want.value
            assert got.target_rank == want.target_rank
            assert got.mode == "accurate"


class TestValidation:
    def test_invalid_mode(self, engine):
        with pytest.raises(ValueError):
            engine.quantile_many([0.5], mode="fast")

    def test_empty_phi_list_is_empty_result(self, engine):
        assert engine.quantile_many([], mode="quick") == []

    def test_empty_engine_raises(self, small_engine):
        with pytest.raises(ValueError):
            small_engine.quantile_many([0.5], mode="quick")


def test_order_preserved_with_unsorted_phis(engine):
    phis = [0.9, 0.1, 0.5]
    results = engine.quantile_many(phis, mode="quick")
    values = np.array([r.value for r in results])
    assert values[1] <= values[2] <= values[0]
