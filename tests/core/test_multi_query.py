"""Tests for the extensions: batched quantiles and parallel latency."""

import numpy as np

from repro import (
    ClusterEngine,
    EngineConfig,
    ExactQuantiles,
    HybridQuantileEngine,
)

from ..conftest import fill_engine

PHIS = (0.1, 0.25, 0.5, 0.75, 0.9)


def build(rng, **kwargs):
    engine = HybridQuantileEngine(
        epsilon=0.02, kappa=3, block_elems=16, **kwargs
    )
    data = fill_engine(engine, rng, steps=8, batch=3000, live=3000)
    oracle = ExactQuantiles()
    oracle.update_many(data)
    return engine, oracle


class TestBatchedQuantiles:
    def test_same_answers_as_individual(self, rng):
        engine, _ = build(rng)
        batch_results = engine.quantile_many(PHIS, mode="accurate")
        for phi, result in zip(PHIS, batch_results):
            assert result.value == engine.quantile(phi).value

    def test_batch_never_dearer_than_individual(self, rng):
        engine, _ = build(rng)
        batch_io = sum(
            r.disk_accesses
            for r in engine.quantile_many(PHIS, mode="accurate")
        )
        individual_io = sum(
            engine.quantile(phi).disk_accesses for phi in PHIS
        )
        assert batch_io <= individual_io

    def test_overlapping_targets_share_blocks(self, rng):
        """Queries for nearby ranks reuse each other's blocks."""
        engine, _ = build(rng)
        nearby = (0.500, 0.5001, 0.5002, 0.5003)
        results = engine.quantile_many(nearby, mode="accurate")
        first = results[0].disk_accesses
        rest = sum(r.disk_accesses for r in results[1:])
        assert rest < first  # later searches ride the shared cache

    def test_batch_accuracy(self, rng):
        engine, oracle = build(rng)
        for result in engine.quantile_many(PHIS, mode="accurate"):
            high = oracle.rank(result.value)
            low = oracle.rank_strict(result.value) + 1
            err = max(0, low - result.target_rank, result.target_rank - high)
            assert err <= 1.5 * 0.02 * engine.m_stream + 2

    def test_batch_window(self, rng):
        engine, _ = build(rng)
        window = engine.available_window_sizes()[0]
        results = engine.quantile_many(
            (0.5,), mode="accurate", window_steps=window
        )
        assert results[0].window_steps == window


class TestParallelLatency:
    def test_parallel_never_slower_than_serial(self, rng):
        engine, _ = build(rng)
        result = engine.quantile(0.5)
        assert result.parallel_sim_seconds <= result.sim_seconds + 1e-12

    def test_parallel_positive_when_disk_touched(self, rng):
        engine, _ = build(rng)
        result = engine.quantile(0.5)
        if result.disk_accesses > 0:
            assert result.parallel_sim_seconds > 0

    def test_shared_cache_critical_path_is_per_search(self, rng):
        """With one cache shared across searches the critical path is
        each search's own deepest chain, not the cache's lifetime one."""
        engine, _ = build(rng)
        cluster = ClusterEngine(
            shards=3,
            config=EngineConfig(
                epsilon=0.02, kappa=3, block_elems=16, sketch_backend="kll"
            ),
        )
        fill_engine(cluster, rng, steps=8, batch=3000, live=3000)
        with engine.pin() as handle:
            passes = (
                engine.quantile_many(PHIS, mode="accurate"),
                handle.quantile_many(PHIS, "accurate"),
                cluster.quantile_many(PHIS, "accurate"),
            )
        for results in passes:
            assert any(r.disk_accesses > 0 for r in results)
            for result in results:
                assert (
                    0 <= result.parallel_sim_seconds <= result.sim_seconds
                )
                if result.disk_accesses > 0:
                    assert result.parallel_sim_seconds > 0
        cluster.close()

    def test_quick_mode_has_zero_parallel_cost(self, rng):
        engine, _ = build(rng)
        assert engine.quantile(0.5, mode="quick").parallel_sim_seconds == 0

    def test_parallel_speedup_with_many_partitions(self):
        """With several partitions the critical path is much shorter
        than the serial sum."""
        engine = HybridQuantileEngine(epsilon=0.02, kappa=12, block_elems=16)
        rng = np.random.default_rng(31)
        for _ in range(12):  # 12 level-0 partitions, no merges yet
            engine.stream_update_many(rng.integers(0, 10**6, 3000))
            engine.end_time_step()
        engine.stream_update_many(rng.integers(0, 10**6, 3000))
        result = engine.quantile(0.5)
        serial = result.disk_accesses
        parallel_blocks = result.parallel_sim_seconds / (
            engine.disk.latency.seconds_per_random_block
        )
        assert parallel_blocks <= serial / 2


class TestBatchedQueryTiming:
    def test_wall_seconds_is_per_query_not_cumulative(self, rng):
        """Each result reports its own wall time, so the sum over the
        batch cannot exceed the whole pass's elapsed time."""
        import time

        engine, _ = build(rng)
        started = time.perf_counter()
        results = engine.quantile_many(PHIS, mode="accurate")
        elapsed = time.perf_counter() - started
        assert sum(r.wall_seconds for r in results) <= elapsed
        assert all(r.wall_seconds >= 0.0 for r in results)

    def test_sim_seconds_prices_each_results_own_blocks(self, rng):
        """Each result's sim_seconds prices its own disk_accesses, and
        they sum to the blocks the whole pass charged."""
        engine, _ = build(rng)
        per_block = engine.disk.latency.seconds_per_random_block
        before = engine.disk.stats.counters.random_reads
        results = engine.quantile_many(PHIS, mode="accurate")
        charged = engine.disk.stats.counters.random_reads - before
        for result in results:
            assert result.sim_seconds == result.disk_accesses * per_block
        assert results[0].sim_seconds > 0.0
        assert sum(r.disk_accesses for r in results) == charged

    def test_empty_phi_list(self, rng):
        engine, _ = build(rng)
        assert engine.quantile_many([], mode="accurate") == []
