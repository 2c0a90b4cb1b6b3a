"""Accurate-search work guard, in counts (no pytest-benchmark, no clock).

An accurate query is priced in block reads; this guard keeps the work
the program really does in line with that price, on the two shapes the
benchmark times accurate queries on:

* the ``query_heavy`` shape — simulated disk, 40 sealed steps of
  100 000 (13 partitions, eps 1e-3) under 50 000 live elements;
* a cold object tier — every merged level in the bucket, shared cache
  tier and prefetch on, as ``mixed_serving`` runs.

Per accurate query it counts ``read_blocks`` calls on the run handles
(real bytes: on the object tier each is an open + seek + read of the
bucket object), the distinct blocks the query's cache touched, the
rank-probe tasks the executor ran and the partition summaries it
searched.  Three floors, all seeded counts, so a slow runner cannot
trip them:

* backend fetches <= distinct blocks touched — the per-query cache
  pins the bytes it charged for (it was 2 547 fetches for 14 blocks);
* rank probes <= 1/8 of ``iterations x partitions`` on the
  ``query_heavy`` shape and <= 0.15 of it on the cold object tier — a
  partition is probed only while one of its blocks is unread: once the
  query has pinned every block of its index range (or it is ranked the
  same at both filters) it is ranked from the pinned bytes (121.2 and
  35.4 probes per query before that, of 378.6 and 58.1);
* summary searches (``PartitionSummary.alpha``) <= ``3 x partitions +
  iterations`` per query on the ``query_heavy`` shape — one per
  partition for the first probe and for each unprobed filter end, then
  only where the alphas carried at the two filters differ (it was one
  per probe: 121).
"""

import numpy as np

from repro import EngineConfig, HybridQuantileEngine
from repro.core.summaries import PartitionSummary
from repro.query import QueryExecutor
from repro.query.planner import RankProbeTask
from tests.storage.read_counting import counted_block_reads, recorded_touches

QUERIES = 40


def _phis(rng):
    grid = (np.arange(QUERIES) + rng.uniform(0, 1, QUERIES)) / QUERIES
    return 0.01 + 0.98 * rng.permutation(grid)


def _measure(engine, phis):
    """Totals over ``phis``: fetch calls, touched blocks, probes, budget
    (iterations x partitions), summary searches, iterations."""
    partitions = engine.store.partition_count()
    probes, searches = [], []
    run_tasks, alpha = QueryExecutor.run_tasks, PartitionSummary.alpha

    def counting(executor, tasks, cache=None):
        probes.append(sum(isinstance(t, RankProbeTask) for t in tasks))
        return run_tasks(executor, tasks, cache)

    def counting_alpha(summary, value):
        searches.append(1)
        return alpha(summary, value)

    QueryExecutor.run_tasks = counting
    PartitionSummary.alpha = counting_alpha
    fetches = touched_blocks = budget = iterations = 0
    try:
        for phi in phis:
            with counted_block_reads() as reads, recorded_touches() as touched:
                result = engine.quantile(float(phi), mode="accurate")
            assert len(reads) == len(set(reads)), "a block was fetched twice"
            assert reads.calls <= len(set(touched))
            fetches += reads.calls
            touched_blocks += len(set(touched))
            budget += result.iterations * partitions
            iterations += result.iterations
    finally:
        QueryExecutor.run_tasks = run_tasks
        PartitionSummary.alpha = alpha
    return fetches, touched_blocks, sum(probes), budget, len(searches), iterations


def _report(
    name, probe_share, partitions,
    fetches, touched, probes, budget, searches, iterations,
):
    print(
        f"\n{name}: {partitions} partitions, per accurate query "
        f"{fetches / QUERIES:.1f} backend fetches for "
        f"{touched / QUERIES:.1f} blocks touched, "
        f"{probes / QUERIES:.1f} rank probes of "
        f"{budget / QUERIES:.1f} (iterations x partitions), "
        f"{searches / QUERIES:.1f} summary searches over "
        f"{iterations / QUERIES:.1f} iterations"
    )
    assert 0 < fetches <= touched
    assert probes <= probe_share * budget
    return searches, iterations


def test_query_heavy_shape():
    rng = np.random.default_rng(7)
    with HybridQuantileEngine(
        config=EngineConfig(epsilon=1e-3, kappa=10)
    ) as engine:
        for _ in range(40):
            engine.stream_update_many(rng.integers(0, 1 << 40, 100_000))
            engine.end_time_step()
        engine.stream_update_many(rng.integers(0, 1 << 40, 50_000))
        partitions = engine.store.partition_count()
        assert partitions == 13
        searches, iterations = _report(
            "query_heavy shape", 1 / 8, partitions, *_measure(engine, _phis(rng))
        )
        assert searches <= 3 * partitions * QUERIES + iterations


def test_cold_object_tier(tmp_path):
    rng = np.random.default_rng(11)
    config = EngineConfig(
        epsilon=1e-3,
        kappa=4,
        storage_backend="object",
        storage_dir=str(tmp_path / "runs"),
        object_tier_level=1,
        shared_cache_blocks=64,  # small: most first touches stay cold
    )
    with HybridQuantileEngine(config=config) as engine:
        for _ in range(22):
            engine.stream_update_many(
                rng.normal(1e8, 1e7, 60_000).astype(np.int64)
            )
            engine.end_time_step()
        engine.stream_update_many(rng.normal(1e8, 1e7, 30_000).astype(np.int64))
        assert engine.disk.backend.stats().object_runs >= 2
        partitions = engine.store.partition_count()
        _report(
            "cold object tier", 0.15, partitions, *_measure(engine, _phis(rng))
        )
