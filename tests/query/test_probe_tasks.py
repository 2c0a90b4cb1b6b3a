"""The probe tasks the accurate search builds and the executor runs.

Every task of an accurate query or a warming pass reaches
:meth:`QueryExecutor.run_tasks`, so wrapping it shows each task exactly
as it ran.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import EngineConfig, HybridQuantileEngine
from repro.core.filters import PrefetchTask, RankProbeTask, prefetch_tasks
from repro.query import QueryExecutor
from repro.storage.cache import BlockCache

PHIS = (0.01, 0.3, 0.5, 0.77, 0.99)


@pytest.fixture(params=[0, 256], ids=["no-shared-tier", "shared-tier"])
def engine(request):
    """Nine sealed steps, the eighth of them empty (an empty partition
    between two others), and a live stream; with a shared tier the
    search and ``warm`` also prefetch."""
    engine = HybridQuantileEngine(
        config=EngineConfig(
            epsilon=0.05,
            kappa=3,
            block_elems=16,
            shared_cache_blocks=request.param,
        )
    )
    rng = np.random.default_rng(12345)
    for step in range(9):
        if step != 7:
            engine.stream_update_many(rng.integers(0, 10**6, 600))
        engine.end_time_step()
    engine.stream_update_many(rng.integers(0, 10**6, 400))
    assert any(len(p) == 0 for p in engine.store.partitions())
    yield engine
    engine.close()


def nonempty(engine):
    return [p for p in engine.store.partitions() if len(p) > 0]


def run_queries(engine, monkeypatch):
    """Per accurate query, each task list the executor ran, in order."""
    queries = []
    run_tasks = QueryExecutor.run_tasks

    def recording(executor, tasks, cache):
        queries[-1].append(list(tasks))
        return run_tasks(executor, tasks, cache)

    monkeypatch.setattr(QueryExecutor, "run_tasks", recording)
    for phi in PHIS:
        queries.append([])
        engine.quantile(phi, mode="accurate")
    return queries


def rank_probes(queries):
    """Per query, its lists of rank probes (prefetch lists dropped)."""
    return [
        [tasks for tasks in query if isinstance(tasks[0], RankProbeTask)]
        for query in queries
    ]


class TestRankProbeTasks:
    def test_one_task_per_nonempty_partition_in_store_order(
        self, engine, monkeypatch
    ):
        position = {id(p): i for i, p in enumerate(nonempty(engine))}
        unread = 0
        for query in run_queries(engine, monkeypatch):
            if isinstance(query[0][0], RankProbeTask):
                # A probe before any read reads every partition ...
                assert [position[id(t.partition)] for t in query[0]] == list(
                    range(len(position))
                )
                unread += 1
            # ... and every probe those still reading, in store order.
            for tasks in rank_probes([query])[0]:
                order = [position[id(t.partition)] for t in tasks]
                assert order == sorted(set(order))
        if engine.shared_cache is None:
            assert unread == len(PHIS)

    def test_bounds_come_from_the_summary(self, engine, monkeypatch):
        probed = 0
        for probes in rank_probes(run_queries(engine, monkeypatch)):
            for tasks in probes:
                for task in tasks:
                    summary = task.partition.summary
                    # A carried alpha is the one a fresh search finds.
                    assert task.alpha == summary.alpha(task.value)
                    assert (task.lo, task.hi) == summary.bracket(
                        task.alpha, task.alpha
                    )
                    assert (task.lo, task.hi) == summary.search_bounds(
                        task.value
                    )
                    probed += 1
        assert probed > 0

    def test_task_run_matches_searchsorted(self, engine, monkeypatch):
        for probes in rank_probes(run_queries(engine, monkeypatch)):
            for task in (t for tasks in probes for t in tasks):
                values = task.partition.run.values
                assert task.run(BlockCache(engine.disk)) == int(
                    np.searchsorted(values, task.value, "right")
                )

    def test_no_task_for_an_empty_partition(self, engine, monkeypatch):
        queries = run_queries(engine, monkeypatch)
        queries.append([])
        engine.warm_shared_cache(PHIS)
        if engine.shared_cache is not None:
            assert queries[-1], "the warming pass prefetched nothing"
            assert all(
                isinstance(t, PrefetchTask) for ts in queries[-1] for t in ts
            )
        tasks = [t for query in queries for ts in query for t in ts]
        assert all(len(t.partition) > 0 for t in tasks)


class TestPrefetchTasks:
    def test_a_range_wider_than_max_blocks_yields_no_task(self, engine):
        partitions = nonempty(engine)
        spans = {
            id(p): p.run.disk.block_of(len(p) - 1) + 1 for p in partitions
        }
        # Filters below and above every element: each partition's
        # candidate range is its whole run.
        u, v = -1, 10**6
        edges = {edge for span in spans.values() for edge in (span - 1, span)}
        for max_blocks in sorted(edges):
            tasks = prefetch_tasks(partitions, u, v, max_blocks)
            assert [
                (id(t.partition), t.first_block, t.last_block) for t in tasks
            ] == [
                (id(p), 0, spans[id(p)] - 1)
                for p in partitions
                if spans[id(p)] <= max_blocks
            ]
        assert prefetch_tasks(partitions, u, v, 1) == []
