"""Unit tests for the query planner's per-partition task generation."""

from __future__ import annotations

import pytest

from repro.query import QueryPlanner
from repro.storage.cache import BlockCache

from ..conftest import fill_engine


@pytest.fixture
def loaded_engine(small_engine, rng):
    fill_engine(small_engine, rng, steps=7, batch=600, live=400)
    return small_engine


class TestRankProbes:
    def test_one_task_per_nonempty_partition(self, loaded_engine):
        partitions = loaded_engine.store.partitions()
        planner = QueryPlanner(partitions)
        tasks = planner.rank_probes(500_000)
        assert len(tasks) == sum(1 for p in partitions if len(p) > 0)
        assert [t.partition for t in tasks] == [
            p for p in partitions if len(p) > 0
        ]

    def test_bounds_come_from_the_summary(self, loaded_engine):
        partitions = loaded_engine.store.partitions()
        planner = QueryPlanner(partitions)
        value = 123_456
        for task in planner.rank_probes(value):
            lo, hi = task.partition.summary.search_bounds(value)
            assert (task.lo, task.hi) == (lo, hi)
            assert task.value == value

    def test_task_run_matches_direct_rank_of(self, loaded_engine):
        partitions = loaded_engine.store.partitions()
        planner = QueryPlanner(partitions)
        disk = loaded_engine.disk
        for value in (0, 250_000, 999_999):
            for task in planner.rank_probes(value):
                cache = BlockCache(disk)
                got = task.run(cache)
                assert got == task.partition.run.in_memory_rank(value)

    def test_empty_partitions_are_dropped(self, loaded_engine):
        partitions = loaded_engine.store.partitions()
        planner = QueryPlanner(partitions)
        assert all(len(p) > 0 for p in planner.partitions)
