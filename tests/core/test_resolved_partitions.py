"""Resolved means unobservable.

``AccurateSearch`` stops planning and probing a partition once every
block of its window is pinned by the query: the indices between the
exact ranks its probes carried at the filters, or its summary bracket
(docs/THEORY.md, "Resolved partitions"), ranking it from the bytes it
holds instead.  Every probe it skips would have been answered from a
pinned block, so nothing outside the search may tell the difference:
against a reference in which no partition ever leaves the reading state
(``test_skip_rule.ProbeEverything``), on identically built systems, the
answer, the iteration count, the charged blocks, the ``(run, block)``
touches and the backend fetches must all be *equal* — only the number
of probe tasks may fall.
"""

from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ClusterEngine, EngineConfig, HybridQuantileEngine
from repro.core import query_path
from repro.core.filters import AccurateSearch
from repro.faults import FaultPlan, FaultyDisk
from repro.query import QueryExecutor
from repro.storage import SortedRun

from ..storage.read_counting import counted_block_reads, recorded_touches
from .test_skip_rule import MATRIX, PHIS, ProbeEverything, partition_positions


class ClosesOnly(AccurateSearch):
    """Retires closed partitions but never one for its pinned blocks:
    the search as it was before partitions could resolve."""

    def _resolve(self):
        pinned_range = SortedRun.pinned_range
        SortedRun.pinned_range = lambda run, lo, hi, cache: None
        try:
            super()._resolve()
        finally:
            SortedRun.pinned_range = pinned_range


def build(shards=0, steps=7, step=2100, universe=10**6, seed=41, disk=None,
          **overrides):
    """A fresh, identically seeded system (one per side: a shared tier
    warmed by one search would be warm for the other)."""
    config = EngineConfig(
        **{"epsilon": 0.02, "kappa": 3, "block_elems": 16, **overrides}
    )
    if shards:
        system = ClusterEngine(shards=shards, config=config)
    else:
        system = HybridQuantileEngine(config=config, disk=disk)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        system.stream_update_many(rng.integers(0, universe, step))
        system.end_time_step()
    system.stream_update_many(rng.integers(0, universe, max(1, step // 2)))
    return system


@contextmanager
def searching_with(search_cls):
    """Route accurate queries through ``search_cls``; yields the list of
    task-batch sizes the executor ran."""
    batches = []
    search, run_tasks = query_path.AccurateSearch, QueryExecutor.run_tasks

    def counting(executor, tasks, cache=None):
        batches.append(len(tasks))
        return run_tasks(executor, tasks, cache)

    query_path.AccurateSearch = search_cls
    QueryExecutor.run_tasks = counting
    try:
        yield batches
    finally:
        query_path.AccurateSearch = search
        QueryExecutor.run_tasks = run_tasks


def transcript(system, search_cls, phis=PHIS, scopes=({},)):
    """Per (scope, phi): everything observable about the answer, and the
    probe tasks it took.  Closes the system."""
    position = partition_positions(system)
    observed, tasks = [], []
    with searching_with(search_cls) as batches:
        for scope in scopes:
            for phi in phis:
                del batches[:]
                with counted_block_reads() as reads:
                    with recorded_touches() as touched:
                        result = system.quantile(phi, mode="accurate", **scope)
                observed.append((
                    result.value,
                    result.estimated_rank,
                    result.iterations,
                    result.truncated,
                    result.degraded,
                    result.disk_accesses,
                    # Sorted: the contract is which blocks are read, not
                    # the order a search reads them in.  Lists, not
                    # sets: with the cache off a block is touched once
                    # per probe.
                    sorted((position[run], block) for run, block in touched),
                    sorted((position[run], block) for run, block in reads),
                    reads.calls,
                ))
                tasks.append(sum(batches))
    system.close()
    return observed, tasks


def assert_unobservable(make, reference=ProbeEverything, **kwargs):
    want, want_tasks = transcript(make(), reference, **kwargs)
    got, got_tasks = transcript(make(), AccurateSearch, **kwargs)
    assert got == want
    assert all(g <= w for g, w in zip(got_tasks, want_tasks))
    return got, got_tasks, want_tasks


@pytest.mark.parametrize("shards, overrides", MATRIX)
def test_skip_rule_matrix(shards, overrides):
    got, got_tasks, want_tasks = assert_unobservable(
        lambda: build(shards, **overrides)
    )
    assert any(blocks for *_, blocks, _, _ in got)
    assert sum(got_tasks) < sum(want_tasks)


CELLS = {
    # Summary gaps of several blocks: brackets are never fully pinned.
    "block4": dict(block_elems=4),
    "block4-shared": dict(block_elems=4, shared_cache_blocks=128),
    "duplicates": dict(universe=40),
    "tiny-partitions": dict(step=3, steps=9, block_elems=4),
    "tiny-partitions-cluster": dict(
        shards=3, step=9, steps=9, block_elems=4, sketch_backend="kll"
    ),
    "wide-universe": dict(universe=1 << 40, sketch_backend="kll"),
    "budget": dict(probe_budget=6),
    "no-prefetch": dict(shared_cache_blocks=128, prefetch_blocks=0),
    # A partition closes with part of a narrow bracket unread, and the
    # prefetch of the same iteration still reads the rest of it.
    "prefetch-a-closed-partition": dict(
        shards=3, step=4000, steps=9, block_elems=4, shared_cache_blocks=64,
        sketch_backend="kll",
    ),
    # Summary gaps inside one block: most partitions resolve at once.
    "block128": dict(block_elems=128),
    "block128-shared": dict(block_elems=128, shared_cache_blocks=128),
    "block128-cluster": dict(
        block_elems=128, shards=3, sketch_backend="kll"
    ),
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_unobservable_on(cell):
    assert_unobservable(lambda: build(**CELLS[cell]))


def test_resolving_is_what_saves_the_probes():
    closes_only = transcript(build(**CELLS["block128"]), ClosesOnly)[1]
    real = transcript(build(**CELLS["block128"]), AccurateSearch)[1]
    assert 3 * sum(real) <= sum(closes_only)


@pytest.mark.parametrize("cell", ["block4", "wide-universe", "no-prefetch"])
def test_exact_ranks_retire_what_the_summary_cannot(cell):
    # Summary gaps wider than the blocks a query reads: without a
    # prefetch, the ranks the probes carried bound the window instead.
    _, got_tasks, want_tasks = assert_unobservable(
        lambda: build(**CELLS[cell])
    )
    assert 3 * sum(got_tasks) <= sum(want_tasks)


# ("1-bisect" in the ids: one inline prober, one endgame; the ids are
# older than the deletion of the alternatives.)
@pytest.mark.parametrize(
    "block_elems", [16, 128], ids=lambda block_elems: f"{block_elems}-1-bisect"
)
def test_object_backend_with_shared_tier_and_prefetch(block_elems, tmp_path):
    made = []

    def make():
        made.append(None)
        system = build(
            storage_backend="object",
            storage_dir=str(tmp_path / f"runs{len(made)}"),
            object_tier_level=1,
            shared_cache_blocks=64,
            block_elems=block_elems,
        )
        assert system.disk.backend.stats().object_runs >= 1
        return system

    assert_unobservable(make)


def test_window_and_step_range_scopes():
    probe = build()
    parts = probe.store.partitions()
    last = parts[-1].end_step
    scopes = [{}]
    scopes += [
        {"window_steps": last - p.start_step + 1} for p in parts[1:]
    ]
    scopes += [
        {"step_range": (parts[0].start_step, p.end_step)} for p in parts[:-1]
    ]
    probe.close()
    assert len(scopes) >= 4
    assert_unobservable(build, scopes=scopes)


@pytest.mark.parametrize("block_cache", [pytest.param(False, id="bisect")])
def test_nothing_resolves_with_the_block_cache_off(block_cache):
    # pins() is false: the search is the closed-partition rule alone,
    # probe for probe.
    _, got_tasks, want_tasks = assert_unobservable(
        partial(build, block_cache=block_cache),
        reference=ClosesOnly,
    )
    assert got_tasks == want_tasks


@settings(max_examples=30, deadline=None)
@given(
    step=st.integers(1, 300),
    steps=st.integers(2, 9),
    universe=st.sampled_from([8, 40, 1000, 10**6, 1 << 40]),
    block_elems=st.sampled_from([4, 16, 128]),
    shared=st.sampled_from([0, 32]),
    seed=st.integers(0, 2**16),
    phis=st.lists(st.floats(0.001, 0.999), min_size=1, max_size=3),
)
def test_random_step_sizes_and_universes(
    step, steps, universe, block_elems, shared, seed, phis
):
    assert_unobservable(
        lambda: build(
            step=step, steps=steps, universe=universe, seed=seed,
            block_elems=block_elems, shared_cache_blocks=shared,
        ),
        phis=phis,
    )


@pytest.mark.usefixtures("no_backoff")
@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("shared", [0, 128])
def test_same_faults_same_retries_same_degradation(seed, shared):
    """A resolved probe consumes no disk operation, so a seeded fault
    plan fires at the same operations on both sides."""

    def faulted(search_cls):
        disk = FaultyDisk(FaultPlan(seed=seed), block_elems=64)
        system = build(
            disk=disk, shared_cache_blocks=shared, block_elems=64,
        )
        # A probe is lost when PROBE_RETRY_POLICY's four attempts all
        # fault (0.6 ** 4, about one probe in eight); these schedules
        # degrade one to four of the six queries, never none or all.
        disk.plan = FaultPlan(seed=seed + 1, read_error_rate=0.6)
        before = disk.operations
        executor = system.query_executor
        observed = transcript(system, search_cls)
        return (
            observed[0],
            executor.fault_retries,
            disk.faults_fired,
            disk.operations - before,
        )

    want = faulted(ProbeEverything)
    got = faulted(AccurateSearch)
    assert got == want
    degraded = [row[4] for row in got[0]]
    assert any(degraded) and not all(degraded)
    assert got[1] > 0
