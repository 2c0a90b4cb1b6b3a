"""The skip rule is exact: a closed partition is never worth a probe.

``AccurateSearch`` stops probing a partition once its exact rank is the
same at both filters (docs/THEORY.md, "Closed partitions").  The
reference below drops that knowledge and probes every partition for
every value, which is what the search did before; on identically built
systems the two must return the same answer, and the real search may
only ever touch a subset of the reference's blocks.
"""

import numpy as np
import pytest

from repro import ClusterEngine, EngineConfig, HybridQuantileEngine
from repro.core import query_path
from repro.core.filters import AccurateSearch
from repro.query import QueryExecutor

from ..storage.read_counting import recorded_touches

PHIS = (0.02, 0.31, 0.5, 0.5004, 0.86, 0.995)


class ProbeEverything(AccurateSearch):
    """Ranks every value in every partition, whatever is known: no
    partition ever leaves the reading state."""

    def _resolve(self):
        pass


def build(shards, **overrides):
    """A fresh, identically seeded system (one per side: a shared tier
    warmed by one search would be warm for the other)."""
    config = EngineConfig(
        epsilon=0.02,
        kappa=3,
        block_elems=16,
        **overrides,
    )
    system = (
        ClusterEngine(shards=shards, config=config)
        if shards
        else HybridQuantileEngine(config=config)
    )
    rng = np.random.default_rng(41)
    for _ in range(7):
        system.stream_update_many(rng.integers(0, 10**6, 2100))
        system.end_time_step()
    system.stream_update_many(rng.integers(0, 10**6, 1200))
    return system


def partition_positions(system):
    """run id -> position of its partition in the system's layout."""
    engines = system.shards if isinstance(system, ClusterEngine) else [system]
    runs = [p.run.run_id for e in engines for p in e.store.partitions()]
    return {run_id: position for position, run_id in enumerate(runs)}


def answers(system, search_cls, monkeypatch):
    """Per phi: the result, the blocks touched and the probe tasks run."""
    monkeypatch.setattr(query_path, "AccurateSearch", search_cls)
    position = partition_positions(system)
    tasks = []
    run_tasks = QueryExecutor.run_tasks

    def counting(executor, batch, cache=None):
        tasks.append(len(batch))
        return run_tasks(executor, batch, cache)

    monkeypatch.setattr(QueryExecutor, "run_tasks", counting)
    out = []
    for phi in PHIS:
        del tasks[:]
        with recorded_touches() as touched:
            result = system.quantile(phi, mode="accurate")
        blocks = sorted((position[run_id], block) for run_id, block in touched)
        out.append((result, blocks, sum(tasks)))
    monkeypatch.undo()
    system.close()
    return out


# ("bisect" in the ids names the one endgame there is, and "w1" the one
# way probes run: inline; the ids are older than the deletion of the
# other endgame and of the probe thread pool.)
MATRIX = [
    pytest.param(
        shards,
        dict(sketch_backend=sketch, shared_cache_blocks=cache_blocks),
        id=f"{'cluster3' if shards else 'engine'}-bisect-{sketch}"
        f"-cache{cache_blocks}-w1",
    )
    for shards, sketches in ((0, ("gk", "kll")), (3, ("kll",)))
    for sketch in sketches
    for cache_blocks in (0, 128)
]


@pytest.mark.parametrize("shards, overrides", MATRIX)
def test_same_answer_from_a_subset_of_the_blocks(shards, overrides, monkeypatch):
    reference = answers(build(shards, **overrides), ProbeEverything, monkeypatch)
    real = answers(build(shards, **overrides), AccurateSearch, monkeypatch)
    for (want, want_blocks, want_tasks), (got, got_blocks, got_tasks) in zip(
        reference, real
    ):
        assert got.value == want.value
        assert got.estimated_rank == want.estimated_rank
        assert got.iterations == want.iterations
        assert got.target_rank == want.target_rank
        assert got.rank_error_bound == want.rank_error_bound
        assert got.disk_accesses <= want.disk_accesses
        assert set(got_blocks) <= set(want_blocks)
        assert got_tasks <= want_tasks
    # The rule bites: fewer partition probes over the same phis.
    assert sum(r[2] for r in real) < sum(r[2] for r in reference)


@pytest.mark.parametrize(
    "block_cache",
    [pytest.param(True, id="True-bisect"), pytest.param(False, id="False-bisect")],
)
def test_probe_budget_truncates_no_earlier(block_cache, monkeypatch):
    overrides = dict(block_cache=block_cache, probe_budget=6)
    reference = answers(build(0, **overrides), ProbeEverything, monkeypatch)
    real = answers(build(0, **overrides), AccurateSearch, monkeypatch)
    assert any(want.truncated for want, _, _ in reference)
    for (want, _, _), (got, _, _) in zip(reference, real):
        assert got.iterations >= want.iterations
        assert want.truncated or not got.truncated
        if block_cache:
            # With the cache on a skipped probe was free anyway: the
            # budget is spent identically and so is the answer.
            assert (got.value, got.iterations, got.disk_accesses) == (
                want.value, want.iterations, want.disk_accesses
            )
