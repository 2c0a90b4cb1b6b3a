"""Engine- and cluster-level quick answers pin nothing.

Algorithm 5 reads TS alone, and a TS fused from one consistent (layout,
stream) reading never changes, so ``quantile`` / ``query_rank`` /
``quantile_many`` in quick mode take no registry refcount and no
backend run pin: the engine reads the pair under its seal lock as
``pin()`` does, and a cluster reads the gather it holds while every
live shard would pin what it holds.  Each answer must still equal the
pinned path's on every field but ``wall_seconds``.
"""

import dataclasses

import numpy as np
import pytest

from repro.cluster import ClusterEngine
from repro.core.bounds import widen_rank_bound
from repro.core.config import EngineConfig
from repro.core.engine import HybridQuantileEngine
from repro.core.epoch import EpochRegistry

PHIS = (0.01, 0.25, 0.5, 0.75, 0.99)


def fields(result):
    row = dataclasses.asdict(result)
    row.pop("wall_seconds")
    return row


def quick_answers(system, scopes):
    """Every quick door over each scope, in a fixed order."""
    results = []
    for scope in scopes:
        results += [system.quantile(phi, "quick", **scope) for phi in PHIS]
        if "step_range" not in scope:
            results += system.quantile_many(list(PHIS), "quick", **scope)
        results.append(system.query_rank(1234, "quick", **scope))
    return results


def scopes_of(engine):
    """Full scope, the widest window and the whole historical range."""
    scopes = [{}]
    windows = engine.available_window_sizes()
    if windows:
        scopes.append({"window_steps": windows[-1]})
        scopes.append({"step_range": (1, engine.steps_sealed)})
    return scopes


def schedule(engine, rng, steps=6):
    """Appends and seals, yielding after every write."""
    for step in range(steps):
        for _ in range(2):
            engine.stream_update_many(rng.integers(0, 10**6, 300))
            yield
        if step % 2 == 1:
            engine.stream_update(int(rng.integers(0, 10**6)))
            yield
        engine.end_time_step()
        yield


def test_a_quick_only_schedule_pins_nothing():
    config = EngineConfig(
        epsilon=0.05, kappa=2, block_elems=16, ingest_mode="background"
    )
    with HybridQuantileEngine(config=config) as engine:
        for turn, _ in enumerate(schedule(engine, np.random.default_rng(3))):
            if turn % 4 == 3:
                engine.flush()  # adopt every staged batch
            quick_answers(engine, scopes_of(engine))
        stats = engine.epoch_stats
        assert stats.adopt_bumps > 0 and stats.seal_bumps > 0
        assert (stats.peak_pins, stats.live_pins) == (0, 0)


@pytest.mark.parametrize("ingest_mode", ["sync", "background"])
def test_each_quick_answer_is_the_pinned_answer(ingest_mode):
    config = EngineConfig(
        epsilon=0.05, kappa=2, block_elems=16, ingest_mode=ingest_mode
    )
    with HybridQuantileEngine(config=config) as engine:
        for _ in schedule(engine, np.random.default_rng(4)):
            engine.flush()  # no adoption between the two readings
            scopes = scopes_of(engine)
            merges = engine.epoch_stats.ts_merges
            got = quick_answers(engine, scopes)
            # One counted TS resolution per quick call (a step range has
            # no batched door).
            calls = len(scopes) * (len(PHIS) + 2) - (len(scopes) > 1)
            assert engine.epoch_stats.ts_merges - merges == calls
            with engine.pin() as handle:
                expected = quick_answers(handle, scopes)
            assert [fields(r) for r in got] == [fields(r) for r in expected]


# -- clusters ------------------------------------------------------------------


def make_cluster(**overrides):
    config = EngineConfig(
        epsilon=0.02, kappa=3, block_elems=64, sketch_backend="kll",
        **overrides,
    )
    cluster = ClusterEngine(shards=3, config=config)
    rng = np.random.default_rng(7)
    for _ in range(4):
        cluster.stream_update_many(rng.integers(0, 10**6, 1500))
        cluster.end_time_step()
    cluster.stream_update_many(rng.integers(0, 10**6, 400))
    return cluster


def pin_counters(cluster):
    return [
        (s.epoch_stats.live_pins, s.epoch_stats.peak_pins)
        for s in cluster.shards
        if s is not None
    ]


def spy_pins(monkeypatch):
    calls = []
    original = EpochRegistry.pin

    def pin(registry, epoch):
        calls.append(epoch)
        return original(registry, epoch)

    monkeypatch.setattr(EpochRegistry, "pin", pin)
    return calls


def test_a_cluster_quick_hit_leaves_every_pin_counter(monkeypatch):
    with make_cluster() as cluster:
        cluster.quantile(0.5, "quick")  # a miss: pins once, keeps the gather
        scopes = [{}, {"window_steps": cluster.available_window_sizes()[0]}]
        before = pin_counters(cluster)
        pins = spy_pins(monkeypatch)
        got = quick_answers(cluster, scopes)
        assert pins == [] and pin_counters(cluster) == before
        with cluster.pin() as view:
            expected = quick_answers(view, scopes)
        assert [fields(r) for r in got] == [fields(r) for r in expected]


def test_a_quarantined_shard_widens_a_quick_hit_as_a_pin_does(monkeypatch):
    with make_cluster(min_gather_shards=1) as cluster:
        cluster.kill_shard(1, "chaos")
        cluster.quantile(0.5, "quick")
        pins = spy_pins(monkeypatch)
        got = quick_answers(cluster, [{}])
        assert pins == []
        with cluster.pin() as view:
            expected = quick_answers(view, [{}])
        assert [fields(r) for r in got] == [fields(r) for r in expected]
        lost = cluster._shard_elems[1]
        for result in got:
            partial = result.partial
            assert partial.missing_shards == (1,)
            assert partial.missing_elements == lost
            assert partial.shards_answering == 2
            assert result.rank_error_bound == widen_rank_bound(
                partial.base_bound, lost
            )
