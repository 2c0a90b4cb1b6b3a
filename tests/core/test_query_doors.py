"""Door parity: every way into a query runs the one query path.

``engine.query_rank``, ``engine.pin().query_rank``, a 1-shard
``ClusterEngine`` and a ``ClusterSnapshot`` over one pinned handle are
scope builders in front of ``repro.core.query_path``; on the same data
they must return the same ``QueryResult``, field for field.
"""

import threading
import time
from dataclasses import fields
from functools import cached_property

import numpy as np
import pytest

from repro import (
    ClusterEngine,
    ClusterSnapshot,
    EngineConfig,
    FaultPlan,
    FaultyDisk,
    HybridQuantileEngine,
    QueryResult,
    TransientReadError,
)
from repro.core.bounds import CombinedSummary

PHIS = (0.1, 0.5, 0.5003, 0.9)
DOORS = ("engine", "handle", "cluster", "cluster_snapshot")

CONFIGS = [
    pytest.param(
        dict(
            sketch_backend=sketch,
            ingest_mode=ingest,
            shared_cache_blocks=cache_blocks,
        ),
        id=f"{sketch}-{ingest}-cache{cache_blocks}",
    )
    for sketch in ("gk", "kll")
    for ingest in ("sync", "background")
    for cache_blocks in (0, 64)
]


def same(a: QueryResult, b: QueryResult) -> bool:
    """Equal on every field but the measured ``wall_seconds``."""
    return all(
        getattr(a, f.name) == getattr(b, f.name)
        for f in fields(QueryResult)
        if f.name != "wall_seconds"
    )


class Door:
    """One door onto its own freshly built, identically seeded system.

    A system per door, not four doors onto one engine: with a shared
    cache tier the first door's probes would warm the next door's.
    """

    def __init__(self, name, disk=None, **overrides):
        config = EngineConfig(
            epsilon=0.02,
            kappa=3,
            block_elems=16,
            **overrides,
        )
        self.engine = HybridQuantileEngine(config=config, disk=disk)
        self.cluster = (
            ClusterEngine(shards=1, config=config, engines=[self.engine])
            if name == "cluster"
            else None
        )
        feed = self.cluster or self.engine
        rng = np.random.default_rng(17)
        for step in range(5):
            if step == 4 and config.ingest_mode == "background":
                # The last sealed batch stays pending: queries stage it.
                self.engine.flush()
                self.engine._ensure_archiver().pause()
            feed.stream_update_many(rng.integers(0, 10**6, 1500))
            feed.end_time_step()
        feed.stream_update_many(rng.integers(0, 10**6, 700))
        self._views = []
        if name == "engine":
            self.view = self.engine
        elif name == "cluster":
            self.view = self.cluster
        else:
            handle = self.engine.pin()
            self._views.append(handle)
            self.view = (
                handle
                if name == "handle"
                else ClusterSnapshot(
                    [handle], config, self.engine.query_executor
                )
            )

    def close(self):
        for view in self._views:
            view.release()
        if self.engine.ingest_stats is not None:
            self.engine._ensure_archiver().resume()
        (self.cluster or self.engine).close()


@pytest.fixture
def doors():
    opened = []

    def open_doors(disks=None, **overrides):
        overrides.setdefault("sketch_backend", "kll")
        # A cluster needs a mergeable sketch: gk has the engine doors.
        names = DOORS if overrides["sketch_backend"] == "kll" else DOORS[:2]
        for name in names:
            disk = disks() if disks is not None else None
            opened.append(Door(name, disk=disk, **overrides))
        return opened[-len(names):]

    yield open_doors
    for door in opened:
        door.close()


def run_schedule(door):
    """The same queries through one door, in one order."""
    view = door.view
    window = door.engine.available_window_sizes()[0]
    with door.engine.pin() as pinned:
        newest = pinned.partitions[-1]
        span = (newest.start_step, newest.end_step)
    results = []
    for mode in ("quick", "accurate"):
        results.append(view.query_rank(1234, mode=mode))
        results.append(view.query_rank(10**9, mode=mode))  # clamped
        results.append(view.quantile(0.37, mode=mode))
        results.append(view.query_rank(900, mode=mode, window_steps=window))
        results.append(view.quantile(0.5, mode=mode, window_steps=window))
        results.append(view.quantile(0.5, mode=mode, step_range=span))
        results.extend(view.quantile_many(PHIS, mode=mode))
        results.extend(
            view.quantile_many(PHIS, mode=mode, window_steps=window)
        )
    accurate_many = getattr(view, "quantiles", None) or (
        lambda phis: view.quantile_many(phis, mode="accurate")
    )
    results.extend(accurate_many(PHIS))
    return results


@pytest.fixture
def materialised(monkeypatch):
    """Every TS whose arrays were built: the doors search, so none is."""
    built = []
    build = CombinedSummary.__dict__["_arrays"].func
    counting = cached_property(lambda ts: built.append(ts) or build(ts))
    counting.__set_name__(CombinedSummary, "_arrays")
    monkeypatch.setattr(CombinedSummary, "_arrays", counting)
    return built


@pytest.mark.parametrize("overrides", CONFIGS)
def test_every_door_returns_the_same_results(doors, overrides, materialised):
    opened = doors(**overrides)
    reference, *others = [run_schedule(d) for d in opened]
    # Full, windowed and step-range scopes, quick and accurate, single
    # and batched: not one of them read ``values`` / ``lower`` / ``upper``.
    assert materialised == []
    with opened[0].engine.pin() as handle:
        assert len(handle.combined().lower) == len(handle.combined())
        assert materialised == [handle.combined()]
    assert any(r.disk_accesses > 0 for r in reference)
    assert any(r.window_steps is not None for r in reference)
    for results in others:
        assert len(results) == len(reference)
        for got, expected in zip(results, reference):
            assert same(got, expected), (got, expected)


def view_doors(opened):
    """The doors whose view is itself a pinned view, by name."""
    return {
        name: door
        for name, door in zip(DOORS, opened)
        if name in ("handle", "cluster_snapshot")
    }


def test_racing_callers_of_combined_share_one_fuse(doors, monkeypatch):
    build = CombinedSummary.build.__func__

    def slow_build(cls, *args):
        time.sleep(0.05)
        return build(cls, *args)

    monkeypatch.setattr(CombinedSummary, "build", classmethod(slow_build))
    for name, door in view_doors(doors()).items():
        racers = [
            threading.Thread(target=door.view.combined) for _ in range(4)
        ]
        for racer in racers:
            racer.start()
        for racer in racers:
            racer.join(timeout=10)
        assert not any(racer.is_alive() for racer in racers)
        assert door.view.ts_merges_built == 1, name


def test_view_doors_resolve_the_same_number_of_ts(doors):
    """One TS per scope asked for, a batch of phis included — whether
    the view is one pin or a gather of them."""
    built = {}
    for name, door in view_doors(doors()).items():
        run_schedule(door)
        built[name] = door.view.ts_merges_built
    assert built["handle"] == built["cluster_snapshot"] > 0


def test_releasing_a_view_twice_releases_each_pin_once(doors):
    for door in doors():
        # The engine and the cluster pin a view per call; take one.
        pin = getattr(door.view, "pin", None)
        view = pin() if pin is not None else door.view
        assert door.engine.epoch_stats.live_pins == 1
        with view as entered:
            assert entered is view and not view.released
        assert view.released
        assert door.engine.epoch_stats.live_pins == 0
        view.release()
        assert door.engine.epoch_stats.live_pins == 0
        # Released, it still answers from what it pinned.
        assert view.quantile(0.5, mode="quick").total_size == view.n_total


def test_result_fields_follow_the_one_rule(doors):
    door = doors()[0]
    per_block = door.engine.disk.latency.seconds_per_random_block
    for result in run_schedule(door):
        assert result.sim_seconds == result.disk_accesses * per_block
        assert 0 <= result.parallel_sim_seconds <= result.sim_seconds
        assert (result.parallel_sim_seconds > 0) == (
            result.disk_accesses > 0
        )
        assert 1 <= result.target_rank <= result.total_size


def fail_reads_after(disk, reads):
    """Let ``reads`` more read operations through, then fail them all."""
    disk.plan = FaultPlan(
        seed=1,
        fail_at=frozenset(("read", i) for i in range(reads, 20_000)),
    )


@pytest.mark.usefixtures("no_backoff")
def test_degraded_results_agree_and_report_their_charge(doors):
    opened = doors(disks=lambda: FaultyDisk(block_elems=16))
    per_door = []
    for door in opened:
        disk = door.engine.disk
        fail_reads_after(disk, 3)
        before = disk.stats.counters.random_reads
        result = door.view.quantile(0.5)
        assert result.degraded and result.truncated
        # The aborted search's probes, no more and no less.
        charged = disk.stats.counters.random_reads - before
        assert result.disk_accesses == charged > 0
        assert door.engine.reliability.degraded_queries == 1
        many = door.view.quantile_many(PHIS, mode="accurate")
        assert door.engine.reliability.degraded_queries == 1 + len(PHIS)
        per_door.append([result, *many])
    reference, *others = per_door
    for got in others:
        assert all(same(a, b) for a, b in zip(got, reference))


@pytest.mark.usefixtures("no_backoff")
def test_fault_propagates_typed_and_restores_the_callers_phase(doors):
    opened = doors(
        disks=lambda: FaultyDisk(block_elems=16), degrade_on_fault=False
    )
    for door in opened:
        stats = door.engine.disk.stats
        fail_reads_after(door.engine.disk, 0)
        stats.set_phase("merge")
        for ask in (
            lambda: door.view.quantile(0.5),
            lambda: door.view.query_rank(100),
            lambda: door.view.quantile_many(PHIS, mode="accurate"),
        ):
            with pytest.raises(TransientReadError):
                ask()
            assert stats.current_phase == "merge"
        stats.set_phase("load")
        assert door.engine.reliability.degraded_queries == 0


def test_empty_union_raises_the_same_error_through_every_door():
    engine = HybridQuantileEngine(epsilon=0.1)
    cluster = ClusterEngine(shards=1, epsilon=0.1)
    handle = engine.pin()
    errors = []
    for view in (engine, handle, cluster):
        for ask in (
            lambda: view.quantile(0.5),
            lambda: view.query_rank(1, mode="quick"),
            lambda: view.quantile_many([0.5]),
            lambda: view.quantile_many([0.5], mode="accurate"),
        ):
            with pytest.raises(ValueError) as excinfo:
                ask()
            errors.append((type(excinfo.value), str(excinfo.value)))
    assert len(set(errors)) == 1
    handle.release()
    cluster.close()
    engine.close()


def test_phi_is_ranked_against_the_pinned_total():
    """An append landing between the call and its pin is part of the
    union the answer covers, so it is part of the total ``phi`` scales."""
    engine = HybridQuantileEngine(epsilon=0.02, kappa=3, block_elems=16)
    rng = np.random.default_rng(5)
    engine.stream_update_many(rng.integers(0, 10**6, 4000))
    engine.end_time_step()
    late = rng.integers(0, 10**6, 1000)
    pin = engine.pin

    def pin_after_an_append():
        engine.stream_update_many(late)
        return pin()

    engine.pin = pin_after_an_append
    for window in (None, 1):
        result = engine.quantile(1.0, mode="quick", window_steps=window)
        assert result.target_rank == result.total_size
    engine.close()
