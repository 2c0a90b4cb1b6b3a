"""One gather per cluster version: pins between two changes share it.

``ClusterEngine.pin`` keeps the :class:`ShardGather` of its last pin
(each live shard's handle, the shard-major summaries and memo key, the
counts, the merged stream and the run map).  While every live shard
would pin the same layout object at the same epoch and the same stream
version, the next pin is a new view over that gather which takes each
shard's registry and run pins directly.  Every change below must make
the next pin derive a new gather, whose answers equal those of a
snapshot over freshly pinned handles on every field but wall time.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

import repro.warehouse.leveled_store as leveled_store
from repro.cluster import (
    ClusterEngine,
    ClusterSnapshot,
    restore_shards,
    save_cluster,
)
from repro.cluster.engine import ShardGather
from repro.core.config import EngineConfig
from repro.core.engine import HybridQuantileEngine
from repro.core.epoch import EpochRegistry, HistoricalMemo
from repro.faults.errors import CorruptedBlockError
from repro.ingest.archiver import ArchiveFailedError

PHIS = (0.01, 0.25, 0.5, 0.75, 0.99)
SHARDS = 3


def make_config(**overrides):
    base = dict(epsilon=0.01, kappa=3, block_elems=64, sketch_backend="kll")
    base.update(overrides)
    return EngineConfig(**base)


def fed(cluster, rng, steps=4, size=2000):
    for _ in range(steps):
        cluster.stream_update_many(rng.integers(0, 10**6, size))
        cluster.end_time_step()
    cluster.stream_update_many(rng.integers(0, 10**6, 500))
    return cluster


def counting(monkeypatch, cls, name):
    """Record every call of ``cls.name`` (a plain or class method)."""
    calls = []
    original = getattr(cls, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    is_classmethod = isinstance(vars(cls)[name], classmethod)
    monkeypatch.setattr(cls, name, staticmethod(spy) if is_classmethod else spy)
    return calls


def transcript(view):
    """Every ``QueryResult`` field but ``wall_seconds``, over quick,
    accurate and batched queries."""
    results = [
        view.quantile(phi, mode)
        for phi in PHIS
        for mode in ("quick", "accurate")
    ]
    results += view.quantile_many(list(PHIS), "quick")
    results += view.quantile_many(list(PHIS), "accurate")
    rows = []
    for result in results:
        row = dataclasses.asdict(result)
        row.pop("wall_seconds")
        rows.append(row)
    return rows


def fresh_snapshot(cluster):
    """A snapshot over handles pinned through each live engine, with a
    memo and a merged stream of its own."""
    live = [(i, s) for i, s in enumerate(cluster.shards) if s is not None]
    return ClusterSnapshot(
        [shard.pin() for _, shard in live],
        cluster.config,
        cluster._executor,
        shard_ids=[i for i, _ in live],
        historical_memo=HistoricalMemo(),
        missing={i: cluster._shard_elems[i] for i in cluster.quarantined_shards},
    )


def assert_rebuilt(cluster, before):
    """The next pin derives a new gather and the one after reuses it;
    both answer as freshly pinned handles do.  Returns the new gather."""
    with cluster.pin() as first, cluster.pin() as second:
        assert first._gather is not before
        assert second._gather is first._gather
        assert second is not first
        with fresh_snapshot(cluster) as fresh:
            expected = transcript(fresh)
        assert transcript(first) == expected
        assert transcript(second) == expected
    assert all(
        shard.epoch_stats.live_pins == 0
        for shard in cluster.shards
        if shard is not None
    )
    return first._gather


def held_gather(cluster):
    """The gather a pin caches (a second pin reuses it)."""
    with cluster.pin() as first, cluster.pin() as second:
        assert second._gather is first._gather
    assert cluster._gather is first._gather
    return first._gather


# -- count guard -----------------------------------------------------------------


def test_one_version_derives_one_gather(monkeypatch):
    cluster = fed(ClusterEngine(SHARDS, make_config()), np.random.default_rng(11))
    gathers = counting(monkeypatch, ShardGather, "of")
    engine_pins = counting(monkeypatch, HybridQuantileEngine, "pin")
    registry_pins = counting(monkeypatch, EpochRegistry, "pin")
    phis = np.linspace(0.02, 0.98, 15)
    for turn in range(30):
        mode = "quick" if turn % 2 == 0 else "accurate"
        cluster.quantile(float(phis[turn % 15]), mode)
        # The cache holds no pins: each view's release drops its own.
        assert [s.epoch_stats.live_pins for s in cluster.shards] == [0] * SHARDS
    assert len(gathers) == 1
    assert len(engine_pins) == SHARDS
    # The first (quick) query and the 15 accurate ones pin every shard;
    # the other 14 quick ones read the held gather and pin nothing.
    assert len(registry_pins) == 16 * SHARDS
    memo = cluster._historical_memo
    # As when every pin built its own snapshot: one HS, and every TS
    # resolution after the first a reuse.
    assert (memo.builds, memo.extends, memo.reuses) == (1, 0, 29)
    for shard in cluster.shards:
        stats = shard.epoch_stats
        assert (stats.ts_merges, stats.peak_pins, stats.live_pins) == (0, 1, 0)
    cluster.check_invariants()
    cluster.close()


def test_views_over_one_gather_keep_their_own_lifecycle():
    cluster = fed(ClusterEngine(SHARDS, make_config()), np.random.default_rng(12))
    first, second = cluster.pin(), cluster.pin()
    assert second._gather is first._gather
    assert [s.epoch_stats.live_pins for s in cluster.shards] == [2] * SHARDS
    first.combined()
    assert (first.ts_merges_built, second.ts_merges_built) == (1, 0)
    first.release()
    first.release()
    assert first.released and not second.released
    assert [s.epoch_stats.live_pins for s in cluster.shards] == [1] * SHARDS
    second.release()
    assert [s.epoch_stats.live_pins for s in cluster.shards] == [0] * SHARDS
    cluster.close()


# -- invalidation matrix ---------------------------------------------------------


def cluster_write(cluster, rng):
    cluster.stream_update_many(rng.integers(0, 10**6, 64))


def shard_write(cluster, rng):
    # Straight into one engine: no cluster verb drops the cache, the
    # shard's stream version must.
    cluster.shards[1].stream_update_many(rng.integers(0, 10**6, 64))


def scalar_write(cluster, rng):
    cluster.stream_update(int(rng.integers(0, 10**6)))


def seal(cluster, rng):
    cluster.end_time_step()


@pytest.mark.parametrize(
    "change", [cluster_write, shard_write, scalar_write, seal]
)
def test_a_change_rebuilds_the_gather(change):
    rng = np.random.default_rng(13)
    cluster = fed(ClusterEngine(SHARDS, make_config()), rng)
    before = held_gather(cluster)
    change(cluster, rng)
    assert_rebuilt(cluster, before)
    cluster.close()


def test_a_background_adoption_rebuilds_the_gather():
    rng = np.random.default_rng(14)
    cluster = fed(ClusterEngine(SHARDS, make_config(ingest_mode="background")), rng)
    cluster.flush()
    for shard in cluster.shards:
        shard._archiver.pause()
    cluster.stream_update_many(rng.integers(0, 10**6, 900))
    cluster.end_time_step()
    before = held_gather(cluster)  # the sealed batches staged
    epochs = before.epoch
    for shard in cluster.shards:
        shard._archiver.resume()
        shard.flush()  # the engine's own verb: adoption bumps its epoch
    assert cluster._gather is before
    assert all(
        shard.epoch_stats.current_epoch > epoch
        for shard, epoch in zip(cluster.shards, epochs)
    )
    assert_rebuilt(cluster, before)
    cluster.check_invariants()
    cluster.close()


def test_a_faulted_cascade_merge_rebuilds_the_gather(monkeypatch):
    """Shard 0's two-level cascade faults on its second merge: its
    layout is dropped and its epoch is not bumped."""
    config = make_config(
        epsilon=0.05, kappa=2, block_elems=16, ingest_mode="background"
    )
    cluster = ClusterEngine(SHARDS, config)
    rng = np.random.default_rng(3)
    for _ in range(6):  # levels: [56] [12 34]; the seventh merges both
        cluster.stream_update_many(rng.integers(0, 10**6, 200 * SHARDS))
        cluster.end_time_step()
    cluster.flush()
    for shard in cluster.shards:
        shard._archiver.pause()
    cluster.stream_update_many(rng.integers(0, 10**6, 200 * SHARDS))
    cluster.end_time_step()
    before = held_gather(cluster)
    merges = []
    merge_runs = leveled_store.merge_runs

    def second_merge_faults(disk, runs):
        merges.append(runs)
        if len(merges) == 2:
            raise CorruptedBlockError("read", 0)
        return merge_runs(disk, runs)

    monkeypatch.setattr(leveled_store, "merge_runs", second_merge_faults)
    victim = cluster.shards[0]
    victim._archiver.resume()
    with pytest.raises(ArchiveFailedError):
        victim.flush()
    assert len(merges) == 2
    assert victim.epoch_stats.current_epoch == before.epoch[0]
    assert victim._layout is None
    assert cluster._gather is before
    assert_rebuilt(cluster, before)
    monkeypatch.undo()
    for shard in cluster.shards[1:]:
        shard._archiver.resume()
    cluster.close()


def test_kill_rejoin_and_partial_gathers_rebuild_the_gather(tmp_path):
    rng = np.random.default_rng(15)
    cluster = ClusterEngine(
        SHARDS, make_config(min_gather_shards=1), wal_dir=tmp_path / "wal"
    )
    fed(cluster, rng)
    save_cluster(cluster, tmp_path / "ckpt")
    cluster.stream_update_many(rng.integers(0, 10**6, 300))
    before = held_gather(cluster)
    cluster.kill_shard(1, "chaos")
    # A partial gather: two shards answer, each view widens its bound.
    before = assert_rebuilt(cluster, before)
    assert before.shard_ids == (0, 2)
    with cluster.pin() as view:
        assert view.quantile(0.5, "quick").partial.missing_shards == (1,)
    # A write goes to a live shard: what is missing stays put.
    cluster.stream_update_many(rng.integers(0, 10**6, 300))
    before = assert_rebuilt(cluster, before)
    with cluster.pin() as view:
        assert view.missing == {1: cluster._shard_elems[1]}
    restore_shards(cluster, tmp_path / "ckpt")
    assert cluster.quarantined_shards == {}
    assert assert_rebuilt(cluster, before).shard_ids == (0, 1, 2)
    cluster.check_invariants()
    cluster.close()


# -- racing pins -----------------------------------------------------------------


def test_racing_pins_see_every_write_acked_before_them():
    """Readers pin and query while a writer writes and seals: the version
    check takes no lock, so a view must still hold every element acked
    before its pin began and no more than the write in flight."""
    cluster = fed(ClusterEngine(SHARDS, make_config()), np.random.default_rng(16))
    acked = [cluster.n_total]
    done = threading.Event()
    errors = []

    def writer():
        rng = np.random.default_rng(17)
        try:
            for turn in range(150):
                cluster.stream_update_many(rng.integers(0, 10**6, 8))
                acked.append(cluster.n_acked)
                if turn % 25 == 24:
                    cluster.end_time_step()
        finally:
            done.set()

    def reader():
        try:
            while not done.is_set():
                before = acked[-1]
                with cluster.pin() as view:
                    after = acked[-1] + 8
                    result = view.quantile(0.5, "quick")
                if not before <= view.n_total <= after:
                    errors.append((before, view.n_total, after))
                assert result.total_size == view.n_total
        except BaseException as exc:  # reported below, on the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=reader) for _ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[:3]
    assert [s.epoch_stats.live_pins for s in cluster.shards] == [0] * SHARDS
    cluster.check_invariants()
    cluster.close()
