"""Cluster checkpoints: per-shard directories plus one manifest."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import (
    ClusterEngine,
    ShardSupervisor,
    load_cluster,
    save_cluster,
)
from repro.core.config import EngineConfig
from repro.core.engine import HybridQuantileEngine
from repro.persistence import PersistenceError, SimulatedCrash
from repro.persistence.checkpoint import CRASH_POINTS
from repro.storage import fsutil

SEED = int(os.environ.get("FAULTS_SEED", "0"))


def build_cluster(shards=3, backend="kll", seed=11, steps=3, batch=4_000):
    config = EngineConfig(
        epsilon=0.02, block_elems=100, sketch_backend=backend
    )
    cluster = ClusterEngine(shards=shards, config=config)
    rng = np.random.default_rng(seed)
    for _ in range(steps):
        cluster.stream_update_many(
            rng.integers(0, 2**30, batch, dtype=np.int64)
        )
        cluster.end_time_step()
    cluster.flush()
    # Live tail: the stream sketches must round-trip too.
    cluster.stream_update_many(
        rng.integers(0, 2**30, batch // 2, dtype=np.int64)
    )
    return cluster


class TestRoundTrip:
    @pytest.mark.parametrize("backend", ["kll"])
    def test_answers_survive(self, tmp_path, backend):
        cluster = build_cluster(backend=backend)
        before = {
            (phi, mode): cluster.quantile(phi, mode=mode).value
            for phi in (0.1, 0.5, 0.9)
            for mode in ("quick", "accurate")
        }
        save_cluster(cluster, tmp_path / "cluster")
        restored = load_cluster(tmp_path / "cluster")
        try:
            assert restored.num_shards == cluster.num_shards
            assert restored.steps_sealed == cluster.steps_sealed
            assert restored.n_historical == cluster.n_historical
            assert restored.m_stream == cluster.m_stream
            assert (
                restored.config.sketch_backend
                == cluster.config.sketch_backend
            )
            after = {
                (phi, mode): restored.quantile(phi, mode=mode).value
                for phi in (0.1, 0.5, 0.9)
                for mode in ("quick", "accurate")
            }
            assert after == before
        finally:
            cluster.close()
            restored.close()

    def test_layout_and_manifest(self, tmp_path):
        cluster = build_cluster(shards=3)
        try:
            root = save_cluster(cluster, tmp_path / "cluster")
            dirs = sorted(root.glob("shard-*"))
            assert [d.name for d in dirs] == [
                "shard-00", "shard-01", "shard-02",
            ]
            assert all(d.is_dir() for d in dirs)
            manifest = json.loads((root / "cluster.json").read_text())
            assert manifest["format"] == "repro-cluster-v1"
            assert manifest["shards"] == 3
            assert manifest["router"]["strategy"] == "home"
            assert manifest["step"] == cluster.steps_sealed
            assert manifest["config"]["sketch_backend"] == "kll"
        finally:
            cluster.close()

    def test_restored_ingest_continues_routing(self, tmp_path):
        cluster = build_cluster(shards=2, seed=21)
        save_cluster(cluster, tmp_path / "cluster")
        restored = load_cluster(tmp_path / "cluster")
        try:
            tail = np.random.default_rng(22).integers(
                0, 2**30, 4_000, dtype=np.int64
            )
            cluster.stream_update_many(tail)
            restored.stream_update_many(tail)
            cluster.end_time_step()
            restored.end_time_step()
            cluster.flush()
            restored.flush()
            restored.check_invariants()
            per_shard_before = [s.n_total for s in cluster.shards]
            per_shard_after = [s.n_total for s in restored.shards]
            assert per_shard_before == per_shard_after
            for phi in (0.25, 0.75):
                assert (
                    cluster.quantile(phi, mode="accurate").value
                    == restored.quantile(phi, mode="accurate").value
                ), phi
        finally:
            cluster.close()
            restored.close()


    def test_a_hash_checkpoint_restores_bit_identically(self, tmp_path):
        """A checkpoint written under hash routing — every step spread
        over every shard, a live tail on each — whose manifest says
        ``"hash"``: restored, it answers as before, and ingest goes on
        on one home."""
        config = EngineConfig(
            epsilon=0.02, block_elems=100, sketch_backend="kll"
        )
        cluster = ClusterEngine(shards=3, config=config)
        rng = np.random.default_rng(31)
        for step in range(4):
            values = rng.integers(0, 2**30, 3_000, dtype=np.int64)
            for index, shard in enumerate(cluster.shards):
                shard.stream_update_many(values[values % 3 == index])
            if step < 3:
                cluster.end_time_step()
        root = save_cluster(cluster, tmp_path / "cluster")
        manifest = json.loads((root / "cluster.json").read_text())
        manifest["router"]["strategy"] = "hash"
        (root / "cluster.json").write_text(json.dumps(manifest))
        restored = load_cluster(root)
        try:
            for phi in (0.01, 0.3, 0.5, 0.77, 0.99):
                for mode in ("quick", "accurate"):
                    ours = restored.quantile(phi, mode=mode)
                    theirs = cluster.quantile(phi, mode=mode)
                    assert replace(ours, wall_seconds=0) == replace(
                        theirs, wall_seconds=0
                    ), (phi, mode)
            restored.check_invariants()
            # The step under way keeps its lowest live shard with a
            # stream as home.
            held = [shard.m_stream for shard in restored.shards]
            restored.stream_update_many(np.arange(10, dtype=np.int64))
            assert [s.m_stream for s in restored.shards] == [
                held[0] + 10, held[1], held[2],
            ]
        finally:
            cluster.close()
            restored.close()


class TestBuiltOverFedEngines:
    """A cluster handed engines resumes at the step they sealed."""

    CONFIG = EngineConfig(
        epsilon=0.05, kappa=2, block_elems=16, sketch_backend="kll"
    )

    def fed_engine(self, steps):
        engine = HybridQuantileEngine(config=self.CONFIG)
        rng = np.random.default_rng(steps)
        for _ in range(steps):
            engine.stream_update_many(rng.integers(0, 10**6, 300))
            engine.end_time_step()
        return engine

    def test_resumes_at_the_engines_step(self):
        engine = self.fed_engine(3)
        with ClusterEngine(
            shards=1, config=self.CONFIG, engines=[engine]
        ) as cluster:
            assert cluster.steps_sealed == 3
            cluster.check_invariants()
            cluster.stream_update_many(np.arange(100))
            cluster.end_time_step()
            assert cluster.steps_sealed == engine.steps_sealed == 4
            cluster.check_invariants()

    def test_refuses_engines_whose_steps_differ(self):
        engines = [self.fed_engine(3), self.fed_engine(2)]
        try:
            with pytest.raises(ValueError, match="step"):
                ClusterEngine(shards=2, config=self.CONFIG, engines=engines)
        finally:
            for engine in engines:
                engine.close()


class TestFailureModes:
    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(PersistenceError):
            load_cluster(tmp_path / "empty")

    def test_garbled_manifest(self, tmp_path):
        cluster = build_cluster(shards=2, steps=2, batch=1_000)
        try:
            root = save_cluster(cluster, tmp_path / "cluster")
        finally:
            cluster.close()
        (root / "cluster.json").write_text('{"format": "repro-clu')
        with pytest.raises(PersistenceError, match="garbled"):
            load_cluster(root)

    def test_unknown_format(self, tmp_path):
        root = tmp_path / "bad"
        root.mkdir()
        (root / "cluster.json").write_text(
            json.dumps({"format": "not-a-cluster", "shards": 1})
        )
        with pytest.raises(PersistenceError):
            load_cluster(root)

    def test_manifest_config_goes_through_the_checkpoint_loader(
        self, tmp_path
    ):
        # A PR-15 manifest carries config keys that no longer exist:
        # at their old defaults they are dropped, otherwise refused.
        cluster = build_cluster(shards=2, steps=2, batch=1_000)
        try:
            root = save_cluster(cluster, tmp_path / "cluster")
            expected = cluster.quantile(0.5, mode="accurate").value
        finally:
            cluster.close()
        manifest = json.loads((root / "cluster.json").read_text())
        manifest["config"]["fetch_coalescing"] = True
        (root / "cluster.json").write_text(json.dumps(manifest))
        restored = load_cluster(root)
        try:
            assert restored.quantile(0.5, mode="accurate").value == expected
        finally:
            restored.close()
        manifest["config"]["fetch_coalescing"] = False
        (root / "cluster.json").write_text(json.dumps(manifest))
        with pytest.raises(PersistenceError, match="fetch_coalescing"):
            load_cluster(root)

    @pytest.mark.parametrize(
        "key, loads, refused",
        [
            ("query_strategy", "bisect", "fetch"),
            ("residual_fetch_elems", None, 8),
            # Policy constants since PR 23, loaded only at their value.
            ("retry_backoff_seconds", 0.002, 0.0),
            ("archive_retries", 32, 0),
            ("probe_retries", 3, 1),
            ("ingest_queue_batches", 4, 8),
            # Read by no line: never refused.
            ("universe_log2", 26, None),
        ],
    )
    def test_keys_a_pr18_manifest_carries(self, tmp_path, key, loads, refused):
        cluster = build_cluster(shards=2, steps=2, batch=1_000)
        try:
            root = save_cluster(cluster, tmp_path / "cluster")
        finally:
            cluster.close()
        manifest = json.loads((root / "cluster.json").read_text())
        manifest["config"][key] = loads
        (root / "cluster.json").write_text(json.dumps(manifest))
        restored = load_cluster(root)
        try:
            assert restored.config == cluster.config
        finally:
            restored.close()
        if refused is not None:
            manifest["config"][key] = refused
            (root / "cluster.json").write_text(json.dumps(manifest))
            with pytest.raises(PersistenceError, match=key):
                load_cluster(root)

    def test_missing_shard_dir(self, tmp_path):
        cluster = build_cluster(shards=2, steps=2, batch=1_000)
        try:
            root = save_cluster(cluster, tmp_path / "cluster")
        finally:
            cluster.close()
        import shutil

        shutil.rmtree(root / "shard-01")
        with pytest.raises(PersistenceError):
            load_cluster(root)

    def test_save_is_repeatable(self, tmp_path):
        cluster = build_cluster(shards=2, steps=2, batch=1_000)
        try:
            save_cluster(cluster, tmp_path / "cluster")
            save_cluster(cluster, tmp_path / "cluster")  # overwrite OK
            restored = load_cluster(tmp_path / "cluster")
            restored.close()
        finally:
            cluster.close()


def cluster_print(cluster):
    """Everything a restored cluster must reproduce exactly."""
    return (
        cluster.n_total,
        cluster.n_historical,
        cluster.m_stream,
        cluster.steps_sealed,
        [shard.n_total for shard in cluster.shards],
        [cluster.quantile(phi, mode="quick").value for phi in (0.1, 0.5, 0.9)],
    )


def feed(cluster, rng, steps, batch=1_500):
    for _ in range(steps):
        cluster.stream_update_many(rng.integers(0, 10**6, batch))
        cluster.end_time_step()
    cluster.stream_update_many(rng.integers(0, 10**6, batch // 5))


def crash_at(point, occurrence):
    """Die the ``occurrence``-th time a save reaches ``point``."""
    reached = []

    def hook(name):
        if name == point:
            reached.append(name)
            if len(reached) == occurrence:
                raise SimulatedCrash(point)

    fsutil.crash_hook = hook


@pytest.fixture
def reset_crash_hook():
    yield
    fsutil.crash_hook = None


def points_of_a_resave(cluster, directory):
    """Every crash point a save over an existing checkpoint reaches."""
    save_cluster(cluster, directory)
    reached = []
    fsutil.crash_hook = reached.append
    try:
        save_cluster(cluster, directory)
    finally:
        fsutil.crash_hook = None
    return reached


@pytest.mark.faults
@pytest.mark.usefixtures("reset_crash_hook")
class TestKillPoints:
    """A cluster save killed at any point of its one commit loads as
    exactly the old checkpoint or the new one, never a mixture."""

    @pytest.mark.parametrize("which", ["first", "last"])
    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_recovery_restores_old_or_new_exactly(
        self, tmp_path, point, which
    ):
        rng = np.random.default_rng(SEED)
        config = EngineConfig(
            epsilon=0.05, kappa=3, block_elems=64, sketch_backend="kll"
        )
        cluster = ClusterEngine(shards=3, config=config)
        feed(cluster, rng, 4)
        root = tmp_path / "ckpt" / "cluster"
        save_cluster(cluster, root)
        with load_cluster(root) as old:
            old_print = cluster_print(old)
        feed(cluster, rng, 2)
        new_print = cluster_print(cluster)
        assert new_print != old_print
        reached = points_of_a_resave(cluster, tmp_path / "dry")
        # The staging of every shard reaches "mid-stage"; the prelude
        # and the commit are reached once per save.
        assert reached.count("mid-stage") == cluster.num_shards
        crash_at(point, 1 if which == "first" else reached.count(point))
        with pytest.raises(SimulatedCrash):
            save_cluster(cluster, root)
        fsutil.crash_hook = None
        with load_cluster(root) as restored:
            restored.check_invariants()
            got = cluster_print(restored)
        # The commit point is the one stage->directory rename.
        expected = (
            new_print if point in ("retired-old", "promoted") else old_print
        )
        assert got == expected
        assert [p.name for p in root.parent.iterdir()] == ["cluster"]
        cluster.close()

    @pytest.mark.parametrize("point", ["staged", "retired-old"])
    def test_supervisor_restores_past_a_crashed_commit(
        self, tmp_path, point
    ):
        """A shard restored after a cluster save died around its
        commit (rolled back at "staged", forward at "retired-old")
        comes back with exactly the acked state, checkpoint plus WAL."""
        rng = np.random.default_rng(SEED)
        config = EngineConfig(
            epsilon=0.05,
            kappa=3,
            block_elems=64,
            sketch_backend="kll",
            min_gather_shards=1,
        )
        cluster = ClusterEngine(
            shards=3, config=config, wal_dir=tmp_path / "wal"
        )
        feed(cluster, rng, 3)
        root = tmp_path / "ckpt" / "cluster"
        save_cluster(cluster, root)
        feed(cluster, rng, 2)
        crash_at(point, 1)
        with pytest.raises(SimulatedCrash):
            save_cluster(cluster, root)
        fsutil.crash_hook = None
        acked = cluster_print(cluster)
        assert cluster.shards[1].n_total > 0
        cluster.kill_shard(1, "chaos")
        supervisor = ShardSupervisor(cluster, root)
        supervisor.tick(now=0.0)
        assert cluster.quarantined_shards == {}
        cluster.check_invariants()
        assert cluster_print(cluster) == acked
        assert [p.name for p in root.parent.iterdir()] == ["cluster"]
        cluster.close()
