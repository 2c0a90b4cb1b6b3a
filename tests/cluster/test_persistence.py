"""Cluster checkpoints: per-shard directories plus one manifest."""

import json

import numpy as np
import pytest

from repro.cluster import (
    ClusterEngine,
    list_shard_dirs,
    load_cluster,
    save_cluster,
)
from repro.core.config import EngineConfig
from repro.persistence import PersistenceError


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
            dirs = list_shard_dirs(root)
            assert [d.name for d in dirs] == [
                "shard-00", "shard-01", "shard-02",
            ]
            assert all(d.is_dir() for d in dirs)
            manifest = json.loads((root / "cluster.json").read_text())
            assert manifest["format"] == "repro-cluster-v1"
            assert manifest["shards"] == 3
            assert manifest["router"]["strategy"] == "hash"
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


class TestFailureModes:
    def test_missing_manifest(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(PersistenceError):
            load_cluster(tmp_path / "empty")

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
