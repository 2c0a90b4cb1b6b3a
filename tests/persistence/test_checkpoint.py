"""Tests for whole-engine checkpoints."""

import json

import numpy as np
import pytest

from repro import EngineConfig, ExactQuantiles, HybridQuantileEngine
from repro.cluster import ClusterEngine, load_cluster, save_cluster
from repro.persistence import PersistenceError, load_engine, save_engine
from repro.persistence.checkpoint import config_from_state


def build_engine(seed=0, steps=6, batch=1500, live=800):
    engine = HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=16)
    rng = np.random.default_rng(seed)
    chunks = []
    for _ in range(steps):
        data = rng.integers(0, 10**6, batch)
        chunks.append(data)
        engine.stream_update_many(data)
        engine.end_time_step()
    live_data = rng.integers(0, 10**6, live)
    chunks.append(live_data)
    engine.stream_update_many(live_data)
    return engine, np.concatenate(chunks)


class TestCheckpoint:
    def test_identical_query_answers(self, tmp_path):
        engine, _ = build_engine()
        save_engine(engine, tmp_path)
        restored = load_engine(tmp_path)
        for phi in (0.1, 0.5, 0.9):
            for mode in ("quick", "accurate"):
                assert (
                    restored.quantile(phi, mode=mode).value
                    == engine.quantile(phi, mode=mode).value
                )

    def test_state_counters(self, tmp_path):
        engine, _ = build_engine()
        save_engine(engine, tmp_path)
        restored = load_engine(tmp_path)
        assert restored.n_historical == engine.n_historical
        assert restored.m_stream == engine.m_stream
        assert restored.steps_loaded == engine.steps_loaded
        assert restored.config == engine.config
        restored.check_invariants()

    def test_restored_engine_continues(self, tmp_path):
        engine, data = build_engine()
        save_engine(engine, tmp_path)
        restored = load_engine(tmp_path)
        restored.end_time_step()  # archive the restored live buffer
        extra = np.random.default_rng(5).integers(0, 10**6, 1000)
        restored.stream_update_many(extra)
        oracle = ExactQuantiles()
        oracle.update_many(np.concatenate([data, extra]))
        result = restored.quantile(0.5)
        high = oracle.rank(result.value)
        low = oracle.rank_strict(result.value) + 1
        err = max(0, low - result.target_rank, result.target_rank - high)
        assert err <= 1.5 * 0.05 * restored.m_stream + 2

    def test_empty_stream_checkpoint(self, tmp_path):
        engine = HybridQuantileEngine(epsilon=0.05, kappa=3, block_elems=16)
        engine.stream_update_many(np.arange(1000))
        engine.end_time_step()
        save_engine(engine, tmp_path)
        restored = load_engine(tmp_path)
        assert restored.m_stream == 0
        assert restored.quantile(0.5).value == engine.quantile(0.5).value

    def test_missing_directory(self, tmp_path):
        with pytest.raises(PersistenceError):
            load_engine(tmp_path / "nope")

    def test_tampered_buffer_detected(self, tmp_path):
        engine, _ = build_engine()
        save_engine(engine, tmp_path)
        np.save(tmp_path / "stream_buffer.npy", np.arange(3))
        with pytest.raises(PersistenceError):
            load_engine(tmp_path)


#: the ``EngineConfig`` keys a PR-22 ``engine.json`` still carries (the
#: first four), the one a PR-21 one does, those a PR-15 and a PR-18 one
#: do, at the defaults those commits wrote.
RETIRED_DEFAULTS = {
    "retry_backoff_seconds": 0.002,
    "archive_retries": 32,
    "probe_retries": 3,
    "ingest_queue_batches": 4,
    "retry_backoff_cap_seconds": 0.25,
    "fetch_coalescing": True,
    "readahead_blocks": None,
    "object_get_ms": 5.0,
    "object_put_ms": 10.0,
    "query_strategy": "bisect",
    "residual_fetch_elems": None,
    "universe_log2": 34,
}


def add_config_keys(state_path, extra):
    state = json.loads(state_path.read_text())
    state["config"].update(extra)
    state_path.write_text(json.dumps(state))


class TestRetiredConfigKeys:
    def test_parent_format_checkpoint_answers_identically(self, tmp_path):
        engine, _ = build_engine()
        save_engine(engine, tmp_path)
        add_config_keys(tmp_path / "engine.json", RETIRED_DEFAULTS)
        restored = load_engine(tmp_path)
        assert restored.config == engine.config
        for phi in (0.1, 0.5, 0.9):
            for mode in ("quick", "accurate"):
                assert (
                    restored.quantile(phi, mode=mode).value
                    == engine.quantile(phi, mode=mode).value
                )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("fetch_coalescing", False),
            ("readahead_blocks", 0),
            ("object_get_ms", 1.0),
            ("query_strategy", "fetch"),
            ("residual_fetch_elems", 8),
            ("retry_backoff_cap_seconds", 1.0),
            ("retry_backoff_seconds", 0.0),
            ("archive_retries", 0),
            ("probe_retries", 1),
            ("ingest_queue_batches", 8),
            ("no_such_knob", 1),
        ],
    )
    def test_unsupported_config_key_is_refused(self, tmp_path, key, value):
        engine, _ = build_engine(steps=2)
        save_engine(engine, tmp_path)
        add_config_keys(tmp_path / "engine.json", {key: value})
        with pytest.raises(PersistenceError, match=key):
            load_engine(tmp_path)

    def test_a_key_nothing_read_loads_at_any_value(self, tmp_path):
        engine, _ = build_engine(steps=2)
        save_engine(engine, tmp_path)
        add_config_keys(tmp_path / "engine.json", {"universe_log2": 26})
        assert load_engine(tmp_path).config == engine.config

    # The probe thread pool's size never changed an answer, so state
    # saved with any value of it loads as if it carried none.
    def test_saved_query_workers_loads_at_any_value(self, tmp_path):
        engine, _ = build_engine(steps=2)
        save_engine(engine, tmp_path)
        add_config_keys(tmp_path / "engine.json", {"query_workers": 8})
        saved = json.loads((tmp_path / "engine.json").read_text())["config"]
        without = {k: v for k, v in saved.items() if k != "query_workers"}
        assert config_from_state(saved) == config_from_state(without)
        assert load_engine(tmp_path).config == engine.config

    def test_cluster_manifest_query_workers_loads_at_any_value(
        self, tmp_path
    ):
        cluster = ClusterEngine(
            shards=2,
            config=EngineConfig(epsilon=0.05, sketch_backend="kll"),
        )
        cluster.stream_update_many(np.arange(2_000))
        cluster.end_time_step()
        try:
            root = save_cluster(cluster, tmp_path / "cluster")
        finally:
            cluster.close()
        manifest = json.loads((root / "cluster.json").read_text())
        manifest["config"]["query_workers"] = 8
        (root / "cluster.json").write_text(json.dumps(manifest))
        without = {
            k: v for k, v in manifest["config"].items() if k != "query_workers"
        }
        assert config_from_state(manifest["config"]) == config_from_state(
            without
        )
        restored = load_cluster(root)
        try:
            assert restored.config == cluster.config
        finally:
            restored.close()


class TestCompactionPolicyRestore:
    def test_leveled_engine_restores_leveled_store(self, tmp_path):
        from repro import EngineConfig
        from repro.warehouse import LeveledCompactionStore

        config = EngineConfig(
            epsilon=0.05, kappa=3, block_elems=16, compaction="leveled"
        )
        engine = HybridQuantileEngine(config=config)
        rng = np.random.default_rng(3)
        for _ in range(7):
            engine.stream_update_many(rng.integers(0, 10**6, 800))
            engine.end_time_step()
        save_engine(engine, tmp_path)
        restored = load_engine(tmp_path)
        assert isinstance(restored.store, LeveledCompactionStore)
        # continued ingestion obeys the leveled invariant
        for _ in range(5):
            restored.stream_update_many(rng.integers(0, 10**6, 800))
            restored.end_time_step()
        restored.check_invariants()
