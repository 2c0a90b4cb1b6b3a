"""Tests for the pluggable storage backends.

The load-bearing property is the equivalence moat: the three backends
must answer bit-identically and charge the exact same block I/O — a
backend changes where the bytes live and what *requests* cost, never
what is charged.
"""

import numpy as np
import pytest

from repro import ClusterEngine, EngineConfig, HybridQuantileEngine
from repro.cluster.engine import shard_config, shard_dir
from repro.storage import (
    BACKEND_NAMES,
    BackendStats,
    BlockCache,
    BlockDevice,
    MmapFileBackend,
    ObjectStoreBackend,
    ObjectStoreLatency,
    SimulatedBackend,
    SimulatedDisk,
    SortedRun,
    make_backend,
)
from repro.storage.backends import FILE_TIER, MEMORY_TIER, OBJECT_TIER


def _backends(tmp_path):
    return {
        "simulated": SimulatedBackend(),
        "mmap": MmapFileBackend(tmp_path / "mmap"),
        "object": ObjectStoreBackend(tmp_path / "object"),
    }


class TestFactory:
    def test_make_backend_dispatch(self, tmp_path):
        assert isinstance(make_backend("simulated"), SimulatedBackend)
        mmap = make_backend("mmap", tmp_path / "m")
        assert isinstance(mmap, MmapFileBackend)
        obj = make_backend("object", tmp_path / "o", object_tier_level=2)
        assert isinstance(obj, ObjectStoreBackend)
        assert obj.object_tier_level == 2
        mmap.close()
        obj.close()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown storage backend"):
            make_backend("tape")

    def test_all_names_covered(self):
        assert set(BACKEND_NAMES) == {"simulated", "mmap", "object"}

    def test_backends_satisfy_protocol(self, tmp_path):
        for backend in _backends(tmp_path).values():
            assert isinstance(backend, BlockDevice)
            backend.close()

    def test_latency_model_validation(self):
        with pytest.raises(ValueError):
            ObjectStoreLatency(seconds_per_get=-1.0)


class TestRoundTrip:
    def test_data_round_trips_per_backend(self, tmp_path):
        data = np.arange(100, dtype=np.int64)
        for name, backend in _backends(tmp_path).items():
            handle = backend.allocate_run(7, data)
            np.testing.assert_array_equal(np.asarray(handle.data), data)
            backend.close()

    def test_allocation_copies_input(self, tmp_path):
        backend = SimulatedBackend()
        source = np.arange(5, dtype=np.int64)
        handle = backend.allocate_run(1, source)
        source[0] = 99
        assert handle.data[0] == 0

    def test_tier_labels(self, tmp_path):
        data = np.arange(10, dtype=np.int64)
        sim = SimulatedBackend()
        assert sim.allocate_run(1, data).tier == MEMORY_TIER
        mmap = MmapFileBackend(tmp_path / "m")
        assert mmap.allocate_run(1, data).tier == FILE_TIER
        obj = ObjectStoreBackend(tmp_path / "o", object_tier_level=1)
        handle = obj.allocate_run(1, data)
        assert handle.tier == FILE_TIER
        obj.place_run(1, level=1)
        assert handle.tier == OBJECT_TIER
        mmap.close()
        obj.close()

    def test_deleted_run_stays_readable_via_handle(self, tmp_path):
        data = np.arange(50, dtype=np.int64)
        for name, backend in _backends(tmp_path).items():
            handle = backend.allocate_run(3, data)
            backend.delete_run(3)
            np.testing.assert_array_equal(np.asarray(handle.data), data)
            backend.close()

    def test_mmap_delete_removes_file(self, tmp_path):
        backend = MmapFileBackend(tmp_path / "m")
        backend.allocate_run(4, np.arange(8, dtype=np.int64))
        assert (tmp_path / "m" / "run-4.npy").exists()
        backend.delete_run(4)
        assert not (tmp_path / "m" / "run-4.npy").exists()
        backend.close()

    def test_owned_tempdir_removed_on_close(self):
        backend = MmapFileBackend()
        directory = backend.directory
        backend.allocate_run(1, np.arange(4, dtype=np.int64))
        assert directory.exists()
        backend.close()
        assert not directory.exists()


class TestTiering:
    def test_place_below_threshold_stays_hot(self, tmp_path):
        backend = ObjectStoreBackend(tmp_path / "o", object_tier_level=2)
        backend.allocate_run(1, np.arange(10, dtype=np.int64))
        backend.place_run(1, level=1)
        stats = backend.stats()
        assert stats.object_runs == 0
        assert stats.migrations == 0
        backend.close()

    def test_place_at_threshold_migrates_once(self, tmp_path):
        backend = ObjectStoreBackend(tmp_path / "o", object_tier_level=1)
        backend.allocate_run(1, np.arange(10, dtype=np.int64))
        backend.place_run(1, level=1)
        backend.place_run(1, level=2)  # already cold: no second PUT
        stats = backend.stats()
        assert stats.object_runs == 1
        assert stats.migrations == 1
        assert stats.puts == 1
        assert not (tmp_path / "o" / "hot" / "run-1.npy").exists()
        assert (tmp_path / "o" / "objects" / "run-1.npy").exists()
        backend.close()

    def test_migrated_run_still_reads_correctly(self, tmp_path):
        data = np.arange(64, dtype=np.int64)
        backend = ObjectStoreBackend(tmp_path / "o", object_tier_level=1)
        handle = backend.allocate_run(1, data)
        backend.place_run(1, level=3)
        np.testing.assert_array_equal(np.asarray(handle.data), data)
        backend.close()

    def test_restart_lists_bucket(self, tmp_path):
        backend = ObjectStoreBackend(tmp_path / "o", object_tier_level=1)
        backend.allocate_run(9, np.arange(10, dtype=np.int64))
        backend.place_run(9, level=1)
        backend.close()
        reopened = ObjectStoreBackend(tmp_path / "o", object_tier_level=1)
        stats = reopened.stats()
        assert stats.object_runs == 1
        assert stats.lists == 1
        assert reopened._path_of(9).parent.name == "objects"
        reopened.close()


class TestRequestAccounting:
    def _charged_run(self, tmp_path, block_elems=4, **backend_kwargs):
        backend = ObjectStoreBackend(
            tmp_path / "o", object_tier_level=1, **backend_kwargs
        )
        disk = SimulatedDisk(block_elems=block_elems, backend=backend)
        run = SortedRun(disk, np.arange(40, dtype=np.int64))
        return backend, disk, run

    def test_hot_reads_are_not_gets(self, tmp_path):
        backend, disk, run = self._charged_run(tmp_path)
        run.element_at(5)
        assert backend.stats().gets == 0
        backend.close()

    def test_cold_charged_read_is_one_get(self, tmp_path):
        # The run's last block (9 of 0..9) has nothing past it to read
        # ahead: one GET of exactly the charged block.
        backend, disk, run = self._charged_run(tmp_path)
        backend.place_run(run.run_id, level=1)
        run.element_at(39)
        stats = backend.stats()
        assert stats.gets == 1
        assert stats.get_blocks == 1
        run.element_at(5)  # block 1: one more GET, widened to 1..9
        stats = backend.stats()
        assert stats.gets == 2
        assert stats.get_blocks == 10
        backend.close()

    def test_coalesced_cold_probe_streams_readahead(self, tmp_path):
        # Default mode: the first cold probe issues one GET widened by
        # readahead (clamped to the run's last block, 9 here); probes
        # landing inside the fetched span issue no further requests.
        backend, disk, run = self._charged_run(tmp_path)
        backend.place_run(run.run_id, level=1)
        run.element_at(5)  # block 1 of 0..9
        stats = backend.stats()
        assert stats.gets == 1
        assert stats.get_blocks == 9  # blocks 1..9
        run.element_at(39)  # block 9: already streamed
        assert backend.stats().gets == 1
        run.element_at(0)  # block 0 was never fetched
        assert backend.stats().gets == 2
        backend.close()

    def test_readahead_zero_coalesces_without_widening(self, tmp_path):
        # Free request setup makes the break-even readahead 0 blocks.
        backend, disk, run = self._charged_run(
            tmp_path, latency=ObjectStoreLatency(seconds_per_get=0.0)
        )
        assert backend.latency.break_even_blocks() == 0
        backend.place_run(run.run_id, level=1)
        run.element_at(13)  # block 3
        run.element_at(21)  # block 5
        assert backend.stats().get_blocks == 2
        # blocks 3 and 5 already fetched: range 2..6 needs 2, 4, 6 —
        # three disjoint single-block spans.
        run.read_block_range(2, 6)
        stats = backend.stats()
        assert stats.gets == 5
        assert stats.get_blocks == 5
        backend.close()

    def test_cache_hit_never_becomes_a_get(self, tmp_path):
        backend, disk, run = self._charged_run(tmp_path)
        backend.place_run(run.run_id, level=1)
        cache = BlockCache(disk)
        run.element_at(5, cache=cache)
        before = backend.stats().gets
        run.element_at(5, cache=cache)  # same block: cache hit, no charge
        assert backend.stats().gets == before

    def test_ranged_read_is_one_get_many_blocks(self, tmp_path):
        backend, disk, run = self._charged_run(tmp_path)
        backend.place_run(run.run_id, level=1)
        run.read_block_range(0, 4)
        stats = backend.stats()
        assert stats.gets == 1
        # the five charged blocks plus readahead to the run's end (0..9)
        assert stats.get_blocks == 10
        assert disk.stats.counters.random_reads == 5
        backend.close()

    def test_ranged_reads_return_partial_bytes(self, tmp_path):
        # A cold ranged read must return exactly the requested slice
        # (served as a byte-range read of the bucket object), and it
        # must match what the hot tier serves for the same range.
        backend, disk, run = self._charged_run(tmp_path)
        hot = run.read_block_range(2, 4)
        backend.place_run(run.run_id, level=1)
        cold = run.read_block_range(2, 4)
        np.testing.assert_array_equal(cold, hot)
        np.testing.assert_array_equal(cold, np.arange(8, 20, dtype=np.int64))
        backend.close()

    def test_sequential_scan_is_one_get(self, tmp_path):
        backend, disk, run = self._charged_run(tmp_path)
        backend.place_run(run.run_id, level=1)
        run.scan()
        stats = backend.stats()
        assert stats.gets == 1
        assert stats.get_blocks == 10
        backend.close()

    def test_latency_accrues_per_request(self, tmp_path):
        latency = ObjectStoreLatency(
            seconds_per_get=1.0,
            seconds_per_get_block=0.0,
            seconds_per_put=10.0,
            seconds_per_list=100.0,
        )
        backend = ObjectStoreBackend(
            tmp_path / "o", object_tier_level=1, latency=latency
        )
        disk = SimulatedDisk(block_elems=4, backend=backend)
        run = SortedRun(disk, np.arange(16, dtype=np.int64))
        backend.place_run(run.run_id, level=1)
        run.element_at(0)
        # 1 LIST (startup) + 1 PUT (migration) + 1 GET
        assert backend.simulated_seconds() == pytest.approx(111.0)
        assert disk.simulated_seconds() >= backend.simulated_seconds()
        backend.close()

    def test_serial_engine_transcript_is_pinned(self, tmp_path):
        # The cold-read ablation's build() shape on the object tier with
        # the shared cache, driven from one thread: every request and
        # residency counter is a literal, so a change to how charges
        # become GETs cannot pass unnoticed.
        config = EngineConfig(
            epsilon=0.01,
            kappa=3,
            block_elems=100,
            shared_cache_blocks=4096,
            storage_backend="object",
            storage_dir=str(tmp_path / "bucket"),
            object_tier_level=1,
        )
        engine = HybridQuantileEngine(config=config)
        try:
            rng = np.random.default_rng(1013)
            for _ in range(8):
                engine.stream_update_many(
                    rng.normal(5e5, 1e5, size=20_000).astype(np.int64)
                )
                engine.end_time_step()
            engine.stream_update_many(
                rng.normal(5e5, 1e5, size=10_000).astype(np.int64)
            )
            phis = tuple(np.round(np.linspace(0.004, 0.996, 16), 5))
            assert engine.warm_shared_cache((0.25, 0.75)) == 8
            # The first four phis run twice: their second pass is all
            # shared-tier hits.
            values = [
                engine.quantile(phi, mode="accurate").value
                for phi in phis + phis[:4]
            ]
            assert values[:4] == values[16:] == [234823, 353328, 390863, 417340]
            assert values[15] == 765667
            backend = engine.disk.backend.stats()
            assert (backend.gets, backend.get_blocks) == (29, 1428)
            assert (backend.puts, backend.migrations) == (2, 2)
            assert engine.disk.stats.counters.random_reads == 188
            shared = engine.shared_cache.stats()
            assert (shared.hits, shared.misses) == (44, 188)
            assert shared.prefetched_blocks == 0
            assert shared.coalesced_waits == 0
        finally:
            engine.close()

    def test_delta_since(self):
        a = BackendStats(gets=2, get_blocks=5, puts=1, hot_runs=4)
        b = BackendStats(gets=7, get_blocks=9, puts=3, hot_runs=2)
        delta = b.delta_since(a)
        assert delta.gets == 5
        assert delta.get_blocks == 4
        assert delta.puts == 2
        assert delta.hot_runs == 2  # residency is a level, not a counter

    def test_delta_since_counters_vs_gauges(self):
        # Counters (monotonic totals) are subtracted; gauges (current
        # levels) are copied verbatim from the newer snapshot.  An
        # ablation writer that subtracted a gauge would report garbage.
        before = BackendStats(
            gets=10,
            get_blocks=100,
            puts=4,
            lists=1,
            migrations=3,
            evicted_runs=2,
            hot_runs=6,
            object_runs=3,
            hot_bytes=4096,
        )
        after = BackendStats(
            gets=15,
            get_blocks=180,
            puts=6,
            lists=1,
            migrations=5,
            evicted_runs=4,
            hot_runs=2,
            object_runs=7,
            hot_bytes=1024,
        )
        delta = after.delta_since(before)
        # counters: deltas
        assert delta.gets == 5
        assert delta.get_blocks == 80
        assert delta.puts == 2
        assert delta.lists == 0
        assert delta.migrations == 2
        assert delta.evicted_runs == 2
        # gauges: copied, never subtracted
        assert delta.hot_runs == 2
        assert delta.object_runs == 7
        assert delta.hot_bytes == 1024


class TestEngineEquivalence:
    PHIS = (0.05, 0.5, 0.95, 0.99)

    def _drive(self, config):
        rng = np.random.default_rng(1234)
        engine = HybridQuantileEngine(config=config)
        try:
            for _ in range(6):
                engine.stream_update_many(
                    rng.integers(0, 1_000_000, size=400)
                )
                engine.end_time_step()
            engine.stream_update_many(rng.integers(0, 1_000_000, size=200))
            quick = [
                engine.quantile(phi, mode="quick").value
                for phi in self.PHIS
            ]
            accurate = [
                engine.quantile(phi, mode="accurate").value
                for phi in self.PHIS
            ]
            engine.check_invariants()
            counters = engine.disk.stats.counters
            io = (
                counters.random_reads,
                counters.sequential_reads,
                counters.sequential_writes,
            )
            return quick, accurate, io
        finally:
            engine.close()

    def test_bit_identical_answers_across_backends(self, tmp_path):
        results = {}
        for name in BACKEND_NAMES:
            config = EngineConfig(
                epsilon=0.05,
                block_elems=64,
                storage_backend=name,
                storage_dir=str(tmp_path / name) if name != "simulated" else None,
            )
            results[name] = self._drive(config)
        baseline = results["simulated"]
        for name in ("mmap", "object"):
            assert results[name] == baseline, name

    def test_engine_owns_and_closes_backend(self, tmp_path):
        config = EngineConfig(
            epsilon=0.05,
            block_elems=64,
            storage_backend="mmap",
            storage_dir=str(tmp_path / "runs"),
        )
        engine = HybridQuantileEngine(config=config)
        assert isinstance(engine.disk.backend, MmapFileBackend)
        assert engine._owns_backend
        engine.stream_update_many(np.arange(100, dtype=np.int64))
        engine.end_time_step()
        assert any((tmp_path / "runs").glob("run-*.npy"))
        engine.close()

    def test_simulated_default_installs_no_backend(self):
        engine = HybridQuantileEngine(config=EngineConfig(epsilon=0.05))
        assert isinstance(engine.disk.backend, SimulatedBackend)
        assert not engine._owns_backend
        engine.close()

    def test_cluster_gives_each_shard_its_own_dir(self, tmp_path):
        config = EngineConfig(
            epsilon=0.05,
            block_elems=64,
            sketch_backend="kll",
            storage_backend="mmap",
            storage_dir=str(tmp_path / "cluster"),
        )
        assert shard_config(config, 2).storage_dir == str(
            shard_dir(tmp_path / "cluster", 2)
        )
        # Simulated or directory-less configs pass through unchanged.
        assert shard_config(EngineConfig(epsilon=0.05), 1) is not None
        assert (
            shard_config(EngineConfig(epsilon=0.05), 1).storage_dir is None
        )
        cluster = ClusterEngine(shards=2, config=config)
        try:
            cluster.stream_update_many(
                np.arange(2_000, dtype=np.int64)
            )
            cluster.end_time_step()
            dirs = sorted(
                p.name for p in (tmp_path / "cluster").iterdir()
            )
            assert dirs == ["shard-00", "shard-01"]
            for name in dirs:
                assert any(
                    (tmp_path / "cluster" / name).glob("run-*.npy")
                )
        finally:
            cluster.close()

    def test_checkpoint_round_trips_backend_config(self, tmp_path):
        from repro.persistence.checkpoint import load_engine, save_engine

        config = EngineConfig(
            epsilon=0.05,
            block_elems=64,
            storage_backend="mmap",
            storage_dir=str(tmp_path / "runs"),
        )
        engine = HybridQuantileEngine(config=config)
        rng = np.random.default_rng(11)
        engine.stream_update_many(rng.integers(0, 10_000, size=500))
        engine.end_time_step()
        expected = engine.quantile(0.5, mode="accurate").value
        save_engine(engine, tmp_path / "ckpt")
        engine.close()

        restored = load_engine(tmp_path / "ckpt")
        try:
            assert restored.config.storage_backend == "mmap"
            assert restored.config.storage_dir == str(tmp_path / "runs")
            assert isinstance(restored.disk.backend, MmapFileBackend)
            assert restored.quantile(0.5, mode="accurate").value == expected
        finally:
            restored.close()
