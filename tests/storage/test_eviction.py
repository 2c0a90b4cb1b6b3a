"""Hot-tier eviction tests (ISSUE 10, tentpole part 4).

``hot_tier_bytes`` capacity-bounds the object backend's hot file
tier: over budget, least-recently-read unpinned runs are demoted to
the bucket through the same atomic migration as ``place_run``.  The
invariants under test: a run pinned by a live snapshot is never
evicted (the tier overshoots instead), evicted-then-reprobed runs
return bit-identical data, and a run in the bucket stays there, whether
pressure or the tiering policy put it there.
"""

import threading

import numpy as np
import pytest

from repro import EngineConfig, HybridQuantileEngine
from repro.storage import (
    BlockCache,
    ObjectStoreBackend,
    SimulatedDisk,
    SortedRun,
)


def _run_bytes(backend, n_elems=64):
    """On-disk size of one n-elem run file under this backend."""
    probe = backend.allocate_run(999_999, np.arange(n_elems, dtype=np.int64))
    size = backend._path_of(999_999).stat().st_size
    backend.delete_run(999_999)
    return size


class TestCapacityEviction:
    def test_over_budget_demotes_lru(self, tmp_path):
        backend = ObjectStoreBackend(tmp_path / "o", object_tier_level=1)
        size = _run_bytes(backend)
        backend.close()
        # Budget for exactly two resident runs.
        backend = ObjectStoreBackend(
            tmp_path / "o2", object_tier_level=1, hot_tier_bytes=2 * size
        )
        for run_id in range(4):
            backend.allocate_run(
                run_id, np.arange(64, dtype=np.int64) + run_id
            )
        stats = backend.stats()
        assert stats.hot_bytes <= 2 * size
        assert stats.evicted_runs == 2
        # Least-recently-used first: runs 0 and 1 went to the bucket.
        assert (tmp_path / "o2" / "objects" / "run-0.npy").exists()
        assert (tmp_path / "o2" / "objects" / "run-1.npy").exists()
        assert (tmp_path / "o2" / "hot" / "run-2.npy").exists()
        assert (tmp_path / "o2" / "hot" / "run-3.npy").exists()
        backend.close()

    def test_evicted_run_reads_bit_identical(self, tmp_path):
        backend = ObjectStoreBackend(
            tmp_path / "o", object_tier_level=1, hot_tier_bytes=0
        )
        disk = SimulatedDisk(block_elems=8, backend=backend)
        run = SortedRun(disk, np.arange(128, dtype=np.int64))
        # hot_tier_bytes=0 evicts immediately after allocation.
        assert backend.stats().evicted_runs >= 1
        assert run.tier == "object"
        cache = BlockCache(disk)
        run.read_block_range(3, 9, cache=cache)
        np.testing.assert_array_equal(
            run.pinned_range(24, 80, cache), np.arange(24, 80)
        )
        assert run.element_at(100, cache=BlockCache(disk)) == 100
        backend.close()

    def test_unbounded_by_default(self, tmp_path):
        backend = ObjectStoreBackend(tmp_path / "o", object_tier_level=1)
        for run_id in range(6):
            backend.allocate_run(run_id, np.arange(64, dtype=np.int64))
        stats = backend.stats()
        assert stats.evicted_runs == 0
        assert stats.hot_runs == 6
        backend.close()

    def test_negative_budget_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ObjectStoreBackend(tmp_path / "o", hot_tier_bytes=-1)


class TestPinSafety:
    def test_pinned_run_never_evicted(self, tmp_path):
        backend = ObjectStoreBackend(
            tmp_path / "o", object_tier_level=1, hot_tier_bytes=0
        )
        data = np.arange(64, dtype=np.int64)
        backend.pin_runs([1])
        backend.allocate_run(1, data)
        # Zero budget, but the pinned run must stay hot (overage is
        # tolerated rather than breaking a pinned reader).
        assert (tmp_path / "o" / "hot" / "run-1.npy").exists()
        assert backend.stats().evicted_runs == 0
        # Unpinned runs under the same pressure are demoted.
        backend.allocate_run(2, data)
        assert (tmp_path / "o" / "objects" / "run-2.npy").exists()
        # Releasing the last pin re-exposes the run to future scans.
        backend.unpin_runs([1])
        backend.allocate_run(3, data)  # pressure triggers another scan
        assert (tmp_path / "o" / "objects" / "run-1.npy").exists()
        backend.close()

    def test_pin_refcounting(self, tmp_path):
        backend = ObjectStoreBackend(
            tmp_path / "o", object_tier_level=1, hot_tier_bytes=0
        )
        backend.pin_runs([1])
        backend.pin_runs([1])
        backend.allocate_run(1, np.arange(8, dtype=np.int64))
        backend.unpin_runs([1])  # one pin remains
        backend.allocate_run(2, np.arange(8, dtype=np.int64))
        assert (tmp_path / "o" / "hot" / "run-1.npy").exists()
        backend.close()


class TestReadmission:
    def test_evicted_run_placed_hot_stays_in_bucket(self, tmp_path):
        backend = ObjectStoreBackend(
            tmp_path / "o", object_tier_level=2, hot_tier_bytes=0
        )
        data = np.arange(64, dtype=np.int64)
        handle = backend.allocate_run(1, data)
        handle.block_elems = 8
        assert backend.stats().evicted_runs == 1
        before = backend.stats()
        backend.hot_tier_bytes = None  # lift the pressure
        backend.place_run(1, level=1)  # a hot level: no re-admission
        assert (tmp_path / "o" / "objects" / "run-1.npy").exists()
        assert not (tmp_path / "o" / "hot" / "run-1.npy").exists()
        assert backend.stats() == before
        np.testing.assert_array_equal(np.asarray(handle.data), data)
        backend.close()

    def test_policy_tiered_run_stays_in_bucket(self, tmp_path):
        backend = ObjectStoreBackend(tmp_path / "o", object_tier_level=1)
        backend.allocate_run(1, np.arange(8, dtype=np.int64))
        backend.place_run(1, level=1)  # policy migration, not eviction
        backend.place_run(1, level=0)  # hot placement must NOT promote
        assert (tmp_path / "o" / "objects" / "run-1.npy").exists()
        assert backend.stats().object_runs == 1
        backend.close()


class TestEvictionUnderPinnedQueries:
    PHIS = (0.05, 0.25, 0.5, 0.75, 0.95)

    def test_pinned_snapshot_survives_hot_tier_pressure(self, tmp_path):
        """Stress: pinned accurate queries racing hot-tier eviction.

        A pinned snapshot's answers must be bit-identical before and
        during ingest-driven eviction pressure, because its runs are
        pinned in the backend for the handle's lifetime.
        """
        config = EngineConfig(
            epsilon=0.02,
            kappa=3,
            block_elems=32,
            shared_cache_blocks=512,
            storage_backend="object",
            storage_dir=str(tmp_path / "bucket"),
            object_tier_level=2,
            # Under one 500-element run (an int32 run file is 2 128
            # bytes): every allocation evicts.
            hot_tier_bytes=2048,
        )
        engine = HybridQuantileEngine(config=config)
        rng = np.random.default_rng(99)
        try:
            for _ in range(6):
                engine.stream_update_many(rng.integers(0, 100_000, size=500))
                engine.end_time_step()
            handle = engine.pin()
            baseline = [
                handle.quantile(phi, mode="accurate").value
                for phi in self.PHIS
            ]
            errors = []

            def query_side():
                try:
                    for _ in range(5):
                        got = [
                            handle.quantile(phi, mode="accurate").value
                            for phi in self.PHIS
                        ]
                        assert got == baseline
                except BaseException as exc:  # noqa: BLE001
                    errors.append(exc)

            workers = [
                threading.Thread(target=query_side) for _ in range(4)
            ]
            for t in workers:
                t.start()
            # Ingest pressure: new runs push the bounded hot tier into
            # eviction while the pinned queries are in flight.
            for _ in range(6):
                engine.stream_update_many(rng.integers(0, 100_000, size=500))
                engine.end_time_step()
            for t in workers:
                t.join()
            assert errors == []
            assert engine.disk.backend.stats().evicted_runs > 0
            # The pinned partitions are still hot or were never the
            # eviction victims; their answers did not move either way.
            final = [
                handle.quantile(phi, mode="accurate").value
                for phi in self.PHIS
            ]
            assert final == baseline
            handle.release()
        finally:
            engine.close()
