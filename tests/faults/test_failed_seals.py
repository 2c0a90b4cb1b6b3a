"""A seal that fails leaves the log and the cluster as they would be had
it failed cleanly.

An engine logs a seal frame only for a seal that happens, so replaying
its log seals what it sealed.  A cluster whose shard fails a seal
quarantines that shard and still advances, so its live shards stay in
lockstep and the quarantined slot's log holds one frame per step.
"""

import numpy as np
import pytest

from repro import ClusterEngine, EngineConfig, FaultPlan, HybridQuantileEngine
from repro.cluster.engine import shard_dir
from repro.cluster.persistence import load_cluster, save_cluster
from repro.ingest.archiver import ArchiveFailedError
from repro.ingest.wal import WriteAheadLog, replay_wal, scan_wal

pytestmark = [pytest.mark.faults, pytest.mark.usefixtures("no_backoff")]

EVERY_WRITE_FAILS = FaultPlan(seed=1, write_error_rate=1.0)


def seal_frames(directory):
    return [r.meta for r in scan_wal(directory).records if r.kind == "seal"]


def test_a_refused_seal_logs_no_frame(tmp_path):
    config = EngineConfig(epsilon=0.02, kappa=3, block_elems=64)
    engine = HybridQuantileEngine(config=config, fault_plan=EVERY_WRITE_FAILS)
    engine.attach_wal(WriteAheadLog(tmp_path / "wal"))
    rng = np.random.default_rng(4)
    for _ in range(3):
        engine.stream_update_many(rng.integers(0, 10**6, 200))
        with pytest.raises(ArchiveFailedError):
            engine.end_time_step()
    assert engine.steps_sealed == 1
    acked = engine.n_total
    engine.close()
    assert seal_frames(tmp_path / "wal") == [1]
    with HybridQuantileEngine(config=config) as replica:
        replay_wal(replica, tmp_path / "wal")
        assert replica.steps_sealed == 1 and replica.n_total == acked


def test_a_failed_frame_append_gives_its_slot_back(tmp_path):
    config = EngineConfig(epsilon=0.02, kappa=3, block_elems=64)
    with HybridQuantileEngine(config=config) as engine:
        wal = WriteAheadLog(tmp_path / "wal")
        engine.attach_wal(wal)
        append_seal = wal.append_seal

        def refuse(step):
            raise OSError("log device full")

        wal.append_seal = refuse
        for _ in range(5):  # more than the archiver has slots
            with pytest.raises(OSError):
                engine.end_time_step()
        assert engine.steps_sealed == 0
        wal.append_seal = append_seal
        engine.end_time_step()
        assert engine.steps_sealed == 1
    assert seal_frames(tmp_path / "wal") == [1]


def test_a_failed_shard_seal_quarantines_that_shard(tmp_path):
    config = EngineConfig(
        epsilon=0.02, kappa=3, block_elems=64, sketch_backend="kll"
    )
    plan = FaultPlan(seed=1, write_error_rate=1.0, shard_scope=(1,))
    cluster = ClusterEngine(
        shards=3, config=config, fault_plan=plan, wal_dir=tmp_path / "wal"
    )
    save_cluster(cluster, tmp_path / "ckpt")
    rng = np.random.default_rng(2)
    failed = []
    for step in range(1, 5):
        cluster.stream_update_many(rng.integers(0, 10**6, 300))
        try:
            cluster.end_time_step()
        except ArchiveFailedError:
            failed.append(step)
        cluster.check_invariants()
        assert cluster.steps_sealed == step
        live = [shard for shard in cluster.shards if shard is not None]
        assert [shard.steps_sealed for shard in live] == [step, step]
    assert failed == [1]
    assert list(cluster.quarantined_shards) == [1]
    assert "ArchiveFailedError" in cluster.quarantined_shards[1]
    acked = cluster.n_acked
    cluster.close()
    assert seal_frames(shard_dir(tmp_path / "wal", 1)) == [1, 2, 3, 4]
    # Every shard's log rolls it forward to the cluster's step.
    with load_cluster(tmp_path / "ckpt", wal_dir=tmp_path / "wal") as back:
        assert back.steps_sealed == 4 and back.n_total == acked
        back.check_invariants()
