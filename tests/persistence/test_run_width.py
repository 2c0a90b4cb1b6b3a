"""Checkpoints keep each run at its width.

A part file is a ``.npy`` array at its run's width: int32 where the
run's values fit it, int64 otherwise.  Engine and cluster checkpoints
round-trip on every backend with equal answers, aggregates and block
counts; a checkpoint whose part files are all int64 (the format every
run had before runs were narrowed) loads into the same answers; floats
and ``uint64`` past ``INT64_MAX`` are still refused.
"""

import json

import numpy as np
import pytest

from repro import EngineConfig, HybridQuantileEngine
from repro.cluster import ClusterEngine, load_cluster, save_cluster
from repro.persistence import PersistenceError, load_engine, save_engine
from repro.persistence.checkpoint import WAREHOUSE_DIR
from repro.persistence.warehouse_store import MANIFEST_NAME, _crc32_of

from ..core.test_query_doors import same

BACKENDS = ["simulated", "mmap", "object"]
PHIS = (0.01, 0.3, 0.5, 0.97)
NARROW, WIDE = np.dtype(np.int32), np.dtype(np.int64)


def config(backend, **overrides):
    return EngineConfig(
        epsilon=0.02, kappa=3, block_elems=64, storage_backend=backend,
        **overrides,
    )


def feed(system, seed=5):
    """Seven steps, the sixth beyond int32, and a live tail: with
    kappa = 3 one level-1 run is int32 and the other int64."""
    rng = np.random.default_rng(seed)
    for step in range(7):
        reach = 2**40 if step == 5 else 2**31
        system.stream_update_many(rng.integers(-reach, reach, 3000))
        system.end_time_step()
    system.flush()
    system.stream_update_many(rng.integers(0, 1000, 700))


def answers(system):
    return [
        system.quantile(phi, mode=mode)
        for mode in ("quick", "accurate") for phi in PHIS
    ]


def agree(a, b):
    return all(same(x, y) for x, y in zip(answers(a), answers(b)))


def widths(engine):
    return [p.run.values.dtype for p in engine.store.partitions()]


def rewrite_parts(warehouse, convert):
    """Rewrite every part file of ``warehouse`` through ``convert``,
    with checksums the manifest agrees with."""
    manifest_path = warehouse / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    for level in manifest["levels"]:
        for entry in level:
            path = warehouse / entry["file"]
            np.save(path, convert(np.load(path)))
            entry["crc32"] = _crc32_of(path)
    manifest_path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("backend", BACKENDS)
def test_an_engine_checkpoint_keeps_each_width(tmp_path, backend):
    with HybridQuantileEngine(config=config(backend)) as engine:
        feed(engine)
        assert set(widths(engine)) == {NARROW, WIDE}
        save_engine(engine, tmp_path / "ckpt")
        parts = sorted((tmp_path / "ckpt" / WAREHOUSE_DIR).glob("part-*.npy"))
        assert sorted(np.load(p).dtype.str for p in parts) == sorted(
            w.str for w in widths(engine)
        )
        with load_engine(tmp_path / "ckpt") as restored:
            assert widths(restored) == widths(engine)
            for a, b in zip(engine.store.partitions(),
                            restored.store.partitions()):
                assert np.array_equal(a.run.values, b.run.values)
            assert restored.aggregate() == engine.aggregate()
            assert agree(restored, engine)


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_cluster_checkpoint_keeps_each_width(tmp_path, backend):
    cluster = ClusterEngine(
        shards=3, config=config(backend, sketch_backend="kll")
    )
    try:
        feed(cluster)
        assert NARROW in {w for s in cluster.shards for w in widths(s)}
        save_cluster(cluster, tmp_path / "ckpt")
        restored = load_cluster(tmp_path / "ckpt")
        try:
            for shard, twin in zip(cluster.shards, restored.shards):
                assert widths(twin) == widths(shard)
                assert twin.aggregate() == shard.aggregate()
            assert agree(restored, cluster)
        finally:
            restored.close()
    finally:
        cluster.close()


def test_an_int64_checkpoint_loads_into_the_same_answers(tmp_path):
    with HybridQuantileEngine(config=config("simulated")) as engine:
        feed(engine)
        save_engine(engine, tmp_path / "ckpt")
        rewrite_parts(
            tmp_path / "ckpt" / WAREHOUSE_DIR, lambda a: a.astype(np.int64)
        )
        with load_engine(tmp_path / "ckpt") as restored:
            assert set(widths(restored)) == {WIDE}
            assert restored.aggregate() == engine.aggregate()
            assert agree(restored, engine)
            # The merge of loaded step 7 with two new steps narrows.
            for _ in range(3):
                restored.stream_update_many(np.arange(-500, 500))
                restored.end_time_step()
            (merged,) = [
                p for p in restored.store.partitions() if p.start_step == 7
            ]
            assert merged.level == 1 and merged.run.values.dtype == NARROW


@pytest.mark.parametrize(
    "convert",
    [
        lambda a: a.astype(np.float64),
        lambda a: a.astype(np.float32),
        lambda a: (a.astype(np.int64) - a.min()).astype(np.uint64)
        + np.uint64(2**63),
    ],
    ids=["float64", "float32", "wide uint64"],
)
@pytest.mark.parametrize("repair", [False, True])
def test_floats_and_wide_uint64_are_refused(tmp_path, convert, repair):
    with HybridQuantileEngine(config=config("simulated")) as engine:
        feed(engine)
        save_engine(engine, tmp_path / "ckpt")
    warehouse = tmp_path / "ckpt" / WAREHOUSE_DIR
    victim = next(warehouse.glob("part-*.npy"))
    np.save(victim, convert(np.load(victim)))
    if not repair:  # a clean load; repair salvages the stale checksum
        rewrite_parts(warehouse, lambda a: a)
    with pytest.raises(PersistenceError, match="not int32 or int64"):
        load_engine(tmp_path / "ckpt", repair=repair)
