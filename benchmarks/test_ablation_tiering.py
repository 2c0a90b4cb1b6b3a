"""Ablation A13: tiered storage backends behind the block-device protocol.

The tentpole claim of the storage-backend PR: where the bytes live is
orthogonal to what the engine charges.  The same seeded workload runs
on all three backends — simulated (resident arrays), mmap (one real
file per run), object (hot files plus an emulated bucket that cold
levels age into) — and must produce bit-identical quick and accurate
answers with bit-identical charged block I/O.  The backends differ
only in request-level accounting: the object tier counts GETs, PUTs
and migrations and folds per-request latency into the modeled clock.

Acceptance checks asserted here:

* quick and accurate answers are identical across the three backends,
  phi for phi, and so are the charged random/sequential counters;
* the object backend actually tiered: runs migrated into the bucket
  and cold accurate sweeps issue GETs against it;
* a warm sweep (shared cache resident) issues far fewer GETs than the
  cold sweep — request accounting follows the charge paths, so cache
  hits never become object requests;
* the object tier's modeled time exceeds the same workload's mmap
  time (requests cost latency), while charged blocks stay equal.

The table lands in ``BENCH_tiering.json``.
"""

import shutil
import tempfile
from pathlib import Path

import numpy as np

from conftest import run_once
from common import show, write_bench
from repro import EngineConfig, HybridQuantileEngine

STEPS = 8
BATCH = 20_000
SEED = 1013
KAPPA = 3  # small fan-in so level-0 runs merge upward (and migrate)
SHARED_BLOCKS = 4096
OBJECT_TIER_LEVEL = 1
PHIS = (0.05, 0.25, 0.5, 0.75, 0.95, 0.99)
BACKENDS = ("simulated", "mmap", "object")


def build(backend, directory):
    config = EngineConfig(
        epsilon=0.01,
        kappa=KAPPA,
        block_elems=100,
        shared_cache_blocks=SHARED_BLOCKS,
        storage_backend=backend,
        storage_dir=str(directory) if backend != "simulated" else None,
        object_tier_level=OBJECT_TIER_LEVEL,
    )
    engine = HybridQuantileEngine(config=config)
    rng = np.random.default_rng(SEED)
    for _ in range(STEPS):
        engine.stream_update_many(
            rng.normal(5e5, 1e5, size=BATCH).astype(np.int64)
        )
        engine.end_time_step()
    # Leave a live stream tail so queries exercise the HS ∪ SS union.
    engine.stream_update_many(
        rng.normal(5e5, 1e5, size=BATCH // 2).astype(np.int64)
    )
    return engine


def accurate_sweep(engine):
    results = [engine.quantile(phi, mode="accurate") for phi in PHIS]
    return (
        [r.value for r in results],
        sum(r.disk_accesses for r in results),
    )


def run_backend(backend, directory):
    engine = build(backend, directory)
    try:
        quick = [engine.quantile(phi, mode="quick").value for phi in PHIS]
        device = engine.disk.backend

        cold_before = device.stats()
        accurate, cold_blocks = accurate_sweep(engine)
        cold = device.stats().delta_since(cold_before)

        warm_before = device.stats()
        accurate_warm, warm_blocks = accurate_sweep(engine)
        warm = device.stats().delta_since(warm_before)

        engine.check_invariants()
        counters = engine.disk.stats.counters
        stats = device.stats()
        return {
            "backend": backend,
            "quick": quick,
            "accurate": accurate,
            "accurate_warm": accurate_warm,
            "random_reads": int(counters.random_reads),
            "sequential_reads": int(counters.sequential_reads),
            "sequential_writes": int(counters.sequential_writes),
            "cold_blocks": int(cold_blocks),
            "warm_blocks": int(warm_blocks),
            "cold_gets": int(cold.gets),
            "cold_get_blocks": int(cold.get_blocks),
            "warm_gets": int(warm.gets),
            "puts": int(stats.puts),
            "migrations": int(stats.migrations),
            "object_runs": int(stats.object_runs),
            "hot_runs": int(stats.hot_runs),
            "sim_seconds": float(engine.disk.simulated_seconds()),
        }
    finally:
        engine.close()


def sweep():
    root = Path(tempfile.mkdtemp(prefix="repro-tiering-"))
    try:
        rows = [
            run_backend(backend, root / backend) for backend in BACKENDS
        ]
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "benchmark": "tiering_ablation",
        "meta": {
            "steps": STEPS,
            "batch": BATCH,
            "seed": SEED,
            "kappa": KAPPA,
            "shared_cache_blocks": SHARED_BLOCKS,
            "object_tier_level": OBJECT_TIER_LEVEL,
            "phis": list(PHIS),
            "shards": 1,
            "sketch_backend": "gk",
            "storage_backend": "object",
            "object_tier": True,
            "backends_swept": list(BACKENDS),
        },
        "rows": rows,
    }


def test_ablation_tiering(benchmark):
    doc = run_once(benchmark, sweep)
    show(
        "Ablation A13: tiered storage backends (identical charges, "
        "request accounting on top)",
        [
            "backend", "random reads", "cold GETs", "warm GETs",
            "PUTs", "migrations", "cold runs", "sim s",
        ],
        [
            [
                r["backend"], r["random_reads"], r["cold_gets"],
                r["warm_gets"], r["puts"], r["migrations"],
                r["object_runs"], round(r["sim_seconds"], 4),
            ]
            for r in doc["rows"]
        ],
    )
    write_bench("tiering", doc)

    rows = {row["backend"]: row for row in doc["rows"]}
    baseline = rows["simulated"]

    # The moat: answers and charged I/O are backend-independent.
    for name in BACKENDS:
        row = rows[name]
        assert row["quick"] == baseline["quick"], name
        assert row["accurate"] == baseline["accurate"], name
        assert row["accurate_warm"] == row["accurate"], name
        assert row["random_reads"] == baseline["random_reads"], name
        assert row["sequential_reads"] == baseline["sequential_reads"], name
        assert row["sequential_writes"] == baseline["sequential_writes"], name
        assert row["cold_blocks"] == baseline["cold_blocks"], name
        assert row["warm_blocks"] == baseline["warm_blocks"], name

    # Request counters stay zero off the object backend.
    for name in ("simulated", "mmap"):
        row = rows[name]
        assert row["cold_gets"] == 0 and row["puts"] == 0, name
        assert row["sim_seconds"] == baseline["sim_seconds"], name

    # The object backend actually tiered and served cold reads as GETs.
    tiered = rows["object"]
    assert tiered["migrations"] > 0
    assert tiered["object_runs"] > 0
    assert tiered["cold_gets"] > 0
    assert tiered["cold_get_blocks"] >= tiered["cold_gets"]

    # Warm sweeps find the shared tier resident: cache hits charge
    # nothing, so they never become object requests.
    assert tiered["warm_gets"] <= tiered["cold_gets"] / 4
    assert tiered["warm_blocks"] < tiered["cold_blocks"]

    # Requests cost modeled latency on top of the block model.
    assert tiered["sim_seconds"] > rows["mmap"]["sim_seconds"]
