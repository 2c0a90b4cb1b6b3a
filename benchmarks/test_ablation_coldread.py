"""Ablation A14: the cold-read fast path under concurrent clients.

Ranged partial-object GETs with a fetched-block registry, break-even
readahead and single-flight fetch coalescing cut the object tier's
*request* traffic — GET count and modeled request latency — by >= 5x
on a 32-client cold accurate scatter, while the *charge* layer (the
paper's modeled block I/O) and every answer stay bit-identical across
backends.

Three cells, one per backend.  The baseline the >= 5x is measured
against is the strict accounting — one GET per charged range, exactly
the charged blocks each, no registry, no readahead — *counted on the
same run* from the charged ``read_blocks`` calls the object tier
received (``tests/storage/read_counting.py``), not executed as a
second mode.

Asserted here:

* accurate answers and charged random/sequential-read counters are
  bit-identical across the three cells — backends and concurrency
  change request accounting only, never what the engine charges;
* the object cell issues <= 1/5 the GETs of its strict count and
  accrues <= 1/5 its modeled request latency;
* reported (not asserted, they are workload-shaped): the single-flight
  dedup ratio (coalesced waits per miss) and the mean GET width
  (``get_blocks / gets``) that readahead buys.

The table lands in ``BENCH_coldread.json``.
"""

import shutil
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from conftest import run_once
from common import show, write_bench
from repro import EngineConfig, HybridQuantileEngine
from tests.storage.read_counting import counted_range_charges

STEPS = 8
BATCH = 20_000
SEED = 1013
KAPPA = 3
SHARED_BLOCKS = 4096
OBJECT_TIER_LEVEL = 1
CLIENTS = 32
#: 4 scattered phis per client — a cold accurate scatter over the
#: whole distribution, so probes spray across every tiered run.
PHIS = tuple(np.round(np.linspace(0.004, 0.996, 4 * CLIENTS), 5))
BACKENDS = ("simulated", "mmap", "object")
SPEEDUP_FLOOR = 5.0


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


def request_seconds(device, gets, get_blocks):
    """Modeled request latency of that many GETs (read side only)."""
    model = getattr(device, "latency", None)
    if model is None:
        return 0.0
    return (
        gets * model.seconds_per_get
        + get_blocks * model.seconds_per_get_block
    )


def run_cell(backend, directory):
    engine = build(backend, directory)
    try:
        device = engine.disk.backend
        counters = engine.disk.stats.counters
        rr0, sr0 = counters.random_reads, counters.sequential_reads
        before = device.stats()
        shared0 = engine.shared_cache.stats()

        # 32 clients, 4 scattered accurate quantiles each, all cold.
        answers = [None] * len(PHIS)

        def client(i):
            for j in range(i, len(PHIS), CLIENTS):
                answers[j] = engine.quantile(
                    PHIS[j], mode="accurate"
                ).value

        with counted_range_charges() as strict:
            with ThreadPoolExecutor(max_workers=CLIENTS) as pool:
                list(pool.map(client, range(CLIENTS)))

        delta = device.stats().delta_since(before)
        shared1 = engine.shared_cache.stats()
        engine.check_invariants()
        misses = shared1.misses - shared0.misses
        waits = shared1.coalesced_waits - shared0.coalesced_waits
        return {
            "backend": backend,
            "accurate": [int(v) for v in answers],
            "random_reads": int(counters.random_reads - rr0),
            "sequential_reads": int(counters.sequential_reads - sr0),
            "gets": int(delta.gets),
            "get_blocks": int(delta.get_blocks),
            "get_width": (
                round(delta.get_blocks / delta.gets, 2) if delta.gets else 0.0
            ),
            "coalesced_waits": int(waits),
            "dedup_ratio": round(waits / misses, 3) if misses else 0.0,
            "request_seconds": round(
                request_seconds(device, delta.gets, delta.get_blocks), 6
            ),
            "strict_gets": len(strict),
            "strict_get_blocks": sum(strict),
            "strict_request_seconds": round(
                request_seconds(device, len(strict), sum(strict)), 6
            ),
            "migrations": int(device.stats().migrations),
            "object_runs": int(device.stats().object_runs),
        }
    finally:
        engine.close()


def sweep():
    root = Path(tempfile.mkdtemp(prefix="repro-coldread-"))
    try:
        rows = [run_cell(backend, root / backend) for backend in BACKENDS]
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {
        "benchmark": "coldread_ablation",
        "meta": {
            "steps": STEPS,
            "batch": BATCH,
            "seed": SEED,
            "kappa": KAPPA,
            "shared_cache_blocks": SHARED_BLOCKS,
            "object_tier_level": OBJECT_TIER_LEVEL,
            "clients": CLIENTS,
            "queries": len(PHIS),
            "speedup_floor": SPEEDUP_FLOOR,
            "shards": 1,
            "sketch_backend": "gk",
            "storage_backend": "object",
            "object_tier": True,
            "backends_swept": list(BACKENDS),
        },
        "rows": rows,
    }


def test_ablation_coldread(benchmark):
    doc = run_once(benchmark, sweep)
    show(
        "Ablation A14: cold-read fast path "
        "(32-client cold accurate scatter)",
        [
            "backend", "random reads", "GETs", "GET blocks", "width",
            "dedup", "req s", "strict GETs", "strict req s",
        ],
        [
            [
                r["backend"], r["random_reads"], r["gets"],
                r["get_blocks"], r["get_width"], r["dedup_ratio"],
                r["request_seconds"], r["strict_gets"],
                r["strict_request_seconds"],
            ]
            for r in doc["rows"]
        ],
    )
    write_bench("coldread", doc)

    rows = {row["backend"]: row for row in doc["rows"]}
    baseline = rows["simulated"]

    # The moat: answers and charged I/O are identical in every cell,
    # despite 32 clients racing on the shared cache.
    for backend, row in rows.items():
        assert row["accurate"] == baseline["accurate"], backend
        assert row["random_reads"] == baseline["random_reads"], backend
        assert row["sequential_reads"] == baseline["sequential_reads"], backend

    # Request counters exist only on the object tier.
    for backend in ("simulated", "mmap"):
        row = rows[backend]
        assert row["gets"] == 0 and row["strict_gets"] == 0, backend
        assert row["request_seconds"] == 0.0, backend

    cold = rows["object"]
    assert cold["gets"] > 0 and cold["strict_gets"] > 0
    assert cold["migrations"] > 0 and cold["object_runs"] > 0

    # The tentpole: >= 5x fewer GETs and >= 5x less modeled request
    # latency than one GET per charged range, for identical answers.
    assert cold["gets"] * SPEEDUP_FLOOR <= cold["strict_gets"], (
        cold["gets"], cold["strict_gets"]
    )
    assert (
        cold["request_seconds"] * SPEEDUP_FLOOR
        <= cold["strict_request_seconds"]
    ), (cold["request_seconds"], cold["strict_request_seconds"])

    # Readahead is why: coalesced GETs are wide, strict GETs narrow.
    assert cold["get_width"] > cold["strict_get_blocks"] / cold["strict_gets"]
