"""Ablation A9: the shared block cache on the accurate path.

The tentpole claim of the shared-cache PR: a warehouse-resident block
cache shared across queries turns the paper's per-query block
accounting into a cold/warm quantity — the first sweep over the
warehouse pays (almost) the historical cost, and every later query of
the same epoch finds its upper index blocks and residual ranges
resident, charging measurably fewer blocks.  This ablation measures
exactly that, cold vs. warm vs. disabled, both serially and under the
32-client accurate-path serving workload, and lands the table in
``BENCH_cache.json``.

Acceptance checks asserted here:

* warm queries charge measurably fewer blocks per accurate query than
  cold ones — serially and under 32 concurrent clients;
* every answer, cold or warm, shared tier or not, is bit-identical to
  a serial replay against the same engine state;
* aggregate charge counts of the shared-tier serving runs are
  deterministic across repeated seeded runs (the per-run sharded
  charge-once protocol at work — request interleaving and accurate-path
  dedup may reshuffle *who* pays, never *how much*);
* with the tier disabled, repeating a serial sweep repeats its charges
  exactly (the historical per-query accounting regression check).
"""


import numpy as np

from conftest import run_once
from common import bench_path, show, write_bench
from repro.core.config import ServingConfig
from repro.serving import QueryService
from tests.serving.loadgen import LoadGenerator
from serving_bench import BENCH_PHIS, build_bench_engine

STEPS = 5
BATCH = 10_000
SEED = 7
CLIENTS = 32
REQUESTS_PER_CLIENT = 8
SHARED_BLOCKS = 4096
RESULT_FILE = bench_path("cache")


def build(shared_blocks):
    return build_bench_engine(
        steps=STEPS,
        batch=BATCH,
        seed=SEED,
        shared_cache_blocks=shared_blocks,
    )


def serial_sweep(engine, label):
    """One accurate query per phi; returns the per-query row."""
    results = [engine.quantile(phi, mode="accurate") for phi in BENCH_PHIS]
    blocks = [r.disk_accesses for r in results]
    walls = np.asarray([r.wall_seconds for r in results])
    return {
        "config": label,
        "clients": 1,
        "queries": len(results),
        "blocks_charged": int(sum(blocks)),
        "blocks_per_query": sum(blocks) / len(blocks),
        "p50_ms": float(np.percentile(walls, 50)) * 1e3,
        "p99_ms": float(np.percentile(walls, 99)) * 1e3,
        "values": [r.value for r in results],
    }


def serving_run(engine, label):
    """One 32-client closed-loop accurate run; returns the row."""
    serving = ServingConfig(
        max_queue=max(64, 4 * CLIENTS), accurate_queue=4 * CLIENTS
    )
    reads_before = engine.disk.stats.counters.random_reads
    with QueryService(engine, serving) as service:
        generator = LoadGenerator(service, phis=BENCH_PHIS, seed=SEED)
        result = generator.closed_loop(
            CLIENTS, REQUESTS_PER_CLIENT, mode="accurate"
        )
        snapshot = service.metrics_snapshot()
        shared = engine.shared_cache
        cache = shared.stats() if shared is not None else None
    charged = engine.disk.stats.counters.random_reads - reads_before
    # The engine is quiescent during the run: a serial replay of each
    # phi against the same state must reproduce every answer.
    serial = {
        phi: engine.quantile(phi, mode="accurate").value
        for phi in sorted({phi for phi, _, _ in result.answers})
    }
    identical = all(
        value == serial[phi] for phi, value, _ in result.answers
    )
    accurate = snapshot.latency["accurate"]
    return {
        "config": label,
        "clients": CLIENTS,
        "requests": result.requests,
        "served": result.served,
        "blocks_charged": int(charged),
        "blocks_per_query": charged / result.served,
        "p50_ms": accurate.p50 * 1e3,
        "p99_ms": accurate.p99 * 1e3,
        "bit_identical": identical,
        "cache_hits": cache.hits if cache is not None else 0,
        "cache_hit_rate": (
            cache.hits / max(1, cache.hits + cache.misses)
            if cache is not None else 0.0
        ),
        "warm_passes": snapshot.warm_passes,
        "warm_blocks": snapshot.warm_blocks,
        "answers": sorted(
            (phi, value) for phi, value, _ in result.answers
        ),
    }


def shared_serving_scenario():
    """Cold then warm 32-client runs on one shared-tier engine."""
    engine = build(SHARED_BLOCKS)
    try:
        cold = serving_run(engine, "shared-cold")
        warm = serving_run(engine, "shared-warm")
    finally:
        engine.close()
    return cold, warm


def sweep():
    doc = {
        "benchmark": "cache_ablation",
        "meta": {
            "steps": STEPS,
            "batch": BATCH,
            "seed": SEED,
            "clients": CLIENTS,
            "requests_per_client": REQUESTS_PER_CLIENT,
            "shared_cache_blocks": SHARED_BLOCKS,
            "phis": list(BENCH_PHIS),
            "shards": 1,
            "sketch_backend": "gk",
            "storage_backend": "simulated",
            "object_tier": False,
        },
    }

    # Serial: disabled sweeps twice (accounting regression), shared
    # engine sweeps cold then warm.
    disabled = build(0)
    try:
        doc["serial"] = [
            serial_sweep(disabled, "disabled"),
            serial_sweep(disabled, "disabled-repeat"),
        ]
        doc["serving"] = [serving_run(disabled, "disabled")]
    finally:
        disabled.close()
    shared = build(SHARED_BLOCKS)
    try:
        doc["serial"].append(serial_sweep(shared, "shared-cold"))
        doc["serial"].append(serial_sweep(shared, "shared-warm"))
    finally:
        shared.close()

    # Serving: two identical seeded shared-tier scenarios — the second
    # exists purely to assert charge-count determinism.
    first_cold, first_warm = shared_serving_scenario()
    second_cold, second_warm = shared_serving_scenario()
    doc["serving"] += [first_cold, first_warm]
    doc["determinism"] = {
        "cold_blocks": [
            first_cold["blocks_charged"], second_cold["blocks_charged"]
        ],
        "warm_blocks": [
            first_warm["blocks_charged"], second_warm["blocks_charged"]
        ],
        "answers_identical": (
            first_cold["answers"] == second_cold["answers"]
            and first_warm["answers"] == second_warm["answers"]
        ),
    }
    return doc


def test_ablation_cache(benchmark):
    doc = run_once(benchmark, sweep)
    show(
        "Ablation A9: shared block cache (serial accurate sweeps)",
        ["config", "queries", "blocks", "blocks/query", "p50 ms", "p99 ms"],
        [
            [
                r["config"], r["queries"], r["blocks_charged"],
                round(r["blocks_per_query"], 2),
                round(r["p50_ms"], 3), round(r["p99_ms"], 3),
            ]
            for r in doc["serial"]
        ],
    )
    show(
        "Ablation A9: shared block cache (32-client accurate serving)",
        [
            "config", "served", "blocks", "blocks/query", "hit rate",
            "p50 ms", "p99 ms", "identical",
        ],
        [
            [
                r["config"], r["served"], r["blocks_charged"],
                round(r["blocks_per_query"], 2),
                round(r.get("cache_hit_rate", 0.0), 3),
                round(r["p50_ms"], 2), round(r["p99_ms"], 2),
                r["bit_identical"],
            ]
            for r in doc["serving"]
        ],
    )
    # The schema's common table: one row per serial config plus one
    # per serving scenario (the detailed groups stay alongside).
    doc["rows"] = doc["serial"] + doc["serving"]
    write_bench("cache", doc)

    serial = {r["config"]: r for r in doc["serial"]}
    serving = {r["config"]: r for r in doc["serving"]}

    # Historical accounting regression: without the shared tier each
    # query pays its own full block set, every time, identically.
    assert (
        serial["disabled"]["blocks_charged"]
        == serial["disabled-repeat"]["blocks_charged"]
    )
    assert serial["disabled"]["values"] == serial["disabled-repeat"]["values"]

    # Answers never depend on the cache configuration.
    for row in doc["serial"]:
        assert row["values"] == serial["disabled"]["values"], row["config"]

    # The headline: a warm shared tier charges measurably fewer blocks
    # per accurate query than a cold one — serially...
    assert (
        serial["shared-warm"]["blocks_charged"]
        <= serial["shared-cold"]["blocks_charged"] / 2
    )
    # ...and under the 32-client serving workload.
    assert (
        serving["shared-warm"]["blocks_charged"]
        <= serving["shared-cold"]["blocks_charged"] / 2
    )
    assert (
        serving["shared-warm"]["blocks_per_query"]
        < serving["disabled"]["blocks_per_query"]
    )
    assert serving["shared-warm"]["cache_hits"] > 0

    # Every served answer matched its serial replay, bit for bit.
    for row in doc["serving"]:
        assert row["served"] == row["requests"]
        assert row["bit_identical"], row["config"]

    # Deterministic charge counts across repeated seeded runs: the
    # shared tier charges each resident block once globally, so the
    # aggregate is interleaving-proof.
    determinism = doc["determinism"]
    assert determinism["cold_blocks"][0] == determinism["cold_blocks"][1]
    assert determinism["warm_blocks"][0] == determinism["warm_blocks"][1]
    assert determinism["answers_identical"]
