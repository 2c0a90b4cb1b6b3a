"""The serving benchmark: throughput, tail latency, coalescing ratio.

One callable, :func:`run_serving_bench`, drives the whole A8 ablation:

* a closed-loop client sweep reporting throughput, p50/p99, and TS
  merges per served request — plus a bit-identity check replaying
  every answered phi serially against the same (quiescent) engine
  state;
* an open-loop overload run against a deliberately small queue,
  demonstrating typed :class:`~repro.serving.Overloaded`
  rejections (or accurate→quick degradation) instead of unbounded
  queue growth.

The returned dict is what ``test_ablation_serving.py`` asserts over
and writes to ``BENCH_serving.json``; ``test_ablation_cache.py`` (A9)
reuses :func:`build_bench_engine` and :data:`BENCH_PHIS`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.config import EngineConfig, ServingConfig
from repro.core.engine import HybridQuantileEngine
from repro.serving import QueryService
from repro.workloads import NormalWorkload
from tests.serving.loadgen import LoadGenerator

BENCH_PHIS = (0.25, 0.5, 0.75, 0.95, 0.99)


def build_bench_engine(
    steps: int = 6,
    batch: int = 20_000,
    epsilon: float = 0.01,
    kappa: int = 10,
    seed: int = 7,
    ingest_mode: str = "background",
    shared_cache_blocks: int = 0,
    update_batch: "int | None" = None,
) -> HybridQuantileEngine:
    """A warehouse pre-loaded with a seeded Normal workload.

    Ingestion runs through the vectorized ``stream_update_many`` path;
    ``update_batch`` chunks each per-step array into smaller update
    calls (``None`` hands the whole step over in one call).
    """
    config = EngineConfig(
        epsilon=epsilon,
        kappa=kappa,
        block_elems=100,
        ingest_mode=ingest_mode,
        shared_cache_blocks=shared_cache_blocks,
    )
    engine = HybridQuantileEngine(config=config)
    workload = NormalWorkload(seed=seed)
    workload.feed(engine, steps, batch, update_batch=update_batch)
    engine.flush()
    # Leave a live stream tail so queries exercise the HS ∪ SS union.
    engine.stream_update_many(workload.generate(batch))
    return engine


def _closed_loop_row(
    engine: HybridQuantileEngine,
    clients: int,
    requests_per_client: int,
    phis: Sequence[float],
    seed: int,
) -> Dict[str, object]:
    serving = ServingConfig(max_queue=max(64, 4 * clients))
    merges_before = engine.epoch_stats.ts_merges
    with QueryService(engine, serving) as service:
        generator = LoadGenerator(service, phis=phis, seed=seed)
        result = generator.closed_loop(
            clients,
            requests_per_client,
            mode="quick",
            # Warm up with a guaranteed real batch so the ratio
            # assertion is deterministic, not scheduler-dependent.
            pause_until_queued=2 if clients > 1 else 0,
        )
        snapshot = service.metrics_snapshot()
    merges = engine.epoch_stats.ts_merges - merges_before
    # Bit-identity: the engine is quiescent during the run, so a serial
    # replay of each phi at the same state must reproduce every answer.
    serial = {
        phi: engine.quantile(phi, mode="quick").value
        for phi in sorted({phi for phi, _, _ in result.answers})
    }
    identical = all(
        value == serial[phi] for phi, value, _ in result.answers
    )
    quick = snapshot.latency["quick"]
    return {
        "clients": clients,
        "requests": result.requests,
        "served": result.served,
        "rejected": result.rejected,
        "ts_merges": merges,
        "coalescing_ratio": (
            merges / result.served if result.served else 1.0
        ),
        "coalesced_batches": snapshot.coalesced_batches,
        "max_batch": snapshot.max_batch,
        "throughput_qps": result.throughput_qps,
        "p50_ms": quick.p50 * 1e3,
        "p99_ms": quick.p99 * 1e3,
        "bit_identical": identical,
    }


def _overload_row(
    engine: HybridQuantileEngine,
    phis: Sequence[float],
    seed: int,
    total_requests: int = 120,
    degrade: bool = False,
) -> Dict[str, object]:
    serving = ServingConfig(
        max_queue=8,
        accurate_queue=4,
        accurate_workers=1,
        degrade_on_overload=degrade,
    )
    with QueryService(engine, serving) as service:
        generator = LoadGenerator(service, phis=phis, seed=seed)
        # Arrival rate far past what one accurate worker can absorb:
        # the bounded queue must shed load, not grow.
        result = generator.open_loop(
            rate_qps=50_000.0,
            total_requests=total_requests,
            mode="accurate",
        )
        snapshot = service.metrics_snapshot()
    accurate = snapshot.latency["accurate"]
    return {
        "mode": "degrade" if degrade else "reject",
        "rate_qps": 50_000.0,
        "requests": result.requests,
        "served": result.served,
        "rejected": result.rejected,
        "degraded": result.degraded,
        "queue_bound": serving.accurate_queue_bound,
        "peak_queue_depth": snapshot.peak_queue_depth,
        "p99_ms": max(accurate.p99, snapshot.p99("quick")) * 1e3,
    }


def run_serving_bench(
    steps: int = 6,
    batch: int = 20_000,
    clients: Sequence[int] = (1, 8, 32),
    requests_per_client: int = 25,
    seed: int = 7,
    engine: Optional[HybridQuantileEngine] = None,
) -> Dict[str, object]:
    """Run the full A8 serving ablation; returns the result document."""
    own_engine = engine is None
    if engine is None:
        engine = build_bench_engine(steps=steps, batch=batch, seed=seed)
    try:
        rows: List[Dict[str, object]] = [
            _closed_loop_row(
                engine, count, requests_per_client, BENCH_PHIS, seed
            )
            for count in clients
        ]
        overload = [
            _overload_row(engine, BENCH_PHIS, seed, degrade=False),
            _overload_row(engine, BENCH_PHIS, seed, degrade=True),
        ]
        return {
            "benchmark": "serving_ablation",
            "meta": {
                "steps": steps,
                "batch": batch,
                "clients": list(clients),
                "requests_per_client": requests_per_client,
                "seed": seed,
                "n_total": engine.n_total,
            },
            "closed_loop": rows,
            "overload": overload,
        }
    finally:
        if own_engine:
            engine.close()
