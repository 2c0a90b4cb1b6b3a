"""Where the benchmark touches the program's layers.

Three things live here, all through public names of ``repro``:

* :func:`install_wrappers` — the timed pass-through wrappers the traced
  run puts around each layer's entry points;
* :func:`staged_quantile` — one query driven stage by stage through the
  public calls ``engine.quantile`` itself composes, so the traced run
  sees every stage boundary of a single-engine query;
* :func:`read_counters` / :func:`read_gauges` — one flat reading of the
  program's public stats surfaces (``DiskStats``, ``epoch_stats``,
  ``SharedBlockCache.stats()``, backend ``stats()``, ``ingest_stats``).
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence

import numpy as np

from repro import HybridQuantileEngine, QueryResult
from repro.cluster import ClusterEngine, ClusterSnapshot, ShardRouter
from repro.core.bounds import CombinedSummary
from repro.core.filters import AccurateSearch
from repro.core.summaries import PartitionSummary, StreamSummary
from repro.ingest.wal import WriteAheadLog
from repro.query import QueryExecutor
from repro.sketches.base import rank_for_phi
from repro.sketches.gk import GKSketch
from repro.sketches.kll import KLLSketch
from repro.storage.cache import BlockCache
from repro.warehouse.leveled_store import LeveledStore

from .trace import Tracer


def install_wrappers(tracer: Tracer) -> None:
    """Wrap every layer entry point; ``tracer.restore()`` undoes it."""

    def absorbed(t: Tracer, args: tuple, _result: object) -> None:
        t.count("sketches.absorb_elems", np.size(args[1]))

    def ts_built(t: Tracer, _args: tuple, result: object) -> None:
        t.count("core.bounds.ts_elems", len(result))

    def probed(t: Tracer, args: tuple, _result: object) -> None:
        t.count("query.probe_tasks", len(args[1]))

    def logged(t: Tracer, args: tuple, _result: object) -> None:
        t.count("ingest.wal.bytes", 8 * np.size(args[1]))

    for sketch in (GKSketch, KLLSketch):
        tracer.wrap(sketch, "update_many", "sketches.absorb", absorbed)
        tracer.wrap(sketch, "snapshot", "sketches.snapshot")
    tracer.wrap(KLLSketch, "merge_many", "sketches.merge_many")
    tracer.wrap(CombinedSummary, "build", "core.bounds.ts_build", ts_built)
    # The serving layer's coalescer answers through the vectorized twin.
    for method in ("quick_response", "quick_responses"):
        tracer.wrap(CombinedSummary, method, "core.bounds.quick_response")
    tracer.wrap(StreamSummary, "extract", "core.summaries.stream_extract")
    tracer.wrap(PartitionSummary, "build", "core.summaries.partition_build")
    tracer.wrap(LeveledStore, "add_batch", "warehouse.add_batch")
    tracer.wrap(LeveledStore, "stage_partition", "warehouse.stage")
    tracer.wrap(LeveledStore, "adopt_partition", "warehouse.adopt")
    tracer.wrap(HybridQuantileEngine, "stream_update_many", "ingest.append")
    tracer.wrap(HybridQuantileEngine, "end_time_step", "ingest.seal")
    tracer.wrap(HybridQuantileEngine, "pin", "core.epoch.pin")
    tracer.wrap(AccurateSearch, "run", "core.filters.search")
    tracer.wrap(QueryExecutor, "run_tasks", "query.run_tasks", probed)
    tracer.wrap(WriteAheadLog, "append_batch", "ingest.wal.append", logged)
    tracer.wrap(WriteAheadLog, "append_seal", "ingest.wal.append")
    tracer.wrap(ShardRouter, "route_many", "cluster.route")
    tracer.wrap(ClusterEngine, "pin", "cluster.pin")
    tracer.wrap(ClusterSnapshot, "combined", "cluster.fuse")


def staged_quantile(
    engine: HybridQuantileEngine, phi: float, mode: str
) -> QueryResult:
    """``engine.quantile(phi, mode)`` composed from its public stages.

    absorb (``stream_sketch``) -> ``pin`` -> ``stream_summary`` ->
    ``combined`` -> ``quick_response`` | ``AccurateSearch.run`` ->
    release.  The traced run replays every staged answer through
    ``engine.quantile`` and fails the operation on any difference.
    """
    config = engine.config
    with engine.disk.stats.phase_scope("query"):
        engine.stream_sketch()
        with engine.pin() as handle:
            summary = handle.stream_summary()
            combined = handle.combined()
            total = combined.total_size
            rank = rank_for_phi(phi, handle.n_total)
            if mode == "quick":
                value = combined.quick_response(rank)
                m = summary.stream_size
                bound = config.epsilon1 * (total - m) + config.epsilon2 * m
                blocks = iterations = 0
                truncated = False
                estimated = float(rank)
            else:
                outcome = AccurateSearch(
                    partitions=handle.partitions,
                    stream_summary=summary,
                    combined=combined,
                    config=config,
                    rank=rank,
                    stream_rank_fn=handle.stream_rank,
                    cache=BlockCache(
                        engine.disk,
                        enabled=config.block_cache,
                        shared=engine.shared_cache,
                    ),
                    executor=engine.query_executor,
                ).run()
                value = outcome.value
                bound = config.query_epsilon * summary.stream_size
                blocks = outcome.random_blocks
                iterations = outcome.iterations
                truncated = outcome.truncated
                estimated = outcome.estimated_rank
    return QueryResult(
        value=int(value),
        target_rank=rank,
        total_size=total,
        mode=mode,
        estimated_rank=estimated,
        disk_accesses=blocks,
        iterations=iterations,
        truncated=truncated,
        wall_seconds=0.0,
        sim_seconds=0.0,
        rank_error_bound=float(bound),
    )


#: fields on which a staged answer must equal ``engine.quantile``'s.
REPLAY_FIELDS = (
    "value", "target_rank", "total_size", "disk_accesses", "iterations",
    "truncated", "rank_error_bound",
)


def read_counters(engines: Iterable[HybridQuantileEngine]) -> Dict[str, float]:
    """Cumulative counters summed over ``engines`` (difference two reads)."""
    totals: Dict[str, float] = {}

    def add(key: str, amount: float) -> None:
        totals[key] = totals.get(key, 0) + amount

    for engine in engines:
        io = engine.disk.stats
        add("storage.random_blocks", io.query.random_reads)
        for phase in ("load", "sort", "merge"):
            add(f"storage.seq_blocks_{phase}", getattr(io, phase).sequential)
        epochs = engine.epoch_stats
        add("epoch.ts_merges", epochs.ts_merges)
        backend = engine.disk.backend
        requests = backend.stats()
        for field in ("gets", "get_blocks", "puts", "migrations",
                      "evicted_runs"):
            add(f"storage.backend.{field}", getattr(requests, field))
        add("storage.backend.modeled_request_s", backend.simulated_seconds())
        if engine.shared_cache is not None:
            cache = engine.shared_cache.stats()
            for field in ("hits", "misses", "evictions", "invalidated_runs",
                          "coalesced_waits", "prefetched_blocks"):
                add(f"storage.cache.{field}", getattr(cache, field))
        ingest = engine.ingest_stats
        if ingest is not None:
            add("ingest.archiver.stall_s", ingest.stall_seconds)
            add("ingest.archiver.archive_wall_s", ingest.archive_wall_seconds)
    return totals


def read_gauges(engines: Sequence[HybridQuantileEngine]) -> Dict[str, float]:
    """Levels (not differenced) at the end of a round."""
    sizes = [engine.n_total for engine in engines]
    return {
        "warehouse.partitions_final": sum(
            engine.store.partition_count() for engine in engines
        ),
        "core.epoch.peak_pins": max(
            engine.epoch_stats.peak_pins for engine in engines
        ),
        "storage.backend.hot_bytes": sum(
            engine.disk.backend.stats().hot_bytes for engine in engines
        ),
        "ingest.archiver.max_queue_depth": max(
            (engine.ingest_stats.max_queue_depth
             for engine in engines if engine.ingest_stats is not None),
            default=0,
        ),
        "cluster.shard_skew": (
            max(sizes) / (sum(sizes) / len(sizes)) if sum(sizes) else 0.0
        ),
        "cluster.per_shard_blocks_max": max(
            engine.disk.stats.query.random_reads for engine in engines
        ),
    }
