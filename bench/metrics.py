"""The benchmark's metric tables, in one place.

``BENCHMARK.json`` at the repository root carries the same names, units
and directions in the driver's fixed schema (``bench/tests`` keeps the
two in step); the extra columns here — which workload a layer metric is
expected to move, and which end-to-end metric it should move there —
have no slot in that schema and live only in this file.

Per-layer names are ``<module>.<metric>`` with ``<module>`` a package
under ``src/repro``.  Anything whose name contains ``modeled`` comes
from a latency *model*, never from a clock.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

WORKLOADS: Dict[str, str] = {
    "ingest_heavy": (
        "write-dominated single engine: sketch absorb, sort/merge and "
        "partition-summary build do the work, query layers almost none"
    ),
    "query_heavy": (
        "read-dominated single engine on a wide universe: epoch pin, TS "
        "build, filters and probes do the work, ingest and storage none"
    ),
    "mixed_serving": (
        "2 closed-loop clients through QueryService on a cold object tier "
        "with background ingest: serving, cache, backend, archiver and locks"
    ),
    "cluster_4shard": (
        "4 KLL shards with per-shard WALs: router fan-out, pin-all-shards, "
        "summary fusion and scatter/gather, where the known hot path lives"
    ),
}


class EndToEnd(NamedTuple):
    """One operator-visible metric and the bound the driver gates it by.

    Durations are wall-clock read at reference speed
    (``bench/README.md``, "Shape of a run").  The schema has one bound
    per metric, not per workload, so each is set by the workload that
    spreads widest: over ten seeds (distance between quartiles over the
    median) the timings spread 0.01-0.05 on the three single-threaded
    workloads and 0.05-0.12 on ``mixed_serving``, whose threads
    interleave differently every round.  ``compare.py`` judges the
    single-threaded workloads by :data:`STEADY_TIMING_BOUND` instead.
    Tail latencies spread 0.04-0.15 and are per-layer rows
    (``core.engine.*_p95_ms``); the rates divide by total call time, so
    a stall on one call in twenty moves them.
    """

    name: str
    unit: str
    better: str
    bound: float
    meaning: str


END_TO_END: List[EndToEnd] = [
    EndToEnd("setup_s", "s", "lower", 0.25,
             "median data generation + median system set-up (construct, "
             "pre-load, warm-up) before a measured round"),
    EndToEnd("ingest_updates_per_s", "elements/s", "higher", 0.25,
             "elements acked through seal + archive + flush per second a "
             "client spends in the calls of the phase that ingests them"),
    EndToEnd("quick_p50_ms", "ms", "lower", 0.25,
             "caller-observed latency of a quick (Alg. 5) quantile, median "
             "of every answered call of every round"),
    EndToEnd("accurate_p50_ms", "ms", "lower", 0.25,
             "caller-observed latency of an accurate (Alg. 6-8) quantile"),
    EndToEnd("ops_per_s", "ops/s", "higher", 0.25,
             "closed-loop operations completed per second a client spends "
             "in calls"),
    EndToEnd("accurate_blocks_per_query", "blocks", "lower", 0.15,
             "mean QueryResult.disk_accesses, the paper's currency"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "ru_maxrss of the workload process, read before the oracle runs"),
]

#: workloads with one client thread.
SINGLE_THREADED: Tuple[str, ...] = (
    "ingest_heavy", "query_heavy", "cluster_4shard")

#: the bound ``compare.py`` puts on the rates and latencies of the
#: single-threaded workloads: three times their ten-seed spread.
STEADY_TIMING_BOUND = 0.10
TIMINGS: Tuple[str, ...] = (
    "ingest_updates_per_s", "quick_p50_ms", "accurate_p50_ms", "ops_per_s")

#: counts made by the program that repeat exactly for a given seed on
#: the single-threaded workloads: ``compare.py`` compares them there
#: with ``==`` when both sides ran the same seed.  The bound above is
#: for comparisons across seeds, where the data differ.
EXACT: Tuple[str, ...] = ("accurate_blocks_per_query",)


class Layer(NamedTuple):
    """One per-layer metric and the end-to-end metrics it should move."""

    name: str
    unit: str
    better: str
    #: ``(end_to_end_metric, workload)`` pairs; on every other pairing
    #: the prediction is *no change*.
    moves: Tuple[Tuple[str, str], ...] = ()


def _moves(*pairs: str) -> Tuple[Tuple[str, str], ...]:
    return tuple(tuple(pair.split("@")) for pair in pairs)


_INGEST = _moves("ingest_updates_per_s@ingest_heavy",
                 "ingest_updates_per_s@cluster_4shard")
_SEAL = _moves("ingest_updates_per_s@ingest_heavy")
_QUERY_BOTH = _moves("quick_p50_ms@query_heavy", "accurate_p50_ms@query_heavy",
                     "quick_p50_ms@cluster_4shard",
                     "accurate_p50_ms@cluster_4shard")
_ACCURATE = _moves("accurate_p50_ms@query_heavy",
                   "accurate_blocks_per_query@query_heavy")
_COLD = _moves("accurate_p50_ms@mixed_serving", "ops_per_s@mixed_serving")
_SERVE = _moves("quick_p50_ms@mixed_serving", "ops_per_s@mixed_serving")
_CLUSTER = _moves("quick_p50_ms@cluster_4shard",
                  "accurate_p50_ms@cluster_4shard",
                  "ingest_updates_per_s@cluster_4shard")
_BLOCKS = _moves("accurate_blocks_per_query@query_heavy",
                 "accurate_blocks_per_query@cluster_4shard")

PER_LAYER: List[Layer] = [
    # sketches
    Layer("sketches.absorb_s", "s", "lower",
          _INGEST + _moves("quick_p50_ms@query_heavy")),
    Layer("sketches.absorb_elems", "count", "lower", _INGEST),
    Layer("sketches.snapshot_s", "s", "lower",
          _moves("quick_p50_ms@query_heavy")),
    Layer("sketches.merge_many_s", "s", "lower",
          _moves("quick_p50_ms@cluster_4shard")),
    Layer("sketches.merge_many_calls", "count", "lower",
          _moves("quick_p50_ms@cluster_4shard")),
    # warehouse
    Layer("warehouse.sort_s", "s", "lower", _SEAL),
    Layer("warehouse.merge_s", "s", "lower", _SEAL),
    Layer("warehouse.load_s", "s", "lower", _SEAL),
    Layer("warehouse.merge_steps", "count", "lower", _SEAL),
    Layer("warehouse.partitions_final", "count", "lower",
          _moves("quick_p50_ms@query_heavy")),
    Layer("warehouse.seal_stall_p50_ms", "ms", "lower", _SEAL),
    Layer("warehouse.seal_stall_p95_ms", "ms", "lower", _SEAL),
    Layer("warehouse.seal_samples", "count", "higher"),
    # core.summaries
    Layer("core.summaries.partition_build_s", "s", "lower", _SEAL),
    Layer("core.summaries.stream_extract_s", "s", "lower",
          _moves("quick_p50_ms@query_heavy")),
    # core.epoch
    Layer("core.epoch.pin_s", "s", "lower",
          _moves("quick_p50_ms@query_heavy", "quick_p50_ms@mixed_serving")),
    Layer("core.epoch.pins", "count", "lower",
          _moves("quick_p50_ms@mixed_serving")),
    Layer("core.epoch.peak_pins", "count", "lower",
          _moves("quick_p50_ms@mixed_serving")),
    # core.bounds
    Layer("core.bounds.ts_build_s", "s", "lower", _QUERY_BOTH),
    Layer("core.bounds.ts_builds", "count", "lower", _QUERY_BOTH),
    Layer("core.bounds.ts_elems_mean", "count", "lower", _QUERY_BOTH),
    Layer("core.bounds.quick_response_s", "s", "lower",
          _moves("quick_p50_ms@query_heavy")),
    Layer("core.bounds.quick_err_over_bound_max", "ratio", "lower"),
    Layer("core.bounds.accurate_err_over_bound_max", "ratio", "lower"),
    # core.filters
    Layer("core.filters.search_s", "s", "lower", _ACCURATE),
    Layer("core.filters.iterations_per_query", "count", "lower", _ACCURATE),
    Layer("core.filters.truncated", "count", "lower", _ACCURATE),
    # query
    Layer("query.run_tasks_s", "s", "lower",
          _moves("accurate_p50_ms@query_heavy",
                 "accurate_p50_ms@cluster_4shard")),
    Layer("query.probe_tasks", "count", "lower",
          _moves("accurate_p50_ms@query_heavy",
                 "accurate_p50_ms@cluster_4shard")),
    # storage
    Layer("storage.random_blocks", "blocks", "lower", _BLOCKS),
    Layer("storage.seq_blocks_load", "blocks", "lower", _SEAL),
    Layer("storage.seq_blocks_sort", "blocks", "lower", _SEAL),
    Layer("storage.seq_blocks_merge", "blocks", "lower", _SEAL),
    Layer("storage.cache.hit_rate", "ratio", "higher", _COLD),
    Layer("storage.cache.evictions", "count", "lower", _COLD),
    Layer("storage.cache.invalidated_runs", "count", "lower", _COLD),
    Layer("storage.cache.coalesced_waits", "count", "higher", _COLD),
    Layer("storage.cache.prefetched_blocks", "count", "higher", _COLD),
    Layer("storage.backend.gets", "count", "lower", _COLD),
    Layer("storage.backend.get_blocks", "blocks", "lower", _COLD),
    Layer("storage.backend.puts", "count", "lower",
          _moves("ops_per_s@mixed_serving")),
    Layer("storage.backend.migrations", "count", "lower",
          _moves("ops_per_s@mixed_serving")),
    Layer("storage.backend.evicted_runs", "count", "lower", _COLD),
    Layer("storage.backend.hot_bytes", "bytes", "lower", _COLD),
    Layer("storage.backend.modeled_request_s", "s", "lower"),
    # ingest
    Layer("ingest.append_s", "s", "lower", _moves("ops_per_s@mixed_serving")),
    Layer("ingest.append_calls", "count", "lower",
          _moves("ops_per_s@mixed_serving")),
    Layer("ingest.update_ack_p50_ms", "ms", "lower",
          _moves("ops_per_s@mixed_serving")),
    Layer("ingest.update_ack_p95_ms", "ms", "lower",
          _moves("ops_per_s@mixed_serving")),
    Layer("ingest.wal.append_s", "s", "lower",
          _moves("ingest_updates_per_s@cluster_4shard")),
    Layer("ingest.wal.frames", "count", "lower",
          _moves("ingest_updates_per_s@cluster_4shard")),
    Layer("ingest.wal.bytes", "bytes", "lower",
          _moves("ingest_updates_per_s@cluster_4shard")),
    Layer("ingest.archiver.stall_s", "s", "lower",
          _moves("ops_per_s@mixed_serving")),
    Layer("ingest.archiver.archive_wall_s", "s", "lower",
          _moves("ops_per_s@mixed_serving")),
    Layer("ingest.archiver.max_queue_depth", "count", "lower",
          _moves("ops_per_s@mixed_serving")),
    # serving
    Layer("serving.coalescing_ratio", "ratio", "lower", _SERVE),
    Layer("serving.coalesced_batches", "count", "lower", _SERVE),
    Layer("serving.max_batch", "count", "higher", _SERVE),
    Layer("serving.peak_queue_depth", "count", "lower", _SERVE),
    Layer("serving.rejected", "count", "lower", _SERVE),
    Layer("serving.degraded_to_quick", "count", "lower", _SERVE),
    Layer("serving.warm_passes", "count", "lower", _COLD),
    Layer("serving.warm_blocks", "blocks", "lower", _COLD),
    Layer("serving.svc_quick_p50_ms", "ms", "lower", _SERVE),
    Layer("serving.svc_accurate_p50_ms", "ms", "lower", _COLD),
    Layer("serving.client_quick_p99_ms", "ms", "lower"),
    Layer("serving.client_accurate_p99_ms", "ms", "lower"),
    # cluster
    Layer("cluster.route_s", "s", "lower",
          _moves("ingest_updates_per_s@cluster_4shard")),
    Layer("cluster.pin_s", "s", "lower", _CLUSTER[:2]),
    Layer("cluster.fuse_s", "s", "lower", _CLUSTER[:2]),
    Layer("cluster.poll_s", "s", "lower",
          _moves("ingest_updates_per_s@cluster_4shard")),
    Layer("cluster.quick_p90_ms", "ms", "lower"),
    Layer("cluster.accurate_p90_ms", "ms", "lower"),
    Layer("cluster.shard_skew", "ratio", "lower", _CLUSTER),
    Layer("cluster.per_shard_blocks_max", "blocks", "lower",
          _moves("accurate_p50_ms@cluster_4shard")),
    Layer("cluster.partial_gathers", "count", "lower"),
    # ungated tails (caller-observed, untraced rounds) and bookkeeping
    Layer("core.engine.quick_p95_ms", "ms", "lower"),
    Layer("core.engine.accurate_p95_ms", "ms", "lower"),
    Layer("core.engine.quick_p99_ms", "ms", "lower"),
    Layer("core.engine.accurate_p99_ms", "ms", "lower"),
    Layer("core.engine.quick_samples", "count", "higher"),
    Layer("core.engine.accurate_samples", "count", "higher"),
    Layer("tracing.ops", "count", "higher"),
    Layer("tracing.layer_coverage_share", "ratio", "higher"),
    Layer("tracing.overhead_share", "ratio", "lower"),
    # median over the rounds of REFERENCE_S / probe time: divide a
    # reported duration by it to get what the clock read.
    Layer("machine.speed", "ratio", "higher"),
]

END_TO_END_NAMES = [m.name for m in END_TO_END]
PER_LAYER_NAMES = [m.name for m in PER_LAYER]
UNITS: Dict[str, str] = {m.name: m.unit for m in END_TO_END}
UNITS.update({m.name: m.unit for m in PER_LAYER})
