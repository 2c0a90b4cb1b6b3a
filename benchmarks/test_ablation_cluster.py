"""Ablation A11: sharded cluster — shard count x merged-KLL accuracy.

A ``ClusterEngine`` fans the stream over N independent engines, each
with its own simulated disk, so the modeled cost of ingest is the
*critical path* — the max per-shard simulated seconds — not the sum.
This ablation drives the same seeded Normal stream through

    shards in {1, 4, 16}        (sketch_backend = "kll")

with batched ingest, and asserts the three claims the cluster layer
makes:

* *throughput* — 4 shards clear >= 3x the single-shard ingest
  throughput on the simulated-I/O critical path (elements per max
  per-shard simulated second);
* *quick accuracy* — the 16-shard fused quick path (per-shard KLL
  summaries merged with ``KLLSketch.merge_many``) answers within its
  reported merged bound against exact ground truth, and a direct
  merge of per-shard KLL sketches holds the ``eps * n`` union bound;
* *accurate exactness* — scatter/gather answers stay within the
  single-engine accurate bound at every shard count.

It also times ``quick_hit_qps``: ``HITS`` quick queries at one cluster
version after the timed post-seal ones, the rate of pins that reuse the
cluster's gathered view and the memo's TS.  A report, not a gate.

The table is written to ``BENCH_cluster.json`` next to this file; the
CI cluster job regenerates and uploads it.
"""

import math
import time

import numpy as np

from common import SCALE, bench_path, show, write_bench
from conftest import run_once
from repro.cluster import ClusterEngine, ShardRouter
from repro.core.config import EngineConfig
from repro.sketches.base import rank_for_phi
from repro.sketches.kll import KLLSketch
from repro.workloads import NormalWorkload

PHIS = (0.05, 0.25, 0.5, 0.75, 0.95)
SHARDS = (1, 4, 16)
STEPS = 5
#: quick queries timed at one version for ``quick_hit_qps``.
HITS = 200
STEP_ELEMS = int(20_000 * SCALE)
EPSILON = 0.02
BACKEND = "kll"
#: simulated-I/O critical-path floor for 4 shards over 1.
SPEEDUP_FLOOR = 3.0
RESULT_FILE = bench_path("cluster")


def rank_error(full, result):
    """Distance from the answer's true rank bracket to its target."""
    lo = int(np.searchsorted(full, result.value, side="left")) + 1
    hi = int(np.searchsorted(full, result.value, side="right"))
    rank = result.target_rank
    if lo <= rank <= hi:
        return 0
    return min(abs(rank - lo), abs(rank - hi))


def drive(shards):
    """One seeded cluster run; returns timings plus worst-case errors."""
    config = EngineConfig(
        epsilon=EPSILON, block_elems=100, sketch_backend=BACKEND
    )
    cluster = ClusterEngine(shards=shards, config=config)
    workload = NormalWorkload(seed=808)
    chunks = []
    started = time.perf_counter()
    for _ in range(STEPS):
        batch = workload.generate(STEP_ELEMS)
        chunks.append(batch)
        cluster.stream_update_many(batch)
        cluster.end_time_step()
    cluster.flush()
    ingest_wall = time.perf_counter() - started
    sims = cluster.per_shard_sim_seconds()
    critical = max(sims)
    elements = STEPS * STEP_ELEMS

    tick = time.perf_counter()
    quick = [cluster.quantile(phi, mode="quick") for phi in PHIS]
    quick_seconds = time.perf_counter() - tick
    tick = time.perf_counter()
    for turn in range(HITS):
        cluster.quantile(PHIS[turn % len(PHIS)], mode="quick")
    hit_seconds = time.perf_counter() - tick
    accurate = [cluster.quantile(phi, mode="accurate") for phi in PHIS]

    full = np.sort(np.concatenate(chunks))
    quick_errors = [rank_error(full, r) for r in quick]
    accurate_errors = [rank_error(full, r) for r in accurate]
    cluster.check_invariants()
    cluster.close()
    return {
        "shards": shards,
        "elements": int(elements),
        "sim_critical_seconds": critical,
        "sim_total_seconds": sum(sims),
        "sim_throughput": elements / critical,
        "ingest_wall_seconds": ingest_wall,
        "quick_qps": len(PHIS) / quick_seconds,
        "quick_hit_qps": HITS / hit_seconds,
        "worst_quick_error": max(quick_errors),
        "quick_bound": max(r.rank_error_bound for r in quick),
        "worst_accurate_error": max(accurate_errors),
        "accurate_bound": max(r.rank_error_bound for r in accurate),
    }


def merged_kll_check(shards):
    """Direct merge of per-shard KLL sketches holds the union bound."""
    data = NormalWorkload(seed=808).generate(STEPS * STEP_ELEMS)
    parts = ShardRouter(shards).route_many(data)
    sketches = []
    for index, part in enumerate(parts):
        sketch = KLLSketch(EPSILON, seed=1 + index)
        if part.size:
            sketch.update_many(part)
        sketches.append(sketch)
    merged = KLLSketch.merge_many(sketches, seed=99)
    full = np.sort(data)
    n = int(data.size)
    assert merged.n == n
    worst = 0
    for phi in PHIS:
        rank = rank_for_phi(phi, n)
        value = merged.query_rank(rank)
        lo = int(np.searchsorted(full, value, side="left")) + 1
        hi = int(np.searchsorted(full, value, side="right"))
        if not lo <= rank <= hi:
            worst = max(worst, min(abs(rank - lo), abs(rank - hi)))
    return worst, math.ceil(EPSILON * n)


def sweep():
    return [drive(shards) for shards in SHARDS]


def test_ablation_cluster(benchmark):
    rows = run_once(benchmark, sweep)
    show(
        "Ablation A11: shard count (Normal, "
        f"{STEPS} steps x {STEP_ELEMS:,} elements, kll backend)",
        [
            "shards",
            "sim crit s",
            "elems/sim s",
            "quick qps",
            "hit qps",
            "quick err<=",
            "acc err<=",
        ],
        [
            [
                r["shards"],
                r["sim_critical_seconds"],
                r["sim_throughput"],
                r["quick_qps"],
                r["quick_hit_qps"],
                f"{r['worst_quick_error']}/{r['quick_bound']}",
                f"{r['worst_accurate_error']}/{r['accurate_bound']}",
            ]
            for r in rows
        ],
    )
    by_shards = {r["shards"]: r for r in rows}
    speedup = (
        by_shards[4]["sim_throughput"] / by_shards[1]["sim_throughput"]
    )
    merged_error, merged_bound = merged_kll_check(16)
    write_bench(
        "cluster",
        {
            "benchmark": "cluster_ablation",
            "meta": {
                "steps": STEPS,
                "step_elems": STEP_ELEMS,
                "epsilon": EPSILON,
                "phis": list(PHIS),
                "shards": max(SHARDS),
                "shards_swept": list(SHARDS),
                "sketch_backend": BACKEND,
                "storage_backend": "simulated",
                "object_tier": False,
            },
            "rows": rows,
            "sim_speedup_4_over_1": speedup,
            "quick_hit_16_over_1": (
                by_shards[16]["quick_hit_qps"] / by_shards[1]["quick_hit_qps"]
            ),
            "merged_kll_16": {
                "worst_error": merged_error,
                "bound": merged_bound,
            },
        },
    )

    # Throughput: per-shard disks run concurrently, so 4 shards must
    # clear the floor on the simulated-I/O critical path.
    assert speedup >= SPEEDUP_FLOOR, speedup
    # Quick accuracy: fused merged-KLL answers stay inside their own
    # reported bound at every shard count, including 16.
    for row in rows:
        assert row["worst_quick_error"] <= row["quick_bound"] + 1, row
        assert (
            row["worst_accurate_error"] <= row["accurate_bound"] + 1
        ), row
    # Direct merge of the 16 per-shard sketches holds eps * n.
    assert merged_error <= merged_bound, (merged_error, merged_bound)
