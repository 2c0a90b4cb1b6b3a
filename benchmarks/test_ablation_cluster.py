"""Ablation A11: sharded cluster — shard count x merged-KLL accuracy.

A ``ClusterEngine`` sends each time step to one of N independent
engines (its home shard), each with its own simulated disk, so the
modeled cost of ingest is the *critical path* — the max per-shard
simulated seconds — not the sum.
This ablation drives the same seeded Normal stream through

    shards in {1, 4, 16}        (sketch_backend = "kll")

with batched ingest, and asserts the three claims the cluster layer
makes:

* *throughput* — on the simulated-I/O critical path (elements per max
  per-shard simulated second) N shards clear the step-granular model
  ``STEPS / ceil(STEPS / N)`` over one shard: a step's I/O stays on its
  home's device and homes go round the shards, so the busiest device
  carries ``ceil(STEPS / N)`` steps (2.5x at 4 shards, 5x at 16);
* *quick accuracy* — the 16-shard fused quick path (per-shard KLL
  summaries merged with ``KLLSketch.merge_many``) answers within its
  reported merged bound against exact ground truth, and a direct
  merge of per-shard KLL sketches holds the ``eps * n`` union bound;
* *accurate exactness* — scatter/gather answers stay within the
  single-engine accurate bound at every shard count;
* *one engine's partitions* — 16 shards hold as many non-empty
  partitions, and as long an HS, as one shard: a step lives on its
  home alone.

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
from repro.cluster import ClusterEngine
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
    with cluster.pin() as view:
        partitions = sum(len(p) > 0 for p in view.scope()[0])
        hs_entries = len(view.combined().historical)

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
        "partitions": partitions,
        "hs_entries": hs_entries,
        "worst_quick_error": max(quick_errors),
        "quick_bound": max(r.rank_error_bound for r in quick),
        "worst_accurate_error": max(accurate_errors),
        "accurate_bound": max(r.rank_error_bound for r in accurate),
    }


def step_granular_speedup(shards):
    """Modeled critical-path speedup of ``shards`` shards over one."""
    return STEPS / math.ceil(STEPS / shards)


def merged_kll_check(shards):
    """Direct merge of per-shard KLL sketches holds the union bound: the
    data interleaved over ``shards`` non-empty sketches."""
    data = NormalWorkload(seed=808).generate(STEPS * STEP_ELEMS)
    sketches = []
    for index in range(shards):
        sketch = KLLSketch(EPSILON, seed=1 + index)
        sketch.update_many(data[index::shards])
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

    # Home routing: 16 shards hold one shard's partitions and HS.
    for key in ("partitions", "hs_entries"):
        assert by_shards[16][key] == by_shards[1][key], (key, rows)
    # Throughput: per-shard disks run concurrently and a step's I/O
    # stays on its home's, so each shard count must clear the
    # step-granular model on the simulated-I/O critical path.
    for shards in SHARDS[1:]:
        ratio = (
            by_shards[shards]["sim_throughput"]
            / by_shards[1]["sim_throughput"]
        )
        model = step_granular_speedup(shards)
        assert ratio >= model * (1 - 1e-9), (shards, ratio, model)
    # Quick accuracy: fused merged-KLL answers stay inside their own
    # reported bound at every shard count, including 16.
    for row in rows:
        assert row["worst_quick_error"] <= row["quick_bound"] + 1, row
        assert (
            row["worst_accurate_error"] <= row["accurate_bound"] + 1
        ), row
    # Direct merge of the 16 per-shard sketches holds eps * n.
    assert merged_error <= merged_bound, (merged_error, merged_bound)
